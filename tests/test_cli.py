import json
import re
from dataclasses import replace

import numpy as np
import pytest

from surrokit.classifiers import NetworkClassifier
from surrokit.cli import main
from surrokit.dataio import load_dataset
from surrokit.synthetic import (
    ClassSpec,
    SyntheticSpec,
    TransientSpec,
    ar_resonance_coeffs,
    spec_to_json,
)

TINY_SPEC = SyntheticSpec(
    classes=(
        ClassSpec("low", 0.5, ar_resonance_coeffs(2.0, 0.9, 32.0), noise_scale=10.0),
        ClassSpec(
            "high",
            0.5,
            ar_resonance_coeffs(11.0, 0.9, 32.0),
            noise_scale=10.0,
            transient=TransientSpec(amplitude=80.0, width_s=0.5, freq_hz=11.0),
        ),
    ),
    epoch_len_s=10.0,
    n_records=4,
)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(TINY_SPEC))
    return str(path)


@pytest.fixture
def dataset_file(tmp_path, spec_file):
    out = str(tmp_path / "data.sdat")
    assert main(["synth", spec_file, out, "--n", "28", "--seed", "5"]) == 0
    return out


@pytest.fixture
def weights_file(tmp_path, dataset_file):
    out = str(tmp_path / "w.swt")
    code = main(
        ["train", dataset_file, out, "--steps", "4", "--batch", "6", "--seed", "2",
         "--arch", "reference"]
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_loadable_dataset(self, dataset_file):
        ds = load_dataset(dataset_file)
        assert len(ds) == 28
        assert ds.label_vocabulary == ("low", "high")

    def test_bundled_spec_token(self, tmp_path):
        out = str(tmp_path / "b.sdat")
        assert main(["synth", "bundled", out, "--n", "6", "--seed", "1"]) == 0
        ds = load_dataset(out)
        assert ds.epochs[0].n_samples == 960

    def test_missing_spec_file_is_data_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.json"), str(tmp_path / "o"), "--n", "4"]) == 2


class TestShapes:
    def test_reports_published_counts(self, capsys):
        assert main(["shapes", "--arch", "full"]) == 0
        out = capsys.readouterr().out
        assert "channel pipe: 32,936 trainable parameters" in out
        assert "joined pipe: 64,371 trainable parameters" in out
        assert "960x16" in out and "41x1x10" in out


class TestSurrogate:
    def test_ft_preserves_labels_and_shape(self, tmp_path, dataset_file):
        out = str(tmp_path / "surr.sdat")
        assert main(["surrogate", dataset_file, out, "--kind", "ft", "--seed", "3"]) == 0
        original = load_dataset(dataset_file)
        surrogate = load_dataset(out)
        assert [e.label for e in surrogate.epochs] == [e.label for e in original.epochs]
        assert not np.array_equal(surrogate.epochs[0].to_array(), original.epochs[0].to_array())

    def test_iaaft_prints_reports(self, tmp_path, dataset_file, capsys):
        out = str(tmp_path / "surr.sdat")
        assert main(
            ["surrogate", dataset_file, out, "--kind", "iaaft", "--seed", "3", "--iters", "10"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "iterations" in stdout and "discrepancy" in stdout


class TestBalance:
    def test_prints_before_after_counts(self, tmp_path, dataset_file, capsys):
        out = str(tmp_path / "bal.sdat")
        code = main(
            ["balance", dataset_file, out, "--beta", "1", "--alpha", "0.5", "--seed", "4"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "class\tbefore\tafter" in stdout
        balanced = load_dataset(out)
        counts = balanced.class_counts()
        assert counts["low"] == counts["high"]

    def test_iaaft_summary_goes_to_stderr(self, tmp_path, dataset_file, capsys):
        args = [dataset_file, "--beta", "1", "--alpha", "0.5", "--seed", "4"]
        assert main(["balance", *args[:1], str(tmp_path / "ft.sdat"), *args[1:]]) == 0
        ft = capsys.readouterr()
        assert ft.err == ""
        out = str(tmp_path / "ia.sdat")
        assert main(["balance", *args[:1], out, *args[1:], "--kind", "iaaft"]) == 0
        ia = capsys.readouterr()
        assert ia.out == ft.out.replace("ft.sdat", "ia.sdat")
        (line,) = ia.err.splitlines()
        match = re.fullmatch(
            r"iaaft: (\d+) channels replaced, (\d+) iterations; stop reasons: "
            r"exact (\d+), tolerance (\d+), stalled (\d+), max_iters (\d+)",
            line,
        )
        replaced, iterations, *per_reason = map(int, match.groups())
        assert sum(per_reason) == replaced > 0 and iterations >= replaced

    def test_identity_balance_is_permutation(self, tmp_path, dataset_file):
        out = str(tmp_path / "same.sdat")
        assert main(["balance", dataset_file, out, "--beta", "0", "--alpha", "0"]) == 0
        original = load_dataset(dataset_file)
        balanced = load_dataset(out)
        key = lambda ds: sorted(ep.to_array().tobytes() for ep in ds.epochs)
        assert key(original) == key(balanced)


class TestSplit:
    def test_writes_disjoint_files(self, tmp_path, dataset_file):
        groups = tmp_path / "groups.txt"
        ds = load_dataset(dataset_file)
        records = sorted(set(ds.record_ids))
        groups.write_text("".join(f"{r} g{i % 2}\n" for i, r in enumerate(records)))
        out_train = str(tmp_path / "train.sdat")
        out_val = str(tmp_path / "val.sdat")
        code = main(
            ["split", dataset_file, "--folds", "2", "--fold", "0",
             "--groups-file", str(groups), "--out-train", out_train, "--out-val", out_val]
        )
        assert code == 0
        train, val = load_dataset(out_train), load_dataset(out_val)
        assert not set(train.record_ids) & set(val.record_ids)
        assert len(train) + len(val) == len(ds)


class TestTrainEvaluate:
    def test_train_prints_loss_trace(self, tmp_path, dataset_file, capsys):
        out = str(tmp_path / "w.swt")
        assert main(["train", dataset_file, out, "--steps", "3", "--batch", "4"]) == 0
        stdout = capsys.readouterr().out
        assert "step 0\tloss" in stdout

    def test_evaluate_writes_report(
        self, tmp_path, dataset_file, weights_file, capsys, monkeypatch
    ):
        classified = []
        predict_batch = NetworkClassifier.predict_batch

        def counting(self, epochs):
            classified.append(len(epochs))
            return predict_batch(self, epochs)

        monkeypatch.setattr(NetworkClassifier, "predict_batch", counting)
        report = tmp_path / "report.tsv"
        assert main(["evaluate", dataset_file, weights_file, "--out", str(report)]) == 0
        assert classified == [28]  # one batched forward over the set
        text = report.read_text()
        assert "# section predictions" in text
        assert "# section confusion_counts" in text
        assert "macro_f1" in text
        assert "macro F1:" in capsys.readouterr().out

    def test_condconf_runs(self, tmp_path, dataset_file, weights_file, capsys):
        out = tmp_path / "cc.tsv"
        code = main(
            ["condconf", dataset_file, weights_file, "--kind", "ft", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "off-diagonal mass" in stdout or "nothing to condition on" in stdout

    def test_sweep_row_count(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "sweep.tsv"
        code = main(
            ["sweep", dataset_file, "--alphas", "0,1", "--beta", "0.5", "--folds", "1",
             "--seed", "3", "--steps", "2", "--batch", "4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("alpha\tfold\tmacro_f1")
        assert len(lines) == 1 + 2

    def test_saliency_table(self, tmp_path, dataset_file, weights_file):
        out = tmp_path / "sal.tsv"
        code = main(
            ["saliency", dataset_file, weights_file, "--epoch-index", "0",
             "--window", "2", "--step", "2", "--reps", "2", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("position_s\t")
        assert lines[1].startswith("baseline\t")
        assert len(lines) == 2 + 5  # (10 - 2) / 2 + 1 positions

    def test_zero_method(self, tmp_path, dataset_file, weights_file):
        out = tmp_path / "salz.tsv"
        code = main(
            ["saliency", dataset_file, weights_file, "--method", "zero",
             "--window", "2", "--step", "4", "--out", str(out)]
        )
        assert code == 0


def _rewrite_header(src, dst, edit):
    header_line, payload = open(src, "rb").read().split(b"\n", 1)
    header = json.loads(header_line)
    edit(header)
    with open(dst, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n" + payload)


class TestMalformedHeaders:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("n_epochs"),
            lambda h: h.update(n_epochs="2"),
            lambda h: h.update(epoch_len_samples=-1),
            lambda h: h.update(label_vocabulary=3),
            lambda h: h.update(record_ids=[1, 2]),
            lambda h: h.update(sample_rate_hz="32"),
        ],
        ids=["no-n_epochs", "str-n_epochs", "negative-length", "int-vocabulary",
             "int-record-ids", "str-rate"],
    )
    def test_dataset_header_exit_2(self, tmp_path, dataset_file, edit, capsys):
        bad = str(tmp_path / "bad.sdat")
        _rewrite_header(dataset_file, bad, edit)
        capsys.readouterr()
        assert main(["surrogate", bad, str(tmp_path / "o.sdat")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("surrokit: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["arch_config"].update(bogus=1),
            lambda h: h.update(arch_config=[1, 2]),
            lambda h: h.pop("tensors"),
            lambda h: h.update(tensors={"key": "x"}),
            lambda h: h["tensors"][0].pop("shape"),
            lambda h: h["tensors"][0].update(shape=["3"]),
        ],
        ids=["unknown-arch-key", "list-arch-config", "no-tensors", "dict-tensors",
             "tensor-without-shape", "str-shape"],
    )
    def test_checkpoint_header_exit_2(self, tmp_path, dataset_file, weights_file, edit, capsys):
        bad = str(tmp_path / "bad.swt")
        _rewrite_header(weights_file, bad, edit)
        capsys.readouterr()
        assert main(["evaluate", dataset_file, bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("surrokit: ") and err.count("\n") == 1


class TestErrorHandling:
    def test_usage_error_exit_1(self):
        assert main(["sweep", "nofile", "--alphas", "abc"]) in (1, 2)
        assert main(["no-such-command"]) == 1

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["evaluate", str(tmp_path / "missing.sdat"), str(tmp_path / "w")]) == 2

    def test_env_seed_is_echoed(self, tmp_path, spec_file, monkeypatch, capsys):
        monkeypatch.setenv("SURROKIT_SEED", "77")
        out1 = str(tmp_path / "a.sdat")
        out2 = str(tmp_path / "b.sdat")
        assert main(["synth", spec_file, out1, "--n", "4"]) == 0
        assert "SURROKIT_SEED" in capsys.readouterr().err
        assert main(["synth", spec_file, out2, "--n", "4"]) == 0
        assert (tmp_path / "a.sdat").read_bytes() == (tmp_path / "b.sdat").read_bytes()

    def test_unstorable_output_exit_2(self, tmp_path, capsys):
        # noise this loud is finite in float64 but overflows float32 storage
        classes = tuple(replace(c, noise_scale=1e39) for c in TINY_SPEC.classes)
        loud = replace(TINY_SPEC, classes=classes)
        spec = tmp_path / "loud.json"
        spec.write_text(spec_to_json(loud))
        out = tmp_path / "loud.sdat"
        assert main(["synth", str(spec), str(out), "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert "float32" in err and err.count("\n") == 1
        assert not out.exists()

    def test_bad_env_seed_is_usage_error(self, spec_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SURROKIT_SEED", "abc")
        assert main(["synth", spec_file, str(tmp_path / "x.sdat"), "--n", "4"]) == 1

    def test_numerical_failure_exit_3(self, tmp_path, dataset_file, monkeypatch):
        from surrokit import cli
        from surrokit.errors import NumericalError

        def diverge(*args, **kwargs):
            raise NumericalError("training diverged at step 0: loss=nan")

        monkeypatch.setattr(cli, "train_network", diverge)
        assert main(["train", dataset_file, str(tmp_path / "w.swt"), "--steps", "1"]) == 3
