import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import surrokit
from oracles import iaaft_per_channel, phase_randomize_per_channel
from surrokit import cli, synthetic
from surrokit.classifiers import NetworkClassifier
from surrokit.cli import main
from surrokit.dataio import descriptor_fingerprint, load_dataset, load_weights, save_dataset
from surrokit.network import Dropout, reference_architecture
from surrokit.seeding import NS_EPOCH_FILE, derive_seed, spawn_rng
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
        assert ds.n_samples == 960

    def test_missing_spec_file_is_data_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.json"), str(tmp_path / "o"), "--n", "4"]) == 2


class TestImport:
    def test_import_loads_no_scipy_and_starts_no_thread(self):
        # a fresh interpreter, so modules other tests imported do not count;
        # multiprocessing is imported by the first fork map, not at start-up
        package_root = str(Path(surrokit.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, threading, surrokit.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing')), "
            "threading.active_count())"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "1"]

    def test_cli_loads_every_module_the_benchmark_traces(self):
        # the traced benchmark looks each target module up in sys.modules
        # after importing surrokit.cli, and a missing one raises KeyError;
        # a target attribute it cannot find reads 0 with only a stderr note
        package_root = str(Path(surrokit.__file__).resolve().parent.parent)
        bench = str(Path(__file__).resolve().parent.parent / "bench")
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, surrokit.cli; "
            f"sys.path.insert(0, {bench!r}); import tracing; "
            "print(sorted({m for _, m, _, _ in tracing.TARGETS} - "
            "{n.split('.', 1)[1] for n in sys.modules if n.startswith('surrokit.')})); "
            "print(sorted(f'{m}.{a}' for _, m, a, _ in tracing.TARGETS "
            "if tracing._lookup(sys.modules[f'surrokit.{m}'], a) is None))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == 0, result.stderr
        missing_modules, missing_targets = result.stdout.splitlines()
        assert missing_modules == "[]"
        # targets whose code was deleted, left for the benchmark to retire
        dead = ["classifiers.NetworkClassifier.predict", "network.forward",
                "signals.epoch_from_array", "surrogates._channel_surrogate"]
        assert missing_targets == str(dead)

    def test_c_library_without_mallopt_is_skipped(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert main(["shapes", "--arch", "reference"]) == 0
        assert "trainable parameters" in capsys.readouterr().out


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
        assert list(surrogate.labels) == list(original.labels)
        assert not np.array_equal(surrogate.x[0], original.x[0])

    def test_iaaft_prints_reports(self, tmp_path, dataset_file, capsys):
        out = str(tmp_path / "surr.sdat")
        assert main(
            ["surrogate", dataset_file, out, "--kind", "iaaft", "--seed", "3", "--iters", "10"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "iterations" in stdout and "discrepancy" in stdout

    @pytest.mark.parametrize(
        "kind, options", [("ft", []), ("iaaft", ["--iters", "10", "--tol", "1e-3"])]
    )
    def test_file_and_stdout_equal_one_epoch_at_a_time(
        self, tmp_path, dataset_file, kind, options, capsys
    ):
        # the whole dataset runs as one block; channel c of epoch i must
        # still get the per-channel surrogate under (derive_seed(seed,
        # epoch file, i), c), and the reports print in epoch order
        out = tmp_path / "surr.sdat"
        capsys.readouterr()
        argv = ["surrogate", dataset_file, str(out), "--kind", kind, "--seed", "3"] + options
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        original = load_dataset(dataset_file)
        x = np.empty_like(original.x)
        lines = []
        for i in range(len(original)):
            epoch_seed = derive_seed(3, NS_EPOCH_FILE, i)
            reports = []
            for c, row in enumerate(original.x[i]):
                if kind == "ft":
                    x[i, c] = phase_randomize_per_channel(row, spawn_rng(epoch_seed, c))
                    continue
                x[i, c], report = iaaft_per_channel(row, spawn_rng(epoch_seed, c), 10, 1e-3)
                reports.append(report)
            if reports:
                iters = ",".join(str(r.iterations) for r in reports)
                discs = ",".join(f"{r.final_discrepancy:.3e}" for r in reports)
                lines.append(f"epoch {i}: iterations [{iters}] discrepancy [{discs}]")
        lines.append(f"wrote {len(original)} {kind} surrogate epochs to {out}")
        expected = tmp_path / "expected.sdat"
        save_dataset(str(expected), replace(original, x=x))
        assert out.read_bytes() == expected.read_bytes()
        assert stdout == "\n".join(lines) + "\n"


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
        key = lambda ds: sorted(samples.tobytes() for samples in ds.x)
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

    def test_checkpoint_from_before_the_checksum_still_loads(self, tmp_path):
        # its train_config holds the removed momentum and rms_decay, and its
        # header has no payload_sha256
        checkpoint = Path(__file__).resolve().parent.parent / "bench" / "reference.swt"
        _, _, header = load_weights(checkpoint)
        assert "payload_sha256" not in header
        assert {"momentum", "rms_decay"} <= set(header["train_config"])
        data = str(tmp_path / "data.sdat")
        assert main(["synth", "bundled", data, "--n", "12", "--seed", "3"]) == 0
        assert main(["evaluate", data, str(checkpoint)]) == 0

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

    @pytest.mark.parametrize("method", ["surrogate", "zero"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--window", "nan"), ("--step", "nan"), ("--crossfade", "nan"), ("--step", "1e-300"),
         ("--window", "1e-300"), ("--crossfade", "1e308")],
    )
    def test_hostile_saliency_arguments_exit_2(
        self, tmp_path, dataset_file, weights_file, method, flag, value, capsys
    ):
        out = tmp_path / "bad.tsv"
        argv = ["saliency", dataset_file, weights_file, "--method", method, "--reps", "1",
                flag, value, "--out", out]
        _exits_2_with_one_line(argv, capsys, out)


def _rewrite_header(src, dst, edit):
    header_line, payload = Path(src).read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    edit(header)
    with open(dst, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n" + payload)


def _dropout_rate(key, rate):
    """A header edit that sets a dropout rate and the fingerprint that goes
    with it, as a file written before rates were checked could hold."""

    def edit(header):
        header["arch_config"][key] = rate
        with mock.patch.object(Dropout, "__post_init__", lambda self: None, create=True):
            descriptor = reference_architecture(**header["arch_config"])
        header["fingerprint"] = descriptor_fingerprint(descriptor)

    return edit


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
            _dropout_rate("dropout_conv", 1.0),
            _dropout_rate("dropout_dense", 1.5),
            _dropout_rate("dropout_conv", -0.5),
            _dropout_rate("dropout_dense", float("nan")),
            _dropout_rate("dropout_conv", True),
            lambda h: h.update(payload_sha256=h["payload_sha256"][::-1]),
            lambda h: h.update(payload_sha256=None),
        ],
        ids=["unknown-arch-key", "list-arch-config", "no-tensors", "dict-tensors",
             "tensor-without-shape", "str-shape", "dropout-1", "dropout-1.5",
             "dropout-negative", "dropout-nan", "dropout-bool", "wrong-checksum",
             "null-checksum"],
    )
    def test_checkpoint_header_exit_2(self, tmp_path, dataset_file, weights_file, edit, capsys):
        bad = str(tmp_path / "bad.swt")
        _rewrite_header(weights_file, bad, edit)
        capsys.readouterr()
        assert main(["evaluate", dataset_file, bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"surrokit: {bad}: ") and err.count("\n") == 1


def _exits_2_with_one_line(argv, capsys, *outputs):
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("surrokit: ") and err.count("\n") == 1, err
    assert out == "", out
    assert not any(Path(path).exists() for path in outputs)
    return err


class TestRoleMismatch:
    @pytest.mark.parametrize("command", ["train", "evaluate", "condconf", "saliency"])
    def test_swapped_roles_exit_2(self, tmp_path, dataset_file, weights_file, command, capsys):
        # EOG and EMG swapped: EMG would run through the eog weights
        swapped = tmp_path / "swapped.sdat"
        roles = ("EEG1", "EEG2", "EMG", "EOG")
        save_dataset(swapped, replace(load_dataset(dataset_file), channel_roles=roles))
        out = tmp_path / "out"
        argv = {
            "train": ["train", swapped, out, "--steps", "1", "--batch", "2"],
            "evaluate": ["evaluate", swapped, weights_file, "--out", out],
            "condconf": ["condconf", swapped, weights_file, "--out", out],
            "saliency": ["saliency", swapped, weights_file, "--reps", "1", "--out", out],
        }[command]
        assert "do not match" in _exits_2_with_one_line(argv, capsys, out)


# generator specs that each ended in a traceback; every edit acts on TINY_SPEC
SPEC_PROBES = {
    "int-classes": lambda spec: {"classes": 5},
    "list-spec": lambda spec: [],
    "str-prevalence": lambda spec: spec["classes"][0].update(prevalence="x"),
    "str-ar-coeff": lambda spec: spec["classes"][0].update(ar_coeffs=["a"]),
    "str-n_records": lambda spec: spec.update(n_records="3"),
    "negative-epoch-length": lambda spec: spec.update(epoch_len_s=-1),
    "infinite-prevalence-sum": lambda spec: [c.update(prevalence=1e308) for c in spec["classes"]],
    "burst-wider-than-epoch": lambda spec: spec["classes"][1]["transient"].update(width_s=1e9),
    "larger-than-memory": lambda spec: spec.update(epoch_len_s=1e12),
    "unknown-spec-key": lambda spec: spec.update(n_record=3),
    "unknown-class-key": lambda spec: spec["classes"][0].update(scale_jiter=0.35),
    "unknown-transient-key": lambda spec: spec["classes"][1]["transient"].update(widht_s=0.5),
    "bool-n_records": lambda spec: spec.update(n_records=True),
    "bool-transient-count": lambda spec: spec["classes"][1]["transient"].update(count=True),
    "bool-sample-rate": lambda spec: spec.update(sample_rate_hz=True),
}


class TestMalformedInputFiles:
    @pytest.mark.parametrize("probe", SPEC_PROBES.values(), ids=SPEC_PROBES.keys())
    def test_spec_exit_2(self, tmp_path, probe, capsys, monkeypatch):
        def no_burst(*args):
            raise AssertionError("the burst was built before its width was checked")

        # a 1e9 s burst would ask numpy for about 715 GiB
        monkeypatch.setattr(synthetic, "transient_waveform", no_burst)
        spec = json.loads(spec_to_json(TINY_SPEC))
        edited = probe(spec)
        path, out = tmp_path / "spec.json", tmp_path / "out.sdat"
        path.write_text(json.dumps(edited if isinstance(edited, (dict, list)) else spec))
        _exits_2_with_one_line(["synth", path, out, "--n", "4"], capsys, out)

    def test_spec_not_utf8_exit_2(self, tmp_path, capsys):
        path, out = tmp_path / "spec.json", tmp_path / "out.sdat"
        path.write_bytes(b"\xff" + spec_to_json(TINY_SPEC).encode())
        err = _exits_2_with_one_line(["synth", path, out, "--n", "4"], capsys, out)
        assert "utf-8" in err

    def test_groups_not_utf8_exit_2(self, tmp_path, dataset_file, capsys):
        groups = tmp_path / "groups.txt"
        groups.write_bytes(b"rec000 g\xff0\n")
        train, val = tmp_path / "train.sdat", tmp_path / "val.sdat"
        argv = ["split", dataset_file, "--groups-file", groups, "--out-train", train,
                "--out-val", val]
        assert "utf-8" in _exits_2_with_one_line(argv, capsys, train, val)

    def test_train_on_zero_epochs_exit_2(self, tmp_path, dataset_file, capsys):
        header = json.loads(Path(dataset_file).read_bytes().split(b"\n", 1)[0])
        header.update(n_epochs=0, record_ids=[])
        empty, out = tmp_path / "empty.sdat", tmp_path / "w.swt"
        empty.write_bytes(json.dumps(header).encode() + b"\n")
        err = _exits_2_with_one_line(["train", empty, out, "--steps", "1"], capsys, out)
        assert "empty" in err

    def test_zero_channel_dataset_exit_2(self, tmp_path, dataset_file, capsys):
        header_line, payload = Path(dataset_file).read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header.update(n_channels=0, channel_roles=[])
        labels = payload[-4 * header["n_epochs"]:]
        bad, out = tmp_path / "none.sdat", tmp_path / "out.sdat"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + labels)
        err = _exits_2_with_one_line(["surrogate", bad, out], capsys, out)
        assert ">= 1 channel" in err

    @pytest.mark.parametrize("case", ["huge_n_epochs", "trailing_byte"])
    def test_data_bytes_not_matching_header_exit_2(
        self, tmp_path, dataset_file, case, capsys, traced_peak
    ):
        header_line, data = Path(dataset_file).read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        if case == "huge_n_epochs":
            header["n_epochs"] = 10**12
        else:
            data += b"\0"
        per_epoch = (header["n_channels"] * header["epoch_len_samples"] + 1) * 4
        bad, out = tmp_path / "bad.sdat", tmp_path / "out.sdat"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + data)
        err, peak = traced_peak(_exits_2_with_one_line, ["surrogate", bad, out], capsys, out)
        assert f"expected {header['n_epochs'] * per_epoch} data bytes, found {len(data)}" in err
        assert peak < 2**20  # refused before anything the size of the header's claim

    @pytest.mark.parametrize("folds", ["0", "-1"])
    def test_sweep_without_folds_exit_2(self, tmp_path, dataset_file, folds, capsys):
        out = tmp_path / "sweep.tsv"
        argv = ["sweep", dataset_file, "--alphas", "0,1", "--folds", folds, "--steps", "1",
                "--out", out]
        assert "folds" in _exits_2_with_one_line(argv, capsys, out)


class TestDivergence:
    """An overflowing RMSProp accumulator ends training with exit 3."""

    @staticmethod
    def _exits_3_with_one_line(argv, capsys, out):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert not Path(out).exists()
        return err

    def test_train_exit_3(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "w.swt"
        argv = ["train", dataset_file, out, "--lr", "1e30", "--steps", "4", "--batch", "8"]
        err = self._exits_3_with_one_line(argv, capsys, out)
        assert err.startswith("surrokit: numerical failure: non-finite RMSProp accumulator")

    # 2 cores: the cells fail in forked workers; 1 core: inline
    @pytest.mark.parametrize("cores", [2, 1])
    def test_sweep_exit_3(self, tmp_path, dataset_file, cores, set_usable_cores, capsys):
        set_usable_cores(cores)
        out = tmp_path / "sweep.tsv"
        argv = ["sweep", dataset_file, "--alphas", "0,1", "--folds", "1", "--lr", "1e30",
                "--steps", "4", "--batch", "8", "--out", out]
        err = self._exits_3_with_one_line(argv, capsys, out)
        assert err.startswith("surrokit: numerical failure: non-finite RMSProp accumulator")

    # a learning rate that overflows the network itself: the pipes run on
    # a worker thread at 2 cores, and the sweep cells in forked workers
    @pytest.mark.parametrize("cores", [2, 1])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_network_overflow_exits_3_without_a_warning(
        self, tmp_path, dataset_file, command, cores, set_usable_cores, capsys
    ):
        set_usable_cores(cores)
        if command == "train":
            out = tmp_path / "w.swt"
            argv = ["train", dataset_file, out]
        else:
            out = tmp_path / "sweep.tsv"
            argv = ["sweep", dataset_file, "--alphas", "0,1", "--folds", "1", "--out", out]
        argv += ["--lr", "1e100", "--steps", "4", "--batch", "8"]
        # a numpy RuntimeWarning, in this process or a forked worker, fails
        # the command instead of reaching stderr unseen by capsys
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err = self._exits_3_with_one_line(argv, capsys, out)
        assert err.startswith("surrokit: numerical failure: training diverged at step")


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

    @pytest.mark.parametrize(
        "command, options",
        [
            ("train", ["--lr", "nan"]),
            ("train", ["--lr", "inf"]),
            ("sweep", ["--lr", "nan"]),
            ("surrogate", ["--kind", "iaaft", "--tol", "nan"]),
        ],
    )
    def test_non_finite_setting_exit_2(self, tmp_path, dataset_file, command, options, capsys):
        out = tmp_path / "out"
        argv = {
            "train": ["train", dataset_file, str(out), "--steps", "2", "--batch", "4"],
            "sweep": ["sweep", dataset_file, "--alphas", "0", "--folds", "1", "--steps", "2",
                      "--batch", "4", "--out", str(out)],
            "surrogate": ["surrogate", dataset_file, str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv + options) == 2
        err = capsys.readouterr().err
        assert err.startswith("surrokit: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        ["synth", "surrogate", "surrogate-iaaft", "balance", "balance-iaaft", "evaluate"],
    )
    def test_missing_output_directory_names_the_path(
        self, tmp_path, spec_file, dataset_file, weights_file, command, capsys
    ):
        # the write comes before any output: a failed one leaves the one
        # error line, no stdout (IAAFT reports, class table) and no file
        missing = tmp_path / "missing"
        out = missing / "out"
        argv = {
            "synth": ["synth", spec_file, out, "--n", "4"],
            "surrogate": ["surrogate", dataset_file, out],
            "surrogate-iaaft": ["surrogate", dataset_file, out, "--kind", "iaaft"],
            "balance": ["balance", dataset_file, out, "--alpha", "1"],
            "balance-iaaft": ["balance", dataset_file, out, "--alpha", "1", "--kind", "iaaft"],
            "evaluate": ["evaluate", dataset_file, weights_file, "--out", out],
        }[command]
        err = _exits_2_with_one_line(argv, capsys, missing)
        assert repr(str(out)) in err and ".part" not in err

    def test_bad_env_seed_is_usage_error(self, spec_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SURROKIT_SEED", "abc")
        assert main(["synth", spec_file, str(tmp_path / "x.sdat"), "--n", "4"]) == 1

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize(
        "command", ["synth", "surrogate", "balance", "train", "sweep", "condconf", "saliency"]
    )
    def test_negative_seed_is_usage_error(
        self, tmp_path, spec_file, dataset_file, weights_file, command, source, monkeypatch,
        capsys,
    ):
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", spec_file, out, "--n", "4"],
            "surrogate": ["surrogate", dataset_file, out],
            "balance": ["balance", dataset_file, out, "--alpha", "1"],
            "train": ["train", dataset_file, out, "--steps", "2", "--batch", "4"],
            "sweep": ["sweep", dataset_file, "--alphas", "0", "--folds", "1", "--steps", "2",
                      "--batch", "4", "--out", out],
            "condconf": ["condconf", dataset_file, weights_file, "--out", out],
            "saliency": ["saliency", dataset_file, weights_file, "--reps", "2", "--out", out],
        }[command]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("SURROKIT_SEED", "-3")
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("surrokit: usage error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_numerical_failure_exit_3(self, tmp_path, dataset_file, monkeypatch):
        from surrokit import cli
        from surrokit.errors import NumericalError

        def diverge(*args, **kwargs):
            raise NumericalError("training diverged at step 0: loss=nan")

        monkeypatch.setattr(cli, "train_network", diverge)
        assert main(["train", dataset_file, str(tmp_path / "w.swt"), "--steps", "1"]) == 3
