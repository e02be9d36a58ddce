"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two training-heavy
criteria (8 and 9) take minutes; everything else finishes in seconds.
"""

import contextlib
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import idft_oracle
from test_network import tiny_descriptor
import surrokit
from surrokit.balance import BalanceConfig, Dataset, repetition_counts, upsample
from surrokit.classifiers import BandPowerClassifier, matched_filter_score
from surrokit.cli import main as cli_main
from surrokit.evaluation import alpha_sweep, conditional_confusion
from surrokit.network import (
    count_parameters,
    full_architecture,
    infer_shapes,
    loss_and_gradients,
    weight_shapes,
)
from surrokit.saliency import SaliencySpec, surrogate_saliency
from surrokit.seeding import spawn_rng
from surrokit.surrogates import (
    SurrogateConfig,
    crossfade_weights,
    ft_surrogate,
    iaaft_surrogate,
    partial_ft_surrogate,
)
from surrokit.synthetic import (
    TransientSpec,
    add_transient,
    bundled_spec,
    default_group_labels,
    generate_synthetic,
    transient_waveform,
)
from surrokit.training import TrainConfig


@contextlib.contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_parameter_counts(capsys):
    with criterion(1, "shapes --arch full reports 32,936 and 64,371 parameters", 1.0):
        code = cli_main(["shapes", "--arch", "full"])
        out = capsys.readouterr().out
        assert code == 0
        assert "channel pipe: 32,936 trainable parameters" in out
        assert "joined pipe: 64,371 trainable parameters" in out
        counts = count_parameters(full_architecture())
        assert counts.channel_pipe == 32_936
        assert counts.joined_pipe == 64_371


def test_criterion_02_shape_chain():
    with criterion(2, "inferred layer shapes equal the published table exactly", 1.0):
        report = infer_shapes(full_architecture())
        assert [shape for _, shape in report.channel] == [
            (960,),
            (960, 16), (480, 16),
            (480, 19), (240, 19),
            (240, 23), (120, 23),
            (120, 27), (60, 27),
        ]
        assert report.joined_input == (60, 4, 27)
        assert [shape for _, shape in report.joined] == [(41, 1, 10), (85,), (85,), (6,)]


def test_criterion_03_spectrum_preservation():
    with criterion(3, "FT surrogates preserve every amplitude bin and stay real", 30.0):
        rng = np.random.default_rng(301)
        lengths = np.concatenate([[2, 3], rng.integers(2, 1025, size=998)])
        for i, n in enumerate(lengths):
            n = int(n)
            x = rng.standard_normal(n) * 5.0
            seed = 9000 + i
            surrogate = ft_surrogate(x, seed=seed)
            original_amps = np.abs(np.fft.rfft(x))
            surrogate_amps = np.abs(np.fft.rfft(surrogate))
            scale = max(original_amps.max(), 1e-30)
            assert np.all(np.abs(surrogate_amps - original_amps) <= 1e-9 * scale), n

            # realness oracle: rebuild the randomized two-sided spectrum and
            # invert it independently; no imaginary residue may appear
            bins = np.fft.rfft(x)
            theta = spawn_rng(seed).uniform(0.0, 2.0 * np.pi, bins.size)
            randomized = np.abs(bins) * np.exp(1j * theta)
            randomized[0] = bins[0]
            if n % 2 == 0:
                randomized[-1] = bins[-1]
                full = np.concatenate([randomized, np.conj(randomized[-2:0:-1])])
            else:
                full = np.concatenate([randomized, np.conj(randomized[:0:-1])])
            inverted = np.fft.ifft(full)
            sample_scale = max(np.abs(x).max(), 1e-30)
            assert np.max(np.abs(inverted.imag)) <= 1e-9 * sample_scale, n
            np.testing.assert_allclose(surrogate, inverted.real, atol=1e-9 * sample_scale)
            if i < 40:  # O(N^2) summation oracle on a subsample
                oracle = idft_oracle(full)
                assert np.max(np.abs(oracle.imag)) <= 1e-9 * sample_scale
                np.testing.assert_allclose(surrogate, oracle.real, atol=1e-9 * sample_scale)


def test_criterion_04_iaaft_exactness():
    with criterion(4, "IAAFT keeps the exact sample multiset, discrepancy non-increasing", 30.0):
        rng = np.random.default_rng(401)
        for i in range(100):
            n = int(rng.integers(16, 400))
            x = rng.standard_normal(n) * rng.uniform(0.5, 20.0)
            config = SurrogateConfig(kind="iaaft")
            surrogate, report = iaaft_surrogate(x, config, seed=5000 + i)
            assert np.array_equal(np.sort(surrogate), np.sort(x)), i
            diffs = np.diff(report.discrepancies)
            assert np.all(diffs <= 0), i
            assert report.iterations == len(report.discrepancies) >= 1


def test_criterion_05_partial_surrogate_locality():
    with criterion(5, "partial surrogates: outside bit-identity, complementary crossfades", 10.0):
        rng = np.random.default_rng(501)
        for i in range(100):
            rate = 32.0
            n = int(rng.integers(64, 2000))
            duration = n / rate
            x = rng.standard_normal(n) * 10.0
            crossfade = float(rng.uniform(0.0, 0.8))
            window_len = float(rng.uniform(0.0, max(duration / 3, 0.1)))
            lo = crossfade
            hi = duration - window_len - crossfade
            if hi <= lo:
                crossfade = 0.0
                lo, hi = 0.0, duration - window_len
            start = float(rng.uniform(lo, hi))
            out = partial_ft_surrogate(x, rate, start, window_len, 7000 + i, crossfade)

            s = int(round(start * rate))
            w = int(round(window_len * rate))
            c = int(round(crossfade * rate))
            assert np.array_equal(out[: s - c], x[: s - c]), i
            assert np.array_equal(out[s + w + c :], x[s + w + c :]), i

            weights = crossfade_weights(w, c, c)
            complement = 1.0 - weights
            assert np.all(np.abs(weights + complement - 1.0) <= 1e-15), i
            assert np.all(weights[c : c + w] == 1.0), i


def test_criterion_06_balancing_arithmetic():
    with criterion(6, "up-sampled class counts match the rounding formula exactly", 5.0):
        rng = np.random.default_rng(601)
        data_rng = np.random.default_rng(602)
        for i in range(50):
            k = int(rng.integers(2, 7))
            counts = {f"c{j}": int(rng.integers(1, 60)) for j in range(k)}
            beta = float(rng.uniform())
            top = max(counts.values())
            expected_reps = {c: round(beta * (top - v)) for c, v in counts.items()}
            assert repetition_counts(counts, beta) == expected_reps, i

            labels = np.repeat(np.arange(k), list(counts.values()))
            x = data_rng.standard_normal((labels.size, 4, 8))
            dataset = Dataset(x, labels, ("r0",) * labels.size, 32.0, tuple(counts))
            upsampled, _ = upsample(dataset, BalanceConfig(beta=beta, seed=i))
            realized = upsampled.class_counts()
            assert realized == {c: v + expected_reps[c] for c, v in counts.items()}, i


def test_criterion_07_gradient_correctness():
    with criterion(7, "analytic gradients match central finite differences", 60.0):
        rng = np.random.default_rng(701)
        desc = tiny_descriptor()
        weights = {k: rng.normal(0.0, 0.35, s) for k, s in weight_shapes(desc).items()}
        x = rng.standard_normal((4, 2, 24)) * 2
        labels = np.array([0, 1, 2, 1])
        _, grads = loss_and_gradients(desc, weights, x, labels, training=False)

        coords = [(k, i) for k in sorted(weights) for i in range(weights[k].size)]
        picked = [coords[i] for i in rng.choice(len(coords), size=100, replace=False)]
        for key, flat_idx in picked:
            w = weights[key]
            original = w.flat[flat_idx]
            h = 1e-6 * max(1.0, abs(original))
            w.flat[flat_idx] = original + h
            loss_plus, _ = loss_and_gradients(desc, weights, x, labels, training=False)
            w.flat[flat_idx] = original - h
            loss_minus, _ = loss_and_gradients(desc, weights, x, labels, training=False)
            w.flat[flat_idx] = original
            fd = (loss_plus - loss_minus) / (2 * h)
            analytic = grads[key].flat[flat_idx]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
            assert rel < 1e-4, (key, flat_idx, rel)


class TransientGate:
    """Purely transient-keyed toy: S1 if the burst filter fires, else Wake."""

    label_vocabulary = ("Wake", "S1")

    def __init__(self, waveform, threshold=3.7, sharpness=0.25):
        self.waveform = waveform
        self.threshold = threshold
        self.sharpness = sharpness

    def predict_batch(self, dataset):
        probs = []
        for samples in dataset.x:
            score = matched_filter_score(
                samples, dataset.channel_roles, self.waveform, ("EEG1", "EEG2"), combine="min"
            )
            g = 1.0 / (1.0 + np.exp(-(score - self.threshold) / self.sharpness))
            probs.append([1.0 - g, g])
        return np.array(probs)


@pytest.mark.slow
def test_criterion_08_alpha_sweep_direction():
    with criterion(
        8, "transient-class F1 drops at alpha=1; FT conditional confusion leaks", 900.0
    ):
        spec = bundled_spec()
        dataset = generate_synthetic(spec, 600, seed=20240801)
        groups = default_group_labels(dataset, 2)
        s1 = dataset.label_vocabulary.index("S1")

        votes = 0
        for rep in range(5):
            config = TrainConfig(steps=400, batch_size=16, learning_rate=0.0025)
            rows = alpha_sweep(
                dataset, groups, [0.0, 1.0], beta=0.7, folds=1,
                train_config=config, seed=1000 + rep,
            )
            baseline, augmented = rows[0], rows[1]
            # F1, not recall: training on Wake-like S1 surrogates may cost S1
            # recall or instead pull Wake epochs into S1 (lost precision)
            votes += int(augmented.per_class_f1[s1] < baseline.per_class_f1[s1])
        assert votes >= 3, f"alpha=1 beat alpha=0 in {5 - votes} of 5 repetitions"

        # conditional confusion of a transient-keyed toy classifier
        wake = dataset.label_vocabulary.index("Wake")
        keep = np.flatnonzero(np.isin(dataset.labels, (wake, s1)))
        subset = replace(
            dataset.take(keep),
            labels=np.where(dataset.labels[keep] == s1, 1, 0),
            label_vocabulary=("Wake", "S1"),
        )
        toy = TransientGate(transient_waveform(spec.classes[1].transient, 32.0))
        identity_cm = conditional_confusion(toy, subset, "identity", seed=8)
        ft_cm = conditional_confusion(toy, subset, "ft", seed=8)
        assert identity_cm is not None and ft_cm is not None
        assert identity_cm.off_diagonal_mass() == 0.0
        assert ft_cm.counts[1].sum() > 0  # conditional set contains S1 epochs
        assert ft_cm.off_diagonal_mass() > identity_cm.off_diagonal_mass()


class NonTargetBandPower:
    """Band powers of the channels saliency never touches (EOG/EMG tone).

    Phase-invariant by construction, and its decision statistic is
    exactly preserved under replacement of the EEG channels.
    """

    def __init__(self, base, roles):
        self.base = base
        self.roles = tuple(roles)
        self.label_vocabulary = base.label_vocabulary

    def predict_batch(self, dataset):
        keep = [i for i, role in enumerate(dataset.channel_roles) if role in self.roles]
        sub = replace(
            dataset,
            x=dataset.x[:, keep],
            channel_roles=tuple(dataset.channel_roles[i] for i in keep),
        )
        return self.base.predict_batch(sub)


def test_criterion_09_saliency_localization():
    with criterion(
        9, "saliency dips at the injected event; phase-invariant control is flat", 300.0
    ):
        spec = bundled_spec()
        dataset = generate_synthetic(spec, 120, seed=42)
        is_wake = dataset.labels == dataset.label_vocabulary.index("Wake")
        wake = dataset.take([int(np.argmax(is_wake))])
        burst = TransientSpec(
            amplitude=120.0, width_s=0.6, freq_hz=10.0, count=1, channels=("EEG1", "EEG2")
        )
        event_s = 17.0
        epoch = add_transient(wake, burst, center_s=event_s)

        detector = TransientGate(transient_waveform(burst, 32.0), sharpness=0.3)
        saliency_spec = SaliencySpec(
            window_len_s=5.0, step_s=0.5, crossfade_s=0.5, n_replacements=120,
            target_channels=("EEG1", "EEG2"), seed=7,
        )
        assert detector.predict_batch(epoch)[0, 1] > 0.9  # burst detected at baseline
        smap = surrogate_saliency(detector, epoch, saliency_spec)
        deltas = np.abs(smap.mean_probabilities - smap.baseline_probabilities).max(axis=1)
        peak_position = smap.positions_s[int(np.argmax(deltas))]
        assert deltas.max() > 0.5  # the dip is real, not noise
        assert abs(peak_position - event_s) <= saliency_spec.window_len_s

        # control: band powers of the non-replaced channels; the replacement
        # provably preserves the decision statistic, so every deviation must
        # sit within Monte-Carlo error (float rounding grain allowed)
        bands = ((0.5, 1.8), (1.8, 4.0), (4.0, 8.0), (8.0, 11.5), (11.5, 16.0))
        sub_dataset = replace(dataset, x=dataset.x[:, 2:], channel_roles=("EOG", "EMG"))
        base = BandPowerClassifier.fit(sub_dataset, bands, temperature=8.0)
        control = NonTargetBandPower(base, ("EOG", "EMG"))
        control_spec = SaliencySpec(
            window_len_s=5.0, step_s=0.5, crossfade_s=0.5, n_replacements=60,
            target_channels=("EEG1", "EEG2"), seed=11,
        )
        control_map = surrogate_saliency(control, wake, control_spec)
        deviation = np.abs(control_map.mean_probabilities - control_map.baseline_probabilities)
        standard_error = control_map.std_probabilities / np.sqrt(control_spec.n_replacements)
        assert np.all(deviation <= 3.0 * standard_error + 1e-9)


def _run_cli(args, cwd):
    # the child runs in `cwd`, where a relative PYTHONPATH entry no longer
    # resolves; put the directory of the package this process imported first
    package_root = str(Path(surrokit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "surrokit", *args],
        cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    with criterion(10, "every seeded CLI invocation is bytewise identical across runs", 120.0):
        from surrokit.synthetic import ClassSpec, SyntheticSpec, ar_resonance_coeffs, spec_to_json

        tiny = SyntheticSpec(
            classes=(
                ClassSpec("low", 0.5, ar_resonance_coeffs(2.0, 0.9, 32.0), noise_scale=10.0),
                ClassSpec("high", 0.5, ar_resonance_coeffs(11.0, 0.9, 32.0), noise_scale=10.0),
            ),
            epoch_len_s=10.0,
            n_records=4,
        )
        spec_json = spec_to_json(tiny)
        commands = [
            (["synth", "spec.json", "data.sdat", "--n", "20", "--seed", "3"], ["data.sdat"]),
            (["surrogate", "data.sdat", "ft.sdat", "--kind", "ft", "--seed", "4"], ["ft.sdat"]),
            (
                ["surrogate", "data.sdat", "ia.sdat", "--kind", "iaaft", "--seed", "4",
                 "--iters", "5"],
                ["ia.sdat"],
            ),
            (
                ["balance", "data.sdat", "bal.sdat", "--beta", "1", "--alpha", "0.5",
                 "--seed", "5"],
                ["bal.sdat"],
            ),
            (
                ["train", "data.sdat", "model.swt", "--steps", "3", "--batch", "4",
                 "--seed", "6"],
                ["model.swt"],
            ),
            (["evaluate", "data.sdat", "model.swt", "--out", "report.tsv"], ["report.tsv"]),
            (
                ["condconf", "data.sdat", "model.swt", "--kind", "ft", "--seed", "7",
                 "--out", "cc.tsv"],
                ["cc.tsv"],
            ),
            (
                ["sweep", "data.sdat", "--alphas", "0,1", "--beta", "0.5", "--folds", "1",
                 "--seed", "8", "--steps", "2", "--batch", "4", "--out", "sweep.tsv"],
                ["sweep.tsv"],
            ),
            (
                ["saliency", "data.sdat", "model.swt", "--epoch-index", "0", "--window", "3",
                 "--step", "2", "--reps", "2", "--seed", "9", "--out", "map.tsv"],
                ["map.tsv"],
            ),
        ]
        run_dirs = (tmp_path / "run_a", tmp_path / "run_b")
        outputs = ({}, {})
        for which, run_dir in enumerate(run_dirs):
            run_dir.mkdir()
            (run_dir / "spec.json").write_text(spec_json)
            for args, produced in commands:
                result = _run_cli(args, run_dir)
                assert result.returncode == 0, (args, result.stderr)
                for name in produced:
                    outputs[which].setdefault(name, []).append(
                        (run_dir / name).read_bytes()
                    )
                outputs[which].setdefault("stdout", []).append(result.stdout)
        assert outputs[0] == outputs[1]
