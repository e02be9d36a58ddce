import numpy as np
import pytest

import oracles
from surrokit import saliency
from surrokit.balance import Dataset
from surrokit.classifiers import NetworkClassifier
from surrokit.errors import InvalidInputError
from surrokit.network import full_architecture, init_weights, reference_architecture
from surrokit.saliency import (
    SALIENCY_CHUNK,
    SaliencySpec,
    surrogate_saliency,
    window_positions,
    zero_out_saliency,
)


class MeanSensitiveClassifier:
    """Probability driven by the epoch's grand mean (a DC detector)."""

    label_vocabulary = ("flat", "offset")

    def predict_batch(self, dataset):
        probs = []
        for samples in dataset.x:
            m = np.mean([row.mean() for row in samples])
            p = 1.0 / (1.0 + np.exp(-(m - 1.0)))
            probs.append([1.0 - p, p])
        return np.array(probs)


class WindowEnergyClassifier:
    """Stochastic-looking double: depends on the (replaced) signal content."""

    label_vocabulary = ("a", "b")

    def predict_batch(self, dataset):
        probs = []
        for samples in dataset.x:
            e = np.log1p(np.mean(samples[0] ** 2))
            p = 1.0 / (1.0 + np.exp(-(e - np.log1p(25.0))))
            probs.append([1.0 - p, p])
        return np.array(probs)


class RecordingClassifier:
    """Captures every epoch it is asked to classify, as (roles, samples)."""

    label_vocabulary = ("x", "y")

    def __init__(self):
        self.seen = []

    def predict_batch(self, dataset):
        self.seen.extend((dataset.channel_roles, samples) for samples in dataset.x)
        return np.full((len(dataset), 2), 0.5)


def one_epoch(samples, rate=32.0):
    return Dataset(samples[None], [0], ("r0",), rate, ("a",))


def flat_epoch(rng, n_seconds=10.0, rate=32.0, scale=5.0):
    n = int(n_seconds * rate)
    return one_epoch(rng.standard_normal((4, n)) * scale, rate)


class TestWindowPositions:
    def test_cover_and_count(self):
        positions = window_positions(960, 32.0, 5.0, 0.5)
        assert positions.size == int(np.floor((30.0 - 5.0) / 0.5)) + 1 == 51
        assert positions[0] == 0.0
        assert positions[-1] == pytest.approx(25.0)
        assert np.all(np.diff(positions) > 0)

    def test_window_too_long_rejected(self):
        with pytest.raises(InvalidInputError):
            window_positions(128, 32.0, 5.0, 0.5)

    @pytest.mark.parametrize("method", [surrogate_saliency, zero_out_saliency])
    def test_rounded_window_stays_inside_odd_length_epoch(self, method, rng):
        # the grid's second start, 29.046875 s, rounds to sample 930, and the
        # 0.984375 s window to 32 samples: it would end at 962 of 961
        epoch = one_epoch(rng.standard_normal((4, 961)))
        spec = SaliencySpec(window_len_s=0.984375, step_s=29.046875, n_replacements=2)
        smap = method(WindowEnergyClassifier(), epoch, spec)
        assert smap.positions_s.size == 1
        for position in smap.positions_s:
            start, window_len, cf_left, cf_right = saliency._window_geometry(epoch, position, spec)
            assert start + window_len <= epoch.n_samples and min(cf_left, cf_right) >= 0


class TestSurrogateSaliency:
    def test_map_structure(self, rng):
        epoch = flat_epoch(rng)
        spec = SaliencySpec(window_len_s=2.0, step_s=1.0, n_replacements=3, seed=1)
        smap = surrogate_saliency(WindowEnergyClassifier(), epoch, spec)
        assert smap.positions_s.size == 9
        assert smap.mean_probabilities.shape == (9, 2)
        np.testing.assert_allclose(smap.mean_probabilities.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(smap.baseline_probabilities.sum(), 1.0, atol=1e-6)

    def test_non_target_channels_untouched(self, rng):
        epoch = flat_epoch(rng)
        recorder = RecordingClassifier()
        spec = SaliencySpec(
            window_len_s=2.0, step_s=2.0, n_replacements=2,
            target_channels=("EEG1",), seed=3,
        )
        surrogate_saliency(recorder, epoch, spec)
        originals = epoch.x[0]
        for _, arr in recorder.seen[1:]:  # first call is the baseline
            np.testing.assert_array_equal(arr[1], originals[1])
            np.testing.assert_array_equal(arr[2], originals[2])
            np.testing.assert_array_equal(arr[3], originals[3])

    def test_deterministic(self, rng):
        epoch = flat_epoch(rng)
        spec = SaliencySpec(window_len_s=2.0, step_s=1.0, n_replacements=1, seed=11)
        a = surrogate_saliency(WindowEnergyClassifier(), epoch, spec)
        b = surrogate_saliency(WindowEnergyClassifier(), epoch, spec)
        np.testing.assert_array_equal(a.mean_probabilities, b.mean_probabilities)

    def test_monte_carlo_error_shrinks_like_sqrt_n(self, rng):
        # the spread of the ensemble mean over independent seeds must match
        # the 1/sqrt(n) prediction from the within-ensemble scatter
        epoch = flat_epoch(rng, n_seconds=8.0)
        clf = WindowEnergyClassifier()
        for n in (10, 100, 1000):
            means, predicted = [], []
            for seed in range(10):
                spec = SaliencySpec(
                    window_len_s=2.0, step_s=8.0, n_replacements=n, seed=seed
                )
                smap = surrogate_saliency(clf, epoch, spec)
                means.append(smap.mean_probabilities[0, 1])
                predicted.append(smap.std_probabilities[0, 1] / np.sqrt(n))
            measured = np.std(means, ddof=1)
            ratio = measured / np.mean(predicted)
            assert 0.5 < ratio < 2.0, (n, ratio)

    def test_unknown_target_channel_rejected(self, rng):
        epoch = flat_epoch(rng)
        with pytest.raises(InvalidInputError):
            surrogate_saliency(
                WindowEnergyClassifier(), epoch,
                SaliencySpec(target_channels=("EKG",), window_len_s=2.0),
            )


class TestZeroOutSaliency:
    def test_zero_signal_map_is_constant_baseline(self):
        epoch = one_epoch(np.zeros((4, 256)))
        spec = SaliencySpec(window_len_s=2.0, step_s=1.0)
        smap = zero_out_saliency(MeanSensitiveClassifier(), epoch, spec)
        for row in smap.mean_probabilities:
            np.testing.assert_allclose(row, smap.baseline_probabilities, atol=1e-12)

    def test_dc_sensitive_classifier_shifts_everywhere(self, rng):
        # zeroing injects a level change at every window: the bias the
        # surrogate method avoids
        n = 320
        data = rng.standard_normal((4, n)) * 0.5 + 2.0
        epoch = one_epoch(data)
        spec = SaliencySpec(
            window_len_s=2.0, step_s=1.0, target_channels=("EEG1", "EEG2", "EOG", "EMG")
        )
        smap = zero_out_saliency(MeanSensitiveClassifier(), epoch, spec)
        deltas = np.abs(smap.mean_probabilities - smap.baseline_probabilities).max(axis=1)
        assert np.all(deltas > 0.01)

    def test_positions_match_surrogate_method(self, rng):
        epoch = flat_epoch(rng)
        spec = SaliencySpec(window_len_s=3.0, step_s=0.5, n_replacements=1, seed=2)
        a = surrogate_saliency(WindowEnergyClassifier(), epoch, spec)
        b = zero_out_saliency(WindowEnergyClassifier(), epoch, spec)
        np.testing.assert_array_equal(a.positions_s, b.positions_s)


def network_setup(build, rng):
    desc = build()
    classifier = NetworkClassifier(desc, init_weights(desc, 7), "ABCDEF")
    epoch = one_epoch(rng.standard_normal((4, 960)) * 20)
    return classifier, epoch


def assert_map_close(new, reference):
    assert np.max(np.abs(new - reference)) <= 1e-12 * np.max(np.abs(reference))


TARGET_SETS = [("EEG1", "EEG2"), ("EEG2",), ("EEG1", "EEG2", "EOG", "EMG"), ("EMG",)]


class TestIncrementalInference:
    """Network maps against one full single-epoch forward per replacement."""

    @pytest.mark.parametrize("build", [full_architecture, reference_architecture])
    @pytest.mark.parametrize("targets", TARGET_SETS, ids="+".join)
    def test_surrogate_map_matches_full_forwards(self, build, targets, rng, monkeypatch):
        # positions 0, 12.5 and 25 s: the crossfade is cut at both epoch
        # edges; 3 replacements in blocks of 2 cross a block boundary
        monkeypatch.setattr(saliency, "SALIENCY_CHUNK", 2)
        classifier, epoch = network_setup(build, rng)
        spec = SaliencySpec(
            window_len_s=5.0, step_s=12.5, n_replacements=3, target_channels=targets, seed=4
        )
        smap = surrogate_saliency(classifier, epoch, spec)
        means, baseline = oracles.surrogate_saliency_per_replacement(classifier, epoch, spec)
        np.testing.assert_array_equal(smap.baseline_probabilities, baseline)
        assert np.max(np.abs(means - baseline)) > 1e-6  # the replacements move the output
        assert_map_close(smap.mean_probabilities, means)

    def test_module_block_size_crossed(self, rng):
        classifier, epoch = network_setup(reference_architecture, rng)
        spec = SaliencySpec(window_len_s=5.0, step_s=25.0, n_replacements=SALIENCY_CHUNK + 1)
        smap = surrogate_saliency(classifier, epoch, spec)
        means, _ = oracles.surrogate_saliency_per_replacement(classifier, epoch, spec)
        assert_map_close(smap.mean_probabilities, means)

    @pytest.mark.parametrize("build", [full_architecture, reference_architecture])
    @pytest.mark.parametrize("targets", TARGET_SETS[::2], ids="+".join)
    def test_zero_out_map_matches_full_forwards(self, build, targets, rng):
        classifier, epoch = network_setup(build, rng)
        spec = SaliencySpec(window_len_s=5.0, step_s=5.0, target_channels=targets)
        smap = zero_out_saliency(classifier, epoch, spec)
        means, baseline = oracles.zero_out_saliency_per_position(classifier, epoch, spec)
        np.testing.assert_array_equal(smap.baseline_probabilities, baseline)
        assert_map_close(smap.mean_probabilities, means)


class TestBlackBoxPath:
    @pytest.mark.parametrize("method", ["surrogate", "zero"])
    def test_predict_sees_every_replacement_in_order(self, method, rng, monkeypatch):
        monkeypatch.setattr(saliency, "SALIENCY_CHUNK", 2)
        epoch = flat_epoch(rng)
        spec = SaliencySpec(
            window_len_s=2.0, step_s=3.0, n_replacements=3, target_channels=("EEG2", "EMG"),
            seed=5,
        )
        if method == "surrogate":
            new, old = surrogate_saliency, oracles.surrogate_saliency_per_replacement
        else:
            new, old = zero_out_saliency, oracles.zero_out_saliency_per_position
        recorder, reference = RecordingClassifier(), RecordingClassifier()
        new(recorder, epoch, spec)
        old(reference, epoch, spec)
        assert len(recorder.seen) == len(reference.seen) > 1
        for (roles, seen), (expected_roles, expected) in zip(recorder.seen, reference.seen):
            assert roles == expected_roles
            np.testing.assert_array_equal(seen, expected)


class TestHostileSpec:
    @pytest.mark.parametrize("field", ["window_len_s", "step_s", "crossfade_s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidInputError):
            SaliencySpec(**{field: value})

    @pytest.mark.parametrize("method", [surrogate_saliency, zero_out_saliency])
    @pytest.mark.parametrize("field, value", [("window_len_s", 1e-300), ("crossfade_s", 1e308)])
    def test_placement_that_cannot_round_rejected(self, method, field, value, rng):
        spec = SaliencySpec(**{"window_len_s": 2.0, "n_replacements": 1, field: value})
        with pytest.raises(InvalidInputError):
            method(WindowEnergyClassifier(), flat_epoch(rng), spec)

    @pytest.mark.parametrize("method", [surrogate_saliency, zero_out_saliency])
    @pytest.mark.parametrize("network", [False, True], ids=["black-box", "network"])
    def test_other_than_one_epoch_rejected(self, method, network, rng):
        classifier = network_setup(reference_architecture, rng)[0] if network else (
            WindowEnergyClassifier()
        )
        x = rng.standard_normal((2, 4, 960))
        spec = SaliencySpec(window_len_s=5.0, step_s=5.0, n_replacements=1)
        for epochs in (Dataset(x, [0, 0], ("r0", "r0"), 32.0), Dataset(x[:0], [], (), 32.0)):
            with pytest.raises(InvalidInputError, match="one epoch"):
                method(classifier, epochs, spec)
        if network:
            with pytest.raises(InvalidInputError, match="one epoch"):
                classifier.splice_predictor(Dataset(x, [0, 0], ("r0", "r0"), 32.0))
