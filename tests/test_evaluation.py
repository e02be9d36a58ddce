import numpy as np
import pytest

from oracles import f1_oracle, iaaft_per_channel, phase_randomize_per_channel
from surrokit.balance import Dataset
from surrokit.classifiers import BandPowerClassifier
from surrokit.errors import InvalidInputError
from surrokit.evaluation import (
    ConfusionMatrix,
    alpha_sweep,
    conditional_confusion,
    confusion_from_predictions,
    evaluate,
    f1_scores,
)
from surrokit.seeding import NS_CONDCONF, derive_seed, spawn_rng
from surrokit.synthetic import (
    ClassSpec,
    SyntheticSpec,
    TransientSpec,
    ar_resonance_coeffs,
    generate_synthetic,
)
from surrokit.training import TrainConfig

VOCAB6 = ("Wake", "S1", "S2", "S3", "S4", "REM")


class OracleClassifier:
    """Test double that reads the true label off each epoch."""

    def __init__(self, vocabulary):
        self.label_vocabulary = tuple(vocabulary)

    def predict_batch(self, dataset):
        rows = []
        for label in dataset.labels:
            probs = np.full(len(self.label_vocabulary), 1e-6)
            probs[self.label_vocabulary.index(dataset.label_vocabulary[label])] = 1.0
            rows.append(probs / probs.sum())
        return np.array(rows)


class ConstantClassifier:
    def __init__(self, vocabulary, index):
        self.label_vocabulary = tuple(vocabulary)
        self.index = index

    def predict_batch(self, dataset):
        probs = np.zeros((len(dataset), len(self.label_vocabulary)))
        probs[:, self.index] = 1.0
        return probs


def balanced_dataset(per_class=4, n_samples=64, vocabulary=VOCAB6, seed=0):
    x = np.random.default_rng(seed).standard_normal((len(vocabulary) * per_class, 4, n_samples))
    labels = np.repeat(np.arange(len(vocabulary)), per_class)
    records = tuple(f"r{i % per_class}" for i in range(len(x)))
    return Dataset(x, labels, records, 32.0, vocabulary)


class TestEvaluate:
    def test_perfect_classifier(self):
        ds = balanced_dataset()
        result = evaluate(OracleClassifier(VOCAB6), ds)
        np.testing.assert_array_equal(result.confusion.row_normalized(), np.eye(6))
        assert result.macro_f1 == 1.0
        np.testing.assert_array_equal(result.per_class_recall, 1.0)

    def test_all_one_class_predictor(self):
        # on a balanced 6-class set: predicted class has P=1/6, R=1,
        # F1 = 2/7; the other five classes contribute 0
        ds = balanced_dataset()
        result = evaluate(ConstantClassifier(VOCAB6, 0), ds)
        assert result.macro_f1 == pytest.approx((2.0 / 7.0) / 6.0)
        assert result.per_class_recall[0] == 1.0
        assert np.all(result.per_class_recall[1:] == 0.0)

    def test_f1_against_hand_oracle(self):
        counts = np.array([[8, 1, 2], [0, 9, 3], [1, 1, 10]])
        cm = ConfusionMatrix(counts, ("a", "b", "c"))
        f1, macro, weighted = f1_scores(cm)
        expected = f1_oracle(counts)
        np.testing.assert_allclose(f1, expected, rtol=1e-12)
        assert macro == pytest.approx(expected.mean())
        support = counts.sum(axis=1)
        assert weighted == pytest.approx((expected * support).sum() / support.sum())

    def test_counts_total_equals_dataset_size(self):
        ds = balanced_dataset(per_class=3)
        result = evaluate(ConstantClassifier(VOCAB6, 2), ds)
        assert result.confusion.total == len(ds)

    def test_macro_f1_permutation_invariant(self, rng):
        true = rng.integers(0, 3, 60)
        pred = rng.integers(0, 3, 60)
        cm = confusion_from_predictions(true, pred, ("a", "b", "c"))
        perm = np.array([2, 0, 1])
        cm_p = confusion_from_predictions(perm[true], perm[pred], ("a", "b", "c"))
        assert f1_scores(cm)[1] == pytest.approx(f1_scores(cm_p)[1])

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate(ConstantClassifier(VOCAB6, 0), Dataset(np.zeros((0, 4, 64)), [], (), 32.0))

    def test_argmax_tie_breaks_to_lowest_index(self):
        class TieClassifier:
            label_vocabulary = ("a", "b")

            def predict_batch(self, dataset):
                return np.full((len(dataset), 2), 0.5)

        ds = balanced_dataset(per_class=2, vocabulary=("a", "b"))
        result = evaluate(TieClassifier(), ds)
        assert result.confusion.counts[:, 0].sum() == len(ds)


def burst_position_dataset(n=40, seed=3):
    """Two classes defined purely by where a burst sits in the epoch."""
    rng = np.random.default_rng(seed)
    rate, n_samples = 32.0, 320
    t = np.arange(-16, 17) / rate
    waveform = 60.0 * np.exp(-0.5 * (t / 0.25) ** 2) * np.cos(2 * np.pi * 4.0 * t)
    x = np.empty((n, 4, n_samples))
    for i in range(n):
        early = i % 2 == 0
        x[i] = rng.standard_normal((4, n_samples)) * 3.0
        center = rng.integers(30, n_samples // 2 - 30) if early else rng.integers(
            n_samples // 2 + 30, n_samples - 30
        )
        x[i, :2, center - 16 : center + 17] += waveform
    records = tuple(f"r{i % 4}" for i in range(n))
    return Dataset(x, np.arange(n) % 2, records, rate, ("early", "late")), waveform


class BurstPositionClassifier:
    """Predicts by the location of the strongest matched-filter response."""

    label_vocabulary = ("early", "late")

    def __init__(self, waveform):
        self.waveform = waveform

    def predict_batch(self, dataset):
        probs = []
        for samples in dataset.x:
            r = np.correlate(samples[0], self.waveform, mode="same")
            early = np.abs(r).argmax() < r.size // 2
            probs.append([1.0, 0.0] if early else [0.0, 1.0])
        return np.array(probs)


class TestConditionalConfusion:
    def test_identity_transform_gives_identity_matrix(self):
        ds = balanced_dataset()
        cm = conditional_confusion(OracleClassifier(VOCAB6), ds, "identity", seed=0)
        assert cm.off_diagonal_mass() == 0.0
        assert cm.total == len(ds)

    def test_phase_invariant_classifier_stays_diagonal(self):
        # band powers are exact functions of the amplitude spectrum, which
        # full FT surrogates preserve, so the conditional matrix is diagonal
        spec = SyntheticSpec(
            classes=(
                ClassSpec("low", 0.5, ar_resonance_coeffs(2.0, 0.9, 32.0), noise_scale=10.0),
                ClassSpec("high", 0.5, ar_resonance_coeffs(11.0, 0.9, 32.0), noise_scale=10.0),
            ),
            epoch_len_s=8.0,
            n_records=2,
        )
        ds = generate_synthetic(spec, 60, seed=4)
        clf = BandPowerClassifier.fit(ds, bands=((0.5, 5.0), (8.0, 14.0)), temperature=0.5)
        cm = conditional_confusion(clf, ds, "ft", seed=9)
        assert cm is not None
        assert cm.off_diagonal_mass() == 0.0

    def test_position_keyed_classifier_leaks_off_diagonal(self):
        ds, waveform = burst_position_dataset()
        clf = BurstPositionClassifier(waveform)
        base = evaluate(clf, ds)
        assert base.macro_f1 == 1.0  # correct on originals by construction
        cm_id = conditional_confusion(clf, ds, "identity", seed=1)
        cm_ft = conditional_confusion(clf, ds, "ft", seed=1)
        assert cm_id.off_diagonal_mass() == 0.0
        # surrogates delocalize the burst, so position decisions scatter
        assert cm_ft.off_diagonal_mass() > 0.2

    def test_no_correct_predictions_signals_empty(self):
        ds = balanced_dataset(per_class=2, vocabulary=("a", "b"))

        class AlwaysWrong:
            label_vocabulary = ("a", "b")

            def predict_batch(self, dataset):
                probs = np.zeros((len(dataset), 2))
                for i, label in enumerate(dataset.labels):
                    wrong = 1 if dataset.label_vocabulary[label] == "a" else 0
                    probs[i, wrong] = 1.0
                return probs

        assert conditional_confusion(AlwaysWrong(), ds, "ft", seed=0) is None

    def test_unknown_kind_rejected(self):
        ds = balanced_dataset(per_class=1)
        with pytest.raises(InvalidInputError):
            conditional_confusion(OracleClassifier(VOCAB6), ds, "wavelet", seed=0)

    @pytest.mark.parametrize("kind", ["ft", "iaaft"])
    def test_block_matches_one_epoch_at_a_time(self, kind):
        # the conditional set is surrogated as one block; channel c of epoch
        # i must still get exactly the per-channel surrogate under the key
        # (derive_seed(seed, condconf, i), c)
        ds, waveform = burst_position_dataset(n=12)
        seen = []

        class Recorder(BurstPositionClassifier):
            def predict_batch(self, dataset):
                seen.extend(samples.tobytes() for samples in dataset.x)
                return super().predict_batch(dataset)

        conditional_confusion(Recorder(waveform), ds, kind, seed=5)
        expected = []
        for i in range(len(ds)):  # every epoch is predicted correctly
            epoch_seed = derive_seed(5, NS_CONDCONF, i)
            rows = [
                phase_randomize_per_channel(row, spawn_rng(epoch_seed, c))
                if kind == "ft"
                else iaaft_per_channel(row, spawn_rng(epoch_seed, c), 100, 1e-8)[0]
                for c, row in enumerate(ds.x[i])
            ]
            expected.append(np.array(rows).tobytes())
        assert seen[len(ds):] == expected

    def test_deterministic(self):
        ds, waveform = burst_position_dataset()
        clf = BurstPositionClassifier(waveform)
        a = conditional_confusion(clf, ds, "ft", seed=5)
        b = conditional_confusion(clf, ds, "ft", seed=5)
        np.testing.assert_array_equal(a.counts, b.counts)


def sweep_dataset():
    spec = SyntheticSpec(
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
    ds = generate_synthetic(spec, 32, seed=6)
    groups = {rid: "all" for rid in set(ds.record_ids)}
    return ds, groups


class TestAlphaSweep:
    def test_single_baseline_row(self):
        ds, groups = sweep_dataset()
        cfg = TrainConfig(steps=2, batch_size=4, seed=0)
        rows = alpha_sweep(ds, groups, [0.0], beta=0.5, folds=1, train_config=cfg, seed=1)
        assert len(rows) == 1
        assert rows[0].alpha == 0.0
        assert rows[0].fold == 0
        assert 0.0 <= rows[0].macro_f1 <= 1.0

    def test_row_count_is_grid_size(self):
        ds, groups = sweep_dataset()
        cfg = TrainConfig(steps=2, batch_size=4, seed=0)
        rows = alpha_sweep(ds, groups, [0.0, 1.0], beta=0.5, folds=2, train_config=cfg, seed=1)
        assert len(rows) == 4
        assert [(r.alpha, r.fold) for r in rows] == [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)]
        for row in rows:
            assert len(row.per_class_f1) == len(ds.label_vocabulary)
            assert all(0.0 <= f <= 1.0 for f in row.per_class_f1)

    @pytest.mark.parametrize("alphas, folds", [([0.0], 0), ([0.0], -1), ([], 1)])
    def test_empty_grid_rejected(self, alphas, folds):
        ds, groups = sweep_dataset()
        cfg = TrainConfig(steps=2, batch_size=4, seed=0)
        with pytest.raises(InvalidInputError):
            alpha_sweep(ds, groups, alphas, beta=0.5, folds=folds, train_config=cfg, seed=1)
