import numpy as np
import pytest

from surrokit.classifiers import NetworkClassifier
from surrokit.errors import InvalidInputError, NumericalError
from surrokit.evaluation import evaluate
from surrokit.network import init_weights
from surrokit.seeding import NS_INIT, spawn_rng
from surrokit.synthetic import (
    ClassSpec,
    SyntheticSpec,
    ar_resonance_coeffs,
    generate_synthetic,
)
from surrokit.training import (
    RMSPROP_DECAY,
    RMSPROP_EPS,
    TrainConfig,
    rmsprop_step,
    train_reference_classifier,
)


def separable_dataset(n=80, seed=5):
    spec = SyntheticSpec(
        classes=(
            ClassSpec("A", 0.5, ar_resonance_coeffs(2.0, 0.9, 32.0), noise_scale=10.0),
            ClassSpec("B", 0.5, ar_resonance_coeffs(10.0, 0.9, 32.0), noise_scale=10.0),
        ),
        epoch_len_s=10.0,
        n_records=2,
    )
    return generate_synthetic(spec, n, seed=seed)


class TestTrainConfig:
    def test_defaults_match_published_settings(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.0016
        assert RMSPROP_DECAY == 0.9
        assert cfg.batch_size == 128

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(batch_size=0)


def zeros_like(weights):
    return {k: np.zeros_like(v) for k, v in weights.items()}


class TestRmsprop:
    def test_zero_gradient_leaves_weights_unchanged(self):
        weights = {"w": np.array([1.0, -2.0, 3.0])}
        new_weights, _ = rmsprop_step(weights, {"w": np.zeros(3)}, zeros_like(weights), 0.0016)
        np.testing.assert_array_equal(new_weights["w"], weights["w"])

    def test_scalar_hand_oracle(self):
        # w=1, g=1, lr=0.1, decay=0.9: acc=0.1, w' = 1 - 0.1/(sqrt(0.1)+eps)
        weights = {"w": np.array([1.0])}
        new_weights, new_acc = rmsprop_step(
            weights, {"w": np.array([1.0])}, zeros_like(weights), 0.1
        )
        assert new_acc["w"][0] == pytest.approx(0.1, rel=1e-15)
        expected = 1.0 - 0.1 / (np.sqrt(0.1) + RMSPROP_EPS)
        assert new_weights["w"][0] == pytest.approx(expected, rel=1e-15)
        assert new_weights["w"][0] == pytest.approx(0.6837722341, abs=1e-9)

    def test_first_step_is_scaled_sign_gradient(self):
        # from a zero accumulator, acc = 0.1 g^2, so the step is lr sign(g) / sqrt(0.1)
        weights = {"w": np.array([5.0, -5.0, 0.5])}
        grads = {"w": np.array([2.5, -0.3, 1e-3])}
        new_weights, _ = rmsprop_step(weights, grads, zeros_like(weights), 0.01)
        np.testing.assert_allclose(
            weights["w"] - new_weights["w"], 0.01 * np.sign(grads["w"]) / np.sqrt(0.1),
            rtol=1e-6,
        )

    def test_non_finite_gradient_raises(self):
        weights = {"w": np.array([1.0])}
        with pytest.raises(NumericalError):
            rmsprop_step(weights, {"w": np.array([np.nan])}, zeros_like(weights), 0.0016)

    def test_overflowing_accumulator_raises_without_a_warning(self):
        # g * g overflows; an infinite accumulator would make every later step 0
        weights = {"w": np.array([1.0]), "v": np.array([1.0, 2.0])}
        grads = {"w": np.array([1.0]), "v": np.array([1.0, 1e200])}
        with pytest.raises(NumericalError, match="accumulator for 'v'"):
            rmsprop_step(weights, grads, zeros_like(weights), 0.0016)

    def test_inputs_not_mutated(self):
        weights = {"w": np.array([1.0])}
        accumulators = zeros_like(weights)
        rmsprop_step(weights, {"w": np.array([2.0])}, accumulators, 0.0016)
        assert weights["w"][0] == 1.0
        assert accumulators["w"][0] == 0.0


class TestTrainNetwork:
    def test_zero_steps_returns_initialization(self):
        ds = separable_dataset(n=8)
        cfg = TrainConfig(steps=0, batch_size=4, seed=3)
        result = train_reference_classifier(ds, cfg)
        reference = init_weights(result.descriptor, spawn_rng(3, NS_INIT))
        assert sorted(result.weights) == sorted(reference)
        for key in reference:
            np.testing.assert_array_equal(result.weights[key], reference[key])
        assert result.losses == []

    def test_loss_decreases_over_run(self):
        ds = separable_dataset(n=40)
        cfg = TrainConfig(steps=60, batch_size=8, seed=1)
        result = train_reference_classifier(ds, cfg)
        head = np.mean(result.losses[:10])
        tail = np.mean(result.losses[-10:])
        assert tail < head

    def test_deterministic_given_seed(self):
        ds = separable_dataset(n=16)
        cfg = TrainConfig(steps=3, batch_size=4, seed=9)
        a = train_reference_classifier(ds, cfg)
        b = train_reference_classifier(ds, cfg)
        assert a.losses == b.losses
        for key in a.weights:
            np.testing.assert_array_equal(a.weights[key], b.weights[key])

    def test_empty_dataset_rejected(self):
        from surrokit.balance import Dataset

        empty = Dataset(np.zeros((0, 4, 960)), [], (), 32.0)
        with pytest.raises(InvalidInputError):
            train_reference_classifier(empty, TrainConfig(steps=1))

    def test_separable_two_class_toy_reaches_99_percent(self):
        # linearly separable band-power classes: near-perfect training
        # accuracy well within the 500-step contract
        ds = separable_dataset(n=80)
        cfg = TrainConfig(steps=250, batch_size=16, seed=1)
        result = train_reference_classifier(ds, cfg)
        clf = NetworkClassifier(result.descriptor, result.weights, ds.label_vocabulary)
        ev = evaluate(clf, ds)
        accuracy = np.trace(ev.confusion.counts) / ev.confusion.total
        assert accuracy >= 0.99

    @pytest.mark.slow
    def test_six_class_synthetic_reaches_macro_f1(self):
        # held-out macro-F1 on the bundled generator; desk-scale step count,
        # threshold frozen after calibration (measured 0.874)
        from surrokit.balance import record_holdout_split
        from surrokit.synthetic import bundled_spec, default_group_labels, generate_synthetic

        ds = generate_synthetic(bundled_spec(), 600, seed=20240801)
        groups = default_group_labels(ds, 2)
        train, val = record_holdout_split(ds, 0, 1, groups)
        result = train_reference_classifier(train, TrainConfig(steps=400, batch_size=24, seed=77))
        clf = NetworkClassifier(result.descriptor, result.weights, ds.label_vocabulary)
        ev = evaluate(clf, val)
        assert ev.macro_f1 >= 0.8
