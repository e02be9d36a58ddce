import numpy as np
import pytest

from oracles import iaaft_per_channel, one_sided_amplitudes, phase_randomize_per_channel
from surrokit.balance import (
    IAAFT_CHUNK,
    BalanceConfig,
    Dataset,
    augment,
    record_holdout_split,
    repetition_counts,
    upsample,
)
from surrokit.errors import InvalidInputError
from surrokit.seeding import NS_AUGMENT, spawn_rng
from surrokit.signals import epoch_from_array


def make_dataset(counts, n_samples=16, n_records=4, vocabulary=None, seed=0):
    rng = np.random.default_rng(seed)
    vocabulary = vocabulary or tuple(counts)
    epochs, record_ids = [], []
    i = 0
    for label, count in counts.items():
        for _ in range(count):
            epochs.append(
                epoch_from_array(rng.standard_normal((4, n_samples)), 32.0, label)
            )
            record_ids.append(f"r{i % n_records}")
            i += 1
    return Dataset(tuple(epochs), tuple(record_ids), vocabulary)


class TestRepetitionCounts:
    def test_spec_arithmetic(self):
        out = repetition_counts({"A": 100, "B": 10, "C": 50}, beta=0.9)
        assert out == {"A": 0, "B": 81, "C": 45}

    def test_beta_zero(self):
        assert repetition_counts({"A": 3, "B": 1}, 0.0) == {"A": 0, "B": 0}

    def test_beta_one_equalizes(self):
        out = repetition_counts({"A": 7, "B": 3}, 1.0)
        assert out == {"A": 0, "B": 4}

    def test_round_half_to_even(self):
        # deficit 5, beta 0.5 -> 2.5 rounds to 2; deficit 7 -> 3.5 rounds to 4
        out = repetition_counts({"A": 10, "B": 5, "C": 3}, 0.5)
        assert out == {"A": 0, "B": 2, "C": 4}

    def test_empty_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            repetition_counts({}, 0.5)
        with pytest.raises(InvalidInputError):
            repetition_counts({"A": 0}, 0.5)


class TestUpsample:
    def test_beta_zero_is_shuffled_copy(self):
        ds = make_dataset({"A": 12, "B": 5})
        out, flags = upsample(ds, BalanceConfig(beta=0.0, seed=3))
        assert len(out) == len(ds)
        assert not flags.any()
        assert out.class_counts() == ds.class_counts()
        original = {ep.to_array().tobytes() for ep in ds.epochs}
        shuffled = {ep.to_array().tobytes() for ep in out.epochs}
        assert original == shuffled

    def test_beta_one_matches_majority(self):
        ds = make_dataset({"A": 100, "B": 10})
        out, flags = upsample(ds, BalanceConfig(beta=1.0, seed=1))
        assert out.class_counts() == {"A": 100, "B": 100}
        assert flags.sum() == 90

    def test_output_size_from_spec_example(self):
        ds = make_dataset({"A": 100, "B": 10, "C": 50})
        out, _ = upsample(ds, BalanceConfig(beta=0.9, seed=2))
        assert len(out) == 100 + 91 + 95

    def test_exact_count_arithmetic(self, rng):
        for _ in range(10):
            counts = {f"c{k}": int(rng.integers(1, 40)) for k in range(4)}
            beta = float(rng.uniform())
            ds = make_dataset(counts, seed=int(rng.integers(1 << 30)))
            out, _ = upsample(ds, BalanceConfig(beta=beta, seed=5))
            top = max(counts.values())
            expected = {c: n + round(beta * (top - n)) for c, n in counts.items()}
            assert out.class_counts() == expected

    def test_missing_class_with_required_reps_rejected(self):
        ds = make_dataset({"A": 10}, vocabulary=("A", "B"))
        with pytest.raises(InvalidInputError):
            upsample(ds, BalanceConfig(beta=0.5, seed=1))

    def test_flags_mark_exactly_the_added_epochs(self):
        ds = make_dataset({"A": 20, "B": 4})
        out, flags = upsample(ds, BalanceConfig(beta=1.0, seed=9))
        original = sorted(ep.to_array().tobytes() for ep in ds.epochs)
        kept = sorted(
            ep.to_array().tobytes() for ep, f in zip(out.epochs, flags) if not f
        )
        assert kept == original

    def test_deterministic(self):
        ds = make_dataset({"A": 9, "B": 2})
        a, fa = upsample(ds, BalanceConfig(beta=1.0, seed=4))
        b, fb = upsample(ds, BalanceConfig(beta=1.0, seed=4))
        assert [id(x) for x in a.epochs] == [id(x) for x in b.epochs]
        np.testing.assert_array_equal(fa, fb)


class TestAugment:
    def test_alpha_zero_identity(self):
        ds = make_dataset({"A": 6, "B": 3})
        up, flags = upsample(ds, BalanceConfig(beta=1.0, seed=1))
        out = augment(up, flags, BalanceConfig(beta=1.0, alpha=0.0, seed=1))
        assert all(a is b for a, b in zip(out.epochs, up.epochs))

    def test_alpha_one_replaces_every_flagged_channel(self):
        ds = make_dataset({"A": 10, "B": 2})
        cfg = BalanceConfig(beta=1.0, alpha=1.0, seed=7)
        up, flags = upsample(ds, cfg)
        out = augment(up, flags, cfg)
        for before, after, flagged in zip(up.epochs, out.epochs, flags):
            if not flagged:
                assert after is before
                continue
            for ch_b, ch_a in zip(before.channels, after.channels):
                assert not np.array_equal(ch_a.samples, ch_b.samples)
                a = one_sided_amplitudes(ch_b.samples)
                b = one_sided_amplitudes(ch_a.samples)
                np.testing.assert_allclose(b, a, rtol=0, atol=1e-9 * max(a.max(), 1.0))
            assert after.label == before.label

    def test_replacement_fraction_concentrates(self):
        # 2500 flagged epochs x 4 channels = 10,000 Bernoulli(0.4) draws
        ds = make_dataset({"A": 2500}, n_samples=8)
        flags = np.ones(len(ds), dtype=bool)
        out = augment(ds, flags, BalanceConfig(alpha=0.4, seed=12))
        replaced = 0
        for before, after in zip(ds.epochs, out.epochs):
            for ch_b, ch_a in zip(before.channels, after.channels):
                if not np.array_equal(ch_a.samples, ch_b.samples):
                    replaced += 1
        assert 0.38 <= replaced / 10_000 <= 0.42

    def test_preserves_structure(self):
        ds = make_dataset({"A": 5, "B": 5})
        cfg = BalanceConfig(beta=1.0, alpha=1.0, seed=3)
        up, flags = upsample(ds, cfg)
        out = augment(up, flags, cfg)
        for before, after in zip(up.epochs, out.epochs):
            assert after.label == before.label
            assert after.channel_roles == before.channel_roles
            assert after.n_samples == before.n_samples
            assert after.sample_rate_hz == before.sample_rate_hz

    def test_bad_flag_shape_rejected(self):
        ds = make_dataset({"A": 4})
        with pytest.raises(InvalidInputError):
            augment(ds, np.ones(3, dtype=bool), BalanceConfig(alpha=1.0))


def assert_augment_matches_per_channel_reference(ds, flags, cfg):
    """Replay augment one channel at a time with the frozen reference."""
    logged = []
    out = augment(ds, flags, cfg, log=logged.append)
    (reports,) = logged
    expected_reports = []
    for i, (before, after) in enumerate(zip(ds.epochs, out.epochs)):
        for j, (ch_b, ch_a) in enumerate(zip(before.channels, after.channels)):
            rng = spawn_rng(cfg.seed, NS_AUGMENT, i, j)
            if not (flags[i] and rng.uniform() < cfg.alpha):
                assert ch_a is ch_b
                continue
            if cfg.surrogate_kind == "ft":
                expected, report = phase_randomize_per_channel(ch_b.samples, rng), None
            else:
                expected, report = iaaft_per_channel(
                    ch_b.samples, rng, cfg.iaaft_max_iters, cfg.iaaft_tolerance
                )
            assert ch_a.samples.tobytes() == expected.tobytes()
            expected_reports.append(report)
    assert sorted(reports, key=repr) == sorted(expected_reports, key=repr)
    return reports


class TestAugmentBlocks:
    @pytest.mark.parametrize("kind", ["iaaft", "ft"])
    def test_bit_identical_across_a_block_boundary(self, kind):
        # 7/8 of 2 * IAAFT_CHUNK epochs flagged, 4 channels each: at alpha 0.5
        # about 3.5 * IAAFT_CHUNK channels are chosen, in several blocks
        ds = make_dataset({"A": 2 * IAAFT_CHUNK}, n_samples=48)
        flags = np.arange(len(ds)) % 8 != 3
        cfg = BalanceConfig(alpha=0.5, seed=21, surrogate_kind=kind)
        reports = assert_augment_matches_per_channel_reference(ds, flags, cfg)
        assert len(reports) > IAAFT_CHUNK + 3

    def test_epochs_of_different_lengths(self):
        short = make_dataset({"A": 5}, n_samples=33, seed=1)
        long = make_dataset({"A": 5}, n_samples=40, seed=2)
        ds = Dataset(
            tuple(e for pair in zip(short.epochs, long.epochs) for e in pair),
            tuple(f"r{i}" for i in range(10)),
            ("A",),
        )
        cfg = BalanceConfig(alpha=0.5, seed=4, surrogate_kind="iaaft")
        assert_augment_matches_per_channel_reference(ds, np.ones(10, dtype=bool), cfg)

    def test_iaaft_fields_validated(self):
        with pytest.raises(InvalidInputError):
            BalanceConfig(surrogate_kind="iaaft", iaaft_max_iters=0)
        with pytest.raises(InvalidInputError):
            BalanceConfig(surrogate_kind="iaaft", iaaft_tolerance=-1.0)


class TestPipelineIdentity:
    def test_alpha_and_beta_zero_is_permutation(self):
        ds = make_dataset({"A": 8, "B": 6, "C": 2})
        cfg = BalanceConfig(beta=0.0, alpha=0.0, seed=6)
        up, flags = upsample(ds, cfg)
        out = augment(up, flags, cfg)
        assert sorted(id(ep) for ep in out.epochs) == sorted(id(ep) for ep in ds.epochs)


class TestRecordHoldoutSplit:
    @staticmethod
    def grouped_dataset():
        rng = np.random.default_rng(0)
        epochs, record_ids = [], []
        for r in range(10):
            for _ in range(3):
                epochs.append(epoch_from_array(rng.standard_normal((4, 8)), 32.0, "A"))
                record_ids.append(f"rec{r}")
        groups = {f"rec{r}": ("g0" if r < 5 else "g1") for r in range(10)}
        return Dataset(tuple(epochs), tuple(record_ids), ("A",)), groups

    def test_partition_property(self):
        ds, groups = self.grouped_dataset()
        seen = set()
        for fold in range(5):
            train, val = record_holdout_split(ds, fold, 5, groups)
            val_records = set(val.record_ids)
            assert len(val_records) == 2  # one record per group
            assert not val_records & set(train.record_ids)  # no leakage
            assert not val_records & seen  # disjoint across folds
            seen |= val_records
            assert len(train) + len(val) == len(ds)
        assert seen == set(ds.record_ids)

    def test_fold_out_of_range(self):
        ds, groups = self.grouped_dataset()
        with pytest.raises(InvalidInputError):
            record_holdout_split(ds, 5, 5, groups)

    def test_single_group(self):
        ds, _ = self.grouped_dataset()
        groups = {rid: "only" for rid in set(ds.record_ids)}
        _, val = record_holdout_split(ds, 2, 5, groups)
        assert len(set(val.record_ids)) == 1

    def test_too_few_records_per_group(self):
        ds, _ = self.grouped_dataset()
        groups = {rid: rid for rid in set(ds.record_ids)}  # every record its own group
        with pytest.raises(InvalidInputError):
            record_holdout_split(ds, 0, 2, groups)

    def test_missing_group_label(self):
        ds, groups = self.grouped_dataset()
        del groups["rec0"]
        with pytest.raises(InvalidInputError):
            record_holdout_split(ds, 0, 5, groups)
