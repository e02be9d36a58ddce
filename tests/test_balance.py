import numpy as np
import pytest

from oracles import iaaft_per_channel, one_sided_amplitudes, phase_randomize_per_channel
from surrokit.balance import (
    BalanceConfig,
    Dataset,
    augment,
    record_holdout_split,
    repetition_counts,
    upsample,
)
from surrokit.errors import InvalidInputError
from surrokit.seeding import NS_AUGMENT, spawn_rng
from surrokit.surrogates import SURROGATE_CHUNK, SurrogateConfig


def make_dataset(counts, n_samples=16, n_records=4, vocabulary=None, seed=0):
    rng = np.random.default_rng(seed)
    vocabulary = vocabulary or tuple(counts)
    labels = [vocabulary.index(label) for label, count in counts.items() for _ in range(count)]
    x = rng.standard_normal((len(labels), 4, n_samples))
    record_ids = tuple(f"r{i % n_records}" for i in range(len(labels)))
    return Dataset(x, labels, record_ids, 32.0, vocabulary)


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
        assert {row.tobytes() for row in ds.x} == {row.tobytes() for row in out.x}

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
        original = sorted(row.tobytes() for row in ds.x)
        assert sorted(row.tobytes() for row in out.x[~flags]) == original

    def test_deterministic(self):
        ds = make_dataset({"A": 9, "B": 2})
        a, fa = upsample(ds, BalanceConfig(beta=1.0, seed=4))
        b, fb = upsample(ds, BalanceConfig(beta=1.0, seed=4))
        assert a.x.tobytes() == b.x.tobytes() and a.record_ids == b.record_ids
        np.testing.assert_array_equal(fa, fb)


class TestAugment:
    def test_alpha_zero_identity(self):
        ds = make_dataset({"A": 6, "B": 3})
        up, flags = upsample(ds, BalanceConfig(beta=1.0, seed=1))
        out = augment(up, flags, BalanceConfig(beta=1.0, alpha=0.0, seed=1))
        assert out.x.tobytes() == up.x.tobytes()

    def test_alpha_one_replaces_every_flagged_channel(self):
        ds = make_dataset({"A": 10, "B": 2})
        cfg = BalanceConfig(beta=1.0, alpha=1.0, seed=7)
        up, flags = upsample(ds, cfg)
        out = augment(up, flags, cfg)
        for before, after, flagged, label_b, label_a in zip(
            up.x, out.x, flags, up.labels, out.labels
        ):
            if not flagged:
                assert after.tobytes() == before.tobytes()
                continue
            for ch_b, ch_a in zip(before, after):
                assert not np.array_equal(ch_a, ch_b)
                a = one_sided_amplitudes(ch_b)
                b = one_sided_amplitudes(ch_a)
                np.testing.assert_allclose(b, a, rtol=0, atol=1e-9 * max(a.max(), 1.0))
            assert label_a == label_b

    def test_replacement_fraction_concentrates(self):
        # 2500 flagged epochs x 4 channels = 10,000 Bernoulli(0.4) draws
        ds = make_dataset({"A": 2500}, n_samples=8)
        flags = np.ones(len(ds), dtype=bool)
        out = augment(ds, flags, BalanceConfig(alpha=0.4, seed=12))
        replaced = 0
        for before, after in zip(ds.x, out.x):
            for ch_b, ch_a in zip(before, after):
                if not np.array_equal(ch_a, ch_b):
                    replaced += 1
        assert 0.38 <= replaced / 10_000 <= 0.42

    def test_preserves_structure(self):
        ds = make_dataset({"A": 5, "B": 5})
        cfg = BalanceConfig(beta=1.0, alpha=1.0, seed=3)
        up, flags = upsample(ds, cfg)
        out = augment(up, flags, cfg)
        assert list(out.labels) == list(up.labels)
        assert out.channel_roles == up.channel_roles
        assert out.x.shape == up.x.shape
        assert out.sample_rate_hz == up.sample_rate_hz

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
    for i, (before, after) in enumerate(zip(ds.x, out.x)):
        for j, (ch_b, ch_a) in enumerate(zip(before, after)):
            rng = spawn_rng(cfg.seed, NS_AUGMENT, i, j)
            if not (flags[i] and rng.uniform() < cfg.alpha):
                assert ch_a.tobytes() == ch_b.tobytes()
                continue
            if cfg.surrogate.kind == "ft":
                expected, report = phase_randomize_per_channel(ch_b, rng), None
            else:
                expected, report = iaaft_per_channel(
                    ch_b, rng, cfg.surrogate.iaaft_max_iters,
                    cfg.surrogate.iaaft_tolerance,
                )
            assert ch_a.tobytes() == expected.tobytes()
            expected_reports.append(report)
    assert sorted(reports, key=repr) == sorted(expected_reports, key=repr)
    return reports


class TestAugmentBlocks:
    @pytest.mark.parametrize("kind", ["iaaft", "ft"])
    def test_bit_identical_across_a_block_boundary(self, kind):
        # 7/8 of 2 * SURROGATE_CHUNK epochs flagged, 4 channels each: at alpha
        # 0.5 about 3.5 * SURROGATE_CHUNK channels are chosen, in several blocks
        ds = make_dataset({"A": 2 * SURROGATE_CHUNK}, n_samples=48)
        flags = np.arange(len(ds)) % 8 != 3
        cfg = BalanceConfig(alpha=0.5, seed=21, surrogate=SurrogateConfig(kind=kind))
        reports = assert_augment_matches_per_channel_reference(ds, flags, cfg)
        assert len(reports) > SURROGATE_CHUNK + 3

    def test_epochs_of_different_lengths(self):
        # one array holds the set, so epochs of mixed length cannot form one
        short = make_dataset({"A": 1}, n_samples=33, seed=1)
        long = make_dataset({"A": 1}, n_samples=40, seed=2)
        with pytest.raises(ValueError):
            Dataset([short.x[0], long.x[0]], [0, 0], ("r0", "r1"), 32.0, ("A",))

    def test_iaaft_fields_validated(self):
        with pytest.raises(InvalidInputError):
            BalanceConfig(surrogate=SurrogateConfig(kind="iaaft", iaaft_max_iters=0))
        with pytest.raises(InvalidInputError):
            BalanceConfig(surrogate=SurrogateConfig(kind="iaaft", iaaft_tolerance=-1.0))


class TestPipelineIdentity:
    def test_alpha_and_beta_zero_is_permutation(self):
        ds = make_dataset({"A": 8, "B": 6, "C": 2})
        cfg = BalanceConfig(beta=0.0, alpha=0.0, seed=6)
        up, flags = upsample(ds, cfg)
        out = augment(up, flags, cfg)
        assert sorted(row.tobytes() for row in out.x) == sorted(row.tobytes() for row in ds.x)


class TestRecordHoldoutSplit:
    @staticmethod
    def grouped_dataset():
        x = np.random.default_rng(0).standard_normal((30, 4, 8))
        record_ids = tuple(f"rec{i // 3}" for i in range(30))
        groups = {f"rec{r}": ("g0" if r < 5 else "g1") for r in range(10)}
        return Dataset(x, np.zeros(30, dtype=int), record_ids, 32.0, ("A",)), groups

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


class TestDataset:
    FIELDS = dict(
        x=np.zeros((2, 4, 8)), labels=[0, 1], record_ids=("a", "b"), sample_rate_hz=32.0,
        label_vocabulary=("A", "B"),
    )

    def test_takes_ownership_of_a_float64_array(self):
        x = np.zeros((2, 4, 8))
        ds = Dataset(**{**self.FIELDS, "x": x})
        assert ds.x is x and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0, 0] = 1.0

    def test_other_dtypes_are_converted(self):
        x = np.ones((2, 4, 8), dtype=np.float32)
        ds = Dataset(**{**self.FIELDS, "x": x})
        assert ds.x.dtype == np.float64 and ds.labels.dtype == np.int64
        assert x.flags.writeable

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("x", np.zeros((2, 8)), "n_epochs, n_channels, n_samples"),
            ("x", np.zeros((2, 4, 1)), "at least 2 samples"),
            ("x", np.full((2, 4, 8), np.nan), "non-finite"),
            ("sample_rate_hz", 0.0, "sample rate must be positive"),
            ("channel_roles", ("EEG1",), "1 channel roles for 4 channels"),
            ("labels", [0, 2], "outside the vocabulary"),
            ("labels", [-1, 0], "outside the vocabulary"),
            ("labels", [0], "1 labels and 2 record ids for 2 epochs"),
            ("record_ids", ("a",), "2 labels and 1 record ids"),
            ("label_vocabulary", ("A", "A"), "duplicates"),
            ("x", np.zeros((2, 0, 8)), ">= 1 channel"),
        ],
    )
    def test_invalid_fields_rejected(self, field, value, message):
        with pytest.raises(InvalidInputError, match=message):
            Dataset(**{**self.FIELDS, field: value})

    def test_epoch_view(self):
        ds = make_dataset({"A": 2, "B": 3})
        epoch = ds.take([3])
        assert (epoch.label_vocabulary[epoch.labels[0]], epoch.channel_roles) == (
            "B", ds.channel_roles
        )
        assert epoch.sample_rate_hz == 32.0
        assert epoch.x.tobytes() == ds.x[3].tobytes()
        assert [ds.label_vocabulary[i] for i in ds.labels] == ["A", "A", "B", "B", "B"]

    def test_take(self):
        ds = make_dataset({"A": 2, "B": 3})
        out = ds.take([4, 0, 4])
        assert out.x.tobytes() == ds.x[[4, 0, 4]].tobytes()
        assert list(out.labels) == [1, 0, 1]
        assert out.record_ids == (ds.record_ids[4], ds.record_ids[0], ds.record_ids[4])
