"""Class-imbalance handling: up-sampling, surrogate augmentation, splits.

Up-sampling adds, for every class c, round(beta * (max_count - count_c))
random repetitions drawn with replacement from that class, where
max_count is the most frequent class's count. Rounding is half-to-even.
Augmentation then replaces each channel of a repeated epoch by its
surrogate with probability alpha; original epochs are never touched.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .seeding import NS_AUGMENT, NS_UPSAMPLE, spawn_rng
from .signals import Epoch, Signal
from .surrogates import KIND_FT, SurrogateConfig, _surrogate_rows

# channels surrogated as one block; bounds the FFT and sort temporaries
IAAFT_CHUNK = 64

DEFAULT_VOCABULARY = ("Wake", "S1", "S2", "S3", "S4", "REM")


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of epochs with provenance and label vocabulary."""

    epochs: tuple
    record_ids: tuple
    label_vocabulary: tuple = DEFAULT_VOCABULARY

    def __post_init__(self):
        epochs = tuple(self.epochs)
        record_ids = tuple(str(r) for r in self.record_ids)
        vocabulary = tuple(self.label_vocabulary)
        if len(record_ids) != len(epochs):
            raise InvalidInputError(
                f"{len(record_ids)} record ids for {len(epochs)} epochs"
            )
        if len(set(vocabulary)) != len(vocabulary):
            raise InvalidInputError("label vocabulary contains duplicates")
        known = set(vocabulary)
        for ep in epochs:
            if ep.label not in known:
                raise InvalidInputError(f"epoch label {ep.label!r} not in vocabulary")
        object.__setattr__(self, "epochs", epochs)
        object.__setattr__(self, "record_ids", record_ids)
        object.__setattr__(self, "label_vocabulary", vocabulary)

    def __len__(self) -> int:
        return len(self.epochs)

    def class_counts(self) -> dict:
        """Per-class epoch counts over the full vocabulary (zeros included)."""
        counts = {label: 0 for label in self.label_vocabulary}
        for ep in self.epochs:
            counts[ep.label] += 1
        return counts

    def label_indices(self) -> np.ndarray:
        index = {label: i for i, label in enumerate(self.label_vocabulary)}
        return np.array([index[ep.label] for ep in self.epochs], dtype=np.int64)


@dataclass(frozen=True)
class BalanceConfig:
    """Up-sampling factor beta, augmentation probability alpha, and seed."""

    beta: float = 0.0
    alpha: float = 0.0
    seed: int = 0
    surrogate_kind: str = KIND_FT
    iaaft_max_iters: int = 100
    iaaft_tolerance: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidInputError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidInputError(f"alpha must lie in [0, 1], got {self.alpha}")
        self.surrogate_config  # validates the surrogate fields

    @property
    def surrogate_config(self) -> SurrogateConfig:
        return SurrogateConfig(
            kind=self.surrogate_kind,
            iaaft_max_iters=self.iaaft_max_iters,
            iaaft_tolerance=self.iaaft_tolerance,
        )


def repetition_counts(class_counts, beta: float) -> dict:
    """Repetitions per class needed to fill a beta fraction of its deficit.

    For each class: round(beta * (max_count - count)), half-to-even.
    The most frequent class maps to 0.
    """
    if not class_counts:
        raise InvalidInputError("class counts are empty")
    if not 0.0 <= beta <= 1.0:
        raise InvalidInputError(f"beta must lie in [0, 1], got {beta}")
    values = list(class_counts.values())
    if any(v < 0 for v in values):
        raise InvalidInputError("class counts must be non-negative")
    top = max(values)
    if top <= 0:
        raise InvalidInputError("at least one class count must be positive")
    return {label: round(beta * (top - count)) for label, count in class_counts.items()}


def upsample(dataset: Dataset, config: BalanceConfig):
    """Add beta-controlled random repetitions and shuffle deterministically.

    Returns:
        (upsampled_dataset, repeated_flags) where ``repeated_flags`` is a
        boolean array aligned with the output marking the added epochs.
    """
    if len(dataset) == 0:
        raise InvalidInputError("dataset is empty")
    needed = repetition_counts(dataset.class_counts(), config.beta)
    rng = spawn_rng(config.seed, NS_UPSAMPLE)

    by_class = {label: [] for label in dataset.label_vocabulary}
    for i, ep in enumerate(dataset.epochs):
        by_class[ep.label].append(i)

    epochs = list(dataset.epochs)
    record_ids = list(dataset.record_ids)
    flags = [False] * len(dataset)
    for label in dataset.label_vocabulary:
        count = needed[label]
        if count == 0:
            continue
        source = by_class[label]
        if not source:
            raise InvalidInputError(
                f"class {label!r} needs {count} repetitions but has no source epochs"
            )
        picks = rng.integers(0, len(source), size=count)
        for p in picks:
            idx = source[p]
            epochs.append(dataset.epochs[idx])
            record_ids.append(dataset.record_ids[idx])
            flags.append(True)

    order = rng.permutation(len(epochs))
    shuffled = Dataset(
        tuple(epochs[i] for i in order),
        tuple(record_ids[i] for i in order),
        dataset.label_vocabulary,
    )
    return shuffled, np.array(flags, dtype=bool)[order]


def augment(dataset: Dataset, repeated_flags, config: BalanceConfig, log=None) -> Dataset:
    """Replace channels of repeated epochs by surrogates with probability alpha.

    Epochs not marked in ``repeated_flags`` are passed through untouched.
    Deterministic given the config seed: epoch i, channel j draws from
    the stream keyed (seed, augment, i, j). The chosen channels are
    surrogated in blocks of ``IAAFT_CHUNK`` rows of equal length, which
    gives the same samples as one channel at a time. ``log`` is an
    optional callable that receives the reports of the replaced channels
    (None for FT surrogates).
    """
    flags = np.asarray(repeated_flags, dtype=bool)
    if flags.shape != (len(dataset),):
        raise InvalidInputError(
            f"repeated_flags has shape {flags.shape}, expected ({len(dataset)},)"
        )
    by_length = {}
    for i, ep in enumerate(dataset.epochs):
        if not flags[i]:
            continue
        for j in range(len(ep.channels)):
            rng = spawn_rng(config.seed, NS_AUGMENT, i, j)
            if rng.uniform() < config.alpha:
                by_length.setdefault(ep.n_samples, []).append((i, j, rng))

    surrogate_config = config.surrogate_config
    replaced = {}
    reports = []
    for picks in by_length.values():
        for start in range(0, len(picks), IAAFT_CHUNK):
            chunk = picks[start : start + IAAFT_CHUNK]
            block = np.stack([dataset.epochs[i].channels[j].samples for i, j, _ in chunk])
            rngs = [rng for _, _, rng in chunk]
            samples, chunk_reports = _surrogate_rows(block, rngs, surrogate_config)
            reports.extend(chunk_reports)
            for (i, j, _), row in zip(chunk, samples):
                channels = replaced.setdefault(i, list(dataset.epochs[i].channels))
                channels[j] = Signal(row, channels[j].sample_rate_hz)
    if log is not None:
        log(tuple(reports))

    epochs = list(dataset.epochs)
    for i, channels in replaced.items():
        epochs[i] = Epoch(tuple(channels), epochs[i].label, epochs[i].channel_roles)
    return Dataset(tuple(epochs), dataset.record_ids, dataset.label_vocabulary)


def record_holdout_split(dataset: Dataset, fold: int, n_folds: int, group_labels):
    """Hold one record per group out for validation.

    ``group_labels`` maps record_id to a group id. Records within a group
    are ordered lexicographically and fold k holds out the k-th record of
    every group, so validation sets are disjoint across folds and train
    and validation never share a record.

    Returns:
        (train, validation) datasets.
    """
    if n_folds < 1:
        raise InvalidInputError(f"n_folds must be >= 1, got {n_folds}")
    if not 0 <= fold < n_folds:
        raise InvalidInputError(f"fold {fold} outside [0, {n_folds})")
    present = sorted(set(dataset.record_ids))
    groups = {}
    for rid in present:
        if rid not in group_labels:
            raise InvalidInputError(f"record {rid!r} has no group label")
        groups.setdefault(group_labels[rid], []).append(rid)
    held_out = set()
    for gid, records in sorted(groups.items()):
        if len(records) < n_folds:
            raise InvalidInputError(
                f"group {gid!r} has {len(records)} records, fewer than {n_folds} folds"
            )
        held_out.add(records[fold])

    train_idx = [i for i, rid in enumerate(dataset.record_ids) if rid not in held_out]
    val_idx = [i for i, rid in enumerate(dataset.record_ids) if rid in held_out]
    pick = lambda idx: Dataset(
        tuple(dataset.epochs[i] for i in idx),
        tuple(dataset.record_ids[i] for i in idx),
        dataset.label_vocabulary,
    )
    return pick(train_idx), pick(val_idx)
