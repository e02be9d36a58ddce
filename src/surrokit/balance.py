"""Class-imbalance handling: up-sampling, surrogate augmentation, splits.

Up-sampling adds, for every class c, round(beta * (max_count - count_c))
random repetitions drawn with replacement from that class, where
max_count is the most frequent class's count. Rounding is half-to-even.
Augmentation then replaces each channel of a repeated epoch by its
surrogate with probability alpha; original epochs are never touched.
``Dataset`` is the one data type: one epoch is a one-epoch dataset.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .seeding import NS_AUGMENT, NS_UPSAMPLE, spawn_rng
from .signals import DEFAULT_ROLES, _check_samples
from .surrogates import SurrogateConfig, _surrogate_rows

DEFAULT_VOCABULARY = ("Wake", "S1", "S2", "S3", "S4", "REM")


@dataclass(frozen=True)
class Dataset:
    """Labeled epochs as one (n_epochs, n_channels, n_samples) array.

    ``labels`` are int64 indices into ``label_vocabulary``; all epochs
    share ``channel_roles`` and ``sample_rate_hz``. The dataset takes
    ownership of the array it gets: a float64 ``x`` is kept as it is,
    not copied, and made read-only. ``take([i])`` is epoch i alone, the
    form the APIs that work on one epoch take.
    """

    x: np.ndarray
    labels: np.ndarray
    record_ids: tuple
    sample_rate_hz: float
    label_vocabulary: tuple = DEFAULT_VOCABULARY
    channel_roles: tuple = DEFAULT_ROLES

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        record_ids = tuple(str(r) for r in self.record_ids)
        vocabulary = tuple(str(v) for v in self.label_vocabulary)
        roles = tuple(str(r) for r in self.channel_roles)
        if x.ndim != 3 or not x.shape[1]:
            raise InvalidInputError(
                "expected a (n_epochs, n_channels, n_samples) array of >= 1 channel, "
                f"got shape {x.shape}"
            )
        if len(roles) != x.shape[1]:
            raise InvalidInputError(f"{len(roles)} channel roles for {x.shape[1]} channels")
        _check_samples(x, self.sample_rate_hz)
        if labels.shape != (len(x),) or len(record_ids) != len(x):
            raise InvalidInputError(
                f"{labels.size} labels and {len(record_ids)} record ids for {len(x)} epochs"
            )
        if len(set(vocabulary)) != len(vocabulary):
            raise InvalidInputError("label vocabulary contains duplicates")
        if labels.size and (labels.min() < 0 or labels.max() >= len(vocabulary)):
            raise InvalidInputError("label index outside the vocabulary")
        x.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "record_ids", record_ids)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "label_vocabulary", vocabulary)
        object.__setattr__(self, "channel_roles", roles)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def n_samples(self) -> int:
        return self.x.shape[2]

    def take(self, indices) -> "Dataset":
        """The epochs at ``indices``, in that order, as a new dataset."""
        indices = np.asarray(indices, dtype=np.int64)
        record_ids = tuple(self.record_ids[i] for i in indices)
        return replace(self, x=self.x[indices], labels=self.labels[indices], record_ids=record_ids)

    def class_counts(self) -> dict:
        """Per-class epoch counts over the full vocabulary (zeros included)."""
        counts = np.bincount(self.labels, minlength=len(self.label_vocabulary))
        return {label: int(c) for label, c in zip(self.label_vocabulary, counts)}


def _check_one_epoch(dataset: Dataset) -> None:
    """Refuse a dataset that does not hold exactly one epoch."""
    if len(dataset) != 1:
        raise InvalidInputError(f"expected a dataset of one epoch, got {len(dataset)}")


@dataclass(frozen=True)
class BalanceConfig:
    """Up-sampling factor beta, augmentation probability alpha, seed, surrogates."""

    beta: float = 0.0
    alpha: float = 0.0
    seed: int = 0
    surrogate: SurrogateConfig = SurrogateConfig()

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidInputError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidInputError(f"alpha must lie in [0, 1], got {self.alpha}")


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

    index = [np.arange(len(dataset))]
    for k, label in enumerate(dataset.label_vocabulary):
        count = needed[label]
        if count == 0:
            continue
        source = np.flatnonzero(dataset.labels == k)
        if not source.size:
            raise InvalidInputError(
                f"class {label!r} needs {count} repetitions but has no source epochs"
            )
        index.append(source[rng.integers(0, source.size, size=count)])
    index = np.concatenate(index)
    order = rng.permutation(index.size)
    return dataset.take(index[order]), order >= len(dataset)


def augment(dataset: Dataset, repeated_flags, config: BalanceConfig, log=None) -> Dataset:
    """Replace channels of repeated epochs by surrogates with probability alpha.

    Epochs not marked in ``repeated_flags`` are passed through untouched.
    Deterministic given the config seed: epoch i, channel j draws from
    the stream keyed (seed, augment, i, j). The chosen channels are
    surrogated as one block of rows, which gives the same samples as one
    channel at a time. ``log`` is an optional callable that receives the
    reports of the replaced channels (None for FT surrogates).
    """
    flags = np.asarray(repeated_flags, dtype=bool)
    if flags.shape != (len(dataset),):
        raise InvalidInputError(
            f"repeated_flags has shape {flags.shape}, expected ({len(dataset)},)"
        )
    picks = []
    for i in np.flatnonzero(flags):
        for j in range(len(dataset.channel_roles)):
            rng = spawn_rng(config.seed, NS_AUGMENT, int(i), j)
            if rng.uniform() < config.alpha:
                picks.append((i, j, rng))
    x = dataset.x.copy()
    reports = ()
    if picks:
        rows, channels, rngs = zip(*picks)
        x[rows, channels], reports = _surrogate_rows(x[rows, channels], rngs, config.surrogate)
    if log is not None:
        log(reports)
    return replace(dataset, x=x)


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

    held = np.array([rid in held_out for rid in dataset.record_ids], dtype=bool)
    return dataset.take(np.flatnonzero(~held)), dataset.take(np.flatnonzero(held))
