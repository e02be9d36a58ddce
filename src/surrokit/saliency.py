"""Saliency maps from moving-window partial surrogates and zero-out.

For each window position the target channels are re-drawn
``n_replacements`` times as partial FT surrogates (the other channels
stay bit-identical), the classifier is applied to every replacement, and
the class probabilities are averaged. Plotted against window position,
the averaged probabilities show which subsections of the signal drive
the prediction. The zero-out variant smoothly blends the window to zero
instead; it needs no ensemble and is provided as the naive baseline the
surrogate method improves on.

Window positions step through [0, epoch_len - window_len] while the
window, rounded to samples (``window_samples``), ends inside the epoch.
The step and the window must be at least one sample, and neither the
window nor the crossfade may be longer than the epoch. Crossfades are
truncated at the epoch boundaries so the first and last positions remain
valid.

Both methods take the epoch as a one-epoch ``Dataset`` and run one loop:
per position, the replacements are made and classified in blocks of
``SALIENCY_CHUNK``, the surrogate patches of a block in one
``_splice_surrogate`` call. A ``NetworkClassifier`` maps a block by exact
incremental inference (``network.spliced_forward``): the epoch's
channel-pipe activations are computed once, and only the output ranges
the changed samples reach are recomputed, so maps agree with one full
forward per replacement to rounding. Any other classifier gets one
``predict_batch`` call per block, on a dataset of the block's replaced
epochs. The positions run in forked worker processes
(``parallel._map_processes``), one item each: the baseline and the
epoch's activations are computed before the fork, so any classifier
reaches the workers through it, and only each position's mean and std
come back. README gives the time of the default CLI map (51 positions x
500 replacements).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .balance import Dataset, _check_one_epoch
from .classifiers import NetworkClassifier
from .errors import InvalidInputError
from .parallel import _map_processes
from .seeding import NS_SALIENCY, spawn_rng
from .surrogates import _splice_surrogate, crossfade_weights, window_samples

# replacements per block sent to the classifier; bounds the stacked rows
# and the joined-pipe activations held at once
SALIENCY_CHUNK = 32


@dataclass(frozen=True)
class SaliencySpec:
    window_len_s: float = 5.0
    step_s: float = 0.5
    crossfade_s: float = 0.5
    n_replacements: int = 500
    target_channels: tuple = ("EEG1", "EEG2")
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.window_len_s, self.step_s, self.crossfade_s))):
            raise InvalidInputError("window, step and crossfade must be finite")
        if self.window_len_s <= 0 or self.step_s <= 0 or self.crossfade_s < 0:
            raise InvalidInputError("window and step must be positive, crossfade non-negative")
        if self.n_replacements < 1:
            raise InvalidInputError("n_replacements must be >= 1")


@dataclass(frozen=True)
class SaliencyMap:
    """Averaged class probabilities per window position.

    ``positions_s`` are window start times; ``mean_probabilities`` has
    one row per position. ``baseline_probabilities`` is the unmodified
    epoch's prediction.
    """

    positions_s: np.ndarray
    mean_probabilities: np.ndarray
    baseline_probabilities: np.ndarray
    labels: tuple
    std_probabilities: np.ndarray = None  # per-position ensemble stddev, None for zero-out


def window_positions(n_samples, sample_rate_hz, window_len_s, step_s) -> np.ndarray:
    """Start times 0, step, 2*step, ... while the rounded window fits."""
    _, window_len, _ = window_samples(n_samples, sample_rate_hz, 0.0, window_len_s)
    span = n_samples / sample_rate_hz - window_len_s
    positions = np.arange(int(np.floor(span / step_s + 1e-9)) + 1) * step_s
    while window_samples(n_samples, sample_rate_hz, positions[-1])[0] + window_len > n_samples:
        positions = positions[:-1]
    return positions


def _window_geometry(epoch: Dataset, position_s: float, spec: SaliencySpec):
    n = epoch.n_samples
    start, window_len, crossfade = window_samples(
        n, epoch.sample_rate_hz, position_s, spec.window_len_s, spec.crossfade_s
    )
    return start, window_len, min(crossfade, start), min(crossfade, n - start - window_len)


def _validate(epoch: Dataset, spec: SaliencySpec):
    _check_one_epoch(epoch)
    unknown = set(spec.target_channels) - set(epoch.channel_roles)
    if unknown:
        raise InvalidInputError(f"target channels {sorted(unknown)} not present in epoch")
    if not spec.target_channels:
        raise InvalidInputError("target_channels is empty")
    # window starts and lengths are rounded to whole samples
    period = 1.0 / epoch.sample_rate_hz
    for name, value in (("step", spec.step_s), ("window", spec.window_len_s)):
        if value < period:
            raise InvalidInputError(f"{name} of {value} s is shorter than one sample ({period} s)")
    window_samples(epoch.n_samples, epoch.sample_rate_hz, 0.0, spec.window_len_s, spec.crossfade_s)


def _predictor(classifier, epoch: Dataset):
    """The epoch's probabilities and a function of replacement rows.

    The function takes ``{channel index: (R, n_samples) rows}`` that equal
    the epoch outside samples [lo, hi) and returns (R, K) probabilities.
    A ``NetworkClassifier`` gets them by exact incremental inference; any
    other classifier by one ``predict_batch`` call on the R replaced
    epochs, in row order.
    """
    if isinstance(classifier, NetworkClassifier):
        return classifier.splice_predictor(epoch)

    def predict_rows(rows, lo, hi):
        index = np.zeros(len(next(iter(rows.values()))), dtype=np.int64)
        x = epoch.x[index]
        for c, block in rows.items():
            x[:, c] = block
        replaced = replace(
            epoch, x=x, labels=epoch.labels[index], record_ids=epoch.record_ids * index.size
        )
        return np.asarray(classifier.predict_batch(replaced), dtype=np.float64)

    return np.asarray(classifier.predict_batch(epoch)[0], dtype=np.float64), predict_rows


def _saliency(classifier, epoch: Dataset, spec: SaliencySpec, n_replacements, make_rows):
    """Positions, baseline, and per-position mean and std of the probabilities.

    ``make_rows(p_idx, block, c_idx, geometry)`` returns the replacements
    in range ``block`` of channel ``c_idx`` at position ``p_idx`` as rows;
    a position's replacements are made in blocks of ``SALIENCY_CHUNK``.
    """
    _validate(epoch, spec)
    baseline, predict_rows = _predictor(classifier, epoch)
    positions = window_positions(
        epoch.n_samples, epoch.sample_rate_hz, spec.window_len_s, spec.step_s
    )
    targets = [c for c, role in enumerate(epoch.channel_roles) if role in spec.target_channels]

    def position_stats(p_idx):
        geometry = _window_geometry(epoch, positions[p_idx], spec)
        start, window_len, cf_left, cf_right = geometry
        lo, hi = start - cf_left, start + window_len + cf_right
        probs = np.empty((n_replacements, baseline.size))
        for first in range(0, n_replacements, SALIENCY_CHUNK):
            block = range(first, min(first + SALIENCY_CHUNK, n_replacements))
            rows = {c: make_rows(p_idx, block, c, geometry) for c in targets}
            probs[block.start : block.stop] = predict_rows(rows, lo, hi)
        std = probs.std(axis=0, ddof=1) if n_replacements > 1 else np.zeros(baseline.size)
        return probs.mean(axis=0), std

    means, stds = zip(*_map_processes(position_stats, positions.size))
    return positions, baseline, np.array(means), np.array(stds)


def surrogate_saliency(classifier, epoch: Dataset, spec: SaliencySpec) -> SaliencyMap:
    """Partial-surrogate saliency map for a one-epoch dataset.

    Replacement r at position index p for channel c draws from the
    stream keyed (seed, saliency, p, r, c), so maps are deterministic
    given the spec.
    """

    def make_rows(p_idx, block, c_idx, geometry):
        rngs = [spawn_rng(spec.seed, NS_SALIENCY, p_idx, r, c_idx) for r in block]
        return _splice_surrogate(epoch.x[0, c_idx], *geometry, rngs)

    positions, baseline, means, stds = _saliency(
        classifier, epoch, spec, spec.n_replacements, make_rows
    )
    return SaliencyMap(positions, means, baseline, tuple(classifier.label_vocabulary), stds)


def zero_out_saliency(classifier, epoch: Dataset, spec: SaliencySpec) -> SaliencyMap:
    """Baseline saliency map: smoothly blend each window to zero.

    One deterministic replacement per position; ``n_replacements`` is
    ignored. Uses the same cosine crossfade as the surrogate method.
    """

    def make_rows(p_idx, block, c_idx, geometry):
        start, window_len, cf_left, cf_right = geometry
        weights = crossfade_weights(window_len, cf_left, cf_right)
        region = slice(start - cf_left, start - cf_left + weights.size)
        rows = np.tile(epoch.x[0, c_idx], (len(block), 1))
        rows[:, region] = (1.0 - weights) * rows[:, region]
        return rows

    positions, baseline, means, _ = _saliency(classifier, epoch, spec, 1, make_rows)
    return SaliencyMap(positions, means, baseline, tuple(classifier.label_vocabulary))
