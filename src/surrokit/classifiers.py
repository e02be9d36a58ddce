"""Black-box classifier interface plus ready-made implementations.

Anything with a ``label_vocabulary`` and a ``predict(epoch)`` returning a
probability vector over that vocabulary can be evaluated or explained by
the tools in :mod:`surrokit.evaluation` and :mod:`surrokit.saliency`;
nothing requires differentiability.

``NetworkClassifier`` wraps trained network weights. The band-power
classifier is a simple analytic model that depends only on the amplitude
spectrum, and is therefore exactly invariant under full FT surrogate
replacement. ``matched_filter_score`` measures a localized waveform,
which surrogates destroy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .network import (
    ArchitectureDescriptor,
    _check_roles,
    _epoch_batch,
    channel_activations,
    forward,
    forward_batch,
    spliced_forward,
    validate_weights,
)
from .signals import Epoch


class NetworkClassifier:
    """Inference-mode wrapper around descriptor + weights."""

    def __init__(self, descriptor: ArchitectureDescriptor, weights: dict, label_vocabulary):
        if len(label_vocabulary) != descriptor.n_classes():
            raise InvalidInputError(
                f"{len(label_vocabulary)} labels for a {descriptor.n_classes()}-way output"
            )
        validate_weights(descriptor, weights)
        self.descriptor = descriptor
        self.weights = weights
        self.label_vocabulary = tuple(label_vocabulary)

    def predict(self, epoch: Epoch) -> np.ndarray:
        return forward(self.descriptor, self.weights, epoch)

    def predict_batch(self, dataset) -> np.ndarray:
        """(n_epochs, K) probabilities of every epoch of a ``Dataset``."""
        _check_roles(self.descriptor, dataset.channel_roles)
        probs, _ = forward_batch(self.descriptor, self.weights, dataset.x, training=False)
        return probs

    def splice_predictor(self, epoch: Epoch):
        """The epoch's probabilities and a predictor for spliced copies of it.

        The predictor takes ``({channel index: (R, n_samples) rows}, lo,
        hi)``, rows that equal the epoch's channel outside samples [lo,
        hi), and returns (R, K) probabilities by exact incremental
        inference: the epoch's channel-pipe activations are computed once
        here, and each call recomputes only what the changed samples reach
        (``network.spliced_forward``).
        """
        activations = channel_activations(
            self.descriptor, self.weights, _epoch_batch(self.descriptor, epoch)
        )

        def predict_rows(rows, lo, hi):
            return spliced_forward(self.descriptor, self.weights, activations, rows, lo, hi)

        return predict_rows({}, 0, 0)[0], predict_rows


def band_power_features(epoch: Epoch, bands) -> np.ndarray:
    """Log relative band powers, concatenated over channels.

    Powers are normalized by each channel's total power before the log,
    so the features are invariant to overall amplitude scale.
    """
    features = []
    freqs = np.fft.rfftfreq(epoch.n_samples, d=1.0 / epoch.sample_rate_hz)
    for row in epoch.samples:
        spectrum = np.abs(np.fft.rfft(row)) ** 2
        total = spectrum.sum()
        for lo, hi in bands:
            mask = (freqs >= lo) & (freqs < hi)
            power = spectrum[mask].sum()
            features.append(np.log((power + 1e-30) / (total + 1e-30)))
    return np.array(features)


@dataclass
class BandPowerClassifier:
    """Nearest-centroid classifier on log relative band powers.

    Probabilities are softmax(-||f - centroid_c||^2 / temperature). The
    decision depends only on the one-sided amplitude spectra of the
    channels, never on phases.
    """

    label_vocabulary: tuple
    bands: tuple
    centroids: np.ndarray  # (n_classes, n_features)
    temperature: float = 1.0

    @classmethod
    def fit(cls, dataset, bands, temperature: float = 1.0) -> "BandPowerClassifier":
        vocab = dataset.label_vocabulary
        features = {label: [] for label in vocab}
        for ep in dataset.epochs:
            features[ep.label].append(band_power_features(ep, bands))
        rows = []
        for label in vocab:
            if not features[label]:
                raise InvalidInputError(f"no examples of class {label!r} to fit on")
            rows.append(np.mean(features[label], axis=0))
        return cls(tuple(vocab), tuple(bands), np.stack(rows), temperature)

    def predict(self, epoch: Epoch) -> np.ndarray:
        f = band_power_features(epoch, self.bands)
        d2 = ((self.centroids - f) ** 2).sum(axis=1)
        z = -d2 / self.temperature
        z -= z.max()
        e = np.exp(z)
        return e / e.sum()


def matched_filter_score(epoch: Epoch, waveform: np.ndarray, channels, combine="max") -> float:
    """Peak matched-filter response over the given channel roles.

    The response is normalized per channel by its root-mean-square
    correlation level, so the score measures how much one location
    stands out against the channel's own baseline. ``combine`` is "max"
    or "min" across channels; "min" rejects events that do not appear on
    every channel simultaneously and is the robust choice for bursts
    known to be channel-synchronous.
    """
    waveform = np.asarray(waveform, dtype=np.float64)
    scores = []
    for role, row in zip(epoch.channel_roles, epoch.samples):
        if role not in channels:
            continue
        r = np.correlate(row, waveform, mode="same")
        rms = np.sqrt(np.mean(r**2)) + 1e-30
        scores.append(float(np.max(np.abs(r)) / rms))
    if not scores:
        raise InvalidInputError(f"no channel matches roles {tuple(channels)!r}")
    return min(scores) if combine == "min" else max(scores)
