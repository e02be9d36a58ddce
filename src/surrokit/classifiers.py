"""Black-box classifier interface plus ready-made implementations.

Anything with a ``label_vocabulary`` and a ``predict_batch(dataset)``
returning an (n_epochs, K) array of probabilities over that vocabulary
can be evaluated or explained by the tools in :mod:`surrokit.evaluation`
and :mod:`surrokit.saliency`; nothing requires differentiability. One
epoch is classified as a one-epoch ``Dataset``.

``NetworkClassifier`` wraps trained network weights. The band-power
classifier is a simple analytic model that depends only on the amplitude
spectrum, and is therefore exactly invariant under full FT surrogate
replacement. ``matched_filter_score`` measures a localized waveform,
which surrogates destroy.
"""

from dataclasses import dataclass

import numpy as np

from .balance import Dataset, _check_one_epoch
from .errors import InvalidInputError
from .network import (
    ArchitectureDescriptor,
    _check_roles,
    channel_activations,
    forward_batch,
    spliced_forward,
    validate_weights,
)


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

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        """(n_epochs, K) probabilities of every epoch of a ``Dataset``."""
        _check_roles(self.descriptor, dataset.channel_roles)
        probs, _ = forward_batch(self.descriptor, self.weights, dataset.x, training=False)
        return probs

    def splice_predictor(self, epoch: Dataset):
        """A one-epoch dataset's probabilities and a predictor for spliced
        copies of its epoch.

        The predictor takes ``({channel index: (R, n_samples) rows}, lo,
        hi)``, rows that equal the epoch's channel outside samples [lo,
        hi), and returns (R, K) probabilities by exact incremental
        inference: the epoch's channel-pipe activations are computed once
        here, and each call recomputes only what the changed samples reach
        (``network.spliced_forward``).
        """
        _check_one_epoch(epoch)
        _check_roles(self.descriptor, epoch.channel_roles)
        activations = channel_activations(self.descriptor, self.weights, epoch.x)

        def predict_rows(rows, lo, hi):
            return spliced_forward(self.descriptor, self.weights, activations, rows, lo, hi)

        return predict_rows({}, 0, 0)[0], predict_rows


def band_power_features(samples: np.ndarray, sample_rate_hz, bands) -> np.ndarray:
    """Log relative band powers of an (n_channels, n_samples) array,
    concatenated over channels.

    Powers are normalized by each channel's total power before the log,
    so the features are invariant to overall amplitude scale.
    """
    features = []
    freqs = np.fft.rfftfreq(samples.shape[-1], d=1.0 / sample_rate_hz)
    for row in samples:
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
    def fit(cls, dataset: Dataset, bands, temperature: float = 1.0) -> "BandPowerClassifier":
        vocab = dataset.label_vocabulary
        features = [[] for _ in vocab]
        for samples, label in zip(dataset.x, dataset.labels):
            features[label].append(band_power_features(samples, dataset.sample_rate_hz, bands))
        for label, rows in zip(vocab, features):
            if not rows:
                raise InvalidInputError(f"no examples of class {label!r} to fit on")
        centroids = np.stack([np.mean(rows, axis=0) for rows in features])
        return cls(tuple(vocab), tuple(bands), centroids, temperature)

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        """(n_epochs, K) probabilities, each epoch's features made as in ``fit``."""
        probs = np.empty((len(dataset), len(self.label_vocabulary)))
        for i, samples in enumerate(dataset.x):
            f = band_power_features(samples, dataset.sample_rate_hz, self.bands)
            z = -((self.centroids - f) ** 2).sum(axis=1) / self.temperature
            z -= z.max()
            e = np.exp(z)
            probs[i] = e / e.sum()
        return probs


def matched_filter_score(
    samples: np.ndarray, channel_roles, waveform: np.ndarray, channels, combine="max"
) -> float:
    """Peak matched-filter response of an (n_channels, n_samples) array
    over the given channel roles.

    The response is normalized per channel by its root-mean-square
    correlation level, so the score measures how much one location
    stands out against the channel's own baseline. ``combine`` is "max"
    or "min" across channels; "min" rejects events that do not appear on
    every channel simultaneously and is the robust choice for bursts
    known to be channel-synchronous.
    """
    waveform = np.asarray(waveform, dtype=np.float64)
    scores = []
    for role, row in zip(channel_roles, samples):
        if role not in channels:
            continue
        r = np.correlate(row, waveform, mode="same")
        rms = np.sqrt(np.mean(r**2)) + 1e-30
        scores.append(float(np.max(np.abs(r)) / rms))
    if not scores:
        raise InvalidInputError(f"no channel matches roles {tuple(channels)!r}")
    return min(scores) if combine == "min" else max(scores)
