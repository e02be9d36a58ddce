"""Core signal types: one channel (``Signal``) and one labeled epoch (``Epoch``).

Both hold 64-bit float samples, finite and at least 2 per channel, at a
positive sample rate. File storage may quantize to 32-bit, see
:mod:`surrokit.dataio`. Both are immutable after construction: they keep a
read-only copy of the samples they are given, so they are safe to share
across concurrent tasks and never alias their caller's array.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_ROLES = ("EEG1", "EEG2", "EOG", "EMG")


def _check_samples(samples: np.ndarray, sample_rate_hz) -> None:
    """The checks every stored channel passes; the last axis is time."""
    if samples.ndim == 0 or samples.shape[-1] < 2:
        raise InvalidInputError(f"signal must have at least 2 samples, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise InvalidInputError("signal contains non-finite samples")
    if not sample_rate_hz > 0:
        raise InvalidInputError(f"sample rate must be positive, got {sample_rate_hz}")


def _readonly(array, dtype=np.float64) -> np.ndarray:
    out = np.array(array, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Signal:
    """One uniformly sampled real-valued channel.

    Attributes:
        samples: 1-D float64 array, length >= 2, all values finite.
        sample_rate_hz: positive sampling rate.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidInputError(f"signal must be 1-D, got shape {samples.shape}")
        _check_samples(samples, self.sample_rate_hz)
        object.__setattr__(self, "samples", _readonly(samples))
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class Epoch:
    """Fixed-duration multichannel example with a class label.

    ``samples`` is a read-only (n_channels, n_samples) float64 array; the
    channels share length and sample rate. The role tags (by convention
    EEG1, EEG2, EOG, EMG) identify each channel's slot.
    """

    samples: np.ndarray
    sample_rate_hz: float
    label: str
    channel_roles: tuple = DEFAULT_ROLES

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        roles = tuple(self.channel_roles)
        if samples.ndim != 2 or not samples.shape[0]:
            raise InvalidInputError(
                f"expected a 2-D channel-major array of >= 1 channel, got shape {samples.shape}"
            )
        if len(roles) != samples.shape[0]:
            raise InvalidInputError(f"{len(roles)} channel roles for {samples.shape[0]} channels")
        _check_samples(samples, self.sample_rate_hz)
        object.__setattr__(self, "samples", _readonly(samples))
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "channel_roles", roles)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz
