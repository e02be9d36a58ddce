"""Core signal type: one labeled epoch (``Epoch``).

An epoch holds 64-bit float samples, finite and at least 2 per channel,
at a positive sample rate. File storage may quantize to 32-bit, see
:mod:`surrokit.dataio`. It is immutable after construction: it keeps a
read-only copy of the samples it is given, so it is safe to share across
concurrent tasks and never aliases its caller's array. The surrogate
functions check a single channel with the same rules (``_check_samples``).
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
        samples = np.array(samples)  # a copy, so the epoch never aliases its source
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "channel_roles", roles)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz
