"""Core signal types, DFT utilities, filtering and resampling.

Conventions used throughout the package:

* DFT normalization is un-normalized forward / 1/N inverse, matching
  ``numpy.fft.rfft`` and ``numpy.fft.irfft``.
* Spectra are one-sided: a real signal of length N owns N//2 + 1 bins.
  The Nyquist bin exists only for even N. The DC bin (and Nyquist bin,
  when present) of a real signal is real-valued; a negative real bin is
  represented as a non-negative amplitude with phase -pi.
* Phases live in [-pi, pi).
* All computation is in 64-bit floats. File storage may quantize to
  32-bit, see :mod:`surrokit.dataio`.

All values here are immutable after construction and safe to share
across concurrent tasks. ``scipy.signal`` is imported by the functions
that use it, not with the package: the import takes over a second.
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
class Spectrum:
    """One-sided amplitude/phase decomposition of a real signal.

    ``amplitudes`` and ``phases`` both have length ``length // 2 + 1``
    where ``length`` is the sample count of the originating signal.
    """

    amplitudes: np.ndarray
    phases: np.ndarray
    length: int
    sample_rate_hz: float

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        phases = np.asarray(self.phases, dtype=np.float64)
        n_bins = self.length // 2 + 1
        if amplitudes.shape != phases.shape or amplitudes.ndim != 1:
            raise InvalidInputError("amplitudes and phases must be 1-D arrays of equal length")
        if amplitudes.size != n_bins:
            raise InvalidInputError(
                f"expected {n_bins} bins for length {self.length}, got {amplitudes.size}"
            )
        if np.any(amplitudes < 0):
            raise InvalidInputError("amplitudes must be non-negative")
        if not np.all(np.isfinite(amplitudes)) or not np.all(np.isfinite(phases)):
            raise InvalidInputError("spectrum contains non-finite values")
        object.__setattr__(self, "amplitudes", _readonly(amplitudes))
        object.__setattr__(self, "phases", _readonly(phases))

    @property
    def n_bins(self) -> int:
        return self.amplitudes.size

    def energy(self) -> float:
        """Time-domain-equivalent energy, sum of squared samples.

        With the un-normalized forward transform this is
        (|X_0|^2 + 2 sum_mid |X_k|^2 + [N even] |X_nyq|^2) / N.
        """
        a2 = self.amplitudes**2
        total = a2[0]
        if self.length % 2 == 0:
            total += 2.0 * a2[1:-1].sum() + a2[-1]
        else:
            total += 2.0 * a2[1:].sum()
        return float(total / self.length)


@dataclass(frozen=True)
class Epoch:
    """Fixed-duration multichannel example with a class label.

    Channels are ordered and share length and sample rate. The role tags
    (by convention EEG1, EEG2, EOG, EMG) identify each channel's slot.
    """

    channels: tuple
    label: str
    channel_roles: tuple = DEFAULT_ROLES

    def __post_init__(self):
        channels = tuple(self.channels)
        roles = tuple(self.channel_roles)
        if not channels:
            raise InvalidInputError("epoch needs at least one channel")
        if len(roles) != len(channels):
            raise InvalidInputError(
                f"{len(roles)} channel roles for {len(channels)} channels"
            )
        n = len(channels[0])
        rate = channels[0].sample_rate_hz
        for ch in channels[1:]:
            if len(ch) != n or ch.sample_rate_hz != rate:
                raise InvalidInputError("all channels must share length and sample rate")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "channel_roles", roles)

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    @property
    def sample_rate_hz(self) -> float:
        return self.channels[0].sample_rate_hz

    @property
    def duration_s(self) -> float:
        return self.channels[0].duration_s

    def to_array(self) -> np.ndarray:
        """Channel-major (n_channels, n_samples) float64 array."""
        return np.stack([ch.samples for ch in self.channels])


def epoch_from_array(
    data: np.ndarray,
    sample_rate_hz: float,
    label: str,
    channel_roles=DEFAULT_ROLES,
) -> Epoch:
    """Build an Epoch from a (n_channels, n_samples) array."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise InvalidInputError(f"expected 2-D channel-major array, got shape {data.shape}")
    channels = tuple(Signal(row, sample_rate_hz) for row in data)
    return Epoch(channels, label, tuple(channel_roles))


def forward_dft(signal: Signal) -> Spectrum:
    """Decompose a signal into one-sided Fourier amplitudes and phases."""
    bins = np.fft.rfft(signal.samples)
    amplitudes = np.abs(bins)
    phases = np.angle(bins)
    # np.angle returns (-pi, pi]; fold +pi onto -pi so phases live in [-pi, pi)
    phases = np.where(phases >= np.pi, phases - 2.0 * np.pi, phases)
    return Spectrum(amplitudes, phases, signal.samples.size, signal.sample_rate_hz)


def inverse_dft(spectrum: Spectrum) -> Signal:
    """Reconstruct the real signal of a one-sided spectrum.

    Hermitian symmetry is enforced on reconstruction: the DC bin (and
    Nyquist bin for even lengths) is projected onto the real axis before
    inversion, so the output is structurally real.
    """
    bins = spectrum.amplitudes * np.exp(1j * spectrum.phases)
    bins[0] = bins[0].real
    if spectrum.length % 2 == 0:
        bins[-1] = bins[-1].real
    samples = np.fft.irfft(bins, n=spectrum.length)
    return Signal(samples, spectrum.sample_rate_hz)


def butterworth_lowpass(
    signal: Signal, cutoff_hz: float, order: int = 4, zero_phase: bool = False
) -> Signal:
    """Butterworth low-pass filter as cascaded second-order sections.

    The default is forward-only (causal) filtering; pass
    ``zero_phase=True`` for forward-backward filtering, which squares the
    magnitude response and removes the group delay.

    Args:
        signal: input signal.
        cutoff_hz: -3 dB corner frequency, 0 < cutoff < Nyquist.
        order: filter order, >= 1.
        zero_phase: apply the filter forward and backward.
    """
    nyquist = signal.sample_rate_hz / 2.0
    if not 0.0 < cutoff_hz < nyquist:
        raise InvalidInputError(
            f"cutoff {cutoff_hz} Hz must lie strictly between 0 and Nyquist ({nyquist} Hz)"
        )
    if order < 1:
        raise InvalidInputError(f"filter order must be >= 1, got {order}")
    from scipy import signal as sps

    sos = sps.butter(order, cutoff_hz, btype="low", fs=signal.sample_rate_hz, output="sos")
    if zero_phase:
        filtered = sps.sosfiltfilt(sos, signal.samples)
    else:
        filtered = sps.sosfilt(sos, signal.samples)
    return Signal(filtered, signal.sample_rate_hz)


def resample(signal: Signal, target_rate_hz: float) -> Signal:
    """Fourier-domain rate conversion to ``target_rate_hz``.

    The output length is round(n * target / original), which keeps the
    exact length arithmetic of downstream consumers (e.g. 7680 samples at
    256 Hz become exactly 960 at 32 Hz). The caller is responsible for
    anti-alias filtering before down-sampling.
    """
    if not target_rate_hz > 0:
        raise InvalidInputError(f"target rate must be positive, got {target_rate_hz}")
    n = signal.samples.size
    new_n = int(round(n * target_rate_hz / signal.sample_rate_hz))
    if new_n == n and target_rate_hz == signal.sample_rate_hz:
        return Signal(signal.samples, target_rate_hz)
    if new_n < 2:
        raise InvalidInputError(
            f"resampling to {target_rate_hz} Hz would leave {new_n} samples"
        )
    from scipy import signal as sps

    resampled = sps.resample(signal.samples, new_n)
    return Signal(resampled, target_rate_hz)
