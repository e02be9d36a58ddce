"""The checks every stored channel passes, and the default channel roles.

Samples are 64-bit floats, finite and at least 2 per channel, at a
positive, finite sample rate. File storage may quantize to 32-bit, see
:mod:`surrokit.dataio`. A ``Dataset`` checks its whole array with
``_check_samples``, and the surrogate functions check a single channel
with it; one epoch is a one-epoch ``Dataset`` (``dataset.take([i])``).
"""

import numpy as np

from .errors import InvalidInputError

DEFAULT_ROLES = ("EEG1", "EEG2", "EOG", "EMG")


def _check_samples(samples: np.ndarray, sample_rate_hz) -> None:
    """The checks every stored channel passes; the last axis is time."""
    if samples.ndim == 0 or samples.shape[-1] < 2:
        raise InvalidInputError(f"signal must have at least 2 samples, got shape {samples.shape}")
    # min and max carry a NaN through and expose an infinity, and unlike
    # np.isfinite they allocate nothing the size of the samples
    if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        raise InvalidInputError("signal contains non-finite samples")
    if not 0 < sample_rate_hz < np.inf:
        raise InvalidInputError(f"sample rate must be positive and finite, got {sample_rate_hz}")
