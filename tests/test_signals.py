import numpy as np
import pytest

from surrokit.errors import InvalidInputError
from surrokit.signals import DEFAULT_ROLES, Epoch, Signal


class TestSignalValidation:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Signal([1.0, np.nan, 2.0], 32.0)

    def test_rejects_short(self):
        with pytest.raises(InvalidInputError):
            Signal([1.0], 32.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidInputError):
            Signal([1.0, 2.0], 0.0)

    def test_samples_are_immutable(self):
        sig = Signal([1.0, 2.0, 3.0], 32.0)
        with pytest.raises(ValueError):
            sig.samples[0] = 9.0


class TestEpochValidation:
    @pytest.mark.parametrize("shape", [(8,), (1, 4, 8), (0, 8)])
    def test_rejects_non_channel_major_shapes(self, shape):
        with pytest.raises(InvalidInputError):
            Epoch(np.zeros(shape), 32.0, "Wake", DEFAULT_ROLES[: shape[0]])

    def test_rejects_role_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            Epoch(np.zeros((3, 8)), 32.0, "Wake")

    def test_rejects_nan(self):
        data = np.zeros((4, 8))
        data[2, 5] = np.nan
        with pytest.raises(InvalidInputError):
            Epoch(data, 32.0, "Wake")

    def test_rejects_zero_rate(self):
        with pytest.raises(InvalidInputError):
            Epoch(np.zeros((4, 8)), 0.0, "Wake")

    def test_rejects_short(self):
        with pytest.raises(InvalidInputError):
            Epoch(np.zeros((4, 1)), 32.0, "Wake")

    def test_samples_are_immutable(self):
        epoch = Epoch(np.zeros((4, 8)), 32.0, "Wake")
        with pytest.raises(ValueError):
            epoch.samples[1, 3] = 9.0

    def test_does_not_alias_its_source(self, rng):
        data = rng.standard_normal((4, 8))
        before = data.copy()
        epoch = Epoch(data, 32.0, "Wake")
        data[:] = 0.0
        np.testing.assert_array_equal(epoch.samples, before)

    def test_shape_and_timing(self):
        epoch = Epoch(np.zeros((4, 960)), 32, "S2", list(DEFAULT_ROLES))
        assert epoch.samples.dtype == np.float64 and epoch.samples.shape == (4, 960)
        assert epoch.n_samples == 960 and epoch.duration_s == 30.0
        assert epoch.sample_rate_hz == 32.0 and epoch.channel_roles == DEFAULT_ROLES
