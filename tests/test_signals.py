import numpy as np
import pytest

from surrokit.balance import Dataset
from surrokit.errors import InvalidInputError
from surrokit.signals import DEFAULT_ROLES
from surrokit.surrogates import (
    SurrogateConfig,
    ft_surrogate,
    iaaft_surrogate,
    partial_ft_surrogate,
)


SURROGATES = {
    "ft": lambda x, rate: ft_surrogate(x, seed=1),
    "iaaft": lambda x, rate: iaaft_surrogate(x, SurrogateConfig(kind="iaaft"), seed=1)[0],
    "partial": lambda x, rate: partial_ft_surrogate(x, rate, 0.5, 0.5, seed=1, crossfade_s=0.25),
}


class TestSurrogateInputs:
    """The single-channel surrogates check a 1-D array as a stored channel
    is checked, and never write to or return a view of it."""

    @pytest.mark.parametrize("kind", SURROGATES)
    @pytest.mark.parametrize(
        "samples", [[1.0, np.nan, 2.0], [1.0], np.zeros((2, 64))], ids=["nan", "short", "2d"]
    )
    def test_rejects_bad_samples(self, kind, samples):
        with pytest.raises(InvalidInputError):
            SURROGATES[kind](samples, 32.0)

    def test_rejects_zero_rate(self):
        with pytest.raises(InvalidInputError):
            SURROGATES["partial"](np.zeros(64), 0.0)

    @pytest.mark.parametrize("kind", SURROGATES)
    def test_does_not_alias_its_input(self, kind, rng):
        x = rng.standard_normal(64)
        before = x.copy()
        out = SURROGATES[kind](x, 32.0)
        np.testing.assert_array_equal(x, before)
        assert out.shape == x.shape and not np.shares_memory(out, x)


class TestEpochValidation:
    """One epoch is a one-epoch ``Dataset``; its array passes the checks
    every stored epoch passes."""

    @staticmethod
    def one_epoch(samples, sample_rate_hz=32.0, channel_roles=DEFAULT_ROLES):
        return Dataset(np.asarray(samples)[None], [0], ("r0",), sample_rate_hz, ("Wake",),
                       channel_roles)

    @pytest.mark.parametrize("shape", [(8,), (1, 4, 8), (0, 8)])
    def test_rejects_non_channel_major_shapes(self, shape):
        with pytest.raises(InvalidInputError):
            self.one_epoch(np.zeros(shape), 32.0, DEFAULT_ROLES[: shape[0]])

    def test_rejects_role_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            self.one_epoch(np.zeros((3, 8)))

    def test_rejects_nan(self):
        data = np.zeros((4, 8))
        data[2, 5] = np.nan
        with pytest.raises(InvalidInputError):
            self.one_epoch(data)

    def test_rejects_zero_rate(self):
        with pytest.raises(InvalidInputError):
            self.one_epoch(np.zeros((4, 8)), 0.0)

    def test_rejects_short(self):
        with pytest.raises(InvalidInputError):
            self.one_epoch(np.zeros((4, 1)))

    def test_samples_are_immutable(self):
        epoch = self.one_epoch(np.zeros((4, 8)))
        with pytest.raises(ValueError):
            epoch.x[0, 1, 3] = 9.0

    def test_shape_and_timing(self):
        epoch = self.one_epoch(np.zeros((4, 960)), 32, list(DEFAULT_ROLES))
        assert epoch.x.dtype == np.float64 and epoch.x.shape == (1, 4, 960)
        assert epoch.n_samples == 960 and epoch.n_samples / epoch.sample_rate_hz == 30.0
        assert epoch.sample_rate_hz == 32.0 and epoch.channel_roles == DEFAULT_ROLES
