import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    iaaft_per_channel,
    idft_oracle,
    one_sided_amplitudes,
    phase_randomize_per_channel,
)
from surrokit.errors import InvalidInputError
from surrokit.seeding import spawn_rng
from surrokit.signals import Signal, epoch_from_array
from surrokit.surrogates import (
    IaaftReport,
    PartialSurrogateSpec,
    SurrogateConfig,
    _iaaft_core,
    crossfade_weights,
    epoch_surrogate,
    epoch_surrogate_with_reports,
    ft_surrogate,
    iaaft_surrogate,
    partial_ft_surrogate,
)


class TestFtSurrogate:
    def test_constant_signal_unchanged(self):
        sig = Signal(np.full(64, 3.5), 32.0)
        out = ft_surrogate(sig, seed=7)
        np.testing.assert_allclose(out.samples, 3.5, atol=1e-12)

    def test_single_bin_cosine_keeps_amplitude(self):
        n, k, amp = 128, 9, 2.5
        t = np.arange(n)
        sig = Signal(amp * np.cos(2 * np.pi * k * t / n), 32.0)
        out = ft_surrogate(sig, seed=3)
        amps = np.abs(np.fft.rfft(out.samples))
        assert amps[k] == pytest.approx(amp * n / 2, rel=1e-12)
        assert np.all(np.delete(amps, k) < 1e-9 * n)
        # still a pure cosine at bin k, just at a different phase
        assert np.std(np.abs(np.fft.rfft(out.samples)) - np.abs(np.fft.rfft(sig.samples))) < 1e-9

    def test_periodogram_preserved_bin_for_bin(self, ar2_signal):
        out = ft_surrogate(ar2_signal, seed=11)
        original = one_sided_amplitudes(ar2_signal.samples)
        surrogate = one_sided_amplitudes(out.samples)
        scale = original.max()
        np.testing.assert_allclose(surrogate, original, rtol=0, atol=1e-9 * scale)

    def test_correlation_with_original_is_chance_level(self, ar2_signal):
        x = ar2_signal.samples - ar2_signal.samples.mean()
        corrs = []
        for seed in range(100):
            y = ft_surrogate(ar2_signal, seed=seed).samples
            y = y - y.mean()
            corrs.append(float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y))))
        corrs = np.array(corrs)
        # no systematic alignment: mean correlation within 3 standard errors of zero
        assert abs(corrs.mean()) < 3 * corrs.std(ddof=1) / np.sqrt(len(corrs))

    def test_mean_preserved(self, rng):
        x = rng.standard_normal(301) + 12.0
        sig = Signal(x, 32.0)
        out = ft_surrogate(sig, seed=5)
        assert out.samples.mean() == pytest.approx(x.mean(), abs=1e-9 * np.abs(x).max())

    def test_realness_against_two_sided_oracle(self, rng):
        # rebuild the randomized full spectrum with the same phase draws and
        # invert it with the O(N^2) oracle: no imaginary residue may appear
        for n in (32, 33):
            x = rng.standard_normal(n) * 4
            seed = 17 + n
            out = ft_surrogate(Signal(x, 32.0), seed=seed)
            bins = np.fft.rfft(x)
            theta = spawn_rng(seed).uniform(0.0, 2.0 * np.pi, bins.size)
            randomized = np.abs(bins) * np.exp(1j * theta)
            randomized[0] = bins[0]
            if n % 2 == 0:
                randomized[-1] = bins[-1]
            if n % 2 == 0:
                full = np.concatenate([randomized, np.conj(randomized[-2:0:-1])])
            else:
                full = np.concatenate([randomized, np.conj(randomized[:0:-1])])
            inverted = idft_oracle(full)
            assert np.max(np.abs(inverted.imag)) < 1e-9
            np.testing.assert_allclose(out.samples, inverted.real, atol=1e-9)

    def test_deterministic(self, ar2_signal):
        a = ft_surrogate(ar2_signal, seed=99)
        b = ft_surrogate(ar2_signal, seed=99)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = ft_surrogate(ar2_signal, seed=100)
        assert not np.array_equal(a.samples, c.samples)


class TestIaaft:
    def test_constant_converges_in_one_iteration(self):
        sig = Signal(np.full(32, -2.0), 8.0)
        out, report = iaaft_surrogate(sig, SurrogateConfig(kind="iaaft", seed=1))
        np.testing.assert_allclose(out.samples, -2.0, atol=1e-12)
        assert report.iterations == 1
        assert report.converged

    def test_exact_value_multiset(self, ar2_signal):
        out, _ = iaaft_surrogate(ar2_signal, SurrogateConfig(kind="iaaft", seed=2))
        np.testing.assert_array_equal(np.sort(out.samples), np.sort(ar2_signal.samples))

    def test_final_discrepancy_below_frozen_threshold(self, ar2_signal):
        out, report = iaaft_surrogate(
            ar2_signal, SurrogateConfig(kind="iaaft", seed=3, iaaft_tolerance=1e-8)
        )
        assert report.final_discrepancy < 5e-2
        # the reported number must agree with an independent recomputation
        target = one_sided_amplitudes(ar2_signal.samples)
        achieved = one_sided_amplitudes(out.samples)
        recomputed = np.linalg.norm(achieved - target) / np.linalg.norm(target)
        assert report.final_discrepancy == pytest.approx(recomputed, rel=1e-6)

    def test_discrepancies_non_increasing(self, rng):
        for trial in range(10):
            x = rng.standard_normal(240) * 3
            _, report = iaaft_surrogate(
                Signal(x, 32.0), SurrogateConfig(kind="iaaft", seed=trial)
            )
            diffs = np.diff(report.discrepancies)
            assert np.all(diffs <= 0)

    def test_non_convergence_is_not_an_error(self, ar2_signal):
        out, report = iaaft_surrogate(
            ar2_signal, SurrogateConfig(kind="iaaft", seed=4, iaaft_max_iters=2, iaaft_tolerance=0.0)
        )
        assert isinstance(report, IaaftReport)
        assert report.iterations <= 2
        assert np.isfinite(report.final_discrepancy)

    def test_wrong_kind_rejected(self, ar2_signal):
        with pytest.raises(InvalidInputError):
            iaaft_surrogate(ar2_signal, SurrogateConfig(kind="ft"))

    def test_deterministic(self, ar2_signal):
        cfg = SurrogateConfig(kind="iaaft", seed=12)
        a, ra = iaaft_surrogate(ar2_signal, cfg)
        b, rb = iaaft_surrogate(ar2_signal, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert ra == rb


def assert_block_matches_oracle(block, seed, max_iters, tolerance):
    """The block core equals the per-channel reference row by row, bit for bit."""
    out, reports = _iaaft_core(
        block, [spawn_rng(seed, r) for r in range(len(block))], max_iters, tolerance
    )
    assert out.shape == block.shape and len(reports) == len(block)
    for r, row in enumerate(block):
        expected, report = iaaft_per_channel(row.copy(), spawn_rng(seed, r), max_iters, tolerance)
        assert out[r].tobytes() == expected.tobytes()
        assert reports[r] == report
    return reports


class TestIaaftBlock:
    def test_constant_row_is_exact(self, rng):
        block = rng.standard_normal((3, 64))
        block[1] = -2.5
        reports = assert_block_matches_oracle(block, 1, 100, 1e-8)
        assert reports[1].reason == "exact" and reports[1].iterations == 1

    def test_heavy_ties(self, rng):
        block = np.round(rng.standard_normal((5, 120)))  # a handful of distinct values
        assert_block_matches_oracle(block, 2, 100, 1e-8)

    def test_odd_length(self, rng):
        assert_block_matches_oracle(rng.standard_normal((4, 97)) * 3, 3, 100, 1e-8)

    def test_single_iteration(self, rng):
        reports = assert_block_matches_oracle(rng.standard_normal((4, 64)), 4, 1, 1e-8)
        assert {r.reason for r in reports} == {"max_iters"}

    def test_zero_tolerance(self, rng):
        assert_block_matches_oracle(rng.standard_normal((4, 64)), 5, 100, 0.0)

    def test_rows_stop_for_different_reasons(self):
        block = np.random.default_rng(0).standard_normal((8, 64))
        block[0] = 2.0
        reports = assert_block_matches_oracle(block, 0, 10, 1e-3)
        assert {r.reason for r in reports} == {"exact", "tolerance", "stalled", "max_iters"}

    def test_public_paths_match_per_channel_reference(self, rng, ar2_signal):
        out, report = iaaft_surrogate(ar2_signal, SurrogateConfig(kind="iaaft", seed=8))
        expected, expected_report = iaaft_per_channel(
            ar2_signal.samples, spawn_rng(8), 100, 1e-8
        )
        assert out.samples.tobytes() == expected.tobytes() and report == expected_report
        ft = ft_surrogate(ar2_signal, seed=8)
        assert ft.samples.tobytes() == phase_randomize_per_channel(
            ar2_signal.samples, spawn_rng(8)
        ).tobytes()

        epoch = epoch_from_array(rng.standard_normal((4, 90)), 32.0, "S2")
        for kind, shared in (("iaaft", False), ("iaaft", True), ("ft", False)):
            config = SurrogateConfig(kind=kind, share_channel_phases=shared)
            surrogate, reports = epoch_surrogate_with_reports(epoch, config, seed=9)
            for i, (before, after) in enumerate(zip(epoch.channels, surrogate.channels)):
                stream = spawn_rng(9) if shared else spawn_rng(9, i)
                if kind == "ft":
                    expected = phase_randomize_per_channel(before.samples, stream)
                    assert reports[i] is None
                else:
                    expected, expected_report = iaaft_per_channel(
                        before.samples, stream, 100, 1e-8
                    )
                    assert reports[i] == expected_report
                assert after.samples.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.integers(2, 160),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        quantise=st.booleans(),
    )
    def test_values_kept_and_discrepancies_strictly_decrease(self, length, rows, seed, quantise):
        block = np.random.default_rng(seed).standard_normal((rows, length)) * 4
        if quantise:
            block = np.round(block)
        out, reports = _iaaft_core(
            block, [spawn_rng(seed, r) for r in range(rows)], 30, 1e-8
        )
        # bit patterns, with -0.0 folded onto 0.0: numpy's SIMD sort, which
        # the reference used too, does not keep the signs of zeros apart
        bits = lambda a: np.sort((a + 0.0).view(np.uint64), axis=1)
        np.testing.assert_array_equal(bits(out), bits(block))
        for report in reports:
            assert report.iterations == len(report.discrepancies) >= 1
            assert np.all(np.diff(report.discrepancies) < 0)


class TestPartialSurrogate:
    def test_zero_window_zero_crossfade_is_identity(self, ar2_signal):
        spec = PartialSurrogateSpec(window_start_s=10.0, window_len_s=0.0, crossfade_s=0.0)
        out = partial_ft_surrogate(ar2_signal, spec, seed=1)
        np.testing.assert_array_equal(out.samples, ar2_signal.samples)

    def test_outside_window_bit_identical(self, ar2_signal):
        rate = ar2_signal.sample_rate_hz
        spec = PartialSurrogateSpec(window_start_s=13.0, window_len_s=4.0, crossfade_s=0.5)
        out = partial_ft_surrogate(ar2_signal, spec, seed=5)
        lo = int(round((13.0 - 0.5) * rate))
        hi = int(round((13.0 + 4.0 + 0.5) * rate))
        np.testing.assert_array_equal(out.samples[:lo], ar2_signal.samples[:lo])
        np.testing.assert_array_equal(out.samples[hi:], ar2_signal.samples[hi:])
        assert not np.array_equal(out.samples[lo:hi], ar2_signal.samples[lo:hi])

    def test_replaced_window_carries_remainder_peak(self):
        # alpha-dominated signal: the patch must inherit the 10 Hz peak
        rate, n = 32.0, 960
        t = np.arange(n) / rate
        rng = np.random.default_rng(8)
        x = 10 * np.sin(2 * np.pi * 10.0 * t) + rng.standard_normal(n)
        sig = Signal(x, rate)
        spec = PartialSurrogateSpec(window_start_s=13.0, window_len_s=4.0, crossfade_s=0.5)
        out = partial_ft_surrogate(sig, spec, seed=21)
        core = out.samples[int(13.0 * rate) : int(17.0 * rate)]
        amps = np.abs(np.fft.rfft(core))
        freqs = np.fft.rfftfreq(core.size, d=1 / rate)
        remainder = np.concatenate([x[: int(13.0 * rate)], x[int(17.0 * rate) :]])
        ramps = np.abs(np.fft.rfft(remainder))
        rfreqs = np.fft.rfftfreq(remainder.size, d=1 / rate)
        assert freqs[np.argmax(amps[1:]) + 1] == pytest.approx(
            rfreqs[np.argmax(ramps[1:]) + 1], abs=0.5
        )

    def test_crossfade_weights_complementary(self):
        for wlen, left, right in ((10, 4, 4), (0, 5, 5), (3, 7, 2), (16, 0, 6)):
            w_surr = crossfade_weights(wlen, left, right)
            w_orig = 1.0 - w_surr
            np.testing.assert_allclose(w_orig + w_surr, 1.0, rtol=0, atol=1e-15)
            assert np.all(w_surr[left : left + wlen] == 1.0)

    def test_window_out_of_bounds_rejected(self, ar2_signal):
        with pytest.raises(InvalidInputError):
            partial_ft_surrogate(
                ar2_signal, PartialSurrogateSpec(0.0, 4.0, crossfade_s=0.5), seed=1
            )
        with pytest.raises(InvalidInputError):
            partial_ft_surrogate(
                ar2_signal, PartialSurrogateSpec(28.0, 4.0, crossfade_s=0.5), seed=1
            )

    def test_deterministic(self, ar2_signal):
        spec = PartialSurrogateSpec(window_start_s=10.0, window_len_s=5.0)
        a = partial_ft_surrogate(ar2_signal, spec, seed=33)
        b = partial_ft_surrogate(ar2_signal, spec, seed=33)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestEpochSurrogate:
    def test_constant_epoch_unchanged(self):
        data = np.tile(np.array([[1.0], [2.0], [3.0], [4.0]]), (1, 64))
        epoch = epoch_from_array(data, 32.0, "Wake")
        out = epoch_surrogate(epoch, SurrogateConfig(kind="ft"), seed=1)
        np.testing.assert_allclose(out.to_array(), data, atol=1e-12)
        assert out.label == "Wake"

    def test_per_channel_amplitude_preservation(self, rng):
        data = rng.standard_normal((4, 240)) * 7
        epoch = epoch_from_array(data, 32.0, "S2")
        out = epoch_surrogate(epoch, SurrogateConfig(kind="ft"), seed=9)
        for before, after in zip(epoch.channels, out.channels):
            a = one_sided_amplitudes(before.samples)
            b = one_sided_amplitudes(after.samples)
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-9 * a.max())

    def test_channels_randomized_independently(self, rng):
        row = rng.standard_normal(128)
        epoch = epoch_from_array(np.tile(row, (4, 1)), 32.0, "Wake")
        out = epoch_surrogate(epoch, SurrogateConfig(kind="ft"), seed=2)
        assert not np.array_equal(out.channels[0].samples, out.channels[1].samples)

    def test_shared_phase_flag(self, rng):
        row = rng.standard_normal(128)
        epoch = epoch_from_array(np.tile(row, (4, 1)), 32.0, "Wake")
        out = epoch_surrogate(
            epoch, SurrogateConfig(kind="ft", share_channel_phases=True), seed=2
        )
        np.testing.assert_array_equal(out.channels[0].samples, out.channels[1].samples)

    def test_same_seed_identical(self, rng):
        data = rng.standard_normal((4, 96))
        epoch = epoch_from_array(data, 32.0, "REM")
        a = epoch_surrogate(epoch, SurrogateConfig(kind="ft"), seed=4)
        b = epoch_surrogate(epoch, SurrogateConfig(kind="ft"), seed=4)
        np.testing.assert_array_equal(a.to_array(), b.to_array())

    def test_iaaft_kind(self, rng):
        data = rng.standard_normal((4, 96))
        epoch = epoch_from_array(data, 32.0, "S3")
        out = epoch_surrogate(epoch, SurrogateConfig(kind="iaaft"), seed=6)
        for before, after in zip(epoch.channels, out.channels):
            np.testing.assert_array_equal(np.sort(after.samples), np.sort(before.samples))
