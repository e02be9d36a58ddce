import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    iaaft_per_channel,
    idft_oracle,
    one_sided_amplitudes,
    phase_randomize_per_channel,
    splice_surrogate_per_row,
)
from surrokit import parallel, surrogates
from surrokit.errors import InvalidInputError
from surrokit.saliency import SALIENCY_CHUNK
from surrokit.seeding import spawn_rng
from surrokit.synthetic import bundled_spec, generate_synthetic
from surrokit.surrogates import (
    IAAFT_STOP_REASONS,
    SURROGATE_CHUNK,
    IaaftReport,
    SurrogateConfig,
    _iaaft_core,
    _rank_rows,
    _splice_surrogate,
    _surrogate_rows,
    crossfade_weights,
    epoch_surrogate_with_reports,
    ft_surrogate,
    iaaft_surrogate,
    partial_ft_surrogate,
)


class TestFtSurrogate:
    def test_constant_signal_unchanged(self):
        out = ft_surrogate(np.full(64, 3.5), seed=7)
        np.testing.assert_allclose(out, 3.5, atol=1e-12)

    def test_single_bin_cosine_keeps_amplitude(self):
        n, k, amp = 128, 9, 2.5
        t = np.arange(n)
        sig = amp * np.cos(2 * np.pi * k * t / n)
        out = ft_surrogate(sig, seed=3)
        amps = np.abs(np.fft.rfft(out))
        assert amps[k] == pytest.approx(amp * n / 2, rel=1e-12)
        assert np.all(np.delete(amps, k) < 1e-9 * n)
        # still a pure cosine at bin k, just at a different phase
        assert np.std(np.abs(np.fft.rfft(out)) - np.abs(np.fft.rfft(sig))) < 1e-9

    def test_periodogram_preserved_bin_for_bin(self, ar2_signal):
        out = ft_surrogate(ar2_signal, seed=11)
        original = one_sided_amplitudes(ar2_signal)
        surrogate = one_sided_amplitudes(out)
        scale = original.max()
        np.testing.assert_allclose(surrogate, original, rtol=0, atol=1e-9 * scale)

    def test_correlation_with_original_is_chance_level(self, ar2_signal):
        x = ar2_signal - ar2_signal.mean()
        corrs = []
        for seed in range(100):
            y = ft_surrogate(ar2_signal, seed=seed)
            y = y - y.mean()
            corrs.append(float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y))))
        corrs = np.array(corrs)
        # no systematic alignment: mean correlation within 3 standard errors of zero
        assert abs(corrs.mean()) < 3 * corrs.std(ddof=1) / np.sqrt(len(corrs))

    def test_mean_preserved(self, rng):
        x = rng.standard_normal(301) + 12.0
        out = ft_surrogate(x, seed=5)
        assert out.mean() == pytest.approx(x.mean(), abs=1e-9 * np.abs(x).max())

    def test_realness_against_two_sided_oracle(self, rng):
        # rebuild the randomized full spectrum with the same phase draws and
        # invert it with the O(N^2) oracle: no imaginary residue may appear
        for n in (32, 33):
            x = rng.standard_normal(n) * 4
            seed = 17 + n
            out = ft_surrogate(x, seed=seed)
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
            np.testing.assert_allclose(out, inverted.real, atol=1e-9)

    def test_deterministic(self, ar2_signal):
        a = ft_surrogate(ar2_signal, seed=99)
        b = ft_surrogate(ar2_signal, seed=99)
        np.testing.assert_array_equal(a, b)
        c = ft_surrogate(ar2_signal, seed=100)
        assert not np.array_equal(a, c)


class TestIaaft:
    def test_constant_converges_in_one_iteration(self):
        out, report = iaaft_surrogate(np.full(32, -2.0), SurrogateConfig(kind="iaaft"), seed=1)
        np.testing.assert_allclose(out, -2.0, atol=1e-12)
        assert report.iterations == 1
        assert report.converged

    def test_exact_value_multiset(self, ar2_signal):
        out, _ = iaaft_surrogate(ar2_signal, SurrogateConfig(kind="iaaft"), seed=2)
        np.testing.assert_array_equal(np.sort(out), np.sort(ar2_signal))

    def test_final_discrepancy_below_frozen_threshold(self, ar2_signal):
        out, report = iaaft_surrogate(
            ar2_signal, SurrogateConfig(kind="iaaft", iaaft_tolerance=1e-8), seed=3
        )
        assert report.final_discrepancy < 5e-2
        # the reported number must agree with an independent recomputation
        target = one_sided_amplitudes(ar2_signal)
        achieved = one_sided_amplitudes(out)
        recomputed = np.linalg.norm(achieved - target) / np.linalg.norm(target)
        assert report.final_discrepancy == pytest.approx(recomputed, rel=1e-6)

    def test_discrepancies_non_increasing(self, rng):
        for trial in range(10):
            x = rng.standard_normal(240) * 3
            _, report = iaaft_surrogate(x, SurrogateConfig(kind="iaaft"), seed=trial)
            diffs = np.diff(report.discrepancies)
            assert np.all(diffs <= 0)

    def test_non_convergence_is_not_an_error(self, ar2_signal):
        config = SurrogateConfig(kind="iaaft", iaaft_max_iters=2, iaaft_tolerance=0.0)
        out, report = iaaft_surrogate(ar2_signal, config, seed=4)
        assert isinstance(report, IaaftReport)
        assert report.iterations <= 2
        assert np.isfinite(report.final_discrepancy)

    def test_wrong_kind_rejected(self, ar2_signal):
        with pytest.raises(InvalidInputError):
            iaaft_surrogate(ar2_signal, SurrogateConfig(kind="ft"), seed=0)

    def test_deterministic(self, ar2_signal):
        cfg = SurrogateConfig(kind="iaaft")
        a, ra = iaaft_surrogate(ar2_signal, cfg, seed=12)
        b, rb = iaaft_surrogate(ar2_signal, cfg, seed=12)
        np.testing.assert_array_equal(a, b)
        assert ra == rb


def surrogate_rows(block, rngs, config):
    """``_surrogate_rows`` on a copy of every row of ``block``: the
    surrogates and the reports."""
    out = block.copy()
    return out, _surrogate_rows(out, (np.arange(len(out)),), rngs, config)


def assert_block_matches_oracle(block, seed, max_iters, tolerance):
    """The block core equals the per-channel reference row by row, bit for
    bit; returns the core's surrogates and reports."""
    out, reports = _iaaft_core(
        block, [spawn_rng(seed, r) for r in range(len(block))], max_iters, tolerance
    )
    assert out.shape == block.shape and len(reports) == len(block)
    for r, row in enumerate(block):
        expected, report = iaaft_per_channel(row.copy(), spawn_rng(seed, r), max_iters, tolerance)
        assert out[r].tobytes() == expected.tobytes()
        assert reports[r] == report
    return out, reports


def argsort_calls(monkeypatch, run):
    """``run()`` and the number of ``np.argsort`` calls it made, on any
    thread or forked worker: the rows that ``_rank_rows`` could not rank
    from packed keys. The count lives in memory shared through the fork."""
    calls = multiprocessing.Value("q", 0)
    real = np.argsort

    def counting(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "argsort", counting)
        result = run()
    return result, calls.value


class TestRankRows:
    """One sort of packed keys ranks each row as ``np.argsort`` does; its
    peaks and gaps are those of the sorted values, off by less than
    2**(b - 52) and 2**(b - 51) of the peak (or of the smallest normal
    float), b index bits."""

    @staticmethod
    def make_block(values, rows, length, rng):
        shape = (rows, length)
        if values == "ties":
            block = rng.choice(np.array([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0]), size=shape)
            block[:, :2] = [0.0, -0.0]  # every row holds both zeros
        elif values == "subnormal":
            # multiples of the smallest subnormal, zeros and exact ties among them
            block = rng.integers(-3000, 3000, size=shape) * np.float64(5e-324)
        elif values == "wide":
            block = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 300, shape)
        else:
            block = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, (rows, 1))
            if values == "zeros":
                # distinct values but for the two zeros, which tie in np.argsort
                block[:, :2] = [0.0, -0.0]
            elif values == "ulp":
                # two values one ulp apart, their index bits clear: the
                # truncated values are equal and the row must fall back
                for row in block:
                    i, j = rng.choice(length, size=2, replace=False)
                    bits = row[i : i + 1].view(np.int64) & ~0xFFF
                    row[i] = bits.view(np.float64)[0]
                    row[j] = np.nextafter(row[i], np.copysign(np.inf, row[i]))
        return block

    @settings(max_examples=150, deadline=None)
    @given(
        length=st.sampled_from([2, 3, 17, 960, 1023, 1024, 1025, 2049]),
        rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        values=st.sampled_from(["normal", "wide", "ties", "zeros", "subnormal", "ulp"]),
    )
    def test_ranks_as_argsort(self, length, rows, seed, values):
        block = self.make_block(values, rows, length, np.random.default_rng(seed))
        before = block.copy()
        order, peaks, gaps = _rank_rows(block)
        assert block.tobytes() == before.tobytes()
        np.testing.assert_array_equal(order, np.argsort(block, axis=1))

        exact = np.sort(block, axis=1)
        exact_peaks = np.maximum(-exact[:, 0], exact[:, -1])
        exact_gaps = np.diff(exact, axis=1).min(axis=1)
        scale = np.maximum(exact_peaks, np.finfo(np.float64).smallest_normal)
        bound = 2.0 ** ((length - 1).bit_length() - 52) * scale
        assert np.all(np.abs(peaks - exact_peaks) <= bound)
        assert np.all(np.abs(gaps - exact_gaps) <= 2 * bound)
        if values in ("ties", "zeros", "ulp"):
            # tied truncated values: np.argsort and the exact values
            np.testing.assert_array_equal(peaks, exact_peaks)
            np.testing.assert_array_equal(gaps, exact_gaps)


class TestIaaftBlock:
    def test_constant_row_is_exact(self, rng):
        block = rng.standard_normal((3, 64))
        block[1] = -2.5
        _, reports = assert_block_matches_oracle(block, 1, 100, 1e-8)
        assert reports[1].reason == "exact" and reports[1].iterations == 1

    def test_heavy_ties(self, rng):
        block = np.round(rng.standard_normal((5, 120)))  # a handful of distinct values
        assert_block_matches_oracle(block, 2, 100, 1e-8)

    def test_signed_zeros_keep_their_bits(self, rng):
        block = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.0]), size=(40, 15))
        block[:, :2] = [0.0, -0.0]  # every row holds both zeros
        out, _ = assert_block_matches_oracle(block, 6, 100, 1e-8)
        bits = lambda a: np.sort(a.view(np.uint64), axis=1)
        np.testing.assert_array_equal(bits(out), bits(block))

    def test_odd_length(self, rng):
        assert_block_matches_oracle(rng.standard_normal((4, 97)) * 3, 3, 100, 1e-8)

    def test_single_iteration(self, rng):
        _, reports = assert_block_matches_oracle(rng.standard_normal((4, 64)), 4, 1, 1e-8)
        assert {r.reason for r in reports} == {"max_iters"}

    def test_zero_tolerance(self, rng):
        assert_block_matches_oracle(rng.standard_normal((4, 64)), 5, 100, 0.0)

    @pytest.mark.parametrize(
        "row, seed",
        [
            ([-1.0, -1.0, -1.0, -1.0, 0.5, -1.0, 0.5, -1.0, 0.5, -1.0], 3366514315),
            ([1.0, -1.5, -1.5, 1.0, 1.0, -1.5, 1.0, -1.5, 1.0, -1.5, 1.0, 1.0], 7046),
        ],
    )
    def test_near_tied_iterates_rank_as_the_reference(self, row, seed):
        # iterates whose values tie up to rounding: phases imposed by division
        # alone rank them differently and end far from the target spectrum
        assert_block_matches_oracle(np.array([row]), seed, 30, 1e-8)

    def test_rows_above_1024_samples(self, rng):
        # 1500 samples: the packed keys hold 11 index bits
        assert_block_matches_oracle(rng.standard_normal((3, 1500)) * 4, 12, 8, 1e-8)

    def test_a_row_ranked_through_argsort_in_a_block(self, rng, monkeypatch):
        # the first row's iterates tie up to rounding (see above), so each
        # ranks through np.argsort; the other rows share its block
        near_tied = [-1.0, -1.0, -1.0, -1.0, 0.5, -1.0, 0.5, -1.0, 0.5, -1.0]
        block = np.array([near_tied, rng.standard_normal(10), np.round(rng.standard_normal(10))])
        rngs = [spawn_rng(3366514315, r) for r in range(len(block))]
        _, calls = argsort_calls(monkeypatch, lambda: _iaaft_core(block, rngs, 30, 1e-8))
        assert calls >= 2
        assert_block_matches_oracle(block, 3366514315, 30, 1e-8)

    def test_a_row_that_falls_back_sorts_no_more(self, monkeypatch):
        # the core sorts the values once; a row that _rank_rows ranks
        # through np.argsort takes its exact values from that order
        row = [-1.0, -1.0, -1.0, -1.0, 0.5, -1.0, 0.5, -1.0, 0.5, -1.0]
        sorts, real_sort = [], np.sort
        monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append(1) or real_sort(*a, **k))
        _, calls = argsort_calls(
            monkeypatch, lambda: _iaaft_core(np.array([row]), [spawn_rng(3366514315, 0)], 30, 1e-8)
        )
        assert calls >= 2 and len(sorts) == 1

    def test_rows_stop_for_different_reasons(self):
        block = np.random.default_rng(0).standard_normal((8, 64))
        block[0] = 2.0
        _, reports = assert_block_matches_oracle(block, 0, 10, 1e-3)
        assert {r.reason for r in reports} == {"exact", "tolerance", "stalled", "max_iters"}

    def test_public_paths_match_per_channel_reference(self, rng, ar2_signal):
        out, report = iaaft_surrogate(ar2_signal, SurrogateConfig(kind="iaaft"), seed=8)
        expected, expected_report = iaaft_per_channel(ar2_signal, spawn_rng(8), 100, 1e-8)
        assert out.tobytes() == expected.tobytes() and report == expected_report
        ft = ft_surrogate(ar2_signal, seed=8)
        expected = phase_randomize_per_channel(ar2_signal, spawn_rng(8))
        assert ft.tobytes() == expected.tobytes()

        # three epochs of four channels, one seed per epoch
        x = rng.standard_normal((3, 4, 90))
        seeds = [9, 2**40, 0]
        for kind in ("iaaft", "ft"):
            out, reports = epoch_surrogate_with_reports(x, seeds, SurrogateConfig(kind=kind))
            assert out.shape == x.shape and len(reports) == 12
            for i, c in np.ndindex(3, 4):
                stream = spawn_rng(seeds[i], c)
                if kind == "ft":
                    expected = phase_randomize_per_channel(x[i, c], stream)
                    assert reports[4 * i + c] is None
                else:
                    expected, expected_report = iaaft_per_channel(x[i, c], stream, 100, 1e-8)
                    assert reports[4 * i + c] == expected_report
                assert out[i, c].tobytes() == expected.tobytes()
            single = epoch_surrogate_with_reports(
                x[1][None], [seeds[1]], SurrogateConfig(kind=kind)
            )[0][0]
            assert single.tobytes() == out[1].tobytes()
        with pytest.raises(InvalidInputError):
            epoch_surrogate_with_reports(x, seeds[:2], SurrogateConfig())

    def test_bundled_channels_match_per_channel_reference(self):
        # the augment traffic: bundled synthetic channels as a dataset file
        # stores them (float32), at the default settings, in three chunks
        dataset = generate_synthetic(bundled_spec(), 48, seed=1)
        block = dataset.x.astype(np.float32).astype(np.float64).reshape(-1, dataset.x.shape[2])
        assert len(block) > 2 * SURROGATE_CHUNK
        config = SurrogateConfig(kind="iaaft")
        out, reports = surrogate_rows(block, [spawn_rng(1, r) for r in range(len(block))], config)
        assert {r.reason for r in reports} == {"stalled", "tolerance", "max_iters"}
        for r, row in enumerate(block):
            expected, report = iaaft_per_channel(
                row, spawn_rng(1, r), config.iaaft_max_iters, config.iaaft_tolerance
            )
            assert out[r].tobytes() == expected.tobytes() and reports[r] == report

    def test_bundled_channels_rank_without_argsort(self, monkeypatch):
        # the fast path must not fall back silently on the augment traffic
        dataset = generate_synthetic(bundled_spec(), 48, seed=1)
        block = dataset.x.astype(np.float32).astype(np.float64).reshape(-1, dataset.x.shape[2])
        rngs = [spawn_rng(1, r) for r in range(len(block))]
        config = SurrogateConfig(kind="iaaft")
        _, calls = argsort_calls(monkeypatch, lambda: surrogate_rows(block, rngs, config))
        assert calls == 0

    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(2, 160),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        values=st.sampled_from(["normal", "rounded", "two-level"]),
    )
    def test_values_kept_and_discrepancies_strictly_decrease(self, length, rows, seed, values):
        rng = np.random.default_rng(seed)
        if values == "two-level":
            # short rows of two values: the iterates have exactly-zero bins
            # and values that tie up to rounding
            levels = rng.choice([0.0, -0.0, 1.0, -1.5, 2.5], size=2, replace=False)
            block = rng.choice(levels, size=(rows, 4 + length % 13))
        else:
            block = rng.standard_normal((rows, length)) * 4
            if values == "rounded":
                block = np.round(block)
        out, reports = assert_block_matches_oracle(block, seed, 30, 1e-8)
        bits = lambda a: np.sort(a.view(np.uint64), axis=1)
        np.testing.assert_array_equal(bits(out), bits(block))
        for report in reports:
            assert report.iterations == len(report.discrepancies) >= 1
            assert np.all(np.diff(report.discrepancies) < 0)


class TestThreadedChunks:
    """FT chunks of a block run on threads and IAAFT chunks in forked
    workers; one row at a time through the per-channel reference
    (``oracles``) is the byte-level reference."""

    N_ROWS = 3 * SURROGATE_CHUNK + 5  # four chunks, the last one short

    @pytest.fixture
    def block(self):
        block = np.random.default_rng(3).standard_normal((self.N_ROWS, 64))
        block[[0, 70, 150, self.N_ROWS - 1]] = 2.0  # one "exact" row in every chunk
        return block

    def run_threaded(self, block, config, seconds, monkeypatch):
        """``_surrogate_rows`` under a short switch interval, repeated for
        ``seconds``: every result and the threads that ran chunks. No more
        threads than usable cores may be alive inside, and none after."""
        idents, counts = set(), []
        for name in ("_iaaft_core", "_phase_randomize"):
            kernel = getattr(surrogates, name)

            def counting(*args, kernel=kernel):
                idents.add(threading.get_ident())
                counts.append(threading.active_count())
                return kernel(*args)

            monkeypatch.setattr(surrogates, name, counting)
        before = threading.active_count()
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + seconds
            while not results or time.monotonic() < deadline:
                rngs = [spawn_rng(11, r) for r in range(len(block))]
                results.append(surrogate_rows(block, rngs, config))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert max(counts) - before + 1 <= parallel._usable_cores()
        return results, idents

    # four chunks on four threads or workers; on three threads, the caller
    # runs chunks 0 and 3, so the results arrive out of chunk order
    CORES = pytest.mark.parametrize("cores", [4, 3])

    def run_forked(self, block, config, monkeypatch):
        """``_surrogate_rows`` once: its result, the item count of each
        ``_map_processes`` call and the processes that ran its items."""
        calls, pids = [], set()

        def recording(fn, n_items):
            calls.append(n_items)
            ran = list(parallel._map_processes(lambda i: (os.getpid(), fn(i)), n_items))
            pids.update(pid for pid, _ in ran)
            return [result for _, result in ran]

        monkeypatch.setattr(surrogates, "_map_processes", recording)
        rngs = [spawn_rng(11, r) for r in range(len(block))]
        return surrogate_rows(block, rngs, config), calls, pids

    @pytest.fixture
    def iaaft_expected(self, block):
        expected = [
            iaaft_per_channel(row.copy(), spawn_rng(11, r), 10, 1e-3)
            for r, row in enumerate(block)
        ]
        assert {report.reason for _, report in expected} == set(IAAFT_STOP_REASONS)
        return np.array([row for row, _ in expected]), tuple(report for _, report in expected)

    IAAFT = SurrogateConfig(kind="iaaft", iaaft_max_iters=10, iaaft_tolerance=1e-3)

    @CORES
    def test_iaaft_forked_chunks_equal_one_row_at_a_time(
        self, block, iaaft_expected, cores, set_usable_cores, forked_workers, monkeypatch
    ):
        set_usable_cores(cores)
        (out, reports), calls, pids = self.run_forked(block, self.IAAFT, monkeypatch)
        assert calls == [4]  # one item per chunk
        assert forked_workers.value == cores and pids and os.getpid() not in pids
        assert out.tobytes() == iaaft_expected[0].tobytes()
        assert reports == iaaft_expected[1]

    def test_iaaft_under_a_threaded_caller_runs_inline(
        self, block, iaaft_expected, set_usable_cores, forked_workers, monkeypatch
    ):
        # a fork while another thread runs could leave a lock held in the child
        set_usable_cores(4)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            (out, reports), calls, pids = self.run_forked(block, self.IAAFT, monkeypatch)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert calls == [4] and pids == {os.getpid()} and forked_workers.value == 0
        assert out.tobytes() == iaaft_expected[0].tobytes()
        assert reports == iaaft_expected[1]

    @CORES
    def test_ft_equals_one_row_at_a_time(
        self, block, cores, set_usable_cores, forked_workers, monkeypatch
    ):
        expected = np.array(
            [phase_randomize_per_channel(row, spawn_rng(11, r)) for r, row in enumerate(block)]
        )
        set_usable_cores(cores)
        results, idents = self.run_threaded(block, SurrogateConfig(kind="ft"), 0.5, monkeypatch)
        assert len(idents) > 1 and forked_workers.value == 0  # chunks ran on worker threads
        for out, reports in results:
            assert out.tobytes() == expected.tobytes()
            assert reports == (None,) * self.N_ROWS

    def test_one_chunk_runs_on_the_calling_thread(self, block, set_usable_cores, monkeypatch):
        set_usable_cores(4)
        config = SurrogateConfig(kind="iaaft", iaaft_max_iters=10)
        _, idents = self.run_threaded(block[:SURROGATE_CHUNK], config, 0.0, monkeypatch)
        assert idents == {threading.get_ident()}


class TestPartialSurrogate:
    def test_zero_window_zero_crossfade_is_identity(self, ar2_signal):
        out = partial_ft_surrogate(ar2_signal, 32.0, 10.0, 0.0, seed=1, crossfade_s=0.0)
        np.testing.assert_array_equal(out, ar2_signal)

    def test_outside_window_bit_identical(self, ar2_signal):
        rate = 32.0
        out = partial_ft_surrogate(ar2_signal, rate, 13.0, 4.0, seed=5, crossfade_s=0.5)
        lo = int(round((13.0 - 0.5) * rate))
        hi = int(round((13.0 + 4.0 + 0.5) * rate))
        np.testing.assert_array_equal(out[:lo], ar2_signal[:lo])
        np.testing.assert_array_equal(out[hi:], ar2_signal[hi:])
        assert not np.array_equal(out[lo:hi], ar2_signal[lo:hi])

    def test_replaced_window_carries_remainder_peak(self):
        # alpha-dominated signal: the patch must inherit the 10 Hz peak
        rate, n = 32.0, 960
        t = np.arange(n) / rate
        rng = np.random.default_rng(8)
        x = 10 * np.sin(2 * np.pi * 10.0 * t) + rng.standard_normal(n)
        out = partial_ft_surrogate(x, rate, 13.0, 4.0, seed=21, crossfade_s=0.5)
        core = out[int(13.0 * rate) : int(17.0 * rate)]
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
            partial_ft_surrogate(ar2_signal, 32.0, 0.0, 4.0, seed=1, crossfade_s=0.5)
        with pytest.raises(InvalidInputError):
            partial_ft_surrogate(ar2_signal, 32.0, 28.0, 4.0, seed=1, crossfade_s=0.5)

    @pytest.mark.parametrize(
        "start, length", [(float("nan"), 5.0), (10.0, float("inf")), (1e308, 5.0)]
    )
    def test_hostile_placement_rejected(self, ar2_signal, start, length):
        with pytest.raises(InvalidInputError):
            partial_ft_surrogate(ar2_signal, 32.0, start, length, seed=1)

    def test_deterministic(self, ar2_signal):
        a = partial_ft_surrogate(ar2_signal, 32.0, 10.0, 5.0, seed=33)
        b = partial_ft_surrogate(ar2_signal, 32.0, 10.0, 5.0, seed=33)
        np.testing.assert_array_equal(a, b)


class TestBlockSplice:
    """One ``_splice_surrogate`` call makes the patches of a block of rows;
    one row at a time through ``oracles.splice_surrogate_per_row`` is the
    byte-level reference."""

    @staticmethod
    def per_row(samples, geometry, n_rows):
        return np.array(
            [splice_surrogate_per_row(samples, *geometry, spawn_rng(4, r)) for r in range(n_rows)]
        )

    @pytest.mark.parametrize("n", [960, 961, 97])
    @pytest.mark.parametrize("where", ["left", "middle", "right"])
    @pytest.mark.parametrize("n_rows", [1, SALIENCY_CHUNK + 7])
    def test_rows_equal_one_at_a_time(self, n, where, n_rows):
        samples = np.random.default_rng(n).standard_normal(n) * 3
        window, crossfade = n // 6, n // 60
        start = {"left": 0, "middle": n // 2 - window // 2, "right": n - window}[where]
        # crossfades are truncated at the epoch edges, as saliency does
        geometry = (start, window, min(crossfade, start), min(crossfade, n - start - window))
        out = _splice_surrogate(samples, *geometry, [spawn_rng(4, r) for r in range(n_rows)])
        assert out.tobytes() == self.per_row(samples, geometry, n_rows).tobytes()

    def test_zero_length_patch_copies_and_draws_nothing(self):
        samples = np.random.default_rng(1).standard_normal(64)
        rngs = [spawn_rng(4, r) for r in range(3)]
        out = _splice_surrogate(samples, 20, 0, 0, 0, rngs)
        assert out.tobytes() == self.per_row(samples, (20, 0, 0, 0), 3).tobytes()
        assert out.tobytes() == np.tile(samples, (3, 1)).tobytes()
        for r, rng in enumerate(rngs):
            assert rng.bit_generator.state == spawn_rng(4, r).bit_generator.state

    @pytest.mark.parametrize("geometry", [(3, 15, 2, 0), (0, 19, 0, 0)])
    def test_remainder_too_short_rejected(self, geometry):
        samples = np.random.default_rng(2).standard_normal(20)
        with pytest.raises(InvalidInputError):
            _splice_surrogate(samples, *geometry, [spawn_rng(4, 0), spawn_rng(4, 1)])
        with pytest.raises(InvalidInputError):
            self.per_row(samples, geometry, 1)


def surrogate_epoch(samples, config, seed):
    """Per-channel surrogates of one (n_channels, n_samples) epoch; channel
    c draws from (seed, c)."""
    return epoch_surrogate_with_reports(samples[None], [seed], config)[0][0]


class TestEpochSurrogate:
    def test_constant_epoch_unchanged(self):
        data = np.tile(np.array([[1.0], [2.0], [3.0], [4.0]]), (1, 64))
        out = surrogate_epoch(data, SurrogateConfig(kind="ft"), 1)
        np.testing.assert_allclose(out, data, atol=1e-12)

    def test_per_channel_amplitude_preservation(self, rng):
        data = rng.standard_normal((4, 240)) * 7
        out = surrogate_epoch(data, SurrogateConfig(kind="ft"), 9)
        for before, after in zip(data, out):
            a = one_sided_amplitudes(before)
            b = one_sided_amplitudes(after)
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-9 * a.max())

    def test_channels_randomized_independently(self, rng):
        row = rng.standard_normal(128)
        out = surrogate_epoch(np.tile(row, (4, 1)), SurrogateConfig(kind="ft"), 2)
        assert not np.array_equal(out[0], out[1])

    def test_same_seed_identical(self, rng):
        data = rng.standard_normal((4, 96))
        a = surrogate_epoch(data, SurrogateConfig(kind="ft"), 4)
        b = surrogate_epoch(data, SurrogateConfig(kind="ft"), 4)
        np.testing.assert_array_equal(a, b)

    def test_iaaft_kind(self, rng):
        data = rng.standard_normal((4, 96))
        out = surrogate_epoch(data, SurrogateConfig(kind="iaaft"), 6)
        for before, after in zip(data, out):
            np.testing.assert_array_equal(np.sort(after), np.sort(before))
