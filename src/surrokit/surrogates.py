"""Fourier-transform surrogates: plain, IAAFT, and partial.

A plain FT surrogate keeps a signal's one-sided amplitude spectrum and
replaces every interior phase with a fresh uniform draw from [0, 2*pi).
The DC bin, and the Nyquist bin for even lengths, keep their original
complex values, which makes the output structurally real and preserves
the mean.

IAAFT surrogates (iterative amplitude-adjusted FT, Schreiber & Schmitz
1996) additionally force the time-domain value distribution to match the
original exactly. The iteration here ends on the rank-ordering step, so
the sorted surrogate samples equal the sorted originals bit for bit and
the residual error lives in the amplitude spectrum. The loop stops when
the spectral discrepancy stops improving or its relative change drops
below the configured tolerance; the best iterate seen is returned, so
the reported discrepancy sequence is strictly decreasing. How each
iterate is ranked and its phases imposed, and why the surrogates are
those of the textbook ``exp(i * angle)`` form bit for bit, is stated
once, in ``_iaaft_core``. Channels run in chunks of
``SURROGATE_CHUNK`` rows that share each iteration's sort and FFTs, and
the chunks of a block run in parallel over the usable cores: FT chunks
on threads, IAAFT chunks in forked workers (``_surrogate_rows``). Every
row has its own generator, created before the chunks start, and every
chunk makes only its own rows, so each channel still gets exactly the
result it would get alone, on any number of cores.

Partial surrogates replace one window of a signal with surrogate content
generated from the remainder (the two flanking segments concatenated
end to end), blended in with cosine half-wave crossfades whose original
and surrogate weights sum to one; ``window_samples`` rounds the window,
placed in seconds, to samples. Every surrogate, whole or partial, is made
in a block of rows with one generator per row; the 1-D functions return
new arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .parallel import _map_partitioned, _map_processes
from .seeding import spawn_rng
from .signals import _check_samples

KIND_FT = "ft"
KIND_IAAFT = "iaaft"
SURROGATE_KINDS = (KIND_FT, KIND_IAAFT)
IAAFT_STOP_REASONS = ("exact", "tolerance", "stalled", "max_iters")
# rows surrogated as one block; bounds the FFT and sort temporaries
SURROGATE_CHUNK = 64
# an IAAFT iterate whose closest two values lie within this fraction of its
# peak is recomputed from exp(i * angle); the two phase formulas move an
# iterate by at most about 1e-15 of its peak
NEAR_TIE = 1e-9
# longest row ranked from packed keys: its index bits move a gap by less
# than 2**-35 of the peak, far below NEAR_TIE; longer rows rank exactly
_PACKED_MAX_N = 2**16


@dataclass(frozen=True)
class SurrogateConfig:
    """Options for surrogate generation.

    ``iaaft_tolerance`` is the relative change of the spectral
    discrepancy between consecutive iterations below which the IAAFT
    loop is considered converged.
    """

    kind: str = KIND_FT
    iaaft_max_iters: int = 100
    iaaft_tolerance: float = 1e-8

    def __post_init__(self):
        if self.kind not in SURROGATE_KINDS:
            raise InvalidInputError(f"unknown surrogate kind {self.kind!r}")
        if self.iaaft_max_iters < 1:
            raise InvalidInputError("iaaft_max_iters must be >= 1")
        if not self.iaaft_tolerance >= 0:  # NaN included
            raise InvalidInputError("iaaft_tolerance must be non-negative")


@dataclass(frozen=True)
class IaaftReport:
    """Outcome of one IAAFT run.

    ``discrepancies`` holds the relative L2 distance between the target
    and achieved one-sided amplitude spectra after each accepted
    rank-ordering step; it is non-increasing by construction.
    ``reason`` is one of ``IAAFT_STOP_REASONS``: "exact", "tolerance",
    "stalled", "max_iters".
    """

    iterations: int
    discrepancies: tuple
    converged: bool
    reason: str

    @property
    def final_discrepancy(self) -> float:
        return self.discrepancies[-1]


def _as_channel(samples, sample_rate_hz=1.0) -> np.ndarray:
    """``samples`` as a 1-D float64 array, checked as a stored channel is."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise InvalidInputError(f"signal must be 1-D, got shape {samples.shape}")
    _check_samples(samples, sample_rate_hz)
    return samples


def window_samples(n, sample_rate_hz, window_start_s, window_len_s=0.0, crossfade_s=0.0):
    """(start, window length, crossfade) in whole samples of an n-sample
    signal, from a placement in seconds.

    A value that is not finite, negative or longer than the signal is
    refused before the rounding, which a huge value would overflow.
    """
    duration = n / sample_rate_hz
    values = {"window start": window_start_s, "window": window_len_s, "crossfade": crossfade_s}
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise InvalidInputError(f"{name} must be finite and non-negative, got {value} s")
        if value > duration:
            raise InvalidInputError(f"{name} of {value} s exceeds the {duration} s signal")
    return tuple(int(round(value * sample_rate_hz)) for value in values.values())


def _phase_randomize(block: np.ndarray, rngs) -> np.ndarray:
    """Replace the interior Fourier phases of each row of a (k, n) block.

    Row r draws its phases uniformly from [0, 2*pi) from ``rngs[r]``; a
    (1, n) block gives one surrogate of its row per generator.
    """
    n = block.shape[1]
    bins = np.fft.rfft(block)
    theta = np.array([rng.uniform(0.0, 2.0 * np.pi, bins.shape[1]) for rng in rngs])
    randomized = np.abs(bins) * np.exp(1j * theta)
    randomized[:, 0] = bins[:, 0]
    if n % 2 == 0:
        randomized[:, -1] = bins[:, -1]
    return np.fft.irfft(randomized, n=n)


def ft_surrogate(samples, seed: int) -> np.ndarray:
    """Plain FT surrogate of a 1-D array: same amplitude spectrum, random phases.

    Deterministic given the seed; see :mod:`surrokit.seeding` for the
    generator used.
    """
    return _phase_randomize(_as_channel(samples)[None], [spawn_rng(seed)])[0]


def _rank_rows(current):
    """Rank every row of a (k, n) block with one sort of packed keys
    (see ``_iaaft_core``); ``current`` is left as it is.

    Returns:
        (order, peaks, gaps): ``order`` equals ``np.argsort(current,
        axis=1)``; per row, the largest magnitude and the smallest gap
        between two values, within 2**(b - 51) of the peak (of the
        smallest normal float if the peak is subnormal), b =
        ``(n - 1).bit_length()``, and exact on a row that falls back.
    """
    n = current.shape[1]
    low = (1 << (n - 1).bit_length()) - 1
    keys = current.copy()
    bits = keys.view(np.int64)
    bits &= ~low
    bits |= np.arange(n)
    keys.sort(axis=1)
    order = bits & low
    bits ^= order
    peaks = np.maximum(-keys[:, 0], keys[:, -1])
    gaps = np.diff(keys, axis=1).min(axis=1, initial=np.inf)
    for r in np.flatnonzero((gaps == 0) | (n > _PACKED_MAX_N)):
        order[r] = np.argsort(current[r])
        exact = current[r, order[r]]  # sorted; -0.0 and 0.0 may swap, which compare equal
        peaks[r] = max(-exact[0], exact[-1])
        gaps[r] = np.diff(exact).min(initial=np.inf)
    return order, peaks, gaps


def _iaaft_core(block, rngs, max_iters, tolerance):
    """IAAFT on every row of a (k, n) block; row r draws from ``rngs[r]``.

    Each iteration ranks all active rows with one sort of packed keys
    (``_rank_rows``) and one flat scatter, and takes one forward FFT
    for both the discrepancy and the phases. A row leaves the block when
    its own stop rule fires, and each discrepancy is summed over its row
    alone, so every row gets the same iterate, discrepancies and reason,
    bit for bit, as it would in a block of one.

    Ranking. Each key is a sample whose low b = ``(n - 1).bit_length()``
    mantissa bits hold its index instead: the value truncated toward
    zero, tagged. One in-place float64 sort of the keys orders the
    samples, and the low bits of the sorted keys are the permutation.
    Where two truncated values differ, so do the samples, and in the same
    order. A row in which two of them are equal (-0.0 and 0.0 among them,
    which tie in ``np.argsort`` too) takes ``np.argsort`` and the exact
    values it orders, as does every row longer than ``_PACKED_MAX_N``. So
    every row ranks as ``np.argsort`` ranks it. Cleared again, the keys
    are the sorted truncated values, each within 2**(b - 52) of the row's
    peak, so the peak and the smallest gap taken from them are within
    2**(b - 51): 2**-41 at 960 samples, 2**-35 at ``_PACKED_MAX_N``.

    Phases. The target amplitudes are imposed as ``target * bins /
    |bins|``, reusing the ``|bins|`` of the discrepancy. That phasor
    differs from ``exp(i * angle(bins))`` only in the last bits, about
    1e-15 of the peak, and the iterate only matters through its ranking,
    so the surrogates stay the same unless two iterate values tie up to
    rounding. A row whose iterate has two values within ``NEAR_TIE`` of
    its peak, or an exactly-zero bin, is therefore recomputed from
    ``exp(i * angle(bins))`` and ranked again: every surrogate and report
    equals the exponential form's, bit for bit. The truncation of the
    peaks and gaps, like the phasor difference, is far below ``NEAR_TIE``
    (1e-9), so a row that it moves across the threshold ranks the same
    with either phasor.

    Returns:
        ((k, n) surrogates, tuple of one IaaftReport per row).
    """
    n = block.shape[1]
    target = np.abs(np.fft.rfft(block))
    target_norms = np.sqrt(np.vecdot(target, target))
    # the stable sort keeps the sign bit of every zero; the default SIMD
    # sort may write -0.0 back as 0.0
    sorted_values = np.sort(block, axis=1, kind="stable")

    order = _rank_rows(_phase_randomize(block, rngs))[0]
    best = np.empty_like(block)
    histories = [[] for _ in block]
    reasons = ["max_iters"] * len(block)
    active = np.arange(len(block))
    for _ in range(max_iters):
        ranked = np.empty_like(sorted_values)
        order += np.arange(0, order.size, n)[:, None]  # flat indices into ranked
        ranked.reshape(-1)[order] = sorted_values
        bins = np.fft.rfft(ranked)
        amplitudes = np.abs(bins)
        residual = amplitudes - target
        norms = np.sqrt(np.vecdot(residual, residual))
        accepted = np.zeros(active.size, dtype=bool)
        running = np.zeros(active.size, dtype=bool)
        for r, row in enumerate(active):
            disc = float(norms[r] / target_norms[r]) if target_norms[r] > 0 else 0.0
            history = histories[row]
            if history and disc >= history[-1]:
                reasons[row] = "stalled"
                continue
            history.append(disc)
            accepted[r] = True
            if disc == 0.0:
                reasons[row] = "exact"
            elif len(history) >= 2 and (history[-2] - disc) / history[-2] <= tolerance:
                reasons[row] = "tolerance"
            else:
                running[r] = True
        best[active[accepted]] = ranked[accepted]
        if not running.any():
            break
        if not running.all():
            active, target, target_norms, sorted_values, bins, amplitudes = (
                a[running]
                for a in (active, target, target_norms, sorted_values, bins, amplitudes)
            )
        # spectral adjustment: impose the target amplitudes, keep the phases;
        # rows with a zero bin, or with values the two phasors may rank
        # differently, take the exponential form
        silent = amplitudes == 0
        amplitudes[silent] = 1.0  # keeps the division finite on rows redone below
        order, peaks, gaps = _rank_rows(np.fft.irfft(bins * (target / amplitudes), n=n))
        exact = silent.any(axis=1) | (gaps <= NEAR_TIE * peaks)
        if exact.any():
            phasors = np.exp(1j * np.angle(bins[exact]))
            order[exact] = _rank_rows(np.fft.irfft(target[exact] * phasors, n=n))[0]

    reports = tuple(
        IaaftReport(
            iterations=len(history),
            discrepancies=tuple(history),
            converged=reason in ("exact", "tolerance", "stalled"),
            reason=reason,
        )
        for history, reason in zip(histories, reasons)
    )
    return best, reports


def _surrogate_rows(x, cells, rngs, config: SurrogateConfig):
    """Replace rows of the writable array ``x`` by their surrogates, in
    place: ``cells`` holds one index array per leading axis of ``x``, and
    row ``x[tuple(a[r] for a in cells)]`` draws from ``rngs[r]``.

    The rows run in chunks of ``SURROGATE_CHUNK``, which gives the same
    samples as one row at a time. Each chunk gathers its own rows from
    ``x`` and its surrogates are written back there, so no block of all
    the rows is held. The chunks share no generator and no row, so they
    run in parallel (``parallel``). FT chunks run on threads, each writing
    its own rows: a chunk takes about 2.5 ms, less than a fork. IAAFT
    chunks, whose Python between numpy calls holds the interpreter lock,
    run in forked workers, and the caller writes each chunk's rows and
    keeps its reports as they come back, in chunk order. A worker reads
    only its own chunk's rows, which no write reaches before that chunk
    has come back, so it reads the rows as given whenever it was forked.
    A generator advances in the caller only where its chunk runs inline;
    none of the callers (``balance._augment_in_place``,
    ``epoch_surrogate_with_reports``, ``iaaft_surrogate``) reads one
    afterwards. Returns one report per row, None for FT.
    """
    starts = range(0, len(rngs), SURROGATE_CHUNK)
    chunks = [slice(start, start + SURROGATE_CHUNK) for start in starts]

    def rows(c):
        return tuple(axis[chunks[c]] for axis in cells)

    if config.kind == KIND_FT:

        def run_ft(c):
            x[rows(c)] = _phase_randomize(x[rows(c)], rngs[chunks[c]])

        _map_partitioned(run_ft, [len(rngs[chunk]) for chunk in chunks])
        return (None,) * len(rngs)

    def run_iaaft(c):
        return _iaaft_core(
            x[rows(c)], rngs[chunks[c]], config.iaaft_max_iters, config.iaaft_tolerance
        )

    reports = ()
    for c, (surrogates, chunk_reports) in enumerate(_map_processes(run_iaaft, len(chunks))):
        x[rows(c)] = surrogates
        reports += chunk_reports
    return reports


def iaaft_surrogate(samples, config: SurrogateConfig, seed: int):
    """IAAFT surrogate of a 1-D array plus its iteration report.

    The returned surrogate's sorted sample values equal the sorted input
    values exactly. Non-convergence within ``iaaft_max_iters`` is not an
    error; the report carries the achieved discrepancy.

    Returns:
        (surrogate, IaaftReport) tuple.
    """
    if config.kind != KIND_IAAFT:
        raise InvalidInputError(f"config.kind must be {KIND_IAAFT!r}, got {config.kind!r}")
    out = _as_channel(samples)[None].copy()
    (report,) = _surrogate_rows(out, (np.arange(1),), [spawn_rng(seed)], config)
    return out[0], report


def crossfade_weights(window_len: int, crossfade_left: int, crossfade_right: int) -> np.ndarray:
    """Surrogate-side blend weights for a spliced patch.

    Returns a vector of length ``crossfade_left + window_len +
    crossfade_right``. The core is exactly 1; the fades follow
    sin^2(pi * t / (2 * crossfade)) sampled strictly inside (0, 1), so
    the complementary original-side weight is 1 minus this vector.
    """
    total = crossfade_left + window_len + crossfade_right
    weights = np.ones(total)
    if crossfade_left:
        t = np.arange(1, crossfade_left + 1) / (crossfade_left + 1.0)
        weights[:crossfade_left] = np.sin(0.5 * np.pi * t) ** 2
    if crossfade_right:
        t = np.arange(1, crossfade_right + 1) / (crossfade_right + 1.0)
        weights[total - crossfade_right :] = (np.sin(0.5 * np.pi * t) ** 2)[::-1]
    return weights


def _splice_surrogate(samples, start, window_len, crossfade_left, crossfade_right, rngs):
    """(R, n) copies of ``samples``, row r with [start, start+window_len)
    replaced by remainder-surrogate content drawn from ``rngs[r]``.

    The modified region extends ``crossfade_left``/``crossfade_right``
    samples beyond the window core; everything outside it is returned
    bit-identical. Each generator draws its phases, then its offset.
    """
    need = crossfade_left + window_len + crossfade_right
    out = np.tile(samples, (len(rngs), 1))
    if need == 0:
        return out
    remainder = np.concatenate([samples[:start], samples[start + window_len :]])
    if remainder.size < max(need, 2):
        raise InvalidInputError(
            f"remainder of {remainder.size} samples cannot supply a {need}-sample patch"
        )
    surrogates = _phase_randomize(remainder[None], rngs)
    offsets = np.array([rng.integers(0, remainder.size - need + 1) for rng in rngs])
    patches = surrogates[np.arange(len(rngs))[:, None], offsets[:, None] + np.arange(need)]

    weights = crossfade_weights(window_len, crossfade_left, crossfade_right)
    region = slice(start - crossfade_left, start - crossfade_left + need)
    out[:, region] = (1.0 - weights) * samples[region] + weights * patches
    return out


def partial_ft_surrogate(
    samples, sample_rate_hz, window_start_s, window_len_s, seed, crossfade_s=0.5
) -> np.ndarray:
    """Replace one window of a 1-D array with an FT surrogate of the remainder.

    The core [window_start_s, window_start_s + window_len_s) and crossfades
    of ``crossfade_s`` on both sides must lie inside the signal. The
    remainder is the concatenation of the two flanking segments; a patch
    of window plus both crossfades is cut from its surrogate at a random
    offset and blended in with cosine half-wave weights. Samples outside
    the window-plus-crossfade region are bit-identical to the input.
    """
    samples = _as_channel(samples, sample_rate_hz)
    rate = float(sample_rate_hz)
    n = samples.size
    start, length, crossfade = window_samples(n, rate, window_start_s, window_len_s, crossfade_s)
    if start - crossfade < 0 or start + length + crossfade > n:
        raise InvalidInputError(
            f"window [{window_start_s}, {window_start_s + window_len_s}] s "
            f"with {crossfade_s} s crossfades does not fit a {n / rate} s signal"
        )
    rngs = [spawn_rng(seed)]
    return _splice_surrogate(samples, start, length, crossfade, crossfade, rngs)[0]


def epoch_surrogate_with_reports(x, seeds, config: SurrogateConfig):
    """Per-channel surrogates of an (n, C, L) block of epochs.

    Channel c of epoch i draws from the stream keyed (seeds[i], c), and
    all n * C rows run as one block (``_surrogate_rows``). Returns the
    (n, C, L) surrogates and one report per row in row order (epoch i,
    channel c at i * C + c), None for FT surrogates.
    """
    n_epochs, n_channels, length = x.shape
    if len(seeds) != n_epochs:
        raise InvalidInputError(f"{len(seeds)} seeds for {n_epochs} epochs")
    rngs = [spawn_rng(seed, c) for seed in seeds for c in range(n_channels)]
    out = x.copy()
    reports = _surrogate_rows(out, np.divmod(np.arange(len(rngs)), n_channels), rngs, config)
    return out, reports

