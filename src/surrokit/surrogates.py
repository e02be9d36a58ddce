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
the reported discrepancy sequence is strictly decreasing. Each spectral
step imposes the target amplitudes by dividing the bins by their
magnitudes, not through ``exp(i * angle)``; an iterate whose values tie
up to rounding takes the exponential instead, so the surrogates are the
same, bit for bit, as with the exponential alone. Channels run
in chunks of ``SURROGATE_CHUNK`` rows that share each iteration's
argsort and FFTs, and the chunks of a block run on threads over the
usable cores (``parallel``). Every row has its own generator, created
before the threads start, and every chunk writes only its own rows, so
each channel still gets exactly the result it would get alone, on any
number of cores.

Partial surrogates replace one window of a signal with surrogate content
generated from the remainder (the two flanking segments concatenated
end to end), blended in with cosine half-wave crossfades whose original
and surrogate weights sum to one. Every surrogate, whole or partial, is
made in a block of rows with one generator per row.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .parallel import _map_partitioned
from .seeding import spawn_rng
from .signals import Epoch, Signal

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


@dataclass(frozen=True)
class PartialSurrogateSpec:
    """Window placement for a partial surrogate, in seconds.

    The window core is [window_start_s, window_start_s + window_len_s);
    crossfades of ``crossfade_s`` extend beyond it on both sides and must
    stay inside the signal.
    """

    window_start_s: float
    window_len_s: float
    crossfade_s: float = 0.5

    def __post_init__(self):
        placement = (self.window_start_s, self.window_len_s, self.crossfade_s)
        if not all(map(math.isfinite, placement)):
            raise InvalidInputError("window placement values must be finite")
        if min(placement) < 0:
            raise InvalidInputError("window placement values must be non-negative")


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


def ft_surrogate(signal: Signal, seed: int) -> Signal:
    """Plain FT surrogate: same amplitude spectrum, random phases.

    Deterministic given the seed; see :mod:`surrokit.seeding` for the
    generator used.
    """
    rng = spawn_rng(seed)
    return Signal(_phase_randomize(signal.samples[None], [rng])[0], signal.sample_rate_hz)


def _iaaft_core(block, rngs, max_iters, tolerance):
    """IAAFT on every row of a (k, n) block; row r draws from ``rngs[r]``.

    Each iteration ranks all active rows with one argsort and one
    scatter, and takes one forward FFT for both the discrepancy and the
    phases. A row leaves the block when its own stop rule fires, and
    each discrepancy is summed over its row alone, so every row gets the
    same iterate, discrepancies and reason, bit for bit, as it would in
    a block of one.

    The target amplitudes are imposed as ``target * bins / |bins|``,
    reusing the ``|bins|`` of the discrepancy. That phasor differs from
    ``exp(i * angle(bins))`` only in the last bits, and the iterate only
    matters through its ranking, so the surrogates stay the same unless
    two iterate values tie up to rounding. A row whose iterate has two
    values within ``NEAR_TIE`` of its peak, or an exactly-zero bin, is
    therefore recomputed from ``exp(i * angle(bins))``: every surrogate
    and report equals the exponential form's, bit for bit.

    Returns:
        ((k, n) surrogates, tuple of one IaaftReport per row).
    """
    n = block.shape[1]
    target = np.abs(np.fft.rfft(block))
    target_norms = np.array([np.sqrt(t.dot(t)) for t in target])
    # the stable sort keeps the sign bit of every zero; the default SIMD
    # sort may write -0.0 back as 0.0
    sorted_values = np.sort(block, axis=1, kind="stable")

    current = _phase_randomize(block, rngs)
    best = np.empty_like(block)
    histories = [[] for _ in block]
    reasons = ["max_iters"] * len(block)
    active = np.arange(len(block))
    for _ in range(max_iters):
        ranked = np.empty_like(current)
        np.put_along_axis(ranked, np.argsort(current, axis=1), sorted_values, axis=1)
        bins = np.fft.rfft(ranked)
        amplitudes = np.abs(bins)
        residual = amplitudes - target
        accepted = np.zeros(active.size, dtype=bool)
        running = np.zeros(active.size, dtype=bool)
        for r, row in enumerate(active):
            d = residual[r]
            disc = float(np.sqrt(d.dot(d)) / target_norms[r]) if target_norms[r] > 0 else 0.0
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
        current = np.fft.irfft(bins * (target / amplitudes), n=n)
        ordered = np.sort(current, axis=1)
        peaks = np.maximum(-ordered[:, 0], ordered[:, -1])
        gaps = np.diff(ordered, axis=1).min(axis=1)
        exact = silent.any(axis=1) | (gaps <= NEAR_TIE * peaks)
        if exact.any():
            current[exact] = np.fft.irfft(target[exact] * np.exp(1j * np.angle(bins[exact])), n=n)

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


def _surrogate_rows(block, rngs, config: SurrogateConfig):
    """Surrogates of the rows of a (k, n) block; row r draws from ``rngs[r]``.

    The rows run in chunks of ``SURROGATE_CHUNK``, which gives the same
    samples as one row at a time. The chunks share no generator and
    write disjoint rows, so they run on threads (``_map_partitioned``);
    one chunk runs on the calling thread. Returns the (k, n) surrogates
    and one report per row, None for FT.
    """
    out = np.empty_like(block)
    starts = range(0, len(block), SURROGATE_CHUNK)
    chunks = [slice(start, start + SURROGATE_CHUNK) for start in starts]

    def run_chunk(c):
        chunk = chunks[c]
        if config.kind == KIND_FT:
            out[chunk] = _phase_randomize(block[chunk], rngs[chunk])
            return [None] * len(rngs[chunk])
        out[chunk], reports = _iaaft_core(
            block[chunk], rngs[chunk], config.iaaft_max_iters, config.iaaft_tolerance
        )
        return reports

    per_chunk = _map_partitioned(run_chunk, [len(rngs[chunk]) for chunk in chunks])
    return out, tuple(report for reports in per_chunk for report in reports)


def iaaft_surrogate(signal: Signal, config: SurrogateConfig, seed: int):
    """IAAFT surrogate plus its iteration report.

    The returned surrogate's sorted sample values equal the sorted input
    values exactly. Non-convergence within ``iaaft_max_iters`` is not an
    error; the report carries the achieved discrepancy.

    Returns:
        (surrogate, IaaftReport) tuple.
    """
    if config.kind != KIND_IAAFT:
        raise InvalidInputError(f"config.kind must be {KIND_IAAFT!r}, got {config.kind!r}")
    samples, (report,) = _surrogate_rows(signal.samples[None], [spawn_rng(seed)], config)
    return Signal(samples[0], signal.sample_rate_hz), report


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


def partial_ft_surrogate(signal: Signal, spec: PartialSurrogateSpec, seed: int) -> Signal:
    """Replace one window of a signal with an FT surrogate of the remainder.

    The remainder is the concatenation of the two flanking segments; a
    patch of window plus both crossfades is cut from its surrogate at a
    random offset and blended in with cosine half-wave weights. Samples
    outside the window-plus-crossfade region are bit-identical to the
    input.
    """
    rate = signal.sample_rate_hz
    n = signal.samples.size
    # refused in seconds: a huge value would overflow the conversion to samples
    longest = max(spec.window_start_s, spec.window_len_s, spec.crossfade_s)
    if longest > signal.duration_s:
        raise InvalidInputError(
            f"window placement value of {longest} s exceeds the {signal.duration_s} s signal"
        )
    start = int(round(spec.window_start_s * rate))
    window_len = int(round(spec.window_len_s * rate))
    crossfade = int(round(spec.crossfade_s * rate))
    if start - crossfade < 0 or start + window_len + crossfade > n:
        raise InvalidInputError(
            f"window [{spec.window_start_s}, {spec.window_start_s + spec.window_len_s}] s "
            f"with {spec.crossfade_s} s crossfades does not fit a {n / rate} s signal"
        )
    rngs = [spawn_rng(seed)]
    out = _splice_surrogate(signal.samples, start, window_len, crossfade, crossfade, rngs)
    return Signal(out[0], rate)


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
    rows, reports = _surrogate_rows(x.reshape(-1, length), rngs, config)
    return rows.reshape(x.shape), reports


def epoch_surrogate(epoch, config: SurrogateConfig, seed) -> Epoch:
    """Per-channel surrogate of an epoch, label kept; channel c draws from (seed, c)."""
    x, _ = epoch_surrogate_with_reports(epoch.samples[None], [seed], config)
    return Epoch(x[0], epoch.sample_rate_hz, epoch.label, epoch.channel_roles)
