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
the reported discrepancy sequence is strictly decreasing. Channels run
in blocks that share each iteration's argsort and FFTs; every channel
still gets exactly the result it would get alone.

Partial surrogates replace one window of a signal with surrogate content
generated from the remainder (the two flanking segments concatenated
end to end), blended in with cosine half-wave crossfades whose original
and surrogate weights sum to one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .seeding import spawn_rng
from .signals import Epoch, Signal

KIND_FT = "ft"
KIND_IAAFT = "iaaft"
SURROGATE_KINDS = (KIND_FT, KIND_IAAFT)
IAAFT_STOP_REASONS = ("exact", "tolerance", "stalled", "max_iters")


@dataclass(frozen=True)
class SurrogateConfig:
    """Options for surrogate generation.

    ``iaaft_tolerance`` is the relative change of the spectral
    discrepancy between consecutive iterations below which the IAAFT
    loop is considered converged. ``share_channel_phases`` makes every
    channel of an epoch reuse one phase draw instead of drawing
    independently per channel.
    """

    kind: str = KIND_FT
    iaaft_max_iters: int = 100
    iaaft_tolerance: float = 1e-8
    seed: int = 0
    share_channel_phases: bool = False

    def __post_init__(self):
        if self.kind not in SURROGATE_KINDS:
            raise InvalidInputError(f"unknown surrogate kind {self.kind!r}")
        if self.iaaft_max_iters < 1:
            raise InvalidInputError("iaaft_max_iters must be >= 1")
        if self.iaaft_tolerance < 0:
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
        if self.window_start_s < 0 or self.window_len_s < 0 or self.crossfade_s < 0:
            raise InvalidInputError("window placement values must be non-negative")


def _phase_randomize(block: np.ndarray, rngs) -> np.ndarray:
    """Replace the interior Fourier phases of each row of a (k, n) block.

    Row r draws its phases uniformly from [0, 2*pi) from ``rngs[r]``.
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

    Returns:
        ((k, n) surrogates, tuple of one IaaftReport per row).
    """
    n = block.shape[1]
    target = np.abs(np.fft.rfft(block))
    target_norms = np.array([np.sqrt(t.dot(t)) for t in target])
    sorted_values = np.sort(block, axis=1)

    current = _phase_randomize(block, rngs)
    best = np.empty_like(block)
    histories = [[] for _ in block]
    reasons = ["max_iters"] * len(block)
    active = np.arange(len(block))
    for _ in range(max_iters):
        ranked = np.empty_like(current)
        np.put_along_axis(ranked, np.argsort(current, axis=1), sorted_values, axis=1)
        bins = np.fft.rfft(ranked)
        residual = np.abs(bins) - target
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
            active, target, target_norms, sorted_values, bins = (
                a[running] for a in (active, target, target_norms, sorted_values, bins)
            )
        # spectral adjustment: impose the target amplitudes, keep the phases
        current = np.fft.irfft(target * np.exp(1j * np.angle(bins)), n=n)

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

    Returns the (k, n) surrogates and one report per row, None for FT.
    """
    if config.kind == KIND_FT:
        return _phase_randomize(block, rngs), (None,) * len(block)
    return _iaaft_core(block, rngs, config.iaaft_max_iters, config.iaaft_tolerance)


def iaaft_surrogate(signal: Signal, config: SurrogateConfig):
    """IAAFT surrogate plus its iteration report.

    The returned surrogate's sorted sample values equal the sorted input
    values exactly. Non-convergence within ``iaaft_max_iters`` is not an
    error; the report carries the achieved discrepancy.

    Returns:
        (surrogate, IaaftReport) tuple.
    """
    if config.kind != KIND_IAAFT:
        raise InvalidInputError(f"config.kind must be {KIND_IAAFT!r}, got {config.kind!r}")
    samples, (report,) = _surrogate_rows(signal.samples[None], [spawn_rng(config.seed)], config)
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


def _splice_surrogate(samples, start, window_len, crossfade_left, crossfade_right, rng):
    """Replace samples[start : start+window_len] with remainder-surrogate content.

    The modified region extends ``crossfade_left``/``crossfade_right``
    samples beyond the window core; everything outside it is returned
    bit-identical.
    """
    n = samples.size
    need = crossfade_left + window_len + crossfade_right
    if need == 0:
        return samples.copy()
    remainder = np.concatenate([samples[:start], samples[start + window_len :]])
    if remainder.size < max(need, 2):
        raise InvalidInputError(
            f"remainder of {remainder.size} samples cannot supply a {need}-sample patch"
        )
    surrogate = _phase_randomize(remainder[None], [rng])[0]
    offset = int(rng.integers(0, remainder.size - need + 1))
    patch = surrogate[offset : offset + need]

    weights = crossfade_weights(window_len, crossfade_left, crossfade_right)
    out = samples.copy()
    region = slice(start - crossfade_left, start - crossfade_left + need)
    out[region] = (1.0 - weights) * samples[region] + weights * patch
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
    start = int(round(spec.window_start_s * rate))
    window_len = int(round(spec.window_len_s * rate))
    crossfade = int(round(spec.crossfade_s * rate))
    if start - crossfade < 0 or start + window_len + crossfade > n:
        raise InvalidInputError(
            f"window [{spec.window_start_s}, {spec.window_start_s + spec.window_len_s}] s "
            f"with {spec.crossfade_s} s crossfades does not fit a {n / rate} s signal"
        )
    rng = spawn_rng(seed)
    out = _splice_surrogate(signal.samples, start, window_len, crossfade, crossfade, rng)
    return Signal(out, rate)


def epoch_surrogate_with_reports(epoch: Epoch, config: SurrogateConfig, seed=None):
    """Per-channel surrogate of an epoch, returning IAAFT reports.

    Channel i draws from a stream derived from (seed, i), or from the
    bare seed for every channel when ``config.share_channel_phases`` is
    set. The channels run as one block. Reports are None for FT
    surrogates.
    """
    base = config.seed if seed is None else seed
    rngs = [
        spawn_rng(base, *(() if config.share_channel_phases else (i,)))
        for i in range(len(epoch.channels))
    ]
    samples, reports = _surrogate_rows(epoch.to_array(), rngs, config)
    rate = epoch.sample_rate_hz
    channels = tuple(Signal(row, rate) for row in samples)
    return Epoch(channels, epoch.label, epoch.channel_roles), reports


def epoch_surrogate(epoch: Epoch, config: SurrogateConfig, seed=None) -> Epoch:
    """Per-channel surrogate of an epoch; the label is preserved."""
    surrogate, _ = epoch_surrogate_with_reports(epoch, config, seed)
    return surrogate
