"""Independent oracles the tests check implementations against.

These deliberately avoid the code paths under test: the DFT oracle is a
direct O(N^2) summation, convolution/pooling oracles are plain Python
loops, and the F1 oracle follows the textbook definition one class at a
time. The per-tap batch kernels at the end are the straightforward
one-product-per-tap form of the network's GEMM kernels. The
per-channel IAAFT loop at the very end is the surrogate code as it was
before channels were run in blocks; the block core must reproduce it
bit for bit.
"""

import numpy as np

from surrokit.surrogates import IaaftReport


def dft_oracle(x):
    """Full two-sided DFT by direct summation, un-normalized forward."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    k = np.arange(n)
    matrix = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return matrix @ x


def idft_oracle(bins):
    """Inverse DFT by direct summation with the 1/N convention."""
    bins = np.asarray(bins, dtype=np.complex128)
    n = bins.size
    k = np.arange(n)
    matrix = np.exp(2j * np.pi * np.outer(k, k) / n)
    return (matrix @ bins) / n


def one_sided_amplitudes(x):
    """One-sided amplitude spectrum via the O(N^2) oracle."""
    full = dft_oracle(x)
    return np.abs(full[: len(x) // 2 + 1])


def conv1d_same_oracle(x, kernel, bias):
    """Naive same-padding unit-stride 1-D convolution. x: (L, C), kernel: (W, C, F)."""
    length, c_in = x.shape
    width, _, filters = kernel.shape
    pad_left = (width - 1) // 2
    out = np.zeros((length, filters))
    for t in range(length):
        for w in range(width):
            src = t + w - pad_left
            if 0 <= src < length:
                for c in range(c_in):
                    out[t] += x[src, c] * kernel[w, c]
    return out + bias


def maxpool_same_oracle(x, width, stride):
    """Naive same-padding max pool. x: (L, C)."""
    length, channels = x.shape
    out_len = -(-length // stride)
    pad_total = max(0, (out_len - 1) * stride + width - length)
    pad_left = pad_total // 2
    out = np.full((out_len, channels), -np.inf)
    for t in range(out_len):
        for w in range(width):
            src = t * stride + w - pad_left
            if 0 <= src < length:
                out[t] = np.maximum(out[t], x[src])
    return out


def conv2d_valid_oracle(x, kernel, bias):
    """Naive valid 2-D convolution. x: (H, W, C), kernel: (KH, KW, C, F)."""
    h, w, c_in = x.shape
    kh, kw, _, filters = kernel.shape
    out = np.zeros((h - kh + 1, w - kw + 1, filters))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            patch = x[i : i + kh, j : j + kw]
            for f in range(filters):
                out[i, j, f] = np.sum(patch * kernel[..., f])
    return out + bias


def f1_oracle(counts):
    """Per-class F1 from a confusion matrix, textbook definition."""
    counts = np.asarray(counts, dtype=np.float64)
    k = counts.shape[0]
    f1 = np.zeros(k)
    for c in range(k):
        tp = counts[c, c]
        fp = counts[:, c].sum() - tp
        fn = counts[c, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1[c] = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return f1


def ar2_path(a1, a2, noise_scale, n, rng, burn=300):
    """Reference AR(2) sample path by explicit recursion."""
    noise = rng.standard_normal(n + burn) * noise_scale
    x = np.zeros(n + burn)
    for t in range(2, n + burn):
        x[t] = a1 * x[t - 1] + a2 * x[t - 2] + noise[t]
    return x[burn:]


def maxpool_backward_oracle(x, dy, width, stride):
    """Route each pooled gradient to the lowest-index maximum of its window. x: (L, C)."""
    length, channels = x.shape
    out_len = dy.shape[0]
    pad_total = max(0, (out_len - 1) * stride + width - length)
    pad_left = pad_total // 2
    dx = np.zeros_like(x)
    for t in range(out_len):
        for c in range(channels):
            best, best_src = -np.inf, None
            for w in range(width):
                src = t * stride + w - pad_left
                if 0 <= src < length and x[src, c] > best:
                    best, best_src = x[src, c], src
            dx[best_src, c] += dy[t, c]
    return dx


def conv2d_valid_backward_oracle(x, kernel, dz):
    """Naive gradients of the valid 2-D convolution. x: (H, W, C), dz: (OH, OW, F)."""
    kh, kw, _, _ = kernel.shape
    dx = np.zeros_like(x)
    d_kernel = np.zeros_like(kernel)
    for i in range(dz.shape[0]):
        for j in range(dz.shape[1]):
            for a in range(kh):
                for b in range(kw):
                    d_kernel[a, b] += np.outer(x[i + a, j + b], dz[i, j])
                    dx[i + a, j + b] += kernel[a, b] @ dz[i, j]
    return dx, d_kernel, dz.sum(axis=(0, 1))


# Per-tap batch kernels with the network's signatures and caches: one
# small matmul per kernel tap, and a stacked argmax for the pool. The
# network's GEMM kernels reorder these sums and must agree to rounding.


def conv1d_per_tap(x, kernel, bias):
    batch, length, _ = x.shape
    width, _, filters = kernel.shape
    pad_left = (width - 1) // 2
    xp = np.pad(x, ((0, 0), (pad_left, width - 1 - pad_left), (0, 0)))
    z = np.zeros((batch, length, filters))
    for w in range(width):
        z += xp[:, w : w + length] @ kernel[w]
    return z + bias, (xp, pad_left)


def maxpool_stacked(x, width, stride):
    length = x.shape[1]
    out_len = -(-length // stride)
    pad_total = max(0, (out_len - 1) * stride + width - length)
    pad_left = pad_total // 2
    xp = np.pad(x, ((0, 0), (pad_left, pad_total - pad_left), (0, 0)), constant_values=-np.inf)
    last_start = (out_len - 1) * stride
    stacked = np.stack([xp[:, w : last_start + w + 1 : stride] for w in range(width)])
    arg = stacked.argmax(axis=0)
    y = np.take_along_axis(stacked, arg[None], axis=0)[0]
    return y, (xp.shape, pad_left, arg, out_len)


def conv2d_per_tap(x, kernel, bias):
    batch, height, width, _ = x.shape
    kh, kw, _, filters = kernel.shape
    oh, ow = height - kh + 1, width - kw + 1
    z = np.zeros((batch, oh, ow, filters))
    for i in range(kh):
        for j in range(kw):
            z += x[:, i : i + oh, j : j + ow] @ kernel[i, j]
    return z + bias, (x, (oh, ow))


def conv2d_backward_per_tap(dz, x_shape, kernel, cache):
    x, (oh, ow) = cache
    kh, kw, _, _ = kernel.shape
    d_kernel = np.empty_like(kernel)
    dx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            patch = x[:, i : i + oh, j : j + ow]
            d_kernel[i, j] = np.tensordot(patch, dz, axes=([0, 1, 2], [0, 1, 2]))
            dx[:, i : i + oh, j : j + ow] += dz @ kernel[i, j].T
    return dx, d_kernel, dz.sum(axis=(0, 1, 2))


# Per-channel FT phase randomization and IAAFT, one signal at a time:
# a double argsort for the ranks and a second forward FFT for the phases.


def phase_randomize_per_channel(samples, rng):
    """Replace interior Fourier phases with uniform draws from [0, 2*pi)."""
    n = samples.size
    bins = np.fft.rfft(samples)
    theta = rng.uniform(0.0, 2.0 * np.pi, bins.size)
    randomized = np.abs(bins) * np.exp(1j * theta)
    randomized[0] = bins[0]
    if n % 2 == 0:
        randomized[-1] = bins[-1]
    return np.fft.irfft(randomized, n=n)


def iaaft_per_channel(samples, rng, max_iters, tolerance):
    n = samples.size
    target = np.abs(np.fft.rfft(samples))
    target_norm = np.linalg.norm(target)
    sorted_values = np.sort(samples)

    current = phase_randomize_per_channel(samples, rng)
    best = None
    discrepancies = []
    reason = "max_iters"
    for _ in range(max_iters):
        ranks = np.argsort(np.argsort(current))
        ranked = sorted_values[ranks]
        if target_norm > 0:
            achieved = np.abs(np.fft.rfft(ranked))
            disc = float(np.linalg.norm(achieved - target) / target_norm)
        else:
            disc = 0.0
        if discrepancies and disc >= discrepancies[-1]:
            reason = "stalled"
            break
        discrepancies.append(disc)
        best = ranked
        if disc == 0.0:
            reason = "exact"
            break
        if len(discrepancies) >= 2:
            previous = discrepancies[-2]
            if (previous - disc) / previous <= tolerance:
                reason = "tolerance"
                break
        # spectral adjustment: impose the target amplitudes, keep the phases
        bins = np.fft.rfft(ranked)
        current = np.fft.irfft(target * np.exp(1j * np.angle(bins)), n=n)

    report = IaaftReport(
        iterations=len(discrepancies),
        discrepancies=tuple(discrepancies),
        converged=reason in ("exact", "tolerance", "stalled"),
        reason=reason,
    )
    return best, report
