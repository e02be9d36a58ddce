"""Independent oracles the tests check implementations against.

These deliberately avoid the code paths under test: the DFT oracle is a
direct O(N^2) summation, convolution/pooling oracles are plain Python
loops, and the F1 oracle follows the textbook definition one class at a
time. The per-tap batch kernels are the straightforward
one-product-per-tap form of the network's GEMM kernels. The
per-channel IAAFT loop is the surrogate code as it was before channels
were run in blocks; the block core must reproduce it bit for bit. The
per-row splice is the partial-surrogate patch as it was before the
patches of a block were made in one call, on the per-channel phase
randomization; the block splice must reproduce it bit for bit. The
saliency loops run one full forward per replacement, with per-row
splices. The per-channel synthetic generator is ``generate_synthetic``
as it was before each epoch's channels were drawn and filtered in one
call; the generator must reproduce it byte for byte. The serial network
pass at the very end is the forward and backward as they were before
the channel-group pipes ran on threads: one group after another, each
dropout keep-mask drawn as its layer is reached; the threaded pass must
reproduce it bit for bit.
"""

from dataclasses import replace

import numpy as np

from surrokit import network
from surrokit.errors import InvalidInputError
from surrokit.network import Conv1D, Conv2D, Dense, Dropout, MaxPool1D, Scale
from surrokit.saliency import _validate, _window_geometry, window_positions
from surrokit.seeding import NS_SALIENCY, NS_SYNTH, spawn_rng
from surrokit.surrogates import IaaftReport, crossfade_weights
from surrokit.synthetic import _inject, transient_waveform


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


def _ar_path(coeffs, noise_scale, n, rng):
    burn = 256
    noise = rng.standard_normal(n + burn) * noise_scale
    if not coeffs:
        return noise[burn:]
    from scipy import signal as sps

    denominator = np.concatenate([[1.0], -np.asarray(coeffs)])
    return sps.lfilter([1.0], denominator, noise)[burn:]


def synthetic_per_channel(spec, n_epochs, seed):
    """The samples and labels of ``generate_synthetic``, one draw and one
    filter call per channel."""
    n = spec.epoch_len_samples
    roles = spec.channel_roles
    rng = spawn_rng(seed, NS_SYNTH)
    vocab = spec.label_vocabulary()
    prevalence = np.array([c.prevalence for c in spec.classes], dtype=np.float64)
    prevalence = prevalence / prevalence.sum()

    class_idx = rng.choice(len(spec.classes), size=n_epochs, p=prevalence)
    x = np.empty((n_epochs, len(roles), n))
    for e in range(n_epochs):
        cls = spec.classes[class_idx[e]]
        factor = 1.0
        if cls.scale_jitter > 0.0:
            factor = rng.uniform(1.0 - cls.scale_jitter, 1.0 + cls.scale_jitter)
        for c in range(len(roles)):
            x[e, c] = _ar_path(cls.ar_coeffs, factor * cls.noise_scale, n, rng)
        if cls.transient is not None and cls.transient.count > 0:
            waveform = factor * transient_waveform(cls.transient, spec.sample_rate_hz)
            half = (waveform.size - 1) // 2
            centers = rng.integers(half, n - half, size=cls.transient.count)
            _inject(x[e], roles, cls.transient, waveform, centers)
    labels = np.array([vocab.index(c.name) for c in spec.classes])[class_idx]
    return x, labels


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
# small matmul per kernel tap over the whole batch, and a stacked argmax
# for the pool. The network's layer-1 im2col and 2-D GEMM kernels reorder
# these sums and must agree to rounding; its per-tap Conv1D kernels, run
# in row chunks, must agree bit for bit.


def conv1d_per_tap(x, kernel, bias):
    batch, length, _ = x.shape
    width, _, filters = kernel.shape
    pad_left = (width - 1) // 2
    xp = np.pad(x, ((0, 0), (pad_left, width - 1 - pad_left), (0, 0)))
    z = np.zeros((batch, length, filters))
    for w in range(width):
        z += xp[:, w : w + length] @ kernel[w]
    return z + bias, (xp, pad_left)


def conv1d_backward_per_tap(dz, kernel, cache):
    xp, pad_left = cache
    width = kernel.shape[0]
    length = dz.shape[1]
    d_kernel = np.empty_like(kernel)
    for w in range(width):
        d_kernel[w] = np.matmul(xp[:, w : w + length].transpose(0, 2, 1), dz).sum(axis=0)
    dxp = np.zeros_like(xp)
    for w in range(width):
        dxp[:, w : w + length] += dz @ kernel[w].T
    return dxp[:, pad_left : pad_left + length], d_kernel, dz.sum(axis=(0, 1))


def maxpool_stacked(x, width, stride, keep_arg):
    length = x.shape[1]
    out_len = -(-length // stride)
    pad_total = max(0, (out_len - 1) * stride + width - length)
    pad_left = pad_total // 2
    xp = np.pad(x, ((0, 0), (pad_left, pad_total - pad_left), (0, 0)), constant_values=-np.inf)
    last_start = (out_len - 1) * stride
    stacked = np.stack([xp[:, w : last_start + w + 1 : stride] for w in range(width)])
    arg = stacked.argmax(axis=0)
    y = np.take_along_axis(stacked, arg[None], axis=0)[0]
    return y, (xp.shape, pad_left, arg if keep_arg else None, out_len)


def conv2d_per_tap(x, kernel, bias):
    batch, height, width, _ = x.shape
    kh, kw, _, filters = kernel.shape
    oh, ow = height - kh + 1, width - kw + 1
    z = np.zeros((batch, oh, ow, filters))
    for i in range(kh):
        for j in range(kw):
            z += x[:, i : i + oh, j : j + ow] @ kernel[i, j]
    return z + bias, (x, (oh, ow))


def conv2d_backward_per_tap(dz, kernel, cache):
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
    sorted_values = np.sort(samples, kind="stable")

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


def splice_surrogate_per_row(samples, start, window_len, crossfade_left, crossfade_right, rng):
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
    surrogate = phase_randomize_per_channel(remainder, rng)
    offset = int(rng.integers(0, remainder.size - need + 1))
    patch = surrogate[offset : offset + need]

    weights = crossfade_weights(window_len, crossfade_left, crossfade_right)
    out = samples.copy()
    region = slice(start - crossfade_left, start - crossfade_left + need)
    out[region] = (1.0 - weights) * samples[region] + weights * patch
    return out


# The saliency loops as they were before exact incremental inference: one
# full single-epoch ``predict_batch`` per replacement, on a one-epoch
# dataset. Maps from the block path must agree with these to rounding.


def surrogate_saliency_per_replacement(classifier, epoch, spec):
    """(mean probabilities per position, baseline probabilities)."""
    _validate(epoch, spec)
    baseline = np.asarray(classifier.predict_batch(epoch)[0], dtype=np.float64)
    positions = window_positions(
        epoch.n_samples, epoch.sample_rate_hz, spec.window_len_s, spec.step_s
    )
    means = np.empty((positions.size, baseline.size))
    for p_idx, pos in enumerate(positions):
        start, window_len, cf_left, cf_right = _window_geometry(epoch, pos, spec)
        probs = np.empty((spec.n_replacements, baseline.size))
        for r in range(spec.n_replacements):
            samples = epoch.x.copy()
            for c_idx, role in enumerate(epoch.channel_roles):
                if role not in spec.target_channels:
                    continue
                rng = spawn_rng(spec.seed, NS_SALIENCY, p_idx, r, c_idx)
                samples[0, c_idx] = splice_surrogate_per_row(
                    epoch.x[0, c_idx], start, window_len, cf_left, cf_right, rng
                )
            probs[r] = classifier.predict_batch(replace(epoch, x=samples))[0]
        means[p_idx] = probs.mean(axis=0)
    return means, baseline


def zero_out_saliency_per_position(classifier, epoch, spec):
    """(probabilities per position, baseline probabilities)."""
    _validate(epoch, spec)
    baseline = np.asarray(classifier.predict_batch(epoch)[0], dtype=np.float64)
    positions = window_positions(
        epoch.n_samples, epoch.sample_rate_hz, spec.window_len_s, spec.step_s
    )
    means = np.empty((positions.size, baseline.size))
    for p_idx, pos in enumerate(positions):
        start, window_len, cf_left, cf_right = _window_geometry(epoch, pos, spec)
        weights = crossfade_weights(window_len, cf_left, cf_right)
        region = slice(start - cf_left, start - cf_left + weights.size)
        samples = epoch.x.copy()
        for c_idx, role in enumerate(epoch.channel_roles):
            if role in spec.target_channels:
                samples[0, c_idx, region] = (1.0 - weights) * samples[0, c_idx, region]
        means[p_idx] = classifier.predict_batch(replace(epoch, x=samples))[0]
    return means, baseline


# The serial network pass: every channel group's pipe on the calling
# thread, one after another, then the joined pipe. Kernels come from the
# network module, so only the orchestration differs.


def _serial_run_pipe(layers, group, weights, x, training, rng, caches):
    for layer in layers:
        if isinstance(layer, Scale):
            k = weights[f"{group}/{layer.name}/scale"]
            caches.append((layer, group, x))
            x = k[0] * x
        elif isinstance(layer, Conv1D):
            kernel = weights[f"{group}/{layer.name}/kernel"]
            bias = weights[f"{group}/{layer.name}/bias"]
            z, cache = network._conv1d_forward(x, kernel, bias)
            mask = z > 0 if layer.activation == "relu" else None
            caches.append((layer, group, (x.shape, cache, mask)))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, MaxPool1D):
            y, cache = network._maxpool_forward(x, layer.width, layer.stride, True)
            caches.append((layer, group, (x.shape, cache)))
            x = y
        elif isinstance(layer, Conv2D):
            kernel = weights[f"{group}/{layer.name}/kernel"]
            bias = weights[f"{group}/{layer.name}/bias"]
            z, cache = network._conv2d_forward(x, kernel, bias)
            mask = z > 0 if layer.activation == "relu" else None
            caches.append((layer, group, (x.shape, cache, mask)))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, Dense):
            kernel = weights[f"{group}/{layer.name}/kernel"]
            bias = weights[f"{group}/{layer.name}/bias"]
            flat = x.reshape(x.shape[0], -1)
            z = flat @ kernel + bias
            mask = z > 0 if layer.activation == "relu" else None
            caches.append((layer, group, (x.shape, flat, mask)))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, Dropout):
            if training and layer.rate > 0.0:
                if rng is None:
                    raise InvalidInputError("training-mode forward needs an rng for dropout")
                keep = rng.random(x.shape) >= layer.rate
                caches.append((layer, group, keep))
                x = x * keep * (1.0 / (1.0 - layer.rate))
            else:
                caches.append((layer, group, None))
    return x


def _serial_pipe_backward(caches, weights, grads, dy):
    for layer, group, cache in reversed(caches):
        prefix = f"{group}/{layer.name}/"
        if isinstance(layer, Scale):
            grads[prefix + "scale"] = np.array([np.sum(dy * cache)])
            dy = weights[prefix + "scale"][0] * dy
        elif isinstance(layer, MaxPool1D):
            x_shape, pool_cache = cache
            dy = network._maxpool_backward(dy, x_shape, layer.stride, pool_cache)
        elif isinstance(layer, Dropout):
            if cache is not None:
                dy = dy * cache * (1.0 / (1.0 - layer.rate))
        else:
            x_shape, inputs, mask = cache
            dz = dy * mask if mask is not None else dy
            kernel = weights[prefix + "kernel"]
            if isinstance(layer, Conv1D):
                dy, grads[prefix + "kernel"], grads[prefix + "bias"] = network._conv1d_backward(
                    dz, kernel, inputs
                )
            elif isinstance(layer, Conv2D):
                dy, grads[prefix + "kernel"], grads[prefix + "bias"] = network._conv2d_backward(
                    dz, kernel, inputs
                )
            else:
                grads[prefix + "kernel"] = inputs.T @ dz
                grads[prefix + "bias"] = dz.sum(axis=0)
                dy = (dz @ kernel.T).reshape(x_shape)
    return dy


def serial_forward_batch(descriptor, weights, x, training=False, rng=None, caches=None):
    """(probabilities, logits); with a ``caches`` dict, it receives the
    per-group and joined layer caches."""
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[0]
    group_channels = network._group_channels(descriptor)
    outputs = [None] * len(descriptor.channel_roles)
    group_caches = []
    for group, idxs in group_channels:
        stacked = x[:, idxs].transpose(1, 0, 2).reshape(len(idxs) * batch, descriptor.input_len, 1)
        pipe_caches = []
        h = _serial_run_pipe(
            descriptor.channel_pipe, group, weights, stacked, training, rng, pipe_caches
        )
        h = h.reshape(len(idxs), batch, h.shape[1], h.shape[2])
        for j, idx in enumerate(idxs):
            outputs[idx] = h[j]
        group_caches.append(pipe_caches)
    joined_caches = []
    logits = _serial_run_pipe(
        descriptor.joined_pipe, network.JOINED_GROUP, weights, np.stack(outputs, axis=2),
        training, rng, joined_caches,
    )
    if caches is not None:
        caches.update(groups=list(zip(group_channels, group_caches)), joined=joined_caches)
    return network._softmax(logits), logits


def serial_loss_and_gradients(descriptor, weights, x, labels, training=True, rng=None):
    """(loss, grads, probabilities) of the serial pass."""
    labels = np.asarray(labels)
    caches = {}
    probs, logits = serial_forward_batch(descriptor, weights, x, training, rng, caches)
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(batch), labels].mean())
    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch
    grads = {}
    d_joined = _serial_pipe_backward(caches["joined"], weights, grads, d_logits)
    for (group, idxs), pipe_caches in caches["groups"]:
        d_stacked = np.concatenate([d_joined[:, :, i, :] for i in idxs], axis=0)
        _serial_pipe_backward(pipe_caches, weights, grads, d_stacked)
    return loss, grads, probs
