"""Two-stage convolutional classifier built from a declarative descriptor.

Stage one runs each input channel through a shared-architecture pipe of
1-D convolutions and max-pools; channel roles map to parameter groups,
so e.g. two EEG channels can share one set of weights. Stage two stacks
the pipe outputs into a (length, n_channels, filters) tensor and applies
a 2-D convolution followed by dense layers and a softmax.

Shapes, parameter counts, initialization, and the forward/backward pass
are all derived from the descriptor, never hard-coded. Padding
conventions: 1-D convolutions use same-padding with unit stride (left
pad (W-1)//2), max-pool uses same-padding with the extra sample on the
right, the 2-D convolution uses valid padding. ``spliced_forward`` is the
inference pass for copies of one epoch that differ in one sample range:
from the epoch's cached channel-pipe activations it recomputes only the
output ranges those samples reach, by the same padding rules.

In ``forward_batch`` and ``loss_and_gradients`` a channel pipe runs its
rows (channel copies of epochs) end to end in chunks of ``_pipe_rows``
rows, forward and backward: the widest layer output of a chunk fits
``PIPE_BYTES``, so a convolution's per-tap products stay in cache, and
a training step holds its backward caches plus one chunk's working set,
not whole-batch activations. Rows are independent, so every
row gets the bits it gets alone. Each parameter gradient keeps the bits of one whole-batch pass:
a convolution's kernel and bias gradients are numpy's outer-axis sums
over rows, which run in sequence, so the next chunk continues them from
the running value; the Scale's sum over all of a group's rows is
pairwise, so it runs once over the products of every chunk. The pool
finds each window's winning tap only when a backward pass will read it.
The input-gradient products of the backward pass multiply by a contiguous
copy of the transposed kernel, which OpenBLAS runs about twice as fast as
a transposed view, with the same bits at the reference network's widths.

Weights are a flat dict keyed "group/layer/param" of float64 arrays.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, ShapeError
from .parallel import _map_partitioned
from .signals import DEFAULT_ROLES

DEFAULT_SHARING = {"EEG1": "eeg", "EEG2": "eeg", "EOG": "eog", "EMG": "emg"}
JOINED_GROUP = "joined"
# bytes of a channel-pipe chunk's widest layer output: 32 rows of 960
# samples x 8 filters, so it and a convolution's per-tap product stay
# near a 2 MB L2 cache (32 rows for the reference network, 16 for the full)
PIPE_BYTES = 32 * 960 * 8 * 8


@dataclass(frozen=True)
class Scale:
    name: str = "scale"
    init: float = 0.05


@dataclass(frozen=True)
class Conv1D:
    name: str
    width: int
    filters: int
    activation: str = "relu"


@dataclass(frozen=True)
class MaxPool1D:
    name: str
    width: int = 3
    stride: int = 2


@dataclass(frozen=True)
class Conv2D:
    name: str
    height: int
    width: int
    filters: int
    activation: str = "relu"


@dataclass(frozen=True)
class Dense:
    name: str
    units: int
    activation: str = "relu"


@dataclass(frozen=True)
class Dropout:
    name: str
    rate: float

    def __post_init__(self):
        # the inverted scaling divides by 1 - rate
        rate = self.rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 <= rate < 1:
            raise InvalidInputError(
                f"{self.name}: dropout rate must be a number in [0, 1), got {rate!r}"
            )


@dataclass(frozen=True)
class ArchitectureDescriptor:
    """Declarative description of the full model.

    ``parameter_sharing`` maps each channel role to the parameter group
    its pipe draws weights from; roles mapping to the same group share
    parameters.
    """

    name: str
    input_len: int
    channel_pipe: tuple
    joined_pipe: tuple
    channel_roles: tuple = DEFAULT_ROLES
    parameter_sharing: tuple = tuple(sorted(DEFAULT_SHARING.items()))

    def sharing_map(self) -> dict:
        return dict(self.parameter_sharing)

    def n_classes(self) -> int:
        last = self.joined_pipe[-1]
        if not isinstance(last, Dense):
            raise InvalidInputError("joined pipe must end with a Dense layer")
        return last.units


@dataclass(frozen=True)
class ShapeReport:
    """Per-layer output shapes, dropout layers omitted (they change nothing)."""

    channel: tuple  # ((layer_name, shape), ...)
    joined_input: tuple
    joined: tuple


def _pool_geometry(length: int, width: int, stride: int):
    out_len = -(-length // stride)
    pad_total = max(0, (out_len - 1) * stride + width - length)
    pad_left = pad_total // 2
    return out_len, pad_left, pad_total - pad_left


_CHANNEL_LAYERS = (Scale, Conv1D, MaxPool1D)
_JOINED_LAYERS = (Conv2D, Dense)


def _layer_rule(layer, shape):
    """Output shape and ``{param: shape}`` of one layer applied to ``shape``."""
    if isinstance(layer, Scale):
        return shape, {"scale": (1,)}
    if isinstance(layer, Conv1D):
        c_in = shape[1] if len(shape) == 2 else 1
        params = {"kernel": (layer.width, c_in, layer.filters), "bias": (layer.filters,)}
        return (shape[0], layer.filters), params
    if isinstance(layer, MaxPool1D):
        if len(shape) != 2:
            raise ShapeError(f"{layer.name}: max-pool expects (length, channels), got {shape}")
        out_len, _, _ = _pool_geometry(shape[0], layer.width, layer.stride)
        return (out_len, shape[1]), {}
    if isinstance(layer, Conv2D):
        if len(shape) != 3:
            raise ShapeError(f"{layer.name}: 2-D convolution expects a rank-3 input, got {shape}")
        h, w, c_in = shape
        oh, ow = h - layer.height + 1, w - layer.width + 1
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"{layer.name}: kernel {layer.height}x{layer.width} exceeds input {h}x{w}"
            )
        kernel = (layer.height, layer.width, c_in, layer.filters)
        return (oh, ow, layer.filters), {"kernel": kernel, "bias": (layer.filters,)}
    # Dense flattens its input
    return (layer.units,), {"kernel": (math.prod(shape), layer.units), "bias": (layer.units,)}


def _joined_input(descriptor, shape):
    """Stage-two input shape from the channel pipe's output shape."""
    if len(shape) != 2:
        raise ShapeError("channel pipe must end with a (length, filters) shape")
    return (shape[0], len(descriptor.channel_roles), shape[1])


def _walk_pipe(group, layers, shape, allowed, pipe):
    for layer in layers:
        if isinstance(layer, Dropout):
            continue
        if not isinstance(layer, allowed):
            raise ShapeError(f"{layer.name}: layer type not allowed in the {pipe} pipe")
        shape, params = _layer_rule(layer, shape)
        yield group, layer, shape, params
    return shape


def _walk(descriptor):
    """Yield ``(group, layer, out_shape, {param: shape})`` in init order.

    Channel groups come in first-appearance order, each walking the
    channel pipe, then the joined pipe; dropout layers are skipped. A
    layer that does not fit its input raises ShapeError.
    """
    shape = (descriptor.input_len,)  # with no channel roles, _joined_input rejects it
    for group, _ in _group_channels(descriptor):
        if group == JOINED_GROUP:
            raise InvalidInputError(f"parameter group {group!r} is reserved for the joined pipe")
        shape = yield from _walk_pipe(
            group, descriptor.channel_pipe, (descriptor.input_len,), _CHANNEL_LAYERS, "channel"
        )
    joined_input = _joined_input(descriptor, shape)
    yield from _walk_pipe(
        JOINED_GROUP, descriptor.joined_pipe, joined_input, _JOINED_LAYERS, "joined"
    )


def _pipe_rows(descriptor):
    """Rows per channel-pipe chunk: as many as keep the widest layer
    output of the pipe within ``PIPE_BYTES``, and at least one. Only the
    reference network's 32 rows are timed by a benchmark; the full
    network's 16 are not (README "Threads and memory")."""
    steps = _walk_pipe(
        None, descriptor.channel_pipe, (descriptor.input_len,), _CHANNEL_LAYERS, "channel"
    )
    widest = max((math.prod(shape) for _, _, shape, _ in steps), default=descriptor.input_len)
    return max(1, PIPE_BYTES // (8 * widest))


def _chunks(n_rows, rows):
    """Slices of ``rows`` rows, the last one shorter, covering ``n_rows``."""
    return [slice(start, start + rows) for start in range(0, n_rows, rows)]


def infer_shapes(descriptor: ArchitectureDescriptor) -> ShapeReport:
    """Walk the descriptor and report every layer's output shape."""
    steps = list(_walk(descriptor))
    first = steps[0][0]
    channel = tuple((layer.name, shape) for group, layer, shape, _ in steps if group == first)
    joined = tuple((layer.name, shape) for group, layer, shape, _ in steps if group == JOINED_GROUP)
    return ShapeReport(channel, _joined_input(descriptor, channel[-1][1]), joined)


@dataclass(frozen=True)
class ParameterCount:
    channel_pipe: int
    joined_pipe: int
    channel_groups: int
    total: int


def count_parameters(descriptor: ArchitectureDescriptor) -> ParameterCount:
    """Trainable parameter totals per pipe, derived from the descriptor."""
    per_group = {}
    for group, _, _, params in _walk(descriptor):
        n = sum(math.prod(shape) for shape in params.values())
        per_group[group] = per_group.get(group, 0) + n
    joined = per_group.pop(JOINED_GROUP, 0)
    channel = next(iter(per_group.values()))
    return ParameterCount(
        channel_pipe=channel,
        joined_pipe=joined,
        channel_groups=len(per_group),
        total=len(per_group) * channel + joined,
    )


def weight_shapes(descriptor: ArchitectureDescriptor) -> dict:
    """Expected tensor shapes keyed "group/layer/param"."""
    return {
        f"{group}/{layer.name}/{param}": shape
        for group, layer, _, params in _walk(descriptor)
        for param, shape in params.items()
    }


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_weights(descriptor: ArchitectureDescriptor, rng) -> dict:
    """Glorot-uniform kernels, zero biases, configured scale constants.

    ``rng`` may be a Generator or an integer seed. Kernels are drawn in
    walk order (channel groups in first-appearance order, then the joined
    pipe); biases and scales draw nothing, so initialization is
    deterministic given the seed. A kernel of shape
    ``(*receptive, c_in, f)`` has fan-in ``prod(shape[:-1])`` and fan-out
    ``prod(receptive) * f``.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(np.random.SeedSequence(rng))
    weights = {}
    for group, layer, _, params in _walk(descriptor):
        for param, shape in params.items():
            key = f"{group}/{layer.name}/{param}"
            if param == "scale":
                weights[key] = np.array([layer.init])
            elif param == "bias":
                weights[key] = np.zeros(shape)
            else:
                limit = glorot_limit(math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1])
                weights[key] = rng.uniform(-limit, limit, shape)
    return weights


def validate_weights(descriptor: ArchitectureDescriptor, weights: dict) -> None:
    expected = weight_shapes(descriptor)
    for key, shape in expected.items():
        if key not in weights:
            raise InvalidInputError(f"missing weight tensor {key!r}")
        if tuple(weights[key].shape) != shape:
            raise InvalidInputError(
                f"tensor {key!r} has shape {tuple(weights[key].shape)}, expected {shape}"
            )
        if not np.all(np.isfinite(weights[key])):
            raise InvalidInputError(f"tensor {key!r} contains non-finite values")
    extra = set(weights) - set(expected)
    if extra:
        raise InvalidInputError(f"unexpected weight tensors: {sorted(extra)}")


# ---------------------------------------------------------------------------
# forward / backward


def _softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _padded(x, pad_left, pad_right, fill):
    # x padded with fill along axis 1, without np.pad's Python overhead
    batch, length, chans = x.shape
    xp = np.empty((batch, pad_left + length + pad_right, chans))
    xp[:, :pad_left] = xp[:, pad_left + length :] = fill
    xp[:, pad_left : pad_left + length] = x
    return xp


def _conv1d_forward(x, kernel, bias):
    # x: (B, L, C), kernel: (W, C, F) -> (B, L, F), same padding, stride 1.
    batch, length, c_in = x.shape
    width, _, filters = kernel.shape
    pad_left = (width - 1) // 2
    xp = _padded(x, pad_left, width - 1 - pad_left, 0.0)
    z = np.empty((batch, length, filters))
    # single input channel: im2col (L, W) windows, one GEMM. Else one
    # matmul per kernel tap into a buffer, added to the output: 31-37 ms at
    # 240 rows x 480 samples x 8 channels x 19 taps x 8 filters in chunks of
    # 32 rows with one BLAS thread, against 54-58 ms for one 2-D GEMM per
    # tap over the flattened padded rows, 89-97 ms for a W-fold im2col and
    # 160-240 ms for one all-taps GEMM and W strided adds.
    if c_in == 1:
        cols = sliding_window_view(xp[:, :, 0], width, axis=1).reshape(-1, width)
        np.matmul(cols, kernel[:, 0, :], out=z.reshape(-1, filters))
    else:
        z.fill(0.0)
        tap = np.empty_like(z)
        for w in range(width):
            np.matmul(xp[:, w : w + length], kernel[w], out=tap)
            z += tap
    z += bias
    return z, (xp, pad_left)


def _conv1d_backward(dz, kernel, cache, kernel_head=None, bias_head=None):
    """Input, kernel and bias gradients; ``dz`` may be overwritten. The
    kernel and bias sums over rows continue from the heads, the running
    gradients of the chunks before (module docstring)."""
    xp, pad_left = cache
    width, c_in, filters = kernel.shape
    batch, length, _ = dz.shape
    d_kernel = np.empty_like(kernel)
    products = np.empty((batch, c_in, filters))
    for w in range(width):
        np.matmul(xp[:, w : w + length].transpose(0, 2, 1), dz, out=products)
        if kernel_head is not None:
            products[0] += kernel_head[w]  # the sum [head, p0, p1, ...] begins head + p0
        d_kernel[w] = products.sum(0)
    dxp = np.zeros_like(xp)
    tap = np.empty((batch, length, c_in))
    # a contiguous (W, F, C) copy: OpenBLAS takes 0.07-0.10 ms per tap on it
    # against 0.13-0.24 ms on the transposed view kernel[w].T (32 rows x 480
    # samples x 8 -> 8 channels, one BLAS thread); the bits are the view's
    # at the reference widths, and within 4e-16 at the full layer 3 (F = 23)
    kernel_t = np.ascontiguousarray(kernel.transpose(0, 2, 1))
    for w in range(width):
        np.matmul(dz, kernel_t[w], out=tap)
        dxp[:, w : w + length] += tap
    if bias_head is not None:
        dz[0, 0] += bias_head
    return dxp[:, pad_left : pad_left + length], d_kernel, dz.sum(axis=(0, 1))


def _maxpool_forward(x, width, stride, keep_arg):
    # x: (B, L, C) -> (B, out_len, C), same padding with -inf; the winning
    # taps are found only with keep_arg, for a backward pass
    _, length, _ = x.shape
    out_len, pad_left, pad_right = _pool_geometry(length, width, stride)
    xp = _padded(x, pad_left, pad_right, -np.inf)
    y, arg = _maxpool_padded(xp, width, stride, out_len, keep_arg)
    return y, (xp.shape, pad_left, arg, out_len)


def _maxpool_padded(xp, width, stride, out_len, keep_arg):
    # Pool an already padded xp: output t is the maximum of
    # xp[:, t*stride : t*stride + width]. A running maximum over the W
    # strided views; with keep_arg, arg records the winning tap (else it
    # is None), and the strict > keeps the lowest index on ties. arg is
    # held for the backward pass, so it takes the smallest integer type.
    last_start = (out_len - 1) * stride
    y = xp[:, 0 : last_start + 1 : stride].copy()
    arg = np.zeros(y.shape, dtype=np.min_scalar_type(width - 1)) if keep_arg else None
    won = np.empty(y.shape, dtype=bool) if keep_arg else None
    for w in range(1, width):
        view = xp[:, w : last_start + w + 1 : stride]
        if keep_arg:
            # a later tap that wins has a larger index, so a maximum records
            # it: 2.2 ms per tap, compare included, against 17-19 ms for a
            # masked np.copyto at 512 rows x 480 x 8
            np.greater(view, y, out=won)
            np.maximum(arg, won * arg.dtype.type(w), out=arg)
        np.maximum(y, view, out=y)
    return y, arg


def _maxpool_backward(dy, x_shape, stride, cache):
    xp_shape, pad_left, arg, out_len = cache
    batch, length, chans = x_shape
    # flat index ((b * padded_len + t * stride + arg) * chans + c), built in
    # one int64 array so no other pooled-size temporary is allocated
    flat = arg.astype(np.int64)
    flat += (np.arange(out_len) * stride)[:, None]
    flat += (np.arange(batch) * xp_shape[1])[:, None, None]
    flat *= chans
    flat += np.arange(chans)
    dxp = np.bincount(
        flat.ravel(), weights=dy.ravel(), minlength=batch * xp_shape[1] * chans
    ).reshape(batch, xp_shape[1], chans)
    return dxp[:, pad_left : pad_left + length, :]


def _conv2d_forward(x, kernel, bias):
    # x: (B, H, W, C), kernel: (KH, KW, C, F), valid padding -> (B, OH, OW, F).
    # Each tap's patch is flattened to (B*OH*OW, C), so a tap is one GEMM.
    batch, height, width, c_in = x.shape
    kh, kw, _, filters = kernel.shape
    oh, ow = height - kh + 1, width - kw + 1
    z = np.zeros((batch * oh * ow, filters))
    for i in range(kh):
        for j in range(kw):
            z += x[:, i : i + oh, j : j + ow].reshape(-1, c_in) @ kernel[i, j]
    z += bias
    return z.reshape(batch, oh, ow, filters), (x, (oh, ow))


def _conv2d_backward(dz, kernel, cache):
    x, (oh, ow) = cache
    kh, kw, c_in, filters = kernel.shape
    d_bias = dz.sum(axis=(0, 1, 2))
    d_kernel = np.empty_like(kernel)
    dx = np.zeros_like(x)
    dz_flat = dz.reshape(-1, filters)
    patch_shape = (x.shape[0], oh, ow, c_in)
    # contiguous (KH, KW, F, C), for the reason given in _conv1d_backward
    kernel_t = np.ascontiguousarray(kernel.transpose(0, 1, 3, 2))
    for i in range(kh):
        for j in range(kw):
            patch = x[:, i : i + oh, j : j + ow].reshape(-1, c_in)
            d_kernel[i, j] = patch.T @ dz_flat
            dx[:, i : i + oh, j : j + ow] += (dz_flat @ kernel_t[i, j]).reshape(patch_shape)
    return dx, d_kernel, d_bias


def _run_pipe(layers, group, weights, x, keeps=None, caches=None):
    """Apply a layer pipe to ``x``, which it may overwrite.

    ``keeps`` iterates the pipe's dropout keep-masks (``_draw_keeps``);
    without it dropout is off. A ``caches`` list receives each layer's
    state for the backward pass; without one none is kept.
    """
    for layer in layers:
        if isinstance(layer, Scale):
            if caches is not None:
                caches.append((layer, group, x))
            x = weights[f"{group}/{layer.name}/scale"][0] * x
        elif isinstance(layer, MaxPool1D):
            y, cache = _maxpool_forward(x, layer.width, layer.stride, caches is not None)
            if caches is not None:
                caches.append((layer, group, (x.shape, cache)))
            x = y
        elif isinstance(layer, Dropout):
            keep = next(keeps) if keeps is not None else None
            if keep is not None:
                x *= keep
                x *= 1.0 / (1.0 - layer.rate)
            if caches is not None:
                caches.append((layer, group, keep))
        elif isinstance(layer, (Conv1D, Conv2D, Dense)):
            kernel = weights[f"{group}/{layer.name}/kernel"]
            bias = weights[f"{group}/{layer.name}/bias"]
            if isinstance(layer, Conv1D):
                z, cache = _conv1d_forward(x, kernel, bias)
            elif isinstance(layer, Conv2D):
                z, cache = _conv2d_forward(x, kernel, bias)
            else:
                cache = x.reshape(x.shape[0], -1)  # Dense flattens its input
                z = cache @ kernel + bias
            relu = layer.activation == "relu"  # a softmax output stays logits here
            if caches is not None:
                caches.append((layer, group, (x.shape, cache, z > 0 if relu else None)))
            if relu:
                np.maximum(z, 0.0, out=z)
            x = z
        else:
            raise ShapeError(f"{layer.name}: unsupported layer type")
    return x


def _draw_keeps(layers, shape, rng):
    """The dropout keep-masks of one training pass of a pipe over inputs
    of ``shape`` (batch first), in layer order; None for a zero rate."""
    keeps = []
    for layer in layers:
        if not isinstance(layer, Dropout):
            shape = shape[:1] + _layer_rule(layer, shape[1:])[0]
        elif layer.rate == 0.0:
            keeps.append(None)
        elif rng is None:
            raise InvalidInputError("training-mode forward needs an rng for dropout")
        else:
            keeps.append(rng.random(shape) >= layer.rate)
    return keeps


def _pipe_backward(caches, weights, grads, dy, scale_products=None):
    """Pop the cached layers last to first, writing parameter gradients
    to ``grads``; each layer's state is released once it is used. ``dy``
    may be overwritten. A Conv1D continues the gradients in ``grads``,
    and a Scale appends its products to ``scale_products[key]`` for the
    caller to sum (module docstring)."""
    while caches:
        layer, group, cache = caches.pop()
        prefix = f"{group}/{layer.name}/"
        if isinstance(layer, Scale):
            scale_products.setdefault(prefix + "scale", []).append(dy * cache)
            dy = weights[prefix + "scale"][0] * dy
        elif isinstance(layer, MaxPool1D):
            x_shape, pool_cache = cache
            dy = _maxpool_backward(dy, x_shape, layer.stride, pool_cache)
        elif isinstance(layer, Dropout):
            if cache is not None:
                dy *= cache
                dy *= 1.0 / (1.0 - layer.rate)
        else:
            x_shape, inputs, mask = cache
            if mask is not None:
                dy *= mask
            kernel = weights[prefix + "kernel"]
            if isinstance(layer, Conv1D):
                dx, dk, db = _conv1d_backward(
                    dy, kernel, inputs, grads.get(prefix + "kernel"), grads.get(prefix + "bias")
                )
            elif isinstance(layer, Conv2D):
                dx, dk, db = _conv2d_backward(dy, kernel, inputs)
            else:
                dx, dk, db = (dy @ kernel.T).reshape(x_shape), inputs.T @ dy, dy.sum(axis=0)
            grads[prefix + "kernel"], grads[prefix + "bias"] = dk, db
            dy = dx
    return dy


def _group_channels(descriptor):
    """Channel indices per parameter group, in first-appearance order."""
    sharing = descriptor.sharing_map()
    order = []
    members = {}
    for i, role in enumerate(descriptor.channel_roles):
        group = sharing[role]
        if group not in members:
            members[group] = []
            order.append(group)
        members[group].append(i)
    return [(group, tuple(members[group])) for group in order]


def _checked_input(descriptor, x):
    x = np.asarray(x, dtype=np.float64)
    n_roles = len(descriptor.channel_roles)
    if x.ndim != 3 or x.shape[1] != n_roles or x.shape[2] != descriptor.input_len:
        raise InvalidInputError(
            f"expected input (batch, {n_roles}, {descriptor.input_len}), got {x.shape}"
        )
    return x


def _stacked_rows(x, idxs):
    """Channels ``idxs`` of a (batch, n_channels, length) input as pipe
    rows, channel after channel: (len(idxs) * batch, length, 1)."""
    return x[:, idxs].transpose(1, 0, 2).reshape(len(idxs) * x.shape[0], x.shape[2], 1)


def _check_roles(descriptor, roles):
    if tuple(roles) != tuple(descriptor.channel_roles):
        raise InvalidInputError(
            f"channel roles {tuple(roles)} do not match the network's roles "
            f"{tuple(descriptor.channel_roles)}"
        )


def forward_batch(descriptor, weights, x, training=False, rng=None, return_caches=False):
    """Forward pass over a batch.

    Args:
        x: (batch, n_channels, input_len) float64 array.
        training: enable dropout (requires rng).

    ``weights`` are not checked here; ``validate_weights`` runs once where
    they enter (checkpoint load and save, ``NetworkClassifier`` and
    ``train_network``), not on every forward.

    Channels sharing a parameter group run through the pipe as one
    stacked batch, so shared gradients accumulate in a single pass; its
    rows run in chunks of ``_pipe_rows``, each through the whole pipe. The
    groups' pipes run in parallel (``_map_partitioned``). Every dropout
    keep-mask is drawn from ``rng`` before they start, group by group and
    layer by layer over all of a group's rows, then the joined pipe's, so
    the draws do not depend on the chunks or on which pipe finishes first.

    Returns:
        (probabilities, logits) or, with ``return_caches``, a third
        element holding per-group lists of per-chunk channel-pipe caches
        and the joined pipe's caches.
    """
    x = _checked_input(descriptor, x)
    batch = x.shape[0]
    group_channels = _group_channels(descriptor)
    rows = _pipe_rows(descriptor)
    pipe_keeps = [
        _draw_keeps(descriptor.channel_pipe, (len(idxs) * batch, descriptor.input_len, 1), rng)
        if training
        else None
        for _, idxs in group_channels
    ]

    def run_group(g):
        group, idxs = group_channels[g]
        stacked = _stacked_rows(x, idxs)
        outs, chunk_caches = [], []
        for part in _chunks(len(stacked), rows):
            keeps = None
            if pipe_keeps[g] is not None:
                keeps = iter([None if keep is None else keep[part] for keep in pipe_keeps[g]])
            caches = [] if return_caches else None
            h = _run_pipe(descriptor.channel_pipe, group, weights, stacked[part], keeps, caches)
            outs.append(h)
            chunk_caches.append(caches)
        h = np.concatenate(outs)
        return h.reshape(len(idxs), batch, h.shape[1], h.shape[2]), chunk_caches

    results = _map_partitioned(run_group, [len(idxs) for _, idxs in group_channels])
    outputs = [None] * len(descriptor.channel_roles)
    for (_, idxs), (h, _) in zip(group_channels, results):
        for j, idx in enumerate(idxs):
            outputs[idx] = h[j]
    joined = np.stack(outputs, axis=2)  # (B, L, n_channels, F)

    keeps = iter(_draw_keeps(descriptor.joined_pipe, joined.shape, rng)) if training else None
    joined_caches = [] if return_caches else None
    logits = _run_pipe(descriptor.joined_pipe, JOINED_GROUP, weights, joined, keeps, joined_caches)
    probs = _softmax(logits)
    if return_caches:
        return probs, logits, (group_channels, [c for _, c in results], joined_caches)
    return probs, logits


def channel_activations(descriptor, weights, x) -> list:
    """Inference-mode output of every channel-pipe layer, per channel.

    Args:
        x: (batch, n_channels, input_len) float64 array.

    Returns:
        One list per channel: the pipe input (batch, input_len, 1), then
        each non-dropout layer's (batch, length, filters) output. Channels
        of one parameter group run as one stacked batch, as in
        ``forward_batch``; every row gets the bits it gets alone, so the
        arithmetic is that of ``forward_batch``'s row chunks.
    """
    x = _checked_input(descriptor, x)
    layers = [layer for layer in descriptor.channel_pipe if not isinstance(layer, Dropout)]
    batch = x.shape[0]
    activations = [None] * x.shape[1]
    for group, idxs in _group_channels(descriptor):
        outs = [_stacked_rows(x, idxs)]
        for layer in layers:
            outs.append(_run_pipe((layer,), group, weights, outs[-1]))
        for j, idx in enumerate(idxs):
            activations[idx] = [out[j * batch : (j + 1) * batch] for out in outs]
    return activations


def _layer_reach(layer, length, lo, hi):
    """Output range [olo, ohi) that input samples [lo, hi) reach, and the
    input range [a, b) those outputs read, unclipped (it may cross the
    padding). Output t reads inputs [t*stride - pad, t*stride - pad + width);
    a Scale is a width-1 convolution."""
    if isinstance(layer, MaxPool1D):
        width, stride = layer.width, layer.stride
        out_len, pad, _ = _pool_geometry(length, width, stride)
    else:
        width = layer.width if isinstance(layer, Conv1D) else 1
        stride, out_len, pad = 1, length, (width - 1) // 2
    olo = max(0, (lo + pad - width) // stride + 1)
    ohi = min(out_len, -(-(hi + pad) // stride))
    if ohi <= olo:
        return olo, olo, 0, 0
    return olo, ohi, olo * stride - pad, (ohi - 1) * stride - pad + width


def spliced_layers(descriptor, weights, activations, channels, rows, lo, hi):
    """Yield ``(segment, olo, ohi)`` per non-dropout channel-pipe layer.

    ``channels`` are input channels of one parameter group, and ``rows``
    stacks R replacements per channel, channel after channel, as
    (len(channels) * R, input_len). Each block of R rows equals its
    channel of the epoch whose ``channel_activations`` are ``activations``
    (a batch of one) everywhere outside samples [lo, hi). Each layer is
    recomputed only over the output range [olo, ohi) those samples reach;
    ``segment`` (len(rows), ohi - olo, filters) holds it, each row over
    its own channel's cached activations, and outside it the layer's
    output equals the cached one. A convolution runs the network's kernel
    on the input range it reads, clipped to the signal, so its own zero
    padding is the full forward's; a max-pool pads that range with -inf
    itself.
    """
    sharing = descriptor.sharing_map()
    groups = {sharing[descriptor.channel_roles[c]] for c in channels}
    if len(groups) != 1:
        raise InvalidInputError(
            f"spliced channels {list(channels)} must share one parameter group, "
            f"not {sorted(groups)}"
        )
    (group,) = groups
    n_rows = len(rows)
    if n_rows % len(channels):
        raise InvalidInputError(f"{n_rows} rows do not split over {len(channels)} channels")
    per_channel = n_rows // len(channels)
    layers = [layer for layer in descriptor.channel_pipe if not isinstance(layer, Dropout)]
    acts = [activations[c] for c in channels]
    segment = rows[:, lo:hi, None]
    for k, layer in enumerate(layers):
        _, length, c_in = acts[0][k].shape
        olo, ohi, a, b = _layer_reach(layer, length, lo, hi)
        if ohi == olo:
            segment = np.empty((n_rows, 0, acts[0][k + 1].shape[2]))
        else:
            if not isinstance(layer, MaxPool1D):
                a, b = max(a, 0), min(b, length)
            # the input over [a, b): each channel's cached samples with the
            # recomputed range written over them, and -inf where a pool's
            # range crosses the signal edge
            x = np.full((n_rows, b - a, c_in), -np.inf)
            a_in, b_in = max(a, 0), min(b, length)
            for j, channel_acts in enumerate(acts):
                block = slice(j * per_channel, (j + 1) * per_channel)
                x[block, a_in - a : b_in - a] = channel_acts[k][:, a_in:b_in]
            s_lo, s_hi = max(lo, a), min(hi, b)
            x[:, s_lo - a : s_hi - a] = segment[:, s_lo - lo : s_hi - lo]
            if isinstance(layer, MaxPool1D):
                segment, _ = _maxpool_padded(x, layer.width, layer.stride, ohi - olo, False)
            else:
                y = _run_pipe((layer,), group, weights, x)
                segment = y[:, olo - a : ohi - a]
        lo, hi = olo, ohi
        yield segment, lo, hi


def spliced_forward(descriptor, weights, activations, rows, lo, hi) -> np.ndarray:
    """Class probabilities of copies of one epoch with some channels replaced.

    ``activations`` are the epoch's ``channel_activations``; ``rows`` maps
    channel indices to (R, input_len) replacements that equal the epoch
    outside samples [lo, hi). Only what those samples reach is recomputed
    in the channel pipes (``spliced_layers``), in one pass per parameter
    group over the replaced channels' rows stacked; the joined pipe runs
    in full. With no rows this is the epoch's own prediction, shape (1, K).
    """
    n_rows = max((len(r) for r in rows.values()), default=1)
    outputs = [np.broadcast_to(acts[-1], (n_rows,) + acts[-1].shape[1:]) for acts in activations]
    for _, idxs in _group_channels(descriptor):
        channels = [c for c in idxs if c in rows]
        if not channels:
            continue
        stacked = np.concatenate([rows[c] for c in channels])
        *_, (segment, olo, ohi) = spliced_layers(
            descriptor, weights, activations, channels, stacked, lo, hi
        )
        for j, c in enumerate(channels):
            out = np.repeat(activations[c][-1], n_rows, axis=0)
            out[:, olo:ohi] = segment[j * n_rows : (j + 1) * n_rows]
            outputs[c] = out
    joined = np.stack(outputs, axis=2)
    logits = _run_pipe(descriptor.joined_pipe, JOINED_GROUP, weights, joined)
    return _softmax(logits)


def loss_and_gradients(descriptor, weights, x, labels, training=True, rng=None):
    """Mean cross-entropy loss and parameter gradients for a batch.

    Args:
        labels: integer class indices, shape (batch,).

    Returns:
        (loss, grads) where grads mirrors the weights dict. Gradients of
        shared parameter groups accumulate over all channels using them.
    """
    labels = np.asarray(labels)
    probs, logits, (group_channels, group_caches, joined_caches) = forward_batch(
        descriptor, weights, x, training=training, rng=rng, return_caches=True
    )
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(batch), labels].mean())

    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    grads = {}
    d_joined = _pipe_backward(joined_caches, weights, grads, d_logits)
    rows = _pipe_rows(descriptor)

    def backward_group(g):
        group_grads, scale_products = {}, {}
        d_stacked = np.concatenate([d_joined[:, :, i, :] for i in group_channels[g][1]], axis=0)
        # the chunks in row order, each continuing the running gradients
        for part, caches in zip(_chunks(len(d_stacked), rows), group_caches[g]):
            _pipe_backward(caches, weights, group_grads, d_stacked[part], scale_products)
        for key, products in scale_products.items():
            group_grads[key] = np.array([np.sum(np.concatenate(products))])
        return group_grads

    # the groups' pipes run in parallel as in the forward pass; their
    # gradients merge here in group order
    sizes = [len(idxs) for _, idxs in group_channels]
    for group_grads in _map_partitioned(backward_group, sizes):
        grads.update(group_grads)
    return loss, grads


# ---------------------------------------------------------------------------
# descriptor builders


# per builder: channel-pipe filters of the four Conv1D blocks, Conv2D
# filters, units of the two hidden Dense layers
_WIDTHS = {"full": ((16, 19, 23, 27), 10, 85), "reference": ((8, 8, 8, 8), 8, 32)}


# dropout rates: after each Conv1D, and after the Conv2D and hidden Dense layers
DROPOUT_CONV = 0.33
DROPOUT_DENSE = 0.015


def _build(
    name, n_classes=6, input_len=960, dropout_conv=DROPOUT_CONV, dropout_dense=DROPOUT_DENSE
):
    filters, conv2d_filters, units = _WIDTHS[name]
    channel = [Scale("scale", init=0.05)]
    for i, (width, n_filters) in enumerate(zip((16, 19, 23, 27), filters), start=1):
        channel.append(Conv1D(f"conv{i}", width=width, filters=n_filters))
        channel.append(Dropout(f"drop{i}", rate=dropout_conv))
        channel.append(MaxPool1D(f"pool{i}", width=3, stride=2))
    joined = (
        Conv2D("conv2d", height=20, width=4, filters=conv2d_filters),
        Dropout("drop_conv2d", rate=dropout_dense),
        Dense("dense1", units=units),
        Dropout("drop_dense1", rate=dropout_dense),
        Dense("dense2", units=units),
        Dropout("drop_dense2", rate=dropout_dense),
        Dense("output", units=n_classes, activation="softmax"),
    )
    return ArchitectureDescriptor(
        name=name, input_len=input_len, channel_pipe=tuple(channel), joined_pipe=joined
    )


def full_architecture(**config) -> ArchitectureDescriptor:
    """The reference two-stage architecture at publication scale.

    Channel pipe: Scale, then four Conv1D/MaxPool blocks with widths and
    filter counts 16/19/23/27 (32,936 trainable parameters per group).
    Joined pipe: a 20x4 Conv2D with 10 filters, two 85-unit dense layers
    and the softmax output (64,371 trainable parameters). ``config`` may
    set ``n_classes``, ``input_len``, ``dropout_conv`` and
    ``dropout_dense``; ``_build`` holds their defaults.
    """
    return _build("full", **config)


def reference_architecture(**config) -> ArchitectureDescriptor:
    """Width-reduced variant for desk-scale training (filters 8, dense
    32); it takes the keywords of ``full_architecture``."""
    return _build("reference", **config)


ARCHITECTURES = {"full": full_architecture, "reference": reference_architecture}
