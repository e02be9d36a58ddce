"""Readers and a writer for surrokit's file formats, and an independent
forward pass of the reference network.

Nothing here imports ``surrokit``: the benchmark checks the program's
outputs against these, so they are written from the documented
conventions alone.

Dataset file: one JSON header line, little-endian float32 samples
(epoch-major, then channel-major), one little-endian int32 label index
per epoch. Checkpoint: one JSON header line whose ``tensors`` list gives
each tensor's key and shape, then the float64 little-endian bytes in
that order.

Reference network: per channel a scale, then four blocks of
(same-padding 1-D convolution, ReLU, width-3 stride-2 same-padding
max-pool with the extra pad on the right); the four channel outputs are
stacked into (length, channel, filter), followed by a valid 2-D
convolution with ReLU, two ReLU dense layers and a softmax output.
EEG1 and EEG2 share the "eeg" weights, EOG and EMG have their own.
"""

import json

import numpy as np
from scipy.signal import fftconvolve

ROLE_GROUP = {"EEG1": "eeg", "EEG2": "eeg", "EOG": "eog", "EMG": "emg"}
CONV_LAYERS = ("conv1", "conv2", "conv3", "conv4")
DENSE_LAYERS = ("dense1", "dense2", "output")


class SdatFile:
    """A dataset file split into its header and arrays (samples stay float32)."""

    def __init__(self, header, samples, labels):
        self.header = header
        self.samples = samples  # (n_epochs, n_channels, n_samples) float32
        self.labels = labels  # (n_epochs,) int32 vocabulary indices

    @property
    def vocabulary(self):
        return tuple(self.header["label_vocabulary"])

    @property
    def record_ids(self):
        return tuple(self.header["record_ids"])

    def label_names(self):
        return [self.vocabulary[i] for i in self.labels]


def read_sdat(path) -> SdatFile:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline().decode("utf-8"))
        rest = handle.read()
    n, c, length = header["n_epochs"], header["n_channels"], header["epoch_len_samples"]
    payload = n * c * length * 4
    if len(rest) != payload + 4 * n:
        raise ValueError(f"{path}: {len(rest)} data bytes, expected {payload + 4 * n}")
    samples = np.frombuffer(rest[:payload], dtype="<f4").reshape(n, c, length)
    labels = np.frombuffer(rest[payload:], dtype="<i4")
    return SdatFile(header, samples, labels)


def write_sdat_subset(path, source: SdatFile, indices) -> None:
    """Write the epochs ``indices`` of ``source``, bit for bit, as a new file."""
    indices = list(indices)
    header = dict(source.header)
    header["n_epochs"] = len(indices)
    header["record_ids"] = [source.record_ids[i] for i in indices]
    payload = np.ascontiguousarray(source.samples[indices], dtype="<f4").tobytes()
    labels = np.ascontiguousarray(source.labels[indices], dtype="<i4").tobytes()
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        handle.write(payload + labels)


def read_checkpoint(path):
    """Return (header, {key: float64 array})."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline().decode("utf-8"))
        payload = handle.read()
    tensors, offset = {}, 0
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) * 8
        tensors[entry["key"]] = np.frombuffer(
            payload[offset : offset + size], dtype="<f8"
        ).reshape(shape)
        offset += size
    if offset != len(payload):
        raise ValueError(f"{path}: {len(payload) - offset} bytes after the last tensor")
    return header, tensors


def _correlate_valid(x, kernel, axes):
    """Valid cross-correlation of x (B, *spatial, C) with kernel (*spatial, C, F)
    along ``axes``, summed over C: an FFT convolution with the flipped kernel."""
    flipped = kernel[tuple(slice(None, None, -1) for _ in axes)]
    out = fftconvolve(x[..., None], flipped[None], mode="valid", axes=axes)
    return out.sum(axis=-2)


def _conv1d_same(x, kernel, bias):
    # x (B, L, C_in), kernel (W, C_in, F): left pad (W-1)//2, the rest on the right
    width = kernel.shape[0]
    left = (width - 1) // 2
    xp = np.pad(x, ((0, 0), (left, width - 1 - left), (0, 0)))
    return _correlate_valid(xp, kernel, axes=(1,)) + bias


def _maxpool_same(x, width=3, stride=2):
    # same padding: ceil(L / stride) outputs, padding split with the extra sample right
    length = x.shape[1]
    out_len = -(-length // stride)
    pad = max(0, (out_len - 1) * stride + width - length)
    xp = np.pad(x, ((0, 0), (pad // 2, pad - pad // 2), (0, 0)), constant_values=-np.inf)
    out = np.full((x.shape[0], out_len, x.shape[2]), -np.inf)
    for t in range(out_len):
        for k in range(width):
            out[:, t] = np.maximum(out[:, t], xp[:, t * stride + k])
    return out


def _conv2d_valid(x, kernel, bias):
    # x (B, H, W, C), kernel (KH, KW, C, F) -> (B, H-KH+1, W-KW+1, F)
    return _correlate_valid(x, kernel, axes=(1, 2)) + bias


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_forward(tensors, x, roles=("EEG1", "EEG2", "EOG", "EMG")) -> np.ndarray:
    """Inference-mode class probabilities of x (n_epochs, n_channels, n_samples)."""
    x = np.asarray(x, dtype=np.float64)
    pipes = []
    for c, role in enumerate(roles):
        group = ROLE_GROUP[role]
        h = tensors[f"{group}/scale/scale"][0] * x[:, c, :, None]
        for name in CONV_LAYERS:
            z = _conv1d_same(h, tensors[f"{group}/{name}/kernel"], tensors[f"{group}/{name}/bias"])
            h = _maxpool_same(np.maximum(z, 0.0))
        pipes.append(h)
    joined = np.stack(pipes, axis=2)  # (B, L, n_channels, F)
    h = np.maximum(
        _conv2d_valid(joined, tensors["joined/conv2d/kernel"], tensors["joined/conv2d/bias"]), 0.0
    )
    h = h.reshape(h.shape[0], -1)
    for name in DENSE_LAYERS:
        h = h @ tensors[f"joined/{name}/kernel"] + tensors[f"joined/{name}/bias"]
        if name != "output":
            h = np.maximum(h, 0.0)
    return _softmax(h)


def train_flops_per_epoch(tensors, input_len, roles=("EEG1", "EEG2", "EOG", "EMG")) -> float:
    """Multiply-add FLOPs (2 per MAC) of one training epoch, computed from the
    layer shapes: the forward pass plus a backward pass counted as twice the
    forward (input and weight gradients). Pools and activations are left out."""
    forward = 0.0
    for role in roles:
        group = ROLE_GROUP[role]
        length = input_len
        for name in CONV_LAYERS:
            width, c_in, filters = tensors[f"{group}/{name}/kernel"].shape
            forward += 2.0 * length * width * c_in * filters
            length = -(-length // 2)
    kh, kw, c_in, filters = tensors["joined/conv2d/kernel"].shape
    forward += 2.0 * (length - kh + 1) * (len(roles) - kw + 1) * kh * kw * c_in * filters
    for name in DENSE_LAYERS:
        fan_in, units = tensors[f"joined/{name}/kernel"].shape
        forward += 2.0 * fan_in * units
    return 3.0 * forward
