"""File formats: epoch datasets, weight checkpoints, result tables.

Epoch dataset container (one file):

* line 1: UTF-8 JSON header terminated by a newline, with keys
  ``format`` ("surrokit-epochs"), ``version`` (1), ``n_epochs``,
  ``n_channels``, ``channel_roles``, ``sample_rate_hz``,
  ``epoch_len_samples``, ``label_vocabulary``, ``record_ids``.
* payload: raw little-endian float32 samples, epoch-major then
  channel-major (exactly n_epochs * n_channels * epoch_len_samples * 4
  bytes).
* labels: one little-endian int32 vocabulary index per epoch.

Weight checkpoint container (one file):

* line 1: UTF-8 JSON header with keys ``format`` ("surrokit-weights"),
  ``version`` (1), ``arch`` (registered architecture name),
  ``arch_config`` (builder keyword arguments), ``fingerprint`` (sha256
  of the canonical descriptor JSON), ``seed``, ``train_config``,
  ``tensors``, an ordered list of {"key", "shape"} entries, and
  ``payload_sha256``, the sha256 hex digest of the payload.
* payload: the tensors' float64 little-endian bytes, concatenated in
  header order.

Loading a checkpoint rebuilds the descriptor from ``arch``/
``arch_config`` and refuses to proceed if its fingerprint does not match
the stored one, or if the payload does not match ``payload_sha256``. A
file without ``payload_sha256`` (written before it existed) still loads.

All writes are atomic: content goes to a temporary file in the target
directory which is then renamed over the destination, so an interrupted
run never leaves a truncated file under the target name.

Storage is float32 to halve file sizes; every computation after loading
runs in float64.
"""

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict

import numpy as np

from .balance import Dataset
from .errors import InvalidInputError
from .network import ARCHITECTURES, ArchitectureDescriptor, validate_weights

DATASET_FORMAT = "surrokit-epochs"
WEIGHTS_FORMAT = "surrokit-weights"


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory; an OSError names ``path``, never the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# epoch dataset files


def save_dataset(path, dataset: Dataset) -> None:
    if len(dataset) == 0:
        raise InvalidInputError("refusing to write an empty dataset")
    header = {
        "format": DATASET_FORMAT,
        "version": 1,
        "n_epochs": len(dataset),
        "n_channels": len(dataset.channel_roles),
        "channel_roles": list(dataset.channel_roles),
        "sample_rate_hz": dataset.sample_rate_hz,
        "epoch_len_samples": dataset.n_samples,
        "label_vocabulary": list(dataset.label_vocabulary),
        "record_ids": list(dataset.record_ids),
    }
    with np.errstate(over="ignore"):
        samples = dataset.x.astype("<f4")
    if not np.all(np.isfinite(samples)):
        # a cast to inf would write a file that load_dataset rejects
        raise InvalidInputError(
            f"dataset holds samples beyond the float32 maximum "
            f"({np.finfo(np.float32).max:.7g}) that a dataset file cannot store"
        )
    payload = samples.tobytes()
    labels = dataset.labels.astype("<i4").tobytes()
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload + labels
    atomic_write_bytes(path, blob)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_dataset_header(path, header) -> None:
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise InvalidInputError(f"{path}: not a {DATASET_FORMAT} file")
    for key in ("n_epochs", "n_channels", "epoch_len_samples", "sample_rate_hz",
                "channel_roles", "label_vocabulary", "record_ids"):
        if key not in header:
            raise InvalidInputError(f"{path}: dataset header lacks {key!r}")
    for key in ("n_epochs", "n_channels", "epoch_len_samples"):
        if not _is_count(header[key]):
            raise InvalidInputError(
                f"{path}: header field {key!r} must be a non-negative integer, "
                f"got a {type(header[key]).__name__}"
            )
    rate = header["sample_rate_hz"]
    if not isinstance(rate, (int, float)) or isinstance(rate, bool):
        raise InvalidInputError(
            f"{path}: header field 'sample_rate_hz' must be a number, got a {type(rate).__name__}"
        )
    for key in ("channel_roles", "label_vocabulary", "record_ids"):
        value = header[key]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise InvalidInputError(f"{path}: header field {key!r} must be a list of strings")


def load_dataset(path) -> Dataset:
    with open(path, "rb") as handle:
        header_line = handle.readline()
        rest = handle.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{path}: malformed dataset header: {exc}") from exc
    _check_dataset_header(path, header)
    n_epochs = header["n_epochs"]
    n_channels = header["n_channels"]
    n_samples = header["epoch_len_samples"]
    payload_bytes = n_epochs * n_channels * n_samples * 4
    label_bytes = n_epochs * 4
    if len(rest) != payload_bytes + label_bytes:
        raise InvalidInputError(
            f"{path}: expected {payload_bytes + label_bytes} data bytes, found {len(rest)}"
        )
    samples = np.frombuffer(rest[:payload_bytes], dtype="<f4").reshape(
        n_epochs, n_channels, n_samples
    )
    labels = np.frombuffer(rest[payload_bytes:], dtype="<i4")
    try:
        return Dataset(
            samples, labels, header["record_ids"], header["sample_rate_hz"],
            header["label_vocabulary"], header["channel_roles"],
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# weight checkpoints


def descriptor_fingerprint(descriptor: ArchitectureDescriptor) -> str:
    layers = {
        "name": descriptor.name,
        "input_len": descriptor.input_len,
        "channel_roles": list(descriptor.channel_roles),
        "parameter_sharing": [list(p) for p in descriptor.parameter_sharing],
        "channel_pipe": [
            {"type": type(l).__name__, **asdict(l)} for l in descriptor.channel_pipe
        ],
        "joined_pipe": [
            {"type": type(l).__name__, **asdict(l)} for l in descriptor.joined_pipe
        ],
    }
    canonical = json.dumps(layers, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_weights(
    path,
    descriptor: ArchitectureDescriptor,
    weights: dict,
    arch_config: dict = None,
    train_config: dict = None,
    seed: int = None,
) -> None:
    validate_weights(descriptor, weights)
    keys = sorted(weights)
    header = {
        "format": WEIGHTS_FORMAT,
        "version": 1,
        "arch": descriptor.name,
        "arch_config": arch_config or {},
        "fingerprint": descriptor_fingerprint(descriptor),
        "seed": seed,
        "train_config": train_config,
        "tensors": [{"key": k, "shape": list(weights[k].shape)} for k in keys],
    }
    payload = b"".join(np.ascontiguousarray(weights[k], dtype="<f8").tobytes() for k in keys)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    atomic_write_bytes(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


def load_weights(path):
    """Load a checkpoint; returns (descriptor, weights, header).

    The descriptor is rebuilt from the stored architecture name and
    builder arguments; a fingerprint or payload checksum mismatch raises
    InvalidInputError.
    """
    with open(path, "rb") as handle:
        header_line = handle.readline()
        payload = handle.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{path}: malformed checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != WEIGHTS_FORMAT:
        raise InvalidInputError(f"{path}: not a {WEIGHTS_FORMAT} file")
    if "payload_sha256" in header:
        checksum = header["payload_sha256"]
        if not isinstance(checksum, str):
            raise InvalidInputError(
                f"{path}: payload_sha256 must be a string, got a {type(checksum).__name__}"
            )
        if checksum != hashlib.sha256(payload).hexdigest():
            raise InvalidInputError(f"{path}: payload does not match its payload_sha256")
    arch = header.get("arch")
    if not isinstance(arch, str) or arch not in ARCHITECTURES:
        raise InvalidInputError(f"{path}: unknown architecture {arch!r}")
    arch_config = header.get("arch_config", {})
    if not isinstance(arch_config, dict):
        raise InvalidInputError(
            f"{path}: arch_config must be an object, got a {type(arch_config).__name__}"
        )
    try:
        descriptor = ARCHITECTURES[arch](**arch_config)
    except (TypeError, InvalidInputError) as exc:
        raise InvalidInputError(f"{path}: arch_config does not fit {arch!r}: {exc}") from exc
    fingerprint = descriptor_fingerprint(descriptor)
    if fingerprint != header.get("fingerprint"):
        raise InvalidInputError(
            f"{path}: checkpoint fingerprint {header.get('fingerprint')!r} does not match "
            f"the {arch!r} architecture ({fingerprint!r})"
        )
    tensors = header.get("tensors")
    if not isinstance(tensors, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("key"), str)
        and isinstance(entry.get("shape"), list)
        and all(_is_count(d) for d in entry["shape"])
        for entry in tensors
    ):
        raise InvalidInputError(
            f"{path}: 'tensors' must be a list of {{\"key\": str, \"shape\": [int, ...]}} entries"
        )
    weights = {}
    offset = 0
    for entry in tensors:
        shape = tuple(entry["shape"])
        size = math.prod(shape) * 8
        chunk = payload[offset : offset + size]
        if len(chunk) != size:
            raise InvalidInputError(f"{path}: truncated tensor payload at {entry['key']!r}")
        weights[entry["key"]] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += size
    if offset != len(payload):
        raise InvalidInputError(f"{path}: {len(payload) - offset} trailing payload bytes")
    validate_weights(descriptor, weights)
    return descriptor, weights, header


# ---------------------------------------------------------------------------
# delimiter-separated tables


def format_float(value) -> str:
    return f"{float(value):.10g}"


def table_text(columns, rows) -> str:
    """Tab-separated table with one header line; floats use %.10g."""
    lines = ["\t".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def confusion_text(confusion, title="confusion_counts") -> str:
    """Two matrix blocks: raw counts and row-normalized fractions."""
    labels = confusion.labels
    counts = [[label, *row] for label, row in zip(labels, confusion.counts)]
    fractions = [[label, *row] for label, row in zip(labels, confusion.row_normalized())]
    return (
        f"# section {title}\n" + table_text(("true\\pred",) + labels, counts)
        + "# section row_normalized\n" + table_text(("true\\pred",) + labels, fractions)
    )


def saliency_text(saliency_map) -> str:
    """Header, one baseline row, then one row per window position."""
    columns = ["position_s"] + [f"p_{label}" for label in saliency_map.labels]
    rows = [["baseline", *saliency_map.baseline_probabilities]]
    positions = zip(saliency_map.positions_s, saliency_map.mean_probabilities)
    rows += [[pos, *probs] for pos, probs in positions]
    return table_text(columns, rows)
