import hashlib
import json
import os

import numpy as np
import pytest

from surrokit.balance import Dataset
from surrokit.dataio import (
    atomic_write_bytes,
    confusion_text,
    descriptor_fingerprint,
    load_dataset,
    load_weights,
    save_dataset,
    save_weights,
    table_text,
)
from surrokit.errors import InvalidInputError
from surrokit.evaluation import ConfusionMatrix
from surrokit.network import full_architecture, init_weights, reference_architecture


def small_dataset(n=6, n_samples=32, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, 4, n_samples)) * 10
    return Dataset(x, np.arange(n) % 6, tuple(f"rec{i % 2}" for i in range(n)), 32.0)


class TestDatasetFile:
    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "data.sdat"
        ds = small_dataset()
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert loaded.record_ids == ds.record_ids
        assert loaded.label_vocabulary == ds.label_vocabulary
        assert loaded.channel_roles == ds.channel_roles
        assert loaded.sample_rate_hz == ds.sample_rate_hz
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.x, ds.x.astype(np.float32).astype(np.float64))
        # writing the loaded dataset again reproduces the file bytes exactly
        path2 = tmp_path / "data2.sdat"
        save_dataset(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "data.sdat"
        save_dataset(path, small_dataset())
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(InvalidInputError):
            load_dataset(path)

    def test_bad_label_index_rejected(self, tmp_path):
        path = tmp_path / "data.sdat"
        save_dataset(path, small_dataset(n=2))
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([99], dtype="<i4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidInputError):
            load_dataset(path)

    def test_not_a_dataset_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello\nworld")
        with pytest.raises(InvalidInputError):
            load_dataset(path)

    def test_heterogeneous_dataset_rejected(self):
        # the file holds one array; so does a Dataset, which cannot be built
        # from epochs of mixed length
        rng = np.random.default_rng(0)
        epochs = [rng.standard_normal((4, 16)), rng.standard_normal((4, 24))]
        with pytest.raises(ValueError):
            Dataset(epochs, [0, 1], ("a", "b"), 32.0)

    def test_float32_overflow_rejected_before_writing(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((1, 4, 16))
        data[0, 2, 5] = -1e39  # finite in float64, inf in float32
        ds = Dataset(data, [0], ("a",), 32.0)
        with pytest.raises(InvalidInputError, match="float32"):
            save_dataset(tmp_path / "x.sdat", ds)
        assert list(tmp_path.iterdir()) == []


class TestWeightCheckpoints:
    def test_round_trip(self, tmp_path):
        desc = reference_architecture()
        weights = init_weights(desc, 5)
        path = tmp_path / "w.swt"
        save_weights(path, desc, weights, arch_config={}, train_config={"steps": 3}, seed=5)
        loaded_desc, loaded, header = load_weights(path)
        assert loaded_desc == desc
        assert header["seed"] == 5
        assert header["train_config"] == {"steps": 3}
        assert sorted(loaded) == sorted(weights)
        for key in weights:
            np.testing.assert_array_equal(loaded[key], weights[key])

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        desc = reference_architecture()
        weights = init_weights(desc, 1)
        path = tmp_path / "w.swt"
        save_weights(path, desc, weights)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["arch"] = "full"  # descriptor will no longer match the fingerprint
        (tmp_path / "tampered.swt").write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        )
        with pytest.raises(InvalidInputError, match="fingerprint"):
            load_weights(tmp_path / "tampered.swt")

    def test_payload_checksum(self, tmp_path):
        desc = reference_architecture()
        path = tmp_path / "w.swt"
        save_weights(path, desc, init_weights(desc, 3))
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        assert header["payload_sha256"] == hashlib.sha256(payload).hexdigest()
        flipped = bytearray(payload)
        flipped[len(payload) // 2] ^= 1
        path.write_bytes(header_line + b"\n" + bytes(flipped))
        with pytest.raises(InvalidInputError, match="payload_sha256"):
            load_weights(path)
        header["payload_sha256"] = 7
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(InvalidInputError, match="must be a string"):
            load_weights(path)
        del header["payload_sha256"]  # a file written before the field existed
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(flipped))
        load_weights(path)

    def test_fingerprint_distinguishes_architectures(self):
        assert descriptor_fingerprint(full_architecture()) != descriptor_fingerprint(
            reference_architecture()
        )
        assert descriptor_fingerprint(full_architecture()) == descriptor_fingerprint(
            full_architecture()
        )

    def test_truncated_payload_rejected(self, tmp_path):
        desc = reference_architecture()
        path = tmp_path / "w.swt"
        save_weights(path, desc, init_weights(desc, 2))
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(InvalidInputError):
            load_weights(path)


class TestAtomicWrites:
    def test_replaces_existing_content_atomically(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new content")
        assert path.read_bytes() == b"new content"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_no_target(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.txt"
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"data")
        assert not target.exists()

    def test_no_temp_residue_after_failure(self, tmp_path, monkeypatch):
        calls = {}

        def boom(src, dst):
            calls["hit"] = True
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "out.bin", b"data")
        monkeypatch.undo()
        assert calls["hit"]
        assert list(tmp_path.iterdir()) == []


class TestTables:
    def test_table_text_format(self):
        text = table_text(["a", "b"], [[1, 0.5], ["x", 1.0 / 3.0]])
        lines = text.splitlines()
        assert lines[0] == "a\tb"
        assert lines[1] == "1\t0.5"
        assert lines[2] == "x\t0.3333333333"
        assert text.endswith("\n")

    def test_confusion_text_blocks(self):
        cm = ConfusionMatrix(np.array([[2, 0], [1, 1]]), ("a", "b"))
        text = confusion_text(cm)
        assert "# section confusion_counts" in text
        assert "# section row_normalized" in text
        assert "a\t2\t0" in text
        assert "b\t0.5\t0.5" in text
