import hashlib
import json
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from surrokit.balance import BalanceConfig, Dataset, augment, upsample
from surrokit.dataio import (
    BLOCK_BYTES,
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
from surrokit.surrogates import SurrogateConfig


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
        # in the last epoch of several blocks, found after the first blocks are written
        epochs_per_block = BLOCK_BYTES // (4 * 16 * 4)
        ds = small_dataset(n=3 * epochs_per_block + 1, n_samples=16)
        data = ds.x.copy()
        data[-1, 3, 15] = -1e39
        with pytest.raises(InvalidInputError, match="float32"):
            save_dataset(tmp_path / "x.sdat", replace(ds, x=data))
        assert list(tmp_path.iterdir()) == []

    def test_spans_blocks_bit_identical(self, tmp_path):
        # an epoch count that ends part-way through a block, on reading and writing
        values_per_block = BLOCK_BYTES // 4
        n = 2 * values_per_block // (4 * 24) + 3
        ds = small_dataset(n=n, n_samples=24)
        path = tmp_path / "data.sdat"
        save_dataset(path, ds)
        _, data = path.read_bytes().split(b"\n", 1)
        assert data == ds.x.astype("<f4").tobytes() + ds.labels.astype("<i4").tobytes()
        loaded = load_dataset(path)
        assert loaded.x.tobytes() == ds.x.astype(np.float32).astype(np.float64).tobytes()
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_short_read_refused(self, tmp_path, monkeypatch):
        # a file that ends before the size it reported when it was opened
        path = tmp_path / "data.sdat"
        save_dataset(path, small_dataset(n=3))
        path.write_bytes(path.read_bytes()[:-6])
        real_fstat = os.fstat
        monkeypatch.setattr(
            os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 6)
        )
        with pytest.raises(InvalidInputError, match="file ended before its 12-byte block"):
            load_dataset(path)


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


class TestMemory:
    """The data path holds no second whole copy of a dataset (``tracemalloc``)."""

    @pytest.fixture(scope="class")
    def pool(self):
        # the benchmark's synthesized pool: 960 epochs of 4 x 960 samples
        return small_dataset(n=960, n_samples=960)

    def test_save_streams_blocks(self, tmp_path, pool, traced_peak):
        _, peak = traced_peak(save_dataset, tmp_path / "pool.sdat", pool)
        assert peak < pool.x.nbytes / 3, peak / 2**20

    def test_load_reads_into_the_kept_array(self, tmp_path, pool, traced_peak):
        save_dataset(tmp_path / "pool.sdat", pool)
        loaded, peak = traced_peak(load_dataset, tmp_path / "pool.sdat")
        assert loaded.x.dtype == np.float64 and loaded.x.shape == pool.x.shape
        assert peak < pool.x.nbytes + 8 * 2**20, peak / 2**20

    def test_augment_surrogates_before_it_copies(self, traced_peak):
        # 400 epochs up-sampled to 1200: two thirds repeated, every channel replaced
        labels = np.repeat(np.arange(6), [200, 40, 40, 40, 40, 40])
        x = np.random.default_rng(4).standard_normal((400, 4, 960))
        ds = Dataset(x, labels, tuple(f"rec{i % 4}" for i in range(400)), 32.0)
        config = BalanceConfig(beta=1.0, alpha=1.0, seed=2, surrogate=SurrogateConfig("ft"))
        upsampled, flags = upsample(ds, config)
        assert len(upsampled) == 1200 and flags.sum() == 800
        out, peak = traced_peak(augment, upsampled, flags, config)
        assert out.x[~flags].tobytes() == upsampled.x[~flags].tobytes()
        assert peak < 70 * 2**20, peak / 2**20

    def test_dataset_checks_finiteness_without_a_whole_size_temporary(self, pool, traced_peak):
        # np.isfinite over the whole array took one byte per sample, 3.5 MiB here
        fields = (pool.x, pool.labels, pool.record_ids, pool.sample_rate_hz)
        dataset, peak = traced_peak(Dataset, *fields)
        assert dataset.x is pool.x
        assert peak < 2**20, peak / 2**20


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
