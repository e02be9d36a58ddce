import json
import os
from dataclasses import replace

import numpy as np
import pytest

from surrokit.balance import Dataset
from surrokit.errors import InvalidInputError
from surrokit.synthetic import (
    ClassSpec,
    SyntheticSpec,
    TransientSpec,
    _inject,
    ar_resonance_coeffs,
    add_transient,
    bundled_spec,
    default_group_labels,
    generate_synthetic,
    spec_from_json,
    spec_to_json,
    transient_waveform,
)


def two_class_spec(prev_a=0.9, prev_b=0.1):
    return SyntheticSpec(
        classes=(
            ClassSpec("A", prev_a, ar_resonance_coeffs(3.0, 0.9, 32.0), noise_scale=5.0),
            ClassSpec("B", prev_b, ar_resonance_coeffs(10.0, 0.9, 32.0), noise_scale=5.0),
        ),
        epoch_len_s=4.0,
        n_records=3,
    )


class TestGenerate:
    def test_prevalence_within_binomial_interval(self):
        ds = generate_synthetic(two_class_spec(), 1000, seed=1)
        counts = ds.class_counts()
        # 99% interval around 900/100 at p=0.9: +-2.576*sqrt(1000*0.9*0.1)
        half = 2.576 * np.sqrt(1000 * 0.9 * 0.1)
        assert 900 - half <= counts["A"] <= 900 + half
        assert counts["A"] + counts["B"] == 1000

    def test_seed_repeat_identical(self):
        a = generate_synthetic(two_class_spec(), 40, seed=9)
        b = generate_synthetic(two_class_spec(), 40, seed=9)
        assert a.record_ids == b.record_ids
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.x, b.x)
        c = generate_synthetic(two_class_spec(), 40, seed=10)
        assert any(not np.array_equal(x, y) for x, y in zip(a.x, c.x))

    def test_epoch_contract(self):
        ds = generate_synthetic(bundled_spec(), 20, seed=3)
        assert ds.x.shape == (20, 4, 960)
        assert ds.sample_rate_hz == 32.0
        assert ds.channel_roles == ("EEG1", "EEG2", "EOG", "EMG")
        assert all(0 <= label < len(ds.label_vocabulary) for label in ds.labels)
        assert len(set(ds.record_ids)) == 6

    def test_array_larger_than_physical_memory_refused(self, monkeypatch):
        # 4 epochs of 1e12 s need about 4 PiB, more than the address space,
        # so even an unchecked np.empty would fail without touching memory
        huge = replace(bundled_spec(), epoch_len_s=1e12)
        with pytest.raises(InvalidInputError, match="physical memory"):
            generate_synthetic(huge, 4, seed=0)
        # one 4 KiB page holds exactly one epoch of 4 x 128 float64 samples
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}.get)
        assert len(generate_synthetic(two_class_spec(), 1, seed=0)) == 1
        with pytest.raises(InvalidInputError, match="2 epochs of 4 x 128 samples"):
            generate_synthetic(two_class_spec(), 2, seed=0)

    def test_unstable_ar_rejected(self):
        with pytest.raises(InvalidInputError):
            ClassSpec("bad", 1.0, (1.2,), noise_scale=1.0)
        with pytest.raises(InvalidInputError):
            ClassSpec("bad2", 1.0, (1.99, -0.99001 - 0.01), noise_scale=1.0)

    def test_scale_jitter_spreads_epoch_energy(self):
        def spec_with(jitter):
            return SyntheticSpec(
                classes=(
                    ClassSpec("A", 1.0, ar_resonance_coeffs(5.0, 0.9, 32.0),
                              noise_scale=10.0, scale_jitter=jitter),
                ),
                epoch_len_s=8.0,
                n_records=1,
            )

        stds_flat = [
            samples[0].std() for samples in generate_synthetic(spec_with(0.0), 60, seed=4).x
        ]
        stds_jittered = [
            samples[0].std() for samples in generate_synthetic(spec_with(0.4), 60, seed=4).x
        ]
        spread = lambda v: np.std(v) / np.mean(v)
        assert spread(stds_jittered) > 2 * spread(stds_flat)
        with pytest.raises(InvalidInputError):
            ClassSpec("bad", 1.0, (), scale_jitter=1.5)

    def test_ar_peak_location(self):
        spec = SyntheticSpec(
            classes=(ClassSpec("A", 1.0, ar_resonance_coeffs(8.0, 0.95, 32.0), noise_scale=1.0),),
            epoch_len_s=30.0,
            n_records=1,
        )
        ds = generate_synthetic(spec, 24, seed=5)
        spectra = np.mean(
            [np.abs(np.fft.rfft(samples[0])) ** 2 for samples in ds.x], axis=0
        )
        freqs = np.fft.rfftfreq(960, d=1 / 32.0)
        peak = freqs[np.argmax(spectra[1:]) + 1]
        assert peak == pytest.approx(8.0, abs=1.0)


class TestTransients:
    def test_exact_injection_count(self):
        roles = ("EEG1", "EEG2", "EOG", "EMG")
        transient = TransientSpec(amplitude=50.0, width_s=0.5, freq_hz=4.0, count=3,
                                  channels=("EEG1",))
        waveform = transient_waveform(transient, 32.0)
        block = np.zeros((4, 960))
        _inject(block, roles, transient, waveform, centers=[100, 400, 800])
        # exactly three copies, additive, only on the requested channel
        assert np.sum(np.abs(block[0]) > 1e-9) == 3 * np.sum(np.abs(waveform) > 1e-9)
        np.testing.assert_array_equal(block[1:], 0.0)
        assert np.sum(block[0] ** 2) == pytest.approx(3 * np.sum(waveform**2), rel=1e-9)

    def test_generated_burst_energy_matches_count(self):
        spec = SyntheticSpec(
            classes=(
                ClassSpec(
                    "T", 1.0, (), noise_scale=1e-6,
                    transient=TransientSpec(amplitude=30.0, width_s=0.4, freq_hz=5.0,
                                             count=1, channels=("EEG1", "EEG2")),
                ),
            ),
            epoch_len_s=30.0,
            n_records=1,
        )
        ds = generate_synthetic(spec, 10, seed=8)
        waveform = transient_waveform(spec.classes[0].transient, 32.0)
        for samples in ds.x:
            energy = np.sum(samples[0] ** 2)
            assert energy == pytest.approx(np.sum(waveform**2), rel=1e-3)
            np.testing.assert_allclose(samples[2], 0.0, atol=1e-4)

    def test_add_transient_places_burst(self, rng):
        pair = Dataset(rng.standard_normal((2, 4, 960)), [0, 0], ("r0", "r0"), 32.0)
        epoch = pair.take([0])
        transient = TransientSpec(amplitude=200.0, width_s=0.5, freq_hz=3.0,
                                  channels=("EEG1", "EEG2"))
        out = add_transient(epoch, transient, center_s=17.0)
        diff = out.x[0, 0] - epoch.x[0, 0]
        assert np.abs(diff).argmax() == pytest.approx(17.0 * 32.0, abs=8)
        np.testing.assert_array_equal(out.x[0, 2], epoch.x[0, 2])
        with pytest.raises(InvalidInputError):
            add_transient(epoch, transient, center_s=0.1)
        with pytest.raises(InvalidInputError, match="one epoch"):
            add_transient(pair, transient, center_s=17.0)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = bundled_spec()
        restored = spec_from_json(spec_to_json(spec))
        assert restored == spec

    def test_malformed_json_rejected(self):
        with pytest.raises(InvalidInputError):
            spec_from_json("{not json")
        with pytest.raises(InvalidInputError):
            spec_from_json('{"classes": [{"name": "A"}]}')

    @pytest.mark.parametrize("level", ["spec", "class", "transient"])
    def test_unknown_key_rejected(self, level):
        payload = json.loads(spec_to_json(bundled_spec()))
        burst = next(c for c in payload["classes"] if c["transient"] is not None)
        node = {"spec": payload, "class": payload["classes"][0], "transient": burst["transient"]}
        node[level]["scale_jiter"] = 0.35
        with pytest.raises(InvalidInputError, match="scale_jiter"):
            spec_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "level, field",
        [("spec", "n_records"), ("spec", "sample_rate_hz"), ("spec", "epoch_len_s"),
         ("class", "prevalence"), ("class", "noise_scale"), ("class", "scale_jitter"),
         ("class", "ar_coeffs"), ("transient", "count"), ("transient", "amplitude"),
         ("transient", "width_s"), ("transient", "freq_hz")],
    )
    def test_bool_for_a_number_rejected(self, level, field):
        # JSON true loads as a bool, which passes a numeric check as 1
        payload = json.loads(spec_to_json(bundled_spec()))
        burst = next(c for c in payload["classes"] if c["transient"] is not None)
        node = {"spec": payload, "class": payload["classes"][0], "transient": burst["transient"]}
        node[level][field] = [True, -0.5] if field == "ar_coeffs" else True
        with pytest.raises(InvalidInputError, match=field):
            spec_from_json(json.dumps(payload))

    def test_absent_and_null_transient_agree(self):
        payload = json.loads(spec_to_json(two_class_spec()))
        assert payload["classes"][0]["transient"] is None
        null = spec_from_json(json.dumps(payload))
        for entry in payload["classes"]:
            del entry["transient"]
        assert spec_from_json(json.dumps(payload)) == null == two_class_spec()


class TestGroups:
    def test_default_group_labels_round_robin(self):
        ds = generate_synthetic(two_class_spec(), 30, seed=2)
        groups = default_group_labels(ds, 2)
        assert set(groups.values()) == {"group0", "group1"}
        assert set(groups) == set(ds.record_ids)
