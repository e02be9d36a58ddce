"""Synthetic labeled multichannel datasets for desk-scale experiments.

Classes come in two families: purely stationary autoregressive
processes, which FT surrogates represent faithfully, and
transient-bearing classes, whose defining feature (a localized burst) a
surrogate smears across the epoch. That contrast is what makes the
conditional-confusion and alpha-sweep behaviors reproducible at desk
scale.

A generator spec is JSON-serializable. Its keys are the fields of
``SyntheticSpec``, ``ClassSpec`` and ``TransientSpec``: a missing key
takes the field's default, and an unknown key is refused::

    {
      "sample_rate_hz": 32.0,
      "epoch_len_s": 30.0,
      "channel_roles": ["EEG1", "EEG2", "EOG", "EMG"],
      "n_records": 6,
      "classes": [
        {"name": "Wake", "prevalence": 0.26,
         "ar_coeffs": [1.59, -0.846], "noise_scale": 10.0},
        {"name": "S1", "prevalence": 0.08,
         "ar_coeffs": [1.59, -0.846], "noise_scale": 10.0,
         "transient": {"amplitude": 160.0, "width_s": 0.6,
                        "freq_hz": 10.0, "count": 1,
                        "channels": ["EEG1", "EEG2"]}}
      ]
    }

AR coefficients follow x_t = a_1 x_{t-1} + ... + a_p x_{t-p} + noise and
must describe a stable process (all roots of the characteristic
polynomial 1 - a_1 z - ... - a_p z^p outside the unit circle).
"""

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .balance import DEFAULT_VOCABULARY, Dataset, _check_one_epoch
from .errors import InvalidInputError
from .seeding import NS_SYNTH, spawn_rng
from .signals import DEFAULT_ROLES


def _refuse_bools(spec, *fields) -> None:
    """JSON true and false load as ``bool``, which numeric checks take for 1 and 0."""
    for name in fields:
        value = getattr(spec, name)
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, bool) for v in values):
            raise InvalidInputError(f"{type(spec).__name__}.{name} must be numeric, got {value}")


@dataclass(frozen=True)
class TransientSpec:
    """A localized burst: Gaussian-windowed cosine added to some channels."""

    amplitude: float
    width_s: float
    freq_hz: float
    count: int = 1
    channels: tuple = ("EEG1", "EEG2")

    def __post_init__(self):
        _refuse_bools(self, "amplitude", "width_s", "freq_hz", "count")
        finite = all(map(math.isfinite, (self.amplitude, self.width_s, self.freq_hz)))
        if not finite or self.width_s <= 0 or not isinstance(self.count, int) or self.count < 0:
            raise InvalidInputError("transient needs finite values, width > 0 and count >= 0")
        object.__setattr__(self, "channels", tuple(self.channels))


@dataclass(frozen=True)
class ClassSpec:
    """One class: AR background, optional burst injector, amplitude jitter.

    ``scale_jitter`` j in [0, 1) draws one factor per epoch uniformly
    from [1 - j, 1 + j] and applies it to the noise scale and the burst
    amplitude alike, so absolute signal energy varies across epochs while
    each epoch's internal structure is preserved.
    """

    name: str
    prevalence: float
    ar_coeffs: tuple
    noise_scale: float = 1.0
    transient: TransientSpec = None
    scale_jitter: float = 0.0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidInputError(f"class name must be a string, got {self.name!r}")
        _refuse_bools(self, "prevalence", "noise_scale", "scale_jitter", "ar_coeffs")
        if not 0 < self.prevalence < math.inf:
            raise InvalidInputError(f"class {self.name!r} needs finite positive prevalence")
        if self.noise_scale <= 0:
            raise InvalidInputError(f"class {self.name!r} needs positive noise scale")
        if not 0.0 <= self.scale_jitter < 1.0:
            raise InvalidInputError(f"class {self.name!r} scale_jitter must lie in [0, 1)")
        object.__setattr__(self, "ar_coeffs", tuple(float(a) for a in self.ar_coeffs))
        _check_stable(self.ar_coeffs, self.name)


def _check_stable(coeffs, name):
    if not coeffs:
        return
    # companion-form roots of z^p - a_1 z^(p-1) - ... - a_p must lie inside
    # the unit circle (equivalently, roots of 1 - sum a_i B^i outside it)
    roots = np.roots([1.0] + [-a for a in coeffs])
    if roots.size and np.max(np.abs(roots)) >= 1.0:
        raise InvalidInputError(f"AR coefficients of class {name!r} describe an unstable process")


@dataclass(frozen=True)
class SyntheticSpec:
    classes: tuple
    sample_rate_hz: float = 32.0
    epoch_len_s: float = 30.0
    channel_roles: tuple = DEFAULT_ROLES
    n_records: int = 6

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "channel_roles", tuple(self.channel_roles))
        if not self.classes:
            raise InvalidInputError("spec needs at least one class")
        _refuse_bools(self, "n_records", "sample_rate_hz", "epoch_len_s")
        if not isinstance(self.n_records, int) or self.n_records < 1:
            raise InvalidInputError("n_records must be an integer >= 1")
        if not 0 < self.sample_rate_hz < math.inf or self.epoch_len_samples < 2:
            raise InvalidInputError("spec needs a finite positive rate and 2 or more samples")
        if not math.isfinite(sum(c.prevalence for c in self.classes)):
            raise InvalidInputError("class prevalences do not sum to a finite number")
        n = self.epoch_len_samples
        for cls in self.classes:
            # checked here, before transient_waveform allocates the burst
            if cls.transient and 2 * _half_width(cls.transient, self.sample_rate_hz) >= n:
                raise InvalidInputError(f"transient of class {cls.name!r} longer than the epoch")

    @property
    def epoch_len_samples(self) -> int:
        return int(round(self.epoch_len_s * self.sample_rate_hz))

    def label_vocabulary(self) -> tuple:
        names = tuple(c.name for c in self.classes)
        if set(names) == set(DEFAULT_VOCABULARY):
            return DEFAULT_VOCABULARY
        return names


def ar_resonance_coeffs(peak_hz: float, pole_radius: float, sample_rate_hz: float) -> tuple:
    """AR(2) coefficients with a spectral peak at ``peak_hz``."""
    if not 0 < pole_radius < 1:
        raise InvalidInputError("pole radius must lie in (0, 1)")
    theta = 2.0 * np.pi * peak_hz / sample_rate_hz
    return (2.0 * pole_radius * np.cos(theta), -pole_radius**2)


def _half_width(spec: TransientSpec, sample_rate_hz: float) -> int:
    """Samples on each side of the burst's center: 3 sigma, rounded."""
    return int(round(3.0 * (spec.width_s / 2.0) * sample_rate_hz))


def transient_waveform(spec: TransientSpec, sample_rate_hz: float) -> np.ndarray:
    """Gaussian-windowed cosine burst spanning +-3 sigma."""
    sigma = spec.width_s / 2.0
    half = _half_width(spec, sample_rate_hz)
    t = np.arange(-half, half + 1) / sample_rate_hz
    return spec.amplitude * np.exp(-0.5 * (t / sigma) ** 2) * np.cos(2.0 * np.pi * spec.freq_hz * t)


def _ar_path(coeffs, noise_scale, n, rng):
    burn = 256
    noise = rng.standard_normal(n + burn) * noise_scale
    if not coeffs:
        return noise[burn:]
    from scipy import signal as sps  # imported here: it takes over a second

    denominator = np.concatenate([[1.0], -np.asarray(coeffs)])
    return sps.lfilter([1.0], denominator, noise)[burn:]


def _inject(samples_block, roles, transient, waveform, centers):
    half = (waveform.size - 1) // 2
    for center in centers:
        lo = center - half
        hi = center + half + 1
        for i, role in enumerate(roles):
            if role in transient.channels:
                samples_block[i, lo:hi] += waveform
    return samples_block


def generate_synthetic(spec: SyntheticSpec, n_epochs: int, seed: int) -> Dataset:
    """Draw a labeled dataset from the generator spec.

    Epoch labels are sampled from the prevalence weights; record ids are
    assigned in contiguous blocks across ``spec.n_records`` synthetic
    records. Transient-bearing classes receive exactly their configured
    number of burst injections per epoch, at uniform random centers and
    at the same position on every target channel.
    """
    if n_epochs < 1:
        raise InvalidInputError("n_epochs must be >= 1")
    n = spec.epoch_len_samples
    roles = spec.channel_roles
    # refused here, before anything of that size is allocated
    need = n_epochs * len(roles) * n * np.dtype(np.float64).itemsize
    memory = math.inf
    if hasattr(os, "sysconf"):
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise InvalidInputError(
            f"{n_epochs} epochs of {len(roles)} x {n} samples need {need / 2**30:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )
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
    record_ids = tuple(f"rec{(e * spec.n_records) // n_epochs:03d}" for e in range(n_epochs))
    return Dataset(x, labels, record_ids, spec.sample_rate_hz, vocab, roles)


def add_transient(epoch: Dataset, transient: TransientSpec, center_s: float) -> Dataset:
    """Return a copy of a one-epoch dataset with one burst injected at ``center_s``."""
    _check_one_epoch(epoch)
    half = _half_width(transient, epoch.sample_rate_hz)
    center = int(round(center_s * epoch.sample_rate_hz))
    if center - half < 0 or center + half + 1 > epoch.n_samples:
        raise InvalidInputError(f"burst at {center_s} s does not fit the epoch")
    waveform = transient_waveform(transient, epoch.sample_rate_hz)
    x = epoch.x.copy()
    _inject(x[0], epoch.channel_roles, transient, waveform, [center])
    return replace(epoch, x=x)


def default_group_labels(dataset: Dataset, n_groups: int = 2) -> dict:
    """Round-robin grouping of a dataset's records, a stand-in for age bins."""
    records = sorted(set(dataset.record_ids))
    return {rid: f"group{(i % n_groups)}" for i, rid in enumerate(records)}


# ---------------------------------------------------------------------------
# bundled spec: five stationary AR classes plus one transient-defined
# minority class (S1) sharing the Wake background, so only the burst
# separates them


def bundled_spec() -> SyntheticSpec:
    jitter = 0.35
    rate = 32.0
    alpha_band = ar_resonance_coeffs(10.0, 0.92, rate)
    return SyntheticSpec(
        classes=(
            ClassSpec("Wake", 0.30, alpha_band, noise_scale=10.0, scale_jitter=jitter),
            ClassSpec(
                "S1",
                0.04,
                alpha_band,
                noise_scale=10.0,
                scale_jitter=jitter,
                transient=TransientSpec(
                    amplitude=120.0, width_s=0.6, freq_hz=10.0, count=2,
                    channels=("EEG1", "EEG2"),
                ),
            ),
            ClassSpec("S2", 0.28, ar_resonance_coeffs(6.0, 0.90, rate), noise_scale=12.0,
                      scale_jitter=jitter),
            ClassSpec("S3", 0.11, ar_resonance_coeffs(2.5, 0.94, rate), noise_scale=14.0,
                      scale_jitter=jitter),
            ClassSpec("S4", 0.10, ar_resonance_coeffs(1.2, 0.95, rate), noise_scale=16.0,
                      scale_jitter=jitter),
            ClassSpec("REM", 0.17, ar_resonance_coeffs(13.0, 0.90, rate), noise_scale=8.0,
                      scale_jitter=jitter),
        ),
        sample_rate_hz=rate,
        epoch_len_s=30.0,
        n_records=6,
    )


def spec_to_json(spec: SyntheticSpec) -> str:
    return json.dumps(asdict(spec), indent=2, sort_keys=True)


def spec_from_json(text: str) -> SyntheticSpec:
    try:
        payload = json.loads(text)
        classes = []
        for entry in payload["classes"]:
            t = entry.get("transient")
            transient = None if t is None else TransientSpec(**t)
            classes.append(ClassSpec(**{**entry, "transient": transient}))
        return SyntheticSpec(**{**payload, "classes": classes})
    except KeyError as exc:
        raise InvalidInputError(f"generator spec is missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        # TypeError covers a missing or unknown field, ValueError JSON
        # syntax and the spec classes' own checks
        raise InvalidInputError(f"malformed generator spec: {exc}") from exc
