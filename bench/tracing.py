"""Spans and counts around the calls one surrokit module makes into another.

``Tracer.install`` replaces each target function by a timing wrapper and
rebinds the wrapper under every name that held the original in any
``surrokit`` module, the defining module included, so module-attribute
calls (``dataio.load_dataset``), ``from`` imports and calls inside the
defining module all pass through it. ``uninstall`` restores every
binding. Spans are kept in memory as (name, parent name, seconds,
extra counts); ``per_layer_metrics`` turns the spans of whole rounds
into the benchmark's per-layer figures. Nothing under ``src/`` changes.
"""

import functools
import os
import statistics
import sys
import time

import numpy as np


def _batch_size(args, kwargs, result):
    x = args[2] if len(args) > 2 else kwargs["x"]
    return {"batch": int(np.shape(x)[0])}


def _epochs_in(args, kwargs, result):
    return {"epochs": len(args[1])}


def _iaaft_iterations(args, kwargs, result):
    report = result[1]
    return {"iaaft_iterations": report.iterations if report is not None else 0}


def _bytes_in(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _bytes_out(args, kwargs, result):
    return {"bytes_written": len(args[1])}


# (layer, module, attribute or Class.method, extra-count function); a
# target the program no longer has is reported on stderr and reads 0
TARGETS = (
    ("network", "network", "loss_and_gradients", _batch_size),
    ("network", "network", "forward_batch", _batch_size),
    ("network", "network", "forward", None),
    ("network", "network", "validate_weights", None),
    ("training", "training", "rmsprop_step", None),
    ("surrogates", "surrogates", "_channel_surrogate", _iaaft_iterations),
    ("surrogates", "surrogates", "epoch_surrogate_with_reports", None),
    ("surrogates", "surrogates", "_splice_surrogate", None),
    ("balance", "balance", "upsample", None),
    ("balance", "balance", "augment", None),
    ("balance", "balance", "record_holdout_split", None),
    ("evaluation", "evaluation", "evaluate", None),
    ("evaluation", "evaluation", "conditional_confusion", None),
    ("evaluation", "evaluation", "alpha_sweep", None),
    ("saliency", "saliency", "surrogate_saliency", None),
    ("classifiers", "classifiers", "NetworkClassifier.predict", None),
    ("classifiers", "classifiers", "NetworkClassifier.predict_batch", _epochs_in),
    ("signals", "signals", "epoch_from_array", None),
    ("dataio", "dataio", "load_dataset", _bytes_in),
    ("dataio", "dataio", "save_dataset", None),
    ("dataio", "dataio", "load_weights", _bytes_in),
    ("dataio", "dataio", "atomic_write_bytes", _bytes_out),
    ("synthetic", "synthetic", "generate_synthetic", None),
    ("seeding", "seeding", "spawn_rng", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent, seconds, extra)
        self._stack = []
        self._bindings = []  # (owner, attribute, original)

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
            spans.append((name, parent, seconds, extra(args, kwargs, result) if extra else None))
            return result

        return traced

    def install(self):
        modules = [
            m for n, m in sys.modules.items() if n == "surrokit" or n.startswith("surrokit.")
        ]
        for layer, module_name, attr, extra in TARGETS:
            module = sys.modules[f"surrokit.{module_name}"]
            if _lookup(module, attr) is None:
                print(f"bench: trace target {module_name}.{attr} not found", file=sys.stderr)
                continue
            name = f"{layer}.{attr.split('.')[-1].lstrip('_')}"
            if "." in attr:  # a method: rebind on its class
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, method, self._wrap(name, cls.__dict__[method], extra))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, extra)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, key, traced)

    def _rebind(self, owner, attribute, value):
        self._bindings.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self):
        for owner, attribute, original in reversed(self._bindings):
            setattr(owner, attribute, original)
        self._bindings.clear()


def _lookup(module, attr):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _total(spans, name, key=None, parent=None):
    return sum(
        (extra[key] if key else seconds)
        for n, p, seconds, extra in spans
        if n == name and (parent is None or p == parent)
    )


def _count(spans, name):
    return sum(1 for n, _, _, _ in spans if n == name)


def _mean_ms(spans, name, where=lambda extra: True):
    times = [s for n, _, s, extra in spans if n == name and where(extra)]
    return 1e3 * sum(times) / len(times) if times else 0.0


def round_metrics(spans, train_flops_per_epoch):
    """Per-layer figures of one round's spans (see the README for each one)."""
    lg = [(s, extra["batch"]) for n, _, s, extra in spans if n == "network.loss_and_gradients"]
    lg_seconds = sum(s for s, _ in lg)
    batch_fb = "classifiers.predict_batch"
    epochs_batched = _total(spans, "network.forward_batch", "batch", parent=batch_fb)
    return {
        "network.loss_and_gradients_b16_ms": (
            _mean_ms(spans, "network.loss_and_gradients", lambda e: e["batch"] == 16), "ms"),
        "network.loss_and_gradients_b128_ms": (
            _mean_ms(spans, "network.loss_and_gradients", lambda e: e["batch"] == 128), "ms"),
        "network.forward_batch_ms_per_epoch": (
            1e3 * _total(spans, "network.forward_batch", parent=batch_fb) / epochs_batched
            if epochs_batched else 0.0, "ms/epoch"),
        "network.forward_ms": (_mean_ms(spans, "network.forward"), "ms"),
        "network.forward_calls": (_count(spans, "network.forward"), "count"),
        "network.validate_weights_s": (_total(spans, "network.validate_weights"), "s"),
        "network.train_gflops": (
            sum(b for _, b in lg) * train_flops_per_epoch / lg_seconds / 1e9
            if lg_seconds else 0.0, "GFLOP/s"),
        "training.rmsprop_step_ms": (_mean_ms(spans, "training.rmsprop_step"), "ms"),
        "surrogates.channel_surrogate_s": (_total(spans, "surrogates.channel_surrogate"), "s"),
        "surrogates.channel_surrogate_calls": (
            _count(spans, "surrogates.channel_surrogate"), "count"),
        "surrogates.iaaft_iterations": (
            _total(spans, "surrogates.channel_surrogate", "iaaft_iterations"), "count"),
        "surrogates.epoch_surrogate_s": (
            _total(spans, "surrogates.epoch_surrogate_with_reports"), "s"),
        "surrogates.splice_surrogate_s": (_total(spans, "surrogates.splice_surrogate"), "s"),
        "surrogates.splice_calls": (_count(spans, "surrogates.splice_surrogate"), "count"),
        "balance.upsample_s": (_total(spans, "balance.upsample"), "s"),
        "balance.augment_s": (_total(spans, "balance.augment"), "s"),
        "balance.record_holdout_split_s": (_total(spans, "balance.record_holdout_split"), "s"),
        "evaluation.evaluate_s": (_total(spans, "evaluation.evaluate"), "s"),
        "evaluation.conditional_confusion_s": (
            _total(spans, "evaluation.conditional_confusion"), "s"),
        "evaluation.alpha_sweep_s": (_total(spans, "evaluation.alpha_sweep"), "s"),
        "saliency.surrogate_saliency_s": (_total(spans, "saliency.surrogate_saliency"), "s"),
        "classifiers.predict_calls": (_count(spans, "classifiers.predict"), "count"),
        "classifiers.predict_batch_calls": (_count(spans, "classifiers.predict_batch"), "count"),
        "classifiers.epochs_classified": (
            _count(spans, "classifiers.predict")
            + _total(spans, "classifiers.predict_batch", "epochs"), "count"),
        "signals.epoch_from_array_calls": (_count(spans, "signals.epoch_from_array"), "count"),
        "signals.epoch_from_array_s": (_total(spans, "signals.epoch_from_array"), "s"),
        "dataio.load_dataset_s": (_total(spans, "dataio.load_dataset"), "s"),
        "dataio.save_dataset_s": (_total(spans, "dataio.save_dataset"), "s"),
        "dataio.load_weights_s": (_total(spans, "dataio.load_weights"), "s"),
        "dataio.bytes_read": (
            _total(spans, "dataio.load_dataset", "bytes_read")
            + _total(spans, "dataio.load_weights", "bytes_read"), "B"),
        "dataio.bytes_written": (_total(spans, "dataio.atomic_write_bytes", "bytes_written"), "B"),
        "seeding.spawn_rng_calls": (_count(spans, "seeding.spawn_rng"), "count"),
        "seeding.spawn_rng_s": (_total(spans, "seeding.spawn_rng"), "s"),
    }


def per_layer_metrics(round_spans, setup_spans, train_flops_per_epoch):
    """Median over rounds of each round's figures; set-up spans give synthesis time."""
    rounds = [round_metrics(spans, train_flops_per_epoch) for spans in round_spans]
    out = {
        name: {"value": statistics.median(r[name][0] for r in rounds), "unit": unit}
        for name, (_, unit) in rounds[0].items()
    }
    out["synthetic.generate_synthetic_s"] = {
        "value": statistics.median(_total(s, "synthetic.generate_synthetic") for s in setup_spans),
        "unit": "s",
    }
    return out
