"""The three workloads: set-up, the CLI commands of one round, and checks.

Each workload is a fixed list of ``surrokit`` CLI commands run in-process
through ``surrokit.cli.main(argv)``; the benchmark makes the input files
from the workload seed in set-up. Sizes live in ``SIZES`` (the ``tiny``
set serves ``selftest.py``); the README gives the reasons for each.
"""

import shutil
from pathlib import Path

import numpy as np

import checks
import refnet

HERE = Path(__file__).resolve().parent
REFERENCE_CHECKPOINT = HERE / "reference.swt"

# class counts of the explain input (augment takes twice as many), in
# proportion to the bundled prevalences; fixed counts keep the work of a
# round the same for every seed
QUOTAS = {"Wake": 36, "S1": 6, "S2": 34, "S3": 13, "S4": 12, "REM": 19}

SIZES = {
    "full": {
        "sweep_epochs": 240, "sweep_steps": 8, "train_steps": 2,
        "explain_scale": 1, "saliency_reps": 4, "augment_scale": 2,
    },
    "tiny": {
        "sweep_epochs": 60, "sweep_steps": 2, "train_steps": 1,
        "explain_scale": 0.25, "saliency_reps": 1, "augment_scale": 0.25,
    },
}

SWEEP_ALPHAS = (0.0, 1.0)
SALIENCY_WINDOW_S, SALIENCY_STEP_S = 5.0, 0.5


class Command:
    """One CLI call of a round; ``metric`` names the end-to-end time it adds to."""

    def __init__(self, metric, argv):
        self.metric = metric
        self.argv = [str(a) for a in argv]


def _quota_subset(cli_main, workdir, seed, scale):
    """Synthesize a bundled pool and keep the first ``scale`` x ``QUOTAS[c]``
    epochs of each class, in pool order, as ``data.sdat``; the pool doubles
    until it suffices."""
    quotas = {c: max(1, round(q * scale)) for c, q in QUOTAS.items()}
    n = 4 * sum(quotas.values())
    while True:
        pool_path = workdir / "pool.sdat"
        if cli_main(["synth", "bundled", str(pool_path), "--n", str(n), "--seed", str(seed)]):
            raise RuntimeError("synth failed")
        pool = refnet.read_sdat(pool_path)
        names = pool.label_names()
        picked = {c: [i for i, l in enumerate(names) if l == c][:q] for c, q in quotas.items()}
        if all(len(picked[c]) == q for c, q in quotas.items()):
            break
        n *= 2
    refnet.write_sdat_subset(workdir / "data.sdat", pool, sorted(sum(picked.values(), [])))


class Sweep:
    """The balancing experiment (split, sweep at batch 16) plus one batch-128 train."""

    def __init__(self, sizes, seed):
        self.sizes, self.seed = sizes, seed

    def setup(self, cli_main, workdir):
        argv = ["synth", "bundled", workdir / "data.sdat", "--n", self.sizes["sweep_epochs"],
                "--seed", self.seed]
        if cli_main([str(a) for a in argv]):
            raise RuntimeError("synth failed")
        records = sorted(set(refnet.read_sdat(workdir / "data.sdat").record_ids))
        # round-robin grouping of the records, a stand-in for the paper's age bins
        groups = "".join(f"{r} group{i % 2}\n" for i, r in enumerate(records))
        (workdir / "groups.txt").write_text(groups)

    def commands(self, workdir):
        d, s = workdir, self.sizes
        return [
            Command(None, ["split", d / "data.sdat", "--folds", 1, "--fold", 0,
                           "--groups-file", d / "groups.txt",
                           "--out-train", d / "train.sdat", "--out-val", d / "val.sdat"]),
            Command("sweep_s", ["sweep", d / "data.sdat", "--alphas", "0,1", "--beta", 0.7,
                                "--folds", 1, "--batch", 16, "--lr", 0.0025,
                                "--steps", s["sweep_steps"], "--groups-file", d / "groups.txt",
                                "--seed", self.seed, "--out", d / "sweep.tsv"]),
            Command("train_b128_s", ["train", d / "data.sdat", d / "b128.swt",
                                     "--steps", s["train_steps"], "--seed", self.seed]),
        ]

    def check(self, workdir, stdout):
        from surrokit.dataio import load_weights
        from surrokit.network import loss_and_gradients

        data = refnet.read_sdat(workdir / "data.sdat")
        groups = dict(line.split() for line in (workdir / "groups.txt").read_text().splitlines())
        errors = checks.check_split(
            data, refnet.read_sdat(workdir / "train.sdat"), refnet.read_sdat(workdir / "val.sdat"),
            groups,
        )
        errors += checks.check_sweep_table(
            (workdir / "sweep.tsv").read_text(), data, groups, SWEEP_ALPHAS
        )
        errors += checks.check_loss_trace(stdout["train_b128_s"], self.sizes["train_steps"])
        descriptor, weights, _ = load_weights(workdir / "b128.swt")
        errors += checks.check_gradients(
            loss_and_gradients, descriptor, weights, data.samples[:8].astype(np.float64),
            data.labels[:8], np.random.default_rng(self.seed),
        )
        return errors


class Explain:
    """Inference on the stored reference checkpoint: evaluate, FT condconf, saliency."""

    def __init__(self, sizes, seed):
        self.sizes, self.seed = sizes, seed

    def setup(self, cli_main, workdir):
        _quota_subset(cli_main, workdir, self.seed, self.sizes["explain_scale"])
        shutil.copyfile(REFERENCE_CHECKPOINT, workdir / "model.swt")

    def saliency_epoch(self, workdir):
        return refnet.read_sdat(workdir / "data.sdat").label_names().index("S1")

    def commands(self, workdir):
        d = workdir
        return [
            Command("evaluate_s", ["evaluate", d / "data.sdat", d / "model.swt",
                                   "--out", d / "report.tsv"]),
            Command("condconf_s", ["condconf", d / "data.sdat", d / "model.swt", "--kind", "ft",
                                   "--seed", self.seed, "--out", d / "cc.tsv"]),
            Command("saliency_s", ["saliency", d / "data.sdat", d / "model.swt",
                                   "--epoch-index", self.saliency_epoch(d),
                                   "--window", SALIENCY_WINDOW_S, "--step", SALIENCY_STEP_S,
                                   "--reps", self.sizes["saliency_reps"], "--seed", self.seed,
                                   "--out", d / "map.tsv"]),
        ]

    def check(self, workdir, stdout):
        data = refnet.read_sdat(workdir / "data.sdat")
        _, tensors = refnet.read_checkpoint(workdir / "model.swt")
        report = (workdir / "report.tsv").read_text()
        cc_path = workdir / "cc.tsv"
        errors = checks.check_report(report, data, refnet.reference_forward(tensors, data.samples))
        errors += checks.check_condconf(
            cc_path.read_text() if cc_path.exists() else None, report, data.vocabulary
        )
        epoch_s = data.header["epoch_len_samples"] / data.header["sample_rate_hz"]
        errors += checks.check_saliency(
            (workdir / "map.tsv").read_text(), report, self.saliency_epoch(workdir),
            SALIENCY_WINDOW_S, SALIENCY_STEP_S, epoch_s,
        )
        return errors


class Augment:
    """The data path without a network: IAAFT balancing and FT surrogates."""

    BETA = 1.0

    def __init__(self, sizes, seed):
        self.sizes, self.seed = sizes, seed

    def setup(self, cli_main, workdir):
        _quota_subset(cli_main, workdir, self.seed, self.sizes["augment_scale"])

    def commands(self, workdir):
        d = workdir
        return [
            Command("balance_iaaft_s", ["balance", d / "data.sdat", d / "balanced.sdat",
                                        "--kind", "iaaft", "--beta", self.BETA, "--alpha", 1,
                                        "--seed", self.seed]),
            Command("surrogate_ft_s", ["surrogate", d / "data.sdat", d / "ft.sdat",
                                       "--kind", "ft", "--seed", self.seed]),
        ]

    def check(self, workdir, stdout):
        data = refnet.read_sdat(workdir / "data.sdat")
        return checks.check_balance(
            data, refnet.read_sdat(workdir / "balanced.sdat"), self.BETA
        ) + checks.check_ft_surrogates(data, refnet.read_sdat(workdir / "ft.sdat"))


WORKLOADS = {"sweep": Sweep, "explain": Explain, "augment": Augment}
