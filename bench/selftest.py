"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs one round of every workload at the ``tiny`` sizes, requires the
checks to pass on the real outputs, then corrupts one output at a time
and requires the checks to reject each corruption. Exits 0 when every
case behaves, 1 otherwise. Takes about 40 s on 2 cores.
"""

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import refnet  # noqa: E402
from run import _call  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def edit_text(name, change):
    """A corruption that rewrites the lines of a text output."""

    def corrupt(workdir, stdout):
        path = workdir / name
        path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")

    return corrupt


def edit_sdat(name, change):
    """A corruption that edits a dataset file's arrays and header in place."""

    def corrupt(workdir, stdout):
        source = refnet.read_sdat(workdir / name)
        edited = refnet.SdatFile(dict(source.header), source.samples.copy(), source.labels.copy())
        indices = change(edited)
        refnet.write_sdat_subset(workdir / name, edited, indices or range(len(edited.labels)))

    return corrupt


def set_cell(row, col, value):
    def change(lines):
        cells = lines[row].split("\t")
        cells[col] = value(cells[col])
        lines[row] = "\t".join(cells)
        return lines

    return change


def report_row(lines, epoch):
    return lines.index("# section predictions") + 2 + epoch


def flip_prediction(lines):
    row = report_row(lines, 0)
    cells = lines[row].split("\t")
    cells[3] = "S4" if cells[3] != "S4" else "REM"
    lines[row] = "\t".join(cells)
    return lines


def add(delta):
    return lambda v: f"{float(v) + delta:.10g}"


def perturb_probability(lines):
    return set_cell(report_row(lines, 1), 5, add(1e-6))(lines)


def bump_confusion(lines):
    return set_cell(lines.index("# section confusion_counts") + 2, 1, lambda v: str(int(v) + 1))(
        lines
    )


def bump_macro_f1(lines):
    row = next(i for i, line in enumerate(lines) if line.startswith("macro_f1\t"))
    return set_cell(row, 1, add(0.01))(lines)


def record_into_training(sdat):
    records = list(sdat.header["record_ids"])
    records[0] = "rec000"  # held out by fold 0 of group0
    sdat.header["record_ids"] = records


def change_one_sample(sdat):
    sdat.samples[0, 0, 5] += 1.0


def relabel_first(sdat):
    sdat.labels[0] = (sdat.labels[0] + 1) % len(sdat.vocabulary)


def nan_loss(stdout):
    lines = stdout["train_b128_s"].splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("step "))
    lines[last] = lines[last].split("\t")[0] + "\tloss nan"
    stdout["train_b128_s"] = "\n".join(lines)


CORRUPTIONS = {
    "sweep": [
        ("held-out record in training", edit_sdat("train.sdat", record_into_training)),
        ("recall off the k/n grid",
         edit_text("sweep.tsv", set_cell(1, 3, lambda v: f"{float(v) * 0.9 + 0.013:.10g}"))),
        ("macro_f1 above 1", edit_text("sweep.tsv", set_cell(2, 2, lambda v: "1.5"))),
        ("non-finite loss", lambda workdir, stdout: nan_loss(stdout)),
    ],
    "explain": [
        ("one flipped prediction", edit_text("report.tsv", flip_prediction)),
        ("a perturbed probability", edit_text("report.tsv", perturb_probability)),
        ("a confusion count off by one", edit_text("report.tsv", bump_confusion)),
        ("macro_f1 off the recount", edit_text("report.tsv", bump_macro_f1)),
        ("a condconf count off by one",
         edit_text("cc.tsv", set_cell(2, 1, lambda v: str(int(v) + 1)))),
        ("a saliency position missing", edit_text("map.tsv", lambda lines: lines[:-1])),
        ("a saliency row not summing to 1", edit_text("map.tsv", set_cell(3, 1, add(1e-4)))),
        ("baseline differing from the report", edit_text("map.tsv", set_cell(1, 2, add(1e-6)))),
    ],
    "augment": [
        ("an IAAFT channel with one sample changed", edit_sdat("balanced.sdat", change_one_sample)),
        ("a balanced epoch dropped",
         edit_sdat("balanced.sdat", lambda s: range(len(s.labels) - 1))),
        ("an FT channel with one sample changed", edit_sdat("ft.sdat", change_one_sample)),
        ("an FT surrogate relabelled", edit_sdat("ft.sdat", relabel_first)),
    ],
}


def wrong_gradient(loss_and_gradients):
    """loss_and_gradients with one tensor's gradient 1% too large."""

    def wrapped(*args, **kwargs):
        loss, grads = loss_and_gradients(*args, **kwargs)
        key = sorted(grads)[0]
        return loss, {**grads, key: grads[key] * 1.01}

    return wrapped


def main():
    from surrokit.cli import main as cli_main
    from surrokit.dataio import load_weights
    from surrokit.network import loss_and_gradients

    def quiet_cli(argv):
        return _call(cli_main, argv)[0]

    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out", prefix="selftest-") as tmp:
        for name, workload_class in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            workload = workload_class(SIZES["tiny"], 7)
            workload.setup(quiet_cli, workdir)
            stdout = {}
            for command in workload.commands(workdir):
                code, _, stdout[command.metric] = _call(cli_main, command.argv)
                expect(code == 0, f"{name}: surrokit {command.argv[0]} exits 0")
            errors = workload.check(workdir, stdout)
            expect(not errors, f"{name}: real outputs pass {errors or ''}")
            for what, corrupt in CORRUPTIONS[name]:
                saved = {p: p.read_bytes() for p in workdir.iterdir()}
                corrupted = dict(stdout)
                corrupt(workdir, corrupted)
                errors = workload.check(workdir, corrupted)
                expect(bool(errors), f"{name}: rejects {what}: {errors[:1]}")
                for path, data in saved.items():
                    path.write_bytes(data)
            if name == "sweep":
                descriptor, weights, _ = load_weights(workdir / "b128.swt")
                data = refnet.read_sdat(workdir / "data.sdat")
                errors = checks.check_gradients(
                    wrong_gradient(loss_and_gradients), descriptor, weights,
                    data.samples[:8].astype(np.float64), data.labels[:8],
                    np.random.default_rng(0),
                )
                expect(bool(errors), f"sweep: rejects a gradient 1% off: {errors[:1]}")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
