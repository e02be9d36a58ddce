"""surrokit benchmark: one workload per process, driven through the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,explain,augment} --seed N \
        --seconds S --trace {0,1}

Set-up (input files from the seed) runs SETUP_REPEATS times. Then whole
rounds of the workload's CLI commands run, each in-process through
``surrokit.cli.main(argv)``: WARMUP_ROUNDS untimed rounds, then timed
rounds until ``--seconds`` have passed (MIN_ROUNDS rounds at least).
Each end-to-end time is the median over the timed rounds. After the
rounds the outputs are checked (``checks.py``). With ``--trace 1`` the
surrokit functions are wrapped (``tracing.py``) and the result holds
the per-layer figures instead of the end-to-end ones. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

BLAS runs ``--blas-threads`` threads (default 1), pinned before numpy
loads.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

SETUP_REPEATS = 9
WARMUP_ROUNDS = 1  # run and checked, not timed: the first rounds run slower
MIN_ROUNDS = 4  # warm-up included
ROUND = "round_s"
# every workload's timed CLI stages; the traced run reports them as cli.<stage>
STAGES = ("sweep_s", "train_b128_s", "evaluate_s", "condconf_s", "saliency_s",
          "balance_iaaft_s", "surrogate_ft_s")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "explain", "augment"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    return parser.parse_args(argv)


def _pin_blas(threads):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _call(cli_main, argv):
    """Run one CLI command in-process; returns (exit code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    seconds = time.perf_counter() - start
    if code:
        print(f"bench: exit {code}: surrokit {' '.join(argv)}\n{err.getvalue()}", file=sys.stderr)
    return code, seconds, out.getvalue()


def _digest(workdir, stdouts):
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    for text in stdouts:
        h.update(text.encode())
    return h.hexdigest()


def run(args, workdir):
    """Set up, run rounds, check; returns the result object."""
    from surrokit.cli import main as cli_main

    import refnet
    import tracing
    from workloads import REFERENCE_CHECKPOINT, SIZES, WORKLOADS

    workload = WORKLOADS[args.workload](SIZES["full"], args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def quiet_cli(argv):
        return _call(cli_main, argv)[0]

    setup_seconds, setup_spans = [], []
    for _ in range(SETUP_REPEATS):
        mark = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        workload.setup(quiet_cli, workdir)
        setup_seconds.append(time.perf_counter() - start)
        if tracer:
            setup_spans.append(tracer.spans[mark:])

    commands = workload.commands(workdir)
    stage_times = {}
    round_spans, digests = [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while len(digests) < MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
        if len(digests) == WARMUP_ROUNDS:
            begin = time.perf_counter()
        mark = len(tracer.spans) if tracer else 0
        stage, stdout = {ROUND: 0.0}, {}
        for command in commands:
            code, seconds, stdout[command.metric] = _call(cli_main, command.argv)
            attempted += 1
            failed += bool(code)
            stage[ROUND] += seconds
            if command.metric:
                stage[command.metric] = seconds
        if len(digests) >= WARMUP_ROUNDS:
            for metric, seconds in stage.items():
                stage_times.setdefault(metric, []).append(seconds)
            if tracer:
                round_spans.append(tracer.spans[mark:])
        digests.append(_digest(workdir, stdout.values()))
        print(f"bench: round {len(digests)}: {stage[ROUND]:.3f} s", file=sys.stderr)
    if tracer:
        tracer.uninstall()

    try:
        errors = [] if failed else workload.check(workdir, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors = [f"unreadable output: {exc!r}"]
    if len(set(digests)) != 1:
        errors.append(f"outputs differ between rounds ({len(set(digests))} distinct)")
    for error in errors:
        print(f"bench: check failed: {error}", file=sys.stderr)

    stages = {name: statistics.median(values) for name, values in stage_times.items()}
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
        },
        ROUND: {"value": stages.pop(ROUND), "unit": "s"},
    }
    print(f"rounds {len(digests)} ({WARMUP_ROUNDS} untimed), attempted {attempted}, "
          f"failed {failed}")
    for name, seconds in stages.items():  # this workload's stages, medians over rounds
        print(f"{name}\t{seconds:.6g} s")
    metrics = end_to_end
    if tracer:
        _print(metrics)
        header, tensors = refnet.read_checkpoint(REFERENCE_CHECKPOINT)
        flops = refnet.train_flops_per_epoch(tensors, header["arch_config"]["input_len"])
        metrics = tracing.per_layer_metrics(round_spans, setup_spans, flops)
        for name in STAGES:
            metrics[f"cli.{name}"] = {"value": stages.get(name, 0.0), "unit": "s"}
    _print(metrics)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def _print(metrics):
    for name, m in metrics.items():
        print(f"{name}\t{m['value']:.6g} {m['unit']}")


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "surrokit" / "cli.py").is_file():
        print(f"bench: no surrokit sources under {SRC}", file=sys.stderr)
        return 2
    _pin_blas(args.blas_threads)
    sys.path.insert(0, str(SRC))
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root, prefix=f"{args.workload}-") as tmp:
        result = run(args, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
