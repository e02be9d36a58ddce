"""One-off profile of the network's private kernels in one workload round.

    python3 bench/profile_kernels.py {sweep,explain,augment} [seed]

Sets the workload up, runs one round of its CLI commands under cProfile
and prints, for every private function of ``surrokit.network``, its own
time (tottime) and its time with callees (cumtime), then the round's
total. numpy's Python-level helpers (``np.pad``, ``np.stack``) count as
callees, so a kernel's cost is its cumtime; matrix products written
with ``@`` are not calls and stay in the caller's own time, which is
where the dense layers' products fall (``_run_pipe``,
``_pipe_backward``). cProfile adds a cost to every Python call, so these
are proportions to rank kernels by, not timings to compare with the
benchmark's.
"""

import cProfile
import os
import pstats
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(HERE.parent / "src"))

from run import _call  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def main(name, seed):
    from surrokit.cli import main as cli_main

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out", prefix="profile-") as tmp:
        workload = WORKLOADS[name](SIZES["full"], seed)
        workload.setup(lambda argv: _call(cli_main, argv)[0], Path(tmp))
        profiler = cProfile.Profile()
        profiler.enable()
        for command in workload.commands(Path(tmp)):
            _call(cli_main, command.argv)
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    total = sum(tottime for _, _, tottime, _, _ in stats.values())
    rows = sorted(
        ((cumtime, tottime, calls, func[2])
         for func, (_, calls, tottime, cumtime, _) in stats.items()
         if func[0].endswith(os.path.join("surrokit", "network.py")) and func[2].startswith("_")),
        reverse=True,
    )
    print(f"{name}: surrokit.network private functions over one round of {total:.3f} s")
    print(f"  {'function':22s} {'tottime':>8s} {'cumtime':>8s} {'cum %':>6s}  calls")
    for cumtime, tottime, calls, function in rows:
        share = 100 * cumtime / total
        print(f"  {function:22s} {tottime:8.3f} {cumtime:8.3f} {share:6.1f}  {calls}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 1)
