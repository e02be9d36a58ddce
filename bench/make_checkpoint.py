"""Remake ``reference.swt``, the trained checkpoint the explain workload reads.

    python3 bench/make_checkpoint.py

Synthesizes 600 bundled epochs, up-samples them to balance (beta 1, no
surrogates) and trains the reference architecture for 500 RMSProp steps
at batch 16, all through the surrokit CLI with fixed seeds, on 2 BLAS
threads. It takes about 80 s on 2 cores. A remake on the machine that
made the committed file (OpenBLAS 0.3.31) reproduced it byte for byte;
another BLAS build changes the weights in their last bits.
"""

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
sys.path.insert(0, str(HERE.parent / "src"))

from surrokit.cli import main  # noqa: E402


def remake(out):
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        data, balanced = os.path.join(tmp, "data.sdat"), os.path.join(tmp, "balanced.sdat")
        for argv in (
            ["synth", "bundled", data, "--n", "600", "--seed", "11"],
            ["balance", data, balanced, "--beta", "1", "--alpha", "0", "--seed", "12"],
            ["train", balanced, str(out), "--steps", "500", "--batch", "16", "--lr", "0.0016",
             "--seed", "13"],
        ):
            if main(argv):
                raise SystemExit(f"failed: surrokit {' '.join(argv)}")


if __name__ == "__main__":
    remake(HERE / "reference.swt")
