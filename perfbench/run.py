"""Desk benchmark entry point: runs one workload in a fresh process.

    python3 perfbench/run.py --workload finetune-rein --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. The workload process gets its BLAS and OpenMP pools
pinned to one thread in its environment, before numpy loads, and imports
nothing from outside the checkout. The last line of standard output is the
result as JSON (see README.md).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMEOUT_MARGIN_S = 160  # set-up, checks and the last round on top of --seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=15)
    args, _ = parser.parse_known_args()
    src = ROOT / "src"
    if not (src / "reinlab" / "__init__.py").is_file():
        print(f"error: no reinlab sources under {src}", file=sys.stderr)
        return 2
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ, PYTHONPATH=str(src), **PINNED)
    cmd = [sys.executable, str(HERE / "workload.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=args.seconds + TIMEOUT_MARGIN_S).returncode
    except subprocess.TimeoutExpired:
        print("error: workload process timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
