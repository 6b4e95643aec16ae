"""Run workloads over several seeds and print each metric's median and spread.

    python3 perfbench/summarize.py --seeds 1-10 [--trace 1] [workload ...]

For every workload and metric it prints the median over the runs, the
quartile distance as a share of the median (the figure BENCHMARK.json's
bounds are judged against) and the wall time per run. Lines of the form
"name number [unit]" that a workload prints before its result (train loss,
mIoU, reconstruction loss) get the same summary. With no workload named,
every workload in BENCHMARK.json runs. The runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bad = 0
    for workload in args.workloads:
        values, walls, fails = {}, [], set()
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                bad += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                bad += 1
            fails.add(result["failed"] / result["attempted"])
            for line in proc.stdout.splitlines()[:-1]:
                name, *rest = line.split()
                try:
                    value = float(rest[0])
                except (ValueError, IndexError):
                    continue
                values.setdefault(name, []).append(value)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(args.seeds)} runs, wall per run median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s, "
              f"failed shares {sorted(fails)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:32s} median {med:12.4f}  iqr/median {spread:.4f}  "
                  f"runs {' '.join(f'{v:.4g}' for v in vals)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
