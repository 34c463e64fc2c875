"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads data_infer --seeds 5
    python3 perfbench/spread.py --seeds 10      # every workload

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each end-to-end metric its median and its spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median.  A spread at or above a third of the metric's bound is
flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                steady = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med
            flag = "" if spread < m["bound"] / 3 else "  <-- spread >= bound/3"
            steady = steady and not flag
            print(f"{workload:18s} {m['name']:22s} median {med:10.5g} {m['unit']:9s} "
                  f"spread {spread:.4f} (bound {m['bound']}){flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
