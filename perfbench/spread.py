"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py

Runs run.py --trace 0 once for each of the seeds 1-10 on every workload of
BENCHMARK.json, interleaving the workloads, and prints for each metric the
median of the runs and the distance between their first and third
quartiles as a share of the median (statistics.quantiles, n=4), next to
the metric's bound.  Raw results go to .perfbench-out/spread-<time>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
            res = json.loads(out.decode().splitlines()[-1])
            results[w].append(res)
            print(f"{w} seed {seed}: {time.monotonic() - start:.1f} s, "
                  f"correct={res['correct']}", flush=True)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spread-{int(time.time())}.json").write_text(json.dumps(results))
    for w in workloads:
        print(f"\n{w}")
        for m in bench["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for r in results[w]]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med
            print(f"  {m['name']:14} median {med:12.5f}  spread {spread:6.3f}"
                  f"  bound {m['bound']}")


if __name__ == "__main__":
    main()
