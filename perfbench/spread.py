"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads arena-large,augment-noise --seeds 1-10

Runs ``run.py`` once per (seed, workload), workloads interleaved, with the
``command`` and ``run_seconds`` of BENCHMARK.json and prints, per metric,
the median and the interquartile range as a share of the median (as
``statistics.quantiles(values, n=4)`` gives the quartiles), next to a
third of the metric's bound. ``--out`` also writes every value as JSON.
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=None, help="comma-separated; default all in BENCHMARK.json")
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    first, last = map(int, args.seeds.split("-"))
    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    failed = False
    # Seeds outer, workloads inner: a drift of the host's speed over the
    # minutes this takes then lands on every workload alike.
    for seed in range(first, last + 1):
        for name in names:
            start = time.perf_counter()
            proc = subprocess.run(bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            failed |= proc.returncode != 0 or not result["correct"]
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: exit {proc.returncode}, {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
    report = {}
    for name in names:
        report[name] = {}
        for metric, vs in values[name].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            report[name][metric] = {"median": med, "spread": spread, "values": vs}
            target = bounds.get(metric, float("nan")) / 3
            print(f"{name:15s} {metric:40s} median {med:12.6g}  spread {spread:7.4f}  target {target:.4f}")
    if args.out:
        doc = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "trace": args.trace,
               "workloads": report}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
