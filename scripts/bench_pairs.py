#!/usr/bin/env python3
"""Run perfbench/run.py on two revisions in alternating pairs and judge each end-to-end metric.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --workload arena-large \\
        --seed 1 --pairs 10 --seconds 27 [--record LABEL]

Each revision is checked out as a local, detached ``git worktree`` in a
temporary directory; both are removed on exit. Each pair runs the two trees'
own, unchanged ``perfbench/run.py --trace 0`` one after the other, and the
order swaps on every pair, so that the parent runs first in even pairs.

For each end-to-end metric of ``BENCHMARK.json`` it prints both medians, the
quartile distance (IQR) of the parent's runs, the change's wins and a verdict:

- ``REGRESSION``: the change's median is worse than the parent's by more than
  the metric's bound, a share of the parent's median;
- ``GAIN``: the change wins at least nine pairs in ten (ties count for neither
  side) and its median is better by more than the parent's IQR;
- ``unresolved``: neither, and the parent's IQR is wider than the bound;
- ``within bound``: neither, and the parent's IQR is within the bound.

``--record LABEL`` writes ``BENCH_<LABEL>-parent.json`` and
``BENCH_<LABEL>-change.json`` to the current directory. Each holds the
revision, the host's CPU count, the first run's header, the metrics of every
run and their medians. The exit code is 1 when a run failed its output checks
or some metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GAIN_SHARE = 0.9  # of all pairs run, for a GAIN


def parse_run(text: str) -> tuple[dict, dict[str, float], bool]:
    """(header, metric values, correct) from the stdout of one ``run.py`` of one workload."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    header = json.loads(lines[0]).get("header")
    summary = json.loads(lines[-1])
    if header is None or "metrics" not in summary:
        raise ValueError("run.py output has no header line or no summary line")
    return header, {name: m["value"] for name, m in summary["metrics"].items()}, summary["correct"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by linear interpolation between the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The statistics and the verdict for one metric, from the values of each pair in run order."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0 is worse
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    iqr = q3 - q1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse_by = sign * (med_c - med_p)
    if worse_by > bound * abs(med_p):
        verdict = "REGRESSION"
    elif wins >= math.ceil(GAIN_SHARE * len(parent)) and -worse_by > iqr:
        verdict = "GAIN"
    else:
        verdict = "unresolved" if iqr > bound * abs(med_p) else "within bound"
    return {"parent_median": med_p, "parent_iqr": iqr, "change_median": med_c,
            "change": (med_c - med_p) / med_p if med_p else None,
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def judge_all(runs: dict[str, list[dict[str, float]]], end_to_end: list[dict]) -> dict[str, dict]:
    """``judge`` for every end-to-end metric, given each side's runs in pair order."""
    return {m["name"]: judge([r[m["name"]] for r in runs["parent"]], [r[m["name"]] for r in runs["change"]],
                             m["better"], m["bound"])
            for m in end_to_end}


def format_table(verdicts: dict[str, dict], units: dict[str, str]) -> str:
    rows = [("metric", "unit", "parent", "parent IQR", "change", "change %", "wins", "verdict")]
    for name, v in verdicts.items():
        rows.append((name, units[name], f"{v['parent_median']:.6g}", f"{v['parent_iqr']:.3g}",
                     f"{v['change_median']:.6g}", "-" if v["change"] is None else f"{100 * v['change']:+.1f}",
                     f"{v['wins']}/{v['pairs']}", v["verdict"]))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


@contextlib.contextmanager
def worktrees(revisions: dict[str, str]):
    """A detached worktree for each revision, {side: path}; each is removed on exit."""
    base = Path(tempfile.mkdtemp(prefix="bench_pairs."))
    trees = {}
    try:
        for side, rev in revisions.items():
            trees[side] = base / side
            _git("worktree", "add", "--detach", str(trees[side]), rev)
        yield trees
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(base, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict[str, float], bool]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: some output check failed, which the summary line says
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def record(label: str, side: str, revision: str, args, header: dict, runs: list[dict[str, float]]) -> Path:
    path = Path(f"BENCH_{label}-{side}.json")
    doc = {"label": label, "side": side, "revision": revision, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "pairs": args.pairs, "cpu_count": os.cpu_count(), "header": header,
           "metrics": {name: statistics.median(r[name] for r in runs) for name in runs[0]}, "runs": runs}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="git revision measured as the parent")
    p.add_argument("--change", required=True, help="git revision measured as the change")
    p.add_argument("--workload", required=True, help="one perfbench workload, such as arena-large")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="run.py's --seconds for every run")
    p.add_argument("--record", metavar="LABEL", help="write BENCH_<LABEL>-parent.json and -change.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    try:
        revisions = {side: _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
                     for side, rev in zip(SIDES, (args.parent, args.change))}
    except subprocess.CalledProcessError as e:
        p.error(f"not a commit of this repository: {e.cmd[-1].removesuffix('^{commit}')}")
    runs: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
    headers, failed = {}, 0
    with worktrees(revisions) as trees:
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                header, values, correct = run_once(trees[side], args.workload, args.seed, args.seconds)
                headers.setdefault(side, header)
                runs[side].append(values)
                failed += not correct
                print(f"pair {pair + 1}/{args.pairs} {side}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in values.items()) + ("" if correct else " FAILED CHECKS"),
                    file=sys.stderr, flush=True)
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    verdicts = judge_all(runs, bench["end_to_end"])
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s; "
          f"parent {revisions['parent'][:12]}, change {revisions['change'][:12]}")
    print(format_table(verdicts, {m["name"]: m["unit"] for m in bench["end_to_end"]}))
    if args.record:
        for side in SIDES:
            print("recorded", record(args.record, side, revisions[side], args, headers[side], runs[side]))
    return int(failed > 0 or any(v["verdict"] == "REGRESSION" for v in verdicts.values()))


if __name__ == "__main__":
    sys.exit(main())
