"""Seeded end-to-end and per-layer benchmark of the df-arena CLI.

    python3 perfbench/run.py --workload arena-large --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0

Each run generates its inputs from ``--seed`` under ``.bench_work/`` in the
checkout, then repeats the workload in a closed loop (one process, next
command only after the previous one exits) for ``--seconds`` seconds. Every
command is a ``df-arena`` child process started from the checkout's
``src/``. Before each repeat the state a previous repeat left (store lines,
augment outputs) is reset, and after it the outputs are checked against the
generator's ground truth.

``--trace 0`` reports the end-to-end metrics as medians over the repeats.
``--trace 1`` runs each repeat once untraced and once under
``perfbench/tracer.py`` and reports the per-layer metrics. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the first is a header with the seed, input sizes and hash,
and the versions. The exit code is 1 when any output check failed and 2 when
the checkout has no df_arena sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
MIN_REPEATS = 3
VERSION_SAMPLES = 5
SAMPLED_MIXES = 4
AUGMENT_MANIFEST = "augment_manifest.jsonl"

# Shapes are sized so that one run of --seconds 27 holds at least three
# repeats on a 2-CPU machine; the why of each workload is in BENCHMARK.json.
# augment-noise runs --jobs 1: with two threads on two shared vCPUs its
# run_s spread by 0.65 of its median over five seeds, against 0.10-0.17
# for the other workloads in the same runs.
WORKLOADS = {
    "arena-large": {"kind": "arena", "format": "json", "jobs": 2, "shape": {
        "systems": 4, "datasets": 3, "trials": 25000, "layout": "two-column",
        "join": "strict"}},
    "arena-wide": {"kind": "arena", "format": "markdown", "jobs": 1, "shape": {
        "systems": 60, "datasets": 14, "trials": 300, "layout": "asvspoof",
        "join": "intersect", "missing": 0.02, "extra": 0.01, "decimals": 2,
        "spoof_polarity_every": 4, "gap_systems": 3, "store_records": 100}},
    "augment-noise": {"kind": "augment", "jobs": 1, "shape": {
        "category": "noise", "utterances": 300, "utterance_s": 3.0,
        "sources": 5, "source_s": 60.0}},
    "augment-reverb": {"kind": "augment", "jobs": 1, "shape": {
        "category": "reverb", "utterances": 300, "utterance_s": 3.0,
        "sources": 5, "source_s": 0.5}},
}

# Metric names and units are those of BENCHMARK.json; layers.json says why.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

_CLI_ENTRY = "import sys; from df_arena.cli import main; sys.exit(main())"


class Child:
    """Runs df-arena commands as child processes from the checkout's sources."""

    def __init__(self, cwd: Path):
        self.cwd = cwd
        env = dict(os.environ)
        env.pop("DF_ARENA_JOBS", None)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"  # keep every command within the two threads --jobs allows
        self.env = env

    def run(self, args: list[str], stdout_name: str, spans: Path | None = None):
        """Returns (exit code, wall seconds, this child's rusage, stdout path)."""
        if spans is None:
            argv = [sys.executable, "-c", _CLI_ENTRY, *args]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans), "--", *args]
        out_path = self.cwd / "state" / stdout_name
        with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS and CPU time;
                # RUSAGE_CHILDREN would accumulate over every child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, out_path


class Tally:
    """Attempted and failed operations: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def command(self, code: int, what: str) -> bool:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.messages.append(f"{what}: exit code {code}")
        return code == 0

    def check(self, fails: list[str], what: str) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(f"{what}: {m}" for m in fails[:5])


class ArenaWorkload:
    def __init__(self, spec: dict, seed: int, work: Path):
        self.spec, self.work = spec, work
        self.truth = gen.make_arena(work / "inputs", spec["shape"], seed)
        self.expected = check.expected_summaries(self.truth)
        self.work_units = self.truth.joined_trials

    def reset(self) -> None:
        store = self.work / "state" / "store.jsonl"
        store.unlink(missing_ok=True)
        pristine = self.work / "inputs" / "store.jsonl"
        if pristine.exists():
            shutil.copyfile(pristine, store)

    def primary(self) -> list[str]:
        return ["leaderboard", "--manifest", "inputs/manifest.json", "--format", self.spec["format"],
                "--jobs", str(self.spec["jobs"]), "--store", "state/store.jsonl"]

    def check(self, stdout: Path, history: dict, tally: Tally, rep: int) -> None:
        lines = (self.work / "state" / "store.jsonl").read_text().splitlines()
        record = json.loads(lines[-1])
        text = stdout.read_text()
        printed = json.loads(text)["run_id"] if self.spec["format"] == "json" else None
        markdown = text if self.spec["format"] == "markdown" else None
        tally.check(check.check_arena(self.truth, self.expected, record, markdown, history, printed),
                    "arena output")


class AugmentWorkload:
    def __init__(self, spec: dict, seed: int, work: Path):
        self.spec, self.work, self.seed = spec, work, seed
        self.truth = gen.make_corpus(work / "inputs", spec["shape"], seed)
        self.work_units = self.truth.audio_seconds
        self.digests: set[str] = set()

    def reset(self) -> None:
        shutil.rmtree(self.work / "state" / "out", ignore_errors=True)

    def primary(self) -> list[str]:
        return ["augment", "--in", "inputs/clean", "--out", "state/out",
                "--category", self.spec["shape"]["category"], "--source", "inputs/sources",
                "--seed", str(self.seed), "--jobs", str(self.spec["jobs"])]

    def check(self, stdout: Path, history: dict, tally: Tally, rep: int) -> None:
        # A per-file failure also makes augment exit 1, so it already counts
        # as a failed command; like every check, this one is one operation.
        summary = json.loads(stdout.read_text())
        rng = gen.rng_for(self.seed + rep, "sample")
        sample = sorted(rng.choice(self.truth.utterances, SAMPLED_MIXES, replace=False))
        fails, digest = check.check_corpus(self.truth, self.work / "inputs" / "clean",
                                           self.work / "inputs" / "sources", self.work / "state" / "out",
                                           AUGMENT_MANIFEST, sample)
        fails.extend(f"{f['input']}: {f['reason']}" for f in summary["failures"])
        self.digests.add(digest)
        if len(self.digests) > 1:
            fails.append("outputs differ between repeats of the same inputs")
        if history.get("runs") or history.get("issues"):
            fails.append("history of the empty store is not empty")
        tally.check(fails, "augment output")


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_values(span_docs: list[list[dict]], jobs: int) -> dict[str, float]:
    """Per-layer metrics of one repeat from the spans of its traced commands."""
    spans = []
    self_time: dict[str, float] = {}
    child_busy: dict[str, float] = {}
    for doc in span_docs:
        children: dict[int, list[dict]] = {}
        for s in doc:
            children.setdefault(s["parent"], []).append(s)
        for s in doc:
            kids = children.get(s["id"], [])
            covered = _union_length([(k["start"], k["end"]) for k in kids], s["start"], s["end"])
            self_time[s["name"]] = self_time.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
            busy = sum(k["end"] - k["start"] for k in kids)
            child_busy[s["name"]] = child_busy.get(s["name"], 0.0) + busy
        spans.extend(doc)

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name, key=None):
        return sum(1 if key is None else s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    reads = [s["counts"] for s in spans if s["name"] == "wavio.read_wav" and "path" in s["counts"]]
    distinct = {c["path"]: c["bytes"] for c in reads}
    arena_wall = total("leaderboard.evaluate_arena")
    ok, bad = count("augment.augment_corpus", "ok"), count("augment.augment_corpus", "failed")
    return {
        "protocol.parse_protocol_s": total("protocol.parse_protocol"),
        "protocol.parse_protocol_lines": count("protocol.parse_protocol", "lines"),
        "protocol.parse_scores_s": total("protocol.parse_scores"),
        "protocol.parse_scores_lines": count("protocol.parse_scores", "lines"),
        "protocol.join_s": total("protocol.join"),
        "protocol.join_kept_ratio": ratio(count("protocol.join", "kept"), count("protocol.join", "seen")),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.evaluate_calls": count("metrics.evaluate"),
        "metrics.pooled_eer_s": total("metrics.pooled_eer"),
        "leaderboard.evaluate_arena_s": arena_wall,
        "leaderboard.evaluate_arena_self_s": self_time.get("leaderboard.evaluate_arena", 0.0),
        "leaderboard.pool_busy_ratio": ratio(child_busy.get("leaderboard.evaluate_arena", 0.0),
                                             arena_wall * jobs),
        "leaderboard.emit_s": total("leaderboard.emit"),
        "leaderboard.store_append_s": total("leaderboard.store_append"),
        "leaderboard.store_append_write_bytes": count("leaderboard.store_append", "write_bytes"),
        "leaderboard.store_list_s": total("leaderboard.store_list"),
        "leaderboard.store_records": count("leaderboard.store_list", "records"),
        "wavio.read_wav_s": total("wavio.read_wav"),
        "wavio.read_wav_calls": count("wavio.read_wav"),
        "wavio.reread_ratio": ratio(sum(c["bytes"] for c in reads), sum(distinct.values())),
        "wavio.write_wav_s": total("wavio.write_wav"),
        "augment.corpus_s": total("augment.augment_corpus"),
        "augment.self_s": self_time.get("augment.augment_corpus", 0.0),
        "augment.reverberate_s": total("augment.reverberate"),
        "augment.reverberate_calls": count("augment.reverberate"),
        "augment.files_ok_ratio": ratio(ok, ok + bad),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_time.get("cli.main", 0.0),
    }


def _check(workload, out: Path, history: dict, tally: Tally, rep: int) -> None:
    try:
        workload.check(out, history, tally, rep)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        tally.check([f"unreadable output: {type(e).__name__}: {e}"], "output")


def _history(child: Child, tally: Tally, spans: Path | None = None):
    code, wall, _, out = child.run(["history", "--store", "state/store.jsonl", "--format", "json"],
                                   "history.out", spans)
    if not tally.command(code, "history"):
        return wall, {}
    try:
        return wall, json.loads(out.read_text())
    except ValueError as e:
        tally.check([f"unreadable history output: {e}"], "history")
        return wall, {}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, Tally]:
    spec = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "state").mkdir(parents=True)
    t0 = time.perf_counter()
    workload = (ArenaWorkload if spec["kind"] == "arena" else AugmentWorkload)(spec, seed, work)
    header = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "shape": spec["shape"], "jobs": spec["jobs"],
              "inputs": gen.describe_inputs(work / "inputs"),
              "generate_s": time.perf_counter() - t0,
              "python": platform.python_version(), "numpy": np.__version__,
              "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0))}
    child, tally = Child(work), Tally()
    child.run(["--version"], "version.out")  # warm-up: byte-compiles df_arena in the checkout

    samples: dict[str, list[float]] = {k: [] for k in ("run_s", "cpu_s", "history_s", "peak_rss_mb",
                                                       "setup_s")}
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    rep = 0
    # Start a repeat only if it is expected to end, on average, within --seconds.
    while rep < MIN_REPEATS or (time.perf_counter() - start) * (1 + 0.5 / rep) <= seconds:
        workload.reset()
        code, wall, usage, out = child.run(workload.primary(), "primary.out")
        if tally.command(code, "primary"):
            samples["run_s"].append(wall)
            samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
            samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
        hist_wall, history = _history(child, tally)
        samples["history_s"].append(hist_wall)
        if code == 0 and history:
            _check(workload, out, history, tally, rep)
        code, wall, _, _ = child.run(["--version"], "version.out")
        tally.command(code, "version")
        samples["setup_s"].append(wall)
        if trace:
            workload.reset()
            spans_p, spans_h = work / "state" / "primary.spans", work / "state" / "history.spans"
            code, wall, _, out = child.run(workload.primary(), "primary.out", spans_p)
            tally.command(code, "traced primary")
            _, history = _history(child, tally, spans_h)
            if code == 0 and history:
                _check(workload, out, history, tally, rep)
                docs = [json.loads(p.read_text()) for p in (spans_p, spans_h)]
                values = layer_values([d["spans"] for d in docs], spec["jobs"])
                values["trace.primary_s"] = wall
                layers.append(values)
                header.setdefault("tracer_errors", sorted({e for d in docs for e in d["errors"]}))
        rep += 1
    while len(samples["setup_s"]) < VERSION_SAMPLES:
        code, wall, _, _ = child.run(["--version"], "version.out")
        tally.command(code, "version")
        samples["setup_s"].append(wall)

    header["repeats"] = rep
    header["measure_s"] = time.perf_counter() - start
    if hasattr(workload, "digests"):
        header["output_sha256"] = sorted(workload.digests)
    med = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    if trace:
        metrics = dict.fromkeys(names, 0.0)  # stays 0 where no traced repeat succeeded
        if layers:
            metrics.update({k: statistics.median(v[k] for v in layers) for k in layers[0]})
            metrics["trace.overhead_ratio"] = metrics["trace.primary_s"] / med["run_s"] if med["run_s"] else 0.0
    else:
        metrics = dict(med)
        metrics["throughput"] = workload.work_units / med["run_s"] if med["run_s"] else 0.0
        metrics["ok_ratio"] = (tally.attempted - tally.failed) / max(1, tally.attempted)
    header["samples"] = {k: len(v) for k, v in samples.items()}
    return header, {k: {"value": metrics[k], "unit": UNITS[k]} for k in names}, tally


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "df_arena" / "cli.py").is_file():
        sys.stderr.write(f"no df_arena sources under {SRC}; run from a full checkout\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            header, values, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(WORK / name, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()  # only once no other run is using it
        print(json.dumps({"header": header}), flush=True)
        for metric, v in values.items():
            print(f"{name:15s} {metric:40s} {v['value']:14.6g} {v['unit']}")
        print(f"{name:15s} {'failed_ratio':40s} {tally.failed / max(1, tally.attempted):14.6g} ratio")
        for message in tally.messages:
            print(f"{name:15s} FAILED {message}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
