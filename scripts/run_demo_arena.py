#!/usr/bin/env python3
"""End-to-end demo: build a synthetic 3-system x 3-dataset arena and run it.

Generates protocols, score files and a manifest under a work directory, then
walks the full pipeline: evaluate -> rank -> emit -> store -> history ->
cross-dataset correlation. The fixture is constructed so that the ranking by
average EER (sysA first) disagrees with the ranking by pooled EER (sysB
first): sysA separates perfectly on every dataset but with wildly different
score scales, which a single global threshold punishes.

Usage: python scripts/run_demo_arena.py [workdir]
"""

import json
import sys
from pathlib import Path

from df_arena import __version__
from df_arena.leaderboard import emit, evaluate_arena, rank, store_append, store_list
from df_arena.protocol import load_manifest
from df_arena.stats import correlate_matrix

BONA_IDS = ["b1", "b2", "b3", "b4"]
SPOOF_IDS = ["s1", "s2", "s3", "s4"]

SCORES = {
    # (system, dataset) -> (bonafide scores, spoof scores)
    ("sysA", "d1"): ([10.0, 9.0, 11.0, 12.0], [1.0, 2.0, 3.0, 4.0]),
    ("sysA", "d2"): ([0.5, 0.6, 0.55, 0.65], [0.3, 0.35, 0.4, 0.45]),
    ("sysA", "d3"): ([100.0, 90.0, 110.0, 120.0], [10.0, 20.0, 30.0, 40.0]),
    ("sysB", "d1"): ([0.6, 0.7, 0.8, 0.9], [0.1, 0.2, 0.3, 0.75]),
    ("sysB", "d2"): ([0.6, 0.7, 0.8, 0.9], [0.1, 0.2, 0.3, 0.75]),
    ("sysB", "d3"): ([0.6, 0.7, 0.8, 0.9], [0.1, 0.2, 0.3, 0.75]),
    ("sysC", "d1"): ([0.5, 0.6, 0.7, 0.8], [0.5, 0.6, 0.7, 0.8]),
    ("sysC", "d2"): ([0.5, 0.6, 0.7, 0.8], [0.5, 0.6, 0.7, 0.8]),
    ("sysC", "d3"): ([0.5, 0.6, 0.7, 0.8], [0.5, 0.6, 0.7, 0.8]),
}


def build_fixture(root: Path) -> Path:
    datasets = ["d1", "d2", "d3"]
    (root / "protocols").mkdir(parents=True, exist_ok=True)
    (root / "scores").mkdir(parents=True, exist_ok=True)
    for ds in datasets:
        lines = [f"{t} bonafide" for t in BONA_IDS] + [f"{t} spoof" for t in SPOOF_IDS]
        (root / "protocols" / f"{ds}.txt").write_text("\n".join(lines) + "\n")
    for (system, ds), (bona, spoof) in SCORES.items():
        lines = [f"{t} {v}" for t, v in zip(BONA_IDS, bona)]
        lines += [f"{t} {v}" for t, v in zip(SPOOF_IDS, spoof)]
        (root / "scores" / f"{system}_{ds}.txt").write_text("\n".join(lines) + "\n")
    manifest = {
        "manifest_version": 1,
        "options": {"default_polarity": "higher-is-bonafide"},
        "datasets": [{"dataset_id": ds, "protocol_path": f"protocols/{ds}.txt"} for ds in datasets],
        "systems": [
            {"system_id": sys_id, "scores": {ds: f"scores/{sys_id}_{ds}.txt" for ds in datasets}}
            for sys_id in ("sysA", "sysB", "sysC")
        ],
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_arena")
    manifest_path = build_fixture(workdir)
    print(f"fixture written under {workdir}/")

    manifest = load_manifest(manifest_path)
    record = evaluate_arena(manifest, tool_version=__version__)

    print("\n== leaderboard (ranked by pooled EER) ==\n")
    print(emit(record, "markdown"))

    by_avg = [s.system_id for s in rank(record.summaries, key="average_eer")]
    by_pooled = [s.system_id for s in rank(record.summaries, key="pooled_eer")]
    print(f"rank by average EER: {by_avg}")
    print(f"rank by pooled EER:  {by_pooled}")

    store = workdir / "runs.jsonl"
    store_append(store, record)
    runs, issues = store_list(store)
    print(f"\nstore now holds {len(runs)} run(s), {len(issues)} unreadable line(s)")

    print("\n== per-dataset correlation with the average EER ==\n")
    print(correlate_matrix(record.eer_matrix()).to_csv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
