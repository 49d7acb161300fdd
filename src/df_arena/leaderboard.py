"""Arena evaluation: every (system, dataset) pair of a manifest in one pass.

A run evaluates every pair, derives one SystemSummary per system (average
EER over its datasets plus pooled EER over the concatenation of all its
joined label/score arrays), and wraps everything in a ``record.RunRecord``.
"""

from __future__ import annotations

import uuid
from datetime import datetime, timezone

import numpy as np

from .errors import ArenaError, ManifestError
from .metrics import evaluate, pooled_eer
from .protocol import join, parse_protocol, parse_scores
from .record import RunRecord, SystemSummary
from .spec import ArenaManifest
from .vocab import RECORD_VERSION


def evaluate_arena(manifest: ArenaManifest, tool_version: str = "0") -> RunRecord:
    """Evaluate every (system, dataset) pair bound by the manifest, in one pass.

    Every protocol is parsed and dataset coverage is checked before any
    score file is read. Pairs are then evaluated one at a time, system-major
    in manifest order; a system's joined label/score arrays are kept only
    until its pooled EER is computed. Output is deterministic for fixed
    inputs up to run_id and timestamp.
    """
    trial_sets = {}
    for d in manifest.datasets:
        try:
            trial_sets[d.dataset_id] = parse_protocol(d.protocol_path, d.format)
        except ArenaError as e:
            raise type(e)(f"dataset {d.dataset_id!r}: {e}") from e
    if not manifest.allow_gaps:
        for system in manifest.systems:
            missing = [d for d in manifest.dataset_ids() if d not in system.score_paths]
            if missing:
                raise ManifestError(f"system {system.system_id!r} has no scores for dataset {missing[0]!r}")

    reports = []
    summaries = []
    for system in manifest.systems:
        own_reports = []
        own_joined = []
        gaps = []
        for dataset_id in manifest.dataset_ids():
            if dataset_id not in system.score_paths:
                gaps.append(dataset_id)
                continue
            try:
                scores = parse_scores(system.score_paths[dataset_id])
                joined = join(trial_sets[dataset_id], scores, mode=manifest.join_mode,
                              polarity=system.polarity)
                own_reports.append(evaluate(joined, system.system_id, dataset_id))
            except ArenaError as e:
                raise type(e)(f"system {system.system_id!r}, dataset {dataset_id!r}: {e}") from e
            own_joined.append(joined)
        reports.extend(own_reports)
        summaries.append(
            SystemSummary(
                system_id=system.system_id,
                average_eer=float(np.mean([r.eer for r in own_reports])),
                pooled_eer=None if gaps else pooled_eer(own_joined)[0],
                per_dataset_eer={r.dataset_id: r.eer for r in own_reports},
                param_count_millions=system.param_count_millions,
                average_auc=float(np.mean([r.auc for r in own_reports])),
                category=system.category,
                gap_datasets=tuple(gaps),
            )
        )

    return RunRecord(
        run_id=uuid.uuid4().hex[:12],
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        manifest_digest=manifest.digest,
        tool_version=tool_version,
        record_version=RECORD_VERSION,
        dataset_ids=tuple(manifest.dataset_ids()),
        reports=tuple(reports),
        summaries=tuple(summaries),
    )
