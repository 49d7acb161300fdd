"""Arena evaluation, ranking, report emission, and the run store.

A run evaluates every (system, dataset) pair in the manifest, derives one
SystemSummary per system (average EER over its datasets plus pooled EER
over the concatenation of all its joined label/score arrays), and wraps
everything in a RunRecord that can be rendered (markdown/csv/json) or
appended to a line-delimited run store.
"""

from __future__ import annotations

import fcntl
import json
import os
import uuid
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ArenaError, ManifestError, StoreError
from .metrics import EvalReport, evaluate, format_percent, pooled_eer
from .protocol import ArenaManifest, join, parse_protocol, parse_scores
from .stats import EerMatrix

RECORD_VERSION = 1

RANK_KEYS = ("pooled_eer", "average_eer")

EMIT_FORMATS = ("markdown", "csv", "json")


@dataclass(frozen=True)
class SystemSummary:
    """One leaderboard row: per-dataset EERs plus the two aggregate EERs.

    ``pooled_eer`` is None for systems evaluated with dataset gaps: pooling
    over fewer datasets than the others would not be comparable, so such
    systems are footnoted instead.
    """

    system_id: str
    average_eer: float
    pooled_eer: float | None
    per_dataset_eer: dict[str, float]
    param_count_millions: float | None = None
    average_auc: float | None = None
    category: str | None = None
    gap_datasets: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunRecord:
    run_id: str
    timestamp: str
    manifest_digest: str
    tool_version: str
    record_version: int
    dataset_ids: tuple[str, ...]
    reports: tuple[EvalReport, ...]
    summaries: tuple[SystemSummary, ...]

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["dataset_ids"] = list(self.dataset_ids)
        for s in doc["summaries"]:
            s["gap_datasets"] = list(s["gap_datasets"])
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        if doc["record_version"] > RECORD_VERSION:
            raise ValueError(f"record_version {doc['record_version']} is newer than {RECORD_VERSION}")
        return cls(
            run_id=doc["run_id"],
            timestamp=doc["timestamp"],
            manifest_digest=doc["manifest_digest"],
            tool_version=doc["tool_version"],
            record_version=doc["record_version"],
            dataset_ids=tuple(doc["dataset_ids"]),
            reports=tuple(EvalReport(**r) for r in doc["reports"]),
            summaries=tuple(
                SystemSummary(**{**s, "gap_datasets": tuple(s.get("gap_datasets", ()))})
                for s in doc["summaries"]
            ),
        )

    def eer_matrix(self) -> EerMatrix:
        """Dense EER grid over the systems that cover every dataset."""
        rows, ids = [], []
        for s in self.summaries:
            if s.gap_datasets:
                continue
            ids.append(s.system_id)
            rows.append([s.per_dataset_eer[d] for d in self.dataset_ids])
        return EerMatrix.build(ids, self.dataset_ids, np.asarray(rows))


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
            trial_sets[d.dataset_id] = parse_protocol(d.protocol_path, d.format,
                                                      dataset_id=d.dataset_id)
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
                scores = parse_scores(system.score_paths[dataset_id], polarity=system.polarity,
                                      system_id=system.system_id)
                joined = join(trial_sets[dataset_id], scores, mode=manifest.join_mode)
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


def _rank_tuple(summary: SystemSummary, key: str):
    primary = getattr(summary, key)
    other = summary.average_eer if key == "pooled_eer" else summary.pooled_eer
    return (
        primary is None,
        primary if primary is not None else 0.0,
        other is None,
        other if other is not None else 0.0,
        summary.system_id,
    )


def rank(summaries, key: str = "pooled_eer") -> list[SystemSummary]:
    """Ascending by key; ties broken by the other EER key, then system_id.

    Systems without a pooled EER (gap rows) sort after all ranked systems.
    The order is total, so permuting the input never changes the output.
    """
    if key not in RANK_KEYS:
        raise ValueError(f"unknown ranking key {key!r}; expected one of {RANK_KEYS}")
    if not summaries:
        raise ValueError("rank() needs at least one summary")
    return sorted(summaries, key=lambda s: _rank_tuple(s, key))


def _fmt_cell(value: float | None, best: float | None) -> str:
    if value is None:
        return "-"
    text = format_percent(value)
    return f"**{text}**" if best is not None and value == best else text


def emit(record: RunRecord, format: str, sort: str = "pooled_eer") -> str:
    """Render a RunRecord as markdown, csv, or json.

    Markdown shows the systems x datasets EER grid (percent, 2 decimals,
    best per column bold) plus Average and Pooled columns; csv and json
    carry full precision. Rows are ranked by ``sort``.
    """
    if format == "json":
        return record.to_json() + "\n"
    ranked = rank(record.summaries, key=sort)
    datasets = list(record.dataset_ids)
    has_params = any(s.param_count_millions is not None for s in ranked)
    has_category = any(s.category is not None for s in ranked)

    if format == "csv":
        header = ["system_id"]
        if has_category:
            header.append("category")
        if has_params:
            header.append("param_count_millions")
        header += datasets + ["average_eer", "pooled_eer"]
        lines = [",".join(header)]
        for s in ranked:
            row = [s.system_id]
            if has_category:
                row.append(s.category or "")
            if has_params:
                row.append("" if s.param_count_millions is None else repr(s.param_count_millions))
            row += ["" if d in s.gap_datasets else repr(s.per_dataset_eer[d]) for d in datasets]
            row.append(repr(s.average_eer))
            row.append("" if s.pooled_eer is None else repr(s.pooled_eer))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    if format != "markdown":
        raise ValueError(f"unknown report format {format!r}; expected one of {EMIT_FORMATS}")

    def col_best(values):
        values = [v for v in values if v is not None]
        return min(values) if values else None

    best_by_ds = {d: col_best([s.per_dataset_eer.get(d) for s in ranked]) for d in datasets}
    best_avg = col_best([s.average_eer for s in ranked])
    best_pooled = col_best([s.pooled_eer for s in ranked])

    header = ["System"]
    if has_category:
        header.append("Category")
    if has_params:
        header.append("Params (M)")
    header += datasets + ["Average", "Pooled"]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join(["---"] * len(header)) + " |",
    ]
    footnote = False
    for s in ranked:
        name = s.system_id + ("*" if s.gap_datasets else "")
        footnote = footnote or bool(s.gap_datasets)
        row = [name]
        if has_category:
            row.append(s.category or "-")
        if has_params:
            row.append("-" if s.param_count_millions is None else f"{s.param_count_millions:.2f}")
        for d in datasets:
            v = None if d in s.gap_datasets else s.per_dataset_eer.get(d)
            row.append(_fmt_cell(v, best_by_ds[d]))
        row.append(_fmt_cell(s.average_eer, best_avg))
        row.append(_fmt_cell(s.pooled_eer, best_pooled))
        lines.append("| " + " | ".join(row) + " |")
    if footnote:
        lines.append("")
        lines.append(
            "\\* evaluated with dataset gaps; average covers its datasets only and pooled EER is omitted."
        )
    return "\n".join(lines) + "\n"


def store_append(store_path: str | Path, record: RunRecord) -> None:
    """Append one record to the run store as one fsynced line.

    Writes under an exclusive lock on the store file, which ``store_list`` shares.
    A torn last line left by a crash is closed first, so the new record reads back.
    """
    store_path = Path(store_path)
    line = (record.to_json() + "\n").encode("utf-8")
    try:
        store_path.parent.mkdir(parents=True, exist_ok=True)
        with open(store_path, "ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            if fh.seek(0, os.SEEK_END) > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as e:
        raise StoreError(f"cannot append to store {store_path}: {e}") from e


@dataclass(frozen=True)
class StoreIssue:
    line_number: int
    byte_offset: int
    reason: str


def store_list(store_path: str | Path) -> tuple[list[RunRecord], list[StoreIssue]]:
    """Read records in append order under a shared lock; corrupt lines become issues."""
    store_path = Path(store_path)
    records: list[RunRecord] = []
    issues: list[StoreIssue] = []
    offset = 0
    try:
        with open(store_path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            for lineno, raw in enumerate(fh, start=1):
                line_offset = offset
                offset += len(raw)
                text = raw.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    records.append(RunRecord.from_dict(json.loads(text)))
                except (ValueError, KeyError, TypeError, RecursionError) as e:  # incl. JSONDecodeError
                    issues.append(StoreIssue(lineno, line_offset, f"{type(e).__name__}: {e}"))
    except FileNotFoundError:
        return [], []
    except OSError as e:
        raise StoreError(f"cannot read store {store_path}: {e}") from e
    return records, issues
