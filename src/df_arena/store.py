"""Finished runs: the record schema, ranking, report emission and the run store.

A RunRecord holds every (system, dataset) EvalReport of one arena run and
one SystemSummary per system. It renders as markdown, csv or json and is
appended to a line-delimited run store, which ``store_list`` reads back.
Nothing here imports numpy, so ``history`` starts without it.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .errors import StoreError

RECORD_VERSION = 1

RANK_KEYS = ("pooled_eer", "average_eer")

EMIT_FORMATS = ("markdown", "csv", "json")


@dataclass(frozen=True)
class EvalReport:
    """Per-(system, dataset) metric bundle. EER/AUC/rates are in [0, 1]."""

    system_id: str
    dataset_id: str
    eer: float
    eer_threshold: float
    auc: float
    accuracy: float
    f1: float
    decision_threshold: float
    n_bonafide: int
    n_spoof: int


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


_REPORT_FIELDS = frozenset(f.name for f in fields(EvalReport))
_SUMMARY_FIELDS = frozenset(f.name for f in fields(SystemSummary))
_SUMMARY_REQUIRED = frozenset(f.name for f in fields(SystemSummary) if f.default is MISSING)


def _check_record(doc: dict) -> None:
    """The v1 record schema, which ``RunRecord.from_dict`` and ``store_list`` both apply.

    Header fields are type-checked. Reports and summaries are checked by their
    field names, not their values: a report has exactly ``EvalReport``'s
    fields, a summary every required ``SystemSummary`` field and no unknown
    one, and its ``gap_datasets``, where present, is a list of strings. Every
    record that passes constructs, so ``store_list`` lists exactly the lines
    ``from_dict`` accepts. Raises KeyError, TypeError or ValueError.
    """
    for key in ("run_id", "timestamp", "manifest_digest", "tool_version"):
        if not isinstance(doc[key], str):
            raise TypeError(f"{key} must be a string, got {type(doc[key]).__name__}")
    version = doc["record_version"]
    if type(version) is not int or version < 1:
        raise TypeError(f"record_version must be an integer >= 1, got {version!r}")
    if version > RECORD_VERSION:
        raise ValueError(f"record_version {version} is newer than {RECORD_VERSION}")
    dataset_ids = doc["dataset_ids"]
    if not isinstance(dataset_ids, list) or not all(isinstance(d, str) for d in dataset_ids):
        raise TypeError("dataset_ids must be a list of strings")
    reports, summaries = doc["reports"], doc["summaries"]
    if not isinstance(reports, list):
        raise TypeError(f"reports must be a list, got {type(reports).__name__}")
    for i, r in enumerate(reports):
        if not isinstance(r, dict) or r.keys() != _REPORT_FIELDS:
            raise TypeError(f"reports[{i}] must be an object with exactly EvalReport's fields")
    if not isinstance(summaries, list):
        raise TypeError(f"summaries must be a list, got {type(summaries).__name__}")
    for i, s in enumerate(summaries):
        if not isinstance(s, dict) or not _SUMMARY_REQUIRED <= s.keys() <= _SUMMARY_FIELDS:
            raise TypeError(f"summaries[{i}] must be an object with SystemSummary's fields")
        gaps = s.get("gap_datasets", [])
        if not isinstance(gaps, list) or not all(isinstance(d, str) for d in gaps):
            raise TypeError(f"summaries[{i}].gap_datasets must be a list of strings")


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        _check_record(doc)
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

    def eer_matrix(self):
        """Dense EER grid (a ``stats.EerMatrix``) over the systems that cover every dataset."""
        from .stats import EerMatrix

        rows, ids = [], []
        for s in self.summaries:
            if s.gap_datasets:
                continue
            ids.append(s.system_id)
            rows.append([s.per_dataset_eer[d] for d in self.dataset_ids])
        return EerMatrix.build(ids, self.dataset_ids, rows)


def _rank_tuple(summary: SystemSummary, key: str):
    other = "average_eer" if key == "pooled_eer" else "pooled_eer"
    pairs = [(v is None, v or 0.0) for v in (getattr(summary, key), getattr(summary, other))]
    return (*pairs, summary.system_id)


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


def format_percent(rate: float) -> str:
    """Rate in [0,1] as a percent string with 2 decimals (round-half-even)."""
    return f"{rate * 100.0:.2f}"


def _fmt_cell(value, fmt, best) -> str:
    """Markdown cell: ``-`` for None, else the column's format, else a percent EER, bold if best."""
    if value is None:
        return "-"
    if fmt is not None:
        return fmt(value)
    text = format_percent(value)
    return f"**{text}**" if value == best else text


def emit(record: RunRecord, format: str, sort: str = "pooled_eer") -> str:
    """Render a RunRecord as markdown, csv, or json.

    Markdown shows the systems x datasets EER grid (percent, 2 decimals,
    best per column bold) plus Average and Pooled columns; csv and json
    carry full precision. Rows are ranked by ``sort``.
    """
    if format == "json":
        return record.to_json() + "\n"
    ranked = rank(record.summaries, key=sort)
    if format not in EMIT_FORMATS:
        raise ValueError(f"unknown report format {format!r}; expected one of {EMIT_FORMATS}")
    # (csv header, markdown header, value of a summary, markdown format or None for an
    # EER column); category and params appear only when some system has one
    optional = [("category", "Category", lambda s: s.category, lambda c: c or "-"),
                ("param_count_millions", "Params (M)", lambda s: s.param_count_millions, "{:.2f}".format)]
    columns = [c for c in optional if any(c[2](s) is not None for s in ranked)]
    columns += [(d, d, lambda s, d=d: None if d in s.gap_datasets else s.per_dataset_eer.get(d), None)
                for d in record.dataset_ids]
    columns += [("average_eer", "Average", lambda s: s.average_eer, None),
                ("pooled_eer", "Pooled", lambda s: s.pooled_eer, None)]
    table = [[get(s) for _, _, get, _ in columns] for s in ranked]

    if format == "csv":
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")  # quotes a cell only where it must
        writer.writerow(["system_id"] + [name for name, _, _, _ in columns])
        # str of a float is its repr, which reads back to the same float
        writer.writerows([s.system_id] + ["" if v is None else str(v) for v in row]
                         for s, row in zip(ranked, table))
        return out.getvalue()

    def md_row(cells):  # an escaped | does not split the row
        return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"

    best = [min((v for v in col if v is not None), default=None) for col in zip(*table)]
    header = ["System"] + [md for _, md, _, _ in columns]
    lines = [md_row(header), md_row(["---"] * len(header))]
    for s, row in zip(ranked, table):
        cells = [_fmt_cell(v, fmt, b) for v, (_, _, _, fmt), b in zip(row, columns, best)]
        lines.append(md_row([s.system_id + ("*" if s.gap_datasets else "")] + cells))
    if any(s.gap_datasets for s in ranked):
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


@dataclass(frozen=True)
class StoredRun:
    """One run as ``history`` lists it: its record's header and table size."""

    run_id: str
    timestamp: str
    manifest_digest: str
    tool_version: str
    n_systems: int
    n_datasets: int


def store_list(store_path: str | Path) -> tuple[list[StoredRun], list[StoreIssue]]:
    """List runs in append order under a shared lock; a line that breaks the schema becomes an issue.

    Every line is checked against the whole record schema (``_check_record``),
    but no report or summary object is built.
    """
    store_path = Path(store_path)
    runs: list[StoredRun] = []
    issues: list[StoreIssue] = []
    offset = 0
    try:
        with open(store_path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            for lineno, raw in enumerate(fh, start=1):
                line_offset = offset
                offset += len(raw)
                if raw.isspace():
                    continue
                try:
                    doc = json.loads(raw)
                    _check_record(doc)
                except (ValueError, KeyError, TypeError, RecursionError) as e:  # incl. JSON and UTF-8 errors
                    issues.append(StoreIssue(lineno, line_offset, f"{type(e).__name__}: {e}"))
                else:
                    runs.append(StoredRun(doc["run_id"], doc["timestamp"], doc["manifest_digest"],
                                          doc["tool_version"], len(doc["summaries"]), len(doc["dataset_ids"])))
    except FileNotFoundError:
        return [], []
    except OSError as e:
        raise StoreError(f"cannot read store {store_path}: {e}") from e
    return runs, issues
