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
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from pathlib import Path

from .errors import StoreError
# the record's and the report's words live in the leaf module vocab; importing them
# here keeps store.<name> valid for the documented ones
from .vocab import (EMIT_FORMATS, GAP_MARK, ID_COLUMN, OPTIONAL_COLUMNS, RANK_KEYS, RECORD_VERSION,
                    SUMMARY_COLUMNS, text_fault)


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

    Header fields are strings that ``vocab.text_fault`` passes, so that each
    prints on one line of ``history``. Reports and summaries are checked by their
    field names, not their values: a report has exactly ``EvalReport``'s
    fields, a summary every required ``SystemSummary`` field and no unknown
    one, and its ``gap_datasets``, where present, is a list of strings. Every
    record that passes constructs, so ``store_list`` lists exactly the lines
    ``from_dict`` accepts. Raises KeyError, TypeError or ValueError.

    Every value read here must be a str, an exact int, a list or a dict, so a
    float and None both fail wherever either does: ``store_list`` relies on it
    when it decodes floats as None.
    """
    for key in ("run_id", "timestamp", "manifest_digest", "tool_version"):
        if not isinstance(doc[key], str):
            raise TypeError(f"{key} must be a string, got {type(doc[key]).__name__}")
        fault = text_fault(doc[key])
        if fault:
            raise ValueError(f"{key} {fault}")
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
        # vars(), not asdict, which would deep-copy every float
        doc = {**vars(self), "reports": [vars(r) for r in self.reports],
               "summaries": [vars(s) for s in self.summaries]}
        return json.dumps(doc, sort_keys=True, allow_nan=False)

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


def csv_text(rows) -> str:
    """Rows as CSV text, lines ending in a newline, a cell quoted only where it must be.

    The writer ends each row (written in one call) with CRLF, which makes it quote a
    cell holding a carriage return too: before Python 3.13 it quotes only the
    characters of its terminator. Each CRLF is then cut to a newline.
    """
    import csv
    from types import SimpleNamespace

    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


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
    formats = {"category": lambda c: c or "-", "param_count_millions": "{:.2f}".format}
    columns = [(name, md, attrgetter(name), formats[name]) for name, md in OPTIONAL_COLUMNS
               if any(getattr(s, name) is not None for s in ranked)]
    columns += [(d, d, lambda s, d=d: None if d in s.gap_datasets else s.per_dataset_eer.get(d), None)
                for d in record.dataset_ids]
    columns += [(name, md, attrgetter(name), None) for name, md in SUMMARY_COLUMNS]
    table = [[get(s) for _, _, get, _ in columns] for s in ranked]

    if format == "csv":
        # str of a float is its repr, which reads back to the same float
        return csv_text([[ID_COLUMN[0]] + [name for name, _, _, _ in columns]]
                        + [[s.system_id] + ["" if v is None else str(v) for v in row]
                           for s, row in zip(ranked, table)])

    def md_row(cells):  # an escaped | does not split the row
        return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"

    best = [min((v for v in col if v is not None), default=None) for col in zip(*table)]
    header = [ID_COLUMN[1]] + [md for _, md, _, _ in columns]
    lines = [md_row(header), md_row(["---"] * len(header))]
    for s, row in zip(ranked, table):
        cells = [_fmt_cell(v, fmt, b) for v, (_, _, _, fmt), b in zip(row, columns, best)]
        lines.append(md_row([s.system_id + (GAP_MARK if s.gap_datasets else "")] + cells))
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


# json's parse_float hook: a float becomes None, which no _check_record check
# accepts, so the floats that nothing here reads are never built
_SKIP_FLOAT = {}.get


def _read_record(raw: bytes) -> dict:
    """One store line as a record that passes ``_check_record``, its floats decoded as None.

    A line that fails is decoded again in full and checked again, so that the
    error names a float as a float. Raises what ``json.loads`` or
    ``_check_record`` raises.
    """
    try:
        doc = json.loads(raw, parse_float=_SKIP_FLOAT)
        _check_record(doc)
    except (ValueError, KeyError, TypeError, RecursionError):
        doc = json.loads(raw)
        _check_record(doc)
    return doc


def store_list(store_path: str | Path) -> tuple[list[StoredRun], list[StoreIssue]]:
    """List runs in append order under a shared lock; a line that breaks the schema becomes an issue.

    Every line is checked against the whole record schema (``_check_record``),
    but no report or summary object, and no float, is built.
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
                    doc = _read_record(raw)
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
