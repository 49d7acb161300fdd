"""Finished runs in memory: the record classes, ranking and report emission.

A RunRecord holds every (system, dataset) EvalReport of one arena run and
one SystemSummary per system. It renders as markdown, csv or json, and its
json is one line of the run store (``df_arena.store``), whose line schema
``from_dict`` applies. The three classes are named tuples built from the
store's field names, which are written nowhere else. Nothing here imports
numpy.
"""

from __future__ import annotations

import json
from collections import namedtuple
from operator import attrgetter

from .store import _RECORD_FIELDS, _REPORT_FIELDS, _SUMMARY_OPTIONAL, _SUMMARY_REQUIRED, _check_record
# the report's words live in the leaf module vocab; importing them here keeps
# record.<name> valid for the documented ones
from .vocab import EMIT_FORMATS, GAP_MARK, ID_COLUMN, OPTIONAL_COLUMNS, RANK_KEYS, SUMMARY_COLUMNS

# Per-(system, dataset) metric bundle. EER/AUC/rates are in [0, 1].
EvalReport = namedtuple("EvalReport", _REPORT_FIELDS)

# One leaderboard row: per-dataset EERs plus the two aggregate EERs. ``pooled_eer``
# is None for systems evaluated with dataset gaps: pooling over fewer datasets than
# the others would not be comparable, so such systems are footnoted instead.
SystemSummary = namedtuple("SystemSummary", _SUMMARY_REQUIRED + _SUMMARY_OPTIONAL,
                           defaults=(None, None, None, ()))


class RunRecord(namedtuple("RunRecord", _RECORD_FIELDS)):
    __slots__ = ()

    def to_json(self) -> str:
        doc = {**self._asdict(), "reports": [r._asdict() for r in self.reports],
               "summaries": [s._asdict() for s in self.summaries]}
        return json.dumps(doc, sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        _check_record(doc)
        record = cls._make(doc[key] for key in _RECORD_FIELDS)  # other top-level keys are ignored
        return record._replace(
            dataset_ids=tuple(doc["dataset_ids"]),
            reports=tuple(EvalReport(**r) for r in doc["reports"]),
            summaries=tuple(SystemSummary(**{**s, "gap_datasets": tuple(s.get("gap_datasets", ()))})
                            for s in doc["summaries"]),
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
