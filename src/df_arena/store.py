"""The run store: the line format of a finished run, appending a run and listing the store.

Each line of the store is one run record, as ``record.RunRecord.to_json``
writes it. The line schema is stated here once, by field names, which
``df_arena.record`` builds its record classes from; ``history`` checks and
lists a store without loading those classes or numpy.
"""

from __future__ import annotations

import fcntl
import json
import os
from collections import namedtuple
from pathlib import Path

from .errors import StoreError
from .vocab import RECORD_VERSION, text_fault

# The line schema, and the fields of ``record``'s named tuples. A record holds the
# header strings, then its version, its dataset ids, its reports and its summaries.
# A report holds exactly the report fields (``record.EvalReport``); a summary every
# required summary field and any of the optional ones (``record.SystemSummary``).
_HEADER_FIELDS = ("run_id", "timestamp", "manifest_digest", "tool_version")
_RECORD_FIELDS = _HEADER_FIELDS + ("record_version", "dataset_ids", "reports", "summaries")
_REPORT_FIELDS = ("system_id", "dataset_id", "eer", "eer_threshold", "auc", "accuracy", "f1",
                  "decision_threshold", "n_bonafide", "n_spoof")
_SUMMARY_REQUIRED = ("system_id", "average_eer", "pooled_eer", "per_dataset_eer")
_SUMMARY_OPTIONAL = ("param_count_millions", "average_auc", "category", "gap_datasets")

_REPORT_KEYS = frozenset(_REPORT_FIELDS)
_SUMMARY_REQUIRED_KEYS = frozenset(_SUMMARY_REQUIRED)
_SUMMARY_KEYS = _SUMMARY_REQUIRED_KEYS | frozenset(_SUMMARY_OPTIONAL)


def _check_record(doc: dict) -> None:
    """The v1 record schema, which ``record.RunRecord.from_dict`` and ``store_list`` both apply.

    Header fields are strings that ``vocab.text_fault`` passes, so that each
    prints on one line of ``history``. Reports and summaries are checked by their
    field names, not their values: a report has exactly the report fields, a
    summary every required summary field and no unknown one, and its
    ``gap_datasets``, where present, is a list of strings. Every record that
    passes constructs, so ``store_list`` lists exactly the lines ``from_dict``
    accepts. Raises KeyError, TypeError or ValueError.

    Every value read here must be a str, an exact int, a list or a dict, so a
    float and None both fail wherever either does: ``store_list`` relies on it
    when it decodes floats as None.
    """
    for key in _HEADER_FIELDS:
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
        if not isinstance(r, dict) or r.keys() != _REPORT_KEYS:
            raise TypeError(f"reports[{i}] must be an object with exactly EvalReport's fields")
    if not isinstance(summaries, list):
        raise TypeError(f"summaries must be a list, got {type(summaries).__name__}")
    for i, s in enumerate(summaries):
        if not isinstance(s, dict) or not _SUMMARY_REQUIRED_KEYS <= s.keys() <= _SUMMARY_KEYS:
            raise TypeError(f"summaries[{i}] must be an object with SystemSummary's fields")
        gaps = s.get("gap_datasets", [])
        if not isinstance(gaps, list) or not all(isinstance(d, str) for d in gaps):
            raise TypeError(f"summaries[{i}].gap_datasets must be a list of strings")


def store_append(store_path: str | Path, record) -> None:
    """Append one ``record.RunRecord`` to the run store as one fsynced line.

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


# A line the schema refuses, by its 1-based line number and the byte offset it starts at.
StoreIssue = namedtuple("StoreIssue", "line_number byte_offset reason")
# One run as ``history`` lists it: its record's header and table size.
StoredRun = namedtuple("StoredRun", _HEADER_FIELDS + ("n_systems", "n_datasets"))


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
                    runs.append(StoredRun(*(doc[key] for key in _HEADER_FIELDS),
                                          len(doc["summaries"]), len(doc["dataset_ids"])))
    except FileNotFoundError:
        return [], []
    except OSError as e:
        raise StoreError(f"cannot read store {store_path}: {e}") from e
    return runs, issues
