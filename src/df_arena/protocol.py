"""Dataset protocols and score files: parse, serialise and join.

All types here are plain dataclasses that are never mutated after
construction, so they can be shared freely across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import JoinError, ProtocolError, ScoreFileError, decode_input, read_input
from .spec import _preview, plain_number_text
from .vocab import HIGHER_IS_BONAFIDE, HIGHER_IS_SPOOF, JOIN_MODES, POLARITIES, PROTOCOL_FORMATS

BONAFIDE = "bonafide"
SPOOF = "spoof"

# The evaluation corpora are inconsistent about label tokens; this table maps
# the common variants onto the two canonical labels. Lookups are
# case-insensitive.
LABEL_ALIASES = {
    "bonafide": BONAFIDE,
    "bona-fide": BONAFIDE,
    "genuine": BONAFIDE,
    "real": BONAFIDE,
    "human": BONAFIDE,
    "target": BONAFIDE,
    "1": BONAFIDE,
    "spoof": SPOOF,
    "spoofed": SPOOF,
    "fake": SPOOF,
    "deepfake": SPOOF,
    "synthetic": SPOOF,
    "nontarget": SPOOF,
    "0": SPOOF,
}


def _labels(is_bonafide: np.ndarray) -> list[str]:
    return [BONAFIDE if b else SPOOF for b in is_bonafide.tolist()]


@dataclass(frozen=True, eq=False)
class TrialSet:
    """Ground-truth trial list of one dataset, in file order, as parallel columns.

    ``is_bonafide`` is a bool array and is treated as read-only. Trial ids are
    unique and both classes occur: ``parse_protocol`` checks that where trials
    come in.
    """

    ids: tuple[str, ...]
    is_bonafide: np.ndarray

    @property
    def trials(self) -> tuple[tuple[str, str], ...]:
        """``(trial_id, label)`` rows in file order, built on each access."""
        # perfbench/ uses this until its next change (ROADMAP item 1):
        # the tracer counts len(result.trials)
        return tuple(zip(self.ids, _labels(self.is_bonafide)))

    def __eq__(self, other):
        if not isinstance(other, TrialSet):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(self.is_bonafide, other.is_bonafide)


@dataclass(frozen=True)
class ScoreSet:
    """A score file's ``trial_id -> score`` index of finite values, treated as read-only."""

    scores: dict[str, float]


@dataclass(frozen=True, eq=False)
class JoinResult:
    """Joined labels and scores in trial order, plus what an intersect join dropped.

    ``is_bonafide`` (bool) and ``scores`` (float64, higher means more bonafide)
    are parallel arrays, treated as read-only.
    """

    is_bonafide: np.ndarray
    scores: np.ndarray
    dropped_trials: int = 0
    dropped_scores: int = 0

    @property
    def rows(self) -> tuple[tuple[str, float], ...]:
        """``(label, score)`` rows in trial order, built on each access."""
        # perfbench/ uses this until its next change (ROADMAP item 1):
        # the tracer counts len(result.rows)
        return tuple(zip(_labels(self.is_bonafide), self.scores.tolist()))


def _split_lines(text: str) -> list[str]:
    """The lines of text: a line ends at '\\n', '\\r\\n' or a lone '\\r' (universal newlines).

    str.splitlines() would also break at characters such as '\\x0c' or
    '\\u2028' and shift the line numbers.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _content_lines(text: str):
    """Yield (line_number, stripped_line), skipping blanks and '#' comments."""
    for lineno, raw in enumerate(_split_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _columns(text: str) -> list[list[str]] | None:
    """The token columns of text in the serialisers' layout, else None.

    In that layout every line holds the same number of tokens joined by
    single spaces and ends with '\\n', and there are no blank lines and no '#'.
    One split tokenises such text and one comparison with the text rebuilt
    from the columns checks it.
    """
    if "#" in text or not text.endswith("\n"):
        return None
    first_line = text[:text.index("\n")]
    if " ".join(first_line.split()) != first_line:
        return None  # text outside the layout nearly always shows it on its first line
    tokens = text.split()
    width = len(tokens) // text.count("\n")
    columns = [tokens[k::width] for k in range(width)]
    return columns if "\n".join(map(" ".join, zip(*columns))) + "\n" == text else None


def _parse_lines(path: Path, text: str, error_cls, parse_line) -> dict:
    """Parse the content lines one at a time; raise naming the first bad line.

    ``parse_line`` maps a line's tokens to ``(trial_id, value)`` or raises
    ValueError with the reason; a repeated id is bad too. Returns the values
    by trial id in file order. This is the slow path, for text outside the
    serialisers' layout and text that fails the column checks.
    """
    rows = {}
    for lineno, line in _content_lines(text):
        try:
            trial_id, value = parse_line(line.split())
            if trial_id in rows:
                raise ValueError(f"duplicate trial_id {trial_id!r}")
        except ValueError as e:
            raise error_cls(f"{path}: line {lineno}: {e}") from None
        rows[trial_id] = value
    return rows


def parse_protocol(path: str | Path, format: str = "two-column") -> TrialSet:
    """Parse a protocol file into a TrialSet.

    ``two-column`` lines are ``trial_id label`` with an optional third token
    (an attack tag, not kept). ``asvspoof`` lines follow the 5-column key
    layout: trial_id is column 2 and the label is the last column; the
    attack column is not kept. Labels are normalized through the alias
    table; line order is preserved. A file in the layout
    ``serialize_protocol`` writes is checked column by column; any other
    file, and one that fails those checks, is parsed line by line, which
    names the first bad line.
    """
    path = Path(path)
    if format not in PROTOCOL_FORMATS:
        raise ProtocolError(f"unknown protocol format {format!r}; expected one of {PROTOCOL_FORMATS}")
    two_column = format == "two-column"

    def parse_line(tokens):
        fields = _protocol_fields(tokens, two_column)
        if fields is None:
            expected = "2 or 3" if two_column else "at least 5"
            raise ValueError(f"expected {expected} columns, got {len(tokens)}")
        label_token = fields[1]
        if LABEL_ALIASES.get(label_token.lower()) not in (BONAFIDE, SPOOF):
            raise ValueError(f"unknown label token {label_token!r}")
        return fields

    text = decode_input(read_input(path, ProtocolError), path, ProtocolError)
    fields = _protocol_fields(_columns(text), two_column)
    if fields is not None:
        ids, label_tokens = fields
        known = all(LABEL_ALIASES.get(tok.lower()) in (BONAFIDE, SPOOF) for tok in set(label_tokens))
        if not known or len(set(ids)) != len(ids):
            fields = None
    if fields is None:
        rows = _parse_lines(path, text, ProtocolError, parse_line)
        if not rows:
            raise ProtocolError(f"{path}: empty protocol (no trials)")
        fields = list(rows), list(rows.values())
    ids, label_tokens = fields
    is_bona = {tok: LABEL_ALIASES[tok.lower()] == BONAFIDE for tok in set(label_tokens)}
    is_bonafide = np.fromiter(map(is_bona.__getitem__, label_tokens), dtype=bool, count=len(ids))
    n_bonafide = int(np.count_nonzero(is_bonafide))
    if n_bonafide in (0, len(ids)):
        raise ProtocolError(f"{path}: a protocol needs at least one bonafide and one spoof trial "
                            f"(got {n_bonafide} bonafide, {len(ids) - n_bonafide} spoof)")
    return TrialSet(tuple(ids), is_bonafide)


def _protocol_fields(columns, two_column: bool):
    """(id, label) of a protocol's token columns or of one line's tokens, or None for a wrong width."""
    width = len(columns) if columns else 0
    if two_column and width in (2, 3):
        return columns[0], columns[1]
    if not two_column and width >= 5:
        return columns[1], columns[-1]
    return None


def _write_lines(rows: list[list[str]], error_cls) -> str:
    """One line per row of tokens; refuses rows that would not parse back as written.

    That includes a first row led by U+FEFF, which the reader drops as a byte-order mark.
    """
    for i, fields in enumerate(rows):
        if (fields[0].startswith("#") or any(f.split() != [f] for f in fields)
                or (i == 0 and fields[0].startswith("\ufeff"))):
            raise error_cls(f"{' '.join(fields)!r} cannot be written as one content line")
    return "".join(" ".join(fields) + "\n" for fields in rows)


def serialize_protocol(trial_set: TrialSet) -> str:
    """``trial_id label`` text form of a TrialSet; inverse of parse_protocol."""
    rows = list(map(list, zip(trial_set.ids, _labels(trial_set.is_bonafide))))
    return _write_lines(rows, ProtocolError)


def _score_fields(tokens) -> tuple[str, float]:
    if len(tokens) != 2:
        raise ValueError(f"expected 'trial_id score', got {len(tokens)} columns")
    trial_id, raw = tokens
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not plain_number_text(raw):
        raise ValueError(f"non-numeric score {raw!r}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite score {raw!r}")
    return trial_id, value


def parse_scores(path: str | Path) -> ScoreSet:
    """Parse a ``trial_id score`` file; every score must be a finite real.

    A file in the layout ``serialize_scores`` writes is checked column by
    column; any other file, and one that fails those checks, is parsed line
    by line, which names the first bad line.
    """
    path = Path(path)
    text = decode_input(read_input(path, ScoreFileError), path, ScoreFileError)
    scores = _bulk_scores(_columns(text))
    if scores is None:
        scores = _parse_lines(path, text, ScoreFileError, _score_fields)
    return ScoreSet(scores)


def _bulk_scores(columns) -> dict[str, float] | None:
    """The score index of a score file's token columns, or None when a check fails."""
    if columns is None or len(columns) != 2:
        return None
    ids, raw = columns
    if not plain_number_text("".join(raw)):
        return None
    try:
        values = list(map(float, raw))
    except ValueError:
        return None
    scores = dict(zip(ids, values))
    # a non-finite value makes the sum non-finite; so does an overflow, and the line path then agrees
    return scores if len(scores) == len(values) and math.isfinite(sum(values)) else None


def serialize_scores(score_set: ScoreSet) -> str:
    """``trial_id score`` text form of a ScoreSet; inverse of parse_scores."""
    return _write_lines([[k, repr(float(v))] for k, v in score_set.scores.items()], ScoreFileError)


def join(trials: TrialSet, scores: ScoreSet, mode: str = "strict",
         polarity: str = HIGHER_IS_BONAFIDE) -> JoinResult:
    """Join labels with scores by trial_id.

    Strict mode requires the two key sets to match exactly; intersect mode
    keeps the inner join and counts what was dropped on either side. The
    caller declares the scores' polarity; higher-is-spoof scores are negated
    here, so everything downstream can assume higher means more bonafide.
    """
    if mode not in JOIN_MODES:
        raise ValueError(f"unknown join mode {mode!r}; expected one of {JOIN_MODES}")
    if polarity not in POLARITIES:
        raise ValueError(f"unknown polarity {polarity!r}; expected one of {POLARITIES}")
    index = scores.scores
    # scores are finite, so NaN marks a trial without one
    joined = np.fromiter(map(index.get, trials.ids, repeat(math.nan)), dtype=np.float64,
                         count=len(trials.ids))
    found = ~np.isnan(joined)
    kept = int(np.count_nonzero(found))
    dropped_trials, dropped_scores = len(trials.ids) - kept, len(index) - kept
    is_bonafide = trials.is_bonafide
    if dropped_trials or dropped_scores:
        if mode == "strict":
            parts = []
            if dropped_trials:
                parts.append(f"missing: {_preview(t for t in trials.ids if t not in index)}")
            if dropped_scores:
                parts.append(f"extra: {_preview(index.keys() - set(trials.ids))}")
            raise JoinError("strict join failed; " + "; ".join(parts))
        is_bonafide, joined = is_bonafide[found], joined[found]
    if polarity == HIGHER_IS_SPOOF:
        np.negative(joined, out=joined)
    return JoinResult(is_bonafide, joined, dropped_trials=dropped_trials, dropped_scores=dropped_scores)
