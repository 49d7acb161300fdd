"""Dataset protocols and score files: parse, serialise and join.

All types here are plain dataclasses that are never mutated after
construction, so they can be shared freely across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import JoinError, ProtocolError, ScoreFileError
from .spec import HIGHER_IS_BONAFIDE, HIGHER_IS_SPOOF, JOIN_MODES, POLARITIES, PROTOCOL_FORMATS, _preview

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
    unique: ``parse_protocol`` checks that where trials come in.
    """

    dataset_id: str
    ids: tuple[str, ...]
    is_bonafide: np.ndarray

    def __post_init__(self):
        if self.n_bonafide == 0 or self.n_spoof == 0:
            raise ProtocolError(
                f"dataset {self.dataset_id!r} needs at least one bonafide and one spoof trial "
                f"(got {self.n_bonafide} bonafide, {self.n_spoof} spoof)"
            )

    @property
    def n_bonafide(self) -> int:
        return int(np.count_nonzero(self.is_bonafide))

    @property
    def n_spoof(self) -> int:
        return self.is_bonafide.size - self.n_bonafide

    @property
    def trials(self) -> tuple[tuple[str, str], ...]:
        """``(trial_id, label)`` rows in file order, built on each access."""
        # perfbench/ uses this until its next change (ROADMAP item 1):
        # the tracer counts len(result.trials)
        return tuple(zip(self.ids, _labels(self.is_bonafide)))

    def __eq__(self, other):
        if not isinstance(other, TrialSet):
            return NotImplemented
        return ((self.dataset_id, self.ids) == (other.dataset_id, other.ids)
                and np.array_equal(self.is_bonafide, other.is_bonafide))


@dataclass(frozen=True)
class ScoreSet:
    """One system's scores on one dataset. ``scores`` is treated as read-only."""

    system_id: str
    polarity: str
    scores: dict[str, float]

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise ScoreFileError(f"unknown polarity {self.polarity!r}; expected one of {POLARITIES}")


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


def _read_text(path: Path, error_cls) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise error_cls(f"file not found: {path}")
    except UnicodeDecodeError as e:
        raise error_cls(f"{path} is not valid UTF-8: {e}")
    except OSError as e:
        raise error_cls(f"cannot read {path}: {e.strerror or e}")


def _content_lines(text: str):
    """Yield (line_number, stripped_line), skipping blanks and '#' comments.

    Lines end at '\\n' only; files are read with universal newlines, so '\\r\\n'
    and a lone '\\r' arrive as '\\n'. str.splitlines() would also break at
    characters such as '\\x0c' or '\\u2028' and shift the numbers.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


def parse_protocol(
    path: str | Path,
    format: str = "two-column",
    dataset_id: str | None = None,
) -> TrialSet:
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

    text = _read_text(path, ProtocolError)
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
    name = dataset_id if dataset_id is not None else path.stem
    try:
        return TrialSet(name, tuple(ids), is_bonafide)
    except ProtocolError as e:
        raise ProtocolError(f"{path}: {e}") from None


def _protocol_fields(columns, two_column: bool):
    """(id, label) of a protocol's token columns or of one line's tokens, or None for a wrong width."""
    width = len(columns) if columns else 0
    if two_column and width in (2, 3):
        return columns[0], columns[1]
    if not two_column and width >= 5:
        return columns[1], columns[-1]
    return None


def _write_lines(rows: list[list[str]], error_cls) -> str:
    """One line per row of tokens; refuses rows that would not parse back as written."""
    for fields in rows:
        if fields[0].startswith("#") or any(f.split() != [f] for f in fields):
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
        raise ValueError(f"non-numeric score {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite score {raw!r}")
    return trial_id, value


def parse_scores(
    path: str | Path,
    polarity: str = HIGHER_IS_BONAFIDE,
    system_id: str | None = None,
) -> ScoreSet:
    """Parse a ``trial_id score`` file; every score must be a finite real.

    A file in the layout ``serialize_scores`` writes is checked column by
    column; any other file, and one that fails those checks, is parsed line
    by line, which names the first bad line.
    """
    path = Path(path)
    text = _read_text(path, ScoreFileError)
    scores = _bulk_scores(_columns(text))
    if scores is None:
        scores = _parse_lines(path, text, ScoreFileError, _score_fields)
    name = system_id if system_id is not None else path.stem
    return ScoreSet(name, polarity, scores)


def _bulk_scores(columns) -> dict[str, float] | None:
    """The score index of a score file's token columns, or None when a check fails."""
    if columns is None or len(columns) != 2:
        return None
    ids, raw = columns
    try:
        values = list(map(float, raw))
    except ValueError:
        return None
    scores = dict(zip(ids, values))
    return scores if len(scores) == len(values) and np.isfinite(values).all() else None


def serialize_scores(score_set: ScoreSet) -> str:
    """``trial_id score`` text form of a ScoreSet; inverse of parse_scores."""
    return _write_lines([[k, repr(float(v))] for k, v in score_set.scores.items()], ScoreFileError)


def join(trials: TrialSet, scores: ScoreSet, mode: str = "strict") -> JoinResult:
    """Join labels with scores by trial_id.

    Strict mode requires the two key sets to match exactly; intersect mode
    keeps the inner join and counts what was dropped on either side. Scores
    declared higher-is-spoof are negated here, so everything downstream can
    assume higher means more bonafide.
    """
    if mode not in JOIN_MODES:
        raise ValueError(f"unknown join mode {mode!r}")
    values = list(map(scores.scores.get, trials.ids))
    is_bonafide = trials.is_bonafide
    missing, extra = [], set()
    kept = len(values) - values.count(None)
    if kept != len(values) or kept != len(scores.scores):
        missing = [trial_id for trial_id, v in zip(trials.ids, values) if v is None]
        extra = scores.scores.keys() - set(trials.ids)
        if mode == "strict":
            parts = []
            if missing:
                parts.append(f"missing: {_preview(missing)}")
            if extra:
                parts.append(f"extra: {_preview(extra)}")
            raise JoinError(
                f"strict join of scores {scores.system_id!r} against dataset "
                f"{trials.dataset_id!r} failed; " + "; ".join(parts)
            )
        is_bonafide = is_bonafide[[v is not None for v in values]]
        values = [v for v in values if v is not None]
    joined = np.array(values, dtype=np.float64)
    if scores.polarity == HIGHER_IS_SPOOF:
        np.negative(joined, out=joined)
    return JoinResult(is_bonafide, joined, dropped_trials=len(missing), dropped_scores=len(extra))
