"""Dataset protocols, score files, the arena manifest, and the scorer adapter.

All types here are plain dataclasses that are never mutated after
construction, so they can be shared freely across worker threads.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
import sys
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from .errors import JoinError, ManifestError, ProtocolError, ScoreFileError, ScorerError

BONAFIDE = "bonafide"
SPOOF = "spoof"

HIGHER_IS_BONAFIDE = "higher-is-bonafide"
HIGHER_IS_SPOOF = "higher-is-spoof"
POLARITIES = (HIGHER_IS_BONAFIDE, HIGHER_IS_SPOOF)

PROTOCOL_FORMATS = ("two-column", "asvspoof")

MANIFEST_VERSION = 1

# The evaluation corpora are inconsistent about label tokens; this table maps
# the common variants onto the two canonical labels. Lookups are
# case-insensitive. Callers may pass their own table to parse_protocol.
DEFAULT_LABEL_ALIASES = {
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


@dataclass(frozen=True)
class Trial:
    trial_id: str
    label: str
    attack_tag: str | None = None


@dataclass(frozen=True)
class TrialSet:
    """Ground-truth trial list of one dataset, in file order."""

    dataset_id: str
    trials: tuple[Trial, ...]

    def __post_init__(self):
        seen = set()
        for t in self.trials:
            if t.trial_id in seen:
                raise ProtocolError(f"duplicate trial_id {t.trial_id!r} in dataset {self.dataset_id!r}")
            seen.add(t.trial_id)
        if self.n_bonafide == 0 or self.n_spoof == 0:
            raise ProtocolError(
                f"dataset {self.dataset_id!r} needs at least one bonafide and one spoof trial "
                f"(got {self.n_bonafide} bonafide, {self.n_spoof} spoof)"
            )

    @property
    def n_bonafide(self) -> int:
        return sum(1 for t in self.trials if t.label == BONAFIDE)

    @property
    def n_spoof(self) -> int:
        return sum(1 for t in self.trials if t.label == SPOOF)

    def trial_ids(self) -> set[str]:
        return {t.trial_id for t in self.trials}


@dataclass(frozen=True)
class ScoreSet:
    """One system's scores on one dataset. ``scores`` is treated as read-only."""

    system_id: str
    dataset_id: str
    polarity: str
    scores: dict[str, float]

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise ScoreFileError(f"unknown polarity {self.polarity!r}; expected one of {POLARITIES}")
        for trial_id, value in self.scores.items():
            if not math.isfinite(value):
                raise ScoreFileError(f"non-finite score {value!r} for trial {trial_id!r}")


@dataclass(frozen=True)
class JoinResult:
    """Label/score rows in trial order, plus what an intersect join dropped."""

    rows: tuple[tuple[str, float], ...]
    dropped_trials: int = 0
    dropped_scores: int = 0


def _content_lines(path: Path, error_cls=ProtocolError):
    """Yield (line_number, stripped_line), skipping blanks and '#' comments."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error_cls(f"file not found: {path}")
    except UnicodeDecodeError as e:
        raise error_cls(f"{path} is not valid UTF-8: {e}")
    except OSError as e:
        raise error_cls(f"cannot read {path}: {e.strerror or e}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_protocol(
    path: str | Path,
    format: str = "two-column",
    aliases: dict[str, str] | None = None,
    dataset_id: str | None = None,
) -> TrialSet:
    """Parse a protocol file into a TrialSet.

    ``two-column`` lines are ``trial_id label`` with an optional third token
    carried as the attack tag. ``asvspoof`` lines follow the 5-column key
    layout: trial_id is column 2, the attack tag column 4 ('-' means none)
    and the label is the last column. Labels are normalized through the
    alias table; line order is preserved.
    """
    path = Path(path)
    if format not in PROTOCOL_FORMATS:
        raise ProtocolError(f"unknown protocol format {format!r}; expected one of {PROTOCOL_FORMATS}")
    alias_table = {k.lower(): v for k, v in (aliases or DEFAULT_LABEL_ALIASES).items()}

    trials: list[Trial] = []
    seen: set[str] = set()
    for lineno, line in _content_lines(path):
        tokens = line.split()
        if format == "two-column":
            if len(tokens) not in (2, 3):
                raise ProtocolError(f"{path}: line {lineno}: expected 2 or 3 columns, got {len(tokens)}")
            trial_id, label_token = tokens[0], tokens[1]
            attack = tokens[2] if len(tokens) == 3 else None
        else:
            if len(tokens) < 5:
                raise ProtocolError(f"{path}: line {lineno}: expected at least 5 columns, got {len(tokens)}")
            trial_id, label_token = tokens[1], tokens[-1]
            attack = None if tokens[3] == "-" else tokens[3]
        label = alias_table.get(label_token.lower())
        if label is None:
            raise ProtocolError(f"{path}: line {lineno}: unknown label token {label_token!r}")
        if trial_id in seen:
            raise ProtocolError(f"{path}: line {lineno}: duplicate trial_id {trial_id!r}")
        seen.add(trial_id)
        trials.append(Trial(trial_id, label, attack))

    if not trials:
        raise ProtocolError(f"{path}: empty protocol (no trials)")
    name = dataset_id if dataset_id is not None else path.stem
    try:
        return TrialSet(name, tuple(trials))
    except ProtocolError as e:
        raise ProtocolError(f"{path}: {e}") from None


def _write_lines(rows: list[list[str]], error_cls) -> str:
    """One line per row of tokens; refuses rows that would not parse back as written."""
    for fields in rows:
        if fields[0].startswith("#") or any(f.split() != [f] for f in fields):
            raise error_cls(f"{' '.join(fields)!r} cannot be written as one content line")
    return "".join(" ".join(fields) + "\n" for fields in rows)


def serialize_protocol(trial_set: TrialSet) -> str:
    """Two-column text form of a TrialSet; inverse of parse_protocol."""
    rows = [[t.trial_id, t.label] + ([] if t.attack_tag is None else [t.attack_tag])
            for t in trial_set.trials]
    return _write_lines(rows, ProtocolError)


def parse_scores(
    path: str | Path,
    polarity: str = HIGHER_IS_BONAFIDE,
    system_id: str | None = None,
    dataset_id: str = "",
) -> ScoreSet:
    """Parse a ``trial_id score`` file; every score must be a finite real."""
    path = Path(path)
    scores: dict[str, float] = {}
    for lineno, line in _content_lines(path, error_cls=ScoreFileError):
        tokens = line.split()
        if len(tokens) != 2:
            raise ScoreFileError(f"{path}: line {lineno}: expected 'trial_id score', got {len(tokens)} columns")
        trial_id, raw = tokens
        try:
            value = float(raw)
        except ValueError:
            raise ScoreFileError(f"{path}: line {lineno}: non-numeric score {raw!r}") from None
        if not math.isfinite(value):
            raise ScoreFileError(f"{path}: line {lineno}: non-finite score {raw!r}")
        if trial_id in scores:
            raise ScoreFileError(f"{path}: line {lineno}: duplicate trial_id {trial_id!r}")
        scores[trial_id] = value
    name = system_id if system_id is not None else path.stem
    return ScoreSet(name, dataset_id, polarity, scores)


def serialize_scores(score_set: ScoreSet) -> str:
    """``trial_id score`` text form of a ScoreSet; inverse of parse_scores."""
    return _write_lines([[k, repr(float(v))] for k, v in score_set.scores.items()], ScoreFileError)


def _preview(ids, limit=10) -> str:
    ids = sorted(ids)
    head = ", ".join(ids[:limit])
    extra = len(ids) - limit
    return head + (f" (+{extra} more)" if extra > 0 else "")


def join(trials: TrialSet, scores: ScoreSet, mode: str = "strict") -> JoinResult:
    """Join labels with scores by trial_id.

    Strict mode requires the two key sets to match exactly; intersect mode
    keeps the inner join and counts what was dropped on either side. Scores
    declared higher-is-spoof are negated here, so everything downstream can
    assume higher means more bonafide.
    """
    if mode not in ("strict", "intersect"):
        raise ValueError(f"unknown join mode {mode!r}")
    trial_ids = trials.trial_ids()
    score_ids = set(scores.scores)
    missing = trial_ids - score_ids
    extra = score_ids - trial_ids
    if mode == "strict" and (missing or extra):
        parts = []
        if missing:
            parts.append(f"missing: {_preview(missing)}")
        if extra:
            parts.append(f"extra: {_preview(extra)}")
        raise JoinError(
            f"strict join of scores {scores.system_id!r} against dataset "
            f"{trials.dataset_id!r} failed; " + "; ".join(parts)
        )
    sign = -1.0 if scores.polarity == HIGHER_IS_SPOOF else 1.0
    rows = tuple(
        (t.label, sign * scores.scores[t.trial_id]) for t in trials.trials if t.trial_id in score_ids
    )
    return JoinResult(rows, dropped_trials=len(missing), dropped_scores=len(extra))


def run_external_scorer(
    command: str | list[str],
    audio_list: str | Path,
    timeout: float | None = None,
    system_id: str = "external",
    dataset_id: str = "",
    polarity: str = HIGHER_IS_BONAFIDE,
) -> ScoreSet:
    """Score audio files through a subprocess.

    The scorer reads newline-separated audio paths on stdin and must emit one
    ``path<TAB>score`` line per input path on stdout, exiting 0. Trial IDs
    are the basename without extension, so the adapter stays agnostic to the
    on-disk layout.
    """
    audio_list = Path(audio_list)
    paths = [line for _, line in _content_lines(audio_list, error_cls=ScorerError)]
    if not paths:
        raise ScorerError(f"audio list {audio_list} is empty")
    expected = {}
    for p in paths:
        stem = Path(p).stem
        if stem in expected:
            raise ScorerError(f"audio list {audio_list}: duplicate trial id {stem!r} (from {p!r})")
        expected[stem] = p

    argv = shlex.split(command) if isinstance(command, str) else list(command)
    try:
        proc = subprocess.run(
            argv,
            input="\n".join(paths) + "\n",
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except FileNotFoundError:
        raise ScorerError(f"scorer command not found: {argv[0]!r}") from None
    except subprocess.TimeoutExpired:
        raise ScorerError(f"scorer timed out after {timeout}s: {argv[0]!r}") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ScorerError(
            f"scorer exited {proc.returncode}; stderr: " + (" | ".join(tail) if tail else "<empty>")
        )

    scores: dict[str, float] = {}
    for lineno, line in enumerate(proc.stdout.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ScorerError(f"scorer output line {lineno}: expected 'path<TAB>score', got {line!r}")
        stem = Path(parts[0]).stem
        try:
            value = float(parts[1])
        except ValueError:
            raise ScorerError(f"scorer output line {lineno}: non-numeric score {parts[1]!r}") from None
        if not math.isfinite(value):
            raise ScorerError(f"scorer output line {lineno}: non-finite score {parts[1]!r}")
        if stem not in expected:
            raise ScorerError(f"scorer output line {lineno}: unknown path {parts[0]!r}")
        if stem in scores:
            raise ScorerError(f"scorer output line {lineno}: duplicate path {parts[0]!r}")
        scores[stem] = value

    missing = set(expected) - set(scores)
    if missing:
        raise ScorerError(f"scorer output incomplete; missing: {_preview(missing)}")
    return ScoreSet(system_id, dataset_id, polarity, scores)


@dataclass(frozen=True)
class DatasetSpec:
    dataset_id: str
    protocol_path: Path
    format: str = "two-column"


@dataclass(frozen=True)
class SystemSpec:
    system_id: str
    score_paths: dict[str, Path]
    polarity: str
    param_count_millions: float | None = None
    category: str | None = None


@dataclass(frozen=True)
class ArenaManifest:
    """Binding of systems to datasets, loaded from a versioned JSON file."""

    manifest_version: int
    datasets: tuple[DatasetSpec, ...]
    systems: tuple[SystemSpec, ...]
    output_dir: Path | None = None
    allow_gaps: bool = False
    join_mode: str = "strict"
    digest: str = ""
    source_path: Path | None = None

    def dataset_ids(self) -> list[str]:
        return [d.dataset_id for d in self.datasets]


def load_manifest(path: str | Path) -> ArenaManifest:
    """Load and validate an arena manifest (JSON, versioned).

    Relative protocol/score paths are resolved against the manifest's own
    directory. Every score entry must reference a declared dataset; unless
    ``options.allow_gaps`` is set, every system must cover every dataset.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}")
    except OSError as e:
        raise ManifestError(f"cannot read manifest {path}: {e.strerror or e}")
    digest = sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ManifestError(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    version = doc.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ManifestError(f"{path}: manifest_version must be {MANIFEST_VERSION}, got {version!r}")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ManifestError(f"{path}: options must be an object")
    default_polarity = options.get("default_polarity")
    if default_polarity is not None and default_polarity not in POLARITIES:
        raise ManifestError(f"{path}: options.default_polarity {default_polarity!r} not in {POLARITIES}")
    join_mode = options.get("join_mode", "strict")
    if join_mode not in ("strict", "intersect"):
        raise ManifestError(f"{path}: options.join_mode {join_mode!r} must be strict or intersect")
    allow_gaps = options.get("allow_gaps", False)
    if not isinstance(allow_gaps, bool):
        raise ManifestError(f"{path}: options.allow_gaps must be true or false, got {allow_gaps!r}")
    output_dir = options.get("output_dir")

    base = path.parent

    def resolve(p, field: str) -> Path:
        if not isinstance(p, str) or not p:
            raise ManifestError(f"{path}: {field} must be a non-empty string, got {p!r}")
        p = Path(p)
        return p if p.is_absolute() else base / p

    def entries(key: str) -> list[dict]:
        items = doc.get(key, [])
        if not isinstance(items, list) or not all(isinstance(e, dict) for e in items):
            raise ManifestError(f"{path}: {key} must be a list of objects")
        return items

    datasets = []
    seen_ds = set()
    for entry in entries("datasets"):
        ds_id = entry.get("dataset_id")
        if not ds_id or not isinstance(ds_id, str):
            raise ManifestError(f"{path}: every dataset needs a string dataset_id")
        if ds_id in seen_ds:
            raise ManifestError(f"{path}: duplicate dataset_id {ds_id!r}")
        seen_ds.add(ds_id)
        fmt = entry.get("format", "two-column")
        if fmt not in PROTOCOL_FORMATS:
            raise ManifestError(f"{path}: dataset {ds_id!r}: unknown format {fmt!r}")
        protocol_path = resolve(entry.get("protocol_path"), f"dataset {ds_id!r}: protocol_path")
        datasets.append(DatasetSpec(ds_id, protocol_path, fmt))
    if not datasets:
        raise ManifestError(f"{path}: manifest declares no datasets")

    systems = []
    seen_sys = set()
    for entry in entries("systems"):
        sys_id = entry.get("system_id")
        if not sys_id or not isinstance(sys_id, str):
            raise ManifestError(f"{path}: every system needs a string system_id")
        if sys_id in seen_sys:
            raise ManifestError(f"{path}: duplicate system_id {sys_id!r}")
        seen_sys.add(sys_id)
        polarity = entry.get("polarity", default_polarity)
        if polarity is None:
            raise ManifestError(
                f"{path}: system {sys_id!r} has no polarity and options.default_polarity is unset; "
                "score polarity is never guessed"
            )
        if polarity not in POLARITIES:
            raise ManifestError(f"{path}: system {sys_id!r}: polarity {polarity!r} not in {POLARITIES}")
        raw_scores = entry.get("scores", {})
        if not isinstance(raw_scores, dict) or not raw_scores:
            raise ManifestError(f"{path}: system {sys_id!r} declares no score files")
        score_paths = {}
        for ds_id, score_path in raw_scores.items():
            if ds_id not in seen_ds:
                raise ManifestError(f"{path}: system {sys_id!r} scores undeclared dataset {ds_id!r}")
            score_paths[ds_id] = resolve(score_path, f"system {sys_id!r}: score path for {ds_id!r}")
        if not allow_gaps:
            gaps = seen_ds - set(score_paths)
            if gaps:
                raise ManifestError(
                    f"{path}: system {sys_id!r} has no scores for: {_preview(gaps)} "
                    "(set options.allow_gaps to permit this)"
                )
        params, category = entry.get("param_count_millions"), entry.get("category")
        if params is not None and (isinstance(params, bool) or not isinstance(params, (int, float))
                                   or abs(params) > sys.float_info.max):
            raise ManifestError(f"{path}: system {sys_id!r}: param_count_millions must be a number")
        if category is not None and not isinstance(category, str):
            raise ManifestError(f"{path}: system {sys_id!r}: category must be a string")
        params = None if params is None else float(params)
        systems.append(SystemSpec(sys_id, score_paths, polarity, params, category))
    if not systems:
        raise ManifestError(f"{path}: manifest declares no systems")

    return ArenaManifest(
        manifest_version=version,
        datasets=tuple(datasets),
        systems=tuple(systems),
        output_dir=resolve(output_dir, "options.output_dir") if output_dir else None,
        allow_gaps=allow_gaps,
        join_mode=join_mode,
        digest=digest,
        source_path=path,
    )
