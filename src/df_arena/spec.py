"""Input rules checked before any work starts: the arena manifest and the augmentation recipe.

Nothing here imports numpy, so the CLI can parse its flags and refuse a bad
manifest or recipe without loading the numeric modules.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import AugmentError, ManifestError, decode_input, read_input

HIGHER_IS_BONAFIDE = "higher-is-bonafide"
HIGHER_IS_SPOOF = "higher-is-spoof"
POLARITIES = (HIGHER_IS_BONAFIDE, HIGHER_IS_SPOOF)

PROTOCOL_FORMATS = ("two-column", "asvspoof")

JOIN_MODES = ("strict", "intersect")

MANIFEST_VERSION = 1

MAX_SCORER_TIMEOUT_S = 2_147_483  # the scorer is awaited by select.poll: whole ms in a C int

# Unicode categories Cc, Zl and Zp, which the standard keeps fixed: every str.splitlines break, tab, NUL
_ID_FORBIDDEN_CHARS = frozenset(map(chr, [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029]))

ADDITIVE_CATEGORIES = ("noise", "music", "speech")
CATEGORIES = ADDITIVE_CATEGORIES + ("reverb",)
CLIP_POLICIES = ("peak-normalize", "hard-clip")

# Default target-SNR ranges (dB) per additive category.
DEFAULT_SNR_RANGES = {
    "noise": (0.0, 15.0),
    "speech": (13.0, 20.0),
    "music": (5.0, 15.0),
}


def _encodes_as_utf8(text: str) -> bool:
    """False for a str holding a lone surrogate, which no UTF-8 output can carry."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def text_fault(text: str) -> str | None:
    """Why ``text`` cannot stand in one line of a UTF-8 report, or None if it can.

    The rule for every name a report or listing prints: no Cc, Zl or Zp
    character, and no lone surrogate.
    """
    if not _ID_FORBIDDEN_CHARS.isdisjoint(text):
        return "holds a control or line-break character"
    return None if _encodes_as_utf8(text) else "does not encode as UTF-8"


def _preview(ids, limit=10) -> str:
    ids = sorted(ids)
    head = ", ".join(ids[:limit])
    extra = len(ids) - limit
    return head + (f" (+{extra} more)" if extra > 0 else "")


@dataclass(frozen=True)
class DatasetSpec:
    dataset_id: str
    protocol_path: Path
    format: str


@dataclass(frozen=True)
class SystemSpec:
    system_id: str
    score_paths: dict[str, Path]
    polarity: str
    param_count_millions: float | None
    category: str | None


@dataclass(frozen=True)
class ArenaManifest:
    """Binding of systems to datasets, loaded from a versioned JSON file."""

    datasets: tuple[DatasetSpec, ...]
    systems: tuple[SystemSpec, ...]
    output_dir: Path | None
    allow_gaps: bool
    join_mode: str
    digest: str

    def dataset_ids(self) -> list[str]:
        return [d.dataset_id for d in self.datasets]


def load_manifest(path: str | Path) -> ArenaManifest:
    """Load and validate an arena manifest (JSON, versioned).

    Relative protocol/score paths are resolved against the manifest's own
    directory. Every score entry must reference a declared dataset; unless
    ``options.allow_gaps`` is set, every system must cover every dataset.
    Ids and categories may hold no control or line-break character (Unicode
    Cc, Zl, Zp), and paths no NUL; neither may hold a lone surrogate, which
    does not encode as UTF-8.
    """
    from hashlib import sha256  # here, so that --version and history start without it

    path = Path(path)
    raw = read_input(path, ManifestError)
    digest = sha256(raw).hexdigest()
    text = decode_input(raw, path, ManifestError)
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ManifestError(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    version = doc.get("manifest_version")
    if type(version) is not int or version != MANIFEST_VERSION:
        raise ManifestError(f"{path}: manifest_version must be {MANIFEST_VERSION}, got {version!r}")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ManifestError(f"{path}: options must be an object")
    default_polarity = options.get("default_polarity")
    if default_polarity is not None and default_polarity not in POLARITIES:
        raise ManifestError(f"{path}: options.default_polarity {default_polarity!r} not in {POLARITIES}")
    join_mode = options.get("join_mode", JOIN_MODES[0])
    if join_mode not in JOIN_MODES:
        raise ManifestError(f"{path}: options.join_mode {join_mode!r} must be strict or intersect")
    allow_gaps = options.get("allow_gaps", False)
    if not isinstance(allow_gaps, bool):
        raise ManifestError(f"{path}: options.allow_gaps must be true or false, got {allow_gaps!r}")
    output_dir = options.get("output_dir")

    base = path.parent

    def resolve(p, field: str) -> Path:
        if not isinstance(p, str) or not p:
            raise ManifestError(f"{path}: {field} must be a non-empty string, got {p!r}")
        if "\0" in p:
            raise ManifestError(f"{path}: {field} holds a NUL byte: {p!r}")
        if not _encodes_as_utf8(p):
            raise ManifestError(f"{path}: {field} does not encode as UTF-8: {p!r}")
        p = Path(p)
        return p if p.is_absolute() else base / p

    def check_text(value: str, field: str) -> None:
        fault = text_fault(value)
        if fault:
            raise ManifestError(f"{path}: {field} {value!r} {fault}")

    def entry_id(entry: dict, kind: str, seen: set) -> str:
        key = f"{kind}_id"
        value = entry.get(key)
        if not value or not isinstance(value, str):
            raise ManifestError(f"{path}: every {kind} needs a string {key}")
        check_text(value, key)
        if value in seen:
            raise ManifestError(f"{path}: duplicate {key} {value!r}")
        seen.add(value)
        return value

    def entries(key: str) -> list[dict]:
        items = doc.get(key, [])
        if not isinstance(items, list) or not all(isinstance(e, dict) for e in items):
            raise ManifestError(f"{path}: {key} must be a list of objects")
        return items

    datasets = []
    seen_ds = set()
    for entry in entries("datasets"):
        ds_id = entry_id(entry, "dataset", seen_ds)
        fmt = entry.get("format", PROTOCOL_FORMATS[0])
        if fmt not in PROTOCOL_FORMATS:
            raise ManifestError(f"{path}: dataset {ds_id!r}: unknown format {fmt!r}")
        protocol_path = resolve(entry.get("protocol_path"), f"dataset {ds_id!r}: protocol_path")
        datasets.append(DatasetSpec(ds_id, protocol_path, fmt))
    if not datasets:
        raise ManifestError(f"{path}: manifest declares no datasets")

    systems = []
    seen_sys = set()
    for entry in entries("systems"):
        sys_id = entry_id(entry, "system", seen_sys)
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
        # written as "not <=", so that NaN, which compares false, is refused too
        if params is not None and (isinstance(params, bool) or not isinstance(params, (int, float))
                                   or not abs(params) <= sys.float_info.max):
            raise ManifestError(f"{path}: system {sys_id!r}: param_count_millions must be a number")
        if category is not None:
            if not isinstance(category, str):
                raise ManifestError(f"{path}: system {sys_id!r}: category must be a string")
            check_text(category, f"system {sys_id!r}: category")
        params = None if params is None else float(params)
        systems.append(SystemSpec(sys_id, score_paths, polarity, params, category))
    if not systems:
        raise ManifestError(f"{path}: manifest declares no systems")

    return ArenaManifest(
        datasets=tuple(datasets),
        systems=tuple(systems),
        output_dir=resolve(output_dir, "options.output_dir") if output_dir is not None else None,
        allow_gaps=allow_gaps,
        join_mode=join_mode,
        digest=digest,
    )


def plain_number_text(text: str) -> bool:
    """False for text that float() reads but an input file does not: a '_' or a non-ASCII character."""
    return text.isascii() and "_" not in text


def _amplitude_ratio(snr_db: float) -> float:
    """The RMS ratio ``10 ** (snr_db / 20)``; AugmentError unless it is a finite positive float."""
    try:
        ratio = 10.0 ** (snr_db / 20.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise AugmentError(f"SNR {snr_db} dB has no finite positive amplitude ratio")
    return ratio


@dataclass(frozen=True)
class AugmentSpec:
    """Perturbation recipe for one corpus run."""

    category: str
    source_dir: Path
    seed: int
    snr_range_db: tuple[float, float] | None = None
    clip_policy: str = "peak-normalize"

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise AugmentError(f"unknown category {self.category!r}; expected one of {CATEGORIES}")
        if self.clip_policy not in CLIP_POLICIES:
            raise AugmentError(f"unknown clip policy {self.clip_policy!r}; expected one of {CLIP_POLICIES}")
        if self.category == "reverb":
            if self.snr_range_db is not None:
                raise AugmentError("snr_range_db applies to additive categories only, not reverb")
        else:
            snr = self.snr_range_db if self.snr_range_db is not None else DEFAULT_SNR_RANGES[self.category]
            low, high = float(snr[0]), float(snr[1])
            for bound in (low, high):
                _amplitude_ratio(bound)
            if low > high:
                raise AugmentError(f"invalid SNR range: low {low} > high {high}")
            object.__setattr__(self, "snr_range_db", (low, high))
        object.__setattr__(self, "source_dir", Path(self.source_dir))
