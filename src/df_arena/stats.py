"""Correlation statistics between per-dataset EER columns and the average.

Six measures: Pearson, Spearman, Kendall's tau-b, distance correlation,
histogram mutual information (nats), and Lin's concordance coefficient.
Implementations are deliberately direct (O(n^2) where the definition is
pairwise); the vectors here are leaderboard columns, a few dozen entries.

Conventions: Pearson uses the sample (n-1) form, CCC the population (n)
form per Lin's definition; mutual information uses equal-width bins over
each variable's observed range with ``max(2, floor(sqrt(n)))`` bins by
default.
"""

from __future__ import annotations

import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import StatError, decode_input, read_input
from .spec import plain_number_text
from .record import csv_text

METRIC_NAMES = ("pearson", "spearman", "kendall_tau", "distance_corr", "mutual_info", "ccc")


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise StatError("inputs must be 1-D vectors")
    if x.size != y.size:
        raise StatError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise StatError(f"need at least 2 observations, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise StatError("inputs must be finite")
    return x, y


def _sqrt_product(a: float, b: float) -> float:
    """sqrt(a * b) of two positive floats, also where the product underflows to 0."""
    return math.sqrt(a * b) or math.sqrt(a) * math.sqrt(b)


def pearson(x, y) -> float:
    """Sample Pearson correlation; errors on constant input."""
    return _pearson(*_pair(x, y), "pearson")


def _pearson(x: np.ndarray, y: np.ndarray, name: str) -> float:
    """Pearson correlation of checked vectors; a StatError names the statistic ``name``."""
    # constancy is checked as max == min: the mean of a constant vector does
    # not round-trip in floats, so a sum-of-squares test can miss it
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise StatError(f"{name} undefined: zero variance in x or y")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        raise StatError(f"{name} undefined: zero variance in x or y")
    r = float(np.sum(dx * dy)) / _sqrt_product(sxx, syy)
    return float(np.clip(r, -1.0, 1.0))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based fractional ranks; ties get the mean of their rank span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Pearson correlation of fractional ranks."""
    x, y = _pair(x, y)
    return _pearson(_average_ranks(x), _average_ranks(y), "spearman")


def kendall_tau(x, y) -> float:
    """Kendall's tau-b (tie-corrected), by direct pair enumeration."""
    x, y = _pair(x, y)
    n = x.size
    iu = np.triu_indices(n, k=1)
    sx = np.sign(x[:, None] - x[None, :])[iu]
    sy = np.sign(y[:, None] - y[None, :])[iu]
    n0 = n * (n - 1) / 2.0
    ties_x = float(np.count_nonzero(sx == 0))
    ties_y = float(np.count_nonzero(sy == 0))
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        raise StatError("kendall_tau undefined: all pairs tied in x or in y")
    return float(np.clip(float(np.sum(sx * sy)) / denom, -1.0, 1.0))


def distance_correlation(x, y) -> float:
    """Szekely's distance correlation via double-centered distance matrices.

    Returns 0 when either distance variance is 0 (constant input); the
    result is clamped to [0, 1].
    """
    x, y = _pair(x, y)
    a = np.abs(x[:, None] - x[None, :])
    b = np.abs(y[:, None] - y[None, :])
    A = a - a.mean(axis=0)[None, :] - a.mean(axis=1)[:, None] + a.mean()
    B = b - b.mean(axis=0)[None, :] - b.mean(axis=1)[:, None] + b.mean()
    dcov2 = float((A * B).mean())
    dvar_x = float((A * A).mean())
    dvar_y = float((B * B).mean())
    if dvar_x == 0.0 or dvar_y == 0.0:
        return 0.0
    dcor2 = max(dcov2, 0.0) / _sqrt_product(dvar_x, dvar_y)
    return float(np.clip(math.sqrt(max(dcor2, 0.0)), 0.0, 1.0))


def default_bins(n: int) -> int:
    return max(2, int(math.floor(math.sqrt(n))))


def mutual_information(x, y, bins: int | None = None) -> float:
    """Histogram plug-in mutual information in nats.

    Equal-width bins over each variable's observed range; a degenerate range
    (max == min) in either variable yields 0 by convention. Rounding can push
    an independent pair's sum below 0, so the result is clamped at 0.
    """
    x, y = _pair(x, y)
    if bins is None:
        bins = default_bins(x.size)
    if bins < 2:
        raise StatError(f"mutual_info needs at least 2 bins, got {bins}")
    if bins > 1024:  # the joint histogram holds bins x bins cells: 8 MiB at 1024
        raise StatError(f"mutual_info needs at most 1024 bins, got {bins}")
    if x.max() == x.min() or y.max() == y.min():
        return 0.0
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    p = joint / joint.sum()
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    nz = p > 0
    outer = px[:, None] * py[None, :]
    return max(0.0, float(np.sum(p[nz] * np.log(p[nz] / outer[nz]))))


def ccc(x, y) -> float:
    """Lin's concordance correlation coefficient (population-variance form)."""
    x, y = _pair(x, y)
    if np.ptp(x) == 0.0 and np.ptp(y) == 0.0:
        if x[0] == y[0]:
            raise StatError("ccc undefined: both variances zero and means equal")
        return 0.0
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return 0.0  # one side constant: covariance is identically zero
    mx, my = float(x.mean()), float(y.mean())
    vx = float(np.mean((x - mx) ** 2))
    vy = float(np.mean((y - my) ** 2))
    cov = float(np.mean((x - mx) * (y - my)))
    denom = vx + vy + (mx - my) ** 2
    if denom == 0.0:
        raise StatError("ccc undefined: both variances zero and means equal")
    return float(np.clip(2.0 * cov / denom, -1.0, 1.0))


@dataclass(frozen=True)
class EerMatrix:
    """Dense systems x datasets EER grid with the per-system row average."""

    system_ids: tuple[str, ...]
    dataset_ids: tuple[str, ...]
    values: np.ndarray
    average: np.ndarray

    @classmethod
    def build(cls, system_ids, dataset_ids, values) -> "EerMatrix":
        values = np.asarray(values, dtype=np.float64)
        system_ids = tuple(system_ids)
        dataset_ids = tuple(dataset_ids)
        if len(set(system_ids)) != len(system_ids):
            raise StatError("duplicate system_ids in matrix")
        if len(set(dataset_ids)) != len(dataset_ids):
            raise StatError("duplicate dataset_ids in matrix")
        if values.shape != (len(system_ids), len(dataset_ids)):
            raise StatError(
                f"matrix shape {values.shape} does not match {len(system_ids)} systems "
                f"x {len(dataset_ids)} datasets"
            )
        if not np.all(np.isfinite(values)):
            raise StatError("EER matrix must be dense and finite (no missing cells)")
        return cls(system_ids, dataset_ids, values, values.mean(axis=1))

    def subset(self, system_ids) -> "EerMatrix":
        wanted = list(system_ids)
        index = {s: i for i, s in enumerate(self.system_ids)}
        missing = [s for s in wanted if s not in index]
        if missing:
            raise StatError(f"unknown system_ids: {', '.join(missing)}")
        repeated = [s for i, s in enumerate(wanted) if s in wanted[:i]]
        if repeated:
            raise StatError(f"repeated system_ids: {', '.join(dict.fromkeys(repeated))}")
        rows = [index[s] for s in wanted]
        return EerMatrix.build(wanted, self.dataset_ids, self.values[rows])


def load_matrix_csv(path) -> EerMatrix:
    """Read a systems x datasets grid from CSV: header row, index column.

    Values given in percent (anything above 1) are scaled into [0, 1]; all
    six statistics are invariant under that common rescaling, so this only
    normalizes the representation. A cell outside [0, 1] after that scaling
    is an error naming its line.
    """
    import csv

    text = decode_input(read_input(path, StatError), path, StatError)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        # (file line, cells) of each non-blank row; line_num counts the blank lines too
        rows = [(reader.line_num, r) for r in reader if r and any(cell.strip() for cell in r)]
    except csv.Error as e:
        raise StatError(f"{path}: not valid CSV: {e}") from None
    if len(rows) < 2 or len(rows[0][1]) < 2:
        raise StatError(f"{path}: need a header row, an index column, and at least one data row")
    header_line, header = rows[0]
    dataset_ids = [c.strip() for c in header[1:]]
    for i, ds in enumerate(dataset_ids):
        if ds in dataset_ids[:i]:
            raise StatError(f"{path}: line {header_line}: duplicate dataset_id {ds!r}")
    width = len(header)
    system_ids, values = [], []
    for lineno, row in rows[1:]:
        if len(row) != width:
            raise StatError(f"{path}: line {lineno}: ragged row ({len(row)} cells, expected {width})")
        system_id = row[0].strip()
        if system_id in system_ids:
            raise StatError(f"{path}: line {lineno}: duplicate system_id {system_id!r}")
        system_ids.append(system_id)
        for cell in row[1:]:
            if not plain_number_text(cell):
                raise StatError(f"{path}: line {lineno}: non-numeric EER {cell.strip()!r}")
        try:
            values.append([float(c) for c in row[1:]])
        except ValueError as e:
            raise StatError(f"{path}: line {lineno}: {e}") from None
    values = np.asarray(values, dtype=np.float64)
    if (values > 1.0).any():  # percent; NaN cells do not decide
        values = values / 100.0
    outside = np.argwhere(~((values >= 0.0) & (values <= 1.0)))  # NaN too
    if outside.size:
        i, j = outside[0]
        lineno, row = rows[1 + i]
        raise StatError(f"{path}: line {lineno}: EER {row[1 + j].strip()!r} is outside [0, 1] "
                        "after percent scaling")
    return EerMatrix.build(system_ids, dataset_ids, values)


@dataclass(frozen=True)
class CorrelationReport:
    """Per-dataset correlation of each EER column with the average vector.

    ``values[dataset][metric]`` is a float, or None when that statistic is
    undefined for the column (the reason is kept in ``notes``).
    """

    dataset_ids: tuple[str, ...]
    values: dict[str, dict[str, float | None]]
    notes: tuple[dict[str, str], ...]
    bins: int
    n_systems: int

    def to_csv(self) -> str:
        rows = [["dataset", *METRIC_NAMES]]
        for ds in self.dataset_ids:
            values = (self.values[ds][m] for m in METRIC_NAMES)
            rows.append([ds] + ["" if v is None else f"{v:.4f}" for v in values])
        return csv_text(rows)

    def to_json(self) -> str:
        doc = {
            "n_systems": self.n_systems,
            "bins": self.bins,
            "metrics": list(METRIC_NAMES),
            "datasets": {ds: self.values[ds] for ds in self.dataset_ids},
            "notes": list(self.notes),
        }
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def correlate_matrix(matrix: EerMatrix, bins: int | None = None) -> CorrelationReport:
    """All six statistics of every dataset column against the average vector.

    A degenerate column (e.g. constant EER) nulls the affected cells with a
    recorded reason instead of failing the whole grid.
    """
    n = len(matrix.system_ids)
    if n < 3:
        raise StatError(f"correlation analysis needs at least 3 systems, got {n}")
    if bins is None:
        bins = default_bins(n)
    avg = matrix.average
    statistics = dict(zip(METRIC_NAMES, (pearson, spearman, kendall_tau, distance_correlation,
                                         functools.partial(mutual_information, bins=bins), ccc)))
    values: dict[str, dict[str, float | None]] = {}
    notes: list[dict[str, str]] = []
    for j, ds in enumerate(matrix.dataset_ids):
        col = matrix.values[:, j]
        row: dict[str, float | None] = {}
        for name, statistic in statistics.items():
            try:
                row[name] = statistic(col, avg)
            except StatError as e:
                row[name] = None
                notes.append({"dataset": ds, "metric": name, "reason": str(e)})
        values[ds] = row
    return CorrelationReport(matrix.dataset_ids, values, tuple(notes), bins, n)
