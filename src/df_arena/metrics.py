"""Detection metrics: FAR/FRR sweep, EER, pooled EER, AUC, accuracy, F1.

All operations are pure functions over a joined set: a ``JoinResult``
(label and score arrays) or, at the boundary, an iterable of ``(label,
score)`` rows. Scores follow the higher-is-bonafide convention (the protocol
join already normalizes polarity); scores equal to a threshold count as
accepted, everywhere. Each set is split into sorted per-class arrays once,
and every metric is computed from those.

EER and AUC are rank statistics here: FAR and FRR are counted at the
distinct scores, so any strictly increasing transform of the scores leaves
both values unchanged. Reported thresholds are the midpoints between
consecutive distinct scores plus one sentinel on each side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .protocol import BONAFIDE, SPOOF, JoinResult
from .record import EvalReport


@dataclass(frozen=True)
class RocCurve:
    """FAR/FRR sampled at ascending thresholds.

    FAR is non-increasing and FRR non-decreasing along ``thresholds``; the
    first point is (FAR=1, FRR=0) and the last (FAR=0, FRR=1).
    """

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray


def _split(joined) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted (bonafide, spoof) score arrays of a JoinResult or of ``(label, score)`` rows."""
    if isinstance(joined, JoinResult):
        is_bonafide, scores = joined.is_bonafide, joined.scores
    else:
        # perfbench/ uses this until its next change (ROADMAP item 1):
        # test_eer_and_auc_match_df_arena calls roc(rows)
        rows = list(joined)
        for label, _ in rows:
            if label not in (BONAFIDE, SPOOF):
                raise MetricError(f"unknown label {label!r} in joined rows")
        is_bonafide = np.array([label == BONAFIDE for label, _ in rows], dtype=bool)
        scores = np.array([s for _, s in rows], dtype=np.float64)
    return scores[is_bonafide], scores[~is_bonafide]


def _distinct(bona: np.ndarray, spoof: np.ndarray) -> np.ndarray:
    """The ascending distinct scores of both classes.

    One stable sort keeps the first of equal scores in bonafide-then-spoof
    order, so of a -0.0 and a 0.0 the one met first is kept. (``np.unique``
    would import ``numpy.ma`` on numpy >= 2.3.)
    """
    both = np.concatenate([bona, spoof])
    both.sort(kind="stable")
    first = np.empty(both.size, dtype=bool)
    first[0] = True
    np.not_equal(both[1:], both[:-1], out=first[1:])
    return both[first]


def _roc(bona: np.ndarray, spoof: np.ndarray) -> RocCurve:
    """The curve of sorted per-class score arrays.

    Point ``i`` accepts exactly the scores ``>= uniq[i]``; the last point accepts none.
    """
    if bona.size == 0 or spoof.size == 0:
        raise MetricError(
            f"ROC needs both classes; got {bona.size} bonafide and {spoof.size} spoof scores"
        )
    uniq = _distinct(bona, spoof)
    far = np.append(spoof.size - np.searchsorted(spoof, uniq, side="left"), 0) / spoof.size
    frr = np.append(np.searchsorted(bona, uniq, side="left"), bona.size) / bona.size
    thresholds = np.empty(uniq.size + 1, dtype=np.float64)
    thresholds[0] = uniq[0] - 1.0
    # halves first, so midpoints of scores near the float maximum cannot overflow
    mid = uniq[:-1] / 2.0 + uniq[1:] / 2.0
    # the midpoint of adjacent floats can round onto the lower score, which the
    # point rejects; the upper score then accepts exactly what the point counts
    thresholds[1:-1] = np.where(mid > uniq[:-1], mid, uniq[1:])
    thresholds[-1] = uniq[-1] + 1.0
    return RocCurve(thresholds, far, frr)


def roc(joined) -> RocCurve:
    """FAR/FRR counted at the distinct scores, reported at midpoint thresholds with sentinels."""
    return _roc(*map(np.sort, _split(joined)))


def eer(curve: RocCurve) -> tuple[float, float]:
    """Equal error rate and its threshold.

    FAR - FRR starts at 1, ends at -1 and never increases, so its first
    point at or below 0 exists: returned as-is when FAR == FRR there, else
    the crossing is linearly interpolated from the point before it.
    """
    d = curve.far - curve.frr
    i = int(np.argmax(d <= 0.0))
    if d[i] == 0.0:
        return float(curve.far[i]), float(curve.thresholds[i])
    t = d[i - 1] / (d[i - 1] - d[i])
    far_x = curve.far[i - 1] + t * (curve.far[i] - curve.far[i - 1])
    frr_x = curve.frr[i - 1] + t * (curve.frr[i] - curve.frr[i - 1])
    thr = curve.thresholds[i - 1] + t * (curve.thresholds[i] - curve.thresholds[i - 1])
    return float((far_x + frr_x) / 2.0), float(thr)


def pooled_eer(joined_sets) -> tuple[float, float]:
    """EER over the concatenation of several joined sets, single threshold.

    Scores are pooled raw: no per-dataset reweighting or score normalization,
    so scale mismatch between datasets is penalized by design. Each class is
    split out of every set unsorted, then concatenated and sorted once.
    """
    if not joined_sets:
        raise MetricError("pooled_eer needs at least one joined set")
    parts = [_split(joined) for joined in joined_sets]
    bona = np.sort(np.concatenate([b for b, _ in parts]))
    spoof = np.sort(np.concatenate([s for _, s in parts]))
    return eer(_roc(bona, spoof))


def auc(curve: RocCurve) -> float:
    """Area under the ROC: trapezoidal integral of 1 - FRR over ascending FAR."""
    fpr = curve.far[::-1]  # far is non-increasing in threshold
    tpr = 1.0 - curve.frr[::-1]
    return float(np.clip(np.trapezoid(tpr, fpr), 0.0, 1.0))


def evaluate(
    joined,
    system_id: str = "",
    dataset_id: str = "",
    decision_threshold: float | None = None,
) -> EvalReport:
    """Full metric bundle for one joined set.

    The accuracy/F1 decision threshold defaults to the EER threshold of the
    same set; pass ``decision_threshold`` to override. Bonafide is the
    positive class, predicted iff score >= threshold; F1 is 0 when precision
    and recall are both 0. The set is split into sorted classes once, for the
    curve and the confusion counts alike.
    """
    bona, spoof = map(np.sort, _split(joined))
    curve = _roc(bona, spoof)
    eer_value, eer_thr = eer(curve)
    thr = eer_thr if decision_threshold is None else float(decision_threshold)
    # on a sorted array, count_nonzero(x >= t) == x.size - searchsorted(x, t, "left")
    tp = bona.size - int(np.searchsorted(bona, thr, side="left"))
    fp = spoof.size - int(np.searchsorted(spoof, thr, side="left"))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / bona.size
    return EvalReport(
        system_id=system_id,
        dataset_id=dataset_id,
        eer=eer_value,
        eer_threshold=eer_thr,
        auc=auc(curve),
        accuracy=(tp + spoof.size - fp) / (bona.size + spoof.size),
        f1=0.0 if precision + recall == 0 else 2.0 * precision * recall / (precision + recall),
        decision_threshold=thr,
        n_bonafide=bona.size,
        n_spoof=spoof.size,
    )
