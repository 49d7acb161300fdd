"""Output checks, computed from the generator's ground truth without df_arena.

Each check returns a list of failure messages; an empty list is a pass.
The EER follows the README's metric conventions (midpoint thresholds,
accept iff score >= threshold, first crossing of FAR - FRR interpolated);
the AUC is the Mann-Whitney statistic with ties counted half, which the
trapezoidal ROC area equals.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gen import ArenaTruth, CorpusTruth, read_pcm16

TOL = 1e-9


def eer(bona: np.ndarray, spoof: np.ndarray) -> float:
    b, s = np.sort(bona), np.sort(spoof)
    u = np.unique(np.concatenate([b, s]))
    thr = np.concatenate([[u[0] - 1.0], (u[:-1] + u[1:]) / 2.0, [u[-1] + 1.0]])
    far = (s.size - np.searchsorted(s, thr, side="left")) / s.size
    frr = np.searchsorted(b, thr, side="left") / b.size
    d = far - frr  # starts at 1, ends at -1, never increases
    i = int(np.argmax(d <= 0.0))
    if d[i] == 0.0:
        return float(far[i])
    t = d[i - 1] / (d[i - 1] - d[i])
    far_x = far[i - 1] + t * (far[i] - far[i - 1])
    frr_x = frr[i - 1] + t * (frr[i] - frr[i - 1])
    return float((far_x + frr_x) / 2.0)


def auc(bona: np.ndarray, spoof: np.ndarray) -> float:
    values = np.concatenate([bona, spoof])
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    nb, ns = bona.size, spoof.size
    return float((ranks[:nb].sum() - nb * (nb + 1) / 2.0) / (nb * ns))


def expected_summaries(truth: ArenaTruth) -> dict[str, dict]:
    """Per system: per-dataset EER/AUC, average EER, pooled EER (None with gaps)."""
    out = {}
    for s in truth.systems:
        own = [d for d in truth.datasets if (s, d) in truth.pairs]
        per = {d: (eer(*truth.pairs[(s, d)]), auc(*truth.pairs[(s, d)])) for d in own}
        pooled = None
        if not truth.gaps.get(s):
            pooled = eer(np.concatenate([truth.pairs[(s, d)][0] for d in own]),
                         np.concatenate([truth.pairs[(s, d)][1] for d in own]))
        out[s] = {"per": per, "average": float(np.mean([e for e, _ in per.values()])),
                  "pooled": pooled}
    return out


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOL


def _rank_key(summary: dict, key: str):
    primary = summary["pooled" if key == "pooled_eer" else "average"]
    return (primary is None, primary if primary is not None else 0.0)


def check_arena(truth: ArenaTruth, expected: dict, record: dict, markdown: str | None,
                history: dict, run_id_expected: str | None = None) -> list[str]:
    """Compare a RunRecord (as stored) and the history listing against the truth."""
    fails = []
    reports = {(r["system_id"], r["dataset_id"]): r for r in record["reports"]}
    if set(reports) != set(truth.pairs):
        fails.append(f"record covers {len(reports)} pairs, expected {len(truth.pairs)}")
    for key, r in reports.items():
        if key not in truth.pairs:
            continue
        want_eer, want_auc = expected[key[0]]["per"][key[1]]
        b, s = truth.pairs[key]
        if not (_close(r["eer"], want_eer) and _close(r["auc"], want_auc)):
            fails.append(f"{key}: eer/auc {r['eer']}/{r['auc']}, expected {want_eer}/{want_auc}")
        if (r["n_bonafide"], r["n_spoof"]) != (b.size, s.size):
            fails.append(f"{key}: counts {r['n_bonafide']}/{r['n_spoof']}, expected {b.size}/{s.size}")
    for summ in record["summaries"]:
        want = expected.get(summ["system_id"])
        if want is None or not (_close(summ["average_eer"], want["average"])
                                and _close(summ["pooled_eer"], want["pooled"])):
            fails.append(f"summary {summ['system_id']}: average/pooled "
                         f"{summ['average_eer']}/{summ['pooled_eer']} do not match")
    # Ranking: the expected order is by our own values; systems whose keys tie
    # within TOL may appear in either order, so compare key sequences.
    want_order = sorted(expected, key=lambda s: (_rank_key(expected[s], "pooled_eer"),
                                                 _rank_key(expected[s], "average_eer"), s))
    if markdown is not None:
        got_order = [line.split("|")[1].strip().strip("*") for line in markdown.splitlines()
                     if line.startswith("| ") and not line.startswith(("| System", "| ---"))]
        if len(got_order) != len(want_order) or set(got_order) != set(want_order):
            fails.append(f"markdown lists {len(got_order)} systems, expected {len(want_order)}")
        else:
            for got, want in zip(got_order, want_order):
                g, w = expected[got], expected[want]
                if not (_close(g["pooled"], w["pooled"]) and _close(g["average"], w["average"])):
                    fails.append(f"ranking: {got} where {want} was expected")
                    break
    runs = history.get("runs", [])
    if history.get("issues"):
        fails.append(f"history reports {len(history['issues'])} issues")
    if len(runs) != truth.store_records + 1:
        fails.append(f"history lists {len(runs)} runs, expected {truth.store_records + 1}")
    elif runs[-1]["run_id"] != record["run_id"]:
        fails.append("history's last run is not the new record")
    if run_id_expected is not None and record["run_id"] != run_id_expected:
        fails.append("stored record differs from the printed record")
    return fails


def _fit(w: np.ndarray, n: int, offset: int) -> np.ndarray:
    if w.size >= n:
        start = offset % (w.size - n + 1)
        return w[start:start + n]
    return w[(offset + np.arange(n)) % w.size]


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def expected_output(entry: dict, clean: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Recompute one augmented file from its manifest entry (peak-normalize policy)."""
    if entry["category"] == "reverb":
        size = 1 << (clean.size + source.size - 2).bit_length()
        wet = np.fft.irfft(np.fft.rfft(clean, size) * np.fft.rfft(source, size), size)[:clean.size]
        y = wet * (_rms(clean) / _rms(wet))
    else:
        fitted = _fit(source, clean.size, entry["loop_offset"])
        gain = _rms(clean) / (_rms(fitted) * 10.0 ** (entry["snr_db"] / 20.0))
        y = clean + gain * fitted
    peak = float(np.max(np.abs(y)))
    return y / peak if peak > 1.0 else y


def check_corpus(truth: CorpusTruth, in_dir: Path, src_dir: Path, out_dir: Path,
                 manifest_name: str, sample: list[str]) -> tuple[list[str], str]:
    """Manifest coverage and fields, recomputed samples, and a digest of all outputs."""
    fails = []
    manifest_path = out_dir / manifest_name
    entries = [json.loads(line) for line in manifest_path.read_text().splitlines()]
    by_name = {Path(e["input_path"]).name: e for e in entries}
    if len(entries) != len(truth.utterances) or sorted(by_name) != truth.utterances:
        fails.append(f"manifest has {len(entries)} entries for {len(truth.utterances)} inputs")
    outputs = sorted(p.name for p in out_dir.glob("*.wav"))
    if outputs != truth.utterances:
        fails.append(f"{len(outputs)} outputs for {len(truth.utterances)} inputs")
    for e in entries:
        if e["source_file"] not in truth.sources:
            fails.append(f"{e['input_path']}: unknown source {e['source_file']!r}")
        if truth.snr_range is not None:
            low, high = truth.snr_range
            if not low <= e["snr_db"] <= high:
                fails.append(f"{e['input_path']}: snr {e['snr_db']} outside {truth.snr_range}")
            if e["scale"] == 1.0 and not math.isclose(e["realized_snr_db"], e["snr_db"],
                                                      rel_tol=0.0, abs_tol=TOL):
                fails.append(f"{e['input_path']}: realized snr {e['realized_snr_db']} "
                             f"!= target {e['snr_db']}")
    for name in sample:
        e = by_name.get(name)
        if e is None or name not in outputs:
            continue
        want = expected_output(e, read_pcm16(in_dir / name), read_pcm16(src_dir / e["source_file"]))
        got = read_pcm16(out_dir / name)
        if got.size != want.size or np.max(np.abs(got - want)) > 1.0 / 32768.0 + TOL:
            fails.append(f"{name}: output differs from the recomputed mix")
    digest = hashlib.sha256()
    for path in [out_dir / n for n in outputs] + [manifest_path]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return fails, digest.hexdigest()
