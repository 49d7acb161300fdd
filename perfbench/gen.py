"""Seeded synthetic inputs for the benchmark workloads.

Every generator is a pure function of (shape, seed): it writes files under
an ``inputs`` directory and returns the ground truth the output checks
compare against. Nothing is downloaded and nothing from ``df_arena`` is
imported here, so the checks stay independent of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000


@dataclass
class ArenaTruth:
    """Joined scores per (system, dataset), higher-is-bonafide, as kept by the join."""

    systems: list[str]
    datasets: list[str]
    pairs: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]  # (bona, spoof)
    gaps: dict[str, list[str]]
    store_records: int

    @property
    def joined_trials(self) -> int:
        return sum(b.size + s.size for b, s in self.pairs.values())


@dataclass
class CorpusTruth:
    utterances: list[str]  # input basenames, sorted
    sources: list[str]  # source paths relative to the source dir, sorted
    audio_seconds: float  # output audio per run
    snr_range: tuple[float, float] | None = None


def rng_for(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _format_scores(values: np.ndarray, decimals: int | None) -> list[str]:
    if decimals is None:
        return [repr(float(v)) for v in values]
    return [f"{v:.{decimals}f}" for v in values]


def make_arena(root: Path, shape: dict, seed: int) -> ArenaTruth:
    """Write protocols, score files, a manifest and (optionally) a pre-filled store.

    ``shape`` keys: systems, datasets, trials, layout ("two-column" or
    "asvspoof"), join ("strict" or "intersect"), decimals (None = full
    precision), missing/extra (intersect share of trials dropped from, and
    foreign ids added to, each score file), spoof_polarity_every (every
    n-th system writes higher-is-spoof scores, 0 = none), gap_systems
    (systems that skip one dataset), store_records (K records pre-filled).
    """
    rng = rng_for(seed, "arena")
    (root / "protocols").mkdir(parents=True)
    (root / "scores").mkdir()
    systems = [f"sys{i:02d}" for i in range(shape["systems"])]
    datasets = [f"ds{j:02d}" for j in range(shape["datasets"])]
    n = shape["trials"]
    decimals = shape.get("decimals")
    every = shape.get("spoof_polarity_every", 0)
    gap_systems = systems[len(systems) - shape.get("gap_systems", 0):]
    gaps = {s: [datasets[(i * 5) % len(datasets)]] for i, s in enumerate(gap_systems)}
    quality = 1.5 + rng.uniform(-0.4, 0.4, size=len(systems))

    labels_by_ds = {}
    manifest_ds = []
    for j, ds in enumerate(datasets):
        is_bona = rng.random(n) < 0.3
        is_bona[:2] = (True, False)  # both classes always present
        ids = [f"{ds}_{i:07d}" for i in range(n)]
        attacks = rng.integers(1, 20, size=n)
        if shape["layout"] == "asvspoof":
            lines = [
                f"SPK{i % 97:04d} {tid} - {'-' if b else f'A{a:02d}'} {'bonafide' if b else 'spoof'}"
                for i, (tid, b, a) in enumerate(zip(ids, is_bona, attacks))
            ]
        else:
            lines = [f"{tid} {'bonafide' if b else 'spoof'}" for tid, b in zip(ids, is_bona)]
        path = root / "protocols" / f"{ds}.txt"
        path.write_text("\n".join(lines) + "\n")
        labels_by_ds[ds] = (ids, is_bona)
        manifest_ds.append({"dataset_id": ds, "protocol_path": f"protocols/{ds}.txt",
                            "format": shape["layout"]})

    pairs = {}
    manifest_sys = []
    for i, sys_id in enumerate(systems):
        higher_is_spoof = every > 0 and i % every == every - 1
        score_paths = {}
        for ds in datasets:
            if ds in gaps.get(sys_id, ()):
                continue
            ids, is_bona = labels_by_ds[ds]
            d_prime = quality[i] + rng.uniform(-0.2, 0.2)
            raw = rng.standard_normal(n) + np.where(is_bona, d_prime / 2, -d_prime / 2)
            keep = np.ones(n, dtype=bool)
            if shape["join"] == "intersect":
                keep = rng.random(n) >= shape.get("missing", 0.0)
                keep[:2] = True
            text = _format_scores(-raw if higher_is_spoof else raw, decimals)
            # The truth is what the file says, read back in the bonafide-positive direction.
            values = np.array([float(t) for t in text])
            if higher_is_spoof:
                values = -values
            rows = [f"{ids[k]} {text[k]}" for k in np.flatnonzero(keep)]
            n_extra = int(round(n * shape.get("extra", 0.0)))
            extra = _format_scores(rng.standard_normal(n_extra), decimals)
            rows += [f"{ds}_x{k:06d} {v}" for k, v in enumerate(extra)]
            order = rng.permutation(len(rows))
            path = root / "scores" / f"{sys_id}_{ds}.txt"
            path.write_text("\n".join(rows[k] for k in order) + "\n")
            score_paths[ds] = f"scores/{sys_id}_{ds}.txt"
            pairs[(sys_id, ds)] = (values[keep & is_bona], values[keep & ~is_bona])
        entry = {"system_id": sys_id, "category": "open-source" if i % 2 else "commercial",
                 "param_count_millions": float(10 + 7 * i),
                 "polarity": "higher-is-spoof" if higher_is_spoof else "higher-is-bonafide",
                 "scores": score_paths}
        manifest_sys.append(entry)

    manifest = {
        "manifest_version": 1,
        "options": {"default_polarity": "higher-is-bonafide", "join_mode": shape["join"],
                    "allow_gaps": bool(gaps)},
        "datasets": manifest_ds,
        "systems": manifest_sys,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    k = shape.get("store_records", 0)
    if k:
        _write_store(root / "store.jsonl", systems, datasets, gaps, k, rng)
    return ArenaTruth(systems, datasets, pairs, gaps, k)


def _write_store(path: Path, systems, datasets, gaps, k: int, rng) -> None:
    """K RunRecord (record_version 1) lines shaped like a run of this manifest."""
    reports, summaries = [], []
    for s in systems:
        own = [d for d in datasets if d not in gaps.get(s, ())]
        eers = rng.uniform(0.01, 0.4, size=len(own))
        for d, e in zip(own, eers):
            reports.append({"system_id": s, "dataset_id": d, "eer": float(e),
                            "eer_threshold": float(rng.normal()), "auc": float(1 - e),
                            "accuracy": float(1 - e), "f1": float(1 - e),
                            "decision_threshold": float(rng.normal()),
                            "n_bonafide": 90, "n_spoof": 210})
        summaries.append({"system_id": s, "average_eer": float(eers.mean()),
                          "pooled_eer": None if s in gaps else float(eers.mean()),
                          "per_dataset_eer": dict(zip(own, map(float, eers))),
                          "param_count_millions": 10.0, "average_auc": float(1 - eers.mean()),
                          "category": "open-source", "gap_datasets": list(gaps.get(s, ()))})
    with open(path, "w") as fh:
        for r in range(k):
            doc = {"run_id": f"{r:012x}", "timestamp": f"2026-01-01T00:{r // 60:02d}:{r % 60:02d}+00:00",
                   "manifest_digest": hashlib.sha256(str(r).encode()).hexdigest(),
                   "tool_version": "0.1.0", "record_version": 1, "dataset_ids": datasets,
                   "reports": reports, "summaries": summaries}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def wav_bytes(samples: np.ndarray) -> bytes:
    """Canonical 44-byte-header PCM16 mono 16 kHz WAV from float samples in [-1, 1]."""
    q = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    return (b"RIFF" + struct.pack("<I", 36 + len(q)) + b"WAVE" + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
            + b"data" + struct.pack("<I", len(q)) + q)


def read_pcm16(path: Path) -> np.ndarray:
    """Samples of a canonical PCM16 WAV (as written by wav_bytes or df-arena) as float64."""
    data = path.read_bytes()
    if data[:4] != b"RIFF" or data[8:16] != b"WAVEfmt " or data[36:40] != b"data":
        raise ValueError(f"{path}: not a canonical PCM16 WAV")
    tag, channels, rate = struct.unpack_from("<HHI", data, 20)
    (size,) = struct.unpack_from("<I", data, 40)
    if (tag, channels, rate) != (1, 1, SAMPLE_RATE) or 44 + size != len(data):
        raise ValueError(f"{path}: unexpected format {(tag, channels, rate, size)}")
    return np.frombuffer(data, dtype="<i2", offset=44).astype(np.float64) / 32768.0


def make_corpus(root: Path, shape: dict, seed: int) -> CorpusTruth:
    """Write ``clean/`` utterances and ``sources/`` interferers or RIRs.

    ``shape`` keys: category ("noise" or "reverb"), utterances, utterance_s,
    sources, source_s.
    """
    rng = rng_for(seed, "corpus")
    clean, sources = root / "clean", root / "sources"
    clean.mkdir(parents=True)
    sources.mkdir()
    n = int(shape["utterance_s"] * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    names = []
    for i in range(shape["utterances"]):
        f0 = rng.uniform(90, 250)
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(2, 5) * t + rng.uniform(0, 6.3))
        voiced = sum(np.sin(2 * np.pi * f0 * h * t) / h for h in (1, 2, 3))
        x = 0.12 * envelope * voiced + 0.01 * rng.standard_normal(n)
        name = f"utt{i:05d}.wav"
        (clean / name).write_bytes(wav_bytes(x))
        names.append(name)
    m = int(shape["source_s"] * SAMPLE_RATE)
    src_names = []
    for j in range(shape["sources"]):
        if shape["category"] == "reverb":
            decay = np.exp(-np.arange(m) / (SAMPLE_RATE * rng.uniform(0.03, 0.08)))
            h = 0.3 * decay * rng.standard_normal(m)
            h[0] = 0.9
        else:
            h = 0.1 * rng.standard_normal(m)
            h = np.convolve(h, np.ones(4) / 2, mode="same")  # mildly coloured
        name = f"src{j:02d}.wav"
        (sources / name).write_bytes(wav_bytes(h))
        src_names.append(name)
    snr = (0.0, 15.0) if shape["category"] == "noise" else None
    return CorpusTruth(names, src_names, shape["utterances"] * n / SAMPLE_RATE, snr)


def describe_inputs(root: Path) -> dict:
    """Content hash and sizes of every generated file under root."""
    digest = hashlib.sha256()
    n_bytes = n_lines = n_files = 0
    audio_samples = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        rel = path.relative_to(root).as_posix()
        digest.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        n_files += 1
        n_bytes += len(data)
        if path.suffix == ".wav":
            audio_samples += (len(data) - 44) // 2
        else:
            n_lines += data.count(b"\n")
    return {"sha256": digest.hexdigest(), "files": n_files, "bytes": n_bytes,
            "lines": n_lines, "audio_s": audio_samples / SAMPLE_RATE}
