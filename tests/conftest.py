import errno
import io
import os
import resource
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import df_arena.errors
from df_arena.store import RECORD_VERSION, RunRecord, SystemSummary
from df_arena.wavio import write_wav

# Every property test runs without hypothesis's per-example deadline: it times an
# example against the load of a shared machine, which checks nothing of df-arena.
settings.register_profile("df-arena", deadline=None)
settings.load_profile("df-arena")

TESTS_DIR = Path(__file__).resolve().parent

# Reference per-dataset EER grid (percent) for 15 known detection systems,
# and the matching parameter-count / average-EER / pooled-EER summary rows.
REFERENCE_GRID_CSV = TESTS_DIR / "data" / "reference_eer_grid.csv"

OPEN_SOURCE_SYSTEMS = [
    "XLSR+SLS",
    "TCM",
    "Nes2NetX",
    "Wav2Vec2-AASIST",
    "XLSR-Mamba",
    "Whisper-Mesonet",
    "Wav2Vec2-ECAPA",
    "AASIST",
    "WavLM-ECAPA",
    "RawGatST",
    "Rawnet2",
    "Hubert-ECAPA",
]

# system -> (param_count_millions, average EER %, pooled EER %)
REFERENCE_SUMMARY = {
    "Whispeak": (98.90, 3.05, 3.00),
    "SyntraDetector": (584.00, 5.76, 11.29),
    "ResembleDetect": (2112.00, 10.69, 12.37),
    "XLSR+SLS": (340.00, 13.84, 15.68),
    "TCM": (319.00, 15.77, 16.35),
    "Nes2NetX": (317.90, 16.11, 17.04),
    "Wav2Vec2-AASIST": (317.84, 18.02, 19.47),
    "XLSR-Mamba": (319.00, 14.21, 20.12),
    "Whisper-Mesonet": (7.60, 28.69, 23.76),
    "Wav2Vec2-ECAPA": (324.00, 38.58, 28.81),
    "AASIST": (0.30, 34.49, 33.16),
    "WavLM-ECAPA": (102.00, 28.74, 33.48),
    "RawGatST": (0.44, 34.92, 33.93),
    "Rawnet2": (17.60, 35.75, 35.66),
    "Hubert-ECAPA": (102.00, 33.19, 43.03),
}


@pytest.fixture
def reference_grid_path():
    return REFERENCE_GRID_CSV


@pytest.fixture
def echo_scorer():
    """Command prefix running the fixture scorer with this interpreter."""
    script = TESTS_DIR / "fixtures" / "echo_scorer.py"
    return [sys.executable, str(script)]


def write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def protocol_text(bona_ids, spoof_ids):
    lines = [f"{t} bonafide" for t in bona_ids] + [f"{t} spoof" for t in spoof_ids]
    return "\n".join(lines) + "\n"


def scores_text(mapping):
    return "".join(f"{k} {v}\n" for k, v in mapping.items())


# Synthetic 3-system x 3-dataset arena. Scores are built so that:
#   sysA: per-dataset EERs 0/0/0 but wildly different score scales, so its
#         pooled EER is 1/3 (pooling penalizes the scale mismatch);
#   sysB: EER 0.25 on every dataset with one consistent scale, pooled 0.25
#         (stored negated, declared higher-is-spoof in the manifest);
#   sysC: complete overlap, EER 0.5 everywhere.
# Ranking by average EER gives A < B < C; by pooled EER, B < A < C.
ARENA_BONA = {
    ("sysA", "d1"): [10.0, 9.0, 11.0, 12.0],
    ("sysA", "d2"): [0.5, 0.6, 0.55, 0.65],
    ("sysA", "d3"): [100.0, 90.0, 110.0, 120.0],
    ("sysB", "d1"): [0.6, 0.7, 0.8, 0.9],
    ("sysB", "d2"): [0.6, 0.7, 0.8, 0.9],
    ("sysB", "d3"): [0.6, 0.7, 0.8, 0.9],
    ("sysC", "d1"): [0.5, 0.6, 0.7, 0.8],
    ("sysC", "d2"): [0.5, 0.6, 0.7, 0.8],
    ("sysC", "d3"): [0.5, 0.6, 0.7, 0.8],
}
ARENA_SPOOF = {
    ("sysA", "d1"): [1.0, 2.0, 3.0, 4.0],
    ("sysA", "d2"): [0.3, 0.35, 0.4, 0.45],
    ("sysA", "d3"): [10.0, 20.0, 30.0, 40.0],
    ("sysB", "d1"): [0.1, 0.2, 0.3, 0.75],
    ("sysB", "d2"): [0.1, 0.2, 0.3, 0.75],
    ("sysB", "d3"): [0.1, 0.2, 0.3, 0.75],
    ("sysC", "d1"): [0.5, 0.6, 0.7, 0.8],
    ("sysC", "d2"): [0.5, 0.6, 0.7, 0.8],
    ("sysC", "d3"): [0.5, 0.6, 0.7, 0.8],
}

ARENA_EXPECTED_EER = {"sysA": 0.0, "sysB": 0.25, "sysC": 0.5}
ARENA_EXPECTED_POOLED = {"sysA": 1.0 / 3.0, "sysB": 0.25, "sysC": 0.5}


def build_arena(root: Path) -> Path:
    """Write the synthetic arena fixture under root; returns the manifest path."""
    datasets = ["d1", "d2", "d3"]
    bona_ids = [f"b{i}" for i in range(1, 5)]
    spoof_ids = [f"s{i}" for i in range(1, 5)]
    for ds in datasets:
        write_text(root / "protocols" / f"{ds}.txt", protocol_text(bona_ids, spoof_ids))
    for (system, ds), bona in ARENA_BONA.items():
        spoof = ARENA_SPOOF[(system, ds)]
        sign = -1.0 if system == "sysB" else 1.0  # sysB ships higher-is-spoof scores
        mapping = {t: sign * v for t, v in zip(bona_ids, bona)}
        mapping.update({t: sign * v for t, v in zip(spoof_ids, spoof)})
        write_text(root / "scores" / f"{system}_{ds}.txt", scores_text(mapping))
    manifest = {
        "manifest_version": 1,
        "options": {"default_polarity": "higher-is-bonafide"},
        "datasets": [
            {"dataset_id": ds, "protocol_path": f"protocols/{ds}.txt"} for ds in datasets
        ],
        "systems": [
            {
                "system_id": "sysA",
                "param_count_millions": 1.5,
                "category": "open-source",
                "scores": {ds: f"scores/sysA_{ds}.txt" for ds in datasets},
            },
            {
                "system_id": "sysB",
                "param_count_millions": 98.9,
                "category": "proprietary",
                "polarity": "higher-is-spoof",
                "scores": {ds: f"scores/sysB_{ds}.txt" for ds in datasets},
            },
            {
                "system_id": "sysC",
                "scores": {ds: f"scores/sysC_{ds}.txt" for ds in datasets},
            },
        ],
    }
    import json

    return write_text(root / "manifest.json", json.dumps(manifest, indent=2))


@pytest.fixture
def arena_manifest_path(tmp_path):
    return build_arena(tmp_path)


def golden_record() -> RunRecord:
    """A fixed RunRecord holding every kind of report cell.

    Categories None, "" and a name; params 0.0, a value and None; a gap
    system (sysC misses d2); and a tie for the best d1 EER (sysA, sysB).
    """
    return RunRecord(
        run_id="0123456789ab",
        timestamp="2025-01-01T00:00:00+00:00",
        manifest_digest="9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
        tool_version="test",
        record_version=RECORD_VERSION,
        dataset_ids=("d1", "d2"),
        reports=(),
        summaries=(
            SystemSummary("sysA", 0.15, 0.15, {"d1": 0.1, "d2": 0.2}, param_count_millions=0.0),
            SystemSummary("sysB", 0.2, 0.125, {"d1": 0.1, "d2": 0.3}, param_count_millions=95.5,
                          category=""),
            SystemSummary("sysC", 0.3, None, {"d1": 0.3}, category="CNN", gap_datasets=("d2",)),
        ),
    )


def make_tone(seconds=1.0, freq=440.0, amplitude=0.5, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    return amplitude * np.sin(2.0 * np.pi * freq * t)


def make_noise(seconds=1.0, amplitude=0.1, seed=0, rate=16000):
    rng = np.random.default_rng(seed)
    return amplitude * rng.standard_normal(int(seconds * rate))


def build_wav_corpus(root: Path, n_files=3, seconds=1.0, amplitude=0.05, seed=100):
    """Clean sine corpus: n_files WAVs with distinct frequencies."""
    root.mkdir(parents=True, exist_ok=True)
    for i in range(n_files):
        write_wav(root / f"utt{i:03d}.wav", make_tone(seconds, 200.0 + 60.0 * i, amplitude))
    return root


def build_interferer_dir(root: Path, n_files=2, seconds=0.6, amplitude=0.1, seed=7):
    """Noise source directory, nested one level like a MUSAN category folder."""
    sub = root / "free-sound"
    sub.mkdir(parents=True, exist_ok=True)
    for i in range(n_files):
        write_wav(sub / f"noise{i:03d}.wav", make_noise(seconds, amplitude, seed + i))
    return root


def wav_bytes(samples_bytes, *, fmt=1, channels=1, rate=16000, bits=16):
    """A canonical 44-byte-header WAV file around a raw payload."""
    block = channels * bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(samples_bytes)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, fmt, channels, rate, rate * block, block, bits),
            b"data",
            struct.pack("<I", len(samples_bytes)),
        ]
    )
    return header + samples_bytes


def write_float32_wav(path: Path, samples: np.ndarray) -> None:
    """Write IEEE float 32-bit mono (write_wav only writes PCM16)."""
    path.write_bytes(wav_bytes(samples.astype("<f4").tobytes(), fmt=3, bits=32))


class FullDisk(io.BytesIO):
    """A file on a device that fills after ``room`` bytes: the write that crosses
    that point stores what fits and fails with ENOSPC, as every later write does.
    The close puts what it stored in the real file ``path`` (opened with ``mode``),
    so a writer that renames or removes it acts on a real file. ``stored`` holds
    the bytes once the file is closed."""

    def __init__(self, path, mode: str, room: int):
        super().__init__()
        self.path = path
        self.mode = mode
        self.room = room
        self.stored = None

    def write(self, data) -> int:
        data = bytes(data)
        fits = max(0, self.room - self.tell())
        if len(data) > fits:
            super().write(data[:fits])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)

    def close(self) -> None:
        if not self.closed:
            self.stored = self.getvalue()
            with open(self.path, self.mode) as fh:
                fh.write(self.stored)
        super().close()


def fill_disk_after(monkeypatch, room: int, name: str | None = None) -> list[FullDisk]:
    """Make ``errors.open_output`` open a FullDisk of ``room`` bytes instead of the file,
    only for a file whose name holds ``name`` when one is given (the writer's temporary
    file carries its target's name). Reads pass through. Returns the FullDisks it opens."""
    opened = []

    def fake_open(path, mode):
        if mode == "rb" or (name is not None and name not in Path(path).name):
            return open(path, mode)
        opened.append(FullDisk(path, mode, room))
        return opened[-1]

    monkeypatch.setattr(df_arena.errors, "open", fake_open, raising=False)
    return opened


class FailingRead(io.BytesIO):
    """A file whose every read fails with EIO, as on a failing disk."""

    def read(self, *args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def fail_reads_of(monkeypatch, target: Path) -> None:
    """Make ``errors.read_input`` open a FailingRead for ``target``; other files open as usual."""

    def fake_open(path, mode):
        return FailingRead() if mode == "rb" and Path(path) == Path(target) else open(path, mode)

    monkeypatch.setattr(df_arena.errors, "open", fake_open, raising=False)


def dir_listing(path: Path) -> list[str]:
    """The names in directory ``path``, hidden ones (a writer's temporary files) included."""
    return sorted(p.name for p in path.iterdir())


def run_with_file_size_limit(argv, limit: int) -> subprocess.CompletedProcess:
    """``python argv`` with RLIMIT_FSIZE at ``limit`` bytes, so that a write past it fails with EFBIG."""

    def cap():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # else the signal kills the child
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, preexec_fn=cap)
