"""Seeded noise/music/speech mixing at controlled SNR, and RIR reverberation.

Every random choice in a corpus run (interferer file, loop offset, target
SNR) is drawn from a per-file generator seeded by a stable hash of the run
seed and the trial id, so a run is a pure function of (input bytes, spec):
output bytes are identical regardless of worker count or visit order.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path

import numpy as np

from .errors import AudioError, AugmentError, open_output
from .spec import AugmentSpec, _amplitude_ratio
from .vocab import CLIP_POLICIES
from .wavio import decode_wav, read_wav, rms, write_wav

MANIFEST_NAME = "augment_manifest.jsonl"

# Kernels at or below this length convolve directly (exact arithmetic for
# impulse-like RIRs); longer ones go through the FFT path.
_DIRECT_CONV_MAX = 256


def keep_freed_memory() -> None:
    """Raise glibc malloc's trim and mmap thresholds for this process.

    A reverb draw frees several arrays of a few hundred KB. At glibc's
    defaults each goes back to the kernel and is faulted in again by the
    next draw; above these thresholds freed memory stays in the heap. Does
    nothing under any other C library. Process-wide, so only the CLI, which
    owns its process, calls it.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (ValueError, OSError):  # a name this platform does not know
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: free heap top kept up to 256 MiB
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap blocks up to 32 MiB, glibc's 64-bit largest


@dataclass(frozen=True)
class FileOutcome:
    input_path: str
    output_path: str
    category: str
    source_file: str
    file_seed: int
    snr_db: float | None = None
    realized_snr_db: float | None = None
    loop_offset: int | None = None
    rir_id: str | None = None
    scale: float = 1.0


@dataclass(frozen=True)
class AugmentSummary:
    entries: tuple[FileOutcome, ...]
    failures: tuple[tuple[str, str], ...]
    manifest_path: str


def file_seed(run_seed: int, trial_id: str) -> int:
    """Stable 64-bit per-file seed from the run seed and the trial id."""
    h = blake2b(f"{run_seed}:{trial_id}".encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def _fit_length(w: np.ndarray, n: int, offset: int) -> np.ndarray:
    """Loop (with wraparound start) or crop the interferer to n samples."""
    if w.size >= n:
        start = offset % (w.size - n + 1)
        return w[start : start + n]
    idx = (offset + np.arange(n)) % w.size
    return w[idx]


def _apply_clip_policy(samples: np.ndarray, policy: str):
    """Returns (samples, scale); scale is the uniform factor peak-normalize
    applied (1.0 when nothing exceeded full scale, or under hard-clip)."""
    peak = float(np.max(np.abs(samples)))
    if peak <= 1.0:
        return samples, 1.0
    if policy == "peak-normalize":
        scale = 1.0 / peak
        return samples * scale, scale
    return np.clip(samples, -1.0, 1.0), 1.0


def _mix(clean: np.ndarray, fitted: np.ndarray, snr_db: float, clip_policy: str):
    """Scale the fitted interferer to the target SNR and add it to clean.

    Returns (samples, realized_snr_db, scale): the realized SNR is measured
    on the scaled interferer (pre-clipping), scale is the whole-mix factor
    that the clip policy applied afterwards (1.0 when nothing clipped).
    """
    rms_clean = rms(clean)
    if rms_clean == 0.0:
        raise AugmentError("clean signal is silent (zero RMS)")
    rms_noise = rms(fitted)
    if rms_noise == 0.0:
        raise AugmentError("interferer segment is silent (zero RMS)")
    # an extreme SNR can scale the interferer past float64's range either way
    with np.errstate(all="ignore"):
        scaled = np.divide(rms_clean, rms_noise * _amplitude_ratio(snr_db)) * fitted
        rms_scaled = rms(scaled)
    if not 0.0 < rms_scaled < math.inf:
        raise AugmentError(f"SNR {snr_db} dB scales the interferer out of float64 range")
    mixed, scale = _apply_clip_policy(clean + scaled, clip_policy)
    return mixed, 20.0 * math.log10(rms_clean / rms_scaled), scale


def mix_at_snr(
    clean: np.ndarray,
    interferer: np.ndarray,
    snr_db: float,
    clip_policy: str = "peak-normalize",
    offset: int = 0,
) -> np.ndarray:
    """Add the interferer to the clean signal at an exact target SNR.

    The interferer is looped or cropped to the clean length (``offset``
    selects the start point), then scaled so that the pre-clipping SNR
    equals ``snr_db`` by construction. If the mix exceeds full scale the
    clip policy is applied: peak-normalize rescales the whole mix to peak 1,
    hard-clip saturates.
    """
    if clip_policy not in CLIP_POLICIES:
        raise AugmentError(f"unknown clip policy {clip_policy!r}")
    fitted = _fit_length(interferer, clean.size, offset)
    mixed, _, _ = _mix(clean, fitted, snr_db, clip_policy)
    return mixed


def _fft_size(n: int) -> int:
    """The smallest 5-smooth number (2**a * 3**b * 5**c) that is at least n."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest odd * 2**a that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _rir_spectrum(h: np.ndarray) -> np.ndarray:
    """The RIR's transform at a size set by its length alone, whatever the
    utterance's: at 4 * taps, each block is over three RIRs long, so a
    block's tail (taps - 1 samples) reaches into the next block only."""
    return np.fft.rfft(h, _fft_size(4 * h.size))


def _convolve(x: np.ndarray, h: np.ndarray, spectrum=None) -> np.ndarray:
    """The first x.size samples of x convolved with h. A long h goes by overlap-add: the
    blocks of x share one batched FFT, and each block's tail is added into the next."""
    if h.size <= _DIRECT_CONV_MAX:
        return np.convolve(x, h)[: x.size]
    size = _fft_size(4 * h.size)  # as in _rir_spectrum
    step = size - h.size + 1
    # blocks are laid out at the FFT width, so rfft transforms them without a padded copy
    full, rest = divmod(x.size, step)
    blocks = np.zeros((full + (rest > 0), size))
    blocks[:full, :step] = x[: full * step].reshape(full, step)
    blocks[full:, :rest] = x[full * step :]
    spectrum = _rir_spectrum(h) if spectrum is None else spectrum
    spectra = np.fft.rfft(blocks, size, axis=1)
    del blocks  # freed before irfft allocates the wet blocks
    spectra *= spectrum
    wet = np.fft.irfft(spectra, size, axis=1)
    wet[1:, : h.size - 1] += wet[:-1, step:]
    return wet[:, :step].reshape(-1)[: x.size]


def reverberate(clean: np.ndarray, rir: np.ndarray, spectrum=None) -> np.ndarray:
    """Convolve with a room impulse response, preserving length and level.

    Linear convolution truncated to the clean length, then rescaled so the
    output RMS equals the input RMS. ``spectrum``, when given, must equal
    ``_rir_spectrum(rir)``; a corpus run passes the one it keeps with
    the RIR so that it need not transform an RIR for every draw.
    """
    if rms(rir) == 0.0:
        raise AugmentError("RIR is silent (zero RMS)")
    wet = _convolve(clean, rir, spectrum)
    rms_in = rms(clean)
    rms_out = rms(wet)
    if rms_in == 0.0 or rms_out == 0.0:
        return np.zeros(clean.size)
    wet *= rms_in / rms_out
    return wet


def _list_wavs(directory: Path, recursive: bool) -> list[Path]:
    it = directory.rglob("*") if recursive else directory.iterdir()
    files = [p for p in it if p.is_file() and p.suffix.lower() == ".wav"]
    return sorted(files, key=lambda p: p.relative_to(directory).as_posix())


def _load_source(path: Path, reverb: bool) -> tuple[np.ndarray, float, np.ndarray | None] | str:
    """The source's stored-width samples, their scale (see ``decode_wav``)
    and, in a reverb run, the RIR's ``_rir_spectrum``: None where
    ``reverberate`` needs none, since a short RIR convolves directly and a
    silent one is refused before it is transformed. A source that fails to
    decode is its AudioError's message, raised again for each file that
    draws it."""
    try:
        samples, scale = decode_wav(path)
    except AudioError as e:
        return str(e)
    spectrum = None
    if reverb and samples.size > _DIRECT_CONV_MAX:
        h = samples.astype(np.float64) * scale
        if rms(h) != 0.0:
            spectrum = _rir_spectrum(h)
    return samples, scale, spectrum


def _process_one(
    in_path: Path,
    out_dir: Path,
    spec: AugmentSpec,
    seed: int,
    rng: np.random.Generator,
    source_rel: str,
    source: tuple[np.ndarray, float, np.ndarray | None] | str,
) -> FileOutcome:
    """Perturb one file with the source that ``rng`` drew first, as
    ``_load_source`` left it; ``rng`` goes on to draw the SNR and offset."""
    clean = read_wav(in_path)
    if isinstance(source, str):
        raise AudioError(source)
    stored, stored_scale, spectrum = source
    out_path = out_dir / in_path.name

    if spec.category == "reverb":
        wet = reverberate(clean, stored.astype(np.float64) * stored_scale, spectrum)
        samples, scale = _apply_clip_policy(wet, spec.clip_policy)
        drawn = {"rir_id": source_rel}
    else:
        low, high = spec.snr_range_db
        snr_db = float(rng.uniform(low, high))
        n = clean.size
        span = stored.size - n + 1 if stored.size >= n else stored.size
        offset = int(rng.integers(0, max(1, span)))
        # Only the n mixed samples are converted; elementwise this equals
        # fitting the fully converted source.
        fitted = _fit_length(stored, n, offset).astype(np.float64) * stored_scale
        samples, realized, scale = _mix(clean, fitted, snr_db, spec.clip_policy)
        drawn = {"snr_db": snr_db, "realized_snr_db": realized, "loop_offset": offset}
    write_wav(out_path, samples)
    return FileOutcome(input_path=str(in_path), output_path=str(out_path), category=spec.category,
                       source_file=source_rel, file_seed=seed, scale=scale, **drawn)


def augment_corpus(
    in_dir: str | Path,
    out_dir: str | Path,
    spec: AugmentSpec,
    jobs: int = 1,
) -> AugmentSummary:
    """Perturb every WAV in in_dir into out_dir, deterministically.

    Writes ``augment_manifest.jsonl`` next to the outputs with one line per
    processed file recording every random choice; re-running with the same
    inputs and spec reproduces the outputs byte for byte, at any ``jobs``.
    Per-file failures are collected and reported, not fatal.
    """
    in_dir = Path(in_dir)
    out_dir = Path(out_dir)
    if not in_dir.is_dir():
        raise AugmentError(f"input directory not found: {in_dir}")
    if in_dir.resolve() == out_dir.resolve():
        raise AugmentError("out_dir must differ from in_dir (outputs keep the input basenames)")
    if out_dir.resolve().is_relative_to(spec.source_dir.resolve()):
        raise AugmentError(f"out_dir {out_dir} lies inside the source directory {spec.source_dir} "
                           "(a rerun would draw the outputs as sources)")
    if not spec.source_dir.is_dir():
        raise AugmentError(f"source directory not found: {spec.source_dir}")
    sources = _list_wavs(spec.source_dir, recursive=True)
    if not sources:
        raise AugmentError(f"source directory {spec.source_dir} contains no WAV files")
    inputs = _list_wavs(in_dir, recursive=False)
    if not inputs:
        raise AugmentError(f"input directory {in_dir} contains no WAV files")
    if jobs < 1:
        raise AugmentError(f"jobs must be >= 1, got {jobs}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise AugmentError(f"cannot create output directory {out_dir}: {e.strerror or e}") from e
    # Draw order is fixed: source index here, then SNR (additive only) and
    # offset in _process_one. Files are grouped by source, in first-draw order.
    groups: dict[Path, list[tuple[Path, int, np.random.Generator]]] = {}
    for p in inputs:
        seed = file_seed(spec.seed, p.stem)
        rng = np.random.default_rng(seed)
        groups.setdefault(sources[int(rng.integers(0, len(sources)))], []).append((p, seed, rng))

    def work(p: Path, seed: int, rng: np.random.Generator, source_rel: str, source):
        try:
            return _process_one(p, out_dir, spec, seed, rng, source_rel, source), None
        except Exception as e:  # collected per file; the run continues
            return None, (str(p), f"{type(e).__name__}: {e}")

    # Each source is decoded once, while the workers still run the previous
    # group. Waiting for that group only after submitting this one keeps the
    # workers busy and holds at most three sources at a time.
    futures = {}
    previous = []
    with ThreadPoolExecutor(max_workers=min(jobs, len(inputs))) as pool:
        for src, files in groups.items():
            source_rel = src.relative_to(spec.source_dir).as_posix()
            source = _load_source(src, spec.category == "reverb")
            group = [pool.submit(work, p, seed, rng, source_rel, source) for p, seed, rng in files]
            futures.update(zip((p for p, _, _ in files), group))
            wait(previous)
            previous = group
    results = [futures[p].result() for p in inputs]

    entries = tuple(outcome for outcome, _ in results if outcome is not None)
    failures = tuple(failure for _, failure in results if failure is not None)

    manifest_path = out_dir / MANIFEST_NAME
    with open_output(manifest_path, AugmentError) as fh:
        for outcome in entries:  # input order, independent of completion order
            fh.write((json.dumps(vars(outcome), sort_keys=True) + "\n").encode("utf-8"))
    return AugmentSummary(entries=entries, failures=failures, manifest_path=str(manifest_path))
