"""Minimal RIFF/WAVE reader-writer for 16 kHz mono corpora.

Reads exactly what the augmentation pipeline consumes: PCM 16-bit and
IEEE float 32-bit, mono, 16000 Hz. Anything else is a hard error; there is
no silent resampling or downmixing. Output is always PCM 16-bit, no dither,
written by the standard library's ``wave`` behind a canonical 44-byte header.

In memory, audio is a plain 1-D float64 array at full scale (PCM16 is scaled
by 1/32768). Samples are checked only where they cross a file: by
``decode_wav`` on the way in and by ``write_wav`` on the way out.
"""

from __future__ import annotations

import struct
import wave
from pathlib import Path

import numpy as np

from .errors import AudioError, open_output, read_input

REQUIRED_SAMPLE_RATE = 16000

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def decode_wav(path: str | Path) -> tuple[np.ndarray, float]:
    """Decode a mono 16 kHz PCM16/float32 WAV file at its stored width.

    Returns ``(samples, scale)``: a read-only ``<i2`` (PCM16) or ``<f4``
    (float32) array and the factor that maps it to full-scale floats, so
    ``samples.astype(np.float64) * scale`` is what :func:`read_wav` returns.
    Validates exactly what ``read_wav`` does; float32 payloads are scanned
    for non-finite values, PCM16 ones need no scan.
    """
    path = Path(path)
    data = read_input(path, AudioError)
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioError(f"{path}: truncated header or not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        body_end = body_start + chunk_size
        if body_end > len(data):
            raise AudioError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise AudioError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            payload = data[body_start:body_end]
        pos = body_end + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise AudioError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format not in (_FMT_PCM, _FMT_IEEE_FLOAT):
        raise AudioError(
            f"{path}: unsupported codec (format tag {audio_format}); "
            "PCM 16-bit or IEEE float 32-bit required"
        )
    if channels != 1:
        raise AudioError(f"{path}: {channels} channels; mono required")
    if sample_rate != REQUIRED_SAMPLE_RATE:
        raise AudioError(
            f"{path}: unsupported sample rate {sample_rate} Hz; "
            f"{REQUIRED_SAMPLE_RATE} Hz required (no resampling is performed)"
        )
    if audio_format == _FMT_PCM:
        if bits != 16:
            raise AudioError(f"{path}: PCM must be 16-bit, got {bits}-bit")
        dtype, scale = "<i2", 1.0 / 32768.0  # a power of two: * scale == / 32768
    else:
        if bits != 32:
            raise AudioError(f"{path}: IEEE float must be 32-bit, got {bits}-bit")
        dtype, scale = "<f4", 1.0
    usable = len(payload) - (len(payload) % np.dtype(dtype).itemsize)
    samples = np.frombuffer(payload[:usable], dtype=dtype)
    if samples.size == 0:
        raise AudioError(f"{path}: empty data chunk")
    if audio_format == _FMT_IEEE_FLOAT and not np.all(np.isfinite(samples)):
        raise AudioError(f"{path}: non-finite samples")
    return samples, scale


def read_wav(path: str | Path) -> np.ndarray:
    """Read a mono 16 kHz PCM16/float32 WAV file as 1-D float64 samples.

    Raises AudioError for any other rate, channel count, or codec; callers
    are expected to convert offline rather than rely on hidden resampling.
    """
    samples, scale = decode_wav(path)
    return samples.astype(np.float64) * scale


def write_wav(path: str | Path, samples: np.ndarray) -> None:
    """Write 1-D samples as PCM 16-bit mono, clamped to [-1, 1] on the way out.

    An empty, non-1-D or non-finite array is refused with AudioError before
    the file is opened; a failed open or write is an AudioError too.
    """
    if samples.ndim != 1 or samples.size == 0:
        raise AudioError(f"{path}: audio must be a non-empty 1-D signal, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise AudioError(f"{path}: non-finite samples")
    q = np.clip(samples, -1.0, 1.0)
    q *= 32768.0
    np.rint(q, out=q)
    np.minimum(q, 32767.0, out=q)  # q >= -32768 already, so only the top can overflow int16
    with open_output(path, AudioError) as fh, wave.open(fh, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(REQUIRED_SAMPLE_RATE)
        w.writeframes(q.astype(np.int16))  # native order: wave swaps the bytes on a big-endian host
