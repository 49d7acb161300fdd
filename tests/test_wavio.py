import struct

import numpy as np
import pytest

from df_arena.errors import AudioError
from df_arena.wavio import AudioBuffer, read_wav, rms, write_wav

from conftest import make_tone
from oracles import rms_by_hand


def _wav_bytes(samples_bytes, *, fmt=1, channels=1, rate=16000, bits=16):
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


def test_one_second_pcm16(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, make_tone(seconds=1.0))
    buf = read_wav(path)
    assert len(buf) == 16000
    assert buf.sample_rate == 16000


def test_pcm16_scaling_and_round_trip(tmp_path):
    path = tmp_path / "t.wav"
    raw = np.array([0, 16384, -16384, 32767, -32768], dtype="<i2")
    path.write_bytes(_wav_bytes(raw.tobytes()))
    buf = read_wav(path)
    assert np.array_equal(buf.samples, raw.astype(np.float64) / 32768.0)
    assert buf.samples.min() >= -1.0
    assert buf.samples.max() < 1.0

    out = tmp_path / "o.wav"
    write_wav(out, buf)
    again = read_wav(out)
    assert np.array_equal(buf.samples, again.samples)


def test_write_read_stability_after_first_quantization(tmp_path):
    first = tmp_path / "a.wav"
    second = tmp_path / "b.wav"
    write_wav(first, make_tone(seconds=0.05, amplitude=0.9))
    buf = read_wav(first)
    write_wav(second, buf)
    assert first.read_bytes() == second.read_bytes()


def test_float32_supported(tmp_path):
    path = tmp_path / "f.wav"
    values = np.array([0.0, 0.5, -0.25, 1.0, -1.0], dtype="<f4")
    path.write_bytes(_wav_bytes(values.tobytes(), fmt=3, bits=32))
    buf = read_wav(path)
    assert np.array_equal(buf.samples, values.astype(np.float64))


def test_wrong_sample_rate_names_requirement(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(_wav_bytes(b"\x00\x00" * 10, rate=44100))
    with pytest.raises(AudioError, match="44100.*16000"):
        read_wav(path)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(_wav_bytes(b"\x00\x00\x00\x00" * 10, channels=2))
    with pytest.raises(AudioError, match="2 channels; mono required"):
        read_wav(path)


def test_compressed_codec_rejected(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(_wav_bytes(b"\x00\x00" * 10, fmt=85))  # MP3 format tag
    with pytest.raises(AudioError, match="unsupported codec"):
        read_wav(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(b"RIFF\x00\x00")
    with pytest.raises(AudioError, match="truncated"):
        read_wav(path)


def test_truncated_data_chunk_rejected(tmp_path):
    path = tmp_path / "w.wav"
    whole = _wav_bytes(b"\x00\x00" * 100)
    path.write_bytes(whole[:-20])
    with pytest.raises(AudioError, match="truncated"):
        read_wav(path)


def test_not_a_wav_rejected(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(b"ID3\x04 definitely not riff audio data")
    with pytest.raises(AudioError, match="RIFF/WAVE"):
        read_wav(path)


def test_missing_file(tmp_path):
    with pytest.raises(AudioError, match="not found"):
        read_wav(tmp_path / "nope.wav")


def test_directory_is_audio_error(tmp_path):
    with pytest.raises(AudioError, match="cannot read"):
        read_wav(tmp_path)


def test_buffer_requires_16k():
    with pytest.raises(AudioError, match="16000"):
        AudioBuffer(np.zeros(10), 8000)


def test_buffer_rejects_non_finite():
    with pytest.raises(AudioError, match="non-finite"):
        AudioBuffer(np.array([0.0, np.nan]))


def test_write_clamps_overrange(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(path, AudioBuffer(np.array([2.0, -2.0, 0.5])))
    buf = read_wav(path)
    assert buf.samples[0] == pytest.approx(32767 / 32768)
    assert buf.samples[1] == -1.0
    assert np.max(np.abs(buf.samples)) <= 1.0


def test_rms_matches_plain_computation():
    tone = make_tone(seconds=0.01, amplitude=0.3)
    assert rms(tone) == pytest.approx(rms_by_hand(list(tone.samples)), abs=1e-12)
