import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from df_arena.errors import AudioError
from df_arena.wavio import decode_wav, read_wav, rms, write_wav

from conftest import dir_listing, fill_disk_after, make_tone, run_with_file_size_limit, wav_bytes
from oracles import rms_by_hand


def test_one_second_pcm16(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, make_tone(seconds=1.0))
    buf = read_wav(path)
    assert len(buf) == 16000
    assert struct.unpack_from("<I", path.read_bytes(), 24) == (16000,)  # fmt chunk sample rate


def test_pcm16_scaling_and_round_trip(tmp_path):
    path = tmp_path / "t.wav"
    raw = np.array([0, 16384, -16384, 32767, -32768], dtype="<i2")
    path.write_bytes(wav_bytes(raw.tobytes()))
    buf = read_wav(path)
    assert np.array_equal(buf, raw.astype(np.float64) / 32768.0)
    assert buf.min() >= -1.0
    assert buf.max() < 1.0

    out = tmp_path / "o.wav"
    write_wav(out, buf)
    again = read_wav(out)
    assert np.array_equal(buf, again)


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
    path.write_bytes(wav_bytes(values.tobytes(), fmt=3, bits=32))
    buf = read_wav(path)
    assert np.array_equal(buf, values.astype(np.float64))


def test_wrong_sample_rate_names_requirement(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(wav_bytes(b"\x00\x00" * 10, rate=44100))
    with pytest.raises(AudioError, match="44100.*16000"):
        read_wav(path)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(wav_bytes(b"\x00\x00\x00\x00" * 10, channels=2))
    with pytest.raises(AudioError, match="2 channels; mono required"):
        read_wav(path)


def test_compressed_codec_rejected(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(wav_bytes(b"\x00\x00" * 10, fmt=85))  # MP3 format tag
    with pytest.raises(AudioError, match="unsupported codec"):
        read_wav(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(b"RIFF\x00\x00")
    with pytest.raises(AudioError, match="truncated"):
        read_wav(path)


def test_truncated_data_chunk_rejected(tmp_path):
    path = tmp_path / "w.wav"
    whole = wav_bytes(b"\x00\x00" * 100)
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


@pytest.mark.parametrize("samples, message", [
    (np.array([0.0, np.nan]), "non-finite samples"),
    (np.array([0.5, np.inf]), "non-finite samples"),
    (np.array([-np.inf, 0.5]), "non-finite samples"),
    (np.zeros(0), "audio must be a non-empty 1-D signal, got shape (0,)"),
    (np.zeros((2, 3)), "audio must be a non-empty 1-D signal, got shape (2, 3)"),
], ids=["nan", "+inf", "-inf", "empty", "2-D"])
def test_write_refuses_what_pcm16_cannot_hold_and_leaves_no_file(tmp_path, samples, message):
    path = tmp_path / "bad.wav"
    with pytest.raises(AudioError, match=re.escape(f"{path}: {message}")):
        write_wav(path, samples)
    assert list(tmp_path.iterdir()) == []


def test_write_to_a_directory_is_audio_error(tmp_path):
    with pytest.raises(AudioError, match=re.escape(f"cannot write {tmp_path}: ")):
        write_wav(tmp_path, make_tone(seconds=0.01))


@pytest.mark.parametrize("n", [1, 2, 159, 160, 16001, 65536])
def test_header_is_the_canonical_44_bytes(tmp_path, n):
    path = tmp_path / "h.wav"
    write_wav(path, np.linspace(-0.5, 0.5, n))
    data = path.read_bytes()
    assert len(data) == 44 + 2 * n
    assert data[:44] == wav_bytes(data[44:])[:44]


def test_full_disk_at_any_byte_is_audio_error(tmp_path, monkeypatch):
    path = tmp_path / "full.wav"
    tone = make_tone(seconds=0.01)
    write_wav(path, tone)
    expected = path.read_bytes()
    earlier = wav_bytes(b"\x01\x00" * 8)
    for room in range(len(expected)):  # the header's 44 bytes included
        path.write_bytes(earlier)
        fill_disk_after(monkeypatch, room)
        with pytest.raises(AudioError) as exc:
            write_wav(path, tone)
        assert (type(exc.value), str(exc.value)) == (AudioError, f"cannot write {path}: No space left on device")
        # no torn file: wave's close would have written sizes that declare an empty data chunk
        assert path.read_bytes() == earlier
        assert dir_listing(tmp_path) == ["full.wav"]
    opened = fill_disk_after(monkeypatch, len(expected))
    write_wav(path, tone)
    [disk] = opened
    assert disk.stored == expected
    assert path.read_bytes() == expected
    assert dir_listing(tmp_path) == ["full.wav"]


def test_each_write_goes_through_its_own_temporary_file(tmp_path, monkeypatch):
    # a leftover temporary file must not read as a WAV, and two writers must not share one
    opened = fill_disk_after(monkeypatch, 10**6)
    path = tmp_path / "t.wav"
    write_wav(path, make_tone(seconds=0.01))
    write_wav(path, make_tone(seconds=0.01))
    names = [Path(disk.path).name for disk in opened]
    assert [Path(disk.path).parent for disk in opened] == [tmp_path, tmp_path]
    assert len(set(names)) == 2 and not any(name.endswith(".wav") for name in names)
    assert [disk.mode for disk in opened] == ["xb", "xb"]
    assert dir_listing(tmp_path) == ["t.wav"]


def test_file_size_limit_inside_the_header_is_audio_error(tmp_path):
    path = tmp_path / "capped.wav"
    script = ("import numpy as np; from df_arena.wavio import write_wav\n"
              "try:\n    write_wav(__import__('sys').argv[1], np.zeros(160))\n"
              "except Exception as e:\n    print(type(e).__name__, e)")
    for earlier in (None, wav_bytes(b"\x01\x00" * 8)):
        if earlier is not None:
            path.write_bytes(earlier)
        proc = run_with_file_size_limit(["-c", script, str(path)], limit=20)
        assert (proc.returncode, proc.stdout) == (0, f"AudioError cannot write {path}: File too large\n")
        assert (path.read_bytes() if path.exists() else None) == earlier
        assert dir_listing(tmp_path) == ([] if earlier is None else ["capped.wav"])


def test_write_clamps_overrange(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(path, np.array([2.0, -2.0, 0.5]))
    buf = read_wav(path)
    assert buf[0] == pytest.approx(32767 / 32768)
    assert buf[1] == -1.0
    assert np.max(np.abs(buf)) <= 1.0


def test_rms_matches_plain_computation():
    tone = make_tone(seconds=0.01, amplitude=0.3)
    assert rms(tone) == pytest.approx(rms_by_hand(list(tone)), abs=1e-12)


def test_decode_wav_keeps_the_stored_width(tmp_path):
    pcm = tmp_path / "p.wav"
    raw = np.array([0, 1, -32768, 32767], dtype="<i2")
    pcm.write_bytes(wav_bytes(raw.tobytes()))
    samples, scale = decode_wav(pcm)
    assert samples.dtype == np.dtype("<i2") and not samples.flags.writeable
    assert np.array_equal(samples, raw)
    assert scale == 1.0 / 32768.0
    assert np.array_equal(samples.astype(np.float64) * scale, read_wav(pcm))

    flt = tmp_path / "f.wav"
    values = np.array([0.25, -1.5, 3.0], dtype="<f4")
    flt.write_bytes(wav_bytes(values.tobytes(), fmt=3, bits=32))
    samples, scale = decode_wav(flt)
    assert samples.dtype == np.dtype("<f4") and scale == 1.0
    assert np.array_equal(samples, values)


def test_float32_non_finite_rejected_by_both_readers(tmp_path):
    path = tmp_path / "n.wav"
    path.write_bytes(wav_bytes(np.array([0.0, np.nan], dtype="<f4").tobytes(), fmt=3, bits=32))
    for reader in (read_wav, decode_wav):
        with pytest.raises(AudioError, match="non-finite samples"):
            reader(path)


# WAV parser fuzzing: whatever the bytes, both readers either decode or raise
# AudioError with the same message, and where they decode they agree.

_MUTATIONS = (
    "fmt fields",  # any codec, channel count, rate or width
    "short fmt",  # fmt chunk cut below its 16 bytes
    "data size",  # declared data size unrelated to the payload
    "riff size",
    "no fmt",
    "no data",
    "data first",
    "trailing chunk",  # a chunk header or body cut off at the end of the file
    "cut",  # the whole file truncated anywhere
)


def _chunk(chunk_id: bytes, body: bytes, declared: int | None = None) -> bytes:
    size = len(body) if declared is None else declared
    return chunk_id + struct.pack("<I", size) + body + b"\0" * (len(body) & 1)


@st.composite
def mutated_wavs(draw):
    """(file bytes, expected float64 samples or None when a mutation applies)."""
    mutations = draw(st.sets(st.sampled_from(_MUTATIONS), max_size=3))
    is_float = draw(st.booleans())
    tag, bits = (3, 32) if is_float else (1, 16)
    channels, rate = 1, 16000
    if "fmt fields" in mutations:
        tag = draw(st.sampled_from([0, 1, 2, 3, 85, 0xFFFE]))
        channels = draw(st.integers(0, 3))
        rate = draw(st.sampled_from([0, 8000, 16000, 44100, 2**32 - 1]))
        bits = draw(st.sampled_from([0, 8, 16, 24, 32, 64]))
    fmt_body = struct.pack("<HHIIHH", tag, channels, rate, (rate * 2) % 2**32, 2, bits)
    if "short fmt" in mutations:
        fmt_body = fmt_body[: draw(st.integers(0, 15))]
    elif draw(st.booleans()):
        fmt_body += b"\0\0"  # WAVE_FORMAT_EX's cbSize, which the reader ignores

    if is_float:
        values = draw(st.lists(st.floats(width=32), min_size=0, max_size=40))
        payload = np.array(values, dtype="<f4").tobytes() + draw(st.binary(max_size=3))
    else:
        payload = draw(st.binary(max_size=81))
    declared = draw(st.integers(0, 2**32 - 1)) if "data size" in mutations else None

    chunks = [_chunk(b"fmt ", fmt_body), _chunk(b"data", payload, declared)]
    if "no fmt" in mutations:
        chunks.pop(0)
    elif "no data" in mutations:
        chunks.pop()
    elif "data first" in mutations:
        chunks.reverse()
    extra = _chunk(b"LIST", draw(st.binary(max_size=9)))  # odd sizes are padded
    chunks.insert(draw(st.integers(0, len(chunks))), extra)
    if "trailing chunk" in mutations:
        tail = _chunk(b"junk", draw(st.binary(min_size=1, max_size=8)))
        chunks.append(tail[: draw(st.integers(1, len(tail) - 1))])

    body = b"WAVE" + b"".join(chunks)
    riff_size = draw(st.integers(0, 2**32 - 1)) if "riff size" in mutations else len(body)
    data = b"RIFF" + struct.pack("<I", riff_size) + body
    if "cut" in mutations:
        data = data[: draw(st.integers(0, len(data)))]

    expected = None
    if not mutations or mutations == {"riff size"}:  # the RIFF size is not read
        dtype, scale = ("<f4", 1.0) if is_float else ("<i2", 1.0 / 32768.0)
        usable = len(payload) - len(payload) % np.dtype(dtype).itemsize
        expected = np.frombuffer(payload[:usable], dtype=dtype).astype(np.float64) * scale
    return data, expected


def _decode_both(path):
    """read_wav's samples, or None if it raised; decode_wav must agree."""
    try:
        buf = read_wav(path)
    except AudioError as e:
        with pytest.raises(AudioError) as info:
            decode_wav(path)
        assert str(info.value) == str(e)
        return None
    samples, scale = decode_wav(path)
    assert samples.dtype in (np.dtype("<i2"), np.dtype("<f4"))
    assert np.array_equal(samples.astype(np.float64) * scale, buf)
    return buf


_FUZZ = settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(st.binary(max_size=96) | st.binary(max_size=96).map(lambda b: b"RIFF\0\0\0\0WAVE" + b))
@_FUZZ
def test_random_bytes_raise_only_audio_error(tmp_path, data):
    path = tmp_path / "fuzz.wav"
    path.write_bytes(data)
    _decode_both(path)


@given(mutated_wavs())
@_FUZZ
def test_mutated_headers_raise_only_audio_error(tmp_path, case):
    data, expected = case
    path = tmp_path / "fuzz.wav"
    path.write_bytes(data)
    samples = _decode_both(path)
    if expected is not None:
        if expected.size == 0 or not np.all(np.isfinite(expected)):
            assert samples is None
        else:
            assert np.array_equal(samples, expected)


_ULP_PAST_ONE = np.nextafter(1.0, 2.0)
# edge samples: full scale, one ulp past it, and the rounding half-steps k/32768 +- 0.5/32768
_quantiser_edges = (
    st.sampled_from([1.0, -1.0, _ULP_PAST_ONE, -_ULP_PAST_ONE])
    | st.builds(lambda k, sign: (k + sign * 0.5) / 32768.0,
                st.integers(-32768, 32767), st.sampled_from([-1.0, 1.0]))
)
_samples = _quantiser_edges | st.floats(-1e6, 1e6, allow_nan=False) | st.floats(-1.0, 1.0)


@given(st.lists(_samples, min_size=1, max_size=64))
@_FUZZ
def test_pcm16_payload_is_the_clip_round_clip_quantiser(tmp_path, values):
    x = np.array(values, dtype=np.float64)
    path = tmp_path / "q.wav"
    write_wav(path, x)
    expected = np.clip(np.rint(np.clip(x, -1, 1) * 32768), -32768, 32767).astype("<i2")
    data = path.read_bytes()
    assert struct.unpack_from("<I", data, 40) == (expected.nbytes,)
    assert data[44:] == expected.tobytes()
    assert struct.unpack_from("<I", data, 4) == (len(data) - 8,)
