import json
import math
import os
import subprocess
import sys
import threading
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import df_arena.augment as augment
from df_arena.augment import (
    augment_corpus,
    file_seed,
    keep_freed_memory,
    mix_at_snr,
    reverberate,
)
from df_arena.errors import AudioError, AugmentError
from df_arena.spec import AugmentSpec
from df_arena.wavio import read_wav, rms, write_wav

from conftest import (
    build_interferer_dir,
    build_wav_corpus,
    dir_listing,
    fill_disk_after,
    make_noise,
    make_tone,
    run_with_file_size_limit,
    wav_bytes,
    write_float32_wav,
)
from oracles import rms_by_hand


class TestSpec:
    def test_category_defaults(self):
        spec = AugmentSpec("noise", "/tmp/src", seed=1)
        assert spec.snr_range_db == (0.0, 15.0)
        assert AugmentSpec("speech", "/tmp/src", seed=1).snr_range_db == (13.0, 20.0)
        assert AugmentSpec("music", "/tmp/src", seed=1).snr_range_db == (5.0, 15.0)

    def test_reverb_takes_no_snr(self):
        assert AugmentSpec("reverb", "/tmp/src", seed=1).snr_range_db is None
        with pytest.raises(AugmentError, match="additive"):
            AugmentSpec("reverb", "/tmp/src", seed=1, snr_range_db=(0, 15))

    def test_inverted_range_rejected(self):
        with pytest.raises(AugmentError, match="low 15.0 > high 0.0"):
            AugmentSpec("noise", "/tmp/src", seed=1, snr_range_db=(15, 0))

    def test_unknown_category(self):
        with pytest.raises(AugmentError, match="category"):
            AugmentSpec("codec", "/tmp/src", seed=1)

    @pytest.mark.parametrize("bounds", [(math.nan, math.nan), (0.0, math.inf), (-math.inf, 0.0),
                                        (1e308, 1e308), (-1e308, 0.0), (-1e308, 1e308)])
    def test_bound_without_finite_positive_amplitude_ratio_rejected(self, bounds):
        with pytest.raises(AugmentError, match="no finite positive amplitude ratio"):
            AugmentSpec("noise", "/tmp/src", seed=1, snr_range_db=bounds)


class TestMixAtSnr:
    def test_equal_rms_at_zero_db_doubles_signal(self):
        tone = make_tone(seconds=0.1, amplitude=0.2)
        mixed = mix_at_snr(tone, tone, 0.0)
        assert np.allclose(mixed, 2.0 * tone, atol=1e-12)

    def test_sixty_db_interferer_vanishes(self):
        clean = make_noise(seconds=0.1, amplitude=0.2, seed=1)
        tone = make_tone(seconds=0.1, amplitude=0.5)
        mixed = mix_at_snr(clean, tone, 60.0)
        peak = np.max(np.abs(clean))
        assert np.max(np.abs(mixed - clean)) < 1e-3 * peak

    def test_white_noise_pair_realizes_requested_snr(self):
        clean = make_noise(seconds=0.5, amplitude=0.05, seed=2)
        noise = make_noise(seconds=0.5, amplitude=0.08, seed=3)
        mixed = mix_at_snr(clean, noise, 10.0)
        residual = mixed - clean  # no clipping at these levels
        measured = 20.0 * math.log10(rms_by_hand(list(clean)) / rms_by_hand(list(residual)))
        assert measured == pytest.approx(10.0, abs=0.01)

    def test_short_interferer_loops_to_clean_length(self):
        clean = make_tone(seconds=0.5, amplitude=0.1)
        short = make_noise(seconds=0.05, amplitude=0.1, seed=4)
        assert len(mix_at_snr(clean, short, 5.0)) == len(clean)

    def test_long_interferer_crops_with_offset(self):
        clean = make_tone(seconds=0.1, amplitude=0.1)
        long = make_noise(seconds=1.0, amplitude=0.1, seed=5)
        a = mix_at_snr(clean, long, 5.0, offset=0)
        b = mix_at_snr(clean, long, 5.0, offset=1000)
        assert len(a) == len(b) == len(clean)
        assert not np.array_equal(a, b)

    def test_silent_clean_rejected(self):
        silent = np.zeros(100)
        noise = make_noise(seconds=0.01, seed=6)
        with pytest.raises(AugmentError, match="clean signal is silent"):
            mix_at_snr(silent, noise, 10.0)

    def test_silent_interferer_rejected(self):
        tone = make_tone(seconds=0.01)
        silent = np.zeros(100)
        with pytest.raises(AugmentError, match="interferer.*silent"):
            mix_at_snr(tone, silent, 10.0)

    def test_peak_normalize_caps_at_one(self):
        tone = make_tone(seconds=0.05, amplitude=0.9)
        mixed = mix_at_snr(tone, tone, 0.0, clip_policy="peak-normalize")
        assert np.max(np.abs(mixed)) == pytest.approx(1.0)

    def test_hard_clip_matches_ideal_mix_where_unclipped(self):
        tone = make_tone(seconds=0.05, amplitude=0.9)
        ideal = 2.0 * tone
        mixed = mix_at_snr(tone, tone, 0.0, clip_policy="hard-clip")
        inside = np.abs(ideal) <= 1.0
        assert np.allclose(mixed[inside], ideal[inside], atol=1e-12)
        assert np.max(np.abs(mixed)) <= 1.0

    @given(st.floats(0.25, 4.0))
    @settings(max_examples=20)
    def test_joint_scaling_scales_output_linearly(self, a):
        clean = make_noise(seconds=0.05, amplitude=0.02, seed=8)
        noise = make_noise(seconds=0.05, amplitude=0.03, seed=9)
        base = mix_at_snr(clean, noise, 6.0)
        scaled = mix_at_snr(
            a * clean, a * noise, 6.0
        )
        assert np.allclose(scaled, a * base, rtol=1e-10, atol=1e-12)


class TestReverberate:
    def test_unit_impulse_is_identity(self):
        tone = make_tone(seconds=0.2, amplitude=0.4)
        rir = np.array([1.0, 0.0, 0.0, 0.0])
        wet = reverberate(tone, rir)
        assert np.array_equal(wet, tone)

    def test_scaled_impulse_removed_by_normalization(self):
        tone = make_tone(seconds=0.2, amplitude=0.4)
        rir = np.array([0.5])
        wet = reverberate(tone, rir)
        assert np.array_equal(wet, tone)

    def test_length_contract_long_rir(self):
        clean = make_tone(seconds=3.0, amplitude=0.3)
        rir = make_noise(seconds=0.5, amplitude=0.2, seed=10)
        wet = reverberate(clean, rir)
        assert len(wet) == 48000

    def test_output_rms_matches_input(self):
        clean = make_tone(seconds=1.0, amplitude=0.3)
        rir = make_noise(seconds=0.3, amplitude=0.5, seed=11)
        wet = reverberate(clean, rir)
        assert rms(wet) == pytest.approx(rms(clean), rel=1e-9)

    def test_silent_rir_rejected(self):
        clean = make_tone(seconds=0.1)
        with pytest.raises(AugmentError, match="RIR is silent"):
            reverberate(clean, np.zeros(64))

    def test_fft_path_agrees_with_direct(self):
        clean = make_noise(seconds=0.3, amplitude=0.2, seed=12)
        taps = make_noise(seconds=0.1, amplitude=0.3, seed=13)  # 1600 taps, FFT path
        direct = np.convolve(clean, taps)[: len(clean)]
        direct *= rms(clean) / rms(direct)
        wet = reverberate(clean, taps)
        assert np.allclose(wet, direct, atol=1e-9)

    @pytest.mark.parametrize("taps", [257, 1600])  # 257: the shortest FFT path
    @pytest.mark.parametrize("length", ["short", "one block", "k blocks", "k blocks + 1"])
    def test_overlap_add_agrees_with_direct_at_block_edges(self, taps, length):
        block = augment._fft_size(4 * taps) - taps + 1
        n = {"short": 100, "one block": block, "k blocks": 3 * block, "k blocks + 1": 3 * block + 1}[length]
        rng = np.random.default_rng(taps + n)
        clean = 0.2 * rng.standard_normal(n)
        h = 0.3 * rng.standard_normal(taps)
        direct = np.convolve(clean, h)[:n]
        direct *= rms(clean) / rms(direct)
        wet = reverberate(clean, h)
        assert wet.shape == (n,)
        assert np.allclose(wet, direct, atol=1e-9)

    @pytest.mark.parametrize("taps", [257, 1600])
    @pytest.mark.parametrize("length", ["short", "one block", "k blocks", "k blocks + 1"])
    def test_overlap_add_equals_zero_padded_blocks_to_the_bit(self, taps, length):
        # the blocks are built at the FFT width; rfft of step-wide blocks padded to
        # that width is the same transform, so the outputs agree exactly
        size = augment._fft_size(4 * taps)
        step = size - taps + 1
        n = {"short": 100, "one block": step, "k blocks": 3 * step, "k blocks + 1": 3 * step + 1}[length]
        rng = np.random.default_rng(taps + n)
        x = 0.2 * rng.standard_normal(n)
        h = 0.3 * rng.standard_normal(taps)
        blocks = np.zeros((-(-n // step), step))
        blocks.reshape(-1)[:n] = x
        wet = np.fft.irfft(np.fft.rfft(blocks, size, axis=1) * np.fft.rfft(h, size), size, axis=1)
        wet[1:, : taps - 1] += wet[:-1, step:]
        x_before = x.copy()
        assert np.array_equal(augment._convolve(x, h), wet[:, :step].reshape(-1)[:n])
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("taps", [64, 900])  # the direct and the FFT path
    def test_silent_clean_gives_silence_of_the_clean_length(self, taps):
        rir = 0.3 * np.random.default_rng(14).standard_normal(taps)
        wet = reverberate(np.zeros(3000), rir)
        assert np.array_equal(wet, np.zeros(3000))


class TestFileSeed:
    def test_stable_and_distinct(self):
        assert file_seed(1, "utt1") == file_seed(1, "utt1")
        assert file_seed(1, "utt1") != file_seed(2, "utt1")
        assert file_seed(1, "utt1") != file_seed(1, "utt2")

    def test_64_bit_range(self):
        s = file_seed(123456789, "some-long-trial-id")
        assert 0 <= s < 2**64


class TestAugmentCorpus:
    def test_summary_and_manifest(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=3)
        src = build_interferer_dir(tmp_path / "musan_noise")
        spec = AugmentSpec("noise", src, seed=11)
        summary = augment_corpus(in_dir, tmp_path / "out", spec)
        assert len(summary.entries) == 3
        assert not summary.failures
        for entry in summary.entries:
            assert 0.0 <= entry.snr_db <= 15.0
            assert entry.realized_snr_db == pytest.approx(entry.snr_db, abs=0.01)
        manifest_lines = (tmp_path / "out" / "augment_manifest.jsonl").read_text().splitlines()
        assert len(manifest_lines) == 3
        doc = json.loads(manifest_lines[0])
        assert {"input_path", "output_path", "source_file", "snr_db", "loop_offset", "file_seed"} <= set(doc)

    def test_outputs_are_deterministic_across_job_counts(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=4)
        src = build_interferer_dir(tmp_path / "src")
        spec = AugmentSpec("music", src, seed=99)
        augment_corpus(in_dir, tmp_path / "out1", spec, jobs=1)
        augment_corpus(in_dir, tmp_path / "out8", spec, jobs=8)
        names = sorted(p.name for p in (tmp_path / "out1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "out8").iterdir())
        for name in names:
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out8" / name).read_bytes()
            if name == "augment_manifest.jsonl":
                a = a.replace(b"out1", b"outX")
                b = b.replace(b"out8", b"outX")
            assert a == b, name

    def test_pool_never_outnumbers_the_input_files(self, tmp_path, monkeypatch):
        workers = []
        real_pool = augment.ThreadPoolExecutor

        def spy(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers=min(max_workers, 2))

        monkeypatch.setattr(augment, "ThreadPoolExecutor", spy)
        in_dir = build_wav_corpus(tmp_path / "in", n_files=3)
        spec = AugmentSpec("noise", build_interferer_dir(tmp_path / "src"), seed=5)
        summary = augment_corpus(in_dir, tmp_path / "out", spec, jobs=64)
        assert workers == [3]
        assert len(summary.entries) == 3

    def test_different_seeds_differ(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=1)
        src = build_interferer_dir(tmp_path / "src")
        augment_corpus(in_dir, tmp_path / "o1", AugmentSpec("noise", src, seed=1))
        augment_corpus(in_dir, tmp_path / "o2", AugmentSpec("noise", src, seed=2))
        assert (tmp_path / "o1" / "utt000.wav").read_bytes() != (
            tmp_path / "o2" / "utt000.wav"
        ).read_bytes()

    def test_empty_source_dir_fails_before_touching_files(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=1)
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AugmentError, match="no WAV files"):
            augment_corpus(in_dir, tmp_path / "out", AugmentSpec("noise", empty, seed=1))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", [".", "sub/out"])
    def test_out_inside_source_fails_before_writing(self, tmp_path, out):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=1)
        src = build_interferer_dir(tmp_path / "src")
        before = sorted(src.rglob("*"))
        with pytest.raises(AugmentError, match="inside the source directory"):
            augment_corpus(in_dir, src / out, AugmentSpec("noise", src, seed=1))
        assert sorted(src.rglob("*")) == before

    def test_unwritable_manifest_is_augment_error(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=1)
        src = build_interferer_dir(tmp_path / "src")
        (tmp_path / "out" / "augment_manifest.jsonl").mkdir(parents=True)
        with pytest.raises(AugmentError, match="cannot write .*augment_manifest.jsonl"):
            augment_corpus(in_dir, tmp_path / "out", AugmentSpec("noise", src, seed=1))

    def test_full_disk_at_any_byte_of_the_manifest_is_augment_error(self, tmp_path, monkeypatch):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=1, seconds=0.01)
        spec = AugmentSpec("noise", build_interferer_dir(tmp_path / "src"), seed=1)
        out = tmp_path / "out"
        augment_corpus(in_dir, out, spec)
        manifest = out / augment.MANIFEST_NAME
        expected = manifest.read_bytes()
        for room in range(len(expected)):
            manifest.write_bytes(b"earlier run\n")
            fill_disk_after(monkeypatch, room, name=augment.MANIFEST_NAME)
            with pytest.raises(AugmentError) as exc:
                augment_corpus(in_dir, out, spec)
            assert (type(exc.value), str(exc.value)) == (
                AugmentError, f"cannot write {manifest}: No space left on device")
            assert manifest.read_bytes() == b"earlier run\n"
            assert dir_listing(out) == [augment.MANIFEST_NAME, "utt000.wav"]
        opened = fill_disk_after(monkeypatch, len(expected), name=augment.MANIFEST_NAME)
        augment_corpus(in_dir, out, spec)
        [disk] = opened
        assert disk.stored == expected
        assert manifest.read_bytes() == expected
        assert dir_listing(out) == [augment.MANIFEST_NAME, "utt000.wav"]

    def test_file_size_limit_on_the_manifest_is_one_error_record(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=3, seconds=0.01)  # 364-byte outputs
        src = build_interferer_dir(tmp_path / "src")
        out = tmp_path / "out"
        out.mkdir()
        (out / augment.MANIFEST_NAME).write_bytes(b"earlier run\n")
        proc = run_with_file_size_limit(["-m", "df_arena.cli", "augment", "--in", str(in_dir), "--out", str(out),
                                         "--category", "noise", "--source", str(src), "--seed", "1"], limit=400)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {"error": "AugmentError",
                                           "message": f"cannot write {out / augment.MANIFEST_NAME}: File too large"}
        assert (out / augment.MANIFEST_NAME).read_bytes() == b"earlier run\n"
        assert dir_listing(out) == [augment.MANIFEST_NAME, "utt000.wav", "utt001.wav", "utt002.wav"]

    def test_directory_at_an_output_name_fails_only_that_file(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=3)
        src = build_interferer_dir(tmp_path / "src")
        blocked = tmp_path / "out" / "utt001.wav"
        blocked.mkdir(parents=True)
        summary = augment_corpus(in_dir, tmp_path / "out", AugmentSpec("noise", src, seed=1))
        assert [Path(e.input_path).name for e in summary.entries] == ["utt000.wav", "utt002.wav"]
        [(failed, reason)] = summary.failures
        assert failed == str(in_dir / "utt001.wav")
        assert reason.startswith(f"AudioError: cannot write {blocked}: ")
        assert blocked.is_dir()

    def test_reverb_category(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=2, seconds=0.5)
        rir_dir = tmp_path / "rirs"
        rir_dir.mkdir()
        write_wav(rir_dir / "room0.wav", make_noise(seconds=0.05, amplitude=0.4, seed=21))
        spec = AugmentSpec("reverb", rir_dir, seed=5)
        summary = augment_corpus(in_dir, tmp_path / "out", spec)
        assert len(summary.entries) == 2
        assert all(e.rir_id == "room0.wav" for e in summary.entries)
        for e in summary.entries:
            wet = read_wav(e.output_path)
            assert len(wet) == len(read_wav(e.input_path))

    def test_per_file_failure_collected_run_continues(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=2)
        (in_dir / "broken.wav").write_bytes(b"RIFF not really audio")
        src = build_interferer_dir(tmp_path / "src")
        summary = augment_corpus(in_dir, tmp_path / "out", AugmentSpec("noise", src, seed=3))
        assert len(summary.entries) == 2
        assert len(summary.failures) == 1
        assert "broken.wav" in summary.failures[0][0]

    @pytest.mark.parametrize("snr_db", [6000.0, -6000.0])
    def test_snr_past_float64_range_fails_each_file(self, tmp_path, snr_db):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=3, seconds=0.3)
        src = build_interferer_dir(tmp_path / "src")
        spec = AugmentSpec("noise", src, seed=1, snr_range_db=(snr_db, snr_db))
        summary = augment_corpus(in_dir, tmp_path / "out", spec)
        assert summary.entries == ()
        reason = f"AugmentError: SNR {snr_db} dB scales the interferer out of float64 range"
        assert [r for _, r in summary.failures] == [reason] * 3

    def test_length_preserved_every_category(self, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=2, seconds=0.7)
        src = build_interferer_dir(tmp_path / "src", seconds=0.2)
        for category in ("noise", "music", "speech", "reverb"):
            spec = AugmentSpec(category, src, seed=17)
            out = tmp_path / f"out_{category}"
            summary = augment_corpus(in_dir, out, spec)
            assert not summary.failures
            for e in summary.entries:
                assert len(read_wav(e.output_path)) == len(read_wav(e.input_path))


def _write_source(path, samples, stored):
    path.parent.mkdir(parents=True, exist_ok=True)
    if stored == "float32":
        write_float32_wav(path, samples)
    else:
        write_wav(path, samples)


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.suffix == ".wav"}


def _counting_decodes(monkeypatch):
    """Patch ``augment.decode_wav`` to count the decodes of each source by file name."""
    decode_wav = augment.decode_wav
    decoded = Counter()
    lock = threading.Lock()

    def counting_decode(path):
        with lock:
            decoded[path.name] += 1
        return decode_wav(path)

    monkeypatch.setattr(augment, "decode_wav", counting_decode)
    return decoded


def _counting_rir_transforms(monkeypatch, tap_counts):
    """Patch ``np.fft.rfft`` to count, by length, the transforms of 1-D arrays
    whose length is one of tap_counts (the RIRs, not the utterance blocks)."""
    rfft = np.fft.rfft
    transforms = Counter()
    lock = threading.Lock()

    def counting_rfft(a, n=None, *args, **kwargs):
        if np.ndim(a) == 1 and len(a) in tap_counts:
            with lock:
                transforms[len(a)] += 1
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    return transforms


def _live_arrays_at_each_decode(monkeypatch):
    """Patch ``augment.decode_wav`` to record, as each decode starts, how
    many of the arrays that earlier decodes returned are still alive."""
    decode_wav = augment.decode_wav
    refs, alive = [], []
    lock = threading.Lock()

    def watching_decode(path):
        with lock:
            alive.append(sum(ref() is not None for ref in refs))
        samples, scale = decode_wav(path)
        with lock:
            refs.append(weakref.ref(samples))
        return samples, scale

    monkeypatch.setattr(augment, "decode_wav", watching_decode)
    return alive


def _inputs_drawing(spec, inputs, index, n_sources):
    """The inputs whose first draw, the source index, is ``index``."""
    return {
        str(p)
        for p in inputs
        if np.random.default_rng(file_seed(spec.seed, p.stem)).integers(0, n_sources) == index
    }


class TestDecodeOnceEquivalence:
    """Outputs equal the public full-decode path, recomputed from the manifest."""

    @pytest.mark.parametrize("stored", ["pcm16", "float32"])
    @pytest.mark.parametrize("policy", ["peak-normalize", "hard-clip"])
    @pytest.mark.parametrize("category", ["noise", "music", "speech"])
    def test_additive_outputs_equal_full_decode_mix(self, tmp_path, category, policy, stored):
        # 0.25 s utterances loud enough to clip at low SNR; one source longer
        # than an utterance (crop), one exactly as long, one shorter (loop).
        in_dir = build_wav_corpus(tmp_path / "in", n_files=10, seconds=0.25, amplitude=0.8)
        src = tmp_path / "src"
        for name, seconds, seed in (("crop", 0.6, 31), ("equal", 0.25, 32), ("loop", 0.05, 33)):
            _write_source(src / "sub" / f"{name}.wav", make_noise(seconds, 0.3, seed), stored)
        spec = AugmentSpec(category, src, seed=5, clip_policy=policy)
        for jobs in (1, 4):
            out = tmp_path / f"out{jobs}"
            summary = augment_corpus(in_dir, out, spec, jobs=jobs)
            assert not summary.failures and len(summary.entries) == 10
            for e in summary.entries:
                expected = tmp_path / "expected.wav"
                write_wav(
                    expected,
                    mix_at_snr(
                        read_wav(e.input_path),
                        read_wav(src / e.source_file),
                        e.snr_db,
                        policy,
                        offset=e.loop_offset,
                    ),
                )
                assert (out / Path(e.output_path).name).read_bytes() == expected.read_bytes()
        drawn = {e.source_file for e in summary.entries}
        assert drawn == {"sub/crop.wav", "sub/equal.wav", "sub/loop.wav"}
        assert any(e.scale != 1.0 for e in summary.entries) == (policy == "peak-normalize")
        assert _outputs(tmp_path / "out1") == _outputs(tmp_path / "out4")

    @pytest.mark.parametrize("stored", ["pcm16", "float32"])
    @pytest.mark.parametrize("policy", ["peak-normalize", "hard-clip"])
    def test_reverb_outputs_equal_full_decode_reverberate(self, tmp_path, policy, stored):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=6, seconds=0.25, amplitude=0.9)
        src = tmp_path / "rirs"
        _write_source(src / "long.wav", make_noise(0.05, 0.4, 41), stored)  # FFT path
        _write_source(src / "short.wav", make_noise(0.01, 0.4, 42), stored)  # direct path
        spec = AugmentSpec("reverb", src, seed=8, clip_policy=policy)
        for jobs in (1, 4):
            out = tmp_path / f"out{jobs}"
            summary = augment_corpus(in_dir, out, spec, jobs=jobs)
            assert not summary.failures and len(summary.entries) == 6
            for e in summary.entries:
                wet = reverberate(read_wav(e.input_path), read_wav(src / e.rir_id))
                peak = float(np.max(np.abs(wet)))
                if policy == "peak-normalize" and peak > 1.0:
                    assert e.scale == 1.0 / peak
                else:
                    assert e.scale == 1.0
                expected = tmp_path / "expected.wav"
                write_wav(expected, wet * e.scale)  # write_wav clamps hard-clip
                assert (out / Path(e.output_path).name).read_bytes() == expected.read_bytes()
        assert {e.rir_id for e in summary.entries} == {"long.wav", "short.wav"}
        assert _outputs(tmp_path / "out1") == _outputs(tmp_path / "out4")


class TestSourceFailures:
    """A bad source fails exactly the files that draw it, each decoded once."""

    @pytest.mark.parametrize("category", ["noise", "reverb"])
    @pytest.mark.parametrize("defect", ["truncated chunk", "float32 NaN"])
    def test_bad_source_fails_only_its_draws(self, tmp_path, monkeypatch, category, defect):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=12, seconds=0.25)
        src = tmp_path / "src"
        src.mkdir()
        write_wav(src / "a_good.wav", make_noise(0.1, 0.2, 51))
        bad = src / "b_bad.wav"
        if defect == "truncated chunk":
            bad.write_bytes(wav_bytes(b"\x01\x00" * 800)[:-100])
        else:
            nan_payload = np.array([0.1, np.nan, 0.2], dtype="<f4").tobytes()
            bad.write_bytes(wav_bytes(nan_payload, fmt=3, bits=32))
        with pytest.raises(AudioError) as info:
            read_wav(bad)
        reason = f"AudioError: {info.value}"
        assert str(bad) in reason

        # Which files draw the bad source follows from the first draw alone.
        spec = AugmentSpec(category, src, seed=21)
        inputs = sorted(in_dir.iterdir())
        draws_bad = _inputs_drawing(spec, inputs, 1, 2)
        assert 0 < len(draws_bad) < len(inputs)

        for jobs in (1, 4):
            decoded = _counting_decodes(monkeypatch)
            summary = augment_corpus(in_dir, tmp_path / f"out{jobs}", spec, jobs=jobs)
            assert decoded == {"a_good.wav": 1, "b_bad.wav": 1}
            assert dict(summary.failures) == {p: reason for p in draws_bad}
            assert {e.input_path for e in summary.entries} == {str(p) for p in inputs} - draws_bad
        assert _outputs(tmp_path / "out1") == _outputs(tmp_path / "out4")
        assert len(_outputs(tmp_path / "out1")) == len(inputs) - len(draws_bad)

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("category", ["noise", "reverb"])
    def test_corrupt_input_drawing_a_bad_source_fails_with_its_own_error(
        self, tmp_path, category, jobs
    ):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=12, seconds=0.25)
        src = tmp_path / "src"
        src.mkdir()
        write_wav(src / "a_good.wav", make_noise(0.1, 0.2, 51))
        bad = src / "b_bad.wav"
        bad.write_bytes(wav_bytes(b"\x01\x00" * 800)[:-100])
        spec = AugmentSpec(category, src, seed=21)
        inputs = sorted(in_dir.iterdir())
        draws_bad = sorted(_inputs_drawing(spec, inputs, 1, 2))
        assert len(draws_bad) > 1
        corrupt = Path(draws_bad[0])
        corrupt.write_bytes(wav_bytes(b"\x01\x00" * 800)[:-100])
        reasons = {}
        for path in (corrupt, bad):
            with pytest.raises(AudioError) as info:
                read_wav(path)
            reasons[path] = f"AudioError: {info.value}"

        # The file reads its own input before it meets its source's error.
        summary = augment_corpus(in_dir, tmp_path / "out", spec, jobs=jobs)
        assert dict(summary.failures) == {
            **dict.fromkeys(draws_bad, reasons[bad]),
            str(corrupt): reasons[corrupt],
        }
        assert len(summary.entries) == len(inputs) - len(draws_bad)


class TestSourceGroups:
    """Files are run in groups by the source they draw: each source is
    decoded (and a long RIR transformed) once, and a run holds few at a time."""

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("category", ["noise", "reverb"])
    def test_each_source_is_decoded_once_and_few_are_held(self, tmp_path, monkeypatch, category, jobs):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=48, seconds=0.1)
        src = tmp_path / "src"
        src.mkdir()
        tap_counts = set(range(800, 812))  # over 256 taps: a reverb run transforms each
        for taps in tap_counts:
            write_wav(src / f"s{taps}.wav", make_noise(taps / 16000, 0.2, taps))
        bad = src / "t_bad.wav"
        bad.write_bytes(wav_bytes(b"\x01\x00" * 800)[:-100])
        with pytest.raises(AudioError) as info:
            read_wav(bad)
        reason = f"AudioError: {info.value}"
        spec = AugmentSpec(category, src, seed=1)
        reference = augment_corpus(in_dir, tmp_path / "ref", spec, jobs=1)

        decoded = _counting_decodes(monkeypatch)
        alive = _live_arrays_at_each_decode(monkeypatch)
        transforms = _counting_rir_transforms(monkeypatch, tap_counts)
        with _fast_thread_switches():
            summary = augment_corpus(in_dir, tmp_path / "out", spec, jobs=jobs)

        assert _outputs(tmp_path / "out") == _outputs(tmp_path / "ref")
        moved = [replace(e, output_path=str(tmp_path / "out" / Path(e.output_path).name))
                 for e in reference.entries]
        assert list(summary.entries) == moved
        assert summary.failures == reference.failures
        drawn = Counter(e.source_file for e in summary.entries)
        assert drawn.keys() == {f"s{taps}.wav" for taps in tap_counts} and min(drawn.values()) > 1
        assert len(summary.failures) > 1 and set(dict(summary.failures).values()) == {reason}
        assert decoded == dict.fromkeys([*drawn, bad.name], 1)
        assert transforms == (dict.fromkeys(tap_counts, 1) if category == "reverb" else {})
        # as each source is decoded, at most the two groups before it still hold theirs
        assert len(alive) == 13 and max(alive) <= 2

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("category", ["noise", "reverb"])
    def test_only_drawn_sources_are_decoded_in_groups_of_one(self, tmp_path, monkeypatch, category, jobs):
        # Far more sources than files: most groups hold one file, and most
        # sources are drawn by none.
        in_dir = build_wav_corpus(tmp_path / "in", n_files=10, seconds=0.1)
        src = tmp_path / "src"
        src.mkdir()
        for j in range(40):
            write_wav(src / f"s{j:02d}.wav", make_noise(0.05, 0.2, 200 + j))
        spec = AugmentSpec(category, src, seed=3)
        reference = augment_corpus(in_dir, tmp_path / "ref", spec, jobs=1)

        decoded = _counting_decodes(monkeypatch)
        alive = _live_arrays_at_each_decode(monkeypatch)
        with _fast_thread_switches():
            summary = augment_corpus(in_dir, tmp_path / "out", spec, jobs=jobs)

        assert not summary.failures and len(summary.entries) == 10
        assert _outputs(tmp_path / "out") == _outputs(tmp_path / "ref")
        assert [e.source_file for e in summary.entries] == [e.source_file for e in reference.entries]
        drawn = Counter(e.source_file for e in summary.entries)
        assert len(drawn) < 10 and list(drawn.values()).count(1) > 1
        assert decoded == dict.fromkeys(drawn, 1)
        assert len(alive) == len(drawn) and max(alive) <= 2


def _write_utterances(directory, lengths, amplitude=0.1, seed=70):
    """Noise utterances of the given sample counts."""
    directory.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    for i, n in enumerate(lengths):
        write_wav(directory / f"utt{i:03d}.wav", amplitude * rng.standard_normal(n))
    return directory


def _write_rirs(directory, tap_counts, seed=80):
    directory.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    for n in tap_counts:
        write_wav(directory / f"r{n}.wav", 0.3 * rng.standard_normal(n))
    return directory


def _pcm16(path):
    return np.rint(read_wav(path) * 32768).astype(np.int64)


def _power_of_two_convolve(x, h):
    """Full linear convolution through an FFT at the next power of two."""
    n_out = x.size + h.size - 1
    size = 1 << (n_out - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)[:n_out]


@contextmanager
def _fast_thread_switches():
    """Switch threads every microsecond, so that a race on shared state shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestRirSpectra:
    """Reverb FFTs run at a 5-smooth size set by the RIR alone, and a run
    transforms each RIR once, whatever its utterances' lengths."""

    @given(st.integers(1, 5000) | st.integers(1, 1 << 40))
    @settings(max_examples=300)
    def test_fft_size_is_the_smallest_5_smooth_size_that_holds_n(self, n):
        size = augment._fft_size(n)
        assert n <= size <= 1 << (n - 1).bit_length()
        assert _is_5_smooth(size)
        if n <= 5000:
            assert not any(_is_5_smooth(m) for m in range(n, size))

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("lengths", [[4000] * 12, [3841, 4000, 5000] * 6], ids=["fixed", "mixed"])
    def test_each_rir_is_transformed_once_per_run(self, tmp_path, monkeypatch, jobs, lengths):
        in_dir = _write_utterances(tmp_path / "in", lengths)
        tap_counts = {257, 800, 1200}
        src = _write_rirs(tmp_path / "rirs", tap_counts)
        transforms = _counting_rir_transforms(monkeypatch, tap_counts)
        with _fast_thread_switches():
            summary = augment_corpus(in_dir, tmp_path / "out", AugmentSpec("reverb", src, seed=3), jobs=jobs)

        assert not summary.failures and len(summary.entries) == len(lengths)
        drawn = Counter(len(read_wav(src / e.rir_id)) for e in summary.entries)
        assert drawn.keys() == tap_counts and min(drawn.values()) > 1
        assert transforms == Counter(dict.fromkeys(tap_counts, 1))

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_silent_rir_fails_every_file_that_draws_it(self, tmp_path, monkeypatch, jobs):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=12, seconds=0.25)
        src = tmp_path / "rirs"
        src.mkdir()
        write_wav(src / "a_room.wav", make_noise(0.05, 0.4, 43))  # 800 taps
        write_wav(src / "b_silent.wav", np.zeros(900))
        spec = AugmentSpec("reverb", src, seed=21)
        inputs = sorted(in_dir.iterdir())
        draws_silent = _inputs_drawing(spec, inputs, 1, 2)
        assert 0 < len(draws_silent) < len(inputs)

        decoded = _counting_decodes(monkeypatch)
        transforms = _counting_rir_transforms(monkeypatch, {800, 900})
        summary = augment_corpus(in_dir, tmp_path / "out", spec, jobs=jobs)
        reason = "AugmentError: RIR is silent (zero RMS)"
        assert dict(summary.failures) == dict.fromkeys(draws_silent, reason)
        assert {e.input_path for e in summary.entries} == {str(p) for p in inputs} - draws_silent
        assert decoded == {"a_room.wav": 1, "b_silent.wav": 1}
        assert len(summary.entries) > 2 and transforms == Counter({800: 1})

    def test_outputs_within_one_lsb_of_direct_and_power_of_two_convolution(self, tmp_path):
        # 3841 + 257 - 1 = 4097 output samples: FFT size 4320, where the
        # next power of two is 8192; 256 taps convolve directly
        assert augment._fft_size(4097) == 4320
        in_dir = _write_utterances(tmp_path / "in", [3841, 4000] * 6)
        src = _write_rirs(tmp_path / "rirs", [256, 257])
        summary = augment_corpus(in_dir, tmp_path / "out", AugmentSpec("reverb", src, seed=4))
        assert not summary.failures
        assert {e.rir_id for e in summary.entries} == {"r256.wav", "r257.wav"}
        assert {(e.rir_id, len(read_wav(e.input_path))) for e in summary.entries} >= {("r257.wav", 3841)}
        expected = tmp_path / "expected.wav"
        for e in summary.entries:
            clean = read_wav(e.input_path)
            taps = read_wav(src / e.rir_id)
            assert e.scale == 1.0
            got = _pcm16(e.output_path)
            for full in (np.convolve(clean, taps), _power_of_two_convolve(clean, taps)):
                wet = full[: clean.size]
                write_wav(expected, wet * (rms(clean) / rms(wet)))
                assert np.max(np.abs(got - _pcm16(expected))) <= 1, e.input_path


class TestKeepFreedMemory:
    @staticmethod
    def _fake_libc(monkeypatch, libc):
        """Have ctypes.CDLL return libc; returns the names it was asked to open."""
        import ctypes

        opened = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or libc)
        return opened

    def test_raises_both_thresholds_on_glibc(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
        opened = self._fake_libc(monkeypatch, SimpleNamespace(mallopt=lambda *args: calls.append(args) or 1))
        keep_freed_memory()
        assert opened == [None]  # the process's own symbols, no library search
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD

    @pytest.mark.parametrize("outcome", [ValueError("unrecognized configuration name"),
                                         OSError(22, "Invalid argument"), None, ""])
    def test_no_op_off_glibc(self, monkeypatch, outcome):
        def confstr(name):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(os, "confstr", confstr, raising=False)
        opened = self._fake_libc(monkeypatch, SimpleNamespace())
        keep_freed_memory()
        assert opened == []

    def test_no_op_when_mallopt_is_missing(self, monkeypatch):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
        opened = self._fake_libc(monkeypatch, SimpleNamespace())
        keep_freed_memory()
        assert opened == [None]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cli_writes_the_bytes_augment_corpus_writes(self, tmp_path, jobs):
        # the CLI raises the thresholds in its own process; the library call leaves them
        in_dir = _write_utterances(tmp_path / "in", [3000, 4000, 9001, 16000, 24000])
        src = _write_rirs(tmp_path / "rirs", [1000])
        summary = augment_corpus(in_dir, tmp_path / "lib", AugmentSpec("reverb", src, seed=6), jobs=jobs)
        assert not summary.failures
        proc = subprocess.run(
            [sys.executable, "-m", "df_arena.cli", "augment", "--in", str(in_dir),
             "--out", str(tmp_path / "cli"), "--category", "reverb", "--source", str(src),
             "--seed", "6", "--jobs", str(jobs)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["files_processed"] == 5
        assert _outputs(tmp_path / "cli") == _outputs(tmp_path / "lib")
        manifests = [(tmp_path / out / augment.MANIFEST_NAME).read_text().replace(str(tmp_path / out), "OUT")
                     for out in ("cli", "lib")]
        assert manifests[0] == manifests[1]
