import math
import re
import shlex
import subprocess

import pytest

from df_arena.errors import ScorerError
from df_arena.scorer import run_external_scorer

from conftest import write_text


@pytest.fixture
def audio_list(tmp_path):
    return write_text(
        tmp_path / "list.txt",
        "/audio/clip_a.wav\n/audio/clip_b.wav\n/audio/clip_c.wav\n",
    )


def test_scorer_happy_path(echo_scorer, audio_list):
    ss = run_external_scorer(echo_scorer, audio_list)
    assert set(ss.scores) == {"clip_a", "clip_b", "clip_c"}
    assert all(0.0 <= v <= 1.0 for v in ss.scores.values())


def test_scorer_is_deterministic(echo_scorer, audio_list):
    a = run_external_scorer(echo_scorer, audio_list)
    b = run_external_scorer(echo_scorer, audio_list)
    assert a.scores == b.scores


def test_incomplete_output(echo_scorer, audio_list):
    with pytest.raises(ScorerError, match="missing: clip_c"):
        run_external_scorer(echo_scorer + ["--drop-last"], audio_list)


def test_nonzero_exit_carries_stderr(echo_scorer, audio_list):
    with pytest.raises(ScorerError, match="exited 1.*checkpoint"):
        run_external_scorer(echo_scorer + ["--exit", "1"], audio_list)


def test_malformed_line(echo_scorer, audio_list):
    with pytest.raises(ScorerError, match="path<TAB>score"):
        run_external_scorer(echo_scorer + ["--garbage"], audio_list)


def test_timeout(echo_scorer, audio_list):
    with pytest.raises(ScorerError, match="timed out"):
        run_external_scorer(echo_scorer + ["--sleep", "5"], audio_list, timeout=0.5)


@pytest.mark.parametrize("timeout", [3e6, math.nan])
def test_timeout_out_of_range_refused_before_the_scorer_starts(audio_list, timeout):
    # a command that cannot start shows the refusal comes first
    with pytest.raises(ScorerError, match=r"timeout must be in \(0, 2147483\] seconds"):
        run_external_scorer("definitely-not-a-scorer-binary", audio_list, timeout=timeout)


@pytest.mark.parametrize("score, rule", [("abc", "non-numeric"), ("1_0", "non-numeric"),
                                         ("\uff11\uff12", "non-numeric"), ("nan", "non-finite")])
def test_bad_score_names_its_output_line(echo_scorer, audio_list, score, rule):
    with pytest.raises(ScorerError, match=f"scorer output line 3: {rule} score '{score}'"):
        run_external_scorer(echo_scorer + ["--last-score", score], audio_list)


def _scorer_started(*args, **kwargs):
    raise AssertionError("the scorer was started")


@pytest.mark.parametrize("command, reason", [
    pytest.param("", r"scorer command '' is empty", id="empty-string"),
    pytest.param([], r"scorer command \[\] is empty", id="empty-list"),
    pytest.param("'", r"cannot parse scorer command \"'\": No closing quotation", id="unclosed-quote"),
    pytest.param("a\x00b", r"scorer command 'a\\x00b' holds a NUL byte", id="nul-in-string"),
    pytest.param(["python3", "x\x00"], r"scorer command \['python3', 'x\\x00'\] holds a NUL byte",
                 id="nul-in-argument"),
])
def test_empty_or_unparsable_command_fails_before_the_scorer_starts(monkeypatch, audio_list, command, reason):
    monkeypatch.setattr(subprocess, "run", _scorer_started)
    with pytest.raises(ScorerError, match=reason):
        run_external_scorer(command, audio_list)


@pytest.mark.parametrize("target", ["file", "directory"])
def test_command_that_cannot_be_executed(tmp_path, audio_list, target):
    path = write_text(tmp_path / "f.sh", "#!/bin/sh\n") if target == "file" else tmp_path  # no execute bit
    message = f"cannot start scorer {str(path)!r}: Permission denied"
    with pytest.raises(ScorerError, match=re.escape(message)):
        run_external_scorer(shlex.quote(str(path)), audio_list)


def test_stdout_that_is_not_utf8(echo_scorer, audio_list):
    message = f"scorer {echo_scorer[0]!r} wrote stdout that is not UTF-8"
    with pytest.raises(ScorerError, match=re.escape(message)):
        run_external_scorer(echo_scorer + ["--invalid-utf8", "stdout"], audio_list)


def test_stderr_that_is_not_utf8_keeps_the_exit_code_and_tail(echo_scorer, audio_list):
    message = re.escape(f"scorer {echo_scorer[0]!r} exited 3; stderr: \ufffd | ") + ".*checkpoint not found"
    with pytest.raises(ScorerError, match=message):
        run_external_scorer(echo_scorer + ["--invalid-utf8", "stderr", "--exit", "3"], audio_list)


@pytest.mark.parametrize("line_end", ["\r\n", "\r"])
def test_scorer_lines_may_end_in_carriage_returns(echo_scorer, audio_list, line_end):
    ss = run_external_scorer(echo_scorer + ["--line-end", line_end], audio_list)
    assert ss.scores == run_external_scorer(echo_scorer, audio_list).scores


def test_missing_command(audio_list):
    with pytest.raises(ScorerError, match="not found"):
        run_external_scorer("definitely-not-a-scorer-binary", audio_list)


def test_empty_audio_list(tmp_path, echo_scorer):
    empty = write_text(tmp_path / "empty.txt", "\n")
    with pytest.raises(ScorerError, match="empty"):
        run_external_scorer(echo_scorer, empty)


def test_duplicate_stems_in_list(tmp_path, echo_scorer):
    lst = write_text(tmp_path / "dups.txt", "/a/x.wav\n/b/x.wav\n")
    with pytest.raises(ScorerError, match="duplicate trial id"):
        run_external_scorer(echo_scorer, lst)


@pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
def test_duplicate_stem_names_its_line_counting_newlines_only(tmp_path, echo_scorer, char):
    lst = write_text(tmp_path / "dups.txt", f"/a/x.wav{char}\n/b/x.wav\n")
    with pytest.raises(ScorerError, match=r"dups\.txt: line 2: duplicate trial id 'x'"):
        run_external_scorer(echo_scorer, lst)


def test_path_with_a_splitlines_break_stays_one_path(tmp_path, echo_scorer):
    lst = write_text(tmp_path / "list.txt", "/audio/clip\x1ca.wav\n/audio/clip_b.wav\n")
    ss = run_external_scorer(echo_scorer, lst)
    assert set(ss.scores) == {"clip\x1ca", "clip_b"}
