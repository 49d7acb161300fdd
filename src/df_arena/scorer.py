"""The external scorer adapter: score audio files through a subprocess."""

from __future__ import annotations

import shlex
import subprocess
from pathlib import Path

from .errors import ScorerError, decode_input, read_input
from .protocol import ScoreSet, _content_lines, _score_fields, _split_lines
from .spec import MAX_SCORER_TIMEOUT_S, _preview


def run_external_scorer(
    command: str | list[str],
    audio_list: str | Path,
    timeout: float | None = None,
) -> ScoreSet:
    """Score audio files through a subprocess.

    The scorer reads newline-separated audio paths on stdin and must emit one
    ``path<TAB>score`` line per input path on stdout, exiting 0; both are
    UTF-8. Trial IDs are the basename without extension, so the adapter stays
    agnostic to the on-disk layout. ``timeout`` must lie in (0, MAX_SCORER_TIMEOUT_S] seconds.
    """
    if timeout is not None and not 0 < timeout <= MAX_SCORER_TIMEOUT_S:
        raise ScorerError(f"timeout must be in (0, {MAX_SCORER_TIMEOUT_S}] seconds, got {timeout}")
    try:
        argv = shlex.split(command) if isinstance(command, str) else list(command)
    except ValueError as e:
        raise ScorerError(f"cannot parse scorer command {command!r}: {e}") from None
    if not argv:
        raise ScorerError(f"scorer command {command!r} is empty")
    if any("\0" in arg for arg in argv):
        raise ScorerError(f"scorer command {command!r} holds a NUL byte")
    audio_list = Path(audio_list)
    text = decode_input(read_input(audio_list, ScorerError), audio_list, ScorerError)
    lines = list(_content_lines(text))
    if not lines:
        raise ScorerError(f"audio list {audio_list} is empty")
    expected = {}
    for lineno, p in lines:
        stem = Path(p).stem
        if stem in expected:
            raise ScorerError(
                f"audio list {audio_list}: line {lineno}: duplicate trial id {stem!r} (from {p!r})"
            )
        expected[stem] = p
    paths = list(expected.values())

    stdin = ("\n".join(paths) + "\n").encode("utf-8")
    try:
        proc = subprocess.run(argv, input=stdin, capture_output=True, timeout=timeout)
    except FileNotFoundError:
        raise ScorerError(f"scorer command not found: {argv[0]!r}") from None
    except subprocess.TimeoutExpired:
        raise ScorerError(f"scorer timed out after {timeout}s: {argv[0]!r}") from None
    except OSError as e:
        raise ScorerError(f"cannot start scorer {argv[0]!r}: {e.strerror or e}") from None
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise ScorerError(f"scorer {argv[0]!r} exited {proc.returncode}; stderr: "
                          + (" | ".join(tail) if tail else "<empty>"))
    try:
        stdout = proc.stdout.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ScorerError(f"scorer {argv[0]!r} wrote stdout that is not UTF-8: {e}") from None

    scores: dict[str, float] = {}
    for lineno, line in enumerate(_split_lines(stdout), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ScorerError(f"scorer output line {lineno}: expected 'path<TAB>score', got {line!r}")
        try:
            path, value = _score_fields(parts)
        except ValueError as e:
            raise ScorerError(f"scorer output line {lineno}: {e}") from None
        stem = Path(path).stem
        if stem not in expected:
            raise ScorerError(f"scorer output line {lineno}: unknown path {path!r}")
        if stem in scores:
            raise ScorerError(f"scorer output line {lineno}: duplicate path {path!r}")
        scores[stem] = value

    missing = set(expected) - set(scores)
    if missing:
        raise ScorerError(f"scorer output incomplete; missing: {_preview(missing)}")
    return ScoreSet(scores)
