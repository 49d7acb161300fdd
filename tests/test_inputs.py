"""Every input file is read by ``errors.read_input``: one wording for a file that
is missing, unreadable or not UTF-8, whatever kind of input it is."""

import json

import pytest

from df_arena.cli import main
from df_arena.errors import AudioError, ManifestError, ProtocolError, ScoreFileError, ScorerError, StatError
from df_arena.protocol import parse_protocol, parse_scores
from df_arena.scorer import run_external_scorer
from df_arena.spec import load_manifest
from df_arena.stats import load_matrix_csv
from df_arena.wavio import read_wav

from conftest import build_arena, build_interferer_dir, build_wav_corpus, fail_reads_of, write_text

PAST_A_CHUNK = 8192 + 100  # past the first 8 KiB, where a streaming decoder starts its second chunk


def _padded(line: str, tail: str) -> str:
    """``line`` repeated (numbered) until the text is PAST_A_CHUNK characters long, then ``tail``."""
    lines, size = [], 0
    while size < PAST_A_CHUNK:
        lines.append(line.format(len(lines)))
        size += len(lines[-1])
    return "".join(lines) + tail


# kind -> (error class, file text before the bad byte, text after it, reader)
TEXT_INPUTS = {
    "protocol": (ProtocolError, _padded("a{} bonafide\n", "b"), " spoof\n", parse_protocol),
    "scores": (ScoreFileError, _padded("a{} 0.5\n", "b"), " 0.5\n", parse_scores),
    "audio list": (ScorerError, _padded("a{}.wav\n", "b"), ".wav\n",
                   lambda path: run_external_scorer(["python3", "-c", "pass"], path)),
    "manifest": (ManifestError, '{"manifest_version": 1, "pad": "' + "x" * PAST_A_CHUNK, '"}',
                 load_manifest),
    "matrix csv": (StatError, "sys,d1\n" + _padded("s{},0.1\n", "b"), ",0.2\n", load_matrix_csv),
}


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("kind", TEXT_INPUTS)
def test_bad_utf8_names_its_file_offset(tmp_path, kind, bom):
    error_cls, head, tail, reader = TEXT_INPUTS[kind]
    path = tmp_path / "input.txt"
    data = bom + head.encode("utf-8") + b"\xff" + tail.encode("utf-8")
    path.write_bytes(data)
    offset = data.index(b"\xff")
    assert offset > 8192
    message = (f"{path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position {offset}: "
               "invalid start byte")
    with pytest.raises(error_cls) as exc:
        reader(path)
    assert (type(exc.value), str(exc.value)) == (error_cls, message)


def _inputs(tmp_path):
    """kind -> (the file that fails to read, error class, in-process reader, CLI argv)."""
    protocol = write_text(tmp_path / "p.txt", "a1 bonafide\na2 spoof\n")
    scores = write_text(tmp_path / "s.txt", "a1 0.9\na2 0.1\n")
    audio_list = write_text(tmp_path / "wavs.txt", "a1.wav\na2.wav\n")
    matrix = write_text(tmp_path / "m.csv", "sys,d1,d2\na,0.1,0.2\nb,0.2,0.3\nc,0.3,0.1\n")
    manifest = build_arena(tmp_path / "arena")
    corpus = build_wav_corpus(tmp_path / "in", n_files=1, seconds=0.05)
    wav = corpus / "utt000.wav"
    eval_argv = ["eval", "--protocol", str(protocol), "--scores", str(scores)]
    return {
        "protocol": (protocol, ProtocolError, parse_protocol, eval_argv),
        "scores": (scores, ScoreFileError, parse_scores, eval_argv),
        "audio list": (audio_list, ScorerError, lambda path: run_external_scorer(["python3", "-c", "pass"], path),
                       ["score", "--cmd", "python3 -c pass", "--list", str(audio_list)]),
        "manifest": (manifest, ManifestError, load_manifest, ["leaderboard", "--manifest", str(manifest)]),
        "matrix csv": (matrix, StatError, load_matrix_csv, ["correlate", "--matrix", str(matrix)]),
        "wav": (wav, AudioError, read_wav,
                ["augment", "--in", str(corpus), "--out", str(tmp_path / "out"), "--category", "noise",
                 "--source", str(build_interferer_dir(tmp_path / "src")), "--seed", "1"]),
    }


@pytest.mark.parametrize("kind", ["protocol", "scores", "audio list", "manifest", "matrix csv", "wav"])
def test_failed_read_is_the_kinds_error_naming_its_file(tmp_path, monkeypatch, capsys, kind):
    path, error_cls, reader, argv = _inputs(tmp_path)[kind]
    message = f"cannot read {path}: Input/output error"
    fail_reads_of(monkeypatch, path)
    with pytest.raises(error_cls) as exc:
        reader(path)
    assert (type(exc.value), str(exc.value)) == (error_cls, message)

    assert main(argv) == 1
    captured = capsys.readouterr()
    record = json.loads(captured.err)
    if kind == "wav":  # augment goes on past a file it cannot read, and reports it in its summary
        summary = json.loads(captured.out)
        assert summary["failures"] == [{"input": str(path), "reason": f"AudioError: {message}"}]
        assert record == {"error": "ArenaError", "message": "1 file(s) failed; see summary"}
    else:
        assert captured.out == ""
        assert record["error"] == error_cls.__name__
        assert message in record["message"]
