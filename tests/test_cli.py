import contextlib
import errno
import functools
import io
import json
import os
import shlex
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from df_arena import __version__
from df_arena.cli import main
from df_arena.errors import ArenaError

from df_arena.store import store_append

from conftest import OPEN_SOURCE_SYSTEMS, build_arena, golden_record, protocol_text, scores_text, write_text
from conftest import build_interferer_dir, build_wav_corpus, dir_listing, fill_disk_after, run_with_file_size_limit


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def perfect_pair(tmp_path):
    protocol = write_text(tmp_path / "p.txt", protocol_text(["b1", "b2"], ["s1", "s2"]))
    scores = write_text(tmp_path / "s.txt", scores_text({"b1": 2.0, "b2": 3.0, "s1": 0.0, "s2": 1.0}))
    return protocol, scores


class TestEval:
    def test_perfect_separation(self, capsys, perfect_pair):
        # byte for byte: the report's key order and float text
        protocol, scores = perfect_pair
        code, out, err = run_cli(capsys, ["eval", "--protocol", str(protocol), "--scores", str(scores)])
        assert (code, err) == (0, "")
        assert out == ('{\n  "system_id": "s",\n  "dataset_id": "p",\n  "eer": 0.0,\n  "eer_threshold": 1.5,\n'
                       '  "auc": 1.0,\n  "accuracy": 1.0,\n  "f1": 1.0,\n  "decision_threshold": 1.5,\n'
                       '  "n_bonafide": 2,\n  "n_spoof": 2\n}\n')

    def test_missing_score_file(self, capsys, perfect_pair, tmp_path):
        protocol, _ = perfect_pair
        missing = tmp_path / "nope.txt"
        code, out, err = run_cli(capsys, ["eval", "--protocol", str(protocol), "--scores", str(missing)])
        assert code == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert "nope.txt" in record["message"]

    def test_polarity_involution(self, capsys, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        flipped = write_text(
            tmp_path / "neg.txt", scores_text({"b1": -2.0, "b2": -3.0, "s1": 0.0, "s2": -1.0})
        )
        code_a, out_a, _ = run_cli(capsys, ["eval", "--protocol", str(protocol), "--scores", str(scores)])
        code_b, out_b, _ = run_cli(
            capsys,
            ["eval", "--protocol", str(protocol), "--scores", str(flipped),
             "--polarity", "higher-is-spoof"],
        )
        assert code_a == code_b == 0
        assert json.loads(out_a)["eer"] == json.loads(out_b)["eer"]

    def test_out_file(self, capsys, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["eval", "--protocol", str(protocol), "--scores", str(scores), "--out", str(out_path)],
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["eer"] == 0.0

    def test_bom_protocol_joins_plain_scores(self, capsys, tmp_path):
        protocol = write_text(tmp_path / "p.txt", "\ufeffa1 bonafide\na2 spoof")
        scores = write_text(tmp_path / "s.txt", "a1 0.9\na2 0.1")
        code, out, err = run_cli(capsys, ["eval", "--protocol", str(protocol), "--scores", str(scores)])
        assert code == 0, err
        assert json.loads(out)["eer"] == 0.0

    def test_bom_score_file_joins_plain_protocol(self, capsys, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        bom_scores = write_text(tmp_path / "bom.txt", "\ufeff" + scores.read_text(encoding="utf-8"))
        code, out, err = run_cli(capsys, ["eval", "--protocol", str(protocol), "--scores", str(bom_scores)])
        assert code == 0, err
        assert json.loads(out)["eer"] == 0.0

    def test_one_class_after_the_join_names_both_files(self, capsys, tmp_path):
        protocol = write_text(tmp_path / "p.txt", protocol_text(["b1"], ["s1", "s2"]))
        scores = write_text(tmp_path / "s.txt", scores_text({"s1": 0.0, "s2": 1.0}))
        code, out, err = run_cli(capsys, ["eval", "--protocol", str(protocol), "--scores", str(scores),
                                          "--mode", "intersect"])
        assert code == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["message"] == (f"scores {scores}, protocol {protocol}: "
                                     "ROC needs both classes; got 0 bonafide and 2 spoof scores")

    def test_unmatched_scores_name_both_files(self, capsys, perfect_pair, tmp_path):
        protocol, _ = perfect_pair
        scores = write_text(tmp_path / "s3.txt", scores_text({"b1": 2.0, "s1": 0.0, "s2": 1.0}))
        code, out, err = run_cli(capsys, ["eval", "--protocol", str(protocol), "--scores", str(scores)])
        assert code == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record == {"error": "JoinError",
                          "message": f"scores {scores}, protocol {protocol}: strict join failed; missing: b2"}

    @pytest.mark.parametrize("names, expected", [([], ("s", "p")), (["--system-id", ""], ("", "p")),
                                                 (["--dataset-id", "D", "--system-id", "S"], ("S", "D"))])
    def test_report_names_default_to_the_file_stems(self, capsys, perfect_pair, names, expected):
        protocol, scores = perfect_pair
        code, out, err = run_cli(capsys, ["eval", "--protocol", str(protocol), "--scores", str(scores)] + names)
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["system_id"], doc["dataset_id"]) == expected

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_threshold_exits_two(self, perfect_pair, value):
        protocol, scores = perfect_pair
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--protocol", str(protocol), "--scores", str(scores), f"--threshold={value}"])
        assert exc.value.code == 2


class TestPool:
    def test_scale_mismatch_fixture(self, capsys, tmp_path):
        pa = write_text(tmp_path / "pa.txt", protocol_text(["b1", "b2"], ["s1", "s2"]))
        sa = write_text(tmp_path / "sa.txt", scores_text({"b1": 10, "b2": 9, "s1": 1, "s2": 2}))
        pb = write_text(tmp_path / "pb.txt", protocol_text(["b1", "b2"], ["s1", "s2"]))
        sb = write_text(tmp_path / "sb.txt", scores_text({"b1": 0.6, "b2": 0.5, "s1": 0.4, "s2": 0.3}))
        code, out, _ = run_cli(
            capsys,
            ["pool", "--pair", str(pa), str(sa), "--pair", str(pb), str(sb)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pooled_eer"] == 0.5
        assert doc["n_sets"] == 2
        assert doc["n_bonafide"] == doc["n_spoof"] == 4

    def test_unmatched_pair_names_its_files(self, capsys, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        short = write_text(tmp_path / "short.txt", scores_text({"b1": 2.0, "s1": 0.0, "s2": 1.0}))
        code, out, err = run_cli(capsys, ["pool", "--pair", str(protocol), str(scores),
                                          "--pair", str(protocol), str(short)])
        assert code == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["message"] == f"scores {short}, protocol {protocol}: strict join failed; missing: b2"

    def test_one_class_after_the_joins_names_every_pair(self, capsys, tmp_path):
        p3 = write_text(tmp_path / "p3.txt", protocol_text(["b1"], ["s1", "s2"]))
        s2 = write_text(tmp_path / "s2.txt", scores_text({"s1": 0.0, "s2": 1.0}))
        s1 = write_text(tmp_path / "s1.txt", scores_text({"s1": 0.5}))
        code, out, err = run_cli(capsys, ["pool", "--mode", "intersect", "--pair", str(p3), str(s2),
                                          "--pair", str(p3), str(s1)])
        assert code == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["message"] == (f"scores {s2}, protocol {p3}; scores {s1}, protocol {p3}: "
                                     "ROC needs both classes; got 0 bonafide and 3 spoof scores")


def _rename_dataset(doc, old, new):
    next(d for d in doc["datasets"] if d["dataset_id"] == old)["dataset_id"] = new
    for system in doc["systems"]:
        system["scores"][new] = system["scores"].pop(old)


class TestLeaderboard:
    def test_csv_has_header_and_rows(self, capsys, tmp_path):
        manifest = build_arena(tmp_path)
        code, out, _ = run_cli(capsys, ["leaderboard", "--manifest", str(manifest), "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("system_id,")
        assert len(lines) == 4

    def test_sort_flag_changes_order(self, capsys, tmp_path):
        manifest = build_arena(tmp_path)
        _, by_pooled, _ = run_cli(
            capsys, ["leaderboard", "--manifest", str(manifest), "--format", "csv"]
        )
        _, by_avg, _ = run_cli(
            capsys,
            ["leaderboard", "--manifest", str(manifest), "--format", "csv", "--sort", "average_eer"],
        )
        first_pooled = by_pooled.splitlines()[1].split(",")[0]
        first_avg = by_avg.splitlines()[1].split(",")[0]
        assert first_pooled == "sysB"
        assert first_avg == "sysA"

    def test_store_then_history(self, capsys, tmp_path):
        manifest = build_arena(tmp_path)
        store = tmp_path / "runs.jsonl"
        code, _, _ = run_cli(
            capsys,
            ["leaderboard", "--manifest", str(manifest), "--store", str(store), "--format", "json"],
        )
        assert code == 0
        code, out, _ = run_cli(capsys, ["history", "--store", str(store)])
        assert code == 0
        assert len(out.strip().splitlines()) == 1
        assert "systems=3" in out and "datasets=3" in out

    def test_history_json_reports_issues(self, capsys, tmp_path):
        manifest = build_arena(tmp_path)
        store = tmp_path / "runs.jsonl"
        run_cli(capsys, ["leaderboard", "--manifest", str(manifest), "--store", str(store),
                         "--format", "json"])
        with open(store, "ab") as fh:
            fh.write(b"not json at all\n")
        code, out, _ = run_cli(capsys, ["history", "--store", str(store), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["runs"]) == 1
        assert len(doc["issues"]) == 1
        assert doc["issues"][0]["line_number"] == 2

    def test_jobs_is_accepted_and_does_not_change_the_output(self, capsys, tmp_path):
        manifest = build_arena(tmp_path)
        base = ["leaderboard", "--manifest", str(manifest), "--format", "json"]
        docs = []
        for extra in ([], ["--jobs", "3"]):
            code, out, _ = run_cli(capsys, base + extra)
            assert code == 0
            doc = json.loads(out)
            del doc["run_id"], doc["timestamp"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_missing_manifest_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["leaderboard", "--manifest", str(tmp_path / "none.json")])
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ManifestError"

    def test_repeated_score_key_is_a_manifest_error(self, capsys, tmp_path):
        # json keeps the last of a repeated key, which would evaluate sysA_d2.txt as sysA's d1 scores
        manifest = build_arena(tmp_path)
        manifest.write_text(manifest.read_text().replace(
            '"d1": "scores/sysA_d1.txt"', '"d1": "scores/sysA_d1.txt", "d1": "scores/sysA_d2.txt"'))
        store = tmp_path / "runs.jsonl"
        code, out, err = run_cli(capsys, ["leaderboard", "--manifest", str(manifest), "--store", str(store)])
        assert (code, out) == (1, "")
        record = json.loads(err.strip().splitlines()[-1])
        assert record == {"error": "ManifestError", "message": f"{manifest}: repeated key 'd1'"}
        assert not store.exists()

    @pytest.mark.parametrize("output", ["markdown", "csv", "json", "store"])
    def test_nan_param_count_is_a_manifest_error(self, capsys, tmp_path, output):
        manifest = build_arena(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["systems"][1]["param_count_millions"] = float("nan")
        manifest.write_text(json.dumps(doc))
        store = tmp_path / "runs.jsonl"
        flag = ["--store", str(store)] if output == "store" else ["--format", output]
        argv = ["leaderboard", "--manifest", str(manifest)] + flag
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ManifestError"
        system_id = doc["systems"][1]["system_id"]
        assert str(manifest) in record["message"] and repr(system_id) in record["message"]
        assert not store.exists()

    @pytest.mark.parametrize("mutate, named", [
        (lambda doc: doc["datasets"][0].update(protocol_path="p\0.txt"), "protocol_path"),
        (lambda doc: doc["systems"][0]["scores"].update(d1="s\0.txt"), "score path for 'd1'"),
        (lambda doc: doc["options"].update(output_dir="out\0"), "options.output_dir"),
        (lambda doc: doc["datasets"][0].update(dataset_id="d\nx"), repr("d\nx")),
        (lambda doc: doc["systems"][0].update(system_id="sys\u2028A"), repr("sys\u2028A")),
        (lambda doc: doc["systems"][0].update(category="open\nsource"), repr("open\nsource")),
        (lambda doc: _rename_dataset(doc, "d2", "d\ud800"), repr("d\ud800")),
        (lambda doc: doc["systems"][1].update(system_id="sys\ud800B"), repr("sys\ud800B")),
        (lambda doc: doc["datasets"][0].update(protocol_path="protocols/\ud800.txt"), "protocol_path"),
    ], ids=["protocol-path-nul", "score-path-nul", "output-dir-nul", "dataset-id-newline", "system-id-u2028",
            "category-newline", "dataset-id-surrogate", "system-id-surrogate", "protocol-path-surrogate"])
    def test_nul_path_or_line_break_id_is_a_manifest_error(self, capsys, tmp_path, mutate, named):
        manifest = build_arena(tmp_path)
        doc = json.loads(manifest.read_text())
        mutate(doc)
        manifest.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["leaderboard", "--manifest", str(manifest)])
        assert (code, out) == (1, "")
        record = json.loads(err)
        assert record["error"] == "ManifestError"
        assert record["message"].startswith(f"{manifest}: ") and named in record["message"]

    # Each manifest used to exit 0: a dataset named like a fixed column repeated a header
    # name, and a system id ending in "*" read in markdown as a system with dataset gaps.
    @pytest.mark.parametrize("fmt, mutate, named", [
        ("markdown", lambda doc: _rename_dataset(doc, "d2", "Pooled"), "dataset_id 'Pooled'"),
        ("csv", lambda doc: _rename_dataset(doc, "d1", "average_eer"), "dataset_id 'average_eer'"),
        ("json", lambda doc: doc["systems"][0].update(system_id="sysA*"), "system_id 'sysA*'"),
    ])
    def test_reserved_report_name_is_a_manifest_error(self, capsys, tmp_path, fmt, mutate, named):
        manifest = build_arena(tmp_path)
        doc = json.loads(manifest.read_text())
        mutate(doc)
        manifest.write_text(json.dumps(doc))
        store = tmp_path / "runs.jsonl"
        code, out, err = run_cli(capsys, ["leaderboard", "--manifest", str(manifest), "--format", fmt,
                                          "--store", str(store)])
        assert (code, out) == (1, "")
        record = json.loads(err)
        assert record["error"] == "ManifestError"
        assert record["message"].startswith(f"{manifest}: {named}")
        assert not store.exists()

    def test_malformed_protocol_is_named_with_its_dataset(self, capsys, tmp_path):
        manifest = build_arena(tmp_path)
        protocol = write_text(tmp_path / "protocols" / "d2.txt", "b1 bonafide\nb2 spoof\nb3 maybe\n")
        code, out, err = run_cli(capsys, ["leaderboard", "--manifest", str(manifest)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ProtocolError",
                                   "message": f"dataset 'd2': {protocol}: line 3: unknown label token 'maybe'"}

    def test_out_directory_is_an_error_record(self, capsys, tmp_path):
        manifest = build_arena(tmp_path)
        store = tmp_path / "runs.jsonl"
        store_append(store, golden_record())
        before = store.read_bytes()
        code, out, err = run_cli(capsys, ["leaderboard", "--manifest", str(manifest), "--out", str(tmp_path),
                                          "--store", str(store)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ArenaError", "message": f"cannot write {tmp_path}: Is a directory"}
        assert store.read_bytes() == before  # a run that failed to report is not recorded

    def test_manifest_output_dir_that_is_a_file_is_an_error_record(self, capsys, tmp_path):
        build_arena(tmp_path)
        write_text(tmp_path / "reports", "not a directory\n")
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["options"]["output_dir"] = "reports"
        write_text(tmp_path / "m.json", json.dumps(doc))
        store = tmp_path / "runs.jsonl"
        code, out, err = run_cli(capsys, ["leaderboard", "--manifest", str(tmp_path / "m.json"),
                                          "--store", str(store)])
        assert (code, out) == (1, "")
        record = json.loads(err)
        assert record["error"] == "ArenaError"
        assert record["message"].startswith(f"cannot write {tmp_path / 'reports' / 'leaderboard.md'}: ")
        assert not store.exists()

    def test_manifest_output_dir_gets_report_copy(self, capsys, tmp_path):
        build_arena(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["options"]["output_dir"] = "reports"
        write_text(tmp_path / "m.json", json.dumps(doc))
        code, out, _ = run_cli(capsys, ["leaderboard", "--manifest", str(tmp_path / "m.json")])
        assert code == 0
        copy = tmp_path / "reports" / "leaderboard.md"
        assert copy.read_text(encoding="utf-8") == out


@pytest.fixture
def golden_store(tmp_path):
    """A store holding the golden record and then one corrupt line."""
    store = tmp_path / "runs.jsonl"
    store_append(store, golden_record())
    with open(store, "ab") as fh:
        fh.write(b"not json\n")
    return store


class TestHistory:
    def test_text_golden_bytes(self, capsys, golden_store):
        code, out, _ = run_cli(capsys, ["history", "--store", str(golden_store)])
        assert code == 0
        assert out == (
            "0123456789ab  2025-01-01T00:00:00+00:00  digest=9f86d081884c  systems=3  datasets=2\n"
            "unreadable record at line 2 (byte offset 838): "
            "JSONDecodeError: Expecting value: line 1 column 1 (char 0)\n"
        )

    def test_json_golden_bytes(self, capsys, golden_store):
        code, out, _ = run_cli(capsys, ["history", "--store", str(golden_store), "--format", "json"])
        assert code == 0
        assert out == """\
{
  "runs": [
    {
      "run_id": "0123456789ab",
      "timestamp": "2025-01-01T00:00:00+00:00",
      "manifest_digest": "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
      "tool_version": "test",
      "n_systems": 3,
      "n_datasets": 2
    }
  ],
  "issues": [
    {
      "line_number": 2,
      "byte_offset": 838,
      "reason": "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"
    }
  ]
}
"""


    def test_builds_no_report_or_summary_objects(self, capsys, tmp_path, monkeypatch):
        manifest = build_arena(tmp_path)
        store = tmp_path / "runs.jsonl"
        assert run_cli(capsys, ["leaderboard", "--manifest", str(manifest), "--store", str(store)])[0] == 0

        def refuse(*args, **kwargs):
            raise AssertionError("history built a report or summary object")

        monkeypatch.setattr("df_arena.record.EvalReport", refuse)
        monkeypatch.setattr("df_arena.record.SystemSummary", refuse)
        code, out, err = run_cli(capsys, ["history", "--store", str(store), "--format", "json"])
        assert code == 0, err
        doc = json.loads(out)
        assert [(r["n_systems"], r["n_datasets"]) for r in doc["runs"]] == [(3, 3)]
        assert doc["issues"] == []

    def test_out_directory_is_an_error_record(self, capsys, golden_store, tmp_path):
        code, out, err = run_cli(capsys, ["history", "--store", str(golden_store), "--out", str(tmp_path)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ArenaError", "message": f"cannot write {tmp_path}: Is a directory"}

    @pytest.mark.parametrize("field, value", [
        ("run_id", 5), ("timestamp", None), ("manifest_digest", 5), ("tool_version", 1.0),
        ("record_version", True), ("record_version", 0), ("record_version", "1"),
        ("dataset_ids", "d1"), ("dataset_ids", ["d1", 2]),
    ])
    def test_wrong_typed_header_is_an_issue(self, capsys, tmp_path, field, value):
        store = tmp_path / "runs.jsonl"
        store_append(store, golden_record())
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**json.loads(golden_record().to_json()), field: value}) + "\n")
        code, out, _ = run_cli(capsys, ["history", "--store", str(store)])
        assert code == 0
        run, issue = out.splitlines()
        assert run.startswith("0123456789ab  ")
        assert issue.startswith("unreadable record at line 2 ") and field in issue
        code, out, _ = run_cli(capsys, ["history", "--store", str(store), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert [r["run_id"] for r in doc["runs"]] == ["0123456789ab"]
        assert [i["line_number"] for i in doc["issues"]] == [2]

    @pytest.mark.parametrize("field", ["run_id", "timestamp", "manifest_digest", "tool_version"])
    @pytest.mark.parametrize("char, fault", [
        ("\n", "holds a control or line-break character"),
        ("\r", "holds a control or line-break character"),
        ("\x85", "holds a control or line-break character"),
        ("\u2028", "holds a control or line-break character"),
        ("\ud800", "does not encode as UTF-8"),
    ], ids=["newline", "carriage-return", "next-line", "line-separator", "lone-surrogate"])
    def test_header_string_that_breaks_the_listing_is_an_issue(self, capsys, tmp_path, field, char, fault):
        store = tmp_path / "runs.jsonl"
        store_append(store, golden_record())
        offset = store.stat().st_size
        doc = json.loads(golden_record().to_json())
        forged = f"{doc[field]}{char}unreadable record at line 9 (byte offset 0): forged"
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**doc, field: forged}) + "\n")
        reason = f"ValueError: {field} {fault}"
        code, out, _ = run_cli(capsys, ["history", "--store", str(store)])
        assert code == 0
        assert out.splitlines() == [
            "0123456789ab  2025-01-01T00:00:00+00:00  digest=9f86d081884c  systems=3  datasets=2",
            f"unreadable record at line 2 (byte offset {offset}): {reason}",
        ]
        code, out, _ = run_cli(capsys, ["history", "--store", str(store), "--format", "json"])
        assert code == 0
        listing = json.loads(out)
        assert [r["run_id"] for r in listing["runs"]] == ["0123456789ab"]
        assert listing["issues"] == [{"line_number": 2, "byte_offset": offset, "reason": reason}]


class TestOutputFileFailure:
    """An --out file that cannot be written: exit 1 and one error record, whatever byte the
    write stops at, and the file keeps its earlier bytes or stays absent."""

    def test_full_disk_at_any_byte_is_one_error_record(self, capsys, monkeypatch, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        out = tmp_path / "eval.json"
        argv = ["eval", "--protocol", str(protocol), "--scores", str(scores), "--out", str(out)]
        assert run_cli(capsys, argv)[:2] == (0, "")
        expected = out.read_bytes()
        for room in range(len(expected)):
            for earlier in (b"earlier run\n", None):
                if earlier is None:
                    out.unlink(missing_ok=True)
                else:
                    out.write_bytes(earlier)
                listing = dir_listing(tmp_path)
                fill_disk_after(monkeypatch, room)
                code, stdout, err = run_cli(capsys, argv)
                assert (code, stdout) == (1, "")
                assert json.loads(err) == {"error": "ArenaError",
                                           "message": f"cannot write {out}: No space left on device"}
                assert dir_listing(tmp_path) == listing  # no temporary file is left
                assert (out.read_bytes() if out.exists() else None) == earlier
        out.write_bytes(b"earlier run\n")
        opened = fill_disk_after(monkeypatch, len(expected))
        assert run_cli(capsys, argv)[:2] == (0, "")
        [disk] = opened
        assert disk.stored == expected
        assert out.read_bytes() == expected
        assert dir_listing(tmp_path) == ["eval.json", "p.txt", "s.txt"]

    def test_file_size_limit_is_one_error_record(self, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        out = tmp_path / "eval.json"
        out.write_bytes(b"earlier run\n")
        proc = run_with_file_size_limit(["-m", "df_arena.cli", "eval", "--protocol", str(protocol),
                                         "--scores", str(scores), "--out", str(out)], limit=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {"error": "ArenaError", "message": f"cannot write {out}: File too large"}
        assert out.read_bytes() == b"earlier run\n"
        assert dir_listing(tmp_path) == ["eval.json", "p.txt", "s.txt"]

    def test_dev_null_is_written_in_place(self, capsys, perfect_pair):
        protocol, scores = perfect_pair
        argv = ["eval", "--protocol", str(protocol), "--scores", str(scores), "--out", os.devnull]
        assert run_cli(capsys, argv) == (0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_symlink_is_written_through_not_replaced(self, capsys, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        target = tmp_path / "report.json"
        target.write_bytes(b"earlier run\n")
        link = tmp_path / "link.json"
        link.symlink_to(target.name)
        argv = ["eval", "--protocol", str(protocol), "--scores", str(scores), "--out", str(link)]
        assert run_cli(capsys, argv)[:2] == (0, "")
        assert link.is_symlink() and os.readlink(link) == target.name
        assert json.loads(target.read_bytes())["eer"] == 0.0
        assert dir_listing(tmp_path) == ["link.json", "p.txt", "report.json", "s.txt"]

    @pytest.mark.parametrize("room", [0, 4, 40])
    def test_full_disk_through_a_symlink_keeps_the_target_and_the_link(self, capsys, monkeypatch,
                                                                      perfect_pair, tmp_path, room):
        protocol, scores = perfect_pair
        links, reports = tmp_path / "links", tmp_path / "reports"
        links.mkdir()
        reports.mkdir()
        target = reports / "report.json"
        target.write_bytes(b"earlier run\n")
        link = links / "link.json"
        link.symlink_to(Path("..", "reports", "report.json"))
        fill_disk_after(monkeypatch, room)
        argv = ["eval", "--protocol", str(protocol), "--scores", str(scores), "--out", str(link)]
        code, stdout, err = run_cli(capsys, argv)
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {"error": "ArenaError", "message": f"cannot write {link}: No space left on device"}
        assert target.read_bytes() == b"earlier run\n"
        assert link.is_symlink() and os.readlink(link) == os.path.join("..", "reports", "report.json")
        assert dir_listing(links) == ["link.json"]  # no temporary file is left in either directory
        assert dir_listing(reports) == ["report.json"]

    def test_dangling_symlink_is_written_in_place(self, capsys, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        link = tmp_path / "link.json"
        link.symlink_to("report.json")
        argv = ["eval", "--protocol", str(protocol), "--scores", str(scores), "--out", str(link)]
        assert run_cli(capsys, argv)[:2] == (0, "")
        assert link.is_symlink()
        assert json.loads((tmp_path / "report.json").read_bytes())["eer"] == 0.0

    def test_dev_stdout_on_a_file_is_written_in_place(self, perfect_pair, tmp_path):
        # /dev/stdout leads through /proc to the file the shell opened; replacing that
        # file would leave the shell's descriptor on the old one
        protocol, scores = perfect_pair
        if not os.path.islink("/dev/stdout"):
            pytest.skip("/dev/stdout is not a symlink here")
        report = tmp_path / "report.json"
        with open(report, "wb") as fh:
            inode = os.fstat(fh.fileno()).st_ino
            subprocess.run([sys.executable, "-m", "df_arena.cli", "eval", "--protocol", str(protocol),
                            "--scores", str(scores), "--out", "/dev/stdout"], stdout=fh, check=True)
        assert report.stat().st_ino == inode
        assert json.loads(report.read_bytes())["eer"] == 0.0
        assert dir_listing(tmp_path) == ["p.txt", "report.json", "s.txt"]


class TestCorrelate:
    def test_columns_equal_average(self, capsys, tmp_path):
        csv = write_text(
            tmp_path / "m.csv",
            "sys,d1,d2\na,0.1,0.1\nb,0.2,0.2\nc,0.4,0.4\n",
        )
        code, out, _ = run_cli(capsys, ["correlate", "--matrix", str(csv)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dataset,pearson,spearman,kendall_tau,distance_corr,mutual_info,ccc"
        for line in lines[1:]:
            assert line.split(",")[1] == "1.0000"

    def test_two_system_matrix_exits_one(self, capsys, tmp_path):
        csv = write_text(tmp_path / "m.csv", "sys,d1\na,0.1\nb,0.2\n")
        code, _, err = run_cli(capsys, ["correlate", "--matrix", str(csv)])
        assert code == 1
        assert "at least 3 systems" in json.loads(err.strip().splitlines()[-1])["message"]

    def test_bom_matrix_loads(self, capsys, tmp_path):
        csv = write_text(tmp_path / "m.csv", "\ufeffsys,d1,d2\na,0.1,0.1\nb,0.2,0.2\nc,0.4,0.4\n")
        code, out, err = run_cli(capsys, ["correlate", "--matrix", str(csv), "--format", "json"])
        assert code == 0, err
        assert list(json.loads(out)["datasets"]) == ["d1", "d2"]

    @pytest.mark.parametrize("cell", ["-0.2", "200", "nan", "inf"])
    def test_cell_outside_unit_range_names_its_line(self, capsys, tmp_path, cell):
        csv = write_text(tmp_path / "m.csv", f"sys,d1\na,10\n\nb,{cell}\nc,30\n")
        code, _, err = run_cli(capsys, ["correlate", "--matrix", str(csv)])
        assert code == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "StatError"
        assert f"m.csv: line 4: EER '{cell}' is outside [0, 1]" in record["message"]

    def test_cells_only_float_reads_exit_one(self, capsys, tmp_path):
        # float() reads these as 10 and 0.1, and a 10 would have made the grid percent
        csv = write_text(tmp_path / "m.csv", "sys,d1\na,1_0\nb,\u0660.\u0661\nc,0.3\nd,0.4\n")
        code, out, err = run_cli(capsys, ["correlate", "--matrix", str(csv), "--format", "json"])
        assert code == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "StatError"
        assert "m.csv: line 2: non-numeric EER '1_0'" in record["message"]

    @pytest.mark.parametrize("bins", ["1", "0", "-3", "nan"])
    def test_bins_below_two_exits_two(self, tmp_path, bins):
        with pytest.raises(SystemExit) as exc:
            main(["correlate", "--matrix", str(tmp_path / "m.csv"), "--bins", bins])
        assert exc.value.code == 2

    def test_ragged_matrix_exits_one(self, capsys, tmp_path):
        csv = write_text(tmp_path / "m.csv", "sys,d1,d2\na,0.1\n")
        code, _, err = run_cli(capsys, ["correlate", "--matrix", str(csv)])
        assert code == 1

    def test_reference_grid_open_source_block(self, capsys, reference_grid_path):
        code, out, _ = run_cli(
            capsys,
            [
                "correlate",
                "--matrix", str(reference_grid_path),
                "--systems", ",".join(OPEN_SOURCE_SYSTEMS),
                "--format", "json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_systems"] == 12
        pearson = {ds: doc["datasets"][ds]["pearson"] for ds in doc["datasets"]}
        assert pearson["LibriSeVoc"] > pearson["ASVspoof2019"]
        assert pearson["LibriSeVoc"] > pearson["CodecFake"]


class TestAugmentCli:
    def test_same_seed_reruns_identically(self, capsys, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=2, seconds=0.3)
        src = build_interferer_dir(tmp_path / "src")
        base = ["augment", "--in", str(in_dir), "--category", "noise",
                "--source", str(src), "--seed", "42"]
        code1, out1, _ = run_cli(capsys, base + ["--out", str(tmp_path / "o1")])
        code2, out2, _ = run_cli(capsys, base + ["--out", str(tmp_path / "o2"), "--jobs", "4"])
        assert code1 == code2 == 0
        for name in ("utt000.wav", "utt001.wav"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()
        assert json.loads(out1)["files_processed"] == 2

    def test_snr_flags_on_reverb_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--in", str(tmp_path), "--out", str(tmp_path / "o"),
                  "--category", "reverb", "--source", str(tmp_path), "--seed", "1",
                  "--snr-low", "0", "--snr-high", "5"])
        assert exc.value.code == 2

    def test_inverted_snr_range_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--in", str(tmp_path), "--out", str(tmp_path / "o"),
                  "--category", "noise", "--source", str(tmp_path), "--seed", "1",
                  "--snr-low", "15", "--snr-high", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("low, high", [("nan", "nan"), ("1e308", "1e308"), ("-1e308", "0"),
                                           ("0", "inf")])
    def test_snr_without_finite_amplitude_ratio_usage_error(self, capsys, tmp_path, low, high):
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--in", str(tmp_path), "--out", str(tmp_path / "o"),
                  "--category", "noise", "--source", str(tmp_path), "--seed", "1",
                  f"--snr-low={low}", f"--snr-high={high}"])
        assert exc.value.code == 2
        assert "no finite positive amplitude ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["6000", "-6000"])
    def test_snr_past_float64_range_leaves_only_the_error_record_on_stderr(self, tmp_path, snr):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=3, seconds=0.3)
        src = build_interferer_dir(tmp_path / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "df_arena.cli", "augment", "--in", str(in_dir),
             "--out", str(tmp_path / "o"), "--category", "noise", "--source", str(src),
             "--seed", "1", f"--snr-low={snr}", f"--snr-high={snr}"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        reasons = [f["reason"] for f in json.loads(proc.stdout)["failures"]]
        assert reasons == [f"AugmentError: SNR {float(snr)} dB scales the interferer out of float64 range"] * 3
        assert [json.loads(line)["error"] for line in proc.stderr.splitlines()] == ["ArenaError"]

    def test_out_under_a_file_is_an_error_record(self, capsys, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=1)
        src = build_interferer_dir(tmp_path / "src")
        write_text(tmp_path / "file", "x\n")
        code, out, err = run_cli(
            capsys,
            ["augment", "--in", str(in_dir), "--out", str(tmp_path / "file" / "x"),
             "--category", "noise", "--source", str(src), "--seed", "1"],
        )
        assert (code, out) == (1, "")
        record = json.loads(err)
        assert record["error"] == "AugmentError"
        assert str(tmp_path / "file" / "x") in record["message"]

    def test_missing_source_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--in", str(tmp_path), "--out", str(tmp_path / "o"),
                  "--category", "reverb", "--seed", "1"])
        assert exc.value.code == 2

    def test_empty_source_dir_data_error(self, capsys, tmp_path):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=1)
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(
            capsys,
            ["augment", "--in", str(in_dir), "--out", str(tmp_path / "o"),
             "--category", "noise", "--source", str(empty), "--seed", "1"],
        )
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["error"] == "AugmentError"


class TestScore:
    def test_writes_score_file(self, capsys, tmp_path, echo_scorer):
        lst = write_text(tmp_path / "list.txt", "/a/x.wav\n/a/y.wav\n/a/z.wav\n")
        out_path = tmp_path / "scores.txt"
        code, _, _ = run_cli(
            capsys,
            ["score", "--cmd", shlex.join(echo_scorer), "--list", str(lst), "--out", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            trial_id, value = line.split()
            float(value)

    def test_timeout_is_data_error(self, capsys, tmp_path, echo_scorer):
        lst = write_text(tmp_path / "list.txt", "/a/x.wav\n")
        code, _, err = run_cli(
            capsys,
            ["score", "--cmd", shlex.join(echo_scorer + ["--sleep", "5"]),
             "--list", str(lst), "--timeout", "0.5"],
        )
        assert code == 1
        assert "timed out" in json.loads(err.strip().splitlines()[-1])["message"]

    def test_bom_audio_list_keeps_its_first_trial_id(self, capsys, tmp_path, echo_scorer):
        lst = write_text(tmp_path / "list.txt", "\ufeffx.wav\ny.wav\n")
        code, out, err = run_cli(capsys, ["score", "--cmd", shlex.join(echo_scorer), "--list", str(lst)])
        assert code == 0, err
        assert sorted(line.split()[0] for line in out.splitlines()) == ["x", "y"]

    def test_first_trial_id_led_by_a_byte_order_mark_is_refused(self, capsys, tmp_path, echo_scorer):
        # written as it is, the score file would read back with the first id "a1"
        lst = write_text(tmp_path / "list.txt", "/x/\ufeffa1.wav\n/x/b.wav\n")
        code, out, err = run_cli(capsys, ["score", "--cmd", shlex.join(echo_scorer), "--list", str(lst)])
        assert (code, out) == (1, "")
        record = json.loads(err)
        assert record["error"] == "ScoreFileError"
        assert "cannot be written as one content line" in record["message"]

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1", "1e308"])
    def test_bad_timeout_exits_two(self, tmp_path, echo_scorer, timeout):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--cmd", shlex.join(echo_scorer), "--list", str(tmp_path / "l.txt"),
                  f"--timeout={timeout}"])
        assert exc.value.code == 2

    def test_system_id_is_not_an_option(self, tmp_path, echo_scorer):
        # the score file holds only trial ids and scores, so a system id has nowhere to go
        with pytest.raises(SystemExit) as exc:
            main(["score", "--cmd", shlex.join(echo_scorer), "--list", str(tmp_path / "l.txt"),
                  "--system-id", "X"])
        assert exc.value.code == 2

    def test_missing_cmd_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--list", str(tmp_path / "l.txt")])
        assert exc.value.code == 2


class TestUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert __version__ in out
        assert "manifest_version 1" in out
        assert "record_version 1" in out

    def test_package_root_exposes_only_the_version(self):
        code = "import df_arena; print(' '.join(sorted(vars(df_arena))))"
        names = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True).stdout.split()
        assert [n for n in names if not (n.startswith("__") and n.endswith("__"))] == []
        assert "__version__" in names

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["leaderboard", "--nonsense"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_jobs_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["leaderboard", "--manifest", "m.json", "--jobs", "0"])
        assert exc.value.code == 2


def _fresh_main(argv) -> tuple[int | None, str, set[str]]:
    """``import df_arena.cli`` and, unless argv is None, main(argv) in a fresh interpreter.

    Returns main's exit code (None without argv), its stdout and the interpreter's sys.modules.
    """
    code = ("import json, sys\nfrom df_arena.cli import main\n"
            f"argv, code = {argv!r}, None\n"
            "if argv is not None:\n"
            "    try:\n        code = main(argv)\n    except SystemExit as e:\n        code = e.code\n"
            "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    *payload, last = proc.stdout.splitlines(keepends=True)
    doc = json.loads(last)
    return doc["code"], "".join(payload), set(doc["modules"])


def _modules_after(argv) -> set[str]:
    return _fresh_main(argv)[2]


_NUMERIC = {"numpy", "ctypes", "concurrent.futures"} | {
    f"df_arena.{m}" for m in ("protocol", "metrics", "leaderboard", "augment", "wavio", "stats", "scorer")}


@functools.cache
def _bare_modules() -> frozenset[str]:
    """sys.modules of an interpreter that runs nothing: what site and any .pth file load."""
    code = "import sys; sys.stdout.write(' '.join(sys.modules))"
    return frozenset(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    check=True).stdout.split())


class TestFrontDoor:
    @pytest.mark.parametrize("argv", [
        None,
        ["--version"],
        ["history", "--store", "no-such-dir/runs.jsonl"],
        ["eval", "--protocol", "p.txt"],  # usage error: --scores is required
    ])
    def test_starts_without_numpy(self, argv):
        assert _modules_after(argv) & _NUMERIC == set()

    def test_eval_loads_no_augment_stats_or_subprocess(self, perfect_pair):
        protocol, scores = perfect_pair
        loaded = _modules_after(["eval", "--protocol", str(protocol), "--scores", str(scores)])
        assert "df_arena.metrics" in loaded
        assert loaded & {"df_arena.augment", "df_arena.wavio", "df_arena.stats", "subprocess"} == set()

    @pytest.mark.parametrize("command", ["eval", "pool", "leaderboard"])
    def test_metric_commands_never_load_numpy_ma(self, perfect_pair, tmp_path, command):
        # np.unique loads numpy.ma on numpy >= 2.3, which cost each process 8-23 ms
        protocol, scores = perfect_pair
        out = tmp_path / "out.json"
        argv = {"eval": ["eval", "--protocol", str(protocol), "--scores", str(scores)],
                "pool": ["pool", "--pair", str(protocol), str(scores)],
                "leaderboard": ["leaderboard", "--manifest", str(build_arena(tmp_path / "arena")),
                                "--format", "json"]}[command]
        code, _, loaded = _fresh_main(argv + ["--out", str(out)])
        assert code == 0 and json.loads(out.read_bytes())  # the command ran to its payload
        assert "df_arena.metrics" in loaded and "numpy.ma" not in loaded

    def test_leaderboard_loads_no_augment_or_subprocess(self, tmp_path):
        loaded = _modules_after(["leaderboard", "--manifest", str(build_arena(tmp_path)),
                                 "--out", str(tmp_path / "lb.md")])
        assert "df_arena.leaderboard" in loaded
        assert loaded & {"df_arena.augment", "df_arena.wavio", "subprocess"} == set()

    @pytest.mark.parametrize("command", ["version", "usage-error", "history-missing", "history-one-record"])
    def test_front_door_loads_only_what_it_runs(self, tmp_path, command):
        store = tmp_path / "runs.jsonl"
        if command == "history-one-record":
            store_append(store, golden_record())
        argv, expected_code = {"version": (["--version"], 0),
                               "usage-error": (["leaderboard"], 2),  # --manifest is required
                               "history-missing": (["history", "--store", str(store)], 0),
                               "history-one-record": (["history", "--store", str(store)], 0)}[command]
        code, out, loaded = _fresh_main(argv)
        assert code == expected_code
        if command.startswith("history"):
            assert len(out.splitlines()) == (command == "history-one-record")
        # the record classes and dataclasses (with inspect, about 9 ms) are for the commands that build records
        unused = _NUMERIC | {"logging", "df_arena.spec", "df_arena.record"}
        unused |= {"dataclasses", "inspect"} - _bare_modules()
        if not command.startswith("history"):
            unused.add("df_arena.store")
        assert loaded & unused == set()


def _stderr_of(argv, prelude: str = "") -> str:
    """stderr of ``df_arena.cli.main(argv)`` in a fresh interpreter, after ``prelude`` ran there."""
    code = f"import sys\nfrom df_arena import cli\n{prelude}\nsys.exit(cli.main({argv!r}))\n"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stderr


class TestLogLines:
    """stderr at --log-level info and debug, byte for byte; lower levels print nothing."""

    @pytest.mark.parametrize("level", ["info", "debug"])
    def test_leaderboard_logs_its_report_and_its_run(self, tmp_path, level):
        manifest = build_arena(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["options"]["output_dir"] = "reports"
        manifest.write_text(json.dumps(doc))
        store = str(tmp_path / "runs.jsonl")
        argv = ["--log-level", level, "leaderboard", "--manifest", str(manifest), "--store", store]
        err = _stderr_of(argv)
        run_id = json.loads(Path(store).read_text().splitlines()[-1])["run_id"]
        assert err == (f"INFO df_arena: report written to {tmp_path / 'reports' / 'leaderboard.md'}\n"
                       f"INFO df_arena: appended run {run_id} to {store}\n")
        err = _stderr_of(argv + ["--out", str(tmp_path / "lb.md")])  # with --out, output_dir keeps no copy
        run_id = json.loads(Path(store).read_text().splitlines()[-1])["run_id"]
        assert err == f"INFO df_arena: appended run {run_id} to {store}\n"

    @pytest.mark.parametrize("level, expected", [
        ("info", "INFO df_arena: intersect join dropped 1 trials and 2 scores\n"),
        ("warning", ""),
        ("error", ""),
    ])
    def test_eval_logs_what_an_intersect_join_dropped(self, tmp_path, level, expected):
        protocol = write_text(tmp_path / "p.txt", protocol_text(["b1", "b2"], ["s1", "s2"]))
        scores = write_text(tmp_path / "s.txt", scores_text({"b1": 2.0, "s1": 0.0, "s2": 1.0, "x": 0.5, "y": 0.1}))
        argv = ["--log-level", level, "eval", "--protocol", str(protocol), "--scores", str(scores),
                "--mode", "intersect", "--out", str(tmp_path / "e.json")]
        assert _stderr_of(argv) == expected

    @pytest.mark.parametrize("level", ["debug", "info"])
    def test_an_unexpected_failure_logs_its_traceback_at_debug(self, tmp_path, level):
        prelude = ("def boom(*args, **kwargs):\n    raise RuntimeError('boom')\n"
                   "cli.store_list = boom")
        err = _stderr_of(["--log-level", level, "history", "--store", str(tmp_path / "r.jsonl")], prelude)
        record = '{"error": "RuntimeError", "message": "boom"}\n'
        if level == "info":
            assert err == record
            return
        head = "DEBUG df_arena: unexpected failure\nTraceback (most recent call last):\n"
        assert err.startswith(head) and err.endswith("RuntimeError: boom\n" + record)
        frames = err[len(head):-len("RuntimeError: boom\n" + record)].splitlines()
        assert frames and all(line.startswith("  ") for line in frames)


# The names perfbench/tracer.py rebinds on df_arena.cli to time the layers below it.
_HOOKED = ("evaluate_arena", "emit", "store_append", "store_list", "augment_corpus")


class TestTracerContract:
    @pytest.fixture
    def commands(self, tmp_path):
        manifest = build_arena(tmp_path / "arena")
        in_dir = build_wav_corpus(tmp_path / "in", n_files=2, seconds=0.1)
        src = build_interferer_dir(tmp_path / "src")
        store = str(tmp_path / "runs.jsonl")
        return [
            ["leaderboard", "--manifest", str(manifest), "--store", store],
            ["history", "--store", store],
            ["augment", "--in", str(in_dir), "--out", str(tmp_path / "out"), "--category", "noise",
             "--source", str(src), "--seed", "1"],
        ]

    def test_hooked_names_exist_after_import(self):
        code = ("import df_arena.cli as cli\n"
                f"print(all(callable(getattr(cli, name, None)) for name in {_HOOKED!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout == "True\n"

    def test_commands_bind_no_module_global(self, capsys, commands):
        from df_arena import cli

        before = dict(vars(cli))
        for argv in commands:
            assert run_cli(capsys, argv)[0] == 0
        after = vars(cli)
        assert after.keys() == before.keys()
        assert [k for k, v in before.items() if after[k] is not v] == []

    def test_handlers_call_the_module_globals(self, capsys, commands, monkeypatch):
        from df_arena import cli

        called = []
        for name in _HOOKED:
            def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
                called.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        for argv in commands:
            assert run_cli(capsys, argv)[0] == 0
        assert sorted(set(called)) == sorted(_HOOKED)


_needs_dev_full = pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")


class TestStdoutFailure:
    @pytest.fixture(params=["1", ""], ids=["unbuffered", "buffered"])
    def env(self, request):
        return {**os.environ, "PYTHONUNBUFFERED": request.param}

    def _run(self, argv, env):
        with open("/dev/full", "w") as full:
            return subprocess.run([sys.executable, "-m", "df_arena.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=env)

    @_needs_dev_full
    @pytest.mark.parametrize("command", ["eval", "history", "--version"])
    def test_full_stdout_is_an_error_record(self, command, env, perfect_pair, tmp_path):
        protocol, scores = perfect_pair
        argv = {"eval": ["eval", "--protocol", str(protocol), "--scores", str(scores)],
                "history": ["history", "--store", str(tmp_path / "runs.jsonl"), "--format", "json"],
                "--version": ["--version"]}[command]
        proc = self._run(argv, env)
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {"error": "ArenaError",
                                           "message": "cannot write stdout: No space left on device"}

    @_needs_dev_full
    def test_leaderboard_that_cannot_report_is_not_stored(self, env, tmp_path):
        store = tmp_path / "runs.jsonl"
        proc = self._run(["leaderboard", "--manifest", str(build_arena(tmp_path)), "--store", str(store)], env)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["message"] == "cannot write stdout: No space left on device"
        assert not store.exists()

    @_needs_dev_full
    def test_full_stderr_still_exits_one(self, env, tmp_path):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "df_arena.cli", "eval", "--protocol",
                                   str(tmp_path / "missing.txt"), "--scores", str(tmp_path / "s.txt")],
                                  stdout=subprocess.PIPE, stderr=full, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (1, "")

    @pytest.mark.parametrize("stderr", ["full", "closed"])
    def test_error_record_that_cannot_be_written_returns_one(self, monkeypatch, tmp_path, stderr):
        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sys, "stderr", FullStream() if stderr == "full" else None)
        assert main(["eval", "--protocol", str(tmp_path / "missing.txt"), "--scores", str(tmp_path / "s.txt")]) == 1

    def test_closed_stdout_is_an_error_record(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "df_arena.cli", "history", "--store", str(tmp_path / "r")],
                              stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {"error": "ArenaError", "message": "cannot write stdout: it is closed"}


def _error_names(cls) -> set[str]:
    return {cls.__name__}.union(*(_error_names(c) for c in cls.__subclasses__()))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# argv numbers: the non-finite spellings, floats of every magnitude, integers past any C type
_numbers = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e999", "0", "-1", "0.5", "2"]),
    st.floats().map(repr),
    st.integers(-10**30, 10**30).map(str),
)
_ids = st.sampled_from(["a", "b", "c", "d", "e", "\ufeffa"])
_labels = st.sampled_from(["bonafide", "spoof", "fake", "0", "genuine", "junk"])


def _text(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


@st.composite
def _protocol_and_scores(draw):
    """A protocol with both classes and a score file over mostly the same trial ids."""
    trial_ids = draw(st.lists(_ids, min_size=2, max_size=6, unique=True))
    more = draw(st.lists(_labels, min_size=len(trial_ids) - 2, max_size=len(trial_ids) - 2))
    trials = list(zip(trial_ids, draw(st.permutations(["bonafide", "spoof", *more]))))
    ids = [i for i in trial_ids if draw(st.integers(0, 9))]
    ids += [draw(_ids)] if draw(st.integers(0, 9)) == 0 else []
    plain = st.floats(-2.0, 2.0).map(repr)
    values = draw(st.lists(st.one_of(plain, plain, plain, _numbers), min_size=len(ids),
                           max_size=len(ids)))
    return _text(map(" ".join, trials)), _text(map(" ".join, zip(ids, values)))


_cell = st.one_of(st.floats(0.0, 1.0).map(repr), st.floats(0.0, 1.0).map(repr),
                  st.floats(1.0, 100.0).map(repr), _numbers)
_matrix_text = st.lists(st.lists(_cell, min_size=2, max_size=2), min_size=3, max_size=5).map(
    lambda rows: "sys,d1,d2\n" + _text(f"s{i},{','.join(r)}" for i, r in enumerate(rows)))
_audio_list_text = st.lists(st.sampled_from(["/a/x.wav", "/a/y.wav", "/b/x.wav", "# c", ""]),
                            max_size=4).map(_text)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return (build_wav_corpus(root / "in", n_files=2, seconds=0.05),
            build_interferer_dir(root / "src", n_files=1, seconds=0.1))


@given(data=st.data())
@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_every_subcommand_keeps_the_exit_and_payload_contract(data, small_corpus, echo_scorer):
    """Exit 0, 1 or 2; exit 1 writes one ArenaError record; stdout JSON is strict."""
    draw = data.draw
    command = draw(st.sampled_from(["eval", "pool", "correlate", "augment", "score"]))
    with tempfile.TemporaryDirectory() as tmp:
        made = iter(range(100))

        def file(text: str) -> str:
            path = Path(tmp) / f"f{next(made)}.txt"
            path.write_text(text, encoding="utf-8")
            return str(path)

        mode = draw(st.sampled_from(["strict", "intersect"]))
        if command == "eval":
            protocol, scores = draw(_protocol_and_scores())
            argv = ["eval", "--protocol", file(protocol), "--scores", file(scores), "--mode", mode]
            argv += draw(st.just([]) | _numbers.map(lambda n: [f"--threshold={n}"]))
        elif command == "pool":
            argv = ["pool", "--mode", mode]
            for protocol, scores in draw(st.lists(_protocol_and_scores(), min_size=1, max_size=2)):
                argv += ["--pair", file(protocol), file(scores)]
        elif command == "correlate":
            argv = ["correlate", "--matrix", file(draw(_matrix_text)), "--format", "json"]
            argv += draw(st.just([]) | _numbers.map(lambda n: [f"--bins={n}"]))
        elif command == "augment":
            in_dir, src = small_corpus
            argv = ["augment", "--in", str(in_dir), "--out", str(Path(tmp) / "out"),
                    "--category", draw(st.sampled_from(["noise", "reverb"])), "--source", str(src),
                    f"--seed={draw(st.integers(-10**30, 10**30).map(str) | _numbers)}"]
            if draw(st.booleans()):
                argv += [f"--snr-low={draw(_numbers)}", f"--snr-high={draw(_numbers)}"]
        else:
            not_executable = file("#!/bin/sh\n")
            cmd = draw(st.sampled_from([
                echo_scorer, "", "'", [not_executable], [tmp],
                echo_scorer + ["--invalid-utf8", "stdout"],
                echo_scorer + ["--invalid-utf8", "stderr", "--exit", "3"],
            ]))
            argv = ["score", "--cmd", cmd if isinstance(cmd, str) else shlex.join(cmd),
                    "--list", file(draw(_audio_list_text)),
                    f"--timeout={draw(st.floats(1.0, 30.0).map(repr) | _numbers)}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["error"] in _error_names(ArenaError), (argv, lines)
    if code == 2:
        assert out.getvalue() == ""
    elif command != "score" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
