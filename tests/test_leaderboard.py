import csv
import dataclasses
import fcntl
import io
import json
import multiprocessing
import os
import re
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from df_arena.errors import ManifestError, ProtocolError, StoreError
from df_arena.leaderboard import evaluate_arena
from df_arena.spec import load_manifest
from df_arena.store import (
    RECORD_VERSION,
    EvalReport,
    RunRecord,
    StoredRun,
    StoreIssue,
    SystemSummary,
    _check_record,
    emit,
    rank,
    store_append,
    store_list,
)

from conftest import (
    ARENA_EXPECTED_EER,
    ARENA_EXPECTED_POOLED,
    REFERENCE_SUMMARY,
    build_arena,
    golden_record,
    protocol_text,
    scores_text,
    write_text,
)


def _renamed(record, systems, datasets):
    """The record with its system ids, and the dataset ids in datasets, renamed."""
    summaries = tuple(
        dataclasses.replace(
            s,
            system_id=systems[s.system_id],
            per_dataset_eer={datasets.get(d, d): v for d, v in s.per_dataset_eer.items()},
            gap_datasets=tuple(datasets.get(d, d) for d in s.gap_datasets),
        )
        for s in record.summaries
    )
    dataset_ids = tuple(datasets.get(d, d) for d in record.dataset_ids)
    return dataclasses.replace(record, dataset_ids=dataset_ids, summaries=summaries)


@pytest.fixture
def arena_record(arena_manifest_path):
    return evaluate_arena(load_manifest(arena_manifest_path), tool_version="test")


def _summary(record, system_id):
    return next(s for s in record.summaries if s.system_id == system_id)


class TestEvaluateArena:
    def test_shapes(self, arena_record):
        assert len(arena_record.reports) == 9
        assert len(arena_record.summaries) == 3
        assert arena_record.dataset_ids == ("d1", "d2", "d3")

    def test_expected_metric_values(self, arena_record):
        for system, expected in ARENA_EXPECTED_EER.items():
            s = _summary(arena_record, system)
            assert s.average_eer == pytest.approx(expected, abs=1e-12)
            assert s.pooled_eer == pytest.approx(ARENA_EXPECTED_POOLED[system], abs=1e-12)
            assert set(s.per_dataset_eer) == {"d1", "d2", "d3"}

    def test_average_is_mean_of_per_dataset(self, arena_record):
        for s in arena_record.summaries:
            mean = sum(s.per_dataset_eer.values()) / len(s.per_dataset_eer)
            assert s.average_eer == pytest.approx(mean, abs=1e-12)

    def test_rerun_identical_up_to_run_id_and_timestamp(self, arena_manifest_path):
        manifest = load_manifest(arena_manifest_path)
        a = evaluate_arena(manifest, tool_version="test")
        b = evaluate_arena(manifest, tool_version="test")
        assert a.run_id != b.run_id
        assert a.reports == b.reports
        assert a.summaries == b.summaries
        assert a.manifest_digest == b.manifest_digest

    def test_single_pair_arena(self, tmp_path):
        write_text(tmp_path / "p.txt", protocol_text(["b1", "b2"], ["s1", "s2"]))
        write_text(tmp_path / "s.txt", scores_text({"b1": 2.0, "b2": 3.0, "s1": 0.0, "s2": 1.0}))
        manifest = {
            "manifest_version": 1,
            "options": {"default_polarity": "higher-is-bonafide"},
            "datasets": [{"dataset_id": "only", "protocol_path": "p.txt"}],
            "systems": [{"system_id": "solo", "scores": {"only": "s.txt"}}],
        }
        write_text(tmp_path / "m.json", json.dumps(manifest))
        record = evaluate_arena(load_manifest(tmp_path / "m.json"), tool_version="test")
        assert len(record.reports) == 1
        s = record.summaries[0]
        assert s.average_eer == s.pooled_eer == record.reports[0].eer == 0.0

    def test_error_annotated_with_system_and_dataset(self, tmp_path):
        build_arena(tmp_path)
        (tmp_path / "scores" / "sysA_d2.txt").write_text("b1 0.5\n", encoding="utf-8")
        with pytest.raises(Exception, match="sysA.*d2"):
            evaluate_arena(load_manifest(tmp_path / "manifest.json"), tool_version="test")

    def test_malformed_protocol_is_named_with_its_dataset(self, tmp_path):
        manifest = build_arena(tmp_path)
        protocol = write_text(tmp_path / "protocols" / "d2.txt", "b1 bonafide\nb2 spoof\nb3 maybe\n")
        message = f"dataset 'd2': {protocol}: line 3: unknown label token 'maybe'"
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            evaluate_arena(load_manifest(manifest), tool_version="test")

    def test_eer_matrix_from_record(self, arena_record):
        matrix = arena_record.eer_matrix()
        assert matrix.system_ids == ("sysA", "sysB", "sysC")
        assert matrix.dataset_ids == ("d1", "d2", "d3")
        assert list(matrix.average) == [
            pytest.approx(ARENA_EXPECTED_EER[s]) for s in matrix.system_ids
        ]

    def test_gap_handling(self, tmp_path):
        build_arena(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc["systems"][0]["scores"]["d2"]
        doc["options"]["allow_gaps"] = True
        write_text(tmp_path / "m.json", json.dumps(doc))
        record = evaluate_arena(load_manifest(tmp_path / "m.json"), tool_version="test")
        assert len(record.reports) == 8
        gapped = _summary(record, "sysA")
        assert gapped.gap_datasets == ("d2",)
        assert gapped.pooled_eer is None
        assert set(gapped.per_dataset_eer) == {"d1", "d3"}
        full = _summary(record, "sysB")
        assert full.pooled_eer is not None

    def test_gap_error_wins_over_unreadable_score_file(self, tmp_path):
        build_arena(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc["systems"][2]["scores"]["d3"]  # the last pair evaluated
        doc["options"]["allow_gaps"] = True
        write_text(tmp_path / "m.json", json.dumps(doc))
        manifest = dataclasses.replace(load_manifest(tmp_path / "m.json"), allow_gaps=False)
        first = tmp_path / "scores" / "sysA_d1.txt"  # the first pair evaluated
        first.unlink()
        first.mkdir()
        with pytest.raises(ManifestError, match="system 'sysC' has no scores for dataset 'd3'"):
            evaluate_arena(manifest, tool_version="test")


def _mk(system_id, avg, pooled, **kw):
    return SystemSummary(
        system_id=system_id,
        average_eer=avg,
        pooled_eer=pooled,
        per_dataset_eer={"d": avg},
        **kw,
    )


class TestRank:
    def test_reference_summary_order(self):
        summaries = [
            _mk(name, avg / 100.0, pooled / 100.0, param_count_millions=params)
            for name, (params, avg, pooled) in REFERENCE_SUMMARY.items()
        ]
        ranked = rank(summaries, key="pooled_eer")
        assert ranked[0].system_id == "Whispeak"
        assert ranked[0].pooled_eer == pytest.approx(0.03)
        assert ranked[-1].system_id == "Hubert-ECAPA"
        assert ranked[-1].pooled_eer == pytest.approx(0.4303)
        pooled_values = [s.pooled_eer for s in ranked]
        assert pooled_values == sorted(pooled_values)

    def test_divergent_orders(self, arena_record):
        by_avg = [s.system_id for s in rank(arena_record.summaries, key="average_eer")]
        by_pooled = [s.system_id for s in rank(arena_record.summaries, key="pooled_eer")]
        assert by_avg == ["sysA", "sysB", "sysC"]
        assert by_pooled == ["sysB", "sysA", "sysC"]

    def test_tie_broken_by_other_key_then_id(self):
        a = _mk("zeta", 0.2, 0.3)
        b = _mk("alpha", 0.1, 0.3)
        c = _mk("mid", 0.1, 0.3)
        ranked = rank([a, b, c], key="pooled_eer")
        assert [s.system_id for s in ranked] == ["alpha", "mid", "zeta"]

    def test_single_system(self):
        only = _mk("solo", 0.1, 0.2)
        assert rank([only]) == [only]

    def test_gap_systems_sort_last(self):
        gapped = _mk("gappy", 0.01, None, gap_datasets=("d",))
        solid = _mk("solid", 0.4, 0.4)
        assert [s.system_id for s in rank([gapped, solid])] == ["solid", "gappy"]

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="ranking key"):
            rank([_mk("a", 0.1, 0.1)], key="f1")

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30)
    def test_permutation_invariance(self, order):
        base = [
            _mk("a", 0.10, 0.30),
            _mk("b", 0.20, 0.30),
            _mk("c", 0.20, 0.10),
            _mk("d", 0.05, None, gap_datasets=("d",)),
            _mk("e", 0.20, 0.30),
            _mk("f", 0.01, 0.02),
        ]
        expected = [s.system_id for s in rank(base)]
        shuffled = [base[i] for i in order]
        assert [s.system_id for s in rank(shuffled)] == expected


class TestEmit:
    def test_markdown_shape_and_bold(self, arena_record):
        text = emit(arena_record, "markdown")
        lines = [l for l in text.splitlines() if l.startswith("|")]
        assert len(lines) == 2 + 3  # header + separator + 3 systems
        assert "**0.00**" in text  # best per-dataset cell is bold
        header = [c.strip() for c in lines[0].strip("|").split("|")]
        assert header[-2:] == ["Average", "Pooled"]
        assert header[:2] == ["System", "Category"]
        # ranked by pooled EER by default
        assert lines[2].split("|")[1].strip() == "sysB"

    def test_markdown_minimal_record_has_three_numeric_columns(self, tmp_path):
        write_text(tmp_path / "p.txt", protocol_text(["b1"], ["s1"]))
        write_text(tmp_path / "s.txt", scores_text({"b1": 1.0, "s1": 0.0}))
        manifest = {
            "manifest_version": 1,
            "options": {"default_polarity": "higher-is-bonafide"},
            "datasets": [{"dataset_id": "only", "protocol_path": "p.txt"}],
            "systems": [{"system_id": "solo", "scores": {"only": "s.txt"}}],
        }
        write_text(tmp_path / "m.json", json.dumps(manifest))
        record = evaluate_arena(load_manifest(tmp_path / "m.json"), tool_version="test")
        text = emit(record, "markdown")
        rows = [l for l in text.splitlines() if l.startswith("|")]
        assert len(rows) == 3  # header, separator, one data row
        cells = [c.strip() for c in rows[2].strip("|").split("|")]
        assert cells[0] == "solo"
        assert len(cells) == 1 + 3  # system + dataset, Average, Pooled

    def test_markdown_golden_bytes(self):
        assert emit(golden_record(), "markdown") == (
            "| System | Category | Params (M) | d1 | d2 | Average | Pooled |\n"
            "| --- | --- | --- | --- | --- | --- | --- |\n"
            "| sysB | - | 95.50 | **10.00** | 30.00 | 20.00 | **12.50** |\n"
            "| sysA | - | 0.00 | **10.00** | **20.00** | **15.00** | 15.00 |\n"
            "| sysC* | CNN | - | 30.00 | - | 30.00 | - |\n"
            "\n"
            "\\* evaluated with dataset gaps; average covers its datasets only and pooled EER is omitted.\n"
        )

    def test_csv_golden_bytes(self):
        assert emit(golden_record(), "csv") == (
            "system_id,category,param_count_millions,d1,d2,average_eer,pooled_eer\n"
            "sysB,,95.5,0.1,0.3,0.2,0.125\n"
            "sysA,,0.0,0.1,0.2,0.15,0.15\n"
            "sysC,CNN,,0.3,,0.3,\n"
        )

    def test_csv_quotes_ids_and_reads_back(self):
        systems = {"sysA": "sys,A", "sysB": 'say "B"', "sysC": "line\nbreak"}
        datasets = {"d1": "d,1", "d2": 'd"2'}
        plain = list(csv.reader(io.StringIO(emit(golden_record(), "csv"))))
        odd = list(csv.reader(io.StringIO(emit(_renamed(golden_record(), systems, datasets), "csv"))))
        assert odd[0] == [datasets.get(c, c) for c in plain[0]]
        assert [[systems[row[0]]] + row[1:] for row in plain[1:]] == odd[1:]
        assert {len(row) for row in odd} == {7}

    def test_csv_quotes_a_carriage_return_in_ids(self):
        renamed = _renamed(golden_record(), {"sysA": "sys\rA", "sysB": "sysB", "sysC": "sysC"}, {"d1": "d\r1"})
        rows = list(csv.reader(io.StringIO(emit(renamed, "csv"))))
        assert [len(row) for row in rows] == [7] * 4
        assert rows[0][3] == "d\r1" and rows[2][0] == "sys\rA"

    def test_markdown_escapes_pipes_in_ids(self):
        record = _renamed(golden_record(), {"sysA": "A|a", "sysB": "B|x|", "sysC": "|C"}, {"d1": "d|1"})
        record = dataclasses.replace(record, summaries=tuple(
            dataclasses.replace(s, category="CNN|LSTM") if s.category else s for s in record.summaries
        ))
        rows = [l for l in emit(record, "markdown").splitlines() if l.startswith("|")]
        cells = [re.split(r"(?<!\\)\|", row)[1:-1] for row in rows]
        assert {len(c) for c in cells} == {7}
        text = [[c.strip().replace("\\|", "|") for c in row] for row in cells]
        assert text[0][3] == "d|1"
        assert [row[0] for row in text[2:]] == ["B|x|", "A|a", "|C*"]
        assert text[4][1] == "CNN|LSTM"

    def test_markdown_percent_formatting(self, arena_record):
        text = emit(arena_record, "markdown")
        assert "33.33" in text  # sysA pooled EER = 1/3
        assert "25.00" in text

    def test_csv_full_precision(self, arena_record):
        text = emit(arena_record, "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["system_id"] == "sysB"
        assert float(row["pooled_eer"]) == 0.25
        sysa = dict(zip(header, lines[2].split(",")))
        assert float(sysa["pooled_eer"]) == 1.0 / 3.0  # repr round-trips exactly

    def test_json_round_trip_bit_for_bit(self, arena_record):
        text = emit(arena_record, "json")
        assert RunRecord.from_dict(json.loads(text)) == arena_record

    def test_unknown_format(self, arena_record):
        with pytest.raises(ValueError, match="format"):
            emit(arena_record, "xlsx")

    def test_gap_footnote(self, tmp_path):
        build_arena(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc["systems"][0]["scores"]["d2"]
        doc["options"]["allow_gaps"] = True
        write_text(tmp_path / "m.json", json.dumps(doc))
        record = evaluate_arena(load_manifest(tmp_path / "m.json"), tool_version="test")
        text = emit(record, "markdown")
        assert "sysA*" in text
        assert "dataset gaps" in text


class TestStore:
    def test_append_then_list(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        store_append(store, arena_record)
        runs, issues = store_list(store)
        assert not issues
        assert runs == [StoredRun(arena_record.run_id, arena_record.timestamp, arena_record.manifest_digest,
                                  arena_record.tool_version, n_systems=3, n_datasets=3)]
        (line,) = store.read_bytes().splitlines()
        assert RunRecord.from_dict(json.loads(line)) == arena_record

    def test_to_json_equals_the_asdict_encoding(self, arena_record):
        # gaps, a None pooled EER, params and categories (None, "" and a name); a computed record
        for record in (_SCHEMA_RECORD, arena_record):
            assert record.to_json() == json.dumps(dataclasses.asdict(record), sort_keys=True, allow_nan=False)

    def test_append_order_preserved(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        second = dataclasses.replace(arena_record, run_id="second")
        store_append(store, arena_record)
        store_append(store, second)
        records, _ = store_list(store)
        assert [r.run_id for r in records] == [arena_record.run_id, "second"]

    def test_blank_lines_between_records_are_skipped(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        store_append(store, arena_record)
        with open(store, "ab") as fh:
            fh.write(b"\n   \n\t\r\n")
        store_append(store, dataclasses.replace(arena_record, run_id="second"))
        with open(store, "ab") as fh:
            fh.write(b" \n")
        runs, issues = store_list(store)
        assert [r.run_id for r in runs] == [arena_record.run_id, "second"]
        assert issues == []

    def test_corrupt_line_reported_with_offset(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        store_append(store, arena_record)
        first_len = store.stat().st_size
        with open(store, "ab") as fh:
            fh.write(b"{this is garbage}\n")
        store_append(store, dataclasses.replace(arena_record, run_id="after"))
        records, issues = store_list(store)
        assert [r.run_id for r in records] == [arena_record.run_id, "after"]
        assert len(issues) == 1
        assert issues[0].line_number == 2
        assert issues[0].byte_offset == first_len

    @pytest.mark.parametrize("case, named", [
        ("reports-object", "reports must be a list"),
        ("reports-string", "reports must be a list"),
        ("report-key-added", "reports[0]"),
        ("report-key-removed", "reports[1]"),
        ("summary-not-object", "summaries[2]"),
        ("gap-datasets-string", "summaries[0].gap_datasets"),
        ("invalid-utf-8", "UnicodeDecodeError"),
    ])
    def test_schema_breach_is_an_issue_and_a_rejection(self, tmp_path, arena_record, case, named):
        doc = json.loads(arena_record.to_json())
        if case == "reports-object":
            doc["reports"] = {}
        elif case == "reports-string":
            doc["reports"] = ""
        elif case == "report-key-added":
            doc["reports"][0]["eer_ci"] = [0.1, 0.2]
        elif case == "report-key-removed":
            del doc["reports"][1]["auc"]
        elif case == "summary-not-object":
            doc["summaries"][2] = "sysC"
        elif case == "gap-datasets-string":
            doc["summaries"][0]["gap_datasets"] = "ab"
        line = json.dumps(doc).encode("utf-8")
        if case == "invalid-utf-8":
            line = line.replace(b'"tool_version": "test"', b'"tool_version": "te\xffst"')
        store = tmp_path / "runs.jsonl"
        store_append(store, arena_record)
        with open(store, "ab") as fh:
            fh.write(line + b"\n")
        runs, issues = store_list(store)
        assert [r.run_id for r in runs] == [arena_record.run_id]
        assert [i.line_number for i in issues] == [2]
        assert named in issues[0].reason
        with pytest.raises((TypeError, ValueError)):
            RunRecord.from_dict(json.loads(line))

    @given(data=st.data())
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_listing_agrees_with_from_dict(self, tmp_path, data):
        """One field dropped, added or retyped: listed exactly when from_dict accepts the line."""
        doc = json.loads(_SCHEMA_RECORD.to_json())
        part = data.draw(st.sampled_from(["header", "reports", "summaries"]))
        target = doc if part == "header" else data.draw(st.sampled_from(doc[part]))
        action = data.draw(st.sampled_from(["drop", "add", "retype"]))
        if action == "drop":
            del target[data.draw(st.sampled_from(sorted(target)))]
        elif action == "add":
            target[data.draw(st.text(max_size=12))] = data.draw(_json_values)
        else:
            target[data.draw(st.sampled_from(sorted(target)))] = data.draw(_json_values)
        line = json.dumps(doc).encode("utf-8")
        store = tmp_path / "runs.jsonl"
        store.write_bytes(line + b"\n")
        runs, issues = store_list(store)
        try:
            record = RunRecord.from_dict(json.loads(line))
        except (KeyError, TypeError, ValueError):
            assert (runs, len(issues)) == ([], 1)
        else:
            assert issues == []
            assert runs == [StoredRun(record.run_id, record.timestamp, record.manifest_digest,
                                      record.tool_version, len(record.summaries), len(record.dataset_ids))]

    @given(data=st.data())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_listing_equals_the_full_decode_reference(self, tmp_path, data):
        """Any one value set to any JSON type, or any key deleted: the same runs and issues as a
        listing that decodes every float."""
        lines = [_SCHEMA_RECORD.to_json().encode("utf-8")]
        for _ in range(data.draw(st.integers(1, 2), label="mutated lines")):
            doc = json.loads(_SCHEMA_RECORD.to_json())
            path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_mutant_values, label="value")
            lines.append(json.dumps(doc).encode("utf-8"))
        store = tmp_path / "runs.jsonl"
        store.write_bytes(b"".join(line + b"\n" for line in lines))
        runs, issues = store_list(store)
        assert (runs, issues) == _full_decode_listing(lines)

    @pytest.mark.parametrize("mutate, reason", [
        (lambda doc: doc.update(run_id=1.5), "TypeError: run_id must be a string, got float"),
        (lambda doc: doc.update(dataset_ids=[0.5]), "TypeError: dataset_ids must be a list of strings"),
        (lambda doc: doc["summaries"][2].update(gap_datasets=[2.5]),
         "TypeError: summaries[2].gap_datasets must be a list of strings"),
        (lambda doc: doc.update(record_version=1.0), "TypeError: record_version must be an integer >= 1, got 1.0"),
        (lambda doc: doc.update(reports=1.5), "TypeError: reports must be a list, got float"),
    ], ids=["run-id", "dataset-ids-item", "gap-datasets-item", "record-version", "reports"])
    def test_float_where_the_schema_reads_a_value_is_named_as_float(self, tmp_path, mutate, reason):
        doc = json.loads(_SCHEMA_RECORD.to_json())
        mutate(doc)
        line = json.dumps(doc).encode("utf-8")
        store = tmp_path / "runs.jsonl"
        store.write_bytes(line + b"\n")
        assert store_list(store) == ([], [StoreIssue(1, 0, reason)])
        assert _full_decode_listing([line]) == ([], [StoreIssue(1, 0, reason)])

    def test_newer_record_version_reported_not_loaded(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        store_append(store, arena_record)
        future = {**json.loads(arena_record.to_json()), "run_id": "future", "record_version": RECORD_VERSION + 98}
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(future) + "\n")
        store_append(store, dataclasses.replace(arena_record, run_id="after"))
        records, issues = store_list(store)
        assert [r.run_id for r in records] == [arena_record.run_id, "after"]
        assert len(issues) == 1
        assert issues[0].line_number == 2
        assert "record_version 99" in issues[0].reason

    def test_missing_store_is_empty(self, tmp_path):
        records, issues = store_list(tmp_path / "absent.jsonl")
        assert records == [] and issues == []

    def test_append_grows_the_store_in_place(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        store_append(store, arena_record)
        before_bytes, before_ino = store.read_bytes(), store.stat().st_ino
        second = dataclasses.replace(arena_record, run_id="second")
        store_append(store, second)
        assert store.stat().st_ino == before_ino
        assert store.read_bytes() == before_bytes + (second.to_json() + "\n").encode("utf-8")

    def test_append_leaves_no_sidecar_files(self, tmp_path, arena_record):
        store = tmp_path / "store" / "runs.jsonl"
        store_append(store, arena_record)
        store_append(store, dataclasses.replace(arena_record, run_id="second"))
        assert os.listdir(store.parent) == ["runs.jsonl"]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_append_after_torn_tail_keeps_the_new_record(self, tmp_path, arena_record, data):
        store = tmp_path / "runs.jsonl"
        store.unlink(missing_ok=True)
        earlier = [f"run{i}" for i in range(data.draw(st.integers(0, 2), label="earlier runs"))]
        for run_id in earlier:
            store_append(store, dataclasses.replace(arena_record, run_id=run_id))
        torn_at = store.stat().st_size if earlier else 0
        store_append(store, dataclasses.replace(arena_record, run_id="torn"))
        size = store.stat().st_size
        # the last line is bytes [torn_at, size): its JSON text, then b"\n"
        cut = data.draw(st.integers(torn_at, size - 1) | st.just(size - 40), label="cut")
        os.truncate(store, cut)
        listed = earlier + (["torn"] if cut == size - 1 else [])
        torn = [(len(earlier) + 1, torn_at)] if torn_at < cut < size - 1 else []
        records, issues = store_list(store)
        assert [r.run_id for r in records] == listed
        assert [(i.line_number, i.byte_offset) for i in issues] == torn
        store_append(store, dataclasses.replace(arena_record, run_id="new"))
        records, issues = store_list(store)
        assert [r.run_id for r in records] == listed + ["new"]
        assert [(i.line_number, i.byte_offset) for i in issues] == torn

    def test_parent_path_is_a_file_is_store_error(self, tmp_path, arena_record):
        write_text(tmp_path / "not-a-dir", "x")
        with pytest.raises(StoreError, match="not-a-dir"):
            store_append(tmp_path / "not-a-dir" / "runs.jsonl", arena_record)

    def test_unreadable_store_is_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="cannot read store"):
            store_list(tmp_path)

    def test_deeply_nested_line_is_an_issue(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        store_append(store, arena_record)
        with open(store, "ab") as fh:
            fh.write(b"[" * 200_000 + b"\n")
        store_append(store, dataclasses.replace(arena_record, run_id="after"))
        records, issues = store_list(store)
        assert [r.run_id for r in records] == [arena_record.run_id, "after"]
        assert [i.line_number for i in issues] == [2]
        assert issues[0].reason.startswith("RecursionError")

    def test_reader_waits_for_an_append_in_progress(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        store_append(store, arena_record)
        line = (dataclasses.replace(arena_record, run_id="second").to_json() + "\n").encode("utf-8")
        result = {}
        with open(store, "ab") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.write(line[:100])
            fh.flush()
            reader = threading.Thread(target=lambda: result.update(listed=store_list(store)))
            reader.start()
            reader.join(timeout=0.3)
            assert reader.is_alive()
            fh.write(line[100:])
            fh.flush()
            fcntl.flock(fh, fcntl.LOCK_UN)
        reader.join(timeout=30)
        assert not reader.is_alive()
        records, issues = result["listed"]
        assert [r.run_id for r in records] == [arena_record.run_id, "second"]
        assert not issues

    def test_concurrent_appenders_lose_nothing(self, tmp_path, arena_record):
        store = tmp_path / "runs.jsonl"
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_append_five, args=(store, arena_record, w)) for w in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(not p.is_alive() and p.exitcode == 0 for p in procs)
        records, issues = store_list(store)
        assert not issues
        assert sorted(r.run_id for r in records) == sorted(f"w{w}-{i}" for w in range(4) for i in range(5))


# golden_record() with two reports, so every part of the schema has fields to mutate
_SCHEMA_RECORD = dataclasses.replace(golden_record(), reports=(
    EvalReport("sysA", "d1", 0.1, 0.5, 0.9, 0.9, 0.9, 0.5, 90, 210),
    EvalReport("sysC", "d1", 0.3, -0.5, 0.7, 0.7, 0.6, -0.5, 90, 210),
))

_mutant_values = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.one_of(st.floats(), st.integers(-2, 2), st.none(), st.text(max_size=2)), max_size=2),
    st.dictionaries(st.text(max_size=2), st.one_of(st.floats(), st.integers(0, 2)), max_size=2),
)


def _json_paths(node, prefix=()):
    """The key path to every value below node, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _full_decode_listing(lines):
    """What store_list must give for these lines, from json.loads and _check_record alone."""
    runs, issues, offset = [], [], 0
    for lineno, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line)
            _check_record(doc)
        except (ValueError, KeyError, TypeError) as e:
            issues.append(StoreIssue(lineno, offset, f"{type(e).__name__}: {e}"))
        else:
            runs.append(StoredRun(doc["run_id"], doc["timestamp"], doc["manifest_digest"], doc["tool_version"],
                                  len(doc["summaries"]), len(doc["dataset_ids"])))
        offset += len(line) + 1
    return runs, issues


_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3), st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


def _append_five(store, record, worker):
    for i in range(5):
        store_append(store, dataclasses.replace(record, run_id=f"w{worker}-{i}"))
