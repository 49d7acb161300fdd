"""Tests of the benchmark itself: seeded inputs, output checks, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "arena-large": {"kind": "arena", "format": "json", "jobs": 2, "shape": {
        "systems": 3, "datasets": 2, "trials": 300, "layout": "two-column", "join": "strict"}},
    "arena-wide": {"kind": "arena", "format": "markdown", "jobs": 1, "shape": {
        "systems": 6, "datasets": 3, "trials": 120, "layout": "asvspoof", "join": "intersect",
        "missing": 0.05, "extra": 0.02, "decimals": 2, "spoof_polarity_every": 2,
        "gap_systems": 1, "store_records": 3}},
    "augment-noise": {"kind": "augment", "jobs": 1, "shape": {
        "category": "noise", "utterances": 4, "utterance_s": 0.5, "sources": 2, "source_s": 2.0}},
    "augment-reverb": {"kind": "augment", "jobs": 1, "shape": {
        "category": "reverb", "utterances": 4, "utterance_s": 0.5, "sources": 2, "source_s": 0.05}},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "MIN_REPEATS", 1)
    monkeypatch.setattr(run, "VERSION_SAMPLES", 1)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_same_input_hash(name, tmp_path):
    make = gen.make_arena if TINY[name]["kind"] == "arena" else gen.make_corpus
    shape = TINY[name]["shape"]
    make(tmp_path / "a", shape, 7)
    make(tmp_path / "b", shape, 7)
    make(tmp_path / "c", shape, 8)
    a, b, c = (gen.describe_inputs(tmp_path / d) for d in "abc")
    assert a == b
    assert a["sha256"] != c["sha256"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_clean_run_passes_and_reports_every_metric(name, trace, tiny, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = _last_json(capsys)
    wanted = {m["name"] for m in run.BENCH["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _ok_ratio_bound() -> float:
    return next(m["bound"] for m in run.BENCH["end_to_end"] if m["name"] == "ok_ratio")


def test_flipped_score_file_fails(tiny, monkeypatch, capsys):
    make_arena = gen.make_arena

    def make_and_flip(root, shape, seed):
        truth = make_arena(root, shape, seed)
        path = next((root / "scores").iterdir())
        lines = [line.split() for line in path.read_text().splitlines()]
        path.write_text("".join(f"{tid} {-float(v)!r}\n" for tid, v in lines))
        return truth

    monkeypatch.setattr(gen, "make_arena", make_and_flip)
    assert run.main(["--workload", "arena-large", "--seed", "3", "--seconds", "0"]) == 1
    result = _last_json(capsys)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert 1 - result["metrics"]["ok_ratio"]["value"] > _ok_ratio_bound()


def test_corrupted_augment_output_moves_ok_ratio_beyond_its_bound(tiny, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_REPEATS", 3)
    original = run.AugmentWorkload.check

    def corrupt_then_check(self, stdout, history, tally, rep):
        out = self.work / "state" / "out" / self.truth.utterances[0]
        samples = gen.read_pcm16(out)
        out.write_bytes(gen.wav_bytes(samples[::-1]))
        return original(self, stdout, history, tally, rep)

    monkeypatch.setattr(run.AugmentWorkload, "check", corrupt_then_check)
    assert run.main(["--workload", "augment-noise", "--seed", "3", "--seconds", "0"]) == 1
    result = _last_json(capsys)
    assert result["failed"] == 3  # the output check of each repeat
    assert 1 - result["metrics"]["ok_ratio"]["value"] > _ok_ratio_bound()


def test_missing_sources_exit_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "arena-large", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _df_arena_namespaces() -> dict[str, dict]:
    import df_arena

    modules = [df_arena] + [importlib.import_module(f"df_arena.{m.name}")
                            for m in pkgutil.iter_modules(df_arena.__path__)]
    return {m.__name__: dict(vars(m)) for m in modules}


def _assert_same(before: dict[str, dict]) -> None:
    after = _df_arena_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        changed = [k for k, v in namespace.items() if after[name][k] is not v]
        assert not changed, (name, changed)


def test_tracer_restores_every_attribute_on_error():
    before = _df_arena_namespaces()
    recorder = tracer.SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracer.traced(recorder):
            import df_arena.leaderboard

            assert df_arena.leaderboard.parse_scores is not before["df_arena.leaderboard"]["parse_scores"]
            raise RuntimeError("fail inside the traced block")
    _assert_same(before)


def test_traced_command_records_spans_and_restores(tmp_path, monkeypatch):
    truth = gen.make_arena(tmp_path / "inputs", TINY["arena-large"]["shape"], 5)
    monkeypatch.chdir(tmp_path)
    before = _df_arena_namespaces()
    spans_path = tmp_path / "spans.json"
    code = tracer.main([str(spans_path), "--", "leaderboard", "--manifest", "inputs/manifest.json",
                        "--format", "json", "--jobs", "2", "--store", "store.jsonl", "--out", "lb.json"])
    assert code == 0
    _assert_same(before)
    doc = json.loads(spans_path.read_text())
    assert doc["errors"] == []
    spans = doc["spans"]
    names = [s["name"] for s in spans]
    assert names.count("metrics.evaluate") == len(truth.pairs)
    by_id = {s["id"]: s for s in spans}
    arena = next(s for s in spans if s["name"] == "leaderboard.evaluate_arena")
    for s in spans:
        if s["name"] in ("protocol.parse_scores", "protocol.join", "metrics.evaluate"):
            assert s["parent"] == arena["id"]  # also from pool worker threads
            assert arena["start"] <= s["start"] <= s["end"] <= arena["end"]
    assert by_id[arena["parent"]]["name"] == "cli.main"
    values = run.layer_values([spans], jobs=2)
    assert values["protocol.parse_scores_lines"] == truth.joined_trials
    assert values["protocol.join_kept_ratio"] == 1.0
    assert 0 < values["leaderboard.pool_busy_ratio"] <= 1.0
    assert values["leaderboard.store_append_write_bytes"] > 0


def test_eer_and_auc_match_df_arena():
    from df_arena.metrics import auc, eer, roc

    rng = np.random.default_rng(0)
    for decimals in (None, 1):
        bona, spoof = rng.normal(1, 1, 500), rng.normal(0, 1, 700)
        if decimals is not None:
            bona, spoof = np.round(bona, decimals), np.round(spoof, decimals)
        rows = [("bonafide", float(v)) for v in bona] + [("spoof", float(v)) for v in spoof]
        curve = roc(rows)
        assert check.eer(bona, spoof) == pytest.approx(eer(curve)[0], abs=check.TOL)
        assert check.auc(bona, spoof) == pytest.approx(auc(curve), abs=check.TOL)


def test_union_length_merges_overlaps():
    assert run._union_length([(0, 2), (1, 3), (5, 6), (-1, 0.5)], 0, 5.5) == pytest.approx(3.5)


def test_layers_json_explains_every_metric_and_workload():
    layers = json.loads((Path(run.__file__).with_name("layers.json")).read_text())
    assert [m["name"] for m in run.BENCH["per_layer"]] == list(layers["per_layer"])
    assert [m["name"] for m in run.BENCH["end_to_end"]] == list(layers["end_to_end"])
    assert [w["name"] for w in run.BENCH["workloads"]] == list(run.WORKLOADS) == list(layers["workloads"])
