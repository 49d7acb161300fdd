"""scripts/bench_pairs.py: parsing run.py's output and judging pairs, on canned output only."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]

# stdout of `perfbench/run.py --workload arena-large --seed 1 --seconds 1 --trace 0`
CANNED = """\
{"header": {"workload": "arena-large", "seed": 1, "seconds": 1.0, "trace": 0, "jobs": 2, "cpu_count": 2, "repeats": 3}}
arena-large     run_s                                          0.513137 s
arena-large     cpu_s                                           0.51223 s
arena-large     throughput                                       584639 1/s
arena-large     history_s                                     0.0787212 s
arena-large     peak_rss_mb                                     56.7891 MB
arena-large     setup_s                                       0.0590617 s
arena-large     ok_ratio                                              1 ratio
arena-large     failed_ratio                                          0 ratio
{"correct": true, "attempted": 14, "failed": 0, "metrics": {"run_s": {"value": 0.5131373440017342, "unit": "s"}, \
"cpu_s": {"value": 0.51223, "unit": "s"}, "throughput": {"value": 584638.7979881389, "unit": "1/s"}, \
"history_s": {"value": 0.07872118500381475, "unit": "s"}, "peak_rss_mb": {"value": 56.7890625, "unit": "MB"}, \
"setup_s": {"value": 0.05906166500062682, "unit": "s"}, "ok_ratio": {"value": 1.0, "unit": "ratio"}}}
"""


def test_parse_run_reads_the_header_and_the_summary_line():
    header, values, correct = bench_pairs.parse_run(CANNED)
    assert header["workload"] == "arena-large" and header["repeats"] == 3
    assert values == {"run_s": 0.5131373440017342, "cpu_s": 0.51223, "throughput": 584638.7979881389,
                      "history_s": 0.07872118500381475, "peak_rss_mb": 56.7890625,
                      "setup_s": 0.05906166500062682, "ok_ratio": 1.0}
    assert correct is True
    assert sorted(values) == sorted(m["name"] for m in END_TO_END)


def test_parse_run_reads_a_run_whose_checks_failed():
    failed = CANNED.replace('"correct": true', '"correct": false').replace(
        "arena-large     failed_ratio", "arena-large     FAILED primary: exit 1\narena-large     failed_ratio")
    assert bench_pairs.parse_run(failed)[2] is False


@pytest.mark.parametrize("text", ["", "\n", CANNED.splitlines()[0] + "\n", "\n".join(CANNED.splitlines()[1:])])
def test_parse_run_refuses_output_without_a_header_or_a_summary(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_run(text)


def test_quartiles_interpolate_between_the_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


PARENT = [0.100, 0.102, 0.098, 0.101, 0.099, 0.103, 0.097, 0.100, 0.101, 0.099]


def test_a_gain_needs_nine_wins_in_ten_and_a_median_gap_beyond_the_parents_iqr():
    change = [0.065] * 9 + [0.104]  # pair 10 is a loss
    v = bench_pairs.judge(PARENT, change, "lower", 0.25)
    assert (v["wins"], v["pairs"], v["verdict"]) == (9, 10, "GAIN")
    assert v["parent_median"] == pytest.approx(0.100) and v["change_median"] == 0.065
    assert v["parent_iqr"] == pytest.approx(0.101 - 0.099)
    assert v["change"] == pytest.approx(-0.35)


def test_eight_wins_in_ten_is_no_gain():
    change = [0.065] * 8 + [0.104, 0.104]
    assert bench_pairs.judge(PARENT, change, "lower", 0.25)["verdict"] == "within bound"


def test_a_gap_inside_the_parents_iqr_is_no_gain():
    change = [p - 0.0005 for p in PARENT]  # wins every pair by less than the parent's spread
    v = bench_pairs.judge(PARENT, change, "lower", 0.25)
    assert (v["wins"], v["verdict"]) == (10, "within bound")


def test_ties_count_for_neither_side():
    v = bench_pairs.judge(PARENT, list(PARENT), "lower", 0.25)
    assert (v["wins"], v["change"], v["verdict"]) == (0, 0.0, "within bound")


@pytest.mark.parametrize("better, factor, verdict", [
    ("lower", 1.26, "REGRESSION"), ("lower", 1.24, "within bound"),
    ("higher", 0.74, "REGRESSION"), ("higher", 0.76, "within bound"), ("higher", 1.5, "GAIN"),
])
def test_the_bound_is_a_share_of_the_parents_median_in_the_metrics_direction(better, factor, verdict):
    assert bench_pairs.judge(PARENT, [p * factor for p in PARENT], better, 0.25)["verdict"] == verdict


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert bench_pairs.judge(parent, list(parent), "lower", 0.25)["verdict"] == "unresolved"


def test_judge_all_judges_every_end_to_end_metric():
    _, values, _ = bench_pairs.parse_run(CANNED)
    faster = {**values, "setup_s": values["setup_s"] * 0.6}
    runs = {"parent": [values] * 10, "change": [faster] * 10}
    verdicts = bench_pairs.judge_all(runs, END_TO_END)
    assert list(verdicts) == [m["name"] for m in END_TO_END]
    assert {k: v["verdict"] for k, v in verdicts.items() if v["verdict"] != "within bound"} == {"setup_s": "GAIN"}
    table = bench_pairs.format_table(verdicts, {m["name"]: m["unit"] for m in END_TO_END}).splitlines()
    assert table[0].split() == ["metric", "unit", "parent", "parent", "IQR", "change", "change", "%", "wins",
                                "verdict"]
    setup = next(line for line in table if line.startswith("setup_s"))
    assert setup.split() == ["setup_s", "s", "0.0590617", "0", "0.035437", "-40.0", "10/10", "GAIN"]
    assert len(table) == 1 + len(END_TO_END)


def test_record_writes_the_revision_the_header_and_every_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    header, values, _ = bench_pairs.parse_run(CANNED)
    args = bench_pairs.argparse.Namespace(workload="arena-large", seed=1, seconds=27.0, pairs=2)
    runs = [values, {**values, "setup_s": 0.07}]
    path = bench_pairs.record("demo", "change", "0123abcd", args, header, runs)
    assert path == Path("BENCH_demo-change.json")
    doc = json.loads((tmp_path / path).read_text())
    assert (doc["revision"], doc["side"], doc["workload"], doc["seed"], doc["pairs"]) == (
        "0123abcd", "change", "arena-large", 1, 2)
    assert doc["header"] == header and doc["runs"] == runs
    assert doc["metrics"]["setup_s"] == pytest.approx((0.05906166500062682 + 0.07) / 2)
    assert isinstance(doc["cpu_count"], int)
