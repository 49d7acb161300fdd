"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s tests/test_acceptance.py``).

Every golden value asserted here was first computed with the independent
oracles in ``oracles.py`` (pure-Python brute force or closed form); the
oracle result is re-derived inline so a regression in either side shows up.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from df_arena.augment import augment_corpus
from df_arena.cli import main
from df_arena.metrics import auc, eer, pooled_eer, roc
from df_arena.spec import DEFAULT_SNR_RANGES, AugmentSpec
from df_arena.stats import (
    ccc,
    distance_correlation,
    kendall_tau,
    load_matrix_csv,
    pearson,
    spearman,
)
from df_arena.wavio import read_wav

from conftest import (
    OPEN_SOURCE_SYSTEMS,
    build_arena,
    build_interferer_dir,
    build_wav_corpus,
)
from oracles import (
    brute_force_eer,
    ccc_by_hand,
    distance_correlation_by_hand,
    kendall_tau_by_hand,
    normal_cdf,
    pearson_by_hand,
    rms_by_hand,
    spearman_by_hand,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def joined(bona, spoof):
    return [("bonafide", s) for s in bona] + [("spoof", s) for s in spoof]


def test_criterion_01_reference_average_eer(reference_grid_path):
    with criterion("01 reference-grid average EER reproduction"):
        start = time.perf_counter()
        matrix = load_matrix_csv(reference_grid_path)
        averages = dict(zip(matrix.system_ids, matrix.average * 100.0))
        assert abs(averages["XLSR+SLS"] - 13.84) <= 0.01
        assert abs(averages["Whispeak"] - 3.05) <= 0.01
        assert time.perf_counter() - start < 1.0


def test_criterion_02_eer_oracle_equivalence():
    with criterion("02 EER brute-force oracle equivalence (1000 instances)"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240202)
        for i in range(1000):
            n_bona = int(rng.integers(5, 51))
            n_spoof = int(rng.integers(5, 51))
            if i % 2 == 0:  # coarse grid forces within- and cross-class ties
                bona = rng.integers(-12, 13, n_bona) / 4.0
                spoof = rng.integers(-12, 13, n_spoof) / 4.0
            else:
                bona = rng.normal(0.5, 1.0, n_bona)
                spoof = rng.normal(-0.5, 1.0, n_spoof)
            got_eer, got_thr = eer(roc(joined(bona, spoof)))
            want_eer, want_thr = brute_force_eer(bona, spoof)
            assert abs(got_eer - want_eer) <= 1e-12, (i, got_eer, want_eer)
            assert abs(got_thr - want_thr) <= 1e-12, (i, got_thr, want_thr)
        assert time.perf_counter() - start < 10.0


def test_criterion_03_analytic_gaussian_checks():
    with criterion("03 analytic Gaussian EER/AUC checks"):
        start = time.perf_counter()
        # separation d' = 2: EER = Phi(-1), AUC = Phi(2/sqrt(2))
        assert abs(normal_cdf(-1.0) - 0.1587) < 5e-5
        assert abs(normal_cdf(math.sqrt(2.0)) - 0.9214) < 5e-5
        rng = np.random.default_rng(31337)
        n = 100_000
        bona = rng.normal(1.0, 1.0, n)
        spoof = rng.normal(-1.0, 1.0, n)
        curve = roc(joined(bona, spoof))
        empirical_eer, _ = eer(curve)
        empirical_auc = auc(curve)
        assert abs(empirical_eer - 0.1587) <= 0.005
        assert abs(empirical_auc - 0.9214) <= 0.003
        assert time.perf_counter() - start < 5.0


def test_criterion_04_pooled_eer_divergence_and_identity():
    with criterion("04 pooled-EER scale-mismatch and duplication identity"):
        a = joined([10.0, 9.0], [1.0, 2.0])
        b = joined([0.6, 0.5], [0.4, 0.3])
        assert eer(roc(a))[0] == 0.0
        assert eer(roc(b))[0] == 0.0
        assert pooled_eer([a, b])[0] == 0.5
        assert brute_force_eer([10, 9, 0.6, 0.5], [1, 2, 0.4, 0.3])[0] == 0.5

        rng = np.random.default_rng(7777)
        rows = joined(rng.normal(0.4, 1.0, 40), rng.normal(-0.4, 1.0, 40))
        single = eer(roc(rows))[0]
        for k in (1, 2, 5):
            assert pooled_eer([rows] * k)[0] == single


MONOTONE_MAPS = (np.exp, lambda x: 3.0 * x + 7.0, lambda x: x**3)


def test_criterion_05_monotone_invariance_suite():
    with criterion("05 monotone-invariance of EER and AUC (100 instances)"):
        rng = np.random.default_rng(55555)
        for _ in range(100):
            n_bona = int(rng.integers(3, 25))
            n_spoof = int(rng.integers(3, 25))
            pool = rng.choice(np.arange(-120, 121), size=n_bona + n_spoof, replace=False) / 8.0
            bona, spoof = pool[:n_bona], pool[n_bona:]
            base_curve = roc(joined(bona, spoof))
            base_eer = eer(base_curve)[0]
            base_auc = auc(base_curve)
            for f in MONOTONE_MAPS:
                mapped = roc(joined(f(bona), f(spoof)))
                assert eer(mapped)[0] == base_eer
                assert auc(mapped) == base_auc


def test_criterion_06_correlation_golden_values():
    with criterion("06 correlation golden values vs in-repo oracles"):
        # pearson([1,2,3,4],[1,3,2,5]): the covariance/sigma hand computation
        # gives 11/(5*sqrt(7)) = 0.83152..., confirmed by the independent
        # oracle; that verified value is the frozen golden. (The nearby
        # single-transposition input [1,3,2,4] is the case whose value is
        # exactly 0.8, also confirmed and asserted below.)
        x, y = [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0]
        want = 11.0 / (5.0 * math.sqrt(7.0))
        assert abs(pearson_by_hand(x, y) - want) <= 1e-12
        assert abs(pearson(x, y) - want) <= 1e-9

        xt, yt = [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]
        assert abs(pearson_by_hand(xt, yt) - 0.8) <= 1e-12
        assert abs(pearson(xt, yt) - 0.8) <= 1e-9

        assert abs(kendall_tau_by_hand([1, 2, 3], [3, 1, 2]) - (-1.0 / 3.0)) <= 1e-12
        assert abs(kendall_tau([1, 2, 3], [3, 1, 2]) - (-1.0 / 3.0)) <= 1e-9

        assert abs(spearman_by_hand([1, 2, 3], [3, 1, 2]) - (-0.5)) <= 1e-12
        assert abs(spearman([1, 2, 3], [3, 1, 2]) - (-0.5)) <= 1e-9

        cx = [-math.sqrt(2.0), math.sqrt(2.0)]  # population variance exactly 2
        cy = [v + 10.0 for v in cx]
        assert abs(ccc_by_hand(cx, cy) - 1.0 / 26.0) <= 1e-12
        assert abs(ccc(cx, cy) - 1.0 / 26.0) <= 1e-9

        z = [0.3, 1.7, 2.9, 4.1, 9.0]
        assert abs(distance_correlation_by_hand(z, z) - 1.0) <= 1e-12
        assert abs(distance_correlation(z, z) - 1.0) <= 1e-9


def test_criterion_07_qualitative_correlation_ordering(capsys, reference_grid_path):
    with criterion("07 qualitative dataset-correlation ordering via cmd_correlate"):
        code = main(
            [
                "correlate",
                "--matrix", str(reference_grid_path),
                "--systems", ",".join(OPEN_SOURCE_SYSTEMS),
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        pearson_col = {ds: doc["datasets"][ds]["pearson"] for ds in doc["datasets"]}
        assert pearson_col["LibriSeVoc"] > pearson_col["ASVspoof2019"]
        assert pearson_col["LibriSeVoc"] > pearson_col["CodecFake"]


def test_criterion_08_snr_fidelity(tmp_path):
    with criterion("08 augmentation SNR fidelity (>=200 seeded 3s mixes)"):
        start = time.perf_counter()
        in_dir = build_wav_corpus(tmp_path / "in", n_files=67, seconds=3.0, amplitude=0.05)
        src = build_interferer_dir(tmp_path / "src", n_files=3, seconds=1.0, amplitude=0.1)
        total = 0
        for category in ("noise", "music", "speech"):
            spec = AugmentSpec(category, src, seed=808)
            summary = augment_corpus(in_dir, tmp_path / f"out_{category}", spec, jobs=4)
            assert not summary.failures
            low, high = DEFAULT_SNR_RANGES[category]
            for entry in summary.entries:
                total += 1
                assert low <= entry.snr_db <= high
                assert entry.scale == 1.0  # levels chosen so nothing clips
                clean = read_wav(entry.input_path)
                mixed = read_wav(entry.output_path)
                residual = list(mixed - clean)
                measured = 20.0 * math.log10(rms_by_hand(list(clean)) / rms_by_hand(residual))
                assert abs(measured - entry.snr_db) <= 0.01
        assert total == 201
        assert time.perf_counter() - start < 30.0


def test_criterion_09_augment_determinism(tmp_path):
    with criterion("09 augmentation determinism across worker counts"):
        in_dir = build_wav_corpus(tmp_path / "in", n_files=5, seconds=0.5)
        src = build_interferer_dir(tmp_path / "src")
        out_dir = tmp_path / "out"
        spec = AugmentSpec("noise", src, seed=4242)
        augment_corpus(in_dir, out_dir, spec, jobs=1)
        first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        augment_corpus(in_dir, out_dir, spec, jobs=8)  # same destination: bytes must not change
        second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert first == second
        assert "augment_manifest.jsonl" in first


def test_criterion_10_end_to_end_arena_fixture(capsys, tmp_path):
    with criterion("10 end-to-end arena fixture (eval/leaderboard/correlate/history)"):
        manifest = build_arena(tmp_path)
        store = tmp_path / "runs.jsonl"

        # eval: one (system, dataset) pair in isolation, perfect separation
        code = main(
            ["eval", "--protocol", str(tmp_path / "protocols" / "d1.txt"),
             "--scores", str(tmp_path / "scores" / "sysA_d1.txt")]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["eer"] == 0.0

        # leaderboard: golden aggregate EERs and the pooled/average rank flip
        code = main(
            ["leaderboard", "--manifest", str(manifest), "--format", "json",
             "--store", str(store)]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        by_id = {s["system_id"]: s for s in record["summaries"]}
        assert by_id["sysA"]["average_eer"] == 0.0
        assert by_id["sysA"]["pooled_eer"] == 1.0 / 3.0
        assert by_id["sysB"]["average_eer"] == 0.25
        assert by_id["sysB"]["pooled_eer"] == 0.25
        assert by_id["sysC"]["average_eer"] == 0.5
        assert by_id["sysC"]["pooled_eer"] == 0.5

        # correlate: matrix assembled from the leaderboard's own CSV output
        code = main(["leaderboard", "--manifest", str(manifest), "--format", "csv"])
        csv_lines = capsys.readouterr().out.strip().splitlines()
        header = csv_lines[0].split(",")
        ds_cols = [header.index(d) for d in ("d1", "d2", "d3")]
        matrix_path = tmp_path / "matrix.csv"
        with open(matrix_path, "w", encoding="utf-8") as fh:
            fh.write("system,d1,d2,d3\n")
            for line in csv_lines[1:]:
                cells = line.split(",")
                fh.write(",".join([cells[0]] + [cells[i] for i in ds_cols]) + "\n")
        code = main(["correlate", "--matrix", str(matrix_path), "--format", "json"])
        corr = json.loads(capsys.readouterr().out)
        assert code == 0
        for ds in ("d1", "d2", "d3"):  # every column equals the average vector
            assert abs(corr["datasets"][ds]["pearson"] - 1.0) <= 1e-9
            assert abs(corr["datasets"][ds]["spearman"] - 1.0) <= 1e-9

        # history: exactly the one stored run, readable
        code = main(["history", "--store", str(store), "--format", "json"])
        hist = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(hist["runs"]) == 1
        assert hist["runs"][0]["n_systems"] == 3
        assert not hist["issues"]
