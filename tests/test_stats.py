import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from df_arena.errors import StatError
from df_arena.stats import (
    EerMatrix,
    _average_ranks,
    ccc,
    correlate_matrix,
    default_bins,
    distance_correlation,
    kendall_tau,
    load_matrix_csv,
    mutual_information,
    pearson,
    spearman,
)

from conftest import OPEN_SOURCE_SYSTEMS
from oracles import (
    ccc_by_hand,
    distance_correlation_by_hand,
    kendall_tau_by_hand,
    mutual_information_by_hand,
    pearson_by_hand,
    ranks_by_hand,
    spearman_by_hand,
)

vectors = st.lists(st.integers(-50, 50).map(lambda k: k / 4.0), min_size=3, max_size=20)


def paired(min_size=3, max_size=20):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-50, 50).map(lambda k: k / 4.0), min_size=n, max_size=n),
            st.lists(st.integers(-50, 50).map(lambda k: k / 4.0), min_size=n, max_size=n),
        )
    )


class TestPearson:
    def test_self_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_exact_reversal(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_verified_golden_value(self):
        # Direct covariance/sigma computation gives 11/(5*sqrt(7)), confirmed
        # by the independent oracle below; frozen at full precision.
        x, y = [1, 2, 3, 4], [1, 3, 2, 5]
        want = 11.0 / (5.0 * math.sqrt(7.0))
        assert pearson_by_hand(x, y) == pytest.approx(want, abs=1e-15)
        assert pearson(x, y) == pytest.approx(want, abs=1e-9)

    def test_single_transposition_gives_point_eight(self):
        x, y = [1, 2, 3, 4], [1, 3, 2, 4]
        assert pearson_by_hand(x, y) == pytest.approx(0.8, abs=1e-15)
        assert pearson(x, y) == pytest.approx(0.8, abs=1e-9)

    def test_constant_input_rejected(self):
        with pytest.raises(StatError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(StatError, match="zero variance"):
            pearson([1, 2, 3], [5, 5, 5])

    def test_length_mismatch(self):
        with pytest.raises(StatError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(StatError, match="at least 2"):
            pearson([1.0], [2.0])

    @given(paired())
    @settings(max_examples=60)
    def test_matches_oracle(self, xy):
        x, y = xy
        try:
            want = pearson_by_hand(x, y)
        except ZeroDivisionError:
            with pytest.raises(StatError):
                pearson(x, y)
            return
        assert pearson(x, y) == pytest.approx(want, abs=1e-12)

    @given(paired(), st.floats(0.1, 10), st.floats(-5, 5))
    @settings(max_examples=40)
    def test_positive_affine_invariance(self, xy, a, b):
        x, y = xy
        x = np.asarray(x)
        try:
            base = pearson(x, y)
        except StatError:
            return
        assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-9)
        assert pearson(-x, y) == pytest.approx(-base, abs=1e-12)


class TestSpearman:
    def test_monotone_invariance(self):
        x = [0.1, 1.0, 2.0, 5.0]
        y = [math.exp(v) for v in x]
        assert spearman(x, y) == pytest.approx(1.0)

    def test_hand_rank_case(self):
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-12)
        assert spearman_by_hand([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-15)

    def test_tie_ranks_average(self):
        # x ranks become [1.5, 1.5, 3]
        got = spearman([1, 1, 2], [1, 2, 3])
        want = pearson_by_hand([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])
        assert got == pytest.approx(want, abs=1e-12)

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(-1e300, 1e300)),
                    min_size=1, max_size=40))
    @settings(max_examples=200)
    @example([0.0, -0.0, 0.0, 1.0, -0.0])
    def test_average_ranks_equal_the_oracle_exactly(self, x):
        assert _average_ranks(np.asarray(x, dtype=np.float64)).tolist() == ranks_by_hand(x)

    @given(paired())
    @settings(max_examples=60)
    def test_matches_oracle(self, xy):
        x, y = xy
        try:
            want = spearman_by_hand(x, y)
        except ZeroDivisionError:
            with pytest.raises(StatError):
                spearman(x, y)
            return
        assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    @given(paired())
    @settings(max_examples=40)
    def test_strictly_increasing_transform_invariance(self, xy):
        x, y = xy
        try:
            base = spearman(x, y)
        except StatError:
            return
        fx = [v**3 + 0.5 * v for v in x]  # strictly increasing
        assert spearman(fx, y) == pytest.approx(base, abs=1e-12)


class TestKendallTau:
    def test_hand_case_minus_one_third(self):
        assert kendall_tau([1, 2, 3], [3, 1, 2]) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert kendall_tau_by_hand([1, 2, 3], [3, 1, 2]) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_identical_vectors(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed_vector(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_all_tied_rejected(self):
        with pytest.raises(StatError, match="all pairs tied"):
            kendall_tau([2, 2, 2], [1, 2, 3])

    @given(paired())
    @settings(max_examples=60)
    def test_matches_oracle(self, xy):
        x, y = xy
        try:
            want = kendall_tau_by_hand(x, y)
        except (ZeroDivisionError, ValueError):
            with pytest.raises(StatError):
                kendall_tau(x, y)
            return
        assert kendall_tau(x, y) == pytest.approx(want, abs=1e-12)


class TestDistanceCorrelation:
    def test_self_is_one(self):
        assert distance_correlation([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_side_is_zero(self):
        assert distance_correlation([1, 2, 3], [5, 5, 5]) == 0.0

    def test_monotone_convex_map_stays_high(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 4.0, 9.0, 16.0]
        got = distance_correlation(x, y)
        want = distance_correlation_by_hand(x, y)
        assert got == pytest.approx(want, abs=1e-12)
        assert 0.95 < got <= 1.0

    @given(paired())
    @settings(max_examples=40)
    def test_matches_oracle(self, xy):
        x, y = xy
        assert distance_correlation(x, y) == pytest.approx(
            distance_correlation_by_hand(x, y), abs=1e-10
        )

    @given(vectors, st.floats(-5, 5), st.one_of(st.floats(-4, -0.25), st.floats(0.25, 4)))
    @settings(max_examples=40)
    def test_affine_relation_is_one(self, x, a, b):
        x = np.asarray(x)
        if np.ptp(x) == 0:
            return
        assert distance_correlation(x, a + b * x) == pytest.approx(1.0, abs=1e-9)


class TestMutualInformation:
    def test_diagonal_histogram_gives_log_bins(self):
        x = [0.0, 1.0, 2.0, 3.0]
        assert mutual_information(x, x, bins=4) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_independent_uniform_is_near_zero(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(size=10_000)
        y = rng.uniform(size=10_000)
        assert mutual_information(x, y, bins=10) < 0.02

    def test_constant_input_is_zero(self):
        assert mutual_information([1, 1, 1], [1, 2, 3], bins=2) == 0.0

    def test_bad_bins_rejected(self):
        with pytest.raises(StatError, match="at least 2 bins"):
            mutual_information([1, 2, 3], [1, 2, 3], bins=1)

    @pytest.mark.parametrize("bins", [1025, 10**30])
    def test_more_bins_than_the_histogram_cap_rejected(self, bins):
        with pytest.raises(StatError, match="at most 1024 bins"):
            mutual_information([1, 2, 3], [1, 2, 3], bins=bins)

    @given(paired(min_size=4, max_size=16), st.integers(2, 5))
    @settings(max_examples=40)
    # independent by the histogram, yet the unclamped sum is -1.554e-16
    @example(([0.0] * 4 + [0.25] * 4 + [0.0] + [0.25] * 6,
              [0.0, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0] + [0.25] * 7), 2)
    def test_matches_oracle_and_is_symmetric(self, xy, bins):
        x, y = xy
        got = mutual_information(x, y, bins=bins)
        assert got == pytest.approx(mutual_information_by_hand(x, y, bins), abs=1e-10)
        assert got >= 0.0
        assert mutual_information(y, x, bins=bins) == pytest.approx(got, abs=1e-12)

    def test_default_bins_rule(self):
        assert default_bins(3) == 2
        assert default_bins(16) == 4
        assert default_bins(99) == 9


class TestCcc:
    def test_perfect_concordance(self):
        assert ccc([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_offset_closed_form(self):
        # population var(x) = 2, y = x + 10: ccc = 2*2 / (2 + 2 + 100) = 1/26
        x = np.array([-1.0, 1.0]) * math.sqrt(2.0)
        y = x + 10.0
        assert ccc_by_hand(list(x), list(y)) == pytest.approx(1.0 / 26.0, abs=1e-15)
        assert ccc(x, y) == pytest.approx(1.0 / 26.0, abs=1e-9)

    def test_perfect_reversal(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])  # zero mean
        assert ccc(x, -x) == pytest.approx(-1.0)

    def test_doubly_degenerate_rejected(self):
        with pytest.raises(StatError, match="undefined"):
            ccc([3, 3, 3], [3, 3, 3])

    @given(paired())
    @settings(max_examples=60)
    def test_matches_oracle(self, xy):
        x, y = xy
        try:
            want = ccc_by_hand(x, y)
        except ZeroDivisionError:
            with pytest.raises(StatError):
                ccc(x, y)
            return
        assert ccc(x, y) == pytest.approx(want, abs=1e-12)

    @given(paired())
    @settings(max_examples=60)
    def test_magnitude_bounded_by_pearson(self, xy):
        x, y = xy
        try:
            r = pearson(x, y)
            c = ccc(x, y)
        except StatError:
            return
        assert abs(c) <= abs(r) + 1e-12


@given(paired(min_size=4, max_size=12), st.randoms())
@settings(max_examples=40)
def test_joint_permutation_equivariance(xy, rnd):
    x, y = xy
    order = list(range(len(x)))
    rnd.shuffle(order)
    px = [x[i] for i in order]
    py = [y[i] for i in order]
    for fn in (pearson, spearman, kendall_tau, ccc):
        try:
            base = fn(x, y)
        except StatError:
            continue
        assert fn(px, py) == pytest.approx(base, abs=1e-12)
    assert distance_correlation(px, py) == pytest.approx(distance_correlation(x, y), abs=1e-10)
    assert mutual_information(px, py, bins=3) == pytest.approx(
        mutual_information(x, y, bins=3), abs=1e-10
    )


def test_variance_products_below_the_float_minimum_still_divide():
    x, y = [0.0, 0.0, 8.6e-99], [0.0, 0.0, 4.3e-99]
    assert pearson(x, y) == pytest.approx(1.0)
    assert distance_correlation(x, y) == pytest.approx(1.0)


class TestEerMatrix:
    def test_average_is_exact_row_mean(self):
        m = EerMatrix.build(["a", "b"], ["d1", "d2"], [[0.1, 0.3], [0.2, 0.4]])
        assert m.average[0] == pytest.approx(0.2, abs=1e-15)
        assert m.average[1] == pytest.approx(0.3, abs=1e-15)

    def test_dense_required(self):
        with pytest.raises(StatError, match="dense"):
            EerMatrix.build(["a"], ["d1", "d2"], [[0.1, float("nan")]])

    def test_subset(self):
        m = EerMatrix.build(["a", "b", "c"], ["d1"], [[0.1], [0.2], [0.3]])
        s = m.subset(["c", "a"])
        assert s.system_ids == ("c", "a")
        assert list(s.values[:, 0]) == [0.3, 0.1]
        with pytest.raises(StatError, match="unknown system"):
            m.subset(["zzz"])

    def test_csv_round_trip_and_percent_scaling(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sys,d1,d2\na,10.0,30.0\nb,20.0,40.0\n", encoding="utf-8")
        m = load_matrix_csv(p)
        assert m.dataset_ids == ("d1", "d2")
        assert m.values[0, 0] == pytest.approx(0.10)
        assert m.average[1] == pytest.approx(0.30)

    def test_ragged_csv_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sys,d1,d2\na,1.0\n", encoding="utf-8")
        with pytest.raises(StatError, match="ragged"):
            load_matrix_csv(p)

    def test_bad_value_after_blank_lines_names_its_file_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("sys,d1\n\n\na,0.1\nb,x\n", encoding="utf-8")
        with pytest.raises(StatError, match=r"m\.csv: line 5: "):
            load_matrix_csv(p)

    def test_missing_csv_is_stat_error(self, tmp_path):
        with pytest.raises(StatError, match="file not found: .*absent.csv"):
            load_matrix_csv(tmp_path / "absent.csv")

    def test_directory_csv_is_stat_error(self, tmp_path):
        with pytest.raises(StatError, match="cannot read "):
            load_matrix_csv(tmp_path)

    def test_non_utf8_csv_is_stat_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"sys,d1\na\xff,0.1\n")
        with pytest.raises(StatError, match="m.csv is not valid UTF-8"):
            load_matrix_csv(p)

    def test_oversized_csv_field_is_stat_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text('sys,d1\na,"' + "1" * 200_000 + '"\n', encoding="utf-8")
        with pytest.raises(StatError, match="m.csv: not valid CSV"):
            load_matrix_csv(p)

class TestCorrelateMatrix:
    def test_columns_equal_average_give_ones(self):
        col = [0.1, 0.2, 0.4]
        m = EerMatrix.build(["a", "b", "c"], ["d1", "d2"], [[v, v] for v in col])
        report = correlate_matrix(m)
        for ds in ("d1", "d2"):
            assert report.values[ds]["pearson"] == pytest.approx(1.0)
            assert report.values[ds]["spearman"] == pytest.approx(1.0)
            assert report.values[ds]["ccc"] == pytest.approx(1.0)

    def test_shape_of_report(self):
        rng = np.random.default_rng(5)
        m = EerMatrix.build(["a", "b", "c"], ["d1", "d2"], rng.uniform(size=(3, 2)))
        report = correlate_matrix(m)
        assert report.dataset_ids == ("d1", "d2")
        assert all(len(report.values[ds]) == 6 for ds in report.dataset_ids)

    def test_minimum_systems(self):
        m = EerMatrix.build(["a", "b"], ["d1"], [[0.1], [0.2]])
        with pytest.raises(StatError, match="at least 3 systems"):
            correlate_matrix(m)

    def test_constant_column_degrades_to_nulls(self):
        m = EerMatrix.build(
            ["a", "b", "c"], ["flat", "ok"], [[0.2, 0.1], [0.2, 0.3], [0.2, 0.5]]
        )
        report = correlate_matrix(m)
        assert report.values["flat"]["pearson"] is None
        assert report.values["flat"]["spearman"] is None
        assert report.values["flat"]["kendall_tau"] is None
        assert report.values["flat"]["distance_corr"] == 0.0
        assert report.values["flat"]["mutual_info"] == 0.0
        assert report.values["flat"]["ccc"] == 0.0
        assert report.values["ok"]["pearson"] is not None
        reasons = {(n["dataset"], n["metric"]) for n in report.notes}
        assert ("flat", "pearson") in reasons

    def test_each_note_names_its_own_statistic(self):
        m = EerMatrix.build(
            ["a", "b", "c"], ["flat", "ok"], [[0.2, 0.1], [0.2, 0.3], [0.2, 0.5]]
        )
        notes = correlate_matrix(m).notes
        assert {n["metric"] for n in notes} == {"pearson", "spearman", "kendall_tau"}
        assert all(n["reason"].startswith(n["metric"]) for n in notes), notes
        notes = correlate_matrix(m, bins=2000).notes
        assert "mutual_info" in {n["metric"] for n in notes}
        assert all(n["reason"].startswith(n["metric"]) for n in notes), notes

    def test_csv_rendering_four_decimals(self):
        col = [0.1, 0.2, 0.4]
        m = EerMatrix.build(["a", "b", "c"], ["d1"], [[v] for v in col])
        text = correlate_matrix(m).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "dataset,pearson,spearman,kendall_tau,distance_corr,mutual_info,ccc"
        assert lines[1].startswith("d1,1.0000,1.0000,1.0000,1.0000,")

    def test_csv_quotes_dataset_ids_and_reads_back(self):
        cols = [[0.1, 0.3], [0.2, 0.2], [0.4, 0.1], [0.3, 0.5]]
        ids = ["d,1", 'say "2"']
        plain = correlate_matrix(EerMatrix.build(list("abcd"), ["d1", "d2"], cols)).to_csv()
        odd = correlate_matrix(EerMatrix.build(list("abcd"), ids, cols)).to_csv()
        plain, odd = (list(csv.reader(io.StringIO(text))) for text in (plain, odd))
        assert {len(row) for row in odd} == {7}
        assert odd[0] == plain[0]
        assert [row[0] for row in odd[1:]] == ids
        assert [row[1:] for row in odd[1:]] == [row[1:] for row in plain[1:]]

    def test_reference_grid_ranking(self, reference_grid_path):
        matrix = load_matrix_csv(reference_grid_path).subset(OPEN_SOURCE_SYSTEMS)
        report = correlate_matrix(matrix)
        pearson_by_ds = {ds: report.values[ds]["pearson"] for ds in report.dataset_ids}
        ranked = sorted(pearson_by_ds, key=pearson_by_ds.get, reverse=True)
        assert ranked.index("LibriSeVoc") < 2  # top-2 by Pearson against the average
