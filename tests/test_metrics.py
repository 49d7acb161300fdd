import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from df_arena.errors import MetricError
from df_arena.metrics import (
    auc,
    eer,
    evaluate,
    pooled_eer,
    roc,
)
from df_arena.protocol import ScoreSet, TrialSet, join
from df_arena.store import format_percent

from oracles import brute_force_auc, brute_force_eer, normal_cdf


def joined(bona, spoof):
    return [("bonafide", s) for s in bona] + [("spoof", s) for s in spoof]


# score grids with deliberate tie opportunities across classes
grid_scores = st.lists(st.integers(-20, 20).map(lambda k: k / 4.0), min_size=1, max_size=30)
# tie-free score pools, split into the two classes afterwards
distinct_pools = st.sets(st.integers(-60, 60), min_size=2, max_size=40).map(
    lambda s: sorted(v / 8.0 for v in s)
)


class TestRoc:
    def test_perfect_separation_has_zero_zero_point(self):
        c = roc(joined([1.0], [0.0]))
        assert np.any((c.far == 0.0) & (c.frr == 0.0))

    def test_inverted_system_keeps_endpoints(self):
        c = roc(joined([0.0], [1.0]))
        assert not np.any(c.far + c.frr < 1.0)
        assert (c.far[0], c.frr[0]) == (1.0, 0.0)
        assert (c.far[-1], c.frr[-1]) == (0.0, 1.0)

    def test_hand_swept_three_vs_three(self):
        c = roc(joined([0.9, 0.8, 0.3], [0.7, 0.2, 0.1]))
        # thresholds strictly inside (0.3, 0.7) must sit at FAR = FRR = 1/3
        inside = (c.thresholds > 0.3) & (c.thresholds < 0.7)
        assert inside.any()
        assert np.allclose(c.far[inside], 1.0 / 3.0)
        assert np.allclose(c.frr[inside], 1.0 / 3.0)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError, match="both classes"):
            roc(joined([1.0, 0.5], []))

    @given(grid_scores, grid_scores)
    @settings(max_examples=60)
    def test_curve_invariants(self, bona, spoof):
        c = roc(joined(bona, spoof))
        assert len(c.thresholds) == len(c.far) == len(c.frr) >= 2
        assert np.all(np.diff(c.thresholds) > 0)
        assert np.all(np.diff(c.far) <= 0)
        assert np.all(np.diff(c.frr) >= 0)
        assert np.all((c.far >= 0) & (c.far <= 1) & (c.frr >= 0) & (c.frr <= 1))
        assert (c.far[0], c.frr[0]) == (1.0, 0.0)
        assert (c.far[-1], c.frr[-1]) == (0.0, 1.0)


class TestEer:
    def test_perfect_separation(self):
        assert eer(roc(joined([1.0], [0.0])))[0] == 0.0

    def test_hand_case_is_one_third(self):
        value, threshold = eer(roc(joined([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert 0.3 < threshold < 0.7

    def test_threshold_between_scores_near_the_float_maximum_is_finite(self):
        value, threshold = eer(roc(joined([1.7e308], [1.6e308])))
        assert value == 0.0
        assert 1.6e308 < threshold < 1.7e308

    def test_tie_past_two_to_the_53_keeps_the_curve_endpoints(self):
        # past 2**53 the sentinels round onto the score; the rates are counted at the score instead
        c = roc(joined([2.0**53], [2.0**53]))
        assert eer(c)[0] == 0.5
        assert (c.far[0], c.frr[0]) == (1.0, 0.0)
        assert (c.far[-1], c.frr[-1]) == (0.0, 1.0)

    def test_all_scores_tied(self):
        value, _ = eer(roc(joined([0.5, 0.5], [0.5])))
        assert value == pytest.approx(0.5, abs=1e-15)

    @given(grid_scores, grid_scores)
    @settings(max_examples=100)
    def test_matches_brute_force_oracle(self, bona, spoof):
        got_eer, got_thr = eer(roc(joined(bona, spoof)))
        want_eer, want_thr = brute_force_eer(bona, spoof)
        assert got_eer == pytest.approx(want_eer, abs=1e-12)
        assert got_thr == pytest.approx(want_thr, abs=1e-12)

    def test_gaussian_separation(self):
        rng = np.random.default_rng(7)
        n = 20000
        bona = rng.normal(1.0, 1.0, n)
        spoof = rng.normal(-1.0, 1.0, n)
        value, _ = eer(roc(joined(bona, spoof)))
        assert value == pytest.approx(normal_cdf(-1.0), abs=0.01)

    @given(distinct_pools, st.integers(1, 39))
    @settings(max_examples=60)
    def test_negate_and_swap_labels_preserves_eer(self, pool, cut):
        if cut >= len(pool):
            cut = len(pool) - 1
        bona, spoof = pool[:cut], pool[cut:]
        base, _ = eer(roc(joined(bona, spoof)))
        flipped, _ = eer(roc(joined([-s for s in spoof], [-s for s in bona])))
        assert flipped == pytest.approx(base, abs=1e-12)


finite_classes = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20)


@given(finite_classes, finite_classes)
@settings(max_examples=200)
@example([1.0000000000000002], [1.0])  # adjacent floats: the midpoint rounds onto the spoof score
@example([2.0**52 + 1], [2.0**52])
@example([1e-323, 5e-324], [5e-324, 0.0])  # subnormals
@example([2.0**53, 2.0**53 + 2], [2.0**53, 2.0**53 + 4])  # ties where a sentinel rounds onto the score
def test_eer_and_auc_are_those_of_the_dense_ranks(bona, spoof):
    _, ranks = np.unique(np.array(bona + spoof), return_inverse=True)
    curve = roc(joined(bona, spoof))
    ranked = roc(joined(ranks[:len(bona)].astype(float), ranks[len(bona):].astype(float)))
    assert eer(curve)[0] == eer(ranked)[0]
    assert auc(curve) == auc(ranked)
    assert (curve.far[0], curve.frr[0]) == (1.0, 0.0)
    assert (curve.far[-1], curve.frr[-1]) == (0.0, 1.0)


MONOTONE_MAPS = [np.exp, lambda x: 3.0 * x + 7.0, lambda x: x**3]


@given(distinct_pools, st.integers(1, 39), st.integers(0, 2))
@settings(max_examples=60)
def test_monotone_transform_leaves_eer_and_auc_unchanged(pool, cut, which):
    if cut >= len(pool):
        cut = len(pool) - 1
    bona = np.asarray(pool[:cut])
    spoof = np.asarray(pool[cut:])
    f = MONOTONE_MAPS[which]
    base_curve = roc(joined(bona, spoof))
    mapped_curve = roc(joined(f(bona), f(spoof)))
    assert eer(base_curve)[0] == eer(mapped_curve)[0]
    assert auc(base_curve) == auc(mapped_curve)


class TestPooledEer:
    def test_single_set_identity(self):
        rows = joined([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
        assert pooled_eer([rows]) == eer(roc(rows))

    def test_scale_mismatch_penalty(self):
        a = joined([10.0, 9.0], [1.0, 2.0])
        b = joined([0.6, 0.5], [0.4, 0.3])
        assert eer(roc(a))[0] == 0.0
        assert eer(roc(b))[0] == 0.0
        assert pooled_eer([a, b])[0] == 0.5

    @given(grid_scores, grid_scores, st.integers(2, 5))
    @settings(max_examples=40)
    def test_duplication_invariance(self, bona, spoof, k):
        rows = joined(bona, spoof)
        single = eer(roc(rows))[0]
        assert pooled_eer([rows] * k)[0] == single

    def test_empty_list_rejected(self):
        with pytest.raises(MetricError, match="at least one"):
            pooled_eer([])

    def test_single_class_union_rejected(self):
        with pytest.raises(MetricError):
            pooled_eer([[("bonafide", 1.0)], [("bonafide", 0.5)]])


class TestAuc:
    def test_perfect_separation(self):
        assert auc(roc(joined([1.0], [0.0]))) == 1.0

    def test_labels_swapped(self):
        assert auc(roc(joined([0.0], [1.0]))) == 0.0

    @given(grid_scores, grid_scores)
    @settings(max_examples=100)
    def test_matches_pair_counting_oracle(self, bona, spoof):
        got = auc(roc(joined(bona, spoof)))
        assert got == pytest.approx(brute_force_auc(bona, spoof), abs=1e-12)

    @given(distinct_pools, st.integers(1, 39))
    @settings(max_examples=60)
    def test_antisymmetry_under_negation(self, pool, cut):
        if cut >= len(pool):
            cut = len(pool) - 1
        bona, spoof = pool[:cut], pool[cut:]
        a = auc(roc(joined(bona, spoof)))
        b = auc(roc(joined([-s for s in bona], [-s for s in spoof])))
        assert b == pytest.approx(1.0 - a, abs=1e-12)

    def test_gaussian_separation(self):
        rng = np.random.default_rng(11)
        n = 20000
        bona = rng.normal(1.0, 1.0, n)
        spoof = rng.normal(-1.0, 1.0, n)
        assert auc(roc(joined(bona, spoof))) == pytest.approx(normal_cdf(np.sqrt(2.0)), abs=0.006)


class TestDecisionThreshold:
    """Accuracy and F1 at a decision threshold; with the class sizes fixed they pin the confusion counts."""

    def test_perfect_separation_at_eer_threshold(self):
        rows = joined([1.0, 0.9], [0.1, 0.0])
        _, thr = eer(roc(rows))
        report = evaluate(rows, decision_threshold=thr)
        assert report.accuracy == 1.0
        assert report.f1 == 1.0

    def test_all_predicted_spoof_gives_f1_zero(self):
        rows = joined([0.9, 0.8], [0.1])
        report = evaluate(rows, decision_threshold=2.0)
        assert report.f1 == 0.0
        assert report.accuracy == pytest.approx(1.0 / 3.0)

    def test_hand_confusion_counts(self):
        rows = joined([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
        report = evaluate(rows, decision_threshold=0.75)
        # tp, fn, fp, tn = 2, 1, 0, 3: precision 1, recall 2/3
        assert (report.n_bonafide, report.n_spoof) == (3, 3)
        assert report.accuracy == pytest.approx(5.0 / 6.0)
        assert report.f1 == pytest.approx(0.8)

    def test_tie_counts_as_accepted(self):
        rows = joined([0.5], [0.5])
        report = evaluate(rows, decision_threshold=0.5)
        # tp = fp = 1: precision 1/2, recall 1
        assert report.accuracy == 0.5
        assert report.f1 == pytest.approx(2.0 / 3.0)

    @given(distinct_pools, st.integers(1, 39))
    @settings(max_examples=40)
    def test_confusion_counts_survive_monotone_map(self, pool, cut):
        if cut >= len(pool):
            cut = len(pool) - 1
        bona = np.asarray(pool[:cut])
        spoof = np.asarray(pool[cut:])
        _, thr = eer(roc(joined(bona, spoof)))
        base = evaluate(joined(bona, spoof), decision_threshold=thr)
        # threshold maps through the same strictly increasing function
        mapped = evaluate(joined(3.0 * bona + 7.0, 3.0 * spoof + 7.0), decision_threshold=3.0 * thr + 7.0)
        assert (base.accuracy, base.f1) == (mapped.accuracy, mapped.f1)


class TestEvaluate:
    def test_report_fields(self):
        rows = joined([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
        report = evaluate(rows, "sys", "ds")
        assert report.system_id == "sys"
        assert report.dataset_id == "ds"
        assert report.eer == pytest.approx(1.0 / 3.0)
        assert report.n_bonafide == 3
        assert report.n_spoof == 3
        assert report.decision_threshold == report.eer_threshold

    def test_fixed_decision_threshold(self):
        rows = joined([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
        report = evaluate(rows, decision_threshold=0.75)
        assert report.decision_threshold == 0.75
        assert report.f1 == pytest.approx(0.8)

    def test_adjacent_floats_separate_perfectly(self):
        report = evaluate(joined([1.0000000000000002], [1.0]))
        assert (report.eer, report.accuracy) == (0.0, 1.0)

    def test_rates_in_unit_interval(self):
        rng = np.random.default_rng(3)
        rows = joined(rng.normal(0.2, 1, 50), rng.normal(-0.2, 1, 50))
        report = evaluate(rows)
        for value in (report.eer, report.auc, report.accuracy, report.f1):
            assert 0.0 <= value <= 1.0


@st.composite
def joined_sets(draw):
    """One dataset's protocol and score map with ties, gaps on both sides and either polarity.

    Returns (JoinResult, bonafide scores, spoof scores, dropped trials, dropped
    scores), the scores oriented higher-is-bonafide and counted by hand.
    """
    labels = draw(st.permutations([True, False] + draw(st.lists(st.booleans(), max_size=28))))
    ids = [f"t{i}" for i in range(len(labels))]
    trials = TrialSet(tuple(ids), np.array(labels))
    scored = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    n_extra = draw(st.integers(0, 3))
    values = draw(st.lists(st.integers(-8, 8).map(lambda k: k / 4.0), min_size=len(ids) + n_extra,
                           max_size=len(ids) + n_extra))
    mapping = {t: v for t, v, keep in zip(ids, values, scored) if keep}
    mapping.update((f"x{i}", v) for i, v in enumerate(values[len(ids):]))
    polarity = draw(st.sampled_from(["higher-is-bonafide", "higher-is-spoof"]))
    sign = 1.0 if polarity == "higher-is-bonafide" else -1.0
    result = join(trials, ScoreSet(mapping), mode="intersect", polarity=polarity)
    kept = [(b, sign * mapping[t]) for t, b in zip(ids, labels) if t in mapping]
    bona = [v for b, v in kept if b]
    spoof = [v for b, v in kept if not b]
    return result, bona, spoof, len(ids) - len(kept), n_extra


def _hand_counted(bona, spoof, threshold):
    tp = sum(1 for v in bona if v >= threshold)
    fp = sum(1 for v in spoof if v >= threshold)
    fn, tn = len(bona) - tp, len(spoof) - fp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return (tp + tn) / (tp + fn + fp + tn), f1


@given(joined_sets(), st.none() | st.integers(-8, 8).map(lambda k: k / 4.0))
@settings(max_examples=200)
def test_columnar_evaluate_matches_oracles_and_rows(case, fixed_threshold):
    joined, bona, spoof, dropped_trials, dropped_scores = case
    assume(bona and spoof)
    assert (joined.dropped_trials, joined.dropped_scores) == (dropped_trials, dropped_scores)
    report = evaluate(joined, "sys", "ds", decision_threshold=fixed_threshold)
    want_eer, want_thr = brute_force_eer(bona, spoof)
    assert report.eer == pytest.approx(want_eer, abs=1e-12)
    assert report.eer_threshold == pytest.approx(want_thr, abs=1e-12)
    assert report.auc == pytest.approx(brute_force_auc(bona, spoof), abs=1e-12)
    accuracy, f1 = _hand_counted(bona, spoof, report.decision_threshold)
    assert report.accuracy == pytest.approx(accuracy, abs=1e-12)
    assert report.f1 == pytest.approx(f1, abs=1e-12)
    assert (report.n_bonafide, report.n_spoof) == (len(bona), len(spoof))
    assert evaluate(joined.rows, "sys", "ds", decision_threshold=fixed_threshold) == report


@given(st.lists(joined_sets(), min_size=1, max_size=3))
@settings(max_examples=100)
def test_columnar_pooled_eer_matches_oracle_and_rows(cases):
    bona = [v for case in cases for v in case[1]]
    spoof = [v for case in cases for v in case[2]]
    assume(bona and spoof)
    got = pooled_eer([case[0] for case in cases])
    want_eer, want_thr = brute_force_eer(bona, spoof)
    assert got[0] == pytest.approx(want_eer, abs=1e-12)
    assert got[1] == pytest.approx(want_thr, abs=1e-12)
    assert pooled_eer([case[0].rows for case in cases]) == got


def test_format_percent_two_decimals_half_even():
    assert format_percent(0.13845714285714283) == "13.85"
    assert format_percent(0.030535714285714284) == "3.05"
    assert format_percent(0.125) == "12.50"
    assert format_percent(0.0) == "0.00"
