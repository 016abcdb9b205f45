"""Fold plans, stability metrics, the filtering loop, and the stability report format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdf import (
    Edge,
    MultivariateSeries,
    ScmSpec,
    VcdfConfig,
    WindowGraph,
    directional_consistency,
    extract_training,
    make_discoverer,
    make_fold_plan,
    relative_variability,
    run_vcdf,
    simulate,
    stability_report_from_json,
    stability_report_to_json,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class CorrelationStub:
    """Cheap deterministic stand-in: thresholded lag-1 cross correlations."""

    def __init__(self, cutoff=0.25):
        self.cutoff = cutoff

    def discover(self, series):
        values = series.values
        n = values.shape[1]
        edges = []
        a, b = values[:-1], values[1:]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                c = float(np.corrcoef(a[:, i], b[:, j])[0, 1])
                if abs(c) >= self.cutoff:
                    edges.append(Edge(i, j, 1, c))
        return WindowGraph(n=n, max_lag=1, edges=frozenset(edges))


def _series(seed, T=150, n=3):
    spec = ScmSpec(n=n, max_lag=1,
                   lag_edges=(Edge(0, 1, 1, 0.8), Edge(1, 2, 1, 0.6)),
                   inst_edges=(), seed=seed)
    return simulate(spec, T).series


# ---------------------------------------------------------------------------
# VcdfConfig
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, fragment", [
    ({"k": 1}, "k"),
    ({"tau_c": 1.5}, "tau_c"),
    ({"tau_v": -0.1}, "tau_v"),
    ({"tau_v": float("nan")}, "tau_v"),
    ({"w": 2.0}, "w"),
    ({"epsilon": 0.0}, "epsilon"),
    ({"k": 5.0}, "k must be an integer"),
    ({"k": True}, "k must be an integer"),
    ({"k": np.array(5.0)}, "k must be an integer"),
    ({"tau_c": True}, "tau_c must be a number"),
    ({"w": True}, "w must be a number"),
    ({"tau_v": "0.4"}, "tau_v must be a number"),
    ({"epsilon": None}, "epsilon must be a number"),
])
def test_config_bounds(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        VcdfConfig(**kwargs)


def test_config_takes_numpy_integers():
    assert VcdfConfig(k=np.int32(4)).k == 4
    config = VcdfConfig(k=np.int64(5), tau_c=np.float64(0.4))
    assert type(config.k) is int
    _, report = run_vcdf(_series(5), CorrelationStub(), config)
    text = stability_report_to_json(report)
    assert stability_report_from_json(text) == report


def test_config_allows_infinite_tau_v():
    assert VcdfConfig(tau_v=float("inf")).tau_v == float("inf")


# ---------------------------------------------------------------------------
# fold plans
# ---------------------------------------------------------------------------

def test_fold_plan_even_division():
    plan = make_fold_plan(10, 5)
    assert plan == ((0, 2), (2, 4), (4, 6), (6, 8), (8, 10))


def test_fold_plan_uneven_division():
    plan = make_fold_plan(11, 5)
    assert plan == ((0, 2), (2, 4), (4, 6), (6, 8), (8, 11))


def test_fold_plan_singleton_blocks():
    plan = make_fold_plan(5, 5)
    assert plan == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    series = MultivariateSeries(np.zeros((5, 1)), ("v",))
    for fold in range(5):
        assert extract_training(series, plan, fold).n_steps == 4


def test_fold_plan_bounds():
    with pytest.raises(ValueError):
        make_fold_plan(10, 1)
    with pytest.raises(ValueError):
        make_fold_plan(4, 5)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=400), st.integers(min_value=2, max_value=50))
def test_fold_plan_partitions_the_index_range(T, k):
    if k > T:
        with pytest.raises(ValueError):
            make_fold_plan(T, k)
        return
    plan = make_fold_plan(T, k)
    assert len(plan) == k
    covered = []
    for start, end in plan:
        assert 0 <= start < end <= T
        covered.extend(range(start, end))
    assert covered == list(range(T))  # disjoint, ordered, exhaustive
    lengths = {end - start for start, end in plan}
    assert max(lengths) - min(lengths) <= 1


# ---------------------------------------------------------------------------
# extract_training
# ---------------------------------------------------------------------------

def test_training_rows_for_edge_and_middle_folds():
    values = np.arange(20, dtype=float).reshape(10, 2)
    series = MultivariateSeries(values, ("a", "b"))
    plan = make_fold_plan(10, 5)
    first = extract_training(series, plan, 0)
    np.testing.assert_array_equal(first.values, values[2:])
    middle = extract_training(series, plan, 2)
    np.testing.assert_array_equal(middle.values, np.vstack([values[:4], values[6:]]))
    assert middle.names == series.names


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=5, max_value=60), st.integers(min_value=2, max_value=5))
def test_training_length_complements_validation(T, k):
    values = np.arange(T, dtype=float).reshape(T, 1)
    series = MultivariateSeries(values, ("v",))
    plan = make_fold_plan(T, k)
    for fold in range(k):
        start, end = plan[fold]
        training = extract_training(series, plan, fold)
        assert training.n_steps == T - (end - start)
        expected = np.concatenate([np.arange(0, start), np.arange(end, T)])
        np.testing.assert_array_equal(training.values[:, 0], expected.astype(float))


def test_extract_training_validates_fold_index():
    series = MultivariateSeries(np.zeros((10, 1)), ("v",))
    plan = make_fold_plan(10, 5)
    with pytest.raises(ValueError):
        extract_training(series, plan, 5)


# ---------------------------------------------------------------------------
# stability metrics
# ---------------------------------------------------------------------------

def test_consistency_unanimous():
    assert directional_consistency(0.5, [0.4, 0.6, 0.3, 0.5, 0.45]) == 1.0


def test_consistency_mixed_signs():
    assert directional_consistency(0.5, [0.4, -0.1, 0.3, -0.2, 0.5]) == 0.6


def test_consistency_all_absent():
    assert directional_consistency(0.5, [0.0, 0.0, 0.0, 0.0, 0.0]) == 0.0


def test_consistency_zero_band():
    # values inside the +-1e-12 band count as sign 0
    assert directional_consistency(0.5, [1e-13, 0.2]) == 0.5
    assert directional_consistency(0.0, [1e-13, -1e-13]) == 1.0


def test_variability_zero_spread():
    assert relative_variability(0.5, [0.5, 0.5, 0.5]) == 0.0


def test_variability_simple_pair():
    v = relative_variability(1.0, [0.9, 1.1], epsilon=1e-8)
    assert math.isclose(v, 0.1 / (1.0 + 1e-8), rel_tol=1e-12)


def test_variability_explodes_for_tiny_r0():
    v = relative_variability(1e-9, [0.2, -0.2], epsilon=1e-8)
    assert math.isclose(v, 0.2 / 1.1e-8, rel_tol=1e-9)
    assert v > 1e7


def test_variability_that_is_not_finite_is_refused():
    # a fold sum that overflows, a squared deviation that does, and a quotient that does
    for r0, folds, epsilon in ((0.5, [1.7e308] * 5, 1e-8), (0.5, [1e200, -1e200, 0.5], 1e-8),
                               (0.0, [1e100, -1e100], 1e-250)):
        with pytest.raises(ValueError, match=r"fold estimates \[.*\] spread too far to score"):
            relative_variability(r0, folds, epsilon)


def test_variability_needs_two_folds():
    with pytest.raises(ValueError):
        relative_variability(0.5, [0.5])


@settings(max_examples=300, deadline=None)
@given(finite, st.lists(finite, min_size=2, max_size=12),
       st.floats(min_value=1e-12, max_value=1.0))
def test_metrics_match_brute_force(r0, folds, epsilon):
    def sign(x):
        if abs(x) < 1e-12:
            return 0
        return 1 if x > 0 else -1

    expected_c = sum(sign(f) == sign(r0) for f in folds) / len(folds)
    mean = sum(folds) / len(folds)
    std = math.sqrt(sum((f - mean) ** 2 for f in folds) / len(folds))
    expected_v = std / (abs(r0) + epsilon)

    assert directional_consistency(r0, folds) == expected_c
    got = relative_variability(r0, folds, epsilon)
    assert math.isclose(got, expected_v, rel_tol=1e-12, abs_tol=1e-300)


# ---------------------------------------------------------------------------
# run_vcdf
# ---------------------------------------------------------------------------

def test_vacuous_thresholds_reproduce_the_base_graph():
    series = _series(0)
    base = CorrelationStub()
    g0 = base.discover(series)
    filtered, report = run_vcdf(series, base, VcdfConfig(tau_c=0.0, tau_v=float("inf"), w=0.0))
    assert filtered == g0
    assert {(r.cause, r.effect, r.lag) for r in report.edges} == {e.key for e in g0.edges}


def test_filtered_edges_are_a_subset():
    for seed in range(5):
        series = _series(seed)
        base = CorrelationStub()
        g0 = base.discover(series)
        filtered, _ = run_vcdf(series, base, VcdfConfig())
        assert {e.key for e in filtered.edges} <= {e.key for e in g0.edges}


def test_threshold_monotonicity():
    series = _series(3)
    base = CorrelationStub()

    def kept(tau_c, tau_v):
        graph, _ = run_vcdf(series, base, VcdfConfig(tau_c=tau_c, tau_v=tau_v))
        return {e.key for e in graph.edges}

    for tighter, looser in [((0.8, 0.2), (0.4, 0.2)), ((0.4, 0.1), (0.4, 0.5))]:
        assert kept(*tighter) <= kept(*looser)


def test_kept_flag_matches_the_rule():
    series = _series(1)
    config = VcdfConfig()
    _, report = run_vcdf(series, CorrelationStub(), config)
    for record in report.edges:
        assert record.kept == (record.c >= config.tau_c and record.v <= config.tau_v)
        assert len(record.folds) == config.k


def test_w_zero_keeps_full_sample_weights():
    series = _series(2)
    base = CorrelationStub()
    g0_weights = base.discover(series).weight_map()
    filtered, _ = run_vcdf(series, base, VcdfConfig(w=0.0))
    for edge in filtered.edges:
        assert edge.weight == g0_weights[edge.key]


def test_w_one_replaces_weights_with_fold_means():
    series = _series(2)
    base = CorrelationStub()
    filtered, report = run_vcdf(series, base, VcdfConfig(w=1.0))
    means = {(r.cause, r.effect, r.lag): sum(r.folds) / len(r.folds) for r in report.edges}
    for edge in filtered.edges:
        assert math.isclose(edge.weight, means[edge.key], rel_tol=1e-12)


def test_w_interpolates_between_endpoints():
    series = _series(2)
    base = CorrelationStub()
    g0_weights = base.discover(series).weight_map()
    w = 0.3
    filtered, report = run_vcdf(series, base, VcdfConfig(w=w))
    means = {(r.cause, r.effect, r.lag): sum(r.folds) / len(r.folds) for r in report.edges}
    for edge in filtered.edges:
        expected = (1 - w) * g0_weights[edge.key] + w * means[edge.key]
        assert math.isclose(edge.weight, expected, rel_tol=1e-12)


def test_absent_everywhere_means_zero_consistency():
    """An edge only the full-sample graph contains is removed for any tau_c > 0."""

    class FullOnlyStub:
        def __init__(self, full_length):
            self.full_length = full_length

        def discover(self, series):
            edges = {Edge(0, 1, 1, 0.9)}
            if series.n_steps == self.full_length:
                edges.add(Edge(1, 0, 1, 0.7))
            return WindowGraph(n=series.n_vars, max_lag=1, edges=frozenset(edges))

    series = MultivariateSeries(np.random.default_rng(0).normal(size=(100, 2)), ("a", "b"))
    filtered, report = run_vcdf(series, FullOnlyStub(100), VcdfConfig(tau_c=0.05, tau_v=float("inf")))
    records = {(r.cause, r.effect, r.lag): r for r in report.edges}
    assert records[(1, 0, 1)].c == 0.0
    assert records[(1, 0, 1)].folds == (0.0,) * 5
    assert not records[(1, 0, 1)].kept
    assert {e.key for e in filtered.edges} == {(0, 1, 1)}


def test_run_vcdf_is_deterministic():
    series = _series(4)
    base = make_discoverer("lagreg")
    g1, r1 = run_vcdf(series, base, VcdfConfig())
    g2, r2 = run_vcdf(series, base, VcdfConfig())
    assert g1 == g2
    assert stability_report_to_json(r1) == stability_report_to_json(r2)


def test_fold_count_is_checked_before_any_base_fit():
    class CountingStub(CorrelationStub):
        calls = 0

        def discover(self, series):
            self.calls += 1
            return super().discover(series)

    base = CountingStub()
    with pytest.raises(ValueError, match="cannot cut 40 steps into 41 folds"):
        run_vcdf(_series(0, T=40), base, VcdfConfig(k=41))
    assert base.calls == 0


def test_run_vcdf_fits_the_series_itself_first_then_each_fold_in_order():
    # vcdf bench reuses the first call's graph and time as the bare base run,
    # and perfbench reads the first fit under run_vcdf as the full fit.
    class RecordingStub(CorrelationStub):
        def __init__(self):
            super().__init__()
            self.seen = []

        def discover(self, series):
            self.seen.append(series)
            return super().discover(series)

    series, config = _series(6, T=153), VcdfConfig(k=4)
    base = RecordingStub()
    run_vcdf(series, base, config)
    assert len(base.seen) == config.k + 1
    assert base.seen[0] is series
    plan = make_fold_plan(series.n_steps, config.k)
    for fold, training in enumerate(base.seen[1:]):
        expected = extract_training(series, plan, fold)
        assert training is not series
        assert training.n_steps == expected.n_steps
        np.testing.assert_array_equal(training.values, expected.values)


def test_fold_failures_carry_the_fold_index():
    # 60 rows per training set is too short for varlingam at n=3: the fold
    # discovery, not the full-sample one, is what fails
    spec = ScmSpec(n=3, max_lag=1, lag_edges=(Edge(0, 1, 1, 0.8),), inst_edges=(), seed=0)
    series = simulate(spec, 36).series
    with pytest.raises(ValueError, match=r"fold 0"):
        run_vcdf(series, make_discoverer("varlingam"), VcdfConfig(k=5))


# ---------------------------------------------------------------------------
# stability report JSON
# ---------------------------------------------------------------------------

def test_report_round_trip_is_exact():
    series = _series(5)
    _, report = run_vcdf(series, CorrelationStub(), VcdfConfig())
    text = stability_report_to_json(report)
    back = stability_report_from_json(text)
    assert back == report
    assert stability_report_to_json(back) == text


def test_empty_report_is_canonical():
    series = _series(6)
    _, report = run_vcdf(series, CorrelationStub(cutoff=2.0), VcdfConfig())
    assert not report.edges
    text = stability_report_to_json(report)
    assert stability_report_from_json(text) == report


def test_report_json_rejects_garbage():
    config = {"k": 5, "tau_c": 0.4, "tau_v": 0.4, "w": 0.0, "epsilon": 1e-8}
    edge = {"cause": 0, "effect": 1, "lag": 1, "r0": 0.5, "folds": [0.5, 0.5], "c": 1.0, "v": 0.0, "kept": True}
    no_cause = {name: value for name, value in edge.items() if name != "cause"}
    five_folds = {**edge, "folds": [0.5] * 5}
    for text, fragment in (
        ("[1, 2, 3]", "must be an object"),
        ("{not json", "malformed"),
        ('{"config": {}, "edges": []}', "missing the 'k' field"),
        (json.dumps({"config": {**config, "k": "5"}, "edges": []}), "'k' must be an integer"),
        (json.dumps({"config": {**config, "tau_c": "0.4"}, "edges": []}), "'tau_c' must be a number"),
        (json.dumps({"config": config, "edges": 5}), "'edges' must be an array"),
        (json.dumps({"config": config, "edges": [{**edge, "kept": "no"}]}), "'kept' must be true or false"),
        (json.dumps({"config": config, "edges": [{**edge, "cause": 1.7}]}), "'cause' must be an integer"),
        (json.dumps({"config": config, "edges": [{**edge, "cause": True}]}), "'cause' must be an integer"),
        (json.dumps({"config": config, "edges": [{**edge, "lag": "2"}]}), "'lag' must be an integer"),
        (json.dumps({"config": config, "edges": [{**edge, "r0": "0.5"}]}), "'r0' must be a number"),
        (json.dumps({"config": config, "edges": [{**edge, "r0": True}]}), "'r0' must be a number"),
        (json.dumps({"config": config, "edges": [{**edge, "c": "nan"}]}), "'c' must be a number"),
        (json.dumps({"config": config, "edges": [{**edge, "folds": "12345"}]}), "'folds' must be an array"),
        (json.dumps({"config": config, "edges": [{**edge, "folds": {"1": 0}}]}), "'folds' must be an array"),
        (json.dumps({"config": config, "edges": [no_cause]}), "edge 0: missing the 'cause' field"),
        (json.dumps({"config": config, "edges": [edge]}), r"edge 0: 2 fold estimates but k = 5"),
        (json.dumps({"config": config, "edges": [five_folds, {**five_folds, "folds": [0.5] * 6}]}),
         r"edge 1: 6 fold estimates but k = 5"),
        (json.dumps({"config": config, "edges": [five_folds, five_folds]}),
         r"edge 1: duplicate edge for \(cause, effect, lag\) = \(0, 1, 1\)"),
        (json.dumps({"config": config, "edges": [
            {**five_folds, "cause": -3, "lag": -1, "c": 0.0, "v": 7.0, "kept": True}]}),
         r"edge 0: \(cause, effect, lag\) = \(-3, 1, -1\) has a negative entry"),
        (json.dumps({"config": config, "edges": [{**five_folds, "effect": -1}]}), "edge 0: .* negative entry"),
        (json.dumps({"config": config, "edges": [{**five_folds, "r0": 0.0}]}), "edge 0: r0 must be a finite non-zero"),
        (json.dumps({"config": config, "edges": [{**five_folds, "r0": float("inf")}]}), "r0 must be a finite"),
        (json.dumps({"config": config, "edges": [{**five_folds, "folds": [0.5] * 4 + [float("nan")]}]}),
         "edge 0: fold estimates must be finite"),
        (json.dumps({"config": config, "edges": [five_folds, {**five_folds, "lag": 2, "kept": False}]}),
         r"edge 1: stored \(c, v, kept\) = \(1.0, 0.0, False\) but .* give \(1.0, 0.0, True\)"),
        (json.dumps({"config": config, "edges": [{**five_folds, "c": 0.8}]}), r"edge 0: stored \(c, v, kept\)"),
        (json.dumps({"config": config, "edges": [{**five_folds, "v": 0.1}]}), r"edge 0: stored \(c, v, kept\)"),
        (json.dumps({"config": config, "edges": [{**five_folds, "folds": [1e200, -1e200, 0.5, 0.5, 0.5]}]}),
         "edge 0: fold estimates .* spread too far to score"),
    ):
        with pytest.raises(ValueError, match=fragment):
            stability_report_from_json(text)
