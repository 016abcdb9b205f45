"""Acceptance gate: seven binding checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import math
import time

import numpy as np

from vcdf import (
    Edge,
    MultivariateSeries,
    ScmSpec,
    VcdfConfig,
    WindowGraph,
    aggregate,
    benchmark_suite,
    directional_consistency,
    direct_lingam_order,
    fit_var,
    graph_from_json,
    graph_to_json,
    make_discoverer,
    make_fold_plan,
    random_scm,
    read_series_csv,
    relative_variability,
    run_vcdf,
    simulate,
    stability_report_from_json,
    stability_report_to_json,
    summary_f1,
    window_f1,
    write_series_csv,
)
from vcdf.synthetic import SETTINGS


def _verdict(num, label, ok, detail):
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _suite_scores(setting, T, method_id, wrapped, seed, realizations, n=15):
    suite = benchmark_suite(setting, n, T, realizations, seed)
    base = make_discoverer(method_id)
    win, summ = [], []
    for ds in suite:
        if wrapped:
            graph, _ = run_vcdf(ds.series, base, VcdfConfig())
        else:
            graph = base.discover(ds.series)
        win.append(window_f1(graph, ds.truth))
        summ.append(summary_f1(graph, ds.truth))
    return aggregate(win).f1_mean, aggregate(summ).f1_mean


# ---------------------------------------------------------------------------
# 1. identity, subset, monotonicity on 100 random instances
# ---------------------------------------------------------------------------

def test_criterion_1_identity_subset_monotonicity():
    rng = np.random.default_rng(2024)
    base = make_discoverer("lagreg")
    failures = []
    for i in range(100):
        setting = SETTINGS[i % len(SETTINGS)]
        spec = random_scm(4, 2, 0.2, setting, seed=10_000 + i)
        series = simulate(spec, 140).series
        k = int(rng.integers(2, 7))

        g0 = base.discover(series)
        vacuous, report = run_vcdf(series, base, VcdfConfig(k=k, tau_c=0.0,
                                                            tau_v=float("inf"), w=0.0))
        if vacuous != g0:
            failures.append(f"instance {i}: vacuous thresholds changed the graph")
        if {(r.cause, r.effect, r.lag) for r in report.edges} != {e.key for e in g0.edges}:
            failures.append(f"instance {i}: report keys differ from G0 keys")

        tau_c = float(rng.uniform(0.0, 1.0))
        tau_v = float(rng.uniform(0.0, 1.5))
        loose, _ = run_vcdf(series, base, VcdfConfig(k=k, tau_c=tau_c, tau_v=tau_v))
        if not {e.key for e in loose.edges} <= {e.key for e in g0.edges}:
            failures.append(f"instance {i}: filtered graph is not a subset of G0")

        tighter_c = min(1.0, tau_c + float(rng.uniform(0.0, 0.4)))
        tighter_v = tau_v * float(rng.uniform(0.3, 1.0))
        tight, _ = run_vcdf(series, base, VcdfConfig(k=k, tau_c=tighter_c, tau_v=tighter_v))
        if not {e.key for e in tight.edges} <= {e.key for e in loose.edges}:
            failures.append(f"instance {i}: tightening thresholds added an edge")
    _verdict(1, "identity/subset/monotonicity over 100 instances",
             not failures, failures[0] if failures else "all exact")


# ---------------------------------------------------------------------------
# 2. stability metrics vs. brute force; exhaustive fold plans
# ---------------------------------------------------------------------------

def test_criterion_2_metric_unit_oracles():
    rng = np.random.default_rng(7)

    def brute_sign(x):
        if abs(x) < 1e-12:
            return 0
        return 1 if x > 0 else -1

    bad = None
    for i in range(1000):
        scale = 10.0 ** rng.integers(-9, 2)
        r0 = float(rng.uniform(-2.0, 2.0)) * scale
        k = int(rng.integers(2, 11))
        folds = [float(rng.uniform(-2.0, 2.0)) * scale for _ in range(k)]
        if i % 5 == 0:
            folds[rng.integers(0, k)] = 0.0  # absent-from-fold convention
        eps = float(10.0 ** rng.integers(-8, -1))

        expect_c = sum(brute_sign(f) == brute_sign(r0) for f in folds) / k
        mean = sum(folds) / k
        expect_v = math.sqrt(sum((f - mean) ** 2 for f in folds) / k) / (abs(r0) + eps)

        got_c = directional_consistency(r0, folds)
        got_v = relative_variability(r0, folds, eps)
        if got_c != expect_c or not math.isclose(got_v, expect_v, rel_tol=1e-12, abs_tol=1e-300):
            bad = f"tuple {i}: C {got_c} vs {expect_c}, V {got_v} vs {expect_v}"
            break

    plan_bad = None
    if bad is None:
        for T in range(2, 51):
            for k in range(2, T + 1):
                plan = make_fold_plan(T, k)
                covered = [idx for start, end in plan for idx in range(start, end)]
                lengths = [end - start for start, end in plan]
                if covered != list(range(T)) or max(lengths) - min(lengths) > 1:
                    plan_bad = f"T={T}, k={k}"
                    break
            if plan_bad:
                break

    ok = bad is None and plan_bad is None
    _verdict(2, "C/V brute-force x1000 and exhaustive fold plans T<=50",
             ok, bad or plan_bad or "all matched to 1e-12")


# ---------------------------------------------------------------------------
# 3. base-method recovery oracles (>= 9/10 seeds each)
# ---------------------------------------------------------------------------

def test_criterion_3_base_recovery_oracles():
    sqrt3 = float(np.sqrt(3.0))

    ar_hits = 0
    for seed in range(10):
        spec = ScmSpec(n=1, max_lag=1, lag_edges=(Edge(0, 0, 1, 0.8),), inst_edges=(), seed=seed)
        fit = fit_var(simulate(spec, 5000).series, 1)
        ar_hits += abs(fit.coefs[0][0, 0] - 0.8) <= 0.03

    two_hits = 0
    chain_hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        e = rng.uniform(-sqrt3, sqrt3, size=(5000, 3))
        x0 = e[:, 0]
        x1 = 0.8 * x0 + e[:, 1]
        order, b0 = direct_lingam_order(np.column_stack([x0, x1]))
        two_hits += order.index(0) < order.index(1) and abs(b0[1, 0] - 0.8) <= 0.05
        c1 = 0.7 * x0 + e[:, 1]
        c2 = 0.6 * c1 + e[:, 2]
        order3, _ = direct_lingam_order(np.column_stack([x0, c1, c2]))
        chain_hits += order3.index(0) < order3.index(1) < order3.index(2)

    ok = ar_hits >= 9 and two_hits >= 9 and chain_hits >= 9
    _verdict(3, "AR(0.8), two-variable, three-chain oracles",
             ok, f"hits: ar {ar_hits}/10, two-var {two_hits}/10, chain {chain_hits}/10")


# ---------------------------------------------------------------------------
# 4. improvement on the linear setting at reference scale
# ---------------------------------------------------------------------------

def test_criterion_4_linear_improvement():
    base_w, base_s = _suite_scores("linear", 1000, "varlingam", False, 0, 10)
    vcdf_w, vcdf_s = _suite_scores("linear", 1000, "varlingam", True, 0, 10)
    d_window = vcdf_w - base_w
    d_summary = vcdf_s - base_s
    ok = d_window >= 0.03 and d_summary >= 0.03
    _verdict(4, "stability filtering lifts varlingam on linear/T=1000",
             ok, f"window {d_window:+.3f}, summary {d_summary:+.3f}, floor +0.03")


# ---------------------------------------------------------------------------
# 5. the delta grows with series length
# ---------------------------------------------------------------------------

def test_criterion_5_length_trend():
    deltas = {}
    for T in (250, 2000):
        base_w, base_s = _suite_scores("trended", T, "lagreg", False, 0, 10)
        vcdf_w, vcdf_s = _suite_scores("trended", T, "lagreg", True, 0, 10)
        deltas[T] = vcdf_s - base_s
    rise = deltas[2000] - deltas[250]
    ok = rise >= 0.03
    _verdict(5, "summary-F1 delta grows from T=250 to T=2000",
             ok, f"delta(250) {deltas[250]:+.3f}, delta(2000) {deltas[2000]:+.3f}, rise {rise:+.3f}")


# ---------------------------------------------------------------------------
# 6. runtime ratio stays near the fold count
# ---------------------------------------------------------------------------

def _fastest_seconds(calls, repeats):
    """Each call's least wall time over ``repeats`` rounds that run the calls in turn."""
    seconds = np.zeros((repeats, len(calls)))
    for row in seconds:
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            row[i] = time.perf_counter() - t0
    return seconds.min(axis=0)


def test_criterion_6_runtime_ratio():
    # A base fit at T=250 takes about 10 ms, so one scheduling hiccup would
    # move a single timing: after a warm-up call, each dataset's base and
    # wrapped runs take turns, and each counts with its fastest of 5 rounds.
    # A 10 ms call often runs between preemptions where a 60 ms one cannot,
    # so under load medians inflate the ratio and minima do not.
    base = make_discoverer("varlingam")
    ratios = {}
    for T in (250, 1000, 2000):
        suite = benchmark_suite("linear", 15, T, 3, 0)
        run_vcdf(suite[0].series, base, VcdfConfig())
        base_secs, vcdf_secs = sum(
            _fastest_seconds([lambda: base.discover(ds.series), lambda: run_vcdf(ds.series, base, VcdfConfig())], 5)
            for ds in suite
        )
        ratios[T] = vcdf_secs / base_secs
    ok = all(3.0 <= r <= 9.0 for r in ratios.values())
    detail = ", ".join(f"T={T}: {r:.2f}" for T, r in ratios.items())
    _verdict(6, "k=5 wrapping costs 3x-9x wall clock", ok, detail)


# ---------------------------------------------------------------------------
# 7. evaluation brute force and serialization round-trips
# ---------------------------------------------------------------------------

def _random_graph(rng):
    n = int(rng.integers(2, 7))
    max_lag = int(rng.integers(1, 4))
    edges = set()
    for _ in range(int(rng.integers(0, 8))):
        lag = int(rng.integers(0, max_lag + 1))
        if lag == 0:
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        else:
            i, j = rng.integers(0, n), rng.integers(0, n)
        weight = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
        edges.add(Edge(int(i), int(j), lag, weight))
    dedup = {}
    for e in edges:
        dedup[e.key] = e
    return WindowGraph(n=n, max_lag=max_lag, edges=frozenset(dedup.values()))


def test_criterion_7_evaluation_and_round_trips(tmp_path):
    rng = np.random.default_rng(99)
    bad = None
    for i in range(500):
        a, b = _random_graph(rng), _random_graph(rng)
        n = max(a.n, b.n)
        a = WindowGraph(n=n, max_lag=a.max_lag, edges=a.edges)
        b = WindowGraph(n=n, max_lag=b.max_lag, edges=b.edges)

        pred_keys = {e.key for e in a.edges}
        truth_keys = {e.key for e in b.edges}
        if not any(k[2] == 0 for k in truth_keys):
            pred_keys = {k for k in pred_keys if k[2] != 0}
        tp, fp = len(pred_keys & truth_keys), len(pred_keys - truth_keys)
        fn = len(truth_keys - pred_keys)
        got = window_f1(a, b)
        if (got.true_positives, got.false_positives, got.false_negatives) != (tp, fp, fn):
            bad = f"window counts differ on pair {i}"
            break

        pred_pairs = {(e.cause, e.effect) for e in a.edges}
        truth_pairs = {(e.cause, e.effect) for e in b.edges}
        stp = len(pred_pairs & truth_pairs)
        sfp = len(pred_pairs - truth_pairs)
        sfn = len(truth_pairs - pred_pairs)
        sgot = summary_f1(a, b)
        if (sgot.true_positives, sgot.false_positives, sgot.false_negatives) != (stp, sfp, sfn):
            bad = f"summary counts differ on pair {i}"
            break

    rt_bad = None
    if bad is None:
        base = make_discoverer("lagreg")
        for i in range(100):
            values = rng.normal(size=(int(rng.integers(40, 80)), int(rng.integers(1, 4))))
            names = tuple(f"v{j}" for j in range(values.shape[1]))
            series = MultivariateSeries(values, names)
            path = tmp_path / f"rt_{i}.csv"
            write_series_csv(series, path)
            if read_series_csv(path) != series:
                rt_bad = f"series CSV round-trip {i}"
                break

            graph = _random_graph(rng)
            if graph_from_json(graph_to_json(graph)) != graph:
                rt_bad = f"graph JSON round-trip {i}"
                break

            if values.shape[1] >= 2 and values.shape[0] >= 50:
                _, report = run_vcdf(series, base, VcdfConfig(k=int(rng.integers(2, 6))))
                text = stability_report_to_json(report)
                if stability_report_from_json(text) != report:
                    rt_bad = f"stability report round-trip {i}"
                    break

    ok = bad is None and rt_bad is None
    _verdict(7, "F1 brute force x500 and serialization round-trips x100",
             ok, bad or rt_bad or "all exact")
