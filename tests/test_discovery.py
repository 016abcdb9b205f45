"""Recovery oracles for the VAR fit, the instantaneous ordering, and both discoverers."""

import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcdf.discovery as discovery
from vcdf import (
    SETTINGS,
    DiscovererConfig,
    Edge,
    MultivariateSeries,
    ScmSpec,
    WindowGraph,
    benchmark_suite,
    direct_lingam_order,
    fit_var,
    graph_to_json,
    lagreg_discover,
    make_discoverer,
    run_vcdf,
    simulate,
    summary_f1,
    varlingam_discover,
    window_f1,
)
from vcdf.discovery import _GAMMA, _K1, _K2, _entropy, _lagged_ols, _scratch, _select_exogenous

SQRT3 = float(np.sqrt(3.0))


def _ar_spec(seed):
    """Univariate x_t = 0.8 x_{t-1} + e_t with uniform noise."""
    return ScmSpec(WindowGraph(1, 1, frozenset({Edge(0, 0, 1, 0.8)})), seed=seed)


def _single_edge_spec(seed):
    """x0 -> x1 at lag 1 with weight 0.8."""
    return ScmSpec(WindowGraph(2, 1, frozenset({Edge(0, 1, 1, 0.8)})), seed=seed)


def _noise_spec(seed, n=3):
    return ScmSpec(WindowGraph(n, 1, frozenset()), seed=seed)


def _uniform(rng, size):
    return rng.uniform(-SQRT3, SQRT3, size=size)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, fragment", [
    ({"max_lag": 0}, "max_lag"),
    ({"prune_threshold": -0.1}, "prune_threshold"),
    ({"prune_threshold": float("inf")}, "prune_threshold"),
    ({"alpha": 1.5}, "alpha"),
    ({"max_lag": 2.0}, "max_lag must be an integer"),
    ({"max_lag": True}, "max_lag must be an integer"),
    ({"max_lag": np.True_}, "max_lag must be an integer"),
    ({"max_lag": "2"}, "max_lag must be an integer"),
    ({"prune_threshold": True}, "prune_threshold must be a number"),
    ({"alpha": False}, "alpha must be a number"),
    ({"alpha": np.False_}, "alpha must be a number"),
    ({"alpha": "0.5"}, "alpha must be a number"),
])
def test_config_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        DiscovererConfig(**kwargs)


def test_config_takes_numpy_integers():
    config = DiscovererConfig(max_lag=np.int64(2), alpha=np.float32(0.05))
    assert config.max_lag == 2 and type(config.max_lag) is int


# ---------------------------------------------------------------------------
# fit_var
# ---------------------------------------------------------------------------

def test_fit_var_recovers_ar_coefficient():
    hits = 0
    for seed in range(10):
        fit = fit_var(simulate(_ar_spec(seed), 5000).series, 1)
        hits += abs(fit.coefs[0][0, 0] - 0.8) <= 0.03
    assert hits >= 9


def test_fit_var_null_coefficients_stay_small():
    hits = 0
    for seed in range(10):
        fit = fit_var(simulate(_noise_spec(seed), 5000).series, 2)
        hits += bool(np.all(np.abs(fit.coefs) <= 0.1))
    assert hits >= 9


def test_fit_var_shapes():
    fit = fit_var(simulate(_noise_spec(0), 400).series, 2)
    assert fit.coefs.shape == (2, 3, 3)
    assert fit.residuals.shape == (398, 3)
    assert fit.stderr.shape == (2, 3, 3)


def test_fit_var_rejects_constant_column():
    values = np.column_stack([np.ones(200), np.linspace(0, 1, 200) ** 2])
    series = MultivariateSeries(values, ("const", "b"))
    with pytest.raises(ValueError, match="rank-deficient"):
        fit_var(series, 1)


def test_fit_var_rejects_short_series_and_bad_order():
    series = simulate(_noise_spec(1), 20).series
    with pytest.raises(ValueError, match="steps to fit"):
        fit_var(series, 6)
    with pytest.raises(ValueError, match="lag order"):
        fit_var(series, 0)
    for p in (2.0, True):
        with pytest.raises(ValueError, match=f"^p must be an integer, got {p}$"):
            fit_var(series, p)


def test_fit_var_residuals_are_orthogonal_to_regressors():
    series = simulate(_single_edge_spec(4), 1500).series
    p = 2
    fit = fit_var(series, p)
    values = series.values
    T = values.shape[0]
    columns = [np.ones(T - p)]
    for lag in range(1, p + 1):
        for j in range(values.shape[1]):
            columns.append(values[p - lag:T - lag, j])
    for col in columns:
        for r in range(fit.residuals.shape[1]):
            res = fit.residuals[:, r]
            denom = float(np.linalg.norm(col) * np.linalg.norm(res))
            assert abs(float(col @ res)) / denom < 1e-6


# ---------------------------------------------------------------------------
# direct_lingam_order
# ---------------------------------------------------------------------------

def test_two_variable_ordering_and_effect():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        e = _uniform(rng, (5000, 2))
        x0 = e[:, 0]
        x1 = 0.8 * x0 + e[:, 1]
        order, b0 = direct_lingam_order(np.column_stack([x0, x1]))
        hits += order.index(0) < order.index(1) and abs(b0[1, 0] - 0.8) <= 0.05
    assert hits >= 9


def test_three_chain_ordering():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        e = _uniform(rng, (5000, 3))
        x0 = e[:, 0]
        x1 = 0.7 * x0 + e[:, 1]
        x2 = 0.6 * x1 + e[:, 2]
        order, _ = direct_lingam_order(np.column_stack([x0, x1, x2]))
        hits += order.index(0) < order.index(1) < order.index(2)
    assert hits >= 9


def test_independent_columns_give_near_zero_b0():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        _, b0 = direct_lingam_order(_uniform(rng, (5000, 3)))
        hits += bool(np.all(np.abs(b0) <= 0.05))
    assert hits >= 9


def test_ordering_rejects_bad_residual_matrices():
    with pytest.raises(ValueError, match="2-dimensional"):
        direct_lingam_order(np.zeros(100))
    with pytest.raises(ValueError, match="finite"):
        direct_lingam_order(np.full((100, 2), np.nan))
    with pytest.raises(ValueError, match="residual rows"):
        direct_lingam_order(np.zeros((15, 2)))
    x, y = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, 100))
    for scale in (1.0, 1e-10, 1e-7, 1e5, 1e10):
        for columns in ([np.ones(100), np.arange(100.0)], [np.full(100, 57418.9), y], [x, 2 * x, y]):
            with pytest.raises(ValueError, match="degenerate"):
                direct_lingam_order(scale * np.column_stack(columns))


@pytest.mark.parametrize("scale", [1e-100, 1e-16, 1e-14, 1e-10, 1e-7, 1e5, 1e10, 1e14, 1e16, 1e100])
@pytest.mark.parametrize("method", ["varlingam", "lagreg"])
def test_discoverers_do_not_depend_on_the_input_scale(method, scale):
    discoverer = make_discoverer(method)
    for setting in SETTINGS:
        series = benchmark_suite(setting, 5, 300, 1, 0)[0].series
        want = discoverer.discover(series).weight_map()
        got = discoverer.discover(MultivariateSeries(scale * series.values, series.names)).weight_map()
        assert got.keys() == want.keys()
        for key, weight in got.items():
            assert abs(weight - want[key]) <= 1e-9 * abs(want[key]), (setting, key)


@pytest.mark.parametrize("factors", [[1e8, 1e-8, 1.0, 1e4, 1e-4], [1e150, 1e-140, 1.0, 1.0, 1.0]],
                         ids=["1e8", "1e150"])
@pytest.mark.parametrize("method", ["varlingam", "lagreg"])
def test_discoverers_do_not_depend_on_the_units_of_each_column(method, factors):
    # Unpruned, so every estimated edge is compared: a weight from cause i to
    # effect j is in units of x_j per x_i and rescales by d_j / d_i.
    factors = np.array(factors)
    discoverer = make_discoverer(method, DiscovererConfig(prune_threshold=0.0))
    for setting in SETTINGS:
        series = benchmark_suite(setting, 5, 300, 1, 0)[0].series
        want = discoverer.discover(series).weight_map()
        got = discoverer.discover(MultivariateSeries(series.values * factors, series.names)).weight_map()
        assert got.keys() == want.keys(), setting
        for (cause, effect, lag), weight in want.items():
            expected = weight * factors[effect] / factors[cause]
            assert abs(got[cause, effect, lag] - expected) <= 1e-9 * abs(expected), (setting, cause, effect, lag)


@pytest.mark.parametrize("method", ["varlingam", "lagreg"])
def test_discoverers_do_not_depend_on_the_units_of_two_nearly_equal_columns(method):
    # Column 1 is column 0 plus 1e-12 of noise, so the fit takes the QR path; at
    # 2**-485 (about 1e-146) the entries of R^-1 reach 1e157 and their squares
    # leave the float range. Powers of two rescale every weight exactly.
    series = benchmark_suite("linear", 5, 300, 1, 0)[0].series
    values = series.values.copy()
    values[:, 1] = values[:, 0] + 1e-12 * np.random.default_rng(0).standard_normal(300)
    factors = np.array([2.0**-485, 2.0**-485, 1.0, 1.0, 1.0])
    discoverer = make_discoverer(method, DiscovererConfig(prune_threshold=0.0))
    want = discoverer.discover(MultivariateSeries(values, series.names)).weight_map()
    got = discoverer.discover(MultivariateSeries(values * factors, series.names)).weight_map()
    assert got.keys() == want.keys()
    for (cause, effect, lag), weight in want.items():
        expected = weight * factors[effect] / factors[cause]
        assert abs(got[cause, effect, lag] - expected) <= 1e-9 * abs(expected), (cause, effect, lag)


def _with_cell(row, value):
    """An edit of the series values that sets column 2 of ``row`` to ``value``."""
    def edit(values):
        values = values.copy()
        values[row, 2] = value
        return values
    return edit


@pytest.mark.parametrize("edit", [
    *(pytest.param(lambda values, s=scale: s * values, id=f"{scale:g}")
      for scale in (1e-300, 1e-200, 1e200, 1e300)),
    # One cell of the first row (only ever a regressor), of a middle row, and of
    # the last row (only ever a target).
    pytest.param(_with_cell(0, 1e200), id="first-row-1e200"),
    pytest.param(_with_cell(150, 1e200), id="middle-row-1e200"),
    pytest.param(_with_cell(-1, 1e200), id="last-row-1e200"),
    # One column whose squares underflow.
    pytest.param(lambda values: values * [1.0, 1.0, 1e-170, 1.0, 1.0], id="column-1e-170"),
])
@pytest.mark.parametrize("method", ["varlingam", "lagreg"])
def test_discoverers_reject_a_series_whose_squares_leave_the_float_range(method, edit):
    series = benchmark_suite("linear", 5, 300, 1, 0)[0].series
    with pytest.raises(ValueError, match="out of range"):
        make_discoverer(method).discover(MultivariateSeries(edit(series.values), series.names))


def _pairwise_select(work, active):
    """Reference: the pairwise loop of scalar entropy proxies that the vectorized ordering replaced.

    Returns its choice and every active column's score.
    """
    def entropy(u):
        return ((1.0 + math.log(2.0 * math.pi)) / 2.0
                - _K1 * (np.mean(np.log(np.cosh(u))) - _GAMMA) ** 2
                - _K2 * np.mean(u * np.exp(-(u**2) / 2.0)) ** 2)

    def standardized(column):
        return (column - column.mean()) / column.std()

    x = {i: standardized(work[:, i]) for i in active}
    scores = []
    for i in active:
        score = 0.0
        for j in active:
            if j != i:
                corr = np.mean(x[i] * x[j])
                diff = (entropy(x[j]) + entropy(standardized(x[i] - corr * x[j]))) - (
                    entropy(x[i]) + entropy(standardized(x[j] - corr * x[i])))
                score += min(0.0, diff) ** 2
        scores.append(score)
    return active[int(np.argmin(scores))], scores


@pytest.mark.parametrize("m, T, near_copy", [
    (2, 200, False), (4, 500, False), (7, 1000, False),
    # One active column is another plus 1e-6 noise, where the residual slabs cancel most.
    (4, 500, True),
])
def test_select_exogenous_matches_the_pairwise_loop(m, T, near_copy):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        e = rng.laplace(size=(T, m + 1)) ** 3
        work = e @ np.triu(rng.uniform(-1.0, 1.0, size=(m + 1, m + 1)))
        active = sorted(rng.choice(m + 1, size=m, replace=False).tolist())
        if near_copy:
            work[:, active[1]] = work[:, active[0]] + 1e-6 * rng.laplace(size=T)
        # The ordering hands over centred work columns.
        work -= work.mean(axis=0)
        # Rounding may pick either of two near copies (at seed 18, the one 1.5e-20 above the minimum), so the
        # choice need only score within 1e-12 of the reference's; distinct candidates differ by 5e-5 or more.
        choice, scores = _pairwise_select(work, active)
        chosen = _select_exogenous(work, active, _scratch(*work.shape))
        assert scores[active.index(chosen)] <= scores[active.index(choice)] + 1e-12, (seed, chosen, choice)


@pytest.mark.parametrize("m", range(2, 9))
def test_batching_changes_no_bit_of_the_selection(monkeypatch, m):
    T = 300
    rng = np.random.default_rng(m)
    work = (rng.laplace(size=(T, m)) ** 3) @ np.triu(rng.uniform(-1.0, 1.0, size=(m, m)))
    # A near copy, whose residual slabs cancel most.
    work[:, 1] = work[:, 0] + 1e-6 * rng.laplace(size=T)
    work -= work.mean(axis=0)
    # An exact copy leaves a residual slab of rounding noise only.
    degenerate = work.copy()
    degenerate[:, 1] = degenerate[:, 0]
    entropy = discovery._entropy
    outcomes = []
    for batch in (1, 2, m):
        monkeypatch.setattr(discovery, "_BATCH_VALUES", batch * (m - 1) * T)
        calls = []
        monkeypatch.setattr(discovery, "_entropy", lambda u, a, b: calls.append(entropy(u, a, b)) or calls[-1])
        chosen = _select_exogenous(work, list(range(m)), _scratch(T, m))
        # The first call scores the active rows, each later one a batch of candidates' residuals.
        assert [len(c) for c in calls[1:]] == [min(batch, m - start) for start in range(0, m, batch)]
        residual = np.zeros((m, m))
        residual[~np.eye(m, dtype=bool)] = np.concatenate(calls[1:]).ravel()
        direction = (calls[0][None, :] + residual) - (calls[0][:, None] + residual.T)
        scores = np.square(np.minimum(direction, 0.0)).sum(axis=1)
        assert chosen == int(np.argmin(scores))
        with pytest.raises(ValueError, match="degenerate") as error:
            _select_exogenous(degenerate, list(range(m)), _scratch(T, m))
        outcomes.append((chosen, scores.tobytes(), residual.tobytes(), str(error.value)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_entropy_proxy_is_finite_far_in_the_tails():
    u = np.array([800.0, -800.0, 0.0, 1.0])
    log_cosh = [800.0 - math.log(2.0), 800.0 - math.log(2.0), 0.0, math.log(math.cosh(1.0))]
    gauss = [0.0, 0.0, 0.0, math.exp(-0.5)]
    closed_form = ((1.0 + math.log(2.0 * math.pi)) / 2.0
                   - _K1 * (np.mean(log_cosh) - _GAMMA) ** 2
                   - _K2 * np.mean(gauss) ** 2)
    for sample in (u, u[::-1].reshape(1, -1)):
        value = _entropy(sample, *np.empty((2, *sample.shape)))
        assert np.isfinite(value).all()
        assert np.allclose(value, closed_form, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape, axis", [((1000,), 0), ((7, 800), -1), ((5, 3, 4000), -1),
                                         ((800, 7), 0), ((800, 7), "column")])
def test_sums_over_the_count_are_the_bits_of_mean_and_var(shape, axis):
    # The ordering divides np.add.reduce sums by the count where it once called .mean and
    # .var; the goldens were made with those, so the two must agree to the bit.
    x = np.random.default_rng(1).standard_normal(shape) * 3.0 + 0.5
    if axis == "column":  # a strided view, as the ordering's pivot column is
        x, axis = x[:, 3], 0
    count = x.shape[axis]
    mean = np.add.reduce(x, axis=axis, keepdims=True) / count
    assert mean.tobytes() == x.mean(axis=axis, keepdims=True).tobytes()
    centred = x - mean
    variance = np.add.reduce(centred * centred, axis=axis) / count
    assert variance.tobytes() == x.var(axis=axis).tobytes()


def test_ordering_of_a_long_sample_with_an_outlier_raises_no_warning():
    # Standardized, the outlier sits near u = 756, where cosh(u) overflows.
    e = np.random.default_rng(0).random((600_000, 2))
    e[0, 0] = 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order, b0 = direct_lingam_order(e)
    assert sorted(order) == [0, 1]
    assert np.isfinite(b0).all()


# ---------------------------------------------------------------------------
# varlingam_discover
# ---------------------------------------------------------------------------

def test_varlingam_recovers_the_single_edge_exactly():
    config = DiscovererConfig(max_lag=3, prune_threshold=0.1)
    hits = 0
    for seed in range(10):
        graph = varlingam_discover(simulate(_single_edge_spec(seed), 2000).series, config)
        keys = {e.key for e in graph.edges}
        weights_ok = all(abs(e.weight - 0.8) <= 0.1 for e in graph.edges if e.key == (0, 1, 1))
        hits += keys == {(0, 1, 1)} and weights_ok
    assert hits >= 9


def test_varlingam_null_gives_empty_graph():
    config = DiscovererConfig(max_lag=3, prune_threshold=0.15)
    hits = 0
    for seed in range(10):
        graph = varlingam_discover(simulate(_noise_spec(seed + 100), 2000).series, config)
        hits += not graph.edges
    assert hits >= 9


def test_varlingam_recovers_both_layers():
    """Instantaneous 0 -> 1 (0.5) and lagged 1 -> 0 (0.6) at the same time."""
    spec = ScmSpec(WindowGraph(2, 1, frozenset({Edge(1, 0, 1, 0.6), Edge(0, 1, 0, 0.5)})), seed=3)
    config = DiscovererConfig(max_lag=2, prune_threshold=0.1)
    graph = varlingam_discover(simulate(spec, 2000).series, config)
    weights = {e.key: e.weight for e in graph.edges}
    assert set(weights) == {(0, 1, 0), (1, 0, 1)}
    assert abs(weights[(0, 1, 0)] - 0.5) < 0.08
    assert abs(weights[(1, 0, 1)] - 0.6) < 0.08


def test_varlingam_never_emits_subthreshold_weights():
    config = DiscovererConfig(max_lag=3, prune_threshold=0.07)
    for seed in (0, 1):
        graph = varlingam_discover(simulate(_single_edge_spec(seed), 1000).series, config)
        assert all(abs(e.weight) >= 0.07 for e in graph.edges)


def test_varlingam_is_deterministic():
    series = simulate(_single_edge_spec(8), 1200).series
    config = DiscovererConfig()
    a = varlingam_discover(series, config)
    b = varlingam_discover(series, config)
    assert graph_to_json(a) == graph_to_json(b)


def test_varlingam_is_label_equivariant():
    series = simulate(_single_edge_spec(5), 2000).series
    swapped = MultivariateSeries(series.values[:, [1, 0]], ("x1", "x0"))
    config = DiscovererConfig(max_lag=2, prune_threshold=0.1)
    direct = varlingam_discover(series, config)
    via_swap = varlingam_discover(swapped, config)
    # swapping both variable columns relabels 0 <-> 1 in the output
    remapped = {(1 - e.cause, 1 - e.effect, e.lag) for e in via_swap.edges}
    assert remapped == {e.key for e in direct.edges}


# ---------------------------------------------------------------------------
# lagreg_discover
# ---------------------------------------------------------------------------

def test_lagreg_recovers_the_single_edge():
    config = DiscovererConfig(max_lag=3, prune_threshold=0.05, alpha=0.01)
    hits = 0
    for seed in range(10):
        graph = lagreg_discover(simulate(_single_edge_spec(seed), 2000).series, config)
        hits += {e.key for e in graph.edges} == {(0, 1, 1)}
    assert hits >= 9


def test_lagreg_alpha_zero_returns_an_empty_graph():
    series = simulate(_single_edge_spec(0), 1000).series
    graph = lagreg_discover(series, DiscovererConfig(alpha=0.0))
    assert not graph.edges


def test_lagreg_emits_no_instantaneous_edges():
    spec = ScmSpec(WindowGraph(3, 2, frozenset({Edge(0, 1, 1, 0.7), Edge(1, 2, 0, 0.8)})), seed=6)
    graph = lagreg_discover(simulate(spec, 1500).series, DiscovererConfig())
    assert all(e.lag >= 1 for e in graph.edges)


def test_lagreg_is_deterministic():
    series = simulate(_single_edge_spec(2), 800).series
    config = DiscovererConfig()
    assert graph_to_json(lagreg_discover(series, config)) == \
        graph_to_json(lagreg_discover(series, config))


# ---------------------------------------------------------------------------
# edge emission
# ---------------------------------------------------------------------------

def reference_varlingam_discover(series: MultivariateSeries, config: DiscovererConfig) -> WindowGraph:
    """The original per-entry edge loops of varlingam_discover: the oracle for its numpy masks."""
    fit = fit_var(series, config.max_lag)
    _, b0 = direct_lingam_order(fit.residuals)
    n = series.n_vars
    structural = (np.eye(n) - b0) @ fit.coefs
    edges = []
    for j in range(n):
        for i in range(n):
            weight = b0[j, i]
            if weight != 0.0 and abs(weight) >= config.prune_threshold:
                edges.append(Edge(i, j, 0, float(weight)))
    for lag in range(1, config.max_lag + 1):
        B = structural[lag - 1]
        for j in range(n):
            for i in range(n):
                weight = B[j, i]
                if weight != 0.0 and abs(weight) >= config.prune_threshold:
                    edges.append(Edge(i, j, lag, float(weight)))
    return WindowGraph(n, config.max_lag, frozenset(edges))


def reference_lagreg_discover(series: MultivariateSeries, config: DiscovererConfig) -> WindowGraph:
    """The original per-entry edge loop of lagreg_discover: the oracle for its numpy masks."""
    p = config.max_lag
    n = series.n_vars
    beta, residuals, R = _lagged_ols(series.values, p)
    rows, q = residuals.shape[0], R.shape[0]
    dof = rows - q
    sigma2 = (residuals**2).sum(axis=0) / dof
    r_inv = np.linalg.solve(R, np.eye(q))
    unit_variance = (r_inv**2).sum(axis=1)

    if config.alpha == 0.0:
        return WindowGraph(n, p, frozenset())
    critical = NormalDist().inv_cdf(1.0 - config.alpha / 2.0)

    edges = []
    for lag in range(1, p + 1):
        for i in range(n):
            row = 1 + (lag - 1) * n + i
            for j in range(n):
                coef = float(beta[row, j])
                if coef == 0.0 or abs(coef) < config.prune_threshold:
                    continue
                se = math.sqrt(sigma2[j] * unit_variance[row])
                if se > 0.0 and abs(coef) / se > critical:
                    edges.append(Edge(i, j, lag, coef))
    return WindowGraph(n, p, frozenset(edges))


_ORACLE_CONFIGS = [
    DiscovererConfig(),
    DiscovererConfig(max_lag=1, prune_threshold=0.0, alpha=0.2),
    DiscovererConfig(alpha=1.0),
    DiscovererConfig(prune_threshold=0.1, alpha=0.0),
]


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("n, T", [(4, 200), (8, 1000)])
def test_edge_emission_matches_the_per_entry_loops(setting, n, T):
    series = benchmark_suite(setting, n, T, 1, 3)[0].series
    for config in _ORACLE_CONFIGS:
        for discover, reference in ((varlingam_discover, reference_varlingam_discover),
                                    (lagreg_discover, reference_lagreg_discover)):
            expected = graph_to_json(reference(series, config))
            assert graph_to_json(discover(series, config)) == expected, (discover.__name__, config)


# ---------------------------------------------------------------------------
# OLS core
# ---------------------------------------------------------------------------

def lagged_design(values, p):
    """The design of _lagged_ols, an intercept then lags 1..p, and its targets."""
    T = len(values)
    return np.hstack([np.ones((T - p, 1))] + [values[p - lag : T - lag] for lag in range(1, p + 1)]), values[p:]


def reference_lagged_ols(values, p):
    """The QR solve of _lagged_ols: the oracle for its Gram solve.

    Its rank test also fails an entry of R below max(rows, columns)·eps of the
    largest entry, as ``_qr_solve``'s once did, so it rejects a well-posed
    design whose columns differ in magnitude by more than about 1/(rows·eps).
    """
    if p < 1:
        raise ValueError(f"lag order must be >= 1, got {p}")
    T, n = values.shape
    if T <= n * p + p + 1:
        raise ValueError(f"need more than {n * p + p + 1} steps to fit {n} variables at lag {p}, got {T}")
    Z, Y = lagged_design(values, p)
    Q, R = np.linalg.qr(Z)
    diag = np.abs(np.diag(R))
    tol = max(Z.shape) * np.finfo(float).eps * np.maximum(np.hypot.reduce(R, axis=0), diag.max())
    if (diag <= tol).any():
        raise ValueError(
            "rank-deficient regressor matrix (constant or duplicate columns, or too few rows)"
        )
    beta = np.linalg.solve(R, Q.T @ Y)
    return beta, Y - Z @ beta, R


def reference_direct_lingam_order(residuals):
    """The original ordering, which re-solved each variable's regression on its predecessors with lstsq: the b0 oracle."""
    E = np.asarray(residuals, dtype=float)
    if E.ndim != 2:
        raise ValueError(f"residuals must be 2-dimensional, got shape {E.shape}")
    if not np.isfinite(E).all():
        raise ValueError("residuals must be finite")
    rows, n = E.shape
    if rows < 10 * n:
        raise ValueError(f"need at least {10 * n} residual rows for {n} variables, got {rows}")

    # Centred, as _select_exogenous expects; the lstsq b0 below reads E itself.
    work = E - E.mean(axis=0)
    active = list(range(n))
    order: list[int] = []
    while active:
        chosen = active[0] if len(active) == 1 else _select_exogenous(work, active, _scratch(*work.shape))
        order.append(chosen)
        active.remove(chosen)
        if active:
            pivot = work[:, chosen]
            var = float(pivot.var())
            pivot_mean = float(pivot.mean())
            rest = work[:, active]
            covs = rest.mean(axis=0) * pivot_mean
            covs = (rest * pivot[:, None]).mean(axis=0) - covs
            work[:, active] = rest - np.outer(pivot, covs / var)

    b0 = np.zeros((n, n))
    ones = np.ones((rows, 1))
    for idx in range(1, n):
        target = order[idx]
        predecessors = order[:idx]
        Z = np.hstack([ones, E[:, predecessors]])
        beta, _, _, _ = np.linalg.lstsq(Z, E[:, target], rcond=None)
        b0[target, predecessors] = beta[1:]
    b0[np.abs(b0) < discovery._ZERO_TOLERANCE] = 0.0
    return order, b0


def _base_and_filtered(series, method):
    """The base method's graph, and the filtered graph and stability report of one run_vcdf."""
    filtered, report = run_vcdf(series, make_discoverer(method))
    base = WindowGraph(filtered.n, filtered.max_lag,
                       frozenset(Edge(e.cause, e.effect, e.lag, e.r0) for e in report.edges))
    return base, filtered, report


def _assert_graphs_agree(got, want, truth):
    assert {e.key for e in got.edges} == {e.key for e in want.edges}
    weights = want.weight_map()
    for edge in got.edges:
        assert abs(edge.weight - weights[edge.key]) <= 1e-9 * abs(weights[edge.key]), edge
    assert window_f1(got, truth) == window_f1(want, truth)
    assert summary_f1(got, truth) == summary_f1(want, truth)


def _assert_runs_agree(got, want, truth):
    """Two ``_base_and_filtered`` results: the same graphs, kept flags and C, and estimates within 1e-9."""
    for got_graph, want_graph in zip(got[:2], want[:2]):
        _assert_graphs_agree(got_graph, want_graph, truth)
    verdicts = [[(e.cause, e.effect, e.lag, e.c, e.kept) for e in report.edges]
                for report in (got[2], want[2])]
    assert verdicts[0] == verdicts[1]
    for g, w in zip(got[2].edges, want[2].edges):
        np.testing.assert_allclose([g.r0, *g.folds, g.v], [w.r0, *w.folds, w.v], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("T", [250, 1000, 4000])
def test_ols_core_matches_the_qr_reference(monkeypatch, setting, T):
    for dataset in benchmark_suite(setting, 15, T, 3, 0):
        for method in ("varlingam", "lagreg"):
            got = _base_and_filtered(dataset.series, method)
            with monkeypatch.context() as patched:
                patched.setattr(discovery, "_lagged_ols", reference_lagged_ols)
                want = _base_and_filtered(dataset.series, method)
            _assert_runs_agree(got, want, dataset.truth)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("n, T", [(5, 300), (8, 1000), (15, 250), (15, 1000), (15, 4000)])
def test_ordering_matches_the_lstsq_reference(monkeypatch, setting, n, T):
    for dataset in benchmark_suite(setting, n, T, 3, 7):
        residuals = fit_var(dataset.series, DiscovererConfig().max_lag).residuals
        order, b0 = direct_lingam_order(residuals)
        want_order, want_b0 = reference_direct_lingam_order(residuals)
        assert order == want_order
        np.testing.assert_array_equal(b0 != 0.0, want_b0 != 0.0)
        assert np.abs(b0 - want_b0).max() <= 1e-12 * np.abs(want_b0).max()
        got = _base_and_filtered(dataset.series, "varlingam")
        with monkeypatch.context() as patched:
            patched.setattr(discovery, "direct_lingam_order", reference_direct_lingam_order)
            want = _base_and_filtered(dataset.series, "varlingam")
        _assert_runs_agree(got, want, dataset.truth)


@pytest.mark.parametrize("columns", [
    pytest.param(lambda x, y, z: [x, x + 1e-4 * y, y], id="dependent"),
    pytest.param(lambda x, y, z: [x, x + 1e-4 * y, z], id="near-copy"),
    pytest.param(lambda x, y, z: [x, y, x - y + 1e-6 * z], id="near-sum"),
])
def test_ordering_matches_the_lstsq_reference_on_near_collinear_residuals(columns):
    x, y, z = np.random.default_rng(0).laplace(size=(3, 2000))
    outcomes = []
    for order in (direct_lingam_order, reference_direct_lingam_order):
        try:
            outcomes.append(order(np.column_stack(columns(x, y, z))))
        except ValueError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0]
    assert np.abs(got[1] - want[1]).max() <= 1e-9 * np.abs(want[1]).max()


@pytest.mark.parametrize("eps", [1e-7, 1e-9])
def test_varlingam_fits_a_series_with_a_near_sum_column(eps):
    # Column 2 is column 0 + column 1 + eps noise: once both are regressed out
    # of it, its work column keeps a deviation near eps, which is not degenerate
    # wherever it falls in the order.
    for seed in range(10):
        series = benchmark_suite("non_gaussian", 5, 1000, 1, seed)[0].series
        values = series.values.copy()
        values[:, 2] = values[:, 0] + values[:, 1] + eps * np.random.default_rng(seed).laplace(size=len(values))
        make_discoverer("varlingam").discover(MultivariateSeries(values, series.names))


@st.composite
def ill_conditioned_values(draw):
    """A lag order and a series with one near-copied, constant, trended or rescaled column."""
    T = draw(st.integers(min_value=30, max_value=300))
    n = draw(st.integers(min_value=2, max_value=4))
    p = draw(st.integers(min_value=1, max_value=2))
    values = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))).standard_normal((T, n))
    j = draw(st.integers(min_value=0, max_value=n - 1))
    kind = draw(st.sampled_from(["near-copy", "constant", "trended", "rescaled"]))
    if kind == "near-copy":
        # Noise scales from 1e-9 to 1 put the column's sine on both sides of the QR fallback ratio.
        values[:, j] = values[:, (j + 1) % n] + 10.0 ** draw(st.floats(min_value=-9.0, max_value=0.0)) * values[:, j]
    elif kind == "constant":
        values[:, j] = draw(st.floats(min_value=-1e6, max_value=1e6))
    elif kind == "trended":
        slope = draw(st.floats(min_value=-10.0, max_value=10.0))
        values[:, j] += draw(st.floats(min_value=-1e6, max_value=1e6)) + slope * np.arange(T)
    else:
        # Far enough from 1 that squares underflow or overflow.
        values[:, j] *= 10.0 ** draw(st.floats(min_value=-200.0, max_value=200.0))
    return values, p


def refined_by_qr(values, p, beta):
    """``beta`` after one refinement step on its residual, solved with QR's triangular factor."""
    Z, Y = lagged_design(values, p)
    R = np.linalg.qr(Z, mode="r")
    return beta + np.linalg.solve(R, np.linalg.solve(R.T, Z.T @ (Y - Z @ beta)))


@settings(max_examples=300, deadline=None)
@given(case=ill_conditioned_values())
def test_ols_core_matches_the_qr_reference_on_ill_conditioned_designs(case):
    values, p = case
    # The oracle and its yardstick see each column divided by the power of two
    # at its largest magnitude, which is exact, as is mapping their
    # coefficients back: cause i on effect j (and j's intercept) times 2**(e_j - e_i).
    e = np.frexp(np.abs(values).max(axis=0))[1]
    scaled = np.ldexp(values, -e)
    back = e - np.concatenate([[0], np.tile(e, p)])[:, None]
    outcomes = []
    for solve in (lambda: _lagged_ols(values, p)[0], lambda: reference_lagged_ols(scaled, p)[0]):
        try:
            outcomes.append(solve())
        except ValueError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(got, str) and "out of range" in got:
        # Only the squares of a column far from 1 overflow or underflow.
        magnitude = np.abs(values).max(axis=0)
        assert ((magnitude > 1e140) | ((magnitude > 0.0) & (magnitude < 1e-140))).any()
        return
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    # QR refined once on its residual is the yardstick: on a trended column
    # with a large offset QR itself is off by up to 7e-8 of the largest
    # coefficient, the refined solution by 5e-9 (against 60-digit arithmetic).
    # The coefficients may stray from it by QR's own distance plus 1e-8.
    refined = np.ldexp(refined_by_qr(scaled, p, want), back)
    want = np.ldexp(want, back)
    assert np.abs(got - refined).max() <= np.abs(want - refined).max() + 1e-8 * np.abs(want).max()


def test_ols_core_rejects_a_constant_column_of_any_value():
    # The constant's own norm, not the intercept's, sets the scale of its
    # roundoff. Far enough from 1, its squares leave the float range: an error of its own.
    noise = np.random.default_rng(0).standard_normal(30)
    for value, match in ((0.0, "rank-deficient"), (1.0, "rank-deficient"), (57418.9, "rank-deficient"),
                         (3.4e-159, "out of range"), (1e-200, "out of range"), (1e200, "out of range")):
        values = np.column_stack([np.full(30, value), noise])
        with pytest.raises(ValueError, match=match):
            _lagged_ols(values, 1)
        with pytest.raises(ValueError, match="rank-deficient"):
            reference_lagged_ols(values, 1)


@pytest.mark.parametrize("noise, qr_calls", [(1e-7, 1), (1e-6, 1), (1e-4, 0), (1.0, 0)])
def test_ols_core_falls_back_to_qr_only_for_a_nearly_dependent_column(monkeypatch, noise, qr_calls):
    values = np.random.default_rng(0).standard_normal((500, 3))
    values[:, 2] = values[:, 1] + noise * values[:, 2]
    calls = []
    qr_solve = discovery._qr_solve
    monkeypatch.setattr(discovery, "_qr_solve", lambda Z, Y: calls.append(1) or qr_solve(Z, Y))
    beta = _lagged_ols(values, 2)[0]
    assert len(calls) == qr_calls
    want = reference_lagged_ols(values, 2)[0]
    assert np.abs(beta - want).max() <= 1e-9 * np.abs(want).max()


# ---------------------------------------------------------------------------
# the Discoverer record
# ---------------------------------------------------------------------------

def test_make_discoverer_round_trip():
    series = simulate(_single_edge_spec(1), 1000).series
    config = DiscovererConfig(max_lag=2)
    for method_id, direct in (("varlingam", varlingam_discover), ("lagreg", lagreg_discover)):
        disc = make_discoverer(method_id, config)
        assert disc.method_id == method_id
        assert disc.discover(series) == direct(series, config)


@pytest.mark.parametrize("method_id", ["varlingam", "lagreg"])
def test_discoverer_looks_its_method_up_at_call_time(method_id, monkeypatch):
    """A function rebound on the module after construction (as a tracer does) is the one called."""
    series = simulate(_single_edge_spec(1), 200).series
    config = DiscovererConfig(max_lag=2)
    disc = make_discoverer(method_id, config)
    calls, results = [], {}
    for name in ("varlingam_discover", "lagreg_discover"):
        results[name] = object()

        def sentinel(got_series, got_config, name=name):
            calls.append((name, got_series, got_config))
            return results[name]

        monkeypatch.setattr(discovery, name, sentinel)
    assert disc.discover(series) is results[f"{method_id}_discover"]
    [(name, got_series, got_config)] = calls
    assert name == f"{method_id}_discover"
    assert got_series is series and got_config is config


def test_make_discoverer_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown discoverer"):
        make_discoverer("pcmci")
