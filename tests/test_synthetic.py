"""Random system construction, stationarity, simulation statistics, determinism."""

import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdf import Edge, ScmSpec, WindowGraph, benchmark_suite, companion_spectral_radius, random_scm, simulate
from vcdf.series import instantaneous_order
from vcdf.synthetic import _NOISE_SAMPLERS, _NOISE_STREAM, DEFAULT_BURN_IN, SETTINGS


def _spec(n, max_lag, edges=(), **kwargs):
    """The system on the graph of ``edges``."""
    return ScmSpec(WindowGraph(n, max_lag, frozenset(edges)), **kwargs)


def _layers(graph):
    """The graph's lagged and instantaneous edges, each in ``sorted_edges`` order."""
    edges = graph.sorted_edges()
    return [e for e in edges if e.lag], [e for e in edges if not e.lag]


def _chain_spec(weight=0.8, **kwargs):
    """Two variables, one lagged edge x0 -> x1 at lag 1."""
    return _spec(2, 1, [Edge(0, 1, 1, weight)], **kwargs)


def _noise_only_spec(n=4, noise="gaussian", seed=0):
    return _spec(n, 1, noise=noise, seed=seed)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def test_spec_rejects_out_of_band_coefficients():
    with pytest.raises(ValueError, match=r"magnitude must lie in \[0.1, 0.9\]"):
        _chain_spec(weight=0.95)
    with pytest.raises(ValueError, match="magnitude"):
        _chain_spec(weight=0.05)


def test_spec_rejects_edges_of_the_wrong_kind():
    with pytest.raises(ValueError, match=r"edge Edge\(cause=0, effect=1, lag=1, weight='0.5'\)"):
        _chain_spec(weight="0.5")
    with pytest.raises(ValueError, match="must be integers"):
        _spec(2, 1, [Edge(0, True, 0, 0.5)])


@pytest.mark.parametrize("field, value, message", [
    ("max_lag", "1", "max_lag must be an integer, got '1'"),
    ("n", 2.0, "n must be an integer, got 2.0"),
    ("trend_slope", "0.1", "trend_slope must be a number, got '0.1'"),
    ("trend_slope", True, "trend_slope must be a number, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("noise", 5, "noise must be a string, got 5"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("graph", (2, 1, ()), "graph must be a WindowGraph, got (2, 1, ())"),
    ("graph", WindowGraph(2, 0, frozenset()), "graph max_lag must be >= 1, got 0"),
])
def test_spec_rejects_scalar_fields_of_the_wrong_kind(field, value, message):
    """``n`` and ``max_lag`` are the graph's fields, the rest the spec's own."""
    graph = {"n": 2, "max_lag": 1, "edges": frozenset({Edge(0, 1, 1, 0.8)})}
    fields = {}
    (graph if field in graph else fields)[field] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScmSpec(**{"graph": WindowGraph(**graph), **fields})


def test_spec_stores_numpy_scalars_as_python_ones():
    spec = _spec(np.int64(2), np.uint64(1), [Edge(0, 1, 1, 0.8)], trend_slope=np.float64(0.005), seed=np.uint64(3))
    kinds = [type(v) for v in (spec.graph.n, spec.graph.max_lag, spec.trend_slope, spec.seed)]
    assert kinds == [int, int, float, int]
    plain = _chain_spec(trend_slope=0.005, seed=3)
    assert spec == plain
    assert simulate(spec, 300).series.values.tobytes() == simulate(plain, 300).series.values.tobytes()


def test_spec_rejects_unstable_dynamics():
    with pytest.raises(ValueError, match="spectral radius"):
        _spec(2, 3, [Edge(0, 0, 1, 0.9), Edge(0, 0, 2, 0.9), Edge(0, 0, 3, 0.9)])


def reference_spectral_radius(graph: WindowGraph) -> float:
    """The companion radius built from per-lag matrices: the oracle for the block filled from the edges.

    A[l-1][effect, cause] is the coefficient at lag l and B[effect, cause] the
    instantaneous one; the companion's top block row is (I - B)^-1 [A_1 ... A_p].
    """
    n, p = graph.n, graph.max_lag
    lagged, inst = _layers(graph)
    A = np.zeros((p, n, n))
    for edge in lagged:
        A[edge.lag - 1, edge.effect, edge.cause] = edge.weight
    B = np.zeros((n, n))
    for edge in inst:
        B[edge.effect, edge.cause] = edge.weight
    reduced = np.linalg.solve(np.eye(n) - B, A.transpose(1, 0, 2).reshape(n, p * n))
    companion = np.zeros((n * p, n * p))
    companion[:n, :] = reduced
    if p > 1:
        companion[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return float(np.abs(np.linalg.eigvals(companion)).max())


def test_matrices_follow_the_edge_list():
    graph = _spec(3, 2, [Edge(0, 2, 0, 0.3), Edge(0, 1, 1, 0.5), Edge(2, 1, 2, -0.4)]).graph
    assert companion_spectral_radius(graph) == reference_spectral_radius(graph)
    assert companion_spectral_radius(graph) < 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("max_lag", [1, 2, 3])
@pytest.mark.parametrize("setting", SETTINGS)
def test_spectral_radius_matches_the_per_lag_matrices(setting, max_lag, seed):
    graph = random_scm(6, max_lag, 0.3, setting, seed).graph
    assert all(_layers(graph))
    assert companion_spectral_radius(graph) == reference_spectral_radius(graph)


def test_simulate_returns_the_spec_graph_as_truth():
    spec = _spec(3, 2, [Edge(0, 2, 0, 0.3), Edge(0, 1, 1, 0.5)])
    truth = simulate(spec, 30).truth
    assert truth == spec.graph
    assert truth.n == 3 and truth.max_lag == 2
    assert {e.key for e in truth.edges} == {(0, 2, 0), (0, 1, 1)}


# ---------------------------------------------------------------------------
# random_scm
# ---------------------------------------------------------------------------

def test_random_scm_edge_budget():
    spec = random_scm(6, 3, 0.15, "linear", 0)
    lagged, inst = _layers(spec.graph)
    assert len(lagged) == 4     # round(0.15 * 6 * 5)
    assert len(inst) == 2       # round(half that)
    for edge in spec.graph.edges:
        assert 0.1 <= abs(edge.weight) <= 0.9


@pytest.mark.parametrize("setting, noise, link", [
    ("linear", "uniform", "identity"),
    ("nonlinear", "uniform", "tanh"),
    ("non_gaussian", "laplace", "identity"),
    ("trended", "uniform", "identity"),
])
def test_random_scm_setting_mapping(setting, noise, link):
    spec = random_scm(5, 2, 0.2, setting, 3)
    assert spec.noise == noise
    assert spec.link == link
    if setting == "trended":
        assert 0.001 <= abs(spec.trend_slope) <= 0.01
    else:
        assert spec.trend_slope == 0.0


def test_random_scm_is_deterministic():
    assert random_scm(6, 3, 0.2, "linear", 42) == random_scm(6, 3, 0.2, "linear", 42)
    assert random_scm(6, 3, 0.2, "linear", 42) != random_scm(6, 3, 0.2, "linear", 43)


def test_random_scm_rejects_degenerate_requests():
    with pytest.raises(ValueError, match="setting"):
        random_scm(5, 2, 0.2, "banana", 0)
    with pytest.raises(ValueError):
        random_scm(1, 2, 0.2, "linear", 0)
    with pytest.raises(ValueError):
        random_scm(5, 2, 0.001, "linear", 0)   # density rounds to zero edges
    for args, message in [
        ((4.0, 2, 0.3, "linear", 0), "n must be an integer, got 4.0"),
        ((4, 2.0, 0.3, "linear", 0), "max_lag must be an integer, got 2.0"),
        ((4, 2, "0.3", "linear", 0), "density must be a number, got '0.3'"),
        ((4, 2, 0.3, 5, 0), "setting must be a string, got 5"),
        ((4, 2, 0.3, "linear", 1.5), "seed must be an integer, got 1.5"),
        ((4, 2, 0.3, "linear", -1), "seed must be >= 0, got -1"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_scm(*args)
    for seed, message in [(-1, "seed must be >= 0, got -1"), (True, "seed must be an integer, got True"),
                          ("1", "seed must be an integer, got '1'")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            benchmark_suite("linear", 4, 300, 2, seed)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(SETTINGS))
def test_random_scm_always_returns_a_stable_system(seed, setting):
    spec = random_scm(5, 3, 0.2, setting, seed)
    assert companion_spectral_radius(spec.graph) < 1.0
    # instantaneous layer must be acyclic: instantaneous_order would refuse a cycle
    instantaneous_order(spec.graph.n, spec.graph.edges)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_shape_names_and_determinism():
    spec = _chain_spec(seed=5)
    ds = simulate(spec, 300)
    assert ds.series.values.shape == (300, 2)
    assert ds.series.names == ("x0", "x1")
    assert np.isfinite(ds.series.values).all()
    again = simulate(spec, 300)
    np.testing.assert_array_equal(ds.series.values, again.series.values)
    assert ds.truth == spec.graph


def reference_simulate(spec: ScmSpec, T: int, burn_in: int = DEFAULT_BURN_IN) -> np.ndarray:
    """The simulated values as a per-term loop computes them: the oracle for the compiled step.

    Each step sums a variable's lagged terms in ``sorted_edges`` order, skipping
    those that reach before step 0, then its instantaneous terms, on Python floats.
    """
    n, (lagged, inst) = spec.graph.n, _layers(spec.graph)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _NOISE_STREAM]))
    total = burn_in + T
    noise = _NOISE_SAMPLERS[spec.noise](rng, (total, n))
    lag_parents, inst_parents = {}, {}
    for edge in lagged:
        lag_parents.setdefault(edge.effect, []).append((edge.cause, edge.lag, edge.weight))
    for edge in inst:
        inst_parents.setdefault(edge.effect, []).append((edge.cause, edge.weight))
    plan = [(j, lag_parents.get(j, ()), inst_parents.get(j, ()))
            for j in instantaneous_order(n, inst)]
    squash = math.tanh if spec.link == "tanh" else None
    x = np.empty((total, n))
    history = deque(maxlen=spec.graph.max_lag)
    for t in range(total):
        drift = spec.trend_slope * t
        eps = noise[t].tolist()
        row = [0.0] * n
        for j, lagged, inst in plan:
            acc = 0.0
            for cause, lag, weight in lagged:
                if t >= lag:
                    acc += weight * history[-lag][cause]
            for cause, weight in inst:
                acc += weight * row[cause]
            if squash is not None:
                acc = squash(acc)
            row[j] = acc + drift + eps[j]
        x[t] = row
        history.append(row)
    return x[burn_in:]


# Densities that place at least one lagged and one instantaneous edge at each n.
_DENSITY = {2: 1.0, 5: 0.3, 15: 0.15}


@pytest.mark.parametrize("n", sorted(_DENSITY))
@pytest.mark.parametrize("burn_in", [0, 1, 200])
@pytest.mark.parametrize("max_lag", [1, 2, 3])
@pytest.mark.parametrize("setting", SETTINGS)
def test_simulate_matches_the_per_term_loop_bit_for_bit(setting, max_lag, burn_in, n):
    spec = random_scm(n, max_lag, _DENSITY[n], setting, 100 * n + 10 * max_lag + burn_in)
    assert all(_layers(spec.graph))
    T = 10 * max_lag + 7
    values = simulate(spec, T, burn_in).series.values
    assert values.tobytes() == reference_simulate(spec, T, burn_in).tobytes()


def test_simulate_compiles_a_variable_with_597_parents():
    """Variable 0 takes each of 199 noise-only variables at lags 1-3: spectral radius 0."""
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.1, 0.9, 597) * rng.choice([-1.0, 1.0], 597)
    edges = [Edge(cause, 0, lag, float(w))
             for (cause, lag), w in zip([(c, l) for c in range(1, 200) for l in (1, 2, 3)], weights)]
    spec = _spec(200, 3, edges, trend_slope=-0.005, seed=4)
    assert companion_spectral_radius(spec.graph) == reference_spectral_radius(spec.graph) == 0.0
    for burn_in in (0, 5):
        values = simulate(spec, 30, burn_in).series.values
        assert values.tobytes() == reference_simulate(spec, 30, burn_in).tobytes()


def test_simulate_rejects_short_runs_and_negative_burn_in():
    spec = _chain_spec()
    with pytest.raises(ValueError, match="10x max_lag"):
        simulate(spec, 9)
    with pytest.raises(ValueError, match="burn_in"):
        simulate(spec, 100, burn_in=-1)
    with pytest.raises(ValueError, match=r"^T must be an integer, got 300\.0$"):
        simulate(spec, 300.0)
    with pytest.raises(ValueError, match=r"^burn_in must be an integer, got 10\.5$"):
        simulate(spec, 300, 10.5)


def test_burn_in_slides_the_window():
    spec = _chain_spec(seed=9)
    long = simulate(spec, 150, burn_in=0).series.values
    short = simulate(spec, 100, burn_in=50).series.values
    np.testing.assert_array_equal(long[50:], short)


@pytest.mark.parametrize("noise", ["gaussian", "uniform", "laplace"])
def test_noise_is_unit_variance(noise):
    values = simulate(_noise_only_spec(noise=noise, seed=11), 4000).series.values
    var = values.var(axis=0).mean()
    assert abs(var - 1.0) < 0.15


def test_noise_only_series_show_no_cross_structure():
    """Independent columns: every lagged cross-correlation stays near zero."""
    values = simulate(_noise_only_spec(n=4, seed=2), 2000).series.values
    T, n = values.shape
    worst = 0.0
    for lag in (1, 2, 3):
        a = values[:-lag]
        b = values[lag:]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                c = np.corrcoef(a[:, i], b[:, j])[0, 1]
                worst = max(worst, abs(c))
    assert worst < 0.15


def test_single_edge_transfer_weight_is_recovered_by_ols():
    """x1_t = 0.8 x0_{t-1} + e: the regression slope lands on 0.8."""
    values = simulate(_chain_spec(weight=0.8, seed=3), 2000).series.values
    x, y = values[:-1, 0], values[1:, 1]
    slope = float(np.dot(x, y) / np.dot(x, x))
    assert abs(slope - 0.8) < 0.05


def test_trend_produces_drift():
    flat = _spec(2, 1, seed=7)
    sloped = _spec(2, 1, trend_slope=0.005, seed=7)
    flat_vals = simulate(flat, 1500).series.values
    sloped_vals = simulate(sloped, 1500).series.values
    t = np.arange(1500, dtype=float)
    t = t - t.mean()
    fitted = float(t @ sloped_vals[:, 0] / (t @ t))
    assert abs(fitted - 0.005) < 0.002
    flat_fitted = float(t @ flat_vals[:, 0] / (t @ t))
    assert abs(flat_fitted) < 0.002


def test_tanh_link_bounds_the_parent_contribution():
    spec = _spec(2, 1, [Edge(0, 1, 1, 0.9)], link="tanh", seed=13)
    values = simulate(spec, 2000).series.values
    # contribution = x1_t - e_t is tanh-bounded; the observable proxy is that
    # x1 keeps noise-like spread instead of inflating like the linear case
    assert values[:, 1].std() < 1.6


# ---------------------------------------------------------------------------
# benchmark_suite
# ---------------------------------------------------------------------------

def test_suite_is_deterministic_and_distinct():
    a = benchmark_suite("linear", 5, 120, 3, 77)
    b = benchmark_suite("linear", 5, 120, 3, 77)
    assert len(a) == 3
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.series.values, db.series.values)
        assert da.truth == db.truth
    # realizations differ from one another
    assert a[0].truth != a[1].truth or not np.array_equal(a[0].series.values, a[1].series.values)


def test_suite_validates_realizations():
    with pytest.raises(ValueError, match="realizations"):
        benchmark_suite("linear", 5, 120, 0, 1)
    with pytest.raises(ValueError, match="^realizations must be an integer, got True$"):
        benchmark_suite("linear", 4, 300, True, 0)
