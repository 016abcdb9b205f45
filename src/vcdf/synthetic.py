"""Seeded generators for ground-truthed synthetic multivariate time series.

Systems are linear (optionally tanh-squashed) structural VAR processes with a
sparse acyclic instantaneous layer, driven by unit-variance noise.  Four named
benchmark settings select the noise law, link function and drift:

========  =========  ============  =====================
setting   noise      link          per-step drift
========  =========  ============  =====================
linear    uniform    identity      0
nonlinear uniform    tanh          0
non_gaussian laplace identity      0
trended   uniform    identity      drawn from +-[0.001, 0.01]
========  =========  ============  =====================
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .series import Edge, MultivariateSeries, WindowGraph, instantaneous_order

SETTINGS = ("linear", "nonlinear", "non_gaussian", "trended")
NOISES = ("gaussian", "uniform", "laplace")
LINKS = ("identity", "tanh")

COEFF_MIN = 0.1
COEFF_MAX = 0.9
DEFAULT_MAX_LAG = 3
DEFAULT_DENSITY = 0.15
DEFAULT_BURN_IN = 200
_MAX_DRAWS = 100

# Distinct child streams of each system's seed, so that structure sampling
# and noise sampling never share generator state.
_STRUCTURE_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class ScmSpec:
    """A fully specified structural system: edges with coefficients, noise law,
    link function, drift slope, and the seed that drives simulation noise."""

    n: int
    max_lag: int
    lag_edges: tuple[Edge, ...]
    inst_edges: tuple[Edge, ...]
    noise: str = "uniform"
    link: str = "identity"
    trend_slope: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 variables, got {self.n}")
        if self.max_lag < 1:
            raise ValueError(f"need max_lag >= 1, got {self.max_lag}")
        if self.noise not in NOISES:
            raise ValueError(f"unknown noise law {self.noise!r}, expected one of {NOISES}")
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}, expected one of {LINKS}")
        if not np.isfinite(self.trend_slope):
            raise ValueError("trend_slope must be finite")
        lag_edges = tuple(Edge(int(c), int(e), int(l), float(w)) for c, e, l, w in self.lag_edges)
        inst_edges = tuple(Edge(int(c), int(e), int(l), float(w)) for c, e, l, w in self.inst_edges)
        for edge in lag_edges:
            if not 1 <= edge.lag <= self.max_lag:
                raise ValueError(f"lagged edge {edge} must have lag in 1..{self.max_lag}")
        for edge in inst_edges:
            if edge.lag != 0:
                raise ValueError(f"instantaneous edge {edge} must have lag 0")
        for edge in lag_edges + inst_edges:
            if not COEFF_MIN <= abs(edge.weight) <= COEFF_MAX:
                raise ValueError(
                    f"edge {edge}: coefficient magnitude must lie in [{COEFF_MIN}, {COEFF_MAX}]"
                )
        # Delegates range/duplicate/acyclicity checks; also doubles as the truth graph.
        WindowGraph(self.n, self.max_lag, frozenset(lag_edges + inst_edges))
        object.__setattr__(self, "lag_edges", tuple(sorted(lag_edges, key=lambda e: e.key)))
        object.__setattr__(self, "inst_edges", tuple(sorted(inst_edges, key=lambda e: e.key)))
        radius = companion_spectral_radius(self)
        if radius >= 1.0:
            raise ValueError(f"unstable system: companion spectral radius {radius:.3f} >= 1")

    def truth_graph(self) -> WindowGraph:
        return WindowGraph(self.n, self.max_lag, frozenset(self.lag_edges + self.inst_edges))


@dataclass(frozen=True)
class LabeledDataset:
    """A simulated series paired with the graph that generated it."""

    series: MultivariateSeries
    truth: WindowGraph

    def __post_init__(self) -> None:
        if self.series.n_vars != self.truth.n:
            raise ValueError(
                f"series has {self.series.n_vars} variables but truth graph has {self.truth.n}"
            )


def lag_matrices(spec: ScmSpec) -> np.ndarray:
    """(max_lag, n, n) array A with A[l-1][effect, cause] = coefficient at lag l."""
    A = np.zeros((spec.max_lag, spec.n, spec.n))
    for edge in spec.lag_edges:
        A[edge.lag - 1, edge.effect, edge.cause] = edge.weight
    return A

def inst_matrix(spec: ScmSpec) -> np.ndarray:
    B = np.zeros((spec.n, spec.n))
    for edge in spec.inst_edges:
        B[edge.effect, edge.cause] = edge.weight
    return B


def companion_spectral_radius(spec: ScmSpec) -> float:
    """Spectral radius of the companion form of the instantaneous-resolved system."""
    n, p = spec.n, spec.max_lag
    reduced = np.linalg.solve(np.eye(n) - inst_matrix(spec), lag_matrices(spec).transpose(1, 0, 2).reshape(n, p * n))
    companion = np.zeros((n * p, n * p))
    companion[:n, :] = reduced
    if p > 1:
        companion[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return float(np.abs(np.linalg.eigvals(companion)).max())


def _draw_coefficient(rng: np.random.Generator) -> float:
    magnitude = rng.uniform(COEFF_MIN, COEFF_MAX)
    return magnitude if rng.random() < 0.5 else -magnitude


def random_scm(
    n: int,
    max_lag: int,
    density: float,
    setting: str,
    seed: int,
) -> ScmSpec:
    """Draw a random stationary system for one of the four benchmark settings.

    Lagged edges are sampled without replacement from the cross pairs times
    lags 1..max_lag, about density*n*(n-1) of them in total; the instantaneous
    layer is acyclic with half that density.  Draws whose companion spectral
    radius reaches 1 are rejected and resampled, up to 100 attempts.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 variables to place edges, got {n}")
    if max_lag < 1:
        raise ValueError(f"need max_lag >= 1, got {max_lag}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}, expected one of {SETTINGS}")

    n_lagged = round(density * n * (n - 1))
    if n_lagged == 0:
        raise ValueError(f"density {density} rounds to zero lagged edges for n={n}")
    n_inst = round(0.5 * density * n * (n - 1))

    cross_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    upper_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    noise, link = _NOISE_AND_LINK[setting]

    rng = np.random.default_rng(np.random.SeedSequence([seed, _STRUCTURE_STREAM]))
    for _ in range(_MAX_DRAWS):
        slots = rng.choice(len(cross_pairs) * max_lag, size=n_lagged, replace=False)
        lag_edges = []
        for slot in sorted(int(s) for s in slots):
            cause, effect = cross_pairs[slot // max_lag]
            lag_edges.append(Edge(cause, effect, 1 + slot % max_lag, _draw_coefficient(rng)))

        position = {int(v): i for i, v in enumerate(rng.permutation(n))}
        inst_edges = []
        if n_inst > 0:
            chosen = rng.choice(len(upper_pairs), size=n_inst, replace=False)
            for slot in sorted(int(s) for s in chosen):
                a, b = upper_pairs[slot]
                cause, effect = (a, b) if position[a] < position[b] else (b, a)
                inst_edges.append(Edge(cause, effect, 0, _draw_coefficient(rng)))

        trend_slope = 0.0
        if setting == "trended":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            trend_slope = sign * rng.uniform(0.001, 0.01)

        candidate = dict(
            n=n,
            max_lag=max_lag,
            lag_edges=tuple(lag_edges),
            inst_edges=tuple(inst_edges),
            noise=noise,
            link=link,
            trend_slope=trend_slope,
            seed=seed,
        )
        try:
            return ScmSpec(**candidate)
        except ValueError as exc:
            if "spectral radius" not in str(exc):
                raise
    raise ValueError(
        f"no stationary system found in {_MAX_DRAWS} draws "
        f"(n={n}, max_lag={max_lag}, density={density}); lower the density"
    )


_NOISE_AND_LINK = {
    "linear": ("uniform", "identity"),
    "nonlinear": ("uniform", "tanh"),
    "non_gaussian": ("laplace", "identity"),
    "trended": ("uniform", "identity"),
}


def _draw_noise(rng: np.random.Generator, law: str, shape: tuple[int, int]) -> np.ndarray:
    # Unit variance under every law, so settings differ only in shape/tails.
    if law == "gaussian":
        return rng.standard_normal(shape)
    if law == "uniform":
        half = math.sqrt(3.0)
        return rng.uniform(-half, half, shape)
    if law == "laplace":
        return rng.laplace(0.0, 1.0 / math.sqrt(2.0), shape)
    raise ValueError(f"unknown noise law {law!r}")


def simulate(spec: ScmSpec, T: int, burn_in: int = DEFAULT_BURN_IN) -> LabeledDataset:
    """Simulate T steps of the system after discarding `burn_in` warm-up steps.

    Each step applies the link to the summed parent contributions, then adds
    drift and fresh noise, resolving instantaneous effects in topological
    order.  Output bits are fully determined by (spec, T, burn_in).
    """
    if T < 10 * spec.max_lag:
        raise ValueError(f"need T >= {10 * spec.max_lag} (10x max_lag) steps, got {T}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _NOISE_STREAM]))
    total = burn_in + T
    noise = _draw_noise(rng, spec.noise, (total, spec.n))
    lag_parents: dict[int, list[tuple[int, int, float]]] = {}
    for edge in spec.lag_edges:
        lag_parents.setdefault(edge.effect, []).append((edge.cause, edge.lag, edge.weight))
    inst_parents: dict[int, list[tuple[int, float]]] = {}
    for edge in spec.inst_edges:
        inst_parents.setdefault(edge.effect, []).append((edge.cause, edge.weight))
    plan = [
        (j, lag_parents.get(j, ()), inst_parents.get(j, ()))
        for j in instantaneous_order(spec.n, spec.inst_edges)
    ]

    # Steps run on Python floats, which round exactly as float64 scalars do;
    # `history[-lag]` is row t - lag once t >= lag.
    squash = math.tanh if spec.link == "tanh" else None
    x = np.empty((total, spec.n))
    history: deque[list[float]] = deque(maxlen=spec.max_lag)
    for t in range(total):
        drift = spec.trend_slope * t
        eps = noise[t].tolist()
        row = [0.0] * spec.n
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
    out = x[burn_in:]
    if not np.isfinite(out).all():
        raise ValueError("simulation overflowed to non-finite values")
    names = tuple(f"x{i}" for i in range(spec.n))
    return LabeledDataset(MultivariateSeries(out, names), spec.truth_graph())


def benchmark_suite(
    setting: str,
    n: int,
    T: int,
    realizations: int,
    seed: int,
    *,
    max_lag: int = DEFAULT_MAX_LAG,
    density: float = DEFAULT_DENSITY,
    burn_in: int = DEFAULT_BURN_IN,
) -> list[LabeledDataset]:
    """Independent labeled datasets for one setting; realization i uses seed + i."""
    if realizations < 1:
        raise ValueError(f"need realizations >= 1, got {realizations}")
    return [
        simulate(random_scm(n, max_lag, density, setting, seed + i), T, burn_in)
        for i in range(realizations)
    ]
