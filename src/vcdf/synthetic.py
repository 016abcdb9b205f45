"""Seeded generators for ground-truthed synthetic multivariate time series.

Systems are linear (optionally tanh-squashed) structural VAR processes driven
by unit-variance noise.  An ``ScmSpec`` holds one ``WindowGraph``, the truth
its data is scored against, whose lag-0 edges are the sparse acyclic
instantaneous layer.  Four named benchmark settings select the noise law, link
function and drift (``_SETTING_TABLE``):

============  =======  ========  ==========================
setting       noise    link      per-step drift
============  =======  ========  ==========================
linear        uniform  identity  0
nonlinear     uniform  tanh      0
non_gaussian  laplace  identity  0
trended       uniform  identity  drawn from +-[0.001, 0.01]
============  =======  ========  ==========================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import Edge, MultivariateSeries, WindowGraph, instantaneous_order, require_field_kinds, require_kind

# Each benchmark setting's noise law, link function, and whether it drifts.
_SETTING_TABLE = {
    "linear": ("uniform", "identity", False),
    "nonlinear": ("uniform", "tanh", False),
    "non_gaussian": ("laplace", "identity", False),
    "trended": ("uniform", "identity", True),
}
# Each noise law's sampler, all of unit variance, so settings differ only in shape and tails.
_NOISE_SAMPLERS = {
    "gaussian": lambda rng, shape: rng.standard_normal(shape),
    "uniform": lambda rng, shape: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), shape),
    "laplace": lambda rng, shape: rng.laplace(0.0, 1.0 / math.sqrt(2.0), shape),
}
SETTINGS = tuple(_SETTING_TABLE)
NOISES = tuple(_NOISE_SAMPLERS)
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
    """A fully specified structural system: its graph (coefficients as weights), noise
    law, link function, drift slope, and the seed that drives simulation noise."""

    graph: WindowGraph
    noise: str = "uniform"
    link: str = "identity"
    trend_slope: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.graph, WindowGraph):
            raise ValueError(f"graph must be a WindowGraph, got {self.graph!r}")
        if self.graph.max_lag < 1:
            raise ValueError(f"graph max_lag must be >= 1, got {self.graph.max_lag}")
        require_field_kinds(self)
        if self.noise not in NOISES:
            raise ValueError(f"unknown noise law {self.noise!r}, expected one of {NOISES}")
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}, expected one of {LINKS}")
        if not np.isfinite(self.trend_slope):
            raise ValueError("trend_slope must be finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for edge in self.graph.sorted_edges():  # in key order, so a bad spec always names the same edge
            if not COEFF_MIN <= abs(edge.weight) <= COEFF_MAX:
                raise ValueError(
                    f"edge {edge}: coefficient magnitude must lie in [{COEFF_MIN}, {COEFF_MAX}]"
                )
        radius = companion_spectral_radius(self.graph)
        if radius >= 1.0:
            raise ValueError(f"unstable system: companion spectral radius {radius:.3f} >= 1")


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


def companion_spectral_radius(graph: WindowGraph) -> float:
    """Spectral radius of the companion form of the instantaneous-resolved system."""
    n, p = graph.n, graph.max_lag
    lagged = np.zeros((n, n * p))  # [effect, (lag - 1) * n + cause]
    resolve = np.eye(n)  # I - B, B[effect, cause] = instantaneous coefficient
    for edge in graph.edges:
        if edge.lag:
            lagged[edge.effect, (edge.lag - 1) * n + edge.cause] = edge.weight
        else:
            resolve[edge.effect, edge.cause] = -edge.weight
    companion = np.eye(n * p, k=-n)
    companion[:n] = np.linalg.solve(resolve, lagged)
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
    n, max_lag, seed = require_kind("n", n, int), require_kind("max_lag", max_lag, int), require_kind("seed", seed, int)
    density, setting = require_kind("density", density, float), require_kind("setting", setting, str)
    if n < 2:
        raise ValueError(f"need n >= 2 variables to place edges, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if max_lag < 1:
        raise ValueError(f"need max_lag >= 1, got {max_lag}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}, expected one of {', '.join(SETTINGS)}")

    n_lagged = round(density * n * (n - 1))
    if n_lagged == 0:
        raise ValueError(f"density {density} rounds to zero lagged edges for n={n}")
    n_inst = round(0.5 * density * n * (n - 1))

    cross_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    upper_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    noise, link, drifts = _SETTING_TABLE[setting]

    rng = np.random.default_rng(np.random.SeedSequence([seed, _STRUCTURE_STREAM]))
    for _ in range(_MAX_DRAWS):
        slots = rng.choice(len(cross_pairs) * max_lag, size=n_lagged, replace=False)
        edges = []
        for slot in sorted(int(s) for s in slots):
            cause, effect = cross_pairs[slot // max_lag]
            edges.append(Edge(cause, effect, 1 + slot % max_lag, _draw_coefficient(rng)))

        position = {int(v): i for i, v in enumerate(rng.permutation(n))}
        if n_inst > 0:
            chosen = rng.choice(len(upper_pairs), size=n_inst, replace=False)
            for slot in sorted(int(s) for s in chosen):
                a, b = upper_pairs[slot]
                cause, effect = (a, b) if position[a] < position[b] else (b, a)
                edges.append(Edge(cause, effect, 0, _draw_coefficient(rng)))

        trend_slope = 0.0
        if drifts:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            trend_slope = sign * rng.uniform(0.001, 0.01)

        graph = WindowGraph(n, max_lag, frozenset(edges))
        if companion_spectral_radius(graph) < 1.0:
            return ScmSpec(graph, noise, link, trend_slope, seed)
    raise ValueError(
        f"no stationary system found in {_MAX_DRAWS} draws "
        f"(n={n}, max_lag={max_lag}, density={density}); lower the density"
    )


def _compile_run(spec: ScmSpec):
    """``run(x, noise, slope)``: fills ``x`` row by row with the system's compiled step.

    For each variable in topological order the step reads ``acc = 0.0``, one
    ``acc += <w> * h<lag>[<cause>]`` per lagged parent in ``sorted_edges`` order,
    one ``acc += <w> * r<cause>`` per instantaneous (lag-0) parent, ``tanh`` for
    the tanh link, then ``r<j> = acc + d + e[j]``.  Only the graph's validated
    ints and the ``repr`` of its weights enter the source, and each term is its
    own statement, so nesting does not grow with the number of parents.
    """
    n, edges = spec.graph.n, spec.graph.sorted_edges()
    lag_parents: dict[int, list[Edge]] = {}
    inst_parents: dict[int, list[Edge]] = {}
    for edge in edges:
        (lag_parents if edge.lag else inst_parents).setdefault(edge.effect, []).append(edge)
    # h1 is the last row, h<max_lag> the oldest; each is a tuple of n floats and
    # starts as +0.0s, which add nothing to an acc that is never -0.0 (see simulate).
    history = [f"h{lag}" for lag in range(spec.graph.max_lag, 0, -1)]
    body = []
    for j in instantaneous_order(n, edges):
        body.append("acc = 0.0")
        body += [f"acc += {e.weight!r} * h{e.lag}[{e.cause}]" for e in lag_parents.get(j, ())]
        body += [f"acc += {e.weight!r} * r{e.cause}" for e in inst_parents.get(j, ())]
        if spec.link == "tanh":
            body.append("acc = tanh(acc)")
        body.append(f"r{j} = acc + d + e[{j}]")
    row = "(" + "".join(f"r{j}, " for j in range(n)) + ")"
    source = "\n".join([
        "def run(x, noise, slope):",
        "    " + " = ".join(history) + " = (" + "0.0, " * n + ")",
        "    for t in range(len(x)):",
        "        d = slope * t",
        "        e = noise[t].tolist()",
        *("        " + line for line in body),
        f"        {', '.join(history)} = {', '.join(history[1:] + [row])}",
        "        x[t] = h1",
    ])
    namespace = {"tanh": math.tanh}
    exec(compile(source, f"<simulate n={n}>", "exec"), namespace)
    # Popped, so the namespace (run's globals) holds no cycle back to run.
    return namespace.pop("run")


def simulate(spec: ScmSpec, T: int, burn_in: int = DEFAULT_BURN_IN) -> LabeledDataset:
    """Simulate T steps of the system after discarding `burn_in` warm-up steps.

    Each step applies the link to the summed parent contributions, then adds
    drift and fresh noise, resolving instantaneous effects in topological
    order.  Output bits are fully determined by (spec, T, burn_in).

    The step is compiled once per call into straight-line Python
    (`_compile_run`) that runs on Python floats, which round exactly as float64
    scalars do.  It performs the operations of a per-term loop over the same
    edges, in the same order, so its bits are that loop's.  The one difference
    changes no bit: the last `max_lag` rows start filled with ``+0.0``, so a
    term whose lag reaches before step 0 adds ``w * 0.0`` where the loop
    skipped it.  A sum is ``-0.0`` only when both addends are, and ``acc``
    starts at ``+0.0``, so it is never ``-0.0`` and ``acc + w * 0.0 == acc``.
    """
    T, burn_in = require_kind("T", T, int), require_kind("burn_in", burn_in, int)
    n, max_lag = spec.graph.n, spec.graph.max_lag
    if T < 10 * max_lag:
        raise ValueError(f"need T >= {10 * max_lag} (10x max_lag) steps, got {T}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _NOISE_STREAM]))
    total = burn_in + T
    noise = _NOISE_SAMPLERS[spec.noise](rng, (total, n))
    x = np.empty((total, n))
    _compile_run(spec)(x, noise, spec.trend_slope)
    out = x[burn_in:]
    if not np.isfinite(out).all():
        raise ValueError("simulation overflowed to non-finite values")
    names = tuple(f"x{i}" for i in range(n))
    return LabeledDataset(MultivariateSeries(out, names), spec.graph)


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
    realizations, seed = require_kind("realizations", realizations, int), require_kind("seed", seed, int)
    if realizations < 1:
        raise ValueError(f"need realizations >= 1, got {realizations}")
    return [
        simulate(random_scm(n, max_lag, density, setting, seed + i), T, burn_in)
        for i in range(realizations)
    ]
