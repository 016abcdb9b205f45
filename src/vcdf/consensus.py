"""Blocked-fold stability validation of a base discoverer's edges.

A base method is run once on the full series and once per fold on the series
with one contiguous block held out.  Each full-run edge is then scored by how
consistently its sign reappears across folds and by how much its fold
estimates spread relative to the full-run weight; edges failing either
threshold are removed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .discovery import BaseDiscoverer
from .series import Edge, MultivariateSeries, WindowGraph, field_kinds, require_field_kinds, require_fields, require_kind

SIGN_TOLERANCE = 1e-12


@dataclass(frozen=True)
class VcdfConfig:
    """Thresholds of the stability filter.

    ``tau_c`` is the minimum fraction of folds whose estimate matches the
    full-run sign; ``tau_v`` caps the fold spread relative to the full-run
    weight; ``w`` blends surviving weights toward the fold mean (0 keeps the
    full-run weight).  The defaults suit the varlingam base method; a noisier
    base is better served by a stricter ``tau_c`` around 0.7.
    """

    k: int = 5
    tau_c: float = 0.4
    tau_v: float = 0.4
    w: float = 0.0
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        require_field_kinds(self)
        if self.k < 2:
            raise ValueError(f"need k >= 2 folds, got {self.k}")
        if math.isnan(self.tau_c) or not 0.0 <= self.tau_c <= 1.0:
            raise ValueError(f"tau_c must lie in [0, 1], got {self.tau_c}")
        if math.isnan(self.tau_v) or self.tau_v < 0.0:
            raise ValueError(f"tau_v must be >= 0, got {self.tau_v}")
        if math.isnan(self.w) or not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w must lie in [0, 1], got {self.w}")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be a positive finite value, got {self.epsilon}")


def make_fold_plan(length: int, k: int) -> tuple[tuple[int, int], ...]:
    """Split 0..length-1 into k contiguous (start, end) blocks whose sizes differ by at most one."""
    length, k = require_kind("length", length, int), require_kind("k", k, int)
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    if k > length:
        raise ValueError(f"cannot cut {length} steps into {k} folds")
    return tuple((b * length // k, (b + 1) * length // k) for b in range(k))


def extract_training(
    series: MultivariateSeries, plan: tuple[tuple[int, int], ...], fold: int
) -> MultivariateSeries:
    """The series with the fold's validation block removed, remaining rows in order."""
    fold = require_kind("fold", fold, int)
    if plan[-1][1] != series.n_steps:
        raise ValueError(f"fold plan covers {plan[-1][1]} steps but series has {series.n_steps}")
    if not 0 <= fold < len(plan):
        raise ValueError(f"fold index {fold} outside 0..{len(plan) - 1}")
    start, end = plan[fold]
    return MultivariateSeries(np.vstack((series.values[:start], series.values[end:])), series.names)


def _sign(x: float) -> int:
    if abs(x) < SIGN_TOLERANCE:
        return 0
    return 1 if x > 0 else -1


def directional_consistency(r0: float, fold_estimates: tuple[float, ...] | list[float]) -> float:
    """Fraction of fold estimates whose sign matches the full-run estimate."""
    if len(fold_estimates) < 1:
        raise ValueError("need at least one fold estimate")
    target = _sign(r0)
    matches = sum(1 for value in fold_estimates if _sign(value) == target)
    return matches / len(fold_estimates)


def relative_variability(
    r0: float, fold_estimates: tuple[float, ...] | list[float], epsilon: float = VcdfConfig.epsilon
) -> float:
    """Population spread of the fold estimates relative to the full-run magnitude.

    Raises ``ValueError`` when the spread is not finite: a fold sum or a squared
    deviation beyond the float range, or a quotient that overflows.
    """
    k = len(fold_estimates)
    if k < 2:
        raise ValueError(f"need at least two fold estimates, got {k}")
    mean = sum(fold_estimates) / k
    # ** raises OverflowError where x * x gives inf, but it stays: x * x can differ
    # in the last bit, and the report reader re-derives V exactly.
    try:
        variance = sum((value - mean) ** 2 for value in fold_estimates) / k
    except OverflowError:
        variance = math.inf
    v = math.sqrt(variance) / (abs(r0) + epsilon)
    if not math.isfinite(v):
        raise ValueError(f"fold estimates {list(fold_estimates)} spread too far to score")
    return v


def _verdict(r0: float, fold_estimates: tuple[float, ...], config: VcdfConfig) -> tuple[float, float, bool]:
    """(C, V, kept) of an edge: it is kept when C >= tau_c and V <= tau_v."""
    c = directional_consistency(r0, fold_estimates)
    v = relative_variability(r0, fold_estimates, config.epsilon)
    return c, v, c >= config.tau_c and v <= config.tau_v


@dataclass(frozen=True)
class EdgeStability:
    """Per-edge record: full-run weight, fold estimates, scores, verdict."""

    cause: int
    effect: int
    lag: int
    r0: float
    folds: tuple[float, ...]
    c: float
    v: float
    kept: bool


@dataclass(frozen=True)
class StabilityReport:
    """The config and per-edge records of one ``run_vcdf``.

    ``full_fit_seconds`` is the wall time of the base method's call on the full
    series; it is neither serialized (a report read back has None) nor compared.
    """

    config: VcdfConfig
    edges: tuple[EdgeStability, ...]
    full_fit_seconds: float | None = field(default=None, compare=False)


def run_vcdf(
    series: MultivariateSeries, base: BaseDiscoverer, config: VcdfConfig = VcdfConfig()
) -> tuple[WindowGraph, StabilityReport]:
    """Filter the base method's full-run graph by cross-fold stability.

    Edges absent from a fold's graph contribute an estimate of exactly 0 for
    that fold, which both breaks sign agreement and inflates the spread; this
    makes disappearance across folds the strongest removal signal.
    """
    plan = make_fold_plan(series.n_steps, config.k)
    started = time.perf_counter()
    full_graph = base.discover(series)
    full_fit_seconds = time.perf_counter() - started
    fold_weights = []
    for fold in range(config.k):
        training = extract_training(series, plan, fold)
        try:
            graph = base.discover(training)
        except ValueError as exc:
            raise ValueError(f"base discovery failed on fold {fold}: {exc}") from exc
        fold_weights.append(graph.weight_map())

    records = []
    kept_edges = []
    for edge in full_graph.sorted_edges():
        estimates = tuple(weights.get(edge.key, 0.0) for weights in fold_weights)
        c, v, kept = _verdict(edge.weight, estimates, config)
        records.append(EdgeStability(edge.cause, edge.effect, edge.lag, edge.weight, estimates, c, v, kept))
        if kept:
            weight = (1.0 - config.w) * edge.weight + config.w * (sum(estimates) / len(estimates))
            if weight != 0.0:
                kept_edges.append(Edge(edge.cause, edge.effect, edge.lag, weight))
    filtered = WindowGraph(full_graph.n, full_graph.max_lag, frozenset(kept_edges))
    return filtered, StabilityReport(config, tuple(records), full_fit_seconds)


def stability_report_to_json(report: StabilityReport) -> str:
    """Deterministic JSON: config echo plus per-edge records sorted by edge key."""
    doc = {
        "config": asdict(report.config),
        # vars() is the field dict in field order, as asdict() gives it, without the deep copy.
        "edges": [vars(e) for e in sorted(report.edges, key=lambda e: (e.cause, e.effect, e.lag))],
    }
    return json.dumps(doc)


def stability_report_from_json(text: str) -> StabilityReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed stability report JSON: {exc}") from None
    parts = require_fields("stability report", doc, {"config": dict, "edges": list})
    config = VcdfConfig(**require_fields("stability report config", parts["config"], field_kinds(VcdfConfig)))
    edges = {}
    for idx, item in enumerate(parts["edges"]):
        where = f"stability report edge {idx}"
        edge = EdgeStability(**require_fields(where, item, field_kinds(EdgeStability)))
        key = (edge.cause, edge.effect, edge.lag)
        if min(key) < 0:
            raise ValueError(f"{where}: (cause, effect, lag) = {key} has a negative entry")
        if not math.isfinite(edge.r0) or edge.r0 == 0.0:
            raise ValueError(f"{where}: r0 must be a finite non-zero weight, got {edge.r0}")
        if len(edge.folds) != config.k:
            raise ValueError(f"{where}: {len(edge.folds)} fold estimates but k = {config.k}")
        if not all(map(math.isfinite, edge.folds)):
            raise ValueError(f"{where}: fold estimates must be finite, got {list(edge.folds)}")
        try:
            derived = _verdict(edge.r0, edge.folds, config)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if (edge.c, edge.v, edge.kept) != derived:
            raise ValueError(f"{where}: stored (c, v, kept) = {(edge.c, edge.v, edge.kept)} but its r0 and "
                             f"fold estimates give {derived}")
        if key in edges:
            raise ValueError(f"{where}: duplicate edge for (cause, effect, lag) = {key}")
        edges[key] = edge
    return StabilityReport(config, tuple(edges.values()))
