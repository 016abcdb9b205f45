"""Structural accuracy metrics for predicted causal graphs against ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Sequence

from .series import WindowGraph, summarize


@dataclass(frozen=True)
class F1Result:
    """Precision/recall/F1 together with the raw match counts behind them."""

    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int


@dataclass(frozen=True)
class AggregateStats:
    """Mean and population standard deviation of each metric over repeated runs."""

    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    f1_mean: float
    f1_std: float
    count: int


def _f1_from_sets(predicted: AbstractSet, truth: AbstractSet) -> F1Result:
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    if not predicted and not truth:
        # Perfect agreement on "no structure at all".
        return F1Result(1.0, 1.0, 1.0, 0, 0, 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return F1Result(precision, recall, f1, tp, fp, fn)


def window_f1(predicted: WindowGraph, truth: WindowGraph) -> F1Result:
    """Exact-match F1 over (cause, effect, lag) triples; weights are ignored.

    When the truth graph carries no instantaneous edges, lag-0 predictions are
    left out of the counting so that methods which do estimate a lag-0 layer
    are not penalised against lag-only ground truth.
    """
    if predicted.n != truth.n:
        raise ValueError(f"variable count mismatch: predicted n={predicted.n}, truth n={truth.n}")
    truth_keys = truth.edge_keys()
    predicted_keys = predicted.edge_keys()
    if not any(lag == 0 for _, _, lag in truth_keys):
        predicted_keys = {key for key in predicted_keys if key[2] != 0}
    return _f1_from_sets(predicted_keys, truth_keys)


def summary_f1(predicted: WindowGraph, truth: WindowGraph) -> F1Result:
    """F1 over (cause, effect) pairs after collapsing every lag stratum."""
    if predicted.n != truth.n:
        raise ValueError(f"variable count mismatch: predicted n={predicted.n}, truth n={truth.n}")
    return _f1_from_sets(summarize(predicted), summarize(truth))


def aggregate(results: Sequence[F1Result]) -> AggregateStats:
    """Aggregate per-run metrics; population std, zero when a single run is given."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")

    def stats(values: list[float]) -> tuple[float, float]:
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)

    p_mean, p_std = stats([r.precision for r in results])
    r_mean, r_std = stats([r.recall for r in results])
    f_mean, f_std = stats([r.f1 for r in results])
    return AggregateStats(p_mean, p_std, r_mean, r_std, f_mean, f_std, len(results))
