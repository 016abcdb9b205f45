"""Summary statistics: the tail-percentile rule, run spread, per-layer metrics from spans."""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span, self_times

TAIL_BEYOND = 10

# Per-layer self-time metrics that sum the self time of several traced functions.
GROUPS = {
    "series.graph_io": ("series.read_graph_json", "series.write_graph_json",
                        "series.graph_to_json", "series.graph_from_json"),
    "evaluation.f1": ("evaluation.window_f1", "evaluation.summary_f1"),
}
SELF_TIMES = (
    "discovery.direct_lingam_order", "discovery.fit_var", "discovery.lagreg_discover",
    "discovery.varlingam_discover", "series.read_series_csv", "consensus.extract_training",
    "consensus.run_vcdf", "synthetic.simulate", "synthetic.random_scm",
    "cli.main", "cli.cmd_discover", "cli.cmd_bench",
)
DISCOVER_SPANS = ("discovery.varlingam_discover", "discovery.lagreg_discover")


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample count)``.  With ``beyond`` or fewer
    samples no percentile qualifies, and the maximum is returned as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of ``ops`` traced operations.

    Root spans (no parent) are the operations themselves; their self time is
    the part of an op that no traced function covers.
    """
    selfs = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        self_by_name[span.name] += own
        durations[span.name].append(span.duration)
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value

    fits: dict[int, list[float]] = defaultdict(list)
    for span in spans:
        if span.name in DISCOVER_SPANS and span.parent is not None \
                and spans[span.parent].name == "consensus.run_vcdf":
            fits[span.parent].append(span.duration)
    # run_vcdf fits the full series first, then each fold.
    full_fit = sum(f[0] for f in fits.values())
    fold_fit = sum(sum(f[1:]) for f in fits.values())

    op_time = sum(s.duration for s in spans if s.parent is None)
    layer_self = sum(own for span, own in zip(spans, selfs) if span.parent is not None)

    def per_op(value: float) -> float:
        return value / ops

    def call_stat(name: str, fn) -> float:
        return fn(durations[name]) if durations[name] else 0.0

    metrics = {f"{name}.self_s": per_op(self_by_name[name]) for name in SELF_TIMES}
    metrics.update({f"{group}.self_s": per_op(sum(self_by_name[n] for n in names))
                    for group, names in GROUPS.items()})
    metrics.update({
        "discovery.direct_lingam_order.calls": per_op(len(durations["discovery.direct_lingam_order"])),
        "discovery.fit_var.call_p50_s": call_stat("discovery.fit_var", statistics.median),
        "discovery.fit_var.call_max_s": call_stat("discovery.fit_var", max),
        "discovery.lagreg_discover.calls": per_op(len(durations["discovery.lagreg_discover"])),
        "discovery.lagreg_discover.call_max_s": call_stat("discovery.lagreg_discover", max),
        "series.read_series_csv.bytes": per_op(counts["series.read_series_csv.bytes"]),
        "consensus.train_rows": per_op(counts["consensus.extract_training.rows"]),
        "consensus.full_fit_s": per_op(full_fit),
        "consensus.fold_fit_s": per_op(fold_fit),
        "consensus.wrap_ratio": sum(durations["consensus.run_vcdf"]) / full_fit if full_fit else 0.0,
        "consensus.edges_scored": per_op(counts["consensus.run_vcdf.edges"]),
        "consensus.keep_ratio": (counts["consensus.run_vcdf.kept"] / counts["consensus.run_vcdf.edges"]
                                 if counts["consensus.run_vcdf.edges"] else 0.0),
        "trace.op_s": per_op(op_time),
        "trace.coverage": layer_self / op_time if op_time else 0.0,
    })
    return metrics
