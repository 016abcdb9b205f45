"""Correctness checks on the outputs of one benchmark operation.

Each check raises :class:`CheckError` naming the first violation.  The C and V
scores are recomputed by brute force from the fold estimates, independent of
the package's own scoring code.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from vcdf.consensus import SIGN_TOLERANCE, StabilityReport, stability_report_from_json, stability_report_to_json
from vcdf.evaluation import summary_f1, window_f1
from vcdf.series import WindowGraph, graph_from_json


class CheckError(Exception):
    """An operation's output violates the stability filter's or a file format's contract."""


def _sign(x: float) -> int:
    return 0 if abs(x) < SIGN_TOLERANCE else (1 if x > 0 else -1)


def brute_force_c(r0: float, folds: tuple[float, ...]) -> float:
    return sum(_sign(f) == _sign(r0) for f in folds) / len(folds)


def brute_force_v(r0: float, folds: tuple[float, ...], epsilon: float) -> float:
    mean = math.fsum(folds) / len(folds)
    variance = math.fsum((f - mean) ** 2 for f in folds) / len(folds)
    return math.sqrt(variance) / (abs(r0) + epsilon)


def check_wrapped(base: WindowGraph, wrapped: WindowGraph, report: StabilityReport) -> None:
    """The filtered graph against the base graph and the stability report behind it."""
    cfg = report.config
    base_weights = base.weight_map()
    wrapped_weights = wrapped.weight_map()
    added = sorted(wrapped_weights.keys() - base_weights.keys())
    if added:
        raise CheckError(f"wrapped graph has edges absent from the base graph: {added[:3]}")
    if cfg.w == 0.0:
        changed = sorted(k for k, w in wrapped_weights.items() if w != base_weights[k])
        if changed:
            raise CheckError(f"wrapped weights differ from base weights at w=0: {changed[:3]}")

    report_keys = [(e.cause, e.effect, e.lag) for e in report.edges]
    if len(set(report_keys)) != len(report_keys) or set(report_keys) != base_weights.keys():
        raise CheckError("stability report keys differ from the base graph's keys")

    kept = set()
    for record, key in zip(report.edges, report_keys):
        if record.r0 != base_weights[key]:
            raise CheckError(f"edge {key}: report r0 {record.r0!r} is not the base weight {base_weights[key]!r}")
        if len(record.folds) != cfg.k:
            raise CheckError(f"edge {key}: {len(record.folds)} fold estimates for k={cfg.k}")
        c = brute_force_c(record.r0, record.folds)
        v = brute_force_v(record.r0, record.folds, cfg.epsilon)
        if c != record.c or not math.isclose(v, record.v, rel_tol=1e-9, abs_tol=1e-12):
            raise CheckError(f"edge {key}: report (c, v) = ({record.c}, {record.v}), recomputed ({c}, {v})")
        if record.kept != (c >= cfg.tau_c and v <= cfg.tau_v):
            raise CheckError(f"edge {key}: kept={record.kept} contradicts c={c}, v={v}")
        if record.kept:
            kept.add(key)
    if cfg.w == 0.0 and kept != wrapped_weights.keys():
        raise CheckError("wrapped graph edges are not exactly the kept edges")


def metrics_doc(graph: WindowGraph, truth: WindowGraph) -> dict:
    """The metrics document ``vcdf discover --truth`` writes, recomputed."""

    def f1_doc(result) -> dict:
        return {"p": result.precision, "r": result.recall, "f1": result.f1,
                "tp": result.true_positives, "fp": result.false_positives, "fn": result.false_negatives}

    return {
        "window": f1_doc(window_f1(graph, truth)),
        "summary": f1_doc(summary_f1(graph, truth)),
        "window_counts_lag0": any(e.lag == 0 for e in truth.edges),
    }


def check_discover_outputs(out_dir: Path, stem: str, truth: WindowGraph,
                           wrapped: bool) -> tuple[WindowGraph, dict, StabilityReport | None]:
    """Parse and cross-check the files of one ``vcdf discover --truth`` run."""
    try:
        graph = graph_from_json((out_dir / f"{stem}.graph.json").read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckError(f"{stem}.graph.json does not parse: {exc}") from None
    metrics = json.loads((out_dir / f"{stem}.metrics.json").read_text(encoding="utf-8"))
    if metrics != metrics_doc(graph, truth):
        raise CheckError(f"{stem}.metrics.json disagrees with a recomputation from the graph")
    report = None
    if wrapped:
        text = (out_dir / f"{stem}.stability.json").read_text(encoding="utf-8")
        try:
            report = stability_report_from_json(text)
        except ValueError as exc:
            raise CheckError(f"{stem}.stability.json does not parse: {exc}") from None
        if stability_report_to_json(report) + "\n" != text:
            raise CheckError(f"{stem}.stability.json does not round-trip")
    return graph, metrics, report


def check_bench_report(report: dict, rows: int) -> None:
    """``vcdf bench`` report: the expected number of rows, every F1 in [0, 1]."""
    if len(report["rows"]) != rows:
        raise CheckError(f"bench report has {len(report['rows'])} rows, expected {rows}")
    for row in report["rows"]:
        for part in ("window", "summary"):
            f1 = row[part]["f1_mean"]
            if not 0.0 <= f1 <= 1.0:
                raise CheckError(f"bench row {row['setting']}/{row['method']}: {part} F1 {f1} outside [0, 1]")
