"""Tests of the benchmark's own helpers: tail rule, span self time, bindings, output checks."""

import dataclasses
import json
from itertools import count

import pytest

import vcdf
from vcdf import cli, consensus, discovery
from vcdf.series import Edge, WindowGraph, write_graph_json, write_series_csv
from vcdf.synthetic import benchmark_suite

from checks import CheckError, check_bench_report, check_discover_outputs, check_wrapped
from measure import layer_metrics, quartile_spread, tail_percentile
from run import WORKLOAD_NAMES, Outputs, load_spec, trace_targets
from spans import Instrumentation, SpanRecorder, self_times
from workloads import WORKLOADS, OpResult


# ---------------------------------------------------------------------------
# tail percentile and spread
# ---------------------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(40, 0, -1)]
    value, percentile, n = tail_percentile(samples)
    assert (value, percentile, n) == (30.0, 75.0, 40)
    assert sum(s > value for s in samples) == 10


def test_tail_sample_count_moves_the_percentile():
    value, percentile, n = tail_percentile([float(v) for v in range(1, 101)])
    assert (value, percentile, n) == (90.0, 90.0, 100)
    value, percentile, n = tail_percentile([float(v) for v in range(1, 12)])
    assert (value, n) == (1.0, 11)
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_without_enough_samples_is_the_maximum_at_p100():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def fake_clock():
    ticks = count()
    return lambda: float(next(ticks))


def test_self_time_subtracts_direct_children():
    recorder = SpanRecorder(clock=fake_clock())
    with recorder.op(7):               # t=0 .. t=9
        with recorder.span("a"):       # t=1 .. t=6
            with recorder.span("b"):   # t=2 .. t=3
                pass
            with recorder.span("b"):   # t=4 .. t=5
                pass
        with recorder.span("c"):       # t=7 .. t=8
            pass
    names = [s.name for s in recorder.spans]
    assert names == ["op", "a", "b", "b", "c"]
    assert [s.duration for s in recorder.spans] == [9.0, 5.0, 1.0, 1.0, 1.0]
    assert self_times(recorder.spans) == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert sum(self_times(recorder.spans)) == recorder.spans[0].duration
    assert {s.op for s in recorder.spans} == {7}
    assert [s.parent for s in recorder.spans] == [None, 0, 1, 1, 0]


def test_spans_outside_an_op_are_not_recorded():
    recorder = SpanRecorder(clock=fake_clock())
    traced = recorder.wrap(lambda x: x + 1, "f")
    assert traced(1) == 2
    assert recorder.spans == []


def test_layer_metrics_split_full_and_fold_fits():
    recorder = SpanRecorder(clock=fake_clock())
    with recorder.op(0):
        with recorder.span("consensus.run_vcdf"):
            for _ in range(3):
                with recorder.span("discovery.lagreg_discover"):
                    pass
    metrics = layer_metrics(recorder.spans, ops=1)
    assert metrics["consensus.full_fit_s"] == 1.0
    assert metrics["consensus.fold_fit_s"] == 2.0
    assert metrics["consensus.wrap_ratio"] == 7.0
    assert metrics["discovery.lagreg_discover.calls"] == 3.0
    assert metrics["trace.coverage"] == pytest.approx(7.0 / 9.0)


def test_instrumentation_wraps_every_binding_and_restores_them():
    originals = (consensus.run_vcdf, discovery.fit_var)
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder, trace_targets(), "vcdf")
    with instrumentation.installed():
        assert cli.run_vcdf is consensus.run_vcdf is vcdf.run_vcdf
        assert consensus.run_vcdf is not originals[0]
        dataset = benchmark_suite("linear", 4, 300, 1, 5)[0]
        with recorder.op(0):
            cli.run_vcdf(dataset.series, discovery.make_discoverer("varlingam"))
    assert (consensus.run_vcdf, discovery.fit_var) == originals
    assert cli.run_vcdf is originals[0] and vcdf.run_vcdf is originals[0]
    spans = recorder.spans
    fit_parents = {spans[s.parent].name for s in spans if s.name == "discovery.fit_var"}
    assert fit_parents == {"discovery.varlingam_discover"}
    assert sum(s.name == "discovery.varlingam_discover" for s in spans) == 6
    run_span = next(s for s in spans if s.name == "consensus.run_vcdf")
    assert run_span.counts["edges"] > 0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wrapped_run():
    dataset = benchmark_suite("linear", 4, 400, 1, 11)[0]
    base = discovery.make_discoverer("varlingam")
    graph, report = consensus.run_vcdf(dataset.series, base)
    base_graph = base.discover(dataset.series)
    assert any(r.kept for r in report.edges) and not all(r.kept for r in report.edges)
    return base_graph, graph, report


def test_check_wrapped_accepts_real_output(wrapped_run):
    check_wrapped(*wrapped_run)


def test_check_wrapped_rejects_an_added_edge(wrapped_run):
    base, wrapped, report = wrapped_run
    taken = base.edge_keys()
    free = next((c, e, 1) for c in range(base.n) for e in range(base.n) if (c, e, 1) not in taken)
    bigger = WindowGraph(wrapped.n, wrapped.max_lag, wrapped.edges | {Edge(*free, 0.5)})
    with pytest.raises(CheckError, match="absent from the base graph"):
        check_wrapped(base, bigger, report)


def test_check_wrapped_rejects_a_changed_weight(wrapped_run):
    base, wrapped, report = wrapped_run
    edges = sorted(wrapped.edges)
    moved = WindowGraph(wrapped.n, wrapped.max_lag,
                        frozenset(edges[1:]) | {edges[0]._replace(weight=edges[0].weight * 2)})
    with pytest.raises(CheckError, match="differ from base weights"):
        check_wrapped(base, moved, report)


def test_check_wrapped_rejects_a_flipped_kept_flag(wrapped_run):
    base, wrapped, report = wrapped_run
    records = list(report.edges)
    records[0] = dataclasses.replace(records[0], kept=not records[0].kept)
    with pytest.raises(CheckError, match="contradicts"):
        check_wrapped(base, wrapped, dataclasses.replace(report, edges=tuple(records)))


def test_check_wrapped_rejects_wrong_scores_and_missing_records(wrapped_run):
    base, wrapped, report = wrapped_run
    records = list(report.edges)
    wrong_c = dataclasses.replace(records[0], c=records[0].c + 0.2)
    with pytest.raises(CheckError, match="recomputed"):
        check_wrapped(base, wrapped, dataclasses.replace(report, edges=(wrong_c, *records[1:])))
    with pytest.raises(CheckError, match="keys differ"):
        check_wrapped(base, wrapped, dataclasses.replace(report, edges=tuple(records[1:])))


@pytest.fixture(scope="module")
def discover_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("discover")
    dataset = benchmark_suite("trended", 4, 400, 1, 3)[0]
    write_series_csv(dataset.series, root / "s.csv")
    write_graph_json(dataset.truth, root / "truth.json")
    argv = ["discover", str(root / "s.csv"), "--method", "lagreg", "--truth", str(root / "truth.json"),
            "--vcdf", "--out", str(root / "out")]
    assert cli.main(argv) == 0
    return root / "out", dataset.truth


def test_check_discover_outputs_accepts_real_files(discover_outputs):
    out, truth = discover_outputs
    graph, metrics, report = check_discover_outputs(out, "s", truth, wrapped=True)
    assert len(report.edges) >= len(graph.edges)
    assert 0.0 <= metrics["window"]["f1"] <= 1.0


def test_check_discover_outputs_rejects_edited_files(discover_outputs, tmp_path):
    out, truth = discover_outputs
    for name in ("s.graph.json", "s.metrics.json", "s.stability.json"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    metrics = json.loads((tmp_path / "s.metrics.json").read_text())
    metrics["window"]["tp"] += 1
    (tmp_path / "s.metrics.json").write_text(json.dumps(metrics))
    with pytest.raises(CheckError, match="metrics.json"):
        check_discover_outputs(tmp_path, "s", truth, wrapped=False)

    (tmp_path / "s.metrics.json").write_bytes((out / "s.metrics.json").read_bytes())
    pretty = json.dumps(json.loads((out / "s.stability.json").read_text()), indent=1)
    (tmp_path / "s.stability.json").write_text(pretty)
    with pytest.raises(CheckError, match="round-trip"):
        check_discover_outputs(tmp_path, "s", truth, wrapped=True)

    (tmp_path / "s.graph.json").write_text('{"n": 4, "max_lag": 3, "edges": [{"cause": 9}]}')
    with pytest.raises(CheckError, match="does not parse"):
        check_discover_outputs(tmp_path, "s", truth, wrapped=False)


def test_check_bench_report_rejects_missing_rows_and_bad_f1():
    row = {"setting": "linear", "method": "lagreg", "window": {"f1_mean": 0.5}, "summary": {"f1_mean": 0.5}}
    check_bench_report({"rows": [row] * 16}, rows=16)
    with pytest.raises(CheckError, match="15 rows"):
        check_bench_report({"rows": [row] * 15}, rows=16)
    bad = {**row, "summary": {"f1_mean": 1.5}}
    with pytest.raises(CheckError, match="outside"):
        check_bench_report({"rows": [row] * 15 + [bad]}, rows=16)


def test_declared_workloads_exist():
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    assert {w["name"] for w in load_spec()["workloads"]} <= set(WORKLOAD_NAMES)


def test_outputs_reject_a_changed_repeat_and_digest_is_order_free():
    def result(output: bytes) -> OpResult:
        return OpResult(1.0, 0.5, 1.0, 1, 0.5, 0.6, output)

    first, second = Outputs(), Outputs()
    first.record(0, result(b"a"))
    first.record(1, result(b"b"))
    second.record(1, result(b"b"))
    second.record(0, result(b"a"))
    assert first.digest() == second.digest()
    first.record(0, result(b"a"))
    with pytest.raises(CheckError, match="differ from an earlier op"):
        first.record(1, result(b"c"))
