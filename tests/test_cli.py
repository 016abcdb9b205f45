"""End-to-end harness behavior: files written, exit codes, determinism, presets."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import vcdf
from vcdf import (
    DiscovererConfig,
    MultivariateSeries,
    VcdfConfig,
    aggregate,
    benchmark_suite,
    make_discoverer,
    read_graph_json,
    read_series_csv,
    summary_f1,
    window_f1,
    write_series_csv,
)
from vcdf import cli
from vcdf.cli import derive_seed, main, render_bench_table


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert run("generate", "--setting", "linear", "--n", "5", "--T", "400",
               "--realizations", "2", "--seed", "7", "--out", out) == 0
    return out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_the_suite_and_manifest(dataset_dir):
    names = sorted(p.name for p in dataset_dir.iterdir())
    assert names == ["manifest.json", "series_000.csv", "series_001.csv",
                     "truth_000.json", "truth_001.json"]
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["setting"] == "linear"
    assert manifest["realizations"] == 2
    assert manifest["suite_seed"] == derive_seed(7, "generate:linear")
    assert [d["series_csv"] for d in manifest["datasets"]] == ["series_000.csv", "series_001.csv"]
    series = read_series_csv(dataset_dir / "series_000.csv")
    assert series.values.shape == (400, 5)
    truth = read_graph_json(dataset_dir / "truth_000.json")
    assert truth.n == 5


def test_generate_is_byte_deterministic(dataset_dir, tmp_path):
    again = tmp_path / "again"
    assert run("generate", "--setting", "linear", "--n", "5", "--T", "400",
               "--realizations", "2", "--seed", "7", "--out", again) == 0
    for name in ("series_000.csv", "truth_000.json", "manifest.json"):
        assert (again / name).read_bytes() == (dataset_dir / name).read_bytes()


def test_generate_different_seeds_differ(dataset_dir, tmp_path):
    other = tmp_path / "other"
    assert run("generate", "--setting", "linear", "--n", "5", "--T", "400",
               "--realizations", "2", "--seed", "8", "--out", other) == 0
    assert (other / "series_000.csv").read_bytes() != (dataset_dir / "series_000.csv").read_bytes()


def test_generate_rejects_unknown_setting(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run("generate", "--setting", "cubic", "--out", tmp_path / "x")
    assert info.value.code == 2
    assert not (tmp_path / "x").exists()
    # argparse's choices do not reach a config file's setting.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "cubic"}))
    assert run("generate", "--config", config, "--out", tmp_path / "x") == 2
    assert ("unknown setting 'cubic', expected one of linear, nonlinear, non_gaussian, trended"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_generate_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "linear", "n": 5, "T": 400,
                                  "realizations": 1, "seed": 7, "out": str(tmp_path / "cfg_out")}))
    assert run("generate", "--config", config) == 0
    assert (tmp_path / "cfg_out" / "series_000.csv").exists()
    # flag wins over config value
    assert run("generate", "--config", config, "--out", tmp_path / "flag_out") == 0
    assert (tmp_path / "flag_out" / "series_000.csv").exists()


def test_generate_rejects_unknown_config_keys(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "linear", "bogus": 1}))
    assert run("generate", "--config", config, "--out", tmp_path / "x") == 2


def test_generate_config_value_of_the_wrong_type_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "linear", "n": "abc"}))
    assert run("generate", "--config", config, "--out", tmp_path / "x") == 2
    assert "'n'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value", [("T", 300.9), ("n", True), ("n", "5")])
def test_generate_integer_key_rejects_fractions_and_bools(key, value, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "linear", "n": 5, "T": 300, key: value}))
    assert run("generate", "--config", config, "--out", tmp_path / "x") == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generate_integral_float_is_accepted(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "linear", "n": 3, "T": 300.0, "realizations": 1}))
    assert run("generate", "--config", config, "--out", tmp_path / "x") == 0
    assert json.loads((tmp_path / "x" / "manifest.json").read_text())["T"] == 300


def test_generate_config_out_of_the_wrong_type_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "linear", "n": 3, "T": 300, "out": 5}))
    assert run("generate", "--config", config) == 2
    assert "'out'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------

def test_discover_writes_graph_metrics_meta(dataset_dir, tmp_path):
    out = tmp_path / "run"
    assert run("discover", dataset_dir / "series_000.csv", "--method", "varlingam",
               "--truth", dataset_dir / "truth_000.json", "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "series_000.graph.json", "series_000.meta.json", "series_000.metrics.json"]
    metrics = json.loads((out / "series_000.metrics.json").read_text())
    for section in ("window", "summary"):
        assert set(metrics[section]) == {"p", "r", "f1", "tp", "fp", "fn"}
    meta = json.loads((out / "series_000.meta.json").read_text())
    assert meta["method"] == "varlingam"
    assert meta["seconds"] > 0
    assert meta["vcdf"] is None


def test_discover_with_vcdf_adds_the_stability_report(dataset_dir, tmp_path):
    out = tmp_path / "run"
    assert run("discover", dataset_dir / "series_000.csv", "--vcdf",
               "--k", "4", "--out", out) == 0
    report = json.loads((out / "series_000.stability.json").read_text())
    assert report["config"]["k"] == 4
    graph = read_graph_json(out / "series_000.graph.json")
    g0_keys = {(e["cause"], e["effect"], e["lag"]) for e in report["edges"]}
    assert {e.key for e in graph.edges} <= g0_keys


def test_vacuous_vcdf_reproduces_the_plain_graph(dataset_dir, tmp_path):
    plain, vac = tmp_path / "plain", tmp_path / "vac"
    assert run("discover", dataset_dir / "series_000.csv", "--out", plain) == 0
    assert run("discover", dataset_dir / "series_000.csv", "--vcdf",
               "--tau-c", "0", "--tau-v", "inf", "--out", vac) == 0
    assert (plain / "series_000.graph.json").read_bytes() == \
        (vac / "series_000.graph.json").read_bytes()


def test_discover_missing_input_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "nothing"
    assert run("discover", tmp_path / "absent.csv", "--out", out) == 2
    assert "not found" in capsys.readouterr().err
    assert not out.exists()


def test_discover_malformed_csv_exits_2_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,zebra\n")
    out = tmp_path / "nothing"
    assert run("discover", bad, "--out", out) == 2
    assert "row 1, column 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("role", ["series", "config", "truth", "graph"], ids=["bad.csv", "bad.json", "truth", "graph"])
def test_non_utf8_input_exits_2_naming_the_file(role, dataset_dir, tmp_path, capsys):
    bad = tmp_path / ("bad.csv" if role == "series" else "bad.json")
    bad.write_bytes(b"\xffa,b\n1,2\n")
    out = tmp_path / "nothing"
    series, truth = dataset_dir / "series_000.csv", dataset_dir / "truth_000.json"
    argv = {
        "series": ["discover", bad, "--out", out],
        "config": ["discover", series, "--config", bad, "--out", out],
        "truth": ["discover", series, "--truth", bad, "--out", out],
        "graph": ["evaluate", bad, truth, "--out", out / "metrics.json"],
    }[role]
    assert run(*argv) == 2
    assert f"error: {role} file {bad}: not UTF-8 text: invalid start byte at byte 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("role", ["series", "truth", "config", "graph"])
def test_input_that_is_a_directory_exits_2_naming_its_role(role, dataset_dir, tmp_path, capsys):
    # Only a directory is tested: a permission error cannot be provoked when the tests run as root.
    folder = tmp_path / "adir"
    folder.mkdir()
    out = tmp_path / "nothing"
    series, truth = dataset_dir / "series_000.csv", dataset_dir / "truth_000.json"
    argv = {
        "series": ["discover", folder, "--out", out],
        "truth": ["discover", series, "--truth", folder, "--out", out],
        "config": ["generate", "--config", folder, "--out", out],
        "graph": ["evaluate", folder, truth, "--out", out / "metrics.json"],
    }[role]
    assert run(*argv) == 2
    assert f"error: {role} file {folder}: " in capsys.readouterr().err
    assert not out.exists()


def test_discover_config_value_of_the_wrong_type_exits_2(dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    out = tmp_path / "nothing"
    for doc, fragment in (({"vcdf": {"k": [5]}}, "'k'"), ({"method": []}, "'method'"),
                          ({"discoverer": {"prune": 0.3}}, "'discoverer': unknown keys: prune"),
                          ({"vcdf": {"tau": 0.9}}, "'vcdf': unknown keys: tau"),
                          ({"discoverer": {"alpha": "0.05"}}, "'alpha'"), ({"vcdf": {"k": "4"}}, "'k'")):
        config.write_text(json.dumps(doc))
        assert run("discover", dataset_dir / "series_000.csv", "--config", config, "--vcdf", "--out", out) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()


def test_discover_config_unknown_method_exits_2_before_reading_the_series(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "pcmci"}))
    out = tmp_path / "nothing"
    assert run("discover", tmp_path / "absent.csv", "--config", config, "--out", out) == 2
    err = capsys.readouterr().err
    assert "unknown discoverer 'pcmci'" in err
    assert "lagreg" in err and "varlingam" in err
    assert "not found" not in err
    assert not out.exists()


@pytest.mark.parametrize("value, k", [(True, 5), ({}, 5), ({"k": 4}, 4), (False, None)])
def test_discover_config_vcdf_key_switches_the_filter(value, k, dataset_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vcdf": value}))
    out = tmp_path / "run"
    assert run("discover", dataset_dir / "series_000.csv", "--config", config, "--out", out) == 0
    meta = json.loads((out / "series_000.meta.json").read_text())
    assert (out / "series_000.stability.json").exists() == (k is not None)
    assert (meta["vcdf"] and meta["vcdf"]["k"]) == k


@pytest.mark.parametrize("flags, config_doc, named", [
    (["--k", "3"], None, "--k"),
    (["--tau-c", "0.9", "--w", "0.5"], {"vcdf": False}, "--tau-c, --w"),
], ids=["flag", "flags-with-vcdf-false"])
def test_discover_filter_flags_with_the_filter_off_exit_2_before_reading_the_series(
        flags, config_doc, named, tmp_path, capsys):
    argv = ["discover", tmp_path / "absent.csv", *flags, "--out", tmp_path / "o"]
    if config_doc is not None:
        (tmp_path / "config.json").write_text(json.dumps(config_doc))
        argv += ["--config", tmp_path / "config.json"]
    assert run(*argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: the filter is off, so {named} would be ignored; add --vcdf to turn it on"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("vcdf", 1), ("out", 5)])
def test_discover_config_vcdf_or_out_of_the_wrong_type_exits_2(key, value, dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(tmp_path / "nothing"), key: value}))
    assert run("discover", dataset_dir / "series_000.csv", "--config", config) == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert not (tmp_path / "nothing").exists()


def test_discover_computation_failure_exits_3(tmp_path, capsys):
    short = tmp_path / "short.csv"
    rows = "\n".join("%f,%f,%f" % tuple(row) for row in np.random.default_rng(0).normal(size=(12, 3)))
    short.write_text("a,b,c\n" + rows + "\n")
    out = tmp_path / "nothing"
    assert run("discover", short, "--method", "varlingam", "--out", out) == 3
    assert not out.exists()


def test_discover_on_a_constant_column_exits_3_without_outputs(tmp_path, capsys):
    constant = tmp_path / "c30.csv"
    rows = "".join(f"57418.9,{b!r}\n" for b in np.random.default_rng(0).standard_normal(30).tolist())
    constant.write_text("a,b\n" + rows)
    out = tmp_path / "nothing"
    assert run("discover", constant, "--method", "lagreg", "--max-lag", "1", "--out", out) == 3
    assert "rank-deficient" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("method", ["varlingam", "lagreg"])
def test_discover_on_values_whose_squares_leave_the_float_range_exits_3_without_outputs(
        method, scale, dataset_dir, tmp_path, capsys):
    series = read_series_csv(dataset_dir / "series_000.csv")
    scaled = tmp_path / "scaled.csv"
    write_series_csv(MultivariateSeries(scale * series.values, series.names), scaled)
    out = tmp_path / "nothing"
    assert run("discover", scaled, "--method", method, "--out", out) == 3
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["varlingam", "lagreg"])
def test_discover_on_a_last_row_whose_square_overflows_exits_3_without_warnings(
        method, dataset_dir, tmp_path, capsys):
    # The last row is only ever a target, never a lagged regressor.
    series = read_series_csv(dataset_dir / "series_000.csv")
    values = series.values.copy()
    values[-1, 2] = 1e200
    edited = tmp_path / "last.csv"
    write_series_csv(MultivariateSeries(values, series.names), edited)
    out = tmp_path / "nothing"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("discover", edited, "--method", method, "--out", out) == 3
    assert "series values out of range" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_discover_vcdf_whose_fold_weights_spread_beyond_the_float_range_exits_3_without_outputs(
        dataset_dir, tmp_path, capsys):
    # Columns in units 1e290 apart fit, but the fold weights between them come out near 1e288.
    series = read_series_csv(dataset_dir / "series_000.csv")
    scaled = tmp_path / "scaled.csv"
    write_series_csv(MultivariateSeries(series.values * [1e150, 1e-140, 1.0, 1.0, 1.0], series.names), scaled)
    out = tmp_path / "nothing"
    assert run("discover", scaled, "--vcdf", "--out", out) == 3
    err = capsys.readouterr().err
    assert "spread too far to score" in err and "Traceback" not in err
    assert not out.exists()


def test_discover_truth_of_another_variable_count_exits_2_without_outputs(dataset_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert run("generate", "--setting", "linear", "--n", "4", "--T", "300",
               "--realizations", "1", "--out", other) == 0
    capsys.readouterr()
    out = tmp_path / "nothing"
    assert run("discover", dataset_dir / "series_000.csv", "--vcdf", "--truth", other / "truth_000.json",
               "--out", out) == 2
    assert "series n=5, truth n=4" in capsys.readouterr().err
    assert not out.exists()


def test_discover_fold_failure_names_the_fold(dataset_dir, tmp_path, capsys):
    # 60 rows: enough for the full-sample fit, too short for each fold's training set
    short = tmp_path / "short.csv"
    lines = (dataset_dir / "series_000.csv").read_text().splitlines()
    short.write_text("\n".join(lines[:61]) + "\n")
    out = tmp_path / "nothing"
    assert run("discover", short, "--method", "varlingam", "--vcdf", "--out", out) == 3
    assert "fold" in capsys.readouterr().err


def test_discover_more_folds_than_steps_exits_2_without_outputs(dataset_dir, tmp_path, capsys):
    out = tmp_path / "nothing"
    assert run("discover", dataset_dir / "series_000.csv", "--vcdf", "--k", "500", "--out", out) == 2
    assert "cannot cut 400 steps into 500 folds" in capsys.readouterr().err
    assert not out.exists()


_GENERATE = ("generate", "--setting", "linear", "--n", "5", "--T", "300", "--realizations", "1")


@pytest.mark.parametrize("argv, message", [
    pytest.param(_GENERATE + ("--density", "2"), "density must lie in (0, 1], got 2.0", id="generate-density"),
    pytest.param(_GENERATE + ("--n", "1"), "need n >= 2 variables", id="generate-n"),
    pytest.param(_GENERATE + ("--T", "5"), "need T >= 30", id="generate-T"),
    pytest.param(_GENERATE + ("--realizations", "0"), "need realizations >= 1", id="generate-realizations"),
    pytest.param(_GENERATE + ("--burn-in", "-1"), "burn_in must be >= 0", id="generate-burn-in"),
    pytest.param(_GENERATE + ("--max-lag", "0"), "need max_lag >= 1", id="generate-max-lag"),
    pytest.param(("bench", "runtime", "--n", "1"), "need n >= 2 variables", id="bench-n"),
    pytest.param(("bench", "runtime", "--realizations", "0"), "need realizations >= 1", id="bench-realizations"),
    pytest.param(("bench", "runtime", "--n", "5", "--realizations", "1", "--k", "300"),
                 "cannot cut 250 steps into 300 folds", id="bench-k"),
])
def test_generate_and_bench_out_of_range_value_exits_2(argv, message, tmp_path, capsys):
    out = tmp_path / "nothing"
    assert run(*argv, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_prints_and_writes_metrics(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    run("discover", dataset_dir / "series_000.csv", "--out", out)
    capsys.readouterr()
    dest = tmp_path / "metrics.json"
    assert run("evaluate", out / "series_000.graph.json", dataset_dir / "truth_000.json",
               "--out", dest) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(dest.read_text())
    assert printed == stored
    assert 0.0 <= stored["window"]["f1"] <= 1.0


def test_evaluate_perfect_on_identical_graphs(dataset_dir, capsys):
    truth = dataset_dir / "truth_000.json"
    assert run("evaluate", truth, truth) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["window"]["f1"] == 1.0
    assert doc["summary"]["f1"] == 1.0


def test_evaluate_graphs_of_different_variable_counts_exit_2(dataset_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert run("generate", "--setting", "linear", "--n", "4", "--T", "300",
               "--realizations", "1", "--out", other) == 0
    capsys.readouterr()
    out = tmp_path / "metrics.json"
    assert run("evaluate", dataset_dir / "truth_000.json", other / "truth_000.json", "--out", out) == 2
    assert "variable count mismatch: predicted n=5, truth n=4" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_missing_file_exits_2(dataset_dir, tmp_path, capsys):
    assert run("evaluate", tmp_path / "a.json", tmp_path / "b.json") == 2
    assert f"graph file not found: {tmp_path / 'a.json'}" in capsys.readouterr().err
    assert run("evaluate", dataset_dir / "truth_000.json", tmp_path / "b.json") == 2
    assert f"truth file not found: {tmp_path / 'b.json'}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_characteristics_grid_shape(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run("bench", "characteristics", "--n", "5", "--realizations", "1",
               "--seed", "1", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 16  # 4 settings x 4 methods
    settings_seen = {row["setting"] for row in report["rows"]}
    assert settings_seen == {"linear", "nonlinear", "non_gaussian", "trended"}
    methods_seen = {row["method"] for row in report["rows"]}
    assert methods_seen == {"varlingam", "vcdf-varlingam", "lagreg", "vcdf-lagreg"}
    err = capsys.readouterr().err
    assert "n=5" in err and "15" in err  # desk-scale warning fired


def test_bench_report_rerenders_to_the_same_table(tmp_path):
    out = tmp_path / "bench"
    assert run("bench", "runtime", "--n", "5", "--realizations", "2",
               "--seed", "3", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert render_bench_table(report) == (out / "table.txt").read_text()


def _table_row(setting, T, method):
    f1 = {"f1_mean": 0.5, "f1_std": 0.1}
    return {"setting": setting, "T": T, "method": method, "window": f1, "summary": f1, "seconds_mean": 0.1}


@pytest.mark.parametrize("rows, fragment", [
    ([("linear", 100, "varlingam")], "1 rows"),
    ([("linear", 100, "vcdf-varlingam"), ("linear", 100, "varlingam")], "does not pair"),
    ([("linear", 100, "varlingam"), ("linear", 100, "vcdf-lagreg")], "does not pair"),
    ([("linear", 100, "varlingam"), ("linear", 200, "vcdf-varlingam")], "T=200 does not pair"),
    ([("linear", 100, "lagreg"), ("trended", 100, "vcdf-lagreg")], "at trended"),
])
def test_bench_table_refuses_rows_that_do_not_come_in_pairs(rows, fragment):
    with pytest.raises(ValueError, match=fragment):
        render_bench_table({"rows": [_table_row(*row) for row in rows]})


def test_bench_runtime_rows_and_ratio(tmp_path):
    out = tmp_path / "bench"
    assert run("bench", "runtime", "--n", "5", "--realizations", "2",
               "--seed", "3", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    cells = {(row["T"], row["method"]): row for row in report["rows"]}
    assert sorted({T for T, _ in cells}) == [250, 500, 1000, 2000]
    for T in (250, 500, 1000, 2000):
        ratio = cells[(T, "vcdf-varlingam")]["seconds_mean"] / cells[(T, "varlingam")]["seconds_mean"]
        assert 1.5 < ratio < 15  # k=5 wrapping: desk-scale sanity band


def test_bench_runs_each_base_k_plus_1_times_per_dataset(tmp_path, monkeypatch):
    # The vcdf-varlingam cell's full run is also the varlingam cell's run.
    lengths = []
    make_discoverer = cli.make_discoverer

    class Counting:
        def __init__(self, base):
            self.base = base

        def discover(self, series):
            lengths.append(series.n_steps)
            return self.base.discover(series)

    monkeypatch.setattr(cli, "make_discoverer", lambda method_id, config: Counting(make_discoverer(method_id, config)))
    out = tmp_path / "bench"
    assert run("bench", "runtime", "--n", "5", "--realizations", "2", "--seed", "3", "--out", out) == 0
    k, realizations, Ts = VcdfConfig().k, 2, (250, 500, 1000, 2000)
    assert len(lengths) == len(Ts) * realizations * (k + 1)
    for T in Ts:
        assert lengths.count(T) == realizations  # one full run per dataset
    report = json.loads((out / "report.json").read_text())
    cells = {(row["T"], row["method"]): row for row in report["rows"]}
    assert [(row["T"], row["method"]) for row in report["rows"]] == [
        (T, method) for T in Ts for method in ("varlingam", "vcdf-varlingam")]
    for T in Ts:
        assert cells[T, "vcdf-varlingam"]["seconds_mean"] >= cells[T, "varlingam"]["seconds_mean"]


def test_bench_lengths_preset_uses_the_drifting_setting(tmp_path):
    out = tmp_path / "bench"
    assert run("bench", "lengths", "--n", "5", "--realizations", "1",
               "--seed", "2", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert {row["setting"] for row in report["rows"]} == {"trended"}
    assert sorted({row["T"] for row in report["rows"]}) == [250, 1000, 2000]


def test_bench_shares_datasets_within_a_cell(tmp_path):
    out = tmp_path / "bench"
    assert run("bench", "runtime", "--n", "5", "--realizations", "1",
               "--seed", "4", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    by_T = {}
    for row in report["rows"]:
        by_T.setdefault(row["T"], set()).add(row["suite_seed"])
    for T, seeds in by_T.items():
        assert len(seeds) == 1  # both methods saw the same suite
    # The varlingam row, read off each wrapped run's report, is varlingam's own run on that suite.
    base = make_discoverer("varlingam")
    for row in report["rows"][0::2]:
        suite = benchmark_suite("linear", 5, row["T"], 1, row["suite_seed"])
        graphs = [base.discover(ds.series) for ds in suite]
        assert row["window"] == asdict(aggregate([window_f1(g, ds.truth) for g, ds in zip(graphs, suite)]))
        assert row["summary"] == asdict(aggregate([summary_f1(g, ds.truth) for g, ds in zip(graphs, suite)]))


def test_bench_fit_failure_exits_3_without_a_report(tmp_path, capsys):
    # T=250 is too short to fit 5 variables at lag 45: a valid value that only the fit rejects.
    out = tmp_path / "bench"
    assert run("bench", "runtime", "--n", "5", "--realizations", "1", "--max-lag", "45", "--out", out) == 3
    assert "need more than 271 steps to fit 5 variables at lag 45, got 250" in capsys.readouterr().err
    assert not out.exists()


def test_bench_unknown_preset_exits_2():
    with pytest.raises(SystemExit) as info:
        run("bench", "weekly")
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    pytest.param(("discover", "{data}/series_000.csv", "--out", "{blocked}"), id="discover"),
    pytest.param(_GENERATE + ("--out", "{blocked}"), id="generate"),
    pytest.param(("bench", "runtime", "--n", "5", "--realizations", "1", "--out", "{blocked}"), id="bench"),
    pytest.param(("evaluate", "{data}/truth_000.json", "{data}/truth_000.json", "--out", "{blocked}/m.json"),
                 id="evaluate"),
])
def test_output_that_cannot_be_written_exits_3(argv, dataset_dir, tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("a regular file\n")
    assert run(*(a.format(data=dataset_dir, blocked=blocked) for a in argv)) == 3
    err = capsys.readouterr().err
    assert "error: " in err and "File exists" in err
    assert blocked.read_text() == "a regular file\n"


def test_the_module_entry_point_exits_with_the_code_and_one_error_line(tmp_path):
    # A child process, so the exit code and stderr are what a shell sees from `python -m vcdf.cli`.
    path = [str(Path(vcdf.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    def vcdf_cli(*argv):
        return subprocess.run([sys.executable, "-m", "vcdf.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=120)

    done = vcdf_cli(*_GENERATE, "--out", tmp_path / "data")
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    done = vcdf_cli("evaluate", tmp_path / "a.json", tmp_path / "b.json")
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith("error: graph file not found")
    blocked = tmp_path / "blocked"
    blocked.write_text("a regular file\n")
    done = vcdf_cli(*_GENERATE, "--out", blocked)
    assert done.returncode == 3
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and "File exists" in line


# ---------------------------------------------------------------------------
# help
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["generate", "discover", "evaluate", "bench"])
def test_help_exits_0_and_shows_the_config_defaults(command, capsys):
    with pytest.raises(SystemExit) as info:
        run(command, "--help")
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    if command in ("discover", "bench"):
        for cls in (DiscovererConfig, VcdfConfig):
            for field in fields(cls):
                assert f"(default {field.default})" in text, field.name
        assert "[--prune PRUNE]" in text


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        run()
    assert info.value.code == 2
