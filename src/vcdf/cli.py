"""Command-line experiment harness: generation, discovery, evaluation, benchmarks.

Every run is reproducible from a single master seed: each task derives its own
seed as the first 8 bytes of sha256("<seed>:<task name>"), and realization i
within a task adds i to the task seed.

Exit codes: 0 success, 3 when the base method or the filter failed on valid inputs or an
output could not be written, 2 for every other error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import namedtuple
from dataclasses import asdict, fields
from pathlib import Path

from .consensus import VcdfConfig, run_vcdf, stability_report_to_json
from .discovery import DISCOVERERS, DiscovererConfig, make_discoverer
from .evaluation import F1Result, aggregate, summary_f1, window_f1
from .series import (
    WindowGraph,
    read_graph_json,
    read_series_csv,
    require_kind,
    write_graph_json,
    write_series_csv,
)
from .synthetic import (
    DEFAULT_BURN_IN,
    DEFAULT_DENSITY,
    DEFAULT_MAX_LAG,
    SETTINGS,
    benchmark_suite,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3

PAPER_SCALE_N = 15


# A bench grid crosses every setting, length and base of its row; each base gives two
# methods, <m> and vcdf-<m>.
BenchPreset = namedtuple("BenchPreset", "settings lengths bases realizations")
BENCH_PRESETS = {
    "characteristics": BenchPreset(SETTINGS, (1000,), ("varlingam", "lagreg"), 10),
    "lengths": BenchPreset(("trended",), (250, 1000, 2000), ("varlingam", "lagreg"), 10),
    "runtime": BenchPreset(("linear",), (250, 500, 1000, 2000), ("varlingam",), 5),
}

# Each generate key, in flag order: its kind, its default (None: required) and its help.
# Its flag is --<key> (max_lag's is the shared --max-lag), and the manifest echoes every key but out.
GENERATE_KEYS = {
    "setting": (str, None, "data-generating setting"),
    "n": (int, PAPER_SCALE_N, "number of variables"),
    "T": (int, 1000, "steps per series"),
    "realizations": (int, 10, "independent systems"),
    "seed": (int, 0, "master seed"),
    "out": (str, None, "output directory"),
    "density": (float, DEFAULT_DENSITY, "lagged edge density"),
    "burn_in": (int, DEFAULT_BURN_IN, "discarded warm-up steps"),
    "max_lag": (int, DEFAULT_MAX_LAG, None),
}


class ComputeError(Exception):
    """The base method or the filter failed on valid inputs (exit code 3)."""


def derive_seed(master: int, task: str) -> int:
    digest = hashlib.sha256(f"{master}:{task}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _read(reader, path, what: str):
    """``reader(path)``, with an unreadable file or undecodable text turned into a ValueError naming it."""
    try:
        return reader(path)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"{what} file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path}: malformed JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} file {path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_config_file(path: str, allowed) -> dict:
    doc = _read(lambda p: json.loads(Path(p).read_text(encoding="utf-8")), path, "config")
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path}: top level must be an object")
    _reject_unknown_keys(doc, allowed, f"config file {path}")
    return doc


def _reject_unknown_keys(doc: dict, allowed, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"{where}: unknown keys: {', '.join(unknown)}")


def _resolve(kind: type, flag_value, config: dict, key: str, default):
    """The flag, else the config entry, else ``default`` (None: required), as a ``kind`` (see ``require_kind``)."""
    value = flag_value if flag_value is not None else config.get(key)
    if value is None:
        if default is None:
            raise ValueError(f"requires --{key} (or {key!r} in --config)")
        return default
    # A hand-written config may spell an integer as a whole float, "T": 300.0.
    value = int(value) if kind is int and isinstance(value, float) and value.is_integer() else value
    return require_kind(f"config key {key!r}", value, kind)


def _section(cls, args, sub, key: str):
    """A ``cls`` whose every field is its flag, else its entry in config section ``key``, else its default."""
    if not isinstance(sub, dict):
        raise ValueError(f"config key {key!r} must be an object")
    _reject_unknown_keys(sub, [f.name for f in fields(cls)], f"config key {key!r}")
    values = {f.name: _resolve(type(f.default), getattr(args, f.name), sub, f.name, f.default) for f in fields(cls)}
    return cls(**values)


def _vcdf_section(config: dict) -> dict | None:
    """The config's 'vcdf' thresholds: true or an object turns the filter on, false or null leaves it off."""
    sub = config.get("vcdf")
    if not (sub is None or isinstance(sub, (bool, dict))):
        raise ValueError(f"config key 'vcdf' must be true, false or an object, got {sub!r}")
    return {} if sub is True else None if sub is False else sub


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    config = _load_config_file(args.config, GENERATE_KEYS) if args.config else {}
    params = {key: _resolve(kind, getattr(args, key), config, key, default)
              for key, (kind, default, _) in GENERATE_KEYS.items()}
    if params["setting"] not in SETTINGS:
        raise ValueError(f"unknown setting {params['setting']!r}, expected one of {', '.join(SETTINGS)}")
    out_dir = Path(params.pop("out"))
    task = f"generate:{params['setting']}"
    suite_seed = derive_seed(params["seed"], task)
    suite = benchmark_suite(**{**params, "seed": suite_seed})

    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, ds in enumerate(suite):
        series_name = f"series_{i:03d}.csv"
        truth_name = f"truth_{i:03d}.json"
        write_series_csv(ds.series, out_dir / series_name)
        write_graph_json(ds.truth, out_dir / truth_name)
        entries.append({"index": i, "scm_seed": suite_seed + i,
                        "series_csv": series_name, "truth_json": truth_name})
    manifest = {**params, "task": task, "suite_seed": suite_seed, "datasets": entries}
    (out_dir / "manifest.json").write_text(_dump(manifest), encoding="utf-8")
    print(f"wrote {len(suite)} datasets to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------

def cmd_discover(args) -> int:
    config = _load_config_file(args.config, {"method", "vcdf", "discoverer", "out"}) if args.config else {}
    method = _resolve(str, args.method, config, "method", "varlingam")
    disc_config = _section(DiscovererConfig, args, config.get("discoverer", {}), "discoverer")
    base = make_discoverer(method, disc_config)
    vcdf_sub = _vcdf_section(config)
    use_vcdf = args.vcdf or vcdf_sub is not None
    vcdf_config = _section(VcdfConfig, args, vcdf_sub or {}, "vcdf") if use_vcdf else None
    out = _resolve(str, args.out, config, "out", None)

    # Load and validate every input before producing any output file.
    series = _read(read_series_csv, args.series, "series")
    truth = _read(read_graph_json, args.truth, "truth") if args.truth else None
    if truth is not None and truth.n != series.n_vars:
        raise ValueError(f"variable count mismatch: series n={series.n_vars}, truth n={truth.n}")

    started = time.perf_counter()
    graph, report = _estimate(series, base, vcdf_config)
    seconds = time.perf_counter() - started

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.series).stem
    write_graph_json(graph, out_dir / f"{stem}.graph.json")
    written = [f"{stem}.graph.json"]
    if report is not None:
        (out_dir / f"{stem}.stability.json").write_text(
            stability_report_to_json(report) + "\n", encoding="utf-8")
        written.append(f"{stem}.stability.json")
    if truth is not None:
        (out_dir / f"{stem}.metrics.json").write_text(_dump(_metrics_doc(graph, truth)), encoding="utf-8")
        written.append(f"{stem}.metrics.json")
    meta = {
        "input": str(args.series),
        "method": method,
        "vcdf": asdict(vcdf_config) if vcdf_config is not None else None,
        "discoverer": asdict(disc_config),
        "seconds": seconds,
        "edges": len(graph.edges),
    }
    (out_dir / f"{stem}.meta.json").write_text(_dump(meta), encoding="utf-8")
    written.append(f"{stem}.meta.json")
    print(f"wrote {', '.join(written)} to {out_dir}")
    return EXIT_OK


def _estimate(series, base, vcdf_config: VcdfConfig | None):
    """(graph, stability report): the base method's graph and no report, or its stability-filtered graph.

    The one computation the CLI runs, so the one place a ValueError is a failed computation.
    """
    try:
        if vcdf_config is None:
            return base.discover(series), None
        return run_vcdf(series, base, vcdf_config)
    except ValueError as exc:
        raise ComputeError(str(exc)) from exc


def _f1_doc(result: F1Result) -> dict:
    return {
        "p": result.precision, "r": result.recall, "f1": result.f1,
        "tp": result.true_positives, "fp": result.false_positives, "fn": result.false_negatives,
    }


def _metrics_doc(predicted: WindowGraph, truth: WindowGraph) -> dict:
    truth_has_lag0 = any(e.lag == 0 for e in truth.edges)
    return {
        "window": _f1_doc(window_f1(predicted, truth)),
        "summary": _f1_doc(summary_f1(predicted, truth)),
        "window_counts_lag0": truth_has_lag0,
    }


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    predicted = _read(read_graph_json, args.graph, "graph")
    truth = _read(read_graph_json, args.truth, "truth")
    text = _dump(_metrics_doc(predicted, truth))
    print(text, end="")
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_grid(preset: str, setting_override: str | None) -> list[tuple[str, int, str]]:
    """(setting, T, base) cells; datasets are shared between a cell's two methods."""
    p = BENCH_PRESETS[preset]
    settings = (setting_override,) if setting_override else p.settings
    return [(s, T, b) for s in settings for T in p.lengths for b in p.bases]


def _split_method(method: str) -> tuple[str, bool]:
    base_id = method.removeprefix("vcdf-")
    return base_id, base_id != method


class _FullRun:
    """A base that runs ``base`` and keeps the graph and seconds of its call on ``series`` itself.

    ``run_vcdf`` fits the series it is given first, so a ``vcdf-<m>`` cell's full run is
    also the run of its ``<m>`` cell on the same dataset.
    """

    def __init__(self, base, series) -> None:
        self.base, self.series = base, series
        self.graph, self.seconds = None, None

    def discover(self, series):
        if series is not self.series:
            return self.base.discover(series)
        started = time.perf_counter()
        self.graph = self.base.discover(series)
        self.seconds = time.perf_counter() - started
        return self.graph


def _bench_row(setting: str, T: int, method: str, suite_seed: int, suite, graphs, seconds) -> dict:
    return {
        "setting": setting, "T": T, "method": method,
        "window": asdict(aggregate([window_f1(g, ds.truth) for g, ds in zip(graphs, suite)])),
        "summary": asdict(aggregate([summary_f1(g, ds.truth) for g, ds in zip(graphs, suite)])),
        "seconds_mean": sum(seconds) / len(seconds), "suite_seed": suite_seed,
    }


def cmd_bench(args) -> int:
    n = args.n if args.n is not None else PAPER_SCALE_N
    if n != PAPER_SCALE_N:
        print(f"warning: running with n={n} instead of the reference scale n={PAPER_SCALE_N}; "
              f"absolute levels will not be comparable", file=sys.stderr)
    realizations = args.realizations if args.realizations is not None else BENCH_PRESETS[args.preset].realizations
    disc_config = _section(DiscovererConfig, args, {}, "discoverer")
    vcdf_config = _section(VcdfConfig, args, {}, "vcdf")

    grid = _bench_grid(args.preset, args.setting)
    # Every cell's datasets are drawn before any fit, so an out-of-range value fails first.
    seeds = {(setting, T): derive_seed(args.seed, f"bench:{args.preset}:{setting}:T={T}") for setting, T, _ in grid}
    suites = {(setting, T): benchmark_suite(setting, n, T, realizations, seed) for (setting, T), seed in seeds.items()}
    # The <m> row takes the vcdf-<m> cell's full runs, so each base runs k+1 times per dataset.
    rows = []
    for setting, T, base_id in grid:
        suite_seed, suite = seeds[setting, T], suites[setting, T]
        base = make_discoverer(base_id, disc_config)
        graphs, seconds, full_runs = [], [], []
        for ds in suite:
            full_runs.append(_FullRun(base, ds.series))
            t0 = time.perf_counter()
            graph, _ = _estimate(ds.series, full_runs[-1], vcdf_config)
            seconds.append(time.perf_counter() - t0)
            graphs.append(graph)
        rows.append(_bench_row(setting, T, base_id, suite_seed, suite,
                               [run.graph for run in full_runs], [run.seconds for run in full_runs]))
        rows.append(_bench_row(setting, T, f"vcdf-{base_id}", suite_seed, suite, graphs, seconds))

    report = {
        "preset": args.preset, "n": n, "realizations": realizations, "seed": args.seed,
        "discoverer": asdict(disc_config), "vcdf": asdict(vcdf_config),
        "rows": rows,
    }
    table = render_bench_table(report)
    print(table, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(_dump(report), encoding="utf-8")
        (out_dir / "table.txt").write_text(table, encoding="utf-8")
        print(f"wrote report.json, table.txt to {out_dir}")
    return EXIT_OK


def render_bench_table(report: dict) -> str:
    """Fixed-width table derived purely from the report document.

    A ``vcdf-<m>`` row also shows its paired comparison with the ``<m>`` row of
    the same (setting, T): the window and summary F1 deltas (vcdf minus base)
    and its mean time as a multiple of the base's. Base rows leave these blank.
    """
    headers = ["setting", "T", "method", "window F1", "summary F1", "seconds",
               "d window F1", "d summary F1", "time ratio"]
    rows = {(row["setting"], row["T"], row["method"]): row for row in report["rows"]}
    lines = []
    for row in report["rows"]:
        base_id, wrapped = _split_method(row["method"])
        base = rows.get((row["setting"], row["T"], base_id)) if wrapped else None
        paired = ["", "", ""] if base is None else [
            "%+.3f" % (row["window"]["f1_mean"] - base["window"]["f1_mean"]),
            "%+.3f" % (row["summary"]["f1_mean"] - base["summary"]["f1_mean"]),
            "%.2f" % (row["seconds_mean"] / base["seconds_mean"]),
        ]
        lines.append([
            str(row["setting"]),
            str(row["T"]),
            str(row["method"]),
            "%.3f +- %.3f" % (row["window"]["f1_mean"], row["window"]["f1_std"]),
            "%.3f +- %.3f" % (row["summary"]["f1_mean"], row["summary"]["f1_std"]),
            "%.3f" % row["seconds_mean"],
        ] + paired)
    widths = [max(len(headers[c]), max((len(line[c]) for line in lines), default=0))
              for c in range(len(headers))]
    def fmt(cells):
        return "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(cells)).rstrip()
    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out.extend(fmt(line) for line in lines)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # Flags shared between subcommands, each declared once: --max-lag by all
    # three, the method and filter knobs by discover and bench.
    # Each flag's dest is the config field it sets, and its help shows that field's default.
    d, v = DiscovererConfig, VcdfConfig
    lag_flag = argparse.ArgumentParser(add_help=False)
    lag_flag.add_argument("--max-lag", type=int, dest="max_lag", help=f"largest lag (default {d.max_lag})")
    method_flags = argparse.ArgumentParser(add_help=False)
    method_flags.add_argument("--prune", type=float, dest="prune_threshold", metavar="PRUNE",
                              help=f"absolute weight threshold (default {d.prune_threshold})")
    method_flags.add_argument("--alpha", type=float, help=f"lagreg significance level (default {d.alpha})")
    method_flags.add_argument("--k", type=int, help=f"fold count (default {v.k})")
    method_flags.add_argument("--tau-c", type=float, dest="tau_c", help=f"consistency threshold (default {v.tau_c})")
    method_flags.add_argument("--tau-v", type=float, dest="tau_v", help=f"variability threshold (default {v.tau_v})")
    method_flags.add_argument("--w", type=float, help=f"fold-mean refinement weight (default {v.w})")
    method_flags.add_argument("--epsilon", type=float, help=f"variability regularizer (default {v.epsilon})")

    parser = argparse.ArgumentParser(
        prog="vcdf",
        description="Consensus-validated time-series causal discovery experiments.",
        epilog="Per-task seeds derive as sha256('<seed>:<task>')[:8]; realization i adds i.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[lag_flag], help="write a labeled synthetic dataset suite")
    gen.add_argument("--config", help="JSON experiment config; flags override its values")
    for key, (kind, default, text) in GENERATE_KEYS.items():
        if key != "max_lag":
            gen.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                             choices=SETTINGS if key == "setting" else None,
                             help=text if default is None else f"{text} (default {default})")
    gen.set_defaults(handler=cmd_generate)

    dis = sub.add_parser("discover", parents=[lag_flag, method_flags],
                         help="estimate a causal graph from a series CSV")
    dis.add_argument("series", help="input series CSV")
    dis.add_argument("--config", help="JSON experiment config; flags override its values")
    dis.add_argument("--method", choices=DISCOVERERS)
    dis.add_argument("--vcdf", action="store_true", help="wrap the method in stability filtering")
    dis.add_argument("--truth", help="truth graph JSON; adds a metrics file")
    dis.add_argument("--out", help="output directory")
    dis.set_defaults(handler=cmd_discover)

    ev = sub.add_parser("evaluate", help="score a predicted graph against a truth graph")
    ev.add_argument("graph", help="predicted graph JSON")
    ev.add_argument("truth", help="truth graph JSON")
    ev.add_argument("--out", help="also write the metrics JSON here")
    ev.set_defaults(handler=cmd_evaluate)

    ben = sub.add_parser("bench", parents=[lag_flag, method_flags], help="run a preset benchmark grid")
    ben.add_argument("preset", choices=BENCH_PRESETS)
    ben.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    ben.add_argument("--out", help="directory for report.json and table.txt")
    ben.add_argument("--n", type=int, help="variables per system (warns when not 15)")
    ben.add_argument("--realizations", type=int, help="datasets per cell (default: " + ", ".join(
        f"{name} {p.realizations}" for name, p in BENCH_PRESETS.items()) + ")")
    ben.add_argument("--setting", choices=SETTINGS, help="override the preset's setting")
    ben.set_defaults(handler=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ComputeError, OSError) as exc:
        # _read turns every unreadable input into a ValueError, so an OSError here failed to write an output.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
