#!/usr/bin/env python3
"""vcdf benchmark: one workload, one closed-loop caller, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload varlingam-n15 --seed 1 --seconds 30 --trace 0

Set-up imports vcdf from ``src/``, builds the workload's input pool from
``--seed`` and runs one warm-up op; it is repeated in fresh processes and the
median is reported.  The loop then runs ops back to back for ``--seconds``
(and at least once over the pool), checks every output, and prints a report
whose last line is one JSON object.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced ops and reports
per-layer metrics from spans recorded around calls into vcdf.

BLAS threads are left at the library default on purpose: pinning them would
hide the first-call QR stalls that ``run_s.tail`` and ``setup_s`` must show.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from measure import layer_metrics, tail_percentile
from spans import Instrumentation, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# varlingam-n15 runs on request but is not declared in BENCHMARK.json: on a noisy
# 2-vCPU host, two workloads at a longer run length were steadier than three.
WORKLOAD_NAMES = ("varlingam-n15", "lagreg-cli", "bench-desk")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads, the metrics with their units, and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(spec: dict, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics declared for this mode, in declared order."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def trace_targets() -> list:
    """(function, span name, count hook) for each traced public function of vcdf."""
    from vcdf import cli, consensus, discovery, evaluation, series, synthetic

    hooks = {
        series.read_series_csv: lambda args, result: {"bytes": os.path.getsize(args[0])},
        consensus.extract_training: lambda args, result: {"rows": result.n_steps},
        consensus.run_vcdf: lambda args, result: {"edges": len(result[1].edges),
                                                  "kept": sum(e.kept for e in result[1].edges)},
    }
    functions = (
        synthetic.benchmark_suite, synthetic.random_scm, synthetic.simulate,
        series.read_series_csv, series.read_graph_json, series.write_graph_json,
        series.graph_to_json, series.graph_from_json,
        discovery.fit_var, discovery.direct_lingam_order, discovery.varlingam_discover,
        discovery.lagreg_discover,
        consensus.run_vcdf, consensus.extract_training, consensus.stability_report_to_json,
        evaluation.window_f1, evaluation.summary_f1,
        cli.main, cli.cmd_discover, cli.cmd_bench,
    )
    return [(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", hooks.get(fn)) for fn in functions]


class Outputs:
    """First outputs per pool entry: F1 and a digest; later runs of an entry must repeat the bytes."""

    def __init__(self) -> None:
        self.first: dict[int, tuple[str, float, float]] = {}

    def record(self, item: int, result) -> None:
        digest = hashlib.sha256(result.output).hexdigest()
        if item not in self.first:
            self.first[item] = (digest, result.window_f1, result.summary_f1)
        elif self.first[item][0] != digest:
            from checks import CheckError  # deferred: it imports vcdf, and set_up times that import
            raise CheckError(f"pool entry {item}: outputs differ from an earlier op on the same input")

    def digest(self) -> str:
        lines = "".join(f"{item}:{self.first[item][0]}\n" for item in sorted(self.first))
        return hashlib.sha256(lines.encode()).hexdigest()

    def mean_f1(self) -> tuple[float, float]:
        """Mean window and summary F1 over the pool entries run so far."""
        return (statistics.fmean(entry[1] for entry in self.first.values()),
                statistics.fmean(entry[2] for entry in self.first.values()))


def set_up(workload_name: str, seed: int, workdir: Path):
    """Import vcdf, build the input pool and run one warm-up op; returns (seconds, workload, warm-up)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    warm = workload.op(0, contextlib.nullcontext)
    return time.perf_counter() - started, workload, warm


def probe_set_up(args) -> float:
    """Set-up time measured in a fresh process, so every sample pays the cold import."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


@contextlib.contextmanager
def traced_scope(instrumentation: Instrumentation, recorder: SpanRecorder, op_id: int):
    with instrumentation.installed(), recorder.op(op_id):
        yield


def measure(workload, seconds: float, trace: bool, outputs: Outputs):
    """Closed loop: each op starts when the previous one (and its checks) ended."""
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder, trace_targets(), "vcdf") if trace else None
    untraced, traced, failures = [], [], []
    ops_per_entry = 2 if trace else 1
    min_ops = workload.pool_size * ops_per_entry
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_ops or time.perf_counter() < deadline:
        is_traced = trace and index % 2 == 1
        item = (index // ops_per_entry) % workload.pool_size
        scope = (functools.partial(traced_scope, instrumentation, recorder, index)
                 if is_traced else contextlib.nullcontext)
        try:
            result = workload.op(item, scope)
            outputs.record(item, result)
        except Exception as exc:  # a failed op is counted and reported; the loop goes on
            failures.append(f"op {index} (pool entry {item}): {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            (traced if is_traced else untraced).append(result)
        index += 1
    return untraced, traced, failures, recorder.spans


def environment() -> dict:
    import numpy
    import vcdf

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "vcdf": vcdf.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas": blas_id,
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "cores": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git`` directly, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(untraced, setup_samples: list[float], outputs: Outputs) -> tuple[dict, dict]:
    run_s = [r.run_s for r in untraced]
    tail, percentile, samples = tail_percentile(run_s)
    window_f1, summary_f1 = outputs.mean_f1()
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "run_s.p50": statistics.median(run_s),
        "run_s.tail": tail,
        "base_s.p50": statistics.median(r.base_s for r in untraced),
        "datasets_per_s": sum(r.datasets for r in untraced) / sum(r.timed_s for r in untraced),
        "window_f1": window_f1,
        "summary_f1": summary_f1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"run_s.tail": {"percentile": percentile, "samples": samples,
                             "beyond": samples - round(samples * percentile / 100.0)},
              "setup_s": {"samples": setup_samples},
              "run_s": run_s, "base_s": [r.base_s for r in untraced]}
    return metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one vcdf benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(argv)
    if not (SRC / "vcdf" / "__init__.py").is_file():
        print(f"error: no vcdf sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup_s, _, _ = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec: dict, workdir: Path) -> int:
    setup_s, workload, warm = set_up(args.workload, args.seed, workdir)
    import vcdf
    if Path(vcdf.__file__).resolve().parent != SRC / "vcdf":
        print(f"error: imported vcdf from {vcdf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    setup_samples = [setup_s] + [probe_set_up(args) for _ in range(SETUP_SAMPLES - 1)]

    outputs = Outputs()
    outputs.record(0, warm)
    untraced, traced, failures, spans = measure(workload, args.seconds, bool(args.trace), outputs)
    attempted = 1 + len(untraced) + len(traced) + len(failures)
    if not untraced or (args.trace and not traced):
        print("error: no operation completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(spans, len(traced))
        metrics["trace.overhead"] = (statistics.median(r.run_s for r in traced)
                                     / statistics.median(r.run_s for r in untraced) - 1.0)
        detail = {"traced_ops": len(traced), "untraced_ops": len(untraced)}
    else:
        metrics, detail = end_to_end(untraced, setup_samples, outputs)
    units = declared_units(spec, bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "digest": outputs.digest(), "error_rate": len(failures) / attempted,
              "failures": failures, "detail": detail, **result}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        (results_dir / f"{stem}.spans.json").write_text(
            json.dumps([[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in spans]) + "\n",
            encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    for key, value in record["environment"].items():
        print(f"  env.{key:<24} {value}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    if not args.trace:
        tail = detail["run_s.tail"]
        print(f"  run_s.tail is p{tail['percentile']:.1f} of {tail['samples']} samples, "
              f"{tail['beyond']} beyond it")
    print(f"  error_rate {record['error_rate']:.6g} ({len(failures)} of {attempted} ops failed)")
    print(f"  digest {record['digest']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
