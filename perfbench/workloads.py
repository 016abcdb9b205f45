"""The benchmark's workloads: input pools built at set-up, one timed operation each.

Every workload drives vcdf through module attributes looked up at call time
(``consensus.run_vcdf``, ``cli.main``), so a traced operation reaches the
wrappers that ``spans.Instrumentation`` installs.  Checks and output
serialization run after the ``scope()`` block and stay outside the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from vcdf import cli, consensus, discovery, synthetic
from vcdf.evaluation import summary_f1, window_f1
from vcdf.series import graph_to_json, read_graph_json

from checks import CheckError, check_bench_report, check_discover_outputs, check_wrapped


@dataclass
class OpResult:
    run_s: float
    base_s: float
    timed_s: float
    datasets: int
    window_f1: float
    summary_f1: float
    output: bytes


def derive_seed(seed: int, label: str) -> int:
    """A 64-bit input seed per workload and pool entry, from the benchmark seed alone."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8], "big")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``vcdf.cli.main`` with its console output captured; returns (exit code, stderr)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, err.getvalue()


class VarlingamN15:
    """In-process API: base varlingam, then run_vcdf with the default config (k=5)."""

    name = "varlingam-n15"
    pool_size = 12

    def __init__(self, seed: int, workdir: Path) -> None:
        self.pool = synthetic.benchmark_suite("linear", 15, 1000, self.pool_size, derive_seed(seed, self.name))
        self.base = discovery.make_discoverer("varlingam")

    def op(self, index: int, scope) -> OpResult:
        dataset = self.pool[index % self.pool_size]
        with scope():
            t0 = time.perf_counter()
            base_graph = self.base.discover(dataset.series)
            t1 = time.perf_counter()
            wrapped, report = consensus.run_vcdf(dataset.series, self.base)
            t2 = time.perf_counter()
        check_wrapped(base_graph, wrapped, report)
        output = "\n".join([graph_to_json(base_graph), graph_to_json(wrapped),
                            consensus.stability_report_to_json(report)])
        return OpResult(t2 - t1, t1 - t0, t2 - t0, 1, window_f1(wrapped, dataset.truth).f1,
                        summary_f1(wrapped, dataset.truth).f1, output.encode())


class LagregCli:
    """The CLI path: ``vcdf discover --method lagreg --truth`` without, then with ``--vcdf``."""

    name = "lagreg-cli"
    pool_size = 24

    def __init__(self, seed: int, workdir: Path) -> None:
        data = workdir / "data"
        code, err = run_cli(["generate", "--setting", "trended", "--n", "15", "--T", "4000",
                             "--realizations", str(self.pool_size),
                             "--seed", str(derive_seed(seed, self.name)), "--out", str(data)])
        if code != 0:
            raise RuntimeError(f"vcdf generate exited {code}: {err.strip()}")
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        self.pool = [(data / entry["series_csv"], data / entry["truth_json"]) for entry in manifest["datasets"]]
        self.truths = [read_graph_json(truth) for _, truth in self.pool]
        self.base_dir = workdir / "out-base"
        self.vcdf_dir = workdir / "out-vcdf"

    def op(self, index: int, scope) -> OpResult:
        csv, truth_path = self.pool[index % self.pool_size]
        truth = self.truths[index % self.pool_size]
        for stale in (self.base_dir, self.vcdf_dir):
            shutil.rmtree(stale, ignore_errors=True)
        argv = ["discover", str(csv), "--method", "lagreg", "--truth", str(truth_path)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            with scope():
                t0 = time.perf_counter()
                base_code = cli.main(argv + ["--out", str(self.base_dir)])
                t1 = time.perf_counter()
                vcdf_code = cli.main(argv + ["--vcdf", "--out", str(self.vcdf_dir)])
                t2 = time.perf_counter()
        if base_code != 0 or vcdf_code != 0:
            raise CheckError(f"vcdf discover exited {base_code} / {vcdf_code} (--vcdf): {err.getvalue().strip()}")
        stem = csv.stem
        base_graph, _, _ = check_discover_outputs(self.base_dir, stem, truth, wrapped=False)
        wrapped, metrics, report = check_discover_outputs(self.vcdf_dir, stem, truth, wrapped=True)
        check_wrapped(base_graph, wrapped, report)
        output = b"".join((d / f"{stem}.{kind}.json").read_bytes()
                          for d, kinds in ((self.base_dir, ("graph", "metrics")),
                                           (self.vcdf_dir, ("graph", "stability", "metrics")))
                          for kind in kinds)
        return OpResult(t2 - t1, t1 - t0, t2 - t0, 1, metrics["window"]["f1"], metrics["summary"]["f1"], output)


class BenchDesk:
    """One desk-scale ``vcdf bench characteristics`` grid (4 settings x 4 methods) per op."""

    name = "bench-desk"
    pool_size = 8
    rows = 16

    def __init__(self, seed: int, workdir: Path) -> None:
        self.pool = [derive_seed(seed, f"{self.name}:{i}") for i in range(self.pool_size)]
        self.out = workdir / "bench"

    def op(self, index: int, scope) -> OpResult:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["bench", "characteristics", "--n", "8", "--realizations", "1",
                "--seed", str(self.pool[index % self.pool_size]), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            with scope():
                t0 = time.perf_counter()
                code = cli.main(argv)
                t1 = time.perf_counter()
        if code != 0:
            raise CheckError(f"vcdf bench exited {code}: {err.getvalue().strip()}")
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        check_bench_report(report, self.rows)
        rows = report["rows"]
        wrapped = [row for row in rows if row["method"].startswith("vcdf-")]
        # The grid's bare base-method cells, as timed by vcdf bench itself.
        base_s = sum(row["seconds_mean"] * row["window"]["count"] for row in rows if row not in wrapped)
        for row in rows:
            del row["seconds_mean"]
        datasets = len({row["setting"] for row in rows}) * report["realizations"]
        return OpResult(t1 - t0, base_s, t1 - t0, datasets,
                        sum(row["window"]["f1_mean"] for row in wrapped) / len(wrapped),
                        sum(row["summary"]["f1_mean"] for row in wrapped) / len(wrapped),
                        json.dumps(report, sort_keys=True).encode())


WORKLOADS = {w.name: w for w in (VarlingamN15, LagregCli, BenchDesk)}
