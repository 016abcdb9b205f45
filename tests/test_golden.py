"""Golden outputs: the CLI's files for one fixed small suite, byte for byte.

The files under tests/golden/ are the output of

    vcdf generate --setting linear --n 5 --T 300 --realizations 1 --seed 0 --out generate/
    (cd generate && vcdf discover series_000.csv --method M [--vcdf] --truth truth_000.json --out ...)
    vcdf bench characteristics --n 5 --realizations 1 --out ...

for M in {varlingam, lagreg}, with the timing lines (`seconds` in meta.json,
`seconds_mean` in report.json) cut out. A refactor that claims to change no
output must leave every one of these tests passing with no golden byte edited.
The bench table golden is rendered from the golden report with fixed stand-in
timings, so its paired delta and time-ratio columns are pinned too.
``orders.json`` holds the DirectLiNGAM causal orders of `lingam_orders` below,
so a change to the ordering code must reproduce every order exactly; ``b0.json``
holds the sha256 of the instantaneous coefficients of the same cells
(`lingam_b0_digests`), so it must reproduce every b0 bit for bit too.
``simulate.json`` holds the sha256 of the simulated values of `simulate_digests`
below, so a change to the simulator must reproduce every setting bit for bit.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from vcdf import SETTINGS, benchmark_suite, direct_lingam_order, fit_var, random_scm, simulate
from vcdf.cli import main, render_bench_table

GOLDEN = Path(__file__).parent / "golden"
_TIMING_LINE = re.compile(rb'^ *"seconds(?:_mean)?": [^\n]*\n', re.M)


def untimed(data: bytes) -> bytes:
    return _TIMING_LINE.sub(b"", data)


def run(*argv):
    return main([str(a) for a in argv])


def test_generate_matches_golden(tmp_path):
    out = tmp_path / "generate"
    assert run("generate", "--setting", "linear", "--n", "5", "--T", "300",
               "--realizations", "1", "--seed", "0", "--out", out) == 0
    expected = GOLDEN / "generate"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("label", ["varlingam", "vcdf-varlingam", "lagreg", "vcdf-lagreg"])
def test_discover_matches_golden(label, tmp_path, monkeypatch):
    # Run from the golden data directory, so meta.json records a relative input path.
    monkeypatch.chdir(GOLDEN / "generate")
    out = tmp_path / "run"
    method = label.removeprefix("vcdf-")
    argv = ["discover", "series_000.csv", "--method", method, "--truth", "truth_000.json", "--out", out]
    if label != method:
        argv.append("--vcdf")
    assert run(*argv) == 0
    expected = GOLDEN / "discover" / label
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert untimed((out / path.name).read_bytes()) == path.read_bytes(), path.name


def test_bench_report_matches_golden(tmp_path):
    out = tmp_path / "bench"
    assert run("bench", "characteristics", "--n", "5", "--realizations", "1", "--out", out) == 0
    golden = GOLDEN / "bench" / "characteristics.report.json"
    assert untimed((out / "report.json").read_bytes()) == golden.read_bytes()


def stand_in_timed(report: dict) -> dict:
    for i, row in enumerate(report["rows"]):
        row["seconds_mean"] = 0.01 * (i + 1)
    return report


def test_bench_table_matches_golden():
    report = json.loads((GOLDEN / "bench" / "characteristics.report.json").read_text(encoding="utf-8"))
    table = render_bench_table(stand_in_timed(report))
    assert table == (GOLDEN / "bench" / "characteristics.table.txt").read_text(encoding="utf-8")


ORDER_SHAPES = ((8, 1000), (15, 1000), (15, 250))


def lingam_orders() -> dict:
    """``direct_lingam_order`` orders on the VAR(3) residuals of a fixed suite, keyed by cell."""
    orders = {}
    for setting in SETTINGS:
        for n, T in ORDER_SHAPES:
            suite = benchmark_suite(setting, n, T, 2, 0)
            orders[f"{setting} n={n} T={T}"] = [
                direct_lingam_order(fit_var(ds.series, 3).residuals)[0] for ds in suite
            ]
    return orders


def test_direct_lingam_orders_match_golden():
    golden = json.loads((GOLDEN / "orders.json").read_text(encoding="utf-8"))
    assert lingam_orders() == golden


def lingam_b0_digests() -> dict:
    """sha256 of the ``direct_lingam_order`` b0 bytes of each `lingam_orders` cell."""
    digests = {}
    for setting in SETTINGS:
        for n, T in ORDER_SHAPES:
            suite = benchmark_suite(setting, n, T, 2, 0)
            digests[f"{setting} n={n} T={T}"] = [
                hashlib.sha256(direct_lingam_order(fit_var(ds.series, 3).residuals)[1].tobytes()).hexdigest()
                for ds in suite
            ]
    return digests


def test_direct_lingam_b0_matches_golden():
    golden = json.loads((GOLDEN / "b0.json").read_text(encoding="utf-8"))
    assert lingam_b0_digests() == golden


SIMULATE_SHAPES = ((5, 300), (8, 1000), (15, 4000))


def simulate_digests() -> dict:
    """sha256 of ``simulate(random_scm(n, 3, 0.15, setting, seed), T)`` values, keyed by case.

    Seeds 0 and 1 at the default burn-in, plus one run with no burn-in, whose
    first rows are the steps where some lag terms reach before t = 0.
    """
    cases = {}
    for setting in SETTINGS:
        for n, T in SIMULATE_SHAPES:
            for seed in (0, 1):
                cases[f"{setting} n={n} T={T} seed={seed}"] = simulate(random_scm(n, 3, 0.15, setting, seed), T)
        cases[f"{setting} n=5 T=300 seed=0 burn_in=0"] = simulate(random_scm(5, 3, 0.15, setting, 0), 300, 0)
    return {key: hashlib.sha256(ds.series.values.tobytes()).hexdigest() for key, ds in cases.items()}


def test_simulate_matches_golden():
    golden = json.loads((GOLDEN / "simulate.json").read_text(encoding="utf-8"))
    assert simulate_digests() == golden
