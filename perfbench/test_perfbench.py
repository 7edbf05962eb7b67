"""Self-tests for the benchmark: every workload at a tiny size in both modes,
and proof that a wrong library result counts as failed items, not a crash.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import reference  # noqa: E402
from qibg import bigcell, decompose  # noqa: E402
from workloads import HELD_OUT_SEED, POOLS, WORKLOADS, pool_keys  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(seconds=0.0, min_calls=2, traced_calls=1)


def _units(section) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(name):
    result = bench.run_workload(name, 5, trace=False, **TINY)
    assert result.failed == 0 and result.attempted > 0
    assert {k: unit for k, (_, unit) in result.metrics.items()} == _units("end_to_end")
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(name):
    result = bench.run_workload(name, 5, trace=True, **TINY)
    assert result.failed == 0
    assert {k: unit for k, (_, unit) in result.metrics.items()} == _units("per_layer")
    metrics = {k: value for k, (value, _) in result.metrics.items()}
    assert metrics["decompose.reannihilations"] == 0
    assert 0 < metrics["trace.attributed_share"] <= 1


def test_traced_run_restores_the_library():
    before = (decompose.multiply, bigcell.ul_factorize)
    bench.run_workload("bigcell_scan", 5, trace=True, **TINY)
    assert (decompose.multiply, bigcell.ul_factorize) == before


def test_same_seed_same_inputs():
    calls = [bench.setup_workload("bigcell_scan", s)[0].calls for s in (3, 3, 4)]
    assert calls[0] == calls[1] != calls[2]


def test_rescaling_cancels_a_uniform_slowdown():
    """A call that takes twice as long while the kernel does too reads the same."""
    fast, slow = [reference.NOMINAL_S] * 6, [2 * reference.NOMINAL_S] * 6
    assert 0.3 * reference.scale(fast) == pytest.approx(0.6 * reference.scale(slow))
    assert reference.scale(fast) == pytest.approx(1)


def test_rescaling_uses_the_samples_around_a_call():
    samples = list(range(10))
    assert reference.around(samples, 0) == [0, 1, 2]
    assert reference.around(samples, 5) == [2, 3, 4, 5, 6, 7]
    assert reference.around(samples, 10) == [7, 8, 9]


def test_held_out_seed_visits_only_the_held_out_block():
    for pool, (main, held_out) in POOLS.items():
        assert sorted(pool_keys(pool, HELD_OUT_SEED)) == list(range(main, main + held_out))
        assert sorted(pool_keys(pool, 1)) == list(range(main))


def _miscounting_verify(real):
    def fake(matrix, fac):
        report = real(matrix, fac)
        return replace(report, factor_count=report.factor_count + 1)
    return fake


def _rejecting_verify(real):
    def fake(matrix, fac):
        return replace(real(matrix, fac), product_ok=False)
    return fake


@pytest.mark.parametrize("fake", [_miscounting_verify, _rejecting_verify])
@pytest.mark.parametrize("name", ["column_campaign", "clockwise_campaign"])
def test_wrong_verify_result_fails_items(monkeypatch, name, fake):
    monkeypatch.setattr(decompose, "verify", fake(decompose.verify))
    result = bench.run_workload(name, 5, trace=False, **TINY)
    assert result.failed > 0
    assert result.metrics["pass_ratio"][0] < 1


def _wrong_ul(real):
    def fake(g):
        fac = real(g)
        u = [list(row) for row in fac.u_plus]
        u[0][-1] += 1
        return replace(fac, u_plus=tuple(tuple(row) for row in u))
    return fake


@pytest.mark.parametrize("name", ["bigcell_scan", "clockwise_campaign"])
def test_wrong_ul_factor_fails_items(monkeypatch, name):
    monkeypatch.setattr(bigcell, "ul_factorize", _wrong_ul(bigcell.ul_factorize))
    monkeypatch.setattr(decompose, "ul_factorize", _wrong_ul(decompose.ul_factorize))
    result = bench.run_workload(name, 5, trace=False, **TINY)
    assert result.failed > 0
    assert result.metrics["pass_ratio"][0] < 1


def test_exits_nonzero_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "column_campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
