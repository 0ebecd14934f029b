"""Tests of the benchmark itself.

A tiny run of each workload, untraced and traced, must print every metric
that BENCHMARK.json names, with its unit, and judge its output correct; the
tracer must put back every function it wraps.  Run with

    python3 -m pytest perfbench
"""

import importlib
import inspect
import json
import sys

import pytest

import checkout

checkout.prepare()

import numpy as np  # noqa: E402

import oracle_sample  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "sweep-main": dict(instance_count=3),
    "sweep-mixed": dict(instance_count=2),
    "hunt-open": dict(samples=6, refine_steps=2),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.SPECS, name, workloads.scaled(workloads.SPECS[name], **sizes))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACE_PAIRS", 1)
    monkeypatch.setattr(oracle_sample, "SWEEP_PASSES", 1)
    monkeypatch.setattr(oracle_sample, "HUNT_POINTS", 3)
    monkeypatch.setattr(checkout, "WORKDIR", tmp_path)


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def gmineq_functions():
    """Every function reachable as an attribute of a gmineq module, plus eigh."""
    found = {("numpy.linalg", "eigh"): np.linalg.eigh}
    for name, mod in list(sys.modules.items()):
        if name == "gmineq" or name.startswith("gmineq."):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    found[(name, attr)] = obj
    return found


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.SPECS)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    section = "per_layer" if trace else "end_to_end"
    lines, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.split()[1:2] == [name] and line.endswith(unit) for line in lines)
    if trace:
        assert result["metrics"]["linalg.eigh_calls"]["value"] > 0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_traced_counts_repeat_exactly(tiny, capsys):
    runs = [_run(capsys, "hunt-open", 1)[1]["metrics"] for _ in range(2)]
    for key in ("linalg.eigh_calls", "linalg.eigh_matrices", "linalg.eigh_per_point"):
        assert runs[0][key]["value"] == runs[1][key]["value"]


def test_tracer_restores_every_wrapped_function():
    importlib.import_module("gmineq.cli")
    before = gmineq_functions()
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            wrapped = {key for key, fn in gmineq_functions().items() if fn is not before[key]}
            raise RuntimeError("leave the block early")
    assert ("gmineq.linalg", "hermitian_eig") in wrapped
    assert ("gmineq.chains", "hermitian_eig") in wrapped      # imported by name
    assert ("numpy.linalg", "eigh") in wrapped
    assert ("gmineq.reports", "dumps") not in wrapped         # recursive: left alone
    assert ("gmineq.cli", "main") not in wrapped              # not a layer
    assert tr.totals() == {}
    assert gmineq_functions() == before


def test_tracer_counts_stacked_eigh_per_matrix():
    with tracer.Tracer() as tr:
        np.linalg.eigh(np.stack([np.eye(2)] * 3))
        importlib.import_module("gmineq.linalg").hermitian_eig(np.eye(2))
    totals = tr.totals()
    assert totals["linalg.eigh_calls"] == 2
    assert totals["linalg.eigh_matrices"] == 4
    assert totals["linalg.calls"] == 1
