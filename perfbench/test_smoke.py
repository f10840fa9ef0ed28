"""Smoke tests of the benchmark harness.

A plain ``python -m pytest`` at the repository root collects this file, so it
never runs a full workload: each workload makes one call at its smallest size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
SPEC = json.loads(BENCHMARK.read_text())


@pytest.fixture(scope="module", autouse=True)
def program():
    run.load_program()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    result, info = run.measure(workload, seed=1, seconds=0, trace=bool(trace),
                               size="smallest", setup_repeats=1)
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert len(info["result_digest"]) == 64


def test_trace_fails_loudly_when_a_site_is_gone(monkeypatch):
    import layers
    from nodalfields import estimators

    monkeypatch.delattr(estimators, "count_components_plane")
    with pytest.raises(layers.TraceBroken, match="count_components_plane"):
        with layers.Tracer().installed():
            pass


def test_trace_fails_loudly_when_a_site_is_not_reached():
    import layers

    with pytest.raises(layers.TraceBroken, match="estimators.sample"):
        layers.Tracer().require(["estimators.sample"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plane_cns",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
