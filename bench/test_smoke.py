"""Smoke test of the benchmark: every workload at the smallest size.

    python3 -m pytest bench/test_smoke.py

Checks that each run prints, as its last line, the result object with every
metric BENCHMARK.json names and the unit it gives, that the traced run's
layer self times and glue add up to its wall time, that the generator is a
function of the seed, and that the benchmark refuses to run without the
program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scenarios
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, *args):
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if trace:
        total = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert total + values["glue.self_s"] == pytest.approx(values["trace.wall_s"], abs=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for workload in scenarios.WORKLOADS:
        first, again, other = (tmp_path / f"{workload}-{k}" for k in range(3))
        scenarios.generate(workload, 5, first)
        scenarios.generate(workload, 5, again)
        scenarios.generate(workload, 6, other)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in other.iterdir())
        assert all((first / n).read_bytes() == (again / n).read_bytes() for n in names)
        assert (first / "ops.json").read_bytes() == (other / "ops.json").read_bytes()
        assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
