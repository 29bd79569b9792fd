"""Smoke test of the before-and-after tooling in ``tools/``: its probes patch
``numkit`` names, so a change there must not break them silently."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_reduced_step.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_reduced_step", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("probe, keys", [("FACTOR_PROBE", {"state_dim", "step_factors"}),
                                         ("NONLINEAR_PROBE", {"solves", "lu", "H_end"})])
def test_probe_runs_on_this_checkout(bench, tmp_path, probe, keys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(dict(bench.SCENARIO, mesh_n=3, steps=10)))
    result = bench.run_child(bench.HERE, ["-c", getattr(bench, probe), str(config)])
    assert result["exit"] == 0, result.get("error")
    assert keys <= set(result)
    if probe == "FACTOR_PROBE":
        assert result["step_factors"] and all(f["nnz_LU"] > 0 for f in result["step_factors"])
    else:
        assert result["solves"] > 0 and result["lu"] >= 1
