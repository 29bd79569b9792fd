"""Smoke tests of the tooling in ``tools/``: the before-and-after probes patch
``numkit`` and ``dae_analysis`` names and the mesh-sequence table reads the
ellipticity report, so a change there must not break them silently."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "bench_reduced_step.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_reduced_step", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("probe, keys", [("FACTOR_PROBE", {"state_dim", "step_factors"}),
                                         ("NONLINEAR_PROBE", {"solves", "lu", "H_end"}),
                                         ("CHECK_PROBE", {"state_dim", "lu_rows", "index"})])
def test_probe_runs_on_this_checkout(bench, tmp_path, probe, keys):
    config = tmp_path / "scenario.json"
    scenario = (bench.check_scenario(3, 2) if probe == "CHECK_PROBE"
                else dict(bench.SCENARIO, mesh_n=3, steps=10))
    config.write_text(json.dumps(scenario))
    result = bench.run_child(bench.HERE, ["-c", getattr(bench, probe), str(config)])
    assert result["exit"] == 0, result.get("error")
    assert keys <= set(result)
    if probe == "FACTOR_PROBE":
        assert result["step_factors"] and all(f["nnz_LU"] > 0 for f in result["step_factors"])
    elif probe == "CHECK_PROBE":
        # quasi_static is decided without factoring its pencil
        assert result["check_exit"] == 0 and result["index"] == "at_least_2"
        assert result["lu_rows"] and result["state_dim"] not in result["lu_rows"]
    else:
        assert result["solves"] > 0 and result["lu"] >= 1


def test_mesh_sequence_writes_its_table(tmp_path):
    out = tmp_path / "table.json"
    subprocess.run([sys.executable, str(TOOLS / "mesh_sequence.py"), "--sizes", "2", "4",
                    "--out", str(out)], check=True, capture_output=True)
    rows = json.loads(out.read_text())["rows"]
    assert [row["n"] for row in rows] == [2, 4]
    for row in rows:
        assert row["c_gap"] > 0.0 and row["elliptic"] and row["bound_satisfied"]
        assert row["c_gap"] == pytest.approx(row["embed_sq_gap"], rel=1e-8)
        assert row["peak_rss_mb"] > 0.0
    assert rows[0]["ratio"] is None and rows[1]["ratio"] > 1.0
