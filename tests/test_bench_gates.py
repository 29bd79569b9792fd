"""The benchmark's correctness gates on every workload, at tiny size.

The benchmark (``bench/``) runs outside the test suite; this test imports
its scenario generator and worker unchanged and runs one round of the
``analyze``, ``march`` and ``nonlinear`` workloads at the smallest size, so
a change that breaks one of the invariants the benchmark gates on (index
labels, power balance, monotone energy, formulation and coupled-route
agreement, export round trip, expected failures) fails here too.
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import scenarios  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", ["analyze", "march", "nonlinear"])
def test_tiny_workload_passes_every_gate(tmp_path, workload):
    scenarios.generate(workload, 11, tmp_path, tiny=True)
    start = perf_counter()
    record = worker.Workload(tmp_path).round()
    assert record["failures"] == []
    assert perf_counter() - start < 10.0
