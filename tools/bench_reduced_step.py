"""Before and after numbers of the reduced (w, p) step, as one JSON file.

    python3 tools/bench_reduced_step.py --parent DIR [--out BENCH_23.json]

DIR is a checkout of the commit before the change (``git archive`` of it
will do); the checkout this script sits in is the change.  Every case runs
in a fresh child process with ``OPENBLAS_NUM_THREADS=1`` and phporo imported
from the checkout's ``src``; wall time is taken around the child and peak RSS
is the child's ``ru_maxrss`` (``os.wait4``).  The cases:

* ``simulate`` of the full formulation at n = 64 and 128, 200 midpoint
  steps on [0, 1], writing its CSV;
* a 20-step ``simulate`` of it at n = 256 under a 5.5 GiB address-space cap
  (``ulimit -v``), so that it cannot exhaust a 7 GB machine;
* the step factor of those systems: the nonzeros of L + U of every
  non-symmetric ``numkit.lu_factor`` call of a one-step run, and its time;
* a 150-step nonlinear-permeability run at n = 24, with its
  ``Factorization.solve`` and ``lu_factor`` counts.

Scenario: unit materials with alpha = 0.8 and rho = 1, one sin source per
field and an initial pressure of x; the nonlinear run takes
kappa(xi) = (1 + xi^2) / (2 + xi^2) with bounds [0.5, 1].
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CAP_KB = 5767168  # 5.5 GiB

SCENARIO = {
    "formulation": "full",
    "materials": [{"rho": 1.0, "mu": 1.0, "lam": 1.0, "alpha": 0.8, "biot_M": 1.0,
                   "kappa": 1.0, "nu": 1.0}],
    "t_end": 1.0,
    "integrator": "midpoint",
    "source_f": [{"c": 0.4, "ax": 0, "ay": 0, "component": 0, "time": "sin", "omega": 2.0}],
    "source_g": [[{"c": 0.2, "ax": 1, "ay": 0, "time": "sin", "omega": 1.0}]],
    "initial_pressure": [[{"c": 1.0, "ax": 1, "ay": 0}]],
}

# one-step run that reports the step factor: nonzeros of L + U and LU time
FACTOR_PROBE = """
import json, sys, time
from phporo import cli, numkit, timeint
scn = cli.parse_scenario(json.load(open(sys.argv[1])))
ops = cli.build_operators(scn)
system = cli.build_system(scn, ops)
z0, signal = cli.initial_state(scn, ops, system), cli.input_signal(scn, ops, system)
factors, real = [], numkit.lu_factor
def recording(A, **kwargs):
    start = time.perf_counter()
    lu = real(A, **kwargs)
    if not kwargs.get("symmetric"):
        factors.append({"rows": A.shape[0], "nnz_LU": int(lu.L.nnz + lu.U.nnz),
                        "factor_s": round(time.perf_counter() - start, 3)})
    return lu
numkit.lu_factor = recording
timeint.integrate_midpoint(system, z0, signal, cli.time_grid(scn)[:2])
print(json.dumps({"state_dim": system.state_dim, "step_factors": factors}))
"""

# the nonlinear-permeability run, with its solve and LU counts
NONLINEAR_PROBE = """
import json, sys
from phporo import cli, formulations, numkit, timeint
scn = cli.parse_scenario(json.load(open(sys.argv[1])))
ops = cli.build_operators(scn)
system = formulations.build_full_first_order(ops)
counts = {"solves": 0, "lu": 0}
solve, lu = numkit.Factorization.solve, numkit.lu_factor
def counting_solve(self, b):
    counts["solves"] += 1
    return solve(self, b)
def counting_lu(A, **kwargs):
    counts["lu"] += 0 if kwargs.get("symmetric") else 1
    return lu(A, **kwargs)
numkit.Factorization.solve, numkit.lu_factor = counting_solve, counting_lu
traj = timeint.integrate_nonlinear_kappa(
    ops, lambda xi: (1.0 + xi * xi) / (2.0 + xi * xi), cli.initial_state(scn, ops, system),
    cli.input_signal(scn, ops, system), cli.time_grid(scn), bounds=(0.5, 1.0))
print(json.dumps(dict(counts, H_end=float(traj.hamiltonian[-1]))))
"""


def run_child(checkout: Path, argv: list[str], cap_kb: int | None = None) -> dict:
    """Run argv (a python command line) in a fresh process on the checkout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(checkout / "src"))
    command = [sys.executable, *argv]
    if cap_kb is not None:
        command = ["bash", "-c", f'ulimit -v {cap_kb}; exec "$@"', "capped", *command]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=env, stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().strip(), err.read().strip()
    result = {"exit": proc.returncode, "wall_s": round(wall, 3),
              "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
    if proc.returncode != 0:
        result["error"] = stderr.splitlines()[-1] if stderr else ""
    elif stdout:
        result.update(json.loads(stdout))  # the report of the command or the probe
        result.pop("out", None)
    return result


def measure(checkout: Path, work: Path) -> dict:
    cases = {}

    def scenario(n: int, steps: int) -> str:
        path = work / f"scenario_{n}_{steps}.json"
        path.write_text(json.dumps(dict(SCENARIO, mesh_n=n, steps=steps)))
        return str(path)

    for n, steps, cap in ((64, 200, None), (128, 200, None), (256, 20, CAP_KB)):
        config = scenario(n, steps)
        csv = str(work / f"traj_{n}.csv")
        cases[f"simulate_n{n}_{steps}steps"] = run_child(
            checkout, ["-m", "phporo.cli", "simulate", "--config", config, "--out", csv], cap)
        if os.path.exists(csv):
            os.remove(csv)
        cases[f"step_factor_n{n}"] = run_child(
            checkout, ["-c", FACTOR_PROBE, config], cap)
    cases["nonlinear_n24_150steps"] = run_child(
        checkout, ["-c", NONLINEAR_PROBE, scenario(24, 150)])
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--out", default=str(HERE / "BENCH_23.json"))
    args = parser.parse_args(argv)
    report = {
        "what": __doc__.split("\n\n", 2)[2].strip(),
        "machine": f"{os.cpu_count()} vCPU {platform.machine()}, Python "
                   f"{platform.python_version()}, OPENBLAS_NUM_THREADS=1",
        "scenario": SCENARIO,
    }
    with tempfile.TemporaryDirectory() as work:
        for side, checkout in (("parent", args.parent.resolve()), ("change", HERE)):
            report[side] = measure(checkout, Path(work))
            print(side, json.dumps(report[side]), flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
