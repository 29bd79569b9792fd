"""Correctness gates: the seed-independent invariants each operation must meet.

``check(op, outcome)`` returns None when the operation's output meets the
expectations the scenario generator attached to it, and a one-line reason
otherwise.  No gate compares against a stored golden value: the checks are
the paper's own claims (structure verdicts, index labels, power balance,
monotone energy without input, formulation and interconnection equivalence)
plus an exact export round trip.
"""

from __future__ import annotations

import json
import os

import numpy as np

from phporo import cli, phdae

CSV_LEDGER = ["time", "H", "dissipated_cum", "supplied_cum"]


def check(op: dict, outcome: dict) -> str | None:
    expect = op["expect"]
    error = outcome.get("error")
    if "raises" in expect:
        if error is None:
            return f"expected {expect['raises']}, nothing was raised"
        if type(error).__name__ != expect["raises"]:
            return f"expected {expect['raises']}, got {type(error).__name__}: {error}"
        return None
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    if op["kind"] == "nonlinear":
        return _check_nonlinear(op, outcome["traj"])
    if outcome["code"] != expect["exit"]:
        return f"exit code {outcome['code']}, expected {expect['exit']}: {outcome['stderr'][-200:]}"
    report = json.loads(outcome["stdout"]) if outcome["stdout"] else None
    if report is None:
        return f"no report printed: {outcome['stderr'][-200:]}"
    return _KIND_CHECKS[op["kind"]](op, report, outcome)


def _check_check(op, report, outcome):
    expect = op["expect"]
    if expect["exit"] == 0 and not (report["pass"] and report["structure"]["verdict"]):
        return "structure check did not pass"
    if "index" in expect and report["index"]["index"] != expect["index"]:
        return f"index {report['index']['index']}, expected {expect['index']}"
    if expect.get("bound_satisfied"):
        ell = report["ellipticity"]
        if not (ell["elliptic"] and ell["bound_satisfied"]):
            return f"exchange rates not certified elliptic: {ell}"
    if expect.get("elliptic") is False:
        if report["ellipticity"]["elliptic"] or report["pass"]:
            return "oversized exchange rates were accepted"
    return None


def _check_compare(op, report, outcome):
    for key in ("max_matrix_deviation", "max_pressure_deviation"):
        if key in op["expect"]:
            value = report.get(key)
            if value is None or not value <= op["expect"][key]:
                return f"{key} {value} exceeds {op['expect'][key]}"
    return None


def _read_ledger(path) -> np.ndarray:
    """Columns time, H, dissipated_cum, supplied_cum of a trajectory CSV."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",", 4)[:4]
        rows = [line.split(",", 4)[:4] for line in fh]
    if header != CSV_LEDGER:
        raise ValueError(f"unexpected CSV header {header}")
    return np.array(rows, dtype=float)


def _energy_checks(op, H, residuals) -> str | None:
    expect = op["expect"]
    if len(H) != op["steps"] + 1 or not np.all(np.isfinite(H)):
        return f"{len(H)} finite energy values, expected {op['steps'] + 1}"
    scale = np.maximum(1.0, np.abs(H[:-1]))
    if "balance_rtol" in expect:
        worst = float(np.max(residuals / scale))
        if not worst <= expect["balance_rtol"]:
            return f"power balance residual {worst:.3e} exceeds {expect['balance_rtol']:.0e}"
    if "monotone_rtol" in expect:
        rise = float(np.max((H[1:] - H[:-1]) / scale))
        if rise > expect["monotone_rtol"]:
            return f"energy rose by {rise:.3e} without input"
    return None


def _check_simulate(op, report, outcome):
    ledger = _read_ledger(outcome["out"])
    H = ledger[:, 1]
    residuals = np.abs(np.diff(H) + np.diff(ledger[:, 2]) - np.diff(ledger[:, 3]))
    reason = _energy_checks(op, H, residuals)
    if reason:
        return reason
    if "balance_rtol" in op["expect"]:
        bound = op["expect"]["balance_rtol"] * max(1.0, float(np.max(np.abs(H))))
        if not report["max_power_balance_residual"] <= bound:
            return f"reported balance residual {report['max_power_balance_residual']:.3e}"
    if "monotone_rtol" in op["expect"] and report["hamiltonian_monotone"] is not True:
        return "the run does not report a monotone energy"
    return None


def _check_nonlinear(op, traj):
    return _energy_checks(op, traj.hamiltonian, traj.balance_residuals())


def _check_export(op, report, outcome):
    """The exported system reloads to exactly the matrices the builder makes."""
    out = outcome["out"]
    if not report["pass"]:
        return "exported system failed its structure check"
    with open(outcome["config"]) as fh:
        scn = cli.parse_scenario(json.load(fh))
    built = cli.build_system(scn, cli.build_operators(scn))
    loaded = phdae.load_phdae(out)
    for name in ("E", "J", "R", "G"):
        if not np.array_equal(getattr(loaded, name), getattr(built, name)):
            return f"{name} differs after the round trip"
    if (loaded.state_blocks, loaded.input_blocks) != (built.state_blocks, built.input_blocks):
        return "block labels differ after the round trip"
    with open(os.path.join(out, "scenario_manifest.json")) as fh:
        manifest = json.load(fh)
    missing = [b for b in manifest["operator_blocks"]
               if not os.path.isfile(os.path.join(out, f"{b}.mtx"))]
    if missing or manifest["state_dim"] != built.state_dim:
        return f"export manifest is inconsistent (missing {missing})"
    return None


_KIND_CHECKS = {
    "check": _check_check,
    "compare": _check_compare,
    "simulate": _check_simulate,
    "export": _check_export,
}
