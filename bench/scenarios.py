"""Seeded scenario generator for the phporo benchmark.

``generate(workload, seed, out_dir)`` writes the scenario files one workload
reads and an ``ops.json`` manifest listing its operations, each with the
seed-independent invariants its output must satisfy.  The seed varies only
coefficients: source terms, initial pressure, material values and exchange
rates (kept below the small-rate bound).  Mesh sizes, step counts and t_end
are fixed per workload, so the amount of work never depends on the seed.

Standalone use writes the files of one workload:

    python3 bench/scenarios.py --workload analyze --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random

WORKLOADS = ("analyze", "march", "nonlinear")

# Work per workload.  The dense code needs ~26 s and ~0.9 GB for one check at
# n = 24, so the meshes stay small enough for many repeated runs.
SIZES = {
    "analyze": {"mesh_n": 12, "steps": 1, "t_end": 1.0},
    "march": {"mesh_n": 8, "steps": 1000, "t_end": 2.0},
    "nonlinear": {"mesh_n": 12, "steps": 150, "t_end": 1.0},
}
# Warm-up and the smoke test run every operation at this size.
TINY = {"mesh_n": 3, "steps": 5}
# The out-of-bounds nonlinear run fails on its first step; it stays short.
NEGATIVE_NONLINEAR_STEPS = 3

# Gate tolerances; each is far above roundoff and far below a real defect.
BALANCE_RTOL = 1e-10       # |H_{k+1}-H_k+diss_k-supp_k| / max(1, |H|), midpoint
MONOTONE_RTOL = 1e-12      # allowed rise of H per step when the input is zero
MATRIX_DEVIATION = 1e-12   # coupled vs direct system matrices (relative)
QS_SCHUR_DEVIATION = 1e-8  # quasi_static vs schur_parabolic pressure


def _material(rng: random.Random, rho: float) -> dict:
    return {
        "rho": rho,
        "mu": rng.uniform(0.5, 2.0),
        "lam": rng.uniform(0.5, 2.0),
        "alpha": rng.uniform(0.3, 1.0),
        "biot_M": rng.uniform(0.5, 2.0),
        "kappa": rng.uniform(0.5, 2.0),
        "nu": rng.uniform(0.5, 2.0),
    }


def _network_materials(rng: random.Random, m: int, rho: float) -> list[dict]:
    # networks share rho, mu, lambda and biot_M; alpha, kappa and nu differ
    head = _material(rng, rho)
    mats = [head]
    for _ in range(m - 1):
        mat = dict(head)
        mat.update(alpha=rng.uniform(0.3, 1.0), kappa=rng.uniform(0.5, 2.0),
                   nu=rng.uniform(0.5, 2.0))
        mats.append(mat)
    return mats


def _exchange(m: int, rates) -> list[list[float]]:
    """Exchange matrix from off-diagonal rates; diagonals balance each row."""
    rates = iter(rates)
    B = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                B[i][j] = next(rates)
        B[i][i] = -sum(B[i])
    return B


def _source_f(rng: random.Random, times=("sin", "cos")) -> list[dict]:
    return [
        {"c": rng.uniform(-1.0, 1.0), "ax": 1, "ay": 0, "component": 0,
         "time": times[0], "omega": rng.uniform(1.0, 3.0)},
        {"c": rng.uniform(-1.0, 1.0), "ax": 0, "ay": 1, "component": 1,
         "time": times[1], "omega": rng.uniform(1.0, 3.0)},
    ]


def _source_g(rng: random.Random, m: int) -> list[list[dict]]:
    return [[{"c": rng.uniform(-1.0, 1.0), "ax": 1, "ay": 1, "time": "sin",
              "omega": rng.uniform(1.0, 3.0)}] for _ in range(m)]


def _initial_pressure(rng: random.Random, m: int) -> list[list[dict]]:
    return [[{"c": rng.uniform(0.5, 1.5), "ax": 1, "ay": 0},
             {"c": rng.uniform(-0.5, 0.5), "ax": 0, "ay": 2}] for _ in range(m)]


def _scenario(size: dict, formulation: str, materials, *, forced: bool, rng,
              exchange=None, route="direct", integrator="midpoint",
              f_times=("sin", "cos")) -> dict:
    m = len(materials)
    return {
        "mesh_n": size["mesh_n"],
        "formulation": formulation,
        "route": route,
        "materials": materials,
        "exchange_matrix": exchange,
        "t_end": size["t_end"],
        "steps": size["steps"],
        "integrator": integrator,
        "seed": 0,
        "source_f": _source_f(rng, f_times) if forced else [],
        "source_g": _source_g(rng, m) if forced else [],
        "initial_pressure": _initial_pressure(rng, m),
    }


def _analyze(rng: random.Random, size: dict):
    rho = rng.uniform(0.5, 2.0)
    full = _scenario(size, "full", [_material(rng, rho)], forced=True, rng=rng)
    qs_mat = [_material(rng, 0.0)]
    net_mats = _network_materials(rng, 2, 0.0)
    network = _scenario(size, "network", net_mats, forced=True, rng=rng,
                        exchange=_exchange(2, [rng.uniform(0.01, 0.1) for _ in range(2)]))
    files = {
        "full.json": full,
        "sqrt.json": _scenario(size, "sqrt", [_material(rng, rho)], forced=True, rng=rng),
        "quasi_static.json": _scenario(size, "quasi_static", qs_mat, forced=True, rng=rng),
        "alt_qs.json": _scenario(size, "alt_qs", [_material(rng, 0.0)], forced=True, rng=rng),
        "network.json": network,
        "schur_parabolic.json": _scenario(size, "schur_parabolic", [_material(rng, 0.0)],
                                          forced=True, rng=rng),
        "full_coupled.json": dict(full, route="coupled"),
        "network_coupled.json": dict(network, route="coupled"),
        # rates far above the small-rate bound: the flow operator is indefinite
        "network_oversized.json": dict(network, exchange_matrix=_exchange(
            2, [rng.uniform(1e5, 1e6) for _ in range(2)])),
        "network_pair.json": {"first": network, "second": dict(network, route="coupled")},
    }
    ops = [
        _op("check_full", "check", "full.json", exit=0, index="0"),
        _op("check_sqrt", "check", "sqrt.json", exit=0, index="0"),
        _op("check_quasi_static", "check", "quasi_static.json", exit=0, index="at_least_2"),
        _op("check_alt_qs", "check", "alt_qs.json", exit=0, index="1"),
        _op("check_network", "check", "network.json", exit=0, index="at_least_2",
            bound_satisfied=True),
        _op("check_schur_parabolic", "check", "schur_parabolic.json", exit=0, index="0"),
        _op("check_full_coupled", "check", "full_coupled.json", exit=0, index="0"),
        _op("check_network_coupled", "check", "network_coupled.json", exit=0,
            index="at_least_2", bound_satisfied=True),
        _op("check_network_oversized", "check", "network_oversized.json", exit=1,
            elliptic=False),
        _op("compare_network_coupled", "compare", "network_pair.json", exit=0,
            max_matrix_deviation=MATRIX_DEVIATION),
        _op("export_full", "export", "full.json", exit=0),
    ]
    return files, ops


def _march(rng: random.Random, size: dict):
    rho = rng.uniform(0.5, 2.0)
    # The pair must pose the same problem, so only the formulation tag differs.
    # Its displacement load is constant in time: with a time-dependent load the
    # midpoint rule on the index-2 form and on the reduced equation differ at
    # O(h^2), and the pair would no longer agree to roundoff.
    qs = _scenario(size, "quasi_static", [_material(rng, 0.0)], forced=True, rng=rng,
                   f_times=("const", "const"))
    schur = dict(qs, formulation="schur_parabolic")
    files = {
        "full_midpoint.json": _scenario(size, "full", [_material(rng, rho)], forced=True,
                                        rng=rng),
        "full_euler.json": _scenario(size, "full", [_material(rng, rho)], forced=False,
                                     rng=rng, integrator="euler"),
        "quasi_static.json": qs,
        "network.json": _scenario(
            size, "network", _network_materials(rng, 2, 0.0), forced=False, rng=rng,
            exchange=_exchange(2, [rng.uniform(0.01, 0.1) for _ in range(2)])),
        "schur_parabolic.json": schur,
        "qs_schur_pair.json": {"first": qs, "second": schur},
    }
    steps = size["steps"]
    ops = [
        _op("simulate_full_midpoint", "simulate", "full_midpoint.json", steps, exit=0,
            balance_rtol=BALANCE_RTOL),
        _op("simulate_full_euler", "simulate", "full_euler.json", steps, exit=0,
            monotone_rtol=MONOTONE_RTOL),
        _op("simulate_quasi_static", "simulate", "quasi_static.json", steps, exit=0,
            balance_rtol=BALANCE_RTOL),
        _op("simulate_network", "simulate", "network.json", steps, exit=0,
            balance_rtol=BALANCE_RTOL, monotone_rtol=MONOTONE_RTOL),
        _op("simulate_schur_parabolic", "simulate", "schur_parabolic.json", steps, exit=0,
            balance_rtol=BALANCE_RTOL),
        _op("compare_qs_schur", "compare", "qs_schur_pair.json", 2 * steps, exit=0,
            max_pressure_deviation=QS_SCHUR_DEVIATION),
    ]
    return files, ops


def _nonlinear(rng: random.Random, size: dict):
    scenario = _scenario(size, "full", [_material(rng, rng.uniform(0.5, 2.0))],
                         forced=True, rng=rng)
    # kappa(xi) = k0 (1 + a xi^2) / (2 + a xi^2) stays in [k0/2, k0)
    law = {"k0": rng.uniform(0.5, 2.0), "a": rng.uniform(0.5, 2.0)}
    k0 = law["k0"]
    files = {
        "nonlinear.json": {"scenario": scenario, "kappa_law": law,
                           "bounds": [0.5 * k0, k0]},
        # declared bounds the law can never meet: the first step must fail
        "nonlinear_out_of_bounds.json": {
            "scenario": dict(scenario, steps=NEGATIVE_NONLINEAR_STEPS),
            "kappa_law": law, "bounds": [k0, 2.0 * k0]},
    }
    ops = [
        _op("nonlinear_full", "nonlinear", "nonlinear.json", size["steps"],
            balance_rtol=BALANCE_RTOL),
        _op("nonlinear_out_of_bounds", "nonlinear", "nonlinear_out_of_bounds.json",
            raises="BoundViolationError"),
    ]
    return files, ops


def _op(name: str, kind: str, config: str, steps: int = 0, **expect) -> dict:
    """One operation; ``steps`` counts the time steps it completes."""
    return {"name": name, "kind": kind, "config": config, "steps": steps,
            "expect": expect}


_BUILDERS = {"analyze": _analyze, "march": _march, "nonlinear": _nonlinear}


def generate(workload: str, seed: int, out_dir, tiny: bool = False) -> list[dict]:
    """Write the workload's scenario files and ops.json into out_dir."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}, want one of {WORKLOADS}")
    size = dict(SIZES[workload])
    if tiny:
        size.update(TINY)
    rng = random.Random(f"{workload}:{seed}")
    files, ops = _BUILDERS[workload](rng, size)
    os.makedirs(out_dir, exist_ok=True)
    for name, doc in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(doc, fh, indent=1)
    with open(os.path.join(out_dir, "ops.json"), "w") as fh:
        json.dump(ops, fh, indent=1)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the scenario files")
    parser.add_argument("--tiny", action="store_true", help="smallest sizes (smoke test)")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, tiny=args.tiny)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
