"""The exchange-rate lemma's constants on a sequence of meshes.

For m = 2 networks with kappa = nu = 1 the flow blocks are the Laplacian L,
so ``check_network_ellipticity`` measures c_h = lambda_h / (1 + lambda_h)
and C^2_h = 1 / (1 + lambda_h), lambda_h the lowest eigenvalue of
L x = lambda M x on the P1 space with zero boundary values.  On the unit
square lambda = 2 pi^2, so c = lambda / (1 + lambda) and
C^2 = 1 / (1 + lambda).  Galerkin eigenvalues lie above the exact one and
approach it at O(h^2): c_h - c = C^2 - C^2_h > 0 falls by about four per
halving of h, and the sufficient bound c_h / (2 m C^2_h) = lambda_h / 4
approaches pi^2 / 2.  ``tools/mesh_sequence.py`` extends the table to n = 256.

In time, the implicit midpoint rule is of order 2: on a fixed mesh the final
states of successive step doublings differ by a quarter as much each time.
"""

import numpy as np
import pytest

from phporo import cli, fem, formulations, timeint

from conftest import make_material

LAMBDA = 2.0 * np.pi**2
C = LAMBDA / (1.0 + LAMBDA)
C_SQ = 1.0 / (1.0 + LAMBDA)
SIZES = (8, 16, 32)


@pytest.fixture(scope="module")
def reports():
    coupling = formulations.NetworkCoupling.from_exchange_rates(np.full((2, 2), 0.01))
    materials = [make_material(rho=0.0, kappa=1.0, nu=1.0) for _ in range(2)]
    return [formulations.check_network_ellipticity(
        formulations.assemble_network(fem.build_unit_square_mesh(n), materials, coupling),
        coupling) for n in SIZES]


def test_the_constants_approach_their_closed_forms_from_the_safe_side(reports):
    # measured 1.72e-3, 4.39e-4 and 1.10e-4
    for report in reports:
        gap = report.ellipticity_constant - C
        assert gap > 0.0
        assert gap == pytest.approx(C_SQ - report.embedding_constant_sq, rel=1e-8)
        assert report.elliptic and report.bound_satisfied


def test_the_gap_falls_by_about_four_per_halving(reports):
    # measured 3.91 and 3.98
    gaps = [report.ellipticity_constant - C for report in reports]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_the_sufficient_bound_approaches_half_pi_squared(reports):
    # measured 4.9467 at n = 32
    assert reports[-1].sufficient_bound == pytest.approx(np.pi**2 / 2.0, abs=0.02)
    assert reports[-1].max_offdiag_rate == 0.01


def test_midpoint_is_of_order_two_in_time():
    # measured 4.001, 4.002 and 3.995; from 20 to 40 steps the ratio is still
    # far from 4, so the sequence starts at 40
    material = {"rho": 0.0, "mu": 1.0, "lam": 1.0, "alpha": 0.8, "biot_M": 1.0,
                "kappa": 1.0, "nu": 1.0}
    scn = cli.parse_scenario({
        "mesh_n": 4, "formulation": "quasi_static", "materials": [material], "t_end": 1.0,
        "source_f": [{"c": 0.4, "ax": 0, "ay": 0, "component": 0, "time": "sin",
                      "omega": 2.0}],
        "source_g": [[{"c": 0.2, "ax": 1, "ay": 0, "time": "cos", "omega": 1.0}]],
        "initial_pressure": [[{"c": 1.0, "ax": 1, "ay": 0}]],
    })
    ops = cli.build_operators(scn)
    system = cli.build_system(scn, ops)
    z0, signal = cli.initial_state(scn, ops, system), cli.input_signal(scn, ops, system)
    finals = [timeint.integrate_midpoint(system, z0, signal,
                                         np.linspace(0.0, 1.0, steps + 1)).states[-1]
              for steps in (40, 80, 160, 320, 640)]
    gaps = [np.max(np.abs(fine - coarse)) for coarse, fine in zip(finals, finals[1:])]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 4.5
