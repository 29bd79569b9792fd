"""The exchange-rate lemma's constants on a sequence of meshes.

For m = 2 networks with kappa = nu = 1 the flow blocks are the Laplacian L,
so ``check_network_ellipticity`` measures c_h = lambda_h / (1 + lambda_h)
and C^2_h = 1 / (1 + lambda_h), lambda_h the lowest eigenvalue of
L x = lambda M x on the P1 space with zero boundary values.  On the unit
square lambda = 2 pi^2, so c = lambda / (1 + lambda) and
C^2 = 1 / (1 + lambda).  Galerkin eigenvalues lie above the exact one and
approach it at O(h^2): c_h - c = C^2 - C^2_h > 0 falls by about four per
halving of h, and the sufficient bound c_h / (2 m C^2_h) = lambda_h / 4
approaches pi^2 / 2.
"""

import numpy as np
import pytest

from phporo import fem, formulations

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
