"""The sparse theta-method core against a dense reference loop at n <= 4.

The reference is the dense algorithm the core replaced: dense step matrices,
``scipy.linalg.lu_factor`` once per distinct step size (or per step when a
frozen R is supplied) and dense products for the update and the ledger.
"""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from phporo import cli, fem, formulations, timeint

from conftest import consistent_state, linear_data
from test_cli import material_doc, network_doc, scenario_doc


def dense_theta_run(sys, z0, v, t, theta, frozen_R=None):
    """Dense theta method with the midpoint ledger; returns states, H, ledgers."""
    E, J, G = sys.E, sys.J, sys.G
    R = sys.R
    steps = timeint._snapped_steps(t)
    states = [np.asarray(z0, dtype=float)]
    diss, supp, cache = [], [], {}
    for k, h in enumerate(steps.tolist()):
        if frozen_R is not None:
            R = frozen_R(states[-1])
            cache.clear()
        if h not in cache:
            K = J - R
            cache[h] = (lu_factor(E - theta * h * K), E + (1.0 - theta) * h * K)
        lu, explicit = cache[h]
        z = states[-1]
        v_mid = np.asarray(v(t[k] + 0.5 * h), dtype=float)
        v_step = np.asarray(v(t[k] + theta * h), dtype=float)
        z_new = lu_solve(lu, explicit @ z + h * (G @ v_step))
        zm = 0.5 * (z + z_new)
        diss.append(h * float(zm @ R @ zm))
        supp.append(h * float((G.T @ zm) @ v_mid))
        states.append(z_new)
    states = np.array(states)
    H = np.array([0.5 * float(z @ E @ z) for z in states])
    return states, H, np.array(diss), np.array(supp)


def relative_gap(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


def assert_agrees(sys, traj, ref, loose=(), balanced=True):
    """States, H and ledgers to 1e-12 relative; the blocks in ``loose`` to 1e-8.

    ``balanced`` (midpoint runs) also asks for the exact per-step balance.
    """
    states, H, diss, supp = ref
    tight = np.ones(sys.state_dim, dtype=bool)
    for label in loose:
        block = sys.state_slice(label)
        tight[block] = False
        assert relative_gap(traj.states[:, block], states[:, block]) <= 1e-8
    assert relative_gap(traj.states[:, tight], states[:, tight]) <= 1e-12
    assert relative_gap(traj.hamiltonian, H) <= 1e-12
    assert relative_gap(traj.dissipated, diss) <= 1e-12
    assert relative_gap(traj.supplied, supp) <= 1e-12
    if not balanced:
        return
    scale = np.maximum(1.0, np.abs(traj.hamiltonian[:-1]))
    assert np.all(traj.balance_residuals() <= 1e-10 * scale)


# scenario document, state blocks that may drift at 1e-8 (index-2 velocity)
CASES = {
    "full": (lambda: scenario_doc(mesh_n=3), ()),
    "sqrt": (lambda: scenario_doc(mesh_n=3, formulation="sqrt"), ()),
    "quasi_static": (lambda: scenario_doc(mesh_n=3, formulation="quasi_static",
                                          materials=[material_doc(rho=0.0)]), ("w",)),
    "alt_qs": (lambda: scenario_doc(mesh_n=3, formulation="alt_qs",
                                    materials=[material_doc(rho=0.0)]), ()),
    "network": (lambda: network_doc(mesh_n=3), ("w",)),
    "schur_parabolic": (lambda: scenario_doc(mesh_n=4, formulation="schur_parabolic",
                                             materials=[material_doc(rho=0.0)]), ()),
    "full:coupled": (lambda: scenario_doc(mesh_n=3, route="coupled"), ()),
    "alt_qs:coupled": (lambda: scenario_doc(mesh_n=3, route="coupled", formulation="alt_qs",
                                            materials=[material_doc(rho=0.0)]), ()),
    "network:coupled": (lambda: network_doc(mesh_n=3, route="coupled"), ("w",)),
}


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
@pytest.mark.parametrize("case", list(CASES))
def test_sparse_core_matches_dense_reference(case, integrator):
    doc_fn, loose = CASES[case]
    scn = cli.parse_scenario(dict(doc_fn(), integrator=integrator))
    ops = cli.build_operators(scn)
    system, traj = cli._run(scn, ops)
    built = cli.build_system(scn, ops)
    signal = (built.g_tilde if isinstance(built, formulations.ParabolicReduction)
              else cli.input_signal(scn, ops, system))
    theta = 0.5 if integrator == "midpoint" else 1.0
    ref = dense_theta_run(system, cli.initial_state(scn, ops, system), signal,
                          cli.time_grid(scn), theta)
    assert_agrees(system, traj, ref, loose, balanced=theta == 0.5)


def test_nonlinear_kappa_matches_dense_reference(ops3):
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731
    v, f, fdot, g = linear_data(ops3, seed=12)
    p0 = np.random.default_rng(13).uniform(-0.5, 0.5, ops3.dim_p)
    z0 = consistent_state(ops3, p0, f, fdot, g)
    grid = np.linspace(0.0, 1.0, 41)
    traj = timeint.integrate_nonlinear_kappa(ops3, kappa, z0, v, grid, bounds=(0.5, 1.0))

    base = formulations.build_full_first_order(ops3)
    u, p = base.state_slice("u"), base.state_slice("p")

    def frozen_R(z):
        R = base.R.copy()
        R[p, p] = fem.assemble_nonlinear_permeability(
            ops3.qspace, ops3.vspace, z[u], kappa, ops3.materials[0].nu, bounds=(0.5, 1.0))
        return R

    ref = dense_theta_run(base, z0, v, grid, 0.5, frozen_R)
    assert_agrees(base, traj, ref)
    assert not np.allclose(frozen_R(traj.states[-1])[p, p], base.R[p, p])
