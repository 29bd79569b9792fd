"""The step on the rows outside a kinematic block against the whole step.

``formulations._first_order_system`` records on the full, quasi_static and
network systems that their u rows read K_A u' = K_A w (``PhDae.kinematic``),
and ``timeint`` then factors and solves only the (w, p) rows of a step and
rebuilds u+ = u + b w + a w+.  ``oracle.stepwise_theta_run(full_lu=True)``
steps with the LU of the whole step matrix, as the stepper did before the
reduction: the two agree to 1e-12 relative on u, p and the ledger, and on
the velocity of the index-0 full system; on the index-2 velocity of
quasi_static and network to 1e-8.
"""

import numpy as np
import pytest
from scipy.sparse import csr_array

from phporo import fem, formulations, numkit, phdae, timeint

import oracle
from conftest import consistent_state, linear_data, make_ops
from test_block_ledger import scenario_run
from test_sparse_stepping import BUILT, built_and_reference, relative_gap

RECORDED = ("full", "quasi_static", "quasi_static_network", "network")


def kept_size(sys):
    """The size of the step matrix a system with a kinematic u block factors."""
    u = sys.state_slice("u")
    return sys.state_dim - (u.stop - u.start)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("case", BUILT)
def test_only_the_direct_first_order_builders_record_a_kinematic_block(case, n, tmp_path):
    sys, _ = built_and_reference(case, n)
    if case not in RECORDED:
        assert sys.kinematic is None
        return
    assert sys.kinematic == ("u", "w")
    u, w = sys.state_slice("u"), sys.state_slice("w")
    E, J, R, G = (M.toarray() for M in sys.csr)
    # the u rows read E_uu u' = E_uu w: E_uu at u in E, at w in J, nothing else
    expected_E, expected_J = np.zeros_like(E[u]), np.zeros_like(J[u])
    expected_E[:, u] = expected_J[:, w] = E[u, u]
    assert np.any(E[u, u])
    assert np.array_equal(E[u], expected_E)
    assert np.array_equal(J[u], expected_J)
    assert not R[u].any() and not G[u].any()
    # a system read back from files carries no record
    phdae.save_phdae(sys, tmp_path)
    assert phdae.load_phdae(tmp_path).kinematic is None


def assert_reduced_agrees(sys, traj, ref, loose=()):
    """u and p (and every block not in ``loose``), H and the ledger to 1e-12
    relative, the blocks in ``loose`` to 1e-8."""
    states, H, diss, supp = ref
    for label, _ in sys.state_blocks:
        block = sys.state_slice(label)
        limit = 1e-8 if label in loose else 1e-12
        assert relative_gap(traj.states[:, block], states[:, block]) <= limit, label
    for got, want in ((traj.hamiltonian, H), (traj.dissipated, diss), (traj.supplied, supp)):
        assert relative_gap(got, want) <= 1e-12


@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
@pytest.mark.parametrize("case, loose", [("full", ()), ("quasi_static", ("w",)),
                                         ("network", ("w",))])
def test_reduced_step_agrees_with_the_whole_step_lu(case, loose, theta):
    system, signal, z0, grid = scenario_run(case, steps=200, t_end=2.0)
    assert system.kinematic is not None
    traj = timeint._theta_run(system, z0, signal, grid, theta)
    ref = oracle.stepwise_theta_run(system, z0, signal, grid, theta, full_lu=True)
    assert not np.array_equal(traj.states, ref[0])  # two step paths
    assert_reduced_agrees(system, traj, ref, loose)


def nonlinear_run(n, steps):
    """(system, z0, input, grid, frozen_R) of a nonlinear-permeability run,
    frozen_R giving R as a CSR of the whole state made from the dense block."""
    ops = make_ops(n)
    v, f, fdot, g = linear_data(ops, seed=14)
    z0 = consistent_state(ops, np.random.default_rng(15).uniform(-0.5, 0.5, ops.dim_p),
                          f, fdot, g)
    base = formulations.build_full_first_order(ops)
    u, p = base.state_slice("u"), base.state_slice("p")
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731

    def frozen_R(z):
        R = np.zeros(base.csr.R.shape)
        R[p, p] = fem.assemble_nonlinear_permeability(
            ops.qspace, ops.vspace, z[u], kappa, ops.materials[0].nu).toarray()
        return csr_array(R)

    return base, z0, v, np.linspace(0.0, 0.05 * steps, steps + 1), frozen_R


def test_reduced_nonlinear_run_agrees_with_the_whole_step_lu():
    base, z0, v, grid, frozen_R = nonlinear_run(4, 40)
    traj = timeint._theta_run(base, z0, v, grid, 0.5, frozen_R)
    ref = oracle.stepwise_theta_run(base, z0, v, grid, 0.5, frozen_R, full_lu=True)
    assert_reduced_agrees(base, traj, ref)
    scale = np.maximum(1.0, np.abs(traj.hamiltonian[:-1]))
    assert np.all(traj.balance_residuals() <= 1e-10 * scale)


def test_reduced_refinement_takes_no_more_solves_than_the_whole_step(monkeypatch):
    # refinement accepts a reduced step by the backward error of the whole
    # step; judged by the reduced system alone, this run took 196 solves
    base, z0, v, grid, frozen_R = nonlinear_run(4, 20)
    phdae.certificate(base, "E")  # the start check's, made once per system
    solves = []
    real = numkit.Factorization.solve

    def counting(self, b):
        solves.append(self.size)
        return real(self, b)

    monkeypatch.setattr(numkit.Factorization, "solve", counting)
    oracle.stepwise_theta_run(base, z0, v, grid, 0.5, frozen_R, full_lu=True)
    whole = len(solves)
    assert set(solves) == {base.state_dim}
    solves.clear()
    timeint._theta_run(base, z0, v, grid, 0.5, frozen_R)
    assert set(solves) == {kept_size(base)}
    assert len(grid) - 1 < len(solves) <= whole


def test_no_step_of_a_recorded_system_factors_the_whole_step_matrix(monkeypatch):
    shapes = []
    real = numkit.lu_factor

    def recording(A, **kwargs):
        # the LDL^T of a definiteness certificate factors no step matrix
        if not kwargs.get("symmetric"):
            shapes.append(A.shape)
        return real(A, **kwargs)

    monkeypatch.setattr(numkit, "lu_factor", recording)
    runs = [(*scenario_run(case), theta, None)
            for case in ("full", "quasi_static", "network") for theta in (0.5, 1.0)]
    base, z0, v, grid, frozen_R = nonlinear_run(3, 10)
    runs.append((base, v, z0, grid, 0.5, frozen_R))
    for system, signal, z, grid, theta, R in runs:
        shapes.clear()
        timeint._theta_run(system, z, signal, grid, theta, R)
        assert shapes and set(shapes) == {(kept_size(system),) * 2}


def test_a_frozen_R_in_the_kinematic_rows_is_refused():
    base, z0, v, grid, _ = nonlinear_run(2, 3)
    u = base.state_slice("u")

    def frozen_R(z):
        R = np.zeros(base.csr.R.shape)
        R[u, u] = np.eye(u.stop - u.start)
        return csr_array(R)

    with pytest.raises(ValueError, match="kinematic block"):
        timeint._theta_run(base, z0, v, grid, 0.5, frozen_R)
