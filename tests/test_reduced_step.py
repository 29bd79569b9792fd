"""The step on the rows outside a kinematic block against the whole step.

``timeint._kinematic_block`` finds on the stored matrices the u rows that
read K_A u' = K_A w: on the full, quasi_static and network systems, built
directly, by interconnection or read back from files.  ``timeint`` then
factors and solves only the (w, p) rows of a step and rebuilds
u+ = u + b w + a w+.  ``oracle.stepwise_theta_run(full_lu=True)`` steps with
the LU of the whole step matrix, as the stepper did before the reduction:
the two agree to 1e-12 relative on u, p and the ledger, and on the velocity
of the index-0 full system; on the index-2 velocity of quasi_static and
network to 1e-8.
"""

import numpy as np
import pytest
from scipy.sparse import csr_array

from phporo import dae_analysis, fem, formulations, numkit, phdae, timeint

import oracle
from conftest import consistent_state, linear_data, make_ops
from test_block_ledger import scenario_run
from test_sparse_stepping import BUILT, built_and_reference, relative_gap

FOUND = ("full", "quasi_static", "quasi_static_network", "network", "full:coupled",
         "network:coupled")
NONE = (slice(0, 0), slice(0, 0))


def kept_size(sys):
    """The size of the step matrix a system with a kinematic u block factors."""
    u = sys.state_slice("u")
    return sys.state_dim - (u.stop - u.start)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("case", BUILT)
def test_the_kinematic_block_is_found_on_the_matrices(case, n, tmp_path):
    built, _ = built_and_reference(case, n)
    phdae.save_phdae(built, tmp_path)
    for sys in (built, phdae.load_phdae(tmp_path)):
        if case not in FOUND:
            assert timeint._kinematic_block(sys) == NONE
            continue
        u, w = sys.state_slice("u"), sys.state_slice("w")
        assert timeint._kinematic_block(sys) == (u, w)
        E, J, R, G = (M.toarray() for M in sys.csr)
        # the u rows read E_uu u' = E_uu w: E_uu at u in E, at w in J, nothing else
        expected_E, expected_J = np.zeros_like(E[u]), np.zeros_like(J[u])
        expected_E[:, u] = expected_J[:, w] = E[u, u]
        assert np.any(E[u, u])
        assert np.array_equal(E[u], expected_E)
        assert np.array_equal(J[u], expected_J)
        assert not R[u].any() and not G[u].any()


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
    assert timeint._kinematic_block(system) == (system.state_slice("u"), system.state_slice("w"))
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


def test_no_step_of_a_system_with_a_block_factors_the_whole_step_matrix(monkeypatch):
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


@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
@pytest.mark.parametrize("case", ["full", "network"])
def test_direct_coupled_and_reloaded_systems_step_alike_bitwise(case, theta, tmp_path):
    direct, signal, z0, grid = scenario_run(case, steps=100)
    coupled, coupled_signal, *_ = scenario_run(case, steps=100, route="coupled")
    ref = timeint._theta_run(direct, z0, signal, grid, theta)
    runs = [(coupled, coupled_signal)]
    for name, system, v in (("direct", direct, signal), ("coupled", coupled, coupled_signal)):
        phdae.save_phdae(system, tmp_path / name)
        runs.append((phdae.load_phdae(tmp_path / name), v))
    for system, v in runs:
        traj = timeint._theta_run(system, z0, v, grid, theta)
        for name in ("states", "hamiltonian", "dissipated", "supplied"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


def closed_loop_run():
    """A quasi_static run closed by v_f = -y_f, from a start with w = 0,
    which the closed loop's algebraic w rows then hold."""
    system, signal, z0, grid = scenario_run("quasi_static", steps=100)
    w = system.state_slice("w")
    z0 = z0.copy()
    z0[w] = 0.0
    gain = -np.eye(w.stop - w.start)
    return dae_analysis.regularize_output_feedback(system, gain), signal, z0, grid


def relabelled_run():
    """A full run whose state blocks are named neither u nor w."""
    system, signal, z0, grid = scenario_run("full", steps=100)
    blocks = [(f"block{i}", size) for i, (_, size) in enumerate(system.state_blocks)]
    return (phdae.PhDae(*system.csr, state_blocks=blocks, input_blocks=system.input_blocks),
            signal, z0, grid)


@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
@pytest.mark.parametrize("run", [closed_loop_run, relabelled_run])
def test_closed_loops_and_relabelled_blocks_are_found(run, theta):
    system, signal, z0, grid = run()
    du = system.state_blocks[0][1]
    assert timeint._kinematic_block(system) == (slice(du, 2 * du), slice(0, du))
    traj = timeint._theta_run(system, z0, signal, grid, theta)
    ref = oracle.stepwise_theta_run(system, z0, signal, grid, theta, full_lu=True)
    assert_reduced_agrees(system, traj, ref)


def broken_full_run(change):
    """A full run whose matrices break one condition of a kinematic block in
    the first u row i, built unvalidated."""
    system, signal, z0, grid = scenario_run("full", steps=100)
    E, J, R, G = (M.toarray() for M in system.csr)
    u, w = system.state_slice("u"), system.state_slice("w")
    i = u.start
    j = w.start + np.flatnonzero(J[i, w])[0]
    if change == "J one ulp":
        J[i, j] = np.nextafter(J[i, j], np.inf)
        J[j, i] = -J[i, j]
    elif change == "G entry":
        G[i, 0] = 0.5
    elif change == "R entry":
        R[i, i] = 0.5
    elif change == "E entry off the u block":
        p = system.state_slice("p").start
        E[i, p] = E[p, i] = 1e-3 * E[i, i]
    else:  # E zero row: row i of the pencil is the algebraic constraint (K_A w)_i = 0
        E[i, :] = E[:, i] = 0.0
        z0 = z0.copy()
        z0[w] = 0.0
    broken = phdae.PhDae(E, J, R, G, state_blocks=system.state_blocks,
                         input_blocks=system.input_blocks, validate=False)
    return broken, signal, z0, grid


@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
@pytest.mark.parametrize("change", ["J one ulp", "G entry", "R entry", "E entry off the u block",
                                    "E zero row"])
def test_a_broken_block_is_not_found_and_the_whole_step_is_taken(change, theta):
    system, signal, z0, grid = broken_full_run(change)
    assert timeint._kinematic_block(system) == NONE
    traj = timeint._theta_run(system, z0, signal, grid, theta)
    ref = oracle.stepwise_theta_run(system, z0, signal, grid, theta, full_lu=True)
    assert_reduced_agrees(system, traj, ref)


def test_a_singular_kinematic_block_is_not_found():
    # E_uu loses its row and column i, and J[u, w] and J[w, u] with it: the
    # u rows still read E_uu u' = E_uu w, but E_uu is singular, and so is
    # every step
    system, signal, z0, grid = scenario_run("full", steps=5)
    E, J, R, G = (M.toarray() for M in system.csr)
    u, w = system.state_slice("u"), system.state_slice("w")
    i, j = u.start, w.start
    E[i, :] = E[:, i] = J[i, :] = J[:, i] = J[u, j] = J[j, u] = 0.0
    assert np.array_equal(J[u, w], E[u, u])
    broken = phdae.PhDae(E, J, R, G, state_blocks=system.state_blocks,
                         input_blocks=system.input_blocks)
    assert timeint._kinematic_block(broken) == NONE
    for run in (timeint._theta_run, oracle.stepwise_theta_run):
        with pytest.raises(numkit.SingularMatrixError, match="step 0"):
            run(broken, z0, signal, grid, 0.5)
