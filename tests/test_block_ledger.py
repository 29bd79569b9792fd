"""The theta stepper's blocked bookkeeping against one step at a time.

``timeint._theta_run`` samples the input and books the energy ledger once per
block of steps, with one sparse product per block for G v, E z and R zm.
``oracle.stepwise_theta_run`` does all of that per step with one-vector
products; the two must agree bit for bit, at every block size, and the
stepper's loop must do one solve and one sparse mat-vec per step.
"""

import numpy as np
import pytest
from scipy.sparse import csr_array

from phporo import cli, fem, formulations, numkit, timeint

import oracle
from conftest import consistent_state, linear_data, make_ops
from test_cli import material_doc, network_doc, scenario_doc

SCENARIOS = {
    "full": lambda **kw: scenario_doc(mesh_n=3, **kw),
    "quasi_static": lambda **kw: scenario_doc(mesh_n=3, formulation="quasi_static",
                                              materials=[material_doc(rho=0.0)], **kw),
    "network": lambda **kw: network_doc(mesh_n=3, **kw),
    "schur_parabolic": lambda **kw: scenario_doc(mesh_n=3, formulation="schur_parabolic",
                                                 materials=[material_doc(rho=0.0)], **kw),
}


def scenario_run(case, g_tilde=False, **overrides):
    """(system, signal, z0, grid) of a scenario, as ``cli._run`` steps it; a
    Schur reduction's signal is its ``SeparableSignal``, or with ``g_tilde``
    its per-time method."""
    scn = cli.parse_scenario(SCENARIOS[case](**overrides))
    ops = cli.build_operators(scn)
    system = cli.build_system(scn, ops)
    if isinstance(system, formulations.ParabolicReduction):
        signal = system.g_tilde if g_tilde else system.input_signal
        system = system.as_phdae()
    else:
        signal = cli.input_signal(scn, ops, system)
    return system, signal, cli.initial_state(scn, ops, system), cli.time_grid(scn)


def block_of(system):
    return max(1, timeint._BLOCK_VALUES // max(1, system.state_dim + system.input_dim))


def assert_bitwise(traj, ref):
    states, H, diss, supp = ref
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.hamiltonian, H)
    assert np.array_equal(traj.dissipated, diss)
    assert np.array_equal(traj.supplied, supp)


@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
@pytest.mark.parametrize("case, g_tilde", [(case, False) for case in SCENARIOS]
                         + [("schur_parabolic", True)],
                         ids=list(SCENARIOS) + ["schur_parabolic-g_tilde"])
def test_blocked_run_matches_stepwise_oracle_bitwise(case, g_tilde, theta):
    system, signal, z0, _ = scenario_run(case)
    block = block_of(system)
    assert block > 2
    steps = 2 * block + 3  # two whole blocks and a partial one
    system, signal, z0, grid = scenario_run(case, g_tilde, steps=steps, t_end=0.01 * steps)
    traj = timeint._theta_run(system, z0, signal, grid, theta)
    assert_bitwise(traj, oracle.stepwise_theta_run(system, z0, signal, grid, theta))


@pytest.mark.parametrize("block_values", [1, 7 * 128, 10**9])
@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
def test_any_block_size_gives_the_same_bits(block_values, theta, monkeypatch):
    monkeypatch.setattr(timeint, "_BLOCK_VALUES", block_values)
    system, signal, z0, grid = scenario_run("full", steps=20)
    traj = timeint._theta_run(system, z0, signal, grid, theta)
    assert_bitwise(traj, oracle.stepwise_theta_run(system, z0, signal, grid, theta))


@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
def test_three_step_sizes_across_blocks(theta, monkeypatch):
    system, signal, z0, _ = scenario_run("full")
    monkeypatch.setattr(timeint, "_BLOCK_VALUES", 4 * (system.state_dim + system.input_dim))
    grid = np.concatenate([np.linspace(0.0, 0.1, 11), 0.1 + 0.02 * np.arange(1, 7),
                           0.22 + 0.005 * np.arange(1, 9)])
    assert len(np.unique(timeint._snapped_steps(grid))) == 3
    traj = timeint._theta_run(system, z0, signal, grid, theta)
    assert_bitwise(traj, oracle.stepwise_theta_run(system, z0, signal, grid, theta))


@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.05]], ids=["0 steps", "1 step"])
@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
def test_zero_and_one_step(grid, theta):
    system, signal, z0, _ = scenario_run("full")
    traj = timeint._theta_run(system, z0, signal, grid, theta)
    assert traj.states.shape == (len(grid), system.state_dim)
    assert_bitwise(traj, oracle.stepwise_theta_run(system, z0, signal, grid, theta))


def test_frozen_R_run_matches_stepwise_oracle_bitwise(monkeypatch):
    ops = make_ops(3)
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731
    v, f, fdot, g = linear_data(ops, seed=14)
    z0 = consistent_state(ops, np.random.default_rng(15).uniform(-0.5, 0.5, ops.dim_p),
                          f, fdot, g)
    base = formulations.build_full_first_order(ops)
    u, p = base.state_slice("u"), base.state_slice("p")

    def frozen_R(z):
        R = np.zeros(base.csr.R.shape)
        R[p, p] = fem.assemble_nonlinear_permeability(
            ops.qspace, ops.vspace, z[u], kappa, ops.materials[0].nu).toarray()
        return csr_array(R)

    monkeypatch.setattr(timeint, "_BLOCK_VALUES", 3 * (base.state_dim + base.input_dim))
    grid = np.linspace(0.0, 1.0, 11)
    traj = timeint._theta_run(base, z0, v, grid, 0.5, frozen_R)
    assert_bitwise(traj, oracle.stepwise_theta_run(base, z0, v, grid, 0.5, frozen_R))


@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["midpoint", "euler"])
def test_a_step_is_one_solve_and_one_sparse_mat_vec(theta, monkeypatch):
    system, signal, z0, _ = scenario_run("full")
    S = block_of(system) + 5
    system, signal, z0, grid = scenario_run("full", steps=S, t_end=0.01 * S)

    def recording(times):
        def v(t):
            times.append(t)
            return signal(t)
        return v

    expected = []
    oracle.stepwise_theta_run(system, z0, recording(expected), grid, theta)
    counts = {"solve": 0, "mat-vec": 0}

    def counting(key, method):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)
        return wrapped

    owner = next(k for k in csr_array.__mro__ if "_matmul_vector" in vars(k))
    monkeypatch.setattr(owner, "_matmul_vector", counting("mat-vec", owner._matmul_vector))
    monkeypatch.setattr(numkit.Factorization, "solve",
                        counting("solve", numkit.Factorization.solve))
    sampled = []
    timeint._theta_run(system, z0, recording(sampled), grid, theta)
    assert len(sampled) == (S + 1 if theta == 0.5 else 2 * S + 1)
    assert sorted(sampled) == sorted(expected)
    assert counts["solve"] == S
    assert S <= counts["mat-vec"] <= S + 2
