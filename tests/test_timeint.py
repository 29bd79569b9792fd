import numpy as np
import pytest

from phporo import formulations, timeint
from phporo import numkit
from phporo.numkit import SingularMatrixError
from phporo.phdae import InconsistentStateError, PhDae
from phporo.timeint import Trajectory, integrate_euler, integrate_midpoint

from conftest import consistent_state, linear_data, make_ops


def oscillator(omega=2.0):
    return PhDae(np.eye(2), np.array([[0.0, omega], [-omega, 0.0]]),
                 np.zeros((2, 2)), np.zeros((2, 0)))


def damped_system(seed=0, n=4, m=2):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, n))
    E = V.T @ V + n * np.eye(n)
    Jraw = rng.standard_normal((n, n))
    W = rng.standard_normal((n, n))
    G = rng.standard_normal((n, m))
    return PhDae(E, 0.5 * (Jraw - Jraw.T), W.T @ W, G)


class TestMidpoint:
    def test_oscillator_conserves_energy(self):
        sys = oscillator()
        traj = integrate_midpoint(sys, np.array([1.0, 0.5]), None,
                                  np.linspace(0.0, 10.0, 1001))
        h0 = traj.hamiltonian[0]
        assert np.max(np.abs(traj.hamiltonian - h0)) <= 1e-13 * max(1.0, h0)

    def test_damped_system_balances_every_step(self):
        sys = damped_system()
        rng = np.random.default_rng(1)
        v = lambda t: np.array([np.sin(t), 0.25 * t])
        traj = integrate_midpoint(sys, rng.standard_normal(4), v,
                                  np.linspace(0.0, 2.0, 201))
        scale = np.maximum(1.0, np.abs(traj.hamiltonian[:-1]))
        assert np.all(traj.balance_residuals() <= 1e-12 * scale)

    def test_unforced_quasi_static_dissipates(self):
        ops = make_ops(2, rho=0.0)
        sys = formulations.build_quasi_static(ops)
        zero_u = lambda t: np.zeros(ops.dim_u)
        zero_p = lambda t: np.zeros(ops.dim_p)
        z0 = consistent_state(ops, np.array([1.0]), zero_u, zero_u, zero_p)
        traj = integrate_midpoint(sys, z0, None, np.linspace(0.0, 2.0, 201))
        assert traj.hamiltonian_nonincreasing()
        assert traj.hamiltonian[-1] < traj.hamiltonian[0]

    def test_inconsistent_start_rejected(self):
        ops = make_ops(2, rho=0.0)
        sys = formulations.build_quasi_static(ops)
        bad = np.zeros(sys.state_dim)
        bad[sys.state_slice("u")] = 1.0  # violates K_A u = D^T p with zero data
        with pytest.raises(InconsistentStateError):
            integrate_midpoint(sys, bad, None, np.linspace(0.0, 1.0, 11))

    def test_nonuniform_grid(self):
        sys = damped_system(seed=3)
        grid = np.concatenate([np.linspace(0.0, 0.5, 26), np.linspace(0.55, 1.0, 10)])
        traj = integrate_midpoint(sys, np.ones(4), None, grid)
        scale = np.maximum(1.0, np.abs(traj.hamiltonian[:-1]))
        assert np.all(traj.balance_residuals() <= 1e-12 * scale)

    def test_singular_step_matrix_reports_step(self):
        zero = np.zeros((1, 1))
        sys = PhDae(zero, zero, zero, np.zeros((1, 0)))
        with pytest.raises(SingularMatrixError) as err:
            integrate_midpoint(sys, np.zeros(1), None, np.linspace(0.0, 1.0, 3))
        assert "step 0" in str(err.value)

    def test_time_grid_validation(self):
        sys = oscillator()
        with pytest.raises(ValueError):
            integrate_midpoint(sys, np.zeros(2), None, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            integrate_midpoint(sys, np.zeros(3), None, np.linspace(0.0, 1.0, 5))

    def test_algebraic_rows_stay_satisfied_on_constrained_forms(self):
        # E-kernel rows of the dynamics over 100 steps, both quasi-static forms
        ops = make_ops(3, rho=0.0)
        v, f, fdot, g = linear_data(ops, seed=9)
        rng = np.random.default_rng(10)
        p0 = rng.uniform(-1.0, 1.0, ops.dim_p)
        grid = np.linspace(0.0, 1.0, 101)

        qs = formulations.build_quasi_static(ops)
        z0 = consistent_state(ops, p0, f, fdot, g)
        u0, q0 = formulations.alternative_qs_initialization(ops, p0, f(0.0))
        alt = formulations.build_alternative_qs(ops)
        z0a = np.concatenate([u0, p0, q0])

        for sys, start in ((qs, z0), (alt, z0a)):
            traj = integrate_midpoint(sys, start, v, grid)
            U, sv, _ = np.linalg.svd(sys.E)
            rank = int(np.sum(sv > 1e-10 * sv[0]))
            W = U[:, rank:]
            assert W.shape[1] > 0
            for k, t in enumerate(grid):
                rhs = sys.drift() @ traj.states[k] + sys.G @ v(t)
                assert np.linalg.norm(W.T @ rhs) <= 1e-8


class TestEuler:
    def test_oscillator_loses_energy_every_step(self):
        sys = oscillator()
        traj = integrate_euler(sys, np.array([1.0, 0.0]), None,
                               np.linspace(0.0, 5.0, 201))
        assert np.all(np.diff(traj.hamiltonian) < 0.0)

    def test_single_step_agrees_to_second_order(self):
        # one implicit Euler step deviates from one midpoint step at O(h^2)
        sys = damped_system(seed=4)
        z0 = np.ones(4)
        v = lambda t: np.array([1.0, np.cos(t)])
        hs = 0.2 / 2.0 ** np.arange(6)
        devs = []
        for h in hs:
            grid = np.array([0.0, h])
            ze = integrate_euler(sys, z0, v, grid).states[-1]
            zm = integrate_midpoint(sys, z0, v, grid).states[-1]
            devs.append(np.linalg.norm(ze - zm))
        slopes = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
        assert slopes[-1] >= 1.9

    def test_static_system_keeps_state(self):
        n = 3
        sys = PhDae(np.eye(n), np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, 0)))
        z0 = np.array([1.0, -2.0, 0.5])
        traj = integrate_euler(sys, z0, None, np.linspace(0.0, 1.0, 11))
        assert np.array_equal(traj.states[-1], z0)


class TestNonlinearKappa:
    def kappa(self, k0=1.0):
        # dilatation-dependent conductivity bounded in [k0/2, k0]
        return lambda xi: k0 * (1.0 + xi * xi) / (2.0 + xi * xi)

    def test_constant_kappa_matches_linear_run_bitwise(self, ops2):
        v, f, fdot, g = linear_data(ops2, seed=5)
        z0 = consistent_state(ops2, np.array([0.5]), f, fdot, g)
        grid = np.linspace(0.0, 1.0, 21)
        linear = integrate_midpoint(formulations.build_full_first_order(ops2),
                                    z0, v, grid)
        frozen = timeint.integrate_nonlinear_kappa(ops2, lambda xi: 1.0, z0, v, grid)
        assert np.array_equal(linear.states, frozen.states)
        assert np.array_equal(linear.hamiltonian, frozen.hamiltonian)

    def test_unforced_run_dissipates(self, ops2):
        zero_u = lambda t: np.zeros(ops2.dim_u)
        zero_p = lambda t: np.zeros(ops2.dim_p)
        z0 = consistent_state(ops2, np.array([1.0]), zero_u, zero_u, zero_p)
        traj = timeint.integrate_nonlinear_kappa(
            ops2, self.kappa(), z0, None, np.linspace(0.0, 2.0, 201),
            bounds=(0.5, 1.0),
        )
        assert traj.hamiltonian_nonincreasing()
        assert traj.hamiltonian[-1] < traj.hamiltonian[0]

    def test_frozen_block_keeps_per_step_ledger(self, ops3):
        v, f, fdot, g = linear_data(ops3, seed=6)
        rng = np.random.default_rng(7)
        p0 = rng.uniform(-0.5, 0.5, ops3.dim_p)
        z0 = consistent_state(ops3, p0, f, fdot, g)
        traj = timeint.integrate_nonlinear_kappa(
            ops3, self.kappa(), z0, v, np.linspace(0.0, 1.0, 101)
        )
        scale = np.maximum(1.0, np.abs(traj.hamiltonian[:-1]))
        assert np.all(traj.balance_residuals() <= 1e-10 * scale)

    def test_bound_violation_propagates(self, ops2):
        from phporo.fem import BoundViolationError
        z0 = np.zeros(2 * ops2.dim_u + ops2.dim_p)
        with pytest.raises(BoundViolationError):
            timeint.integrate_nonlinear_kappa(ops2, lambda xi: -1.0, z0, None,
                                              np.linspace(0.0, 1.0, 3))

    def test_requires_single_network(self):
        from conftest import make_network_ops
        ops, _ = make_network_ops(2, m=2)
        with pytest.raises(ValueError):
            timeint.integrate_nonlinear_kappa(ops, lambda xi: 1.0,
                                              np.zeros(2 * ops.dim_u + 2 * ops.dim_p),
                                              None, np.linspace(0.0, 1.0, 3))


class TestTrajectory:
    def make_trajectory(self):
        sys = damped_system(seed=8)
        v = lambda t: np.array([np.sin(t), 1.0])
        return integrate_midpoint(sys, np.ones(4), v, np.linspace(0.0, 1.0, 11))

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros(2),
                       np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros(2),
                       np.zeros(2), np.zeros(1))

    def test_cumulative_ledgers(self):
        traj = self.make_trajectory()
        dcum = traj.dissipated_cumulative()
        assert dcum[0] == 0.0
        assert dcum[-1] == pytest.approx(np.sum(traj.dissipated))

    def test_csv_round_trip(self, tmp_path):
        traj = self.make_trajectory()
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["time", "H", "dissipated_cum", "supplied_cum"]
        assert header[4:] == [f"z{i}" for i in range(4)]
        parsed = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 4:], traj.states)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_trajectory().to_csv(a)
        self.make_trajectory().to_csv(b)
        assert a.read_bytes() == b.read_bytes()


class TestFactorizationCount:
    """Step matrices are factored once per distinct step size."""

    @pytest.fixture()
    def lu_calls(self, monkeypatch):
        calls = []
        real = numkit.lu_factor

        def counting(A, **kwargs):
            # the LDL^T of a definiteness certificate factors no step matrix
            if not kwargs.get("symmetric"):
                calls.append(kwargs)
            return real(A, **kwargs)

        monkeypatch.setattr(numkit, "lu_factor", counting)
        return calls

    def test_uniform_grid_needs_one_factorization(self, lu_calls):
        sys = damped_system(seed=2)
        v = lambda t: np.array([np.sin(t), 1.0])
        grid = np.linspace(0.0, 2.0, 1001)
        # the rounded grid nodes give several slightly different step sizes
        assert len(set(np.diff(grid).tolist())) > 1
        for integrate in (integrate_midpoint, integrate_euler):
            lu_calls.clear()
            traj = integrate(sys, np.ones(4), v, grid)
            assert len(lu_calls) == 1
            assert len(traj.times) == 1001

    def test_nonuniform_grid_needs_one_factorization_per_step_size(self, lu_calls):
        sys = damped_system(seed=3)
        grid = np.concatenate([np.linspace(0.0, 0.5, 26), np.linspace(0.55, 1.0, 10)])
        integrate_midpoint(sys, np.ones(4), None, grid)
        assert len(lu_calls) == 2

    def test_parabolic_input_needs_no_factorization(self, lu_calls):
        ops = make_ops(3, rho=0.0)
        v, f, fdot, g = linear_data(ops, seed=11)
        reduced = formulations.schur_reduce_parabolic(ops, f, fdot, g)
        assert len(lu_calls) == 1  # K_A, shared by every later solve
        lu_calls.clear()
        for t in np.linspace(0.0, 1.0, 7):
            reduced.g_tilde(t)
            reduced.recover_displacement(np.ones(ops.dim_p), t)
        assert lu_calls == []
        integrate_midpoint(reduced.as_phdae(), np.ones(ops.dim_p), reduced.g_tilde,
                           np.linspace(0.0, 1.0, 51))
        assert len(lu_calls) == 1

    def test_nonlinear_run_factors_once_per_step(self, ops2, lu_calls):
        v, f, fdot, g = linear_data(ops2, seed=5)
        z0 = consistent_state(ops2, np.array([0.5]), f, fdot, g)
        lu_calls.clear()
        timeint.integrate_nonlinear_kappa(ops2, lambda xi: 1.0 + 0.1 * xi * xi, z0, v,
                                          np.linspace(0.0, 1.0, 21))
        assert len(lu_calls) == 20
        # one pattern: only the first step orders the columns
        assert sum(not kwargs.get("natural") for kwargs in lu_calls) == 1
