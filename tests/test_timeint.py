import inspect
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_array

from phporo import dae_analysis, formulations, timeint
from phporo import numkit
from phporo.numkit import SingularMatrixError
from phporo.phdae import InconsistentStateError, PhDae, certificate
from phporo.timeint import Trajectory, integrate_euler, integrate_midpoint

import oracle
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


    def test_start_check_decides_no_index(self, monkeypatch):
        # a certified E names its algebraic rows by itself; whether -A[Z, Z]
        # is nonsingular is the index question, which the start check skips
        ops = make_ops(3, rho=0.0)
        v, f, fdot, g = linear_data(ops, seed=9)
        p0 = np.random.default_rng(10).uniform(-1.0, 1.0, ops.dim_p)
        u0, q0 = formulations.alternative_qs_initialization(ops, p0, f(0.0))
        starts = ((formulations.build_quasi_static(ops), consistent_state(ops, p0, f, fdot, g)),
                  (formulations.build_alternative_qs(ops), np.concatenate([u0, p0, q0])))

        def refuse(*args, **kwargs):
            raise AssertionError("index decided in the start check")

        monkeypatch.setattr(dae_analysis, "_nonsingular", refuse)
        for sys, start in starts:
            assert certificate(sys, "E").size > 0
            traj = integrate_midpoint(sys, start, v, np.linspace(0.0, 0.1, 3))
            assert np.all(np.isfinite(traj.states))

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


def first_difference(got: bytes, want: bytes):
    """None if two CSV texts are equal, else their first differing values."""
    if got == want:
        return None
    pairs = zip(got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
    return next(((a, b) for a, b in pairs if a != b), (got[-40:], want[-40:]))


def csv_against_oracle(tmp_path, states):
    """The CSV of a trajectory with these states (and zero ledgers) and the
    oracle's bytes for it."""
    states = np.asarray(states, dtype=float)
    T = len(states)
    traj = Trajectory(np.arange(T, dtype=float), states, np.zeros(T), np.zeros(T - 1),
                      np.zeros(T - 1))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    return path.read_bytes(), oracle.trajectory_csv(traj)


def as_rows(values, columns=8):
    """values as a (-1, columns) table, padded with 1.0."""
    values = np.asarray(values, dtype=float).ravel()
    return np.concatenate([values, np.ones(-values.size % columns)]).reshape(-1, columns)


def neighbours(values):
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
EDGE_VALUES = {
    "powers_of_two": np.concatenate([POWERS_OF_TWO, -POWERS_OF_TWO, neighbours(POWERS_OF_TWO)]),
    "subnormals": np.concatenate([[5e-324, 1e-323, 2.2250738585072009e-308, -5e-324],
                                  np.random.default_rng(1).integers(1, 2**52, 2000).view(float)]),
    "specials": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0]),
    "powers_of_ten": neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])),
    "switch_points": neighbours(np.array([1e16, 9999999999999998.0, 1e-4, 1e-5, -1e16, -1e-5])),
    "three_digit_exponents": np.concatenate([
        [1e100, 1e-100, 1.7976931348623157e308, 2.2250738585072014e-308, -1.5e-200],
        np.random.default_rng(2).uniform(1, 10, 2080)
        * 10.0 ** np.r_[-307:-99, 100:308].repeat(5)]),
    "integers": np.concatenate([[2.0**53, 2.0**53 - 1, 2.0**53 + 2, 1.0, 10.0, 123456789.0],
                                np.random.default_rng(3).integers(0, 2**53, 5000).astype(float),
                                np.arange(-1000.0, 1000.0)]),
    "trailing_zeros": np.concatenate([
        [1200.0, 1.5e20, 123000000.0, 0.5, 0.0012, 7e22, 1e23, 5e-7],
        np.random.default_rng(4).integers(1, 1000, 5040) * 10.0 ** np.arange(-40, 40).repeat(63)]),
}


class TestCsvFormat:
    """Trajectory.to_csv writes the bytes of the one-repr-per-value oracle."""

    def test_repr_style_is_short(self):
        # the formatter reproduces the shortest round-trip repr
        assert sys.float_repr_style == "short"

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(20).integers(0, 2**64, (1000, 1000), dtype=np.uint64,
                                                  endpoint=False)
        assert np.unique(bits >> 52 & 0x7FF).size == 2048  # every exponent
        assert np.unique(bits >> 63).size == 2  # both signs
        assert first_difference(*csv_against_oracle(tmp_path, bits.view(float))) is None

    @pytest.mark.parametrize("kind", sorted(EDGE_VALUES))
    def test_edge_values(self, tmp_path, kind):
        assert first_difference(*csv_against_oracle(tmp_path, as_rows(EDGE_VALUES[kind]))) is None

    @pytest.mark.parametrize("rows, columns", [(1, 0), (1, 9000), (3000, 7), (50, 0)])
    def test_table_shapes(self, tmp_path, rows, columns):
        # one row wider than a block, rows across several blocks, no state columns
        states = np.random.default_rng(rows).standard_normal((rows, columns))
        assert first_difference(*csv_against_oracle(tmp_path, states)) is None

    @pytest.mark.parametrize("value", [0.0, -0.0, 3.25, -1e-300, np.nan])
    def test_one_by_one_table(self, value):
        text = timeint._csv_text(np.array([value]), 0, 1).tobytes()
        assert text == oracle.csv_text([[value]])

    def test_zero_table_never_reaches_the_repr_fallback(self, tmp_path, monkeypatch):
        def no_repr(value):
            raise AssertionError(f"repr fallback reached for {value!r}")

        states = np.where(np.random.default_rng(5).random((40, 300)) < 0.5, 0.0, -0.0)
        monkeypatch.setattr(timeint, "repr", no_repr, raising=False)
        got, want = csv_against_oracle(tmp_path, states)
        assert got == want

    def test_only_non_normal_values_reach_the_repr_fallback(self, tmp_path, monkeypatch):
        seen = []

        def counting_repr(value):
            seen.append(value)
            return repr(value)

        monkeypatch.setattr(timeint, "repr", counting_repr, raising=False)
        got, want = csv_against_oracle(tmp_path, as_rows([0.0, 1.0, np.inf, 5e-324, -0.0, 2.5]))
        assert got == want
        assert seen == [np.inf, 5e-324]



# any double: hypothesis' floats (+-0, +-inf, nans, subnormals) and raw bit patterns
ANY_DOUBLE = st.floats(width=64) | st.integers(0, 2**64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64)))


@st.composite
def tables_and_pieces(draw):
    """A table of any doubles and a piece size below, between and above its row width."""
    rows, columns = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    values = draw(st.lists(ANY_DOUBLE, min_size=rows * columns, max_size=rows * columns))
    piece = draw(st.integers(1, 2 * columns + 1) | st.just(timeint._CSV_BLOCK))
    return np.array(values).reshape(rows, columns), piece


@given(tables_and_pieces())
def test_csv_text_is_the_repr_join_of_any_doubles(table_and_piece):
    table, piece = table_and_piece
    flat = table.ravel()
    text = b"".join(timeint._csv_text(flat[i:i + piece], i, table.shape[1]).tobytes()
                    for i in range(0, flat.size, piece))
    assert text == oracle.csv_text(table)


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
        # a slowly varying kappa: most steps reuse the last factor
        assert 1 <= len(lu_calls) < 20
        # one pattern: only the first step orders the columns
        assert sum(not kwargs.get("natural") for kwargs in lu_calls) == 1


class TestFactorReuse:
    """Checks that hold when a frozen-R step is solved with the last factor."""

    @staticmethod
    def run(R_at_step, monkeypatch):
        # E = diag(1, 0): the second row is algebraic, and its step matrix
        # entry is h/2 times R[1, 1]; R keeps its pattern on every step
        sys = PhDae(np.diag([1.0, 0.0]), np.zeros((2, 2)), np.eye(2), np.zeros((2, 0)))
        made, steps = [], []

        class Counting(numkit.Factorization):
            # every factor, the first one too, is made by refactor
            def refactor(self, *args, **kwargs):
                made.append(len(steps))
                super().refactor(*args, **kwargs)

        def frozen_R(z):
            steps.append(z)
            return csr_array((R_at_step(len(steps) - 1), [0, 1], [0, 1, 2]), shape=(2, 2))

        monkeypatch.setattr(timeint, "Factorization", Counting)
        grid = np.linspace(0.0, 1.0, 11)
        return made, lambda: timeint._theta_run(sys, np.array([1.0, 0.0]), None, grid, 0.5,
                                                frozen_R)

    def test_singular_step_after_reuse_raises_with_its_step(self, monkeypatch):
        made, run = self.run(lambda k: [1.0, 0.0 if k == 5 else 1.0], monkeypatch)
        # the zero row carries a zero right-hand side, which refinement alone
        # would solve
        with pytest.raises(SingularMatrixError, match="^step 5: step matrix numerically singular"):
            run()
        assert made == [1, 6]  # steps 1-4 reused the first factor

    def test_non_finite_entry_on_a_reuse_step_raises(self, monkeypatch):
        made, run = self.run(lambda k: [1.0, np.nan if k == 3 else 1.0], monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            run()
        assert made == [1]  # raised by the reuse step, not by a new factorization


class TestRefine:
    """``_FrozenRSteps._refined``: a step solved by iterative refinement with
    the last factor and judged by the whole step matrix; a step that
    refinement cannot solve is refactored."""

    NO_BLOCK = (slice(0, 0), slice(0, 0))

    @pytest.fixture()
    def solves(self, monkeypatch):
        calls = []
        real = numkit.Factorization.solve

        def counting(self, b):
            calls.append(b)
            return real(self, b)

        monkeypatch.setattr(numkit.Factorization, "solve", counting)
        return calls

    def matrix(self, n=40):
        # nonsymmetric with a small diagonal, so the factor pivots off it
        rng = np.random.default_rng(24)
        M = np.where(rng.uniform(size=(n, n)) < 0.1, rng.standard_normal((n, n)), 0.0)
        M[np.diag_indices(n)] = 1e-3 + np.abs(M.sum(axis=1))
        return csr_array(M), rng.standard_normal(n)

    def stepper(self, M, lu=None):
        """Frozen-R steps whose implicit step matrix is M: theta = h = 1 on a
        system with E = J = 0, so the step from 0 with forcing b solves
        M x = b; given lu, that is the last factor."""
        n = M.shape[0]
        sys = PhDae(np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, 0)))
        steps = timeint._FrozenRSteps(sys, self.NO_BLOCK, M, 1.0, 0.0)
        steps._lu = lu
        return steps

    @staticmethod
    def backward_error(M, x, b):
        scale = np.abs(M).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        return np.abs(b - M @ x).max() / scale

    def test_the_factored_matrix_takes_one_solve(self, solves):
        A, b = self.matrix()
        steps = self.stepper(A)
        first = steps.step(A, np.zeros(40), b)  # makes the factor
        solves.clear()
        x = steps.step(A, np.zeros(40), b)
        assert len(solves) == 1
        assert np.array_equal(x, first)

    def test_a_nearby_matrix_meets_the_target(self, solves):
        A, b = self.matrix()
        near = A.copy()
        near.data *= 1.0 + 1e-4 * np.random.default_rng(25).standard_normal(near.data.size)
        steps = self.stepper(A)
        steps.step(A, np.zeros(40), b)
        factor = steps._lu._lu
        solves.clear()
        x = steps.step(near, np.zeros(40), b)
        assert 1 < len(solves) <= timeint.REFINE_SOLVES
        assert steps._lu._lu is factor  # not refactored
        assert self.backward_error(near, x, b) <= timeint.REFINE_TARGET
        assert self.backward_error(near, steps._lu.solve(b), b) > timeint.REFINE_TARGET

    def test_a_far_or_singular_matrix_is_refactored(self, solves):
        A, b = self.matrix()
        far = A.copy()
        far.data = np.random.default_rng(26).standard_normal(far.data.size)
        rank_one = csr_array(np.outer(np.arange(1.0, 41.0), np.ones(40)))
        zero_row = A.copy()
        zero_row.data[zero_row.indptr[7]:zero_row.indptr[8]] = 0.0  # a zero row, still stored
        zero_col = A.copy()
        zero_col.data[zero_col.indices == 3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = self.stepper(far, numkit.Factorization(A))
            factor = steps._lu._lu
            solves.clear()
            steps.step(far, np.zeros(40), b)
            assert steps._lu._lu is not factor
            assert len(solves) <= timeint.REFINE_SOLVES + 1  # the last after the refactor
            # a consistent right-hand side does not hide the zero row
            for M, rhs in ((rank_one, b), (zero_row, b), (zero_col, b),
                           (zero_row, zero_row @ np.ones(40))):
                steps = self.stepper(M, numkit.Factorization(A))
                solves.clear()
                with pytest.raises(SingularMatrixError, match="^step matrix numerically singular"):
                    steps.step(M, np.zeros(40), rhs)
                assert len(solves) <= timeint.REFINE_SOLVES

    def test_a_reduction_is_judged_by_the_whole_matrix(self, solves):
        # rows 10-19 read x_u - 0.5 x_w = 0 for w = 0-9 (E_uu = I, J_uw = I,
        # theta h = 0.5): the factor is of the other rows with that put in,
        # and x = lift(y) must meet the target against the whole matrix
        A, b = self.matrix()
        u, w, keep = slice(10, 20), slice(0, 10), np.r_[0:10, 20:40]
        E, J, R = np.zeros((40, 40)), np.zeros((40, 40)), np.zeros((40, 40))
        E[u, u], J[u, w], J[w, u] = np.eye(10), np.eye(10), -np.eye(10)
        R[np.ix_(keep, keep)] = 2.0 * A.toarray()[np.ix_(keep, keep)]
        M = E - 0.5 * J + 0.5 * R
        b[u] = 0.0
        S = M[keep][:, keep]
        S[:, w] += 0.5 * M[keep][:, u]
        sys = PhDae(E, J, np.zeros((40, 40)), np.zeros((40, 0)))
        exact = timeint._FrozenRSteps(sys, (u, w), csr_array(R), 0.5, 0.0)
        exact.step(csr_array(R), np.zeros(40), b)  # makes the factor of S
        near = timeint._FrozenRSteps(sys, (u, w), csr_array(R), 0.5, 0.0)
        near._lu = numkit.Factorization(
            S * (1.0 + 1e-4 * np.random.default_rng(28).standard_normal(S.shape)))
        for steps, most in ((exact, 1), (near, timeint.REFINE_SOLVES)):
            factor = steps._lu._lu
            solves.clear()
            x = steps.step(csr_array(R), np.zeros(40), b)
            assert 1 <= len(solves) <= most
            assert steps._lu._lu is factor
            assert all(len(rhs) == 30 for rhs in solves)
            assert self.backward_error(M, x, b) <= timeint.REFINE_TARGET
            assert np.array_equal(x[u], 0.5 * x[w])
        assert len(solves) > 1

    def test_sums_of_abs_are_those_of_the_sparse_products(self, solves):
        # rows scaled over 8 decades, so that the sums' rounding depends on
        # their order, and stored zeros, which the sums must step over: the
        # step is refined as the oracle's refinement with abs(M) @ ones and
        # ones @ abs(M) refines it, bit for bit and solve for solve
        A, b = self.matrix()
        rows = np.repeat(np.arange(40), np.diff(A.indptr))
        stored_zero = (rows != A.indices) & (np.arange(A.nnz) % 5 == 0)
        A.data[stored_zero] = 0.0
        near = A.copy()
        near.data *= 1.0 + 1e-6 * np.random.default_rng(25).standard_normal(near.data.size)
        for M in (A, near):
            M.data *= 10.0 ** np.random.default_rng(27).uniform(-4.0, 4.0, 40)[rows]
        assert near.nnz > np.count_nonzero(near.data)
        lu = numkit.Factorization(A)
        solves.clear()
        want = oracle.refined(lu, near, b)
        oracle_solves = len(solves)
        steps = self.stepper(near, lu)
        solves.clear()
        x = steps.step(near, np.zeros(40), b)
        assert want is not None and oracle_solves > 1
        assert np.array_equal(x, want)
        assert len(solves) == oracle_solves

    @pytest.mark.parametrize("position", [0, 17, -1])
    def test_an_empty_column_is_refactored(self, solves, position):
        # the column stores nothing at all, also when it is the last one
        A, b = self.matrix()
        dense = A.toarray()
        dense[:, position] = 0.0
        M = csr_array(dense)
        assert position % 40 not in M.indices
        steps = self.stepper(M, numkit.Factorization(A))
        with pytest.raises(SingularMatrixError, match="^step matrix numerically singular"):
            steps.step(M, np.zeros(40), b)
        assert solves == []

    def test_no_budget_is_refactored(self, monkeypatch, solves):
        A, b = self.matrix()
        steps = self.stepper(A)
        steps.step(A, np.zeros(40), b)
        factor = steps._lu._lu
        monkeypatch.setattr(timeint, "REFINE_SOLVES", 0)
        solves.clear()
        steps.step(A, np.zeros(40), b)
        assert steps._lu._lu is not factor
        assert len(solves) == 1  # with the new factor

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_raise(self, solves, value):
        # R is checked before it is written: with theta = 1 its explicit
        # weight is -0.0, and -0.0 * inf would warn first
        A, b = self.matrix()
        steps = self.stepper(A)
        steps.step(A, np.zeros(40), b)
        factor = steps._lu._lu
        bad = A.copy()
        bad.data[5] = value
        solves.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                steps.step(bad, np.zeros(40), b)
        assert solves == [] and steps._lu._lu is factor  # raised before refining


def test_timeint_builds_no_csr_by_hand():
    # the step matrices and the embedded R come from numkit.placed: no
    # sorted keys, no padded indptr, and bincount only in refinement's
    # column sums
    text = Path(timeint.__file__).read_text()
    assert "np.unique" not in text and "np.pad" not in text
    refined = inspect.getsource(timeint._FrozenRSteps._refined)
    assert text.count("bincount") == refined.count("bincount") == 1


@pytest.mark.parametrize("rows, columns", [(3000, 7), (4, 9000)])
def test_csv_is_formatted_in_blocks_of_whole_rows(tmp_path, monkeypatch, rows, columns):
    # no copy of the whole table: each block holds whole rows and at most
    # _CSV_BLOCK values; a row wider than that goes in pieces of at most
    # _CSV_BLOCK values
    sizes = []
    real = timeint._csv_text

    def recording(x, start, width):
        sizes.append(x.size)
        return real(x, start, width)

    monkeypatch.setattr(timeint, "_csv_text", recording)
    states = np.random.default_rng(columns).standard_normal((rows, columns))
    got, want = csv_against_oracle(tmp_path, states)
    assert got == want
    width = columns + 4
    assert sum(sizes) == rows * width
    assert all(size <= timeint._CSV_BLOCK for size in sizes)
    if width <= timeint._CSV_BLOCK:
        assert all(size % width == 0 for size in sizes)
    else:
        assert len(sizes) == rows * -(-width // timeint._CSV_BLOCK)


def test_csv_rows_wider_than_a_block_go_in_pieces(tmp_path, monkeypatch):
    # a 3 x 20 table in blocks of 7 values: each row in pieces of 7, 7 and
    # 6 values, whose separators follow from their offsets in the row
    calls = []
    real = timeint._csv_text

    def recording(x, start, width):
        calls.append((x.size, start, width))
        return real(x, start, width)

    monkeypatch.setattr(timeint, "_CSV_BLOCK", 7)
    monkeypatch.setattr(timeint, "_csv_text", recording)
    states = np.random.default_rng(21).standard_normal((3, 16))
    got, want = csv_against_oracle(tmp_path, states)
    assert got == want
    assert calls == [(7, 0, 20), (7, 7, 20), (6, 14, 20)] * 3
