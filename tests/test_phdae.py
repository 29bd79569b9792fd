import numpy as np
import pytest

from phporo import formulations, numkit, phdae, timeint
from phporo.numkit import StructureError
from phporo.phdae import InconsistentStateError, PhDae


def oscillator(omega=1.0):
    """Undamped two-state oscillator with no ports."""
    return PhDae(np.eye(2), np.array([[0.0, omega], [-omega, 0.0]]),
                 np.zeros((2, 2)), np.zeros((2, 0)))


class TestConstruction:
    def test_valid_system(self):
        sys = oscillator()
        report = phdae.validate_structure(sys)
        assert report.verdict
        assert report.j_skew_defect == 0.0

    def test_indefinite_r_rejected(self):
        with pytest.raises(StructureError):
            PhDae(np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]), np.zeros((2, 0)))

    def test_bypass_flag_for_negative_checks(self):
        sys = PhDae(np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]),
                    np.zeros((2, 0)), validate=False)
        report = phdae.validate_structure(sys)
        assert not report.verdict
        assert report.r_report.verdict == "indefinite"
        assert "R" in "".join(report.failures())

    def test_nonskew_j_rejected(self):
        with pytest.raises(StructureError):
            PhDae(np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 0)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhDae(np.eye(2), np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((2, 0)))
        with pytest.raises(ValueError):
            PhDae(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 1)))

    def test_block_labels(self):
        sys = PhDae(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 2)),
                    state_blocks=[("a", 1), ("b", 2)], input_blocks=[("u", 2)])
        assert sys.state_slice("b") == slice(1, 3)
        with pytest.raises(KeyError):
            sys.state_slice("missing")
        with pytest.raises(ValueError):
            PhDae(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 0)),
                  state_blocks=[("a", 1)])

    def test_full_poroelastic_system_validates(self, ops2):
        sys = formulations.build_full_first_order(ops2)
        report = phdae.validate_structure(sys)
        assert report.verdict
        assert report.e_report.verdict == "positive_definite"


class TestHamiltonian:
    def test_zero_state(self):
        assert phdae.hamiltonian(oscillator(), np.zeros(2)) == 0.0

    def test_identity_energy(self):
        sys = PhDae(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 0)))
        assert phdae.hamiltonian(sys, np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_poroelastic_energy_matches_blocks(self, ops2):
        sys = formulations.build_full_first_order(ops2)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(sys.state_dim)
        w = z[sys.state_slice("w")]
        u = z[sys.state_slice("u")]
        p = z[sys.state_slice("p")]
        expected = 0.5 * (w @ ops2.mass_rho @ w + u @ ops2.stiff_elast @ u
                          + p @ ops2.mass_storage @ p)
        assert phdae.hamiltonian(sys, z) == pytest.approx(expected, rel=1e-14)

    def test_invariant_under_skew_drift_changes(self):
        sys = oscillator()
        modified = PhDae(sys.E, 3.0 * sys.J, sys.R, sys.G)
        rng = np.random.default_rng(1)
        for _ in range(5):
            z = rng.standard_normal(2)
            assert phdae.hamiltonian(sys, z) == phdae.hamiltonian(modified, z)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            phdae.hamiltonian(oscillator(), np.zeros(3))


class TestOutput:
    def test_zero_port_matrix(self):
        sys = PhDae(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))
        assert not phdae.output(sys, np.ones(2)).any()

    def test_identity_port_matrix(self):
        sys = PhDae(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        z = np.array([1.5, -2.0])
        assert np.array_equal(phdae.output(sys, z), z)

    def test_two_field_output_is_mass_weighted(self, ops2):
        sys = formulations.build_full_first_order(ops2)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(sys.state_dim)
        y = phdae.output(sys, z)
        w = z[sys.state_slice("w")]
        p = z[sys.state_slice("p")]
        assert np.allclose(y[sys.input_slice("f")], ops2.mass_u @ w, atol=1e-14)
        assert np.allclose(y[sys.input_slice("g")], ops2.mass_p @ p, atol=1e-14)


class TestPowerBalance:
    def test_conservative_system_zero_residual(self):
        sys = oscillator()
        z = np.array([1.0, 2.0])
        zdot = sys.drift() @ z  # E = I
        assert phdae.power_balance_residual(sys, z, np.zeros(0), zdot) <= 1e-15

    def test_random_consistent_pairs(self, ops2):
        sys = formulations.build_full_first_order(ops2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rng.standard_normal(sys.state_dim)
            v = rng.standard_normal(sys.input_dim)
            zdot = numkit.solve(sys.E, sys.drift() @ z + sys.G @ v)
            scale = max(1.0, abs(phdae.hamiltonian(sys, z)))
            assert phdae.power_balance_residual(sys, z, v, zdot) <= 1e-12 * scale

    def test_perturbed_derivative_shifts_residual_exactly(self):
        sys = oscillator()
        rng = np.random.default_rng(4)
        z = rng.standard_normal(2)
        zdot = sys.drift() @ z
        delta = 1e-10 * rng.standard_normal(2)
        residual = phdae.power_balance_residual(sys, z, np.zeros(0), zdot + delta,
                                                tol=1.0)
        assert residual == pytest.approx(abs(z @ sys.E @ delta), rel=1e-6, abs=1e-18)

    def test_inconsistent_pair_rejected(self):
        sys = oscillator()
        z = np.array([1.0, 0.0])
        with pytest.raises(InconsistentStateError):
            phdae.power_balance_residual(sys, z, np.zeros(0), np.array([5.0, 5.0]))


class TestDissipationMatrix:
    def test_zero_resistance(self):
        sys = PhDae(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 1)))
        assert not phdae.dissipation_matrix(sys).any()
        assert phdae.dissipation_matrix(sys).shape == (3, 3)

    def test_diagonal_resistance(self):
        sys = PhDae(np.eye(2), np.zeros((2, 2)), np.diag([1.0, 2.0]), np.ones((2, 1)))
        assert np.array_equal(phdae.dissipation_matrix(sys), np.diag([1.0, 2.0, 0.0]))

    def test_poroelastic_pressure_slot(self, ops2):
        sys = formulations.build_full_first_order(ops2)
        W = phdae.dissipation_matrix(sys)
        p = sys.state_slice("p")
        assert np.array_equal(W[p, p], ops2.stiff_flow[0])
        W_check = W.copy()
        W_check[p, p] = 0.0
        assert not W_check.any()


class TestDissipationInequality:
    def test_unforced_energy_never_increases(self):
        rng = np.random.default_rng(5)
        n = 6
        V = rng.standard_normal((n, n))
        E = V.T @ V + n * np.eye(n)
        Jraw = rng.standard_normal((n, n))
        J = 0.5 * (Jraw - Jraw.T)
        W = rng.standard_normal((n, n))
        R = W.T @ W
        sys = PhDae(E, J, R, np.zeros((n, 0)))
        traj = timeint.integrate_midpoint(sys, rng.standard_normal(n), None,
                                          np.linspace(0.0, 2.0, 101))
        assert traj.hamiltonian_nonincreasing()


class TestSerialization:
    def test_round_trip(self, tmp_path, ops2):
        sys = formulations.build_full_first_order(ops2)
        target = tmp_path / "system"
        phdae.save_phdae(sys, target)
        loaded = phdae.load_phdae(target)
        for name in ("E", "J", "R", "G"):
            assert np.array_equal(getattr(loaded, name), getattr(sys, name))
        assert loaded.state_blocks == sys.state_blocks
        assert loaded.input_blocks == sys.input_blocks
        assert phdae.validate_structure(loaded).verdict
        assert numkit.is_skew(loaded.J, 1e-12 * (1 + np.max(np.abs(loaded.J))))


class TestStructureReportReuse:
    @pytest.mark.parametrize("make", [
        lambda ops: formulations.build_full_first_order(ops),
        lambda ops: formulations.build_quasi_static(ops),
        lambda ops: oscillator(),
        lambda ops: PhDae(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)),
                          np.zeros((0, 2))),
        lambda ops: PhDae(np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]),
                          np.ones((2, 1)), validate=False),
    ])
    def test_dissipation_report_matches_its_matrix(self, ops2, make):
        sys = make(ops2)
        report = phdae.validate_structure(sys)
        direct = numkit.psd_check(phdae.dissipation_matrix(sys), numkit.default_tol(sys.R),
                                  require_symmetric=False)
        got = report.w_report
        assert got.verdict == direct.verdict
        assert got.max_asymmetry == direct.max_asymmetry
        scale = 1e-12 * (1.0 + np.max(np.abs(sys.R), initial=0.0))
        for a, b in ((got.min_eigenvalue, direct.min_eigenvalue),
                     (got.max_eigenvalue, direct.max_eigenvalue)):
            assert a == b or abs(a - b) <= scale

    def test_report_is_reused_at_the_same_tolerance(self, ops2, monkeypatch):
        sys = formulations.build_full_first_order(ops2)
        monkeypatch.setattr(numkit, "psd_check",
                            lambda *args, **kwargs: pytest.fail("structure checked again"))
        assert phdae.validate_structure(sys) is phdae.validate_structure(sys, tol=None)

    def test_other_tolerance_is_checked_afresh(self, ops2):
        sys = formulations.build_full_first_order(ops2)
        loose = phdae.validate_structure(sys, tol=1e-3)
        assert loose.psd_tol == 1e-3
        assert phdae.validate_structure(sys).psd_tol != 1e-3
