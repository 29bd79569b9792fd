import numpy as np
import pytest

from phporo import dae_analysis, formulations, interconnect, numkit, phdae, timeint
from phporo.dae_analysis import classify_index, classify_phdae_index

import oracle
from conftest import consistent_state, linear_data, make_network_ops, make_ops


class TestClassifyIndex:
    def test_invertible_e_is_index_zero(self):
        rng = np.random.default_rng(0)
        report = classify_index(np.eye(4), rng.standard_normal((4, 4)))
        assert report.label == "0"
        assert report.e_rank == 4

    def test_forced_index_one(self):
        report = classify_index(np.diag([1.0, 0.0]), np.eye(2))
        assert report.label == "1"
        assert report.e_rank == 1
        dense = oracle.classify_index_dense(np.diag([1.0, 0.0]), np.eye(2))
        assert (dense.label, dense.e_rank) == ("1", 1)

    def test_singular_pencil_rejected(self):
        # E = 0 and singular A make det(lambda E - A) identically zero
        with pytest.raises(ValueError):
            classify_index(np.zeros((2, 2)), np.diag([1.0, 0.0]))

    def test_ph_pencil_with_common_kernel_rejected(self):
        # an appended state that E, J and R all annihilate makes the pencil
        # singular for every lambda
        full = formulations.build_full_first_order(make_ops(2))
        idle = phdae.PhDae(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="singular") as raised:
            classify_phdae_index(interconnect.aggregate(full, idle))
        assert raised.type is numkit.SingularMatrixError
        assert str(raised.value).startswith("matrix pencil is singular")

    def test_undecided_uncertified_input_rejected(self):
        # E has no zero row, is not certified and is singular, so
        # L = [E[N, :]; -A[Z, :]] = E cannot decide the index
        with pytest.raises(numkit.SingularMatrixError, match="index undecided"):
            classify_index(np.ones((2, 2)), -np.eye(2))

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            classify_index(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_regular_full_system(self, n):
        sys = formulations.build_full_first_order(make_ops(n))
        assert classify_phdae_index(sys).label == "0"

    @pytest.mark.parametrize("n", [2, 3])
    def test_augmented_quasi_static_is_index_two(self, n):
        sys = formulations.build_quasi_static(make_ops(n, rho=0.0))
        report = classify_phdae_index(sys)
        assert report.label == "at_least_2"
        ops = make_ops(n, rho=0.0)
        assert report.e_rank == ops.dim_u + ops.dim_p

    @pytest.mark.parametrize("n", [2, 3])
    def test_auxiliary_variable_form_is_index_one(self, n):
        # one differentiation of the two algebraic rows already yields an
        # ODE: the kernel test block [[-K_A, D^T], [-D, -M]] is invertible
        ops = make_ops(n, rho=0.0)
        sys = formulations.build_alternative_qs(ops)
        report = classify_phdae_index(sys)
        assert report.label == "1"
        assert report.e_rank == ops.dim_p

    @pytest.mark.parametrize("n", [2, 3])
    def test_nonaugmented_form_is_index_one(self, n):
        ops = make_ops(n, rho=0.0)
        E, A = dae_analysis.nonaugmented_quasi_static_pencil(ops)
        assert classify_index(E, A).label == "1"

    def test_network_quasi_static_index(self):
        ops, B = make_network_ops(2, m=2, symmetric=False)
        sys = formulations.build_quasi_static(ops, B)
        assert classify_phdae_index(sys).label == "at_least_2"
        E, A = dae_analysis.nonaugmented_quasi_static_pencil(ops, B)
        assert classify_index(E, A).label == "1"

    def test_report_serialization(self):
        report = classify_index(np.diag([1.0, 0.0]), np.eye(2))
        doc = report.to_dict()
        assert doc == {"index": "1", "e_rank": 1}


class TestNonaugmentedPencil:
    """The sparse rule decides the (u, p) form without a dense spectrum,
    also where stiff storage (large biot_M) scales M-bar down."""

    @pytest.mark.parametrize("n", [2, 4, 12])
    @pytest.mark.parametrize("biot_M", [1.0, 1e8, 1e12, 1e14])
    @pytest.mark.parametrize("networks", [1, 2])
    def test_index_one_without_dense_spectra(self, n, biot_M, networks, monkeypatch):
        if networks == 1:
            ops, coupling = make_ops(n, rho=0.0, biot_M=biot_M), None
        else:
            ops, coupling = make_network_ops(n, m=2, symmetric=False, biot_M=biot_M)
        E, A = dae_analysis.nonaugmented_quasi_static_pencil(ops, coupling)

        def refuse(*args, **kwargs):
            raise AssertionError("dense SVD or eigendecomposition")

        with monkeypatch.context() as patch:
            for name in ("svd", "eigvalsh", "eigh"):
                patch.setattr(np.linalg, name, refuse)
            report = classify_index(E, A)
        assert report.label == "1"
        if n <= 4:
            assert report.e_rank == oracle.classify_index_dense(E, A).e_rank


class TestConsistentInitialization:
    def test_zero_data_gives_zero_state(self, ops3_qs):
        dp, du = ops3_qs.dim_p, ops3_qs.dim_u
        w0, u0 = dae_analysis.consistent_initialization(
            ops3_qs, np.zeros(dp), np.zeros(du), np.zeros(du), np.zeros(dp)
        )
        assert not w0.any() and not u0.any()

    def test_zero_coupling_decouples(self, mesh3):
        from conftest import make_material
        ops = formulations.assemble_two_field(mesh3, make_material(rho=0.0, alpha=0.0))
        rng = np.random.default_rng(1)
        f0 = rng.standard_normal(ops.dim_u)
        fdot0 = rng.standard_normal(ops.dim_u)
        p0 = rng.standard_normal(ops.dim_p)
        w0, u0 = dae_analysis.consistent_initialization(ops, p0, f0, fdot0,
                                                        np.zeros(ops.dim_p))
        assert np.allclose(u0, numkit.solve(ops.stiff_elast, f0), atol=1e-12)
        # with no coupling the velocity relation reduces to K_A w0 = fdot0
        assert np.allclose(w0, numkit.solve(ops.stiff_elast, fdot0), atol=1e-12)

    def test_residuals_meet_tolerance(self, ops3_qs):
        v, f, fdot, g = linear_data(ops3_qs, seed=2)
        rng = np.random.default_rng(3)
        p0 = rng.uniform(-1.0, 1.0, ops3_qs.dim_p)
        w0, u0 = dae_analysis.consistent_initialization(ops3_qs, p0, f(0.0),
                                                        fdot(0.0), g(0.0))
        r_u = np.linalg.norm(ops3_qs.stiff_elast @ u0
                             - ops3_qs.div_coupling[0].T @ p0 - f(0.0))
        assert r_u <= 1e-10
        assert dae_analysis.hidden_constraint_residual(
            ops3_qs, w0, p0, fdot(0.0), g(0.0)) <= 1e-10

    def test_explicit_constraint_holds_along_trajectory(self, ops2):
        # spec-level drift check on the n=2 mesh over 50 steps
        ops = make_ops(2, rho=0.0)
        v, f, fdot, g = linear_data(ops, seed=4)
        rng = np.random.default_rng(5)
        p0 = rng.uniform(-1.0, 1.0, ops.dim_p)
        z0 = consistent_state(ops, p0, f, fdot, g)
        sys = formulations.build_quasi_static(ops)
        grid = np.linspace(0.0, 1.0, 51)
        traj = timeint.integrate_midpoint(sys, z0, v, grid)
        for k, t in enumerate(grid):
            u = traj.states[k][sys.state_slice("u")]
            p = traj.states[k][sys.state_slice("p")]
            resid = np.linalg.norm(ops.stiff_elast @ u
                                   - ops.div_coupling[0].T @ p - f(t))
            assert resid < 1e-9


class TestHiddenConstraint:
    def test_zero_everything(self, ops3_qs):
        assert dae_analysis.hidden_constraint_residual(
            ops3_qs, np.zeros(ops3_qs.dim_u), np.zeros(ops3_qs.dim_p),
            np.zeros(ops3_qs.dim_u), np.zeros(ops3_qs.dim_p)) == 0.0

    def test_perturbation_grows_by_schur_norm(self, ops3_qs):
        v, f, fdot, g = linear_data(ops3_qs, seed=6)
        rng = np.random.default_rng(7)
        p0 = rng.uniform(-1.0, 1.0, ops3_qs.dim_p)
        w0, _ = dae_analysis.consistent_initialization(ops3_qs, p0, f(0.0),
                                                       fdot(0.0), g(0.0))
        delta = rng.standard_normal(ops3_qs.dim_u)
        D = ops3_qs.div_coupling[0]
        schur = ops3_qs.stiff_elast + D.T @ numkit.solve(ops3_qs.mass_storage, D)
        grown = dae_analysis.hidden_constraint_residual(ops3_qs, w0 + delta, p0,
                                                        fdot(0.0), g(0.0))
        assert grown == pytest.approx(np.linalg.norm(schur @ delta), rel=1e-9)

    @pytest.mark.parametrize("networks", [1, 2])
    def test_agrees_with_the_schur_formula(self, networks):
        # K_A w + D^T M^-1 (D w + K p - g) - fdot regrouped around the Schur
        # matrix K_A + D^T M^-1 D
        ops, coupling = ((make_ops(3, rho=0.0), None) if networks == 1
                         else make_network_ops(3, m=2, symmetric=False))
        dbar = formulations.stacked_coupling(ops).toarray()
        mbar = formulations.blocked_storage_mass(ops)
        rng = np.random.default_rng(11)
        w, fdot = rng.standard_normal((2, ops.dim_u))
        p, g = rng.standard_normal((2, dbar.shape[0]))
        schur = ops.stiff_elast + dbar.T @ numkit.solve(mbar, dbar)
        flow = formulations.kbar_matrix(ops, coupling) @ p - g
        expected = np.linalg.norm(schur @ w + dbar.T @ numkit.solve(mbar, flow) - fdot)
        got = dae_analysis.hidden_constraint_residual(ops, w, p, fdot, g, coupling)
        assert got == pytest.approx(expected, rel=1e-12)


class TestOutputFeedbackRegularization:
    @pytest.fixture()
    def qs_system(self, ops3_qs):
        return formulations.build_quasi_static(ops3_qs), ops3_qs.dim_u

    def test_negative_identity_regularizes(self, qs_system):
        sys, du = qs_system
        closed = dae_analysis.regularize_output_feedback(sys, -np.eye(du))
        assert phdae.validate_structure(closed).verdict
        assert classify_phdae_index(closed).label == "1"

    def test_zero_gain_is_identity_operation(self, qs_system):
        sys, du = qs_system
        closed = dae_analysis.regularize_output_feedback(sys, np.zeros((du, du)))
        assert np.array_equal(closed.J, sys.J)
        assert np.array_equal(closed.R, sys.R)
        assert classify_phdae_index(closed).label == "at_least_2"

    def test_positive_identity_breaks_structure_but_regularizes(self, qs_system):
        sys, du = qs_system
        closed = dae_analysis.regularize_output_feedback(sys, np.eye(du))
        assert classify_phdae_index(closed).label == "1"
        report = phdae.validate_structure(closed)
        assert not report.verdict
        assert report.r_report.verdict == "indefinite"

    def test_dimension_mismatch_rejected(self, qs_system):
        sys, du = qs_system
        with pytest.raises(ValueError):
            dae_analysis.regularize_output_feedback(sys, np.eye(du + 1))

    def test_dissipative_gains_never_degrade_structure(self, qs_system):
        sys, du = qs_system
        rng = np.random.default_rng(8)
        for _ in range(5):
            W = rng.standard_normal((du, du))
            F11 = -(W.T @ W + 0.1 * np.eye(du))
            closed = dae_analysis.regularize_output_feedback(sys, F11)
            assert phdae.validate_structure(closed).verdict


class TestInitializationResidualCheck:
    def test_corrupted_solve_still_raises(self, ops3_qs, monkeypatch):
        v, f, fdot, g = linear_data(ops3_qs, seed=2)
        p0 = np.linspace(-1.0, 1.0, ops3_qs.dim_p)
        real = numkit.solve
        monkeypatch.setattr(numkit, "solve", lambda M, b: real(M, b) * (1.0 + 1e-6))
        with pytest.raises(numkit.SingularMatrixError, match="did not converge"):
            dae_analysis.consistent_initialization(ops3_qs, p0, f(0.0), fdot(0.0), g(0.0))
