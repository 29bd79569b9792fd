import numpy as np
import pytest

from phporo import dae_analysis, formulations, numkit, phdae, timeint
from phporo.formulations import NetworkCoupling
from phporo.numkit import StructureError

import oracle
from conftest import (
    consistent_state,
    linear_data,
    make_material,
    make_network_ops,
    make_ops,
    random_coupling,
)


class TestNetworkCoupling:
    def test_row_sums_enforced(self):
        with pytest.raises(ValueError):
            NetworkCoupling(np.array([[0.5, -0.2], [0.1, -0.1]]))

    def test_from_exchange_rates(self):
        B = NetworkCoupling.from_exchange_rates(np.array([[0.0, 0.3], [0.1, 0.0]]))
        assert np.allclose(B.exchange.sum(axis=1), 0.0, atol=1e-15)
        assert B.exchange[0, 1] == 0.3 and B.exchange[0, 0] == -0.3
        assert not B.is_symmetric

    def test_single_network_coupling_is_zero(self):
        B = NetworkCoupling.from_exchange_rates(np.array([[3.0]]))
        assert not B.exchange.any()


class TestAssembleTwoField:
    def test_quasi_static_density_zeroes_mass(self, mesh2):
        ops = formulations.assemble_two_field(mesh2, make_material(rho=0.0))
        assert not ops.mass_rho.any()

    def test_zero_coupling_decouples(self, mesh2):
        ops = formulations.assemble_two_field(mesh2, make_material(alpha=0.0))
        assert not ops.div_coupling[0].any()

    def test_n2_dimensions(self, ops2):
        assert ops2.networks == 1
        assert ops2.mass_rho.shape == (2, 2)
        assert ops2.stiff_elast.shape == (2, 2)
        assert ops2.mass_storage.shape == (1, 1)
        assert ops2.div_coupling[0].shape == (1, 2)


class TestFullFirstOrder:
    def test_zero_coupling_keeps_skew_drift(self, mesh2):
        ops = formulations.assemble_two_field(mesh2, make_material(alpha=0.0))
        sys = formulations.build_full_first_order(ops)
        assert numkit.skew_defect(sys.J) == 0.0
        assert not sys.J[sys.state_slice("w"), sys.state_slice("p")].any()

    @pytest.mark.parametrize("n", [2, 3])
    def test_positive_density_gives_definite_e(self, n):
        sys = formulations.build_full_first_order(make_ops(n))
        assert numkit.psd_check(sys.E).verdict == "positive_definite"

    def test_block_layout(self, ops3):
        sys = formulations.build_full_first_order(ops3)
        assert np.array_equal(sys.E[sys.state_slice("u"), sys.state_slice("u")],
                              ops3.stiff_elast)
        assert np.array_equal(sys.J[sys.state_slice("w"), sys.state_slice("p")],
                              ops3.div_coupling[0].T)
        assert np.array_equal(sys.R[sys.state_slice("p"), sys.state_slice("p")],
                              ops3.stiff_flow[0])
        assert np.array_equal(sys.G[sys.state_slice("w"), sys.input_slice("f")],
                              ops3.mass_u)

    def test_requires_single_network(self):
        ops, _ = make_network_ops(2, m=2)
        with pytest.raises(ValueError):
            formulations.build_full_first_order(ops)


class TestSqrtFormulation:
    def test_hamiltonian_agreement(self, ops2):
        full = formulations.build_full_first_order(ops2)
        sqrt = formulations.build_sqrt_formulation(ops2)
        S = numkit.sqrtm_spd(ops2.stiff_elast)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.standard_normal(full.state_dim)
            mapped = z.copy()
            u = full.state_slice("u")
            mapped[u] = S @ z[u]
            assert phdae.hamiltonian(sqrt, mapped) == pytest.approx(
                phdae.hamiltonian(full, z), rel=1e-12
            )

    def test_outputs_coincide(self, ops2):
        full = formulations.build_full_first_order(ops2)
        sqrt = formulations.build_sqrt_formulation(ops2)
        assert np.array_equal(full.G, sqrt.G)

    def test_trajectories_map_onto_each_other(self, ops2):
        v, f, fdot, g = linear_data(ops2, seed=1)
        S = numkit.sqrtm_spd(ops2.stiff_elast)
        full = formulations.build_full_first_order(ops2)
        sqrt = formulations.build_sqrt_formulation(ops2)
        p0 = np.array([0.8])
        z0 = consistent_state(ops2, p0, f, fdot, g)
        z0s = z0.copy()
        z0s[full.state_slice("u")] = S @ z0[full.state_slice("u")]
        grid = np.linspace(0.0, 1.0, 21)
        tf = timeint.integrate_midpoint(full, z0, v, grid)
        ts = timeint.integrate_midpoint(sqrt, z0s, v, grid)
        mapped = tf.states.copy()
        mapped[:, full.state_slice("u")] = tf.states[:, full.state_slice("u")] @ S.T
        assert np.max(np.abs(mapped - ts.states)) < 1e-9


class TestQuasiStatic:
    def test_e_rank_counts_u_and_p(self, ops2):
        sys = formulations.build_quasi_static(ops2)
        rank = np.linalg.matrix_rank(sys.E)
        assert rank == ops2.dim_u + ops2.dim_p

    def test_index_two(self, ops2):
        sys = formulations.build_quasi_static(ops2)
        assert dae_analysis.classify_phdae_index(sys).label == "at_least_2"

    def test_pressure_matches_schur_reduction(self, ops3):
        v, f, fdot, g = linear_data(ops3, seed=2)
        rng = np.random.default_rng(3)
        p0 = rng.uniform(-1.0, 1.0, ops3.dim_p)
        z0 = consistent_state(ops3, p0, f, fdot, g)
        grid = np.linspace(0.0, 1.0, 51)
        qs = formulations.build_quasi_static(ops3)
        tq = timeint.integrate_midpoint(qs, z0, v, grid)
        red = formulations.schur_reduce_parabolic(ops3, f, fdot, g)
        tr = timeint.integrate_midpoint(red.as_phdae(), p0, red.g_tilde, grid)
        dev = np.max(np.abs(tq.states[:, qs.state_slice("p")] - tr.states))
        assert dev < 1e-8


class TestAlternativeQuasiStatic:
    def test_hamiltonian_equals_half_pairing(self, ops3):
        sys = formulations.build_alternative_qs(ops3)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(ops3.dim_u)
        p = rng.standard_normal(ops3.dim_p)
        rhs = ops3.div_coupling[0] @ u + ops3.mass_storage @ p
        q = numkit.solve(ops3.stiff_flow[0], rhs)
        z = np.concatenate([u, p, q])
        assert phdae.hamiltonian(sys, z) == pytest.approx(0.5 * rhs @ q, rel=1e-12)

    def test_change_of_variables_matrices_invert(self, ops3):
        K = ops3.stiff_flow[0]
        M = ops3.mass_storage
        D = ops3.div_coupling[0]
        du, dp = ops3.dim_u, ops3.dim_p
        fwd = np.block([
            [np.eye(du), np.zeros((du, dp))],
            [numkit.solve(K, D), numkit.solve(K, M)],
        ])
        bwd = np.block([
            [np.eye(du), np.zeros((du, dp))],
            [-numkit.solve(M, D), numkit.solve(M, K)],
        ])
        assert np.allclose(fwd @ bwd, np.eye(du + dp), atol=1e-12)
        assert np.allclose(bwd @ fwd, np.eye(du + dp), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_schur_elimination_reproduces_reduced_drift(self, n):
        # eliminating the algebraic pressure row of the (u, p, q) drift must
        # reproduce the two-variable (u, r) system matrix
        ops = make_ops(n, rho=0.0)
        K = ops.stiff_flow[0]
        M = ops.mass_storage
        D = ops.div_coupling[0]
        minv_d = numkit.solve(M, D)
        minv_k = numkit.solve(M, K)
        # substitution p = M^-1 (K q - D u) into the u and q drift rows
        eliminated = np.block([
            [-ops.stiff_elast - D.T @ minv_d, D.T @ minv_k],
            [K @ minv_d, -K @ minv_k],
        ])
        target = np.block([
            [-ops.stiff_elast - D.T @ numkit.solve(M, D), D.T @ numkit.solve(M, K)],
            [K @ numkit.solve(M, D), -K @ numkit.solve(M, K)],
        ])
        assert np.max(np.abs(eliminated - target)) <= 1e-14 * (1 + np.max(np.abs(target)))
        # the eliminated system matrix is self-adjoint and dissipative
        assert numkit.symmetry_defect(eliminated) <= 1e-12
        assert numkit.psd_check(-eliminated, require_symmetric=False).is_semidefinite

    def test_matches_quasi_static_after_change_of_variables(self, ops3):
        v, f, fdot, g = linear_data(ops3, seed=5)
        rng = np.random.default_rng(6)
        p0 = rng.uniform(-1.0, 1.0, ops3.dim_p)
        grid = np.linspace(0.0, 1.0, 51)
        qs = formulations.build_quasi_static(ops3)
        z0 = consistent_state(ops3, p0, f, fdot, g)
        tq = timeint.integrate_midpoint(qs, z0, v, grid)
        alt = formulations.build_alternative_qs(ops3)
        u0, q0 = formulations.alternative_qs_initialization(ops3, p0, f(0.0))
        ta = timeint.integrate_midpoint(alt, np.concatenate([u0, p0, q0]), v, grid)
        for label in ("u", "p"):
            dev = np.max(np.abs(tq.states[:, qs.state_slice(label)]
                                - ta.states[:, alt.state_slice(label)]))
            assert dev < 1e-8

    def test_nonsymmetric_coupling_rejected(self):
        ops, B = make_network_ops(2, m=2, symmetric=False)
        assert not B.is_symmetric
        with pytest.raises(StructureError):
            formulations.build_alternative_qs(ops, B)

    def test_symmetric_network_variant_builds(self):
        ops, B = make_network_ops(2, m=3, symmetric=True)
        sys = formulations.build_alternative_qs(ops, B)
        assert phdae.validate_structure(sys).verdict


class TestSchurReduction:
    def test_zero_coupling_collapses_to_storage_mass(self, mesh3):
        ops = formulations.assemble_two_field(mesh3, make_material(alpha=0.0))
        g = lambda t: np.zeros(ops.dim_p)
        f = lambda t: np.zeros(ops.dim_u)
        red = formulations.schur_reduce_parabolic(ops, f, f, g)
        assert np.array_equal(red.mass, ops.mass_storage)
        assert np.array_equal(red.g_tilde(0.3), g(0.3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_modified_mass_positive_definite(self, n):
        ops = make_ops(n, rho=0.0)
        zero_u = lambda t: np.zeros(ops.dim_u)
        zero_p = lambda t: np.zeros(ops.dim_p)
        red = formulations.schur_reduce_parabolic(ops, zero_u, zero_u, zero_p)
        assert numkit.psd_check(red.mass).verdict == "positive_definite"

    def test_displacement_recovery_solves_elliptic_system(self, ops3):
        v, f, fdot, g = linear_data(ops3, seed=7)
        red = formulations.schur_reduce_parabolic(ops3, f, fdot, g)
        rng = np.random.default_rng(8)
        p = rng.standard_normal(ops3.dim_p)
        u = red.recover_displacement(p, 0.5)
        resid = ops3.stiff_elast @ u - ops3.div_coupling[0].T @ p - f(0.5)
        assert np.linalg.norm(resid) <= 1e-12


class TestNetworkAssembly:
    def test_zero_coupling_block_diagonal(self):
        ops, _ = make_network_ops(2, m=2)
        B0 = NetworkCoupling(np.zeros((2, 2)))
        kbar = formulations.kbar_matrix(ops, B0).toarray()
        assert np.array_equal(kbar, numkit.block_diag(*ops.stiff_flow))

    def test_symmetric_pair_block_structure(self):
        ops, _ = make_network_ops(2, m=2)
        beta = 0.125  # power of two so the kron products are exact
        B = NetworkCoupling(np.array([[-beta, beta], [beta, -beta]]))
        kbar = formulations.kbar_matrix(ops, B).toarray()
        dp = ops.dim_p
        assert np.array_equal(kbar[:dp, dp:], beta * ops.mass_p)
        assert np.array_equal(kbar[dp:, :dp], beta * ops.mass_p)
        assert np.array_equal(kbar[:dp, :dp], ops.stiff_flow[0] - beta * ops.mass_p)

    def test_quadratic_form_identity(self):
        # the coupled flow operator and its symmetrized-coupling counterpart
        # define the same quadratic form (the symmetric part of a zero-row-sum
        # matrix need not have zero row sums, so it is formed directly)
        ops, B = make_network_ops(3, m=3, symmetric=False, seed=3)
        bsym = 0.5 * (B.exchange + B.exchange.T)
        ka = formulations.kbar_matrix(ops, B)
        ks = numkit.block_diag(*ops.stiff_flow) + np.kron(bsym, ops.mass_p)
        rng = np.random.default_rng(9)
        scale = np.max(np.abs(ka))
        for _ in range(100):
            z = rng.standard_normal(ka.shape[0])
            lhs = z @ ka @ z
            rhs = z @ ks @ z
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, scale * (z @ z))

    def test_material_sharing_enforced(self, mesh2):
        mats = [make_material(), make_material(mu=2.0)]
        B = NetworkCoupling(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            formulations.assemble_network(mesh2, mats, B)

    def test_coupling_dimension_enforced(self, mesh2):
        mats = [make_material(), make_material()]
        with pytest.raises(ValueError):
            formulations.assemble_network(mesh2, mats, NetworkCoupling(np.zeros((3, 3))))


class TestNetworkEllipticity:
    def test_uncoupled_network_is_elliptic(self):
        ops, _ = make_network_ops(2, m=2)
        report = formulations.check_network_ellipticity(ops, NetworkCoupling(np.zeros((2, 2))))
        assert report.elliptic
        assert report.min_sym_eigenvalue > 0
        assert report.max_offdiag_rate == 0.0

    def test_sufficient_bound_implies_definiteness(self):
        # the implication is tested in one direction only
        ops, B = make_network_ops(3, m=2, symmetric=True, scale=0.01)
        report = formulations.check_network_ellipticity(ops, B)
        if report.bound_satisfied:
            assert report.elliptic

    def test_large_rates_break_definiteness(self):
        ops, _ = make_network_ops(3, m=2)
        rng = np.random.default_rng(10)
        Bbig = random_coupling(rng, 2, scale=1e6, symmetric=True)
        report = formulations.check_network_ellipticity(ops, Bbig)
        assert not report.elliptic
        assert report.min_sym_eigenvalue < 0
        with pytest.raises(StructureError):
            formulations.build_network_ph(ops, Bbig)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
def test_ellipticity_constants_agree_with_dense_spectra(n, m, symmetric):
    ops, B = make_network_ops(n, m=m, symmetric=symmetric, seed=n)
    oversized = random_coupling(np.random.default_rng(n), m, scale=1e6, symmetric=symmetric)
    for coupling, elliptic in ((B, True), (oversized, False)):
        report = formulations.check_network_ellipticity(ops, coupling)
        got = (report.min_sym_eigenvalue, report.ellipticity_constant,
               report.embedding_constant_sq)
        for value, want in zip(got, oracle.dense_ellipticity(ops, coupling.exchange)):
            assert abs(value - want) <= 1e-10 * abs(want)
        assert report.elliptic is elliptic
        assert (report.min_sym_eigenvalue > 0) is elliptic


class TestNetworkPh:
    def test_single_network_reduces_to_two_field(self, ops2):
        net = formulations.build_network_ph(ops2, NetworkCoupling(np.zeros((1, 1))))
        full = formulations.build_full_first_order(ops2)
        for name in ("E", "J", "R", "G"):
            assert np.array_equal(getattr(net, name), getattr(full, name))

    def test_symmetric_coupling_lands_in_r(self):
        ops, B = make_network_ops(2, m=2, symmetric=True)
        sys = formulations.build_network_ph(ops, B)
        p = sys.state_slice("p")
        assert not sys.J[p, p].any()
        assert np.allclose(sys.R[p, p], formulations.kbar_matrix(ops, B).toarray(), atol=1e-14)

    def test_nonsymmetric_coupling_splits(self):
        ops, B = make_network_ops(2, m=2, symmetric=False)
        sys = formulations.build_network_ph(ops, B)
        p = sys.state_slice("p")
        bskew = 0.5 * (B.exchange - B.exchange.T)
        assert np.allclose(sys.J[p, p], -np.kron(bskew, ops.mass_p), atol=1e-15)
        assert phdae.validate_structure(sys).verdict

    def test_brain_scenario_dissipates(self):
        # four pressure networks, no external forcing, rho = 0: the system is
        # driven only by its initial pressure differences and must decay
        ops, B = make_network_ops(2, m=4, rho=0.0, symmetric=True, seed=11)
        sys = formulations.build_quasi_static(ops, B)
        rng = np.random.default_rng(12)
        p0 = rng.standard_normal(4 * ops.dim_p)
        z0 = consistent_state(ops, p0, lambda t: np.zeros(ops.dim_u),
                              lambda t: np.zeros(ops.dim_u),
                              lambda t: np.zeros(4 * ops.dim_p), coupling=B)
        traj = timeint.integrate_midpoint(sys, z0, None, np.linspace(0.0, 1.0, 201))
        assert traj.hamiltonian_nonincreasing()
        assert traj.hamiltonian[-1] < traj.hamiltonian[0]
