import re

import numpy as np
import pytest

from phporo import fem, numkit
from phporo.fem import BoundViolationError

import oracle

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestMesh:
    def test_minimal_mesh_counts(self):
        mesh = fem.build_unit_square_mesh(1)
        assert len(mesh.nodes) == 4
        assert len(mesh.triangles) == 2
        assert len(mesh.boundary_nodes) == 4
        assert len(mesh.interior_nodes) == 0

    def test_n2_counts(self):
        mesh = fem.build_unit_square_mesh(2)
        assert len(mesh.nodes) == 9
        assert len(mesh.triangles) == 8
        assert len(mesh.interior_nodes) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_counts_and_orientation(self, n):
        mesh = fem.build_unit_square_mesh(n)
        assert len(mesh.nodes) == (n + 1) ** 2
        assert len(mesh.triangles) == 2 * n * n
        for tri in mesh.triangles:
            assert fem.triangle_area(mesh.nodes[tri]) > 0

    def test_total_area_partitions_square(self):
        mesh = fem.build_unit_square_mesh(4)
        total = sum(fem.triangle_area(mesh.nodes[t]) for t in mesh.triangles)
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_boundary_detection(self):
        mesh = fem.build_unit_square_mesh(3)
        for i, (x, y) in enumerate(mesh.nodes):
            expected = x in (0.0, 1.0) or y in (0.0, 1.0)
            assert (i in mesh.boundary_nodes) == expected

    def test_zero_subdivisions_rejected(self):
        with pytest.raises(ValueError):
            fem.build_unit_square_mesh(0)

    def test_text_export(self, tmp_path):
        mesh = fem.build_unit_square_mesh(2)
        path = tmp_path / "mesh.txt"
        fem.write_mesh_text(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "nodes 9"
        assert lines[10] == "triangles 8"
        assert len(lines) == 1 + 9 + 1 + 8

    def test_text_export_reads_back_exactly(self, tmp_path):
        mesh = fem.build_unit_square_mesh(3)
        path = tmp_path / "mesh.txt"
        fem.write_mesh_text(mesh, path)
        lines = path.read_text().splitlines()
        nodes = np.array([[float(v) for v in line.split()] for line in lines[1:17]])
        triangles = np.array([[int(v) for v in line.split()] for line in lines[18:]])
        assert np.array_equal(nodes, mesh.nodes)
        assert np.array_equal(triangles, mesh.triangles)


class TestSpaces:
    def test_dims(self, mesh3):
        assert fem.scalar_space(mesh3).dim == 4
        assert fem.vector_space(mesh3).dim == 8

    def test_free_dofs_exclude_boundary(self, mesh3):
        space = fem.scalar_space(mesh3)
        assert not set(space.free_nodes) & set(mesh3.boundary_nodes)


class TestMaterial:
    def test_quasi_static_density_allowed(self):
        fem.PoroMaterial(rho=0.0, mu=1.0, lam=0.0, alpha=0.0,
                         biot_M=1.0, kappa=1.0, nu=1.0)

    @pytest.mark.parametrize("bad", [
        dict(rho=-1.0), dict(mu=0.0), dict(lam=-0.1), dict(alpha=-1.0),
        dict(biot_M=0.0), dict(kappa=-2.0), dict(nu=0.0), dict(rho=np.inf),
    ])
    def test_invalid_coefficients(self, bad):
        base = dict(rho=1.0, mu=1.0, lam=1.0, alpha=1.0, biot_M=1.0, kappa=1.0, nu=1.0)
        base.update(bad)
        with pytest.raises(ValueError):
            fem.PoroMaterial(**base)


class TestLocalMatrices:
    def test_reference_stiffness_golden(self):
        golden = 0.5 * np.array([
            [2.0, -1.0, -1.0],
            [-1.0, 1.0, 0.0],
            [-1.0, 0.0, 1.0],
        ])
        assert np.array_equal(fem.element_stiffness(REF_TRIANGLE, 1.0), golden)
        assert np.allclose(oracle.local_stiffness(REF_TRIANGLE), golden, atol=1e-15)

    def test_local_mass_golden(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            coords = rng.uniform(0.0, 1.0, (3, 2))
            if fem.triangle_area(coords) <= 1e-3:
                continue
            area = fem.triangle_area(coords)
            coeff = float(rng.uniform(0.1, 3.0))
            golden = (coeff * area / 12.0) * np.array([
                [2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0],
            ])
            assert np.array_equal(fem.element_mass(coords, coeff), golden)
            assert np.allclose(oracle.local_mass(coords, coeff), golden, atol=1e-14)

    def test_stiffness_scaling_exact_power_of_two(self):
        assert np.array_equal(fem.element_stiffness(REF_TRIANGLE, 2.0),
                              2.0 * fem.element_stiffness(REF_TRIANGLE, 1.0))

    def test_rigid_translation_has_zero_energy(self):
        rng = np.random.default_rng(2)
        ones = np.ones(6)  # constant displacement in both components
        for _ in range(10):
            coords = rng.uniform(0.0, 1.0, (3, 2))
            if fem.triangle_area(coords) <= 1e-3:
                continue
            K = fem.element_elasticity(coords, mu=1.3, lam=0.7)
            assert abs(ones @ K @ ones) <= 1e-12

    def test_elasticity_without_lambda_is_strain_gram(self):
        rng = np.random.default_rng(3)
        mu = 1.7
        for _ in range(5):
            coords = rng.uniform(0.0, 1.0, (3, 2))
            if fem.triangle_area(coords) <= 1e-3:
                continue
            gram = oracle.local_elasticity(coords, mu=0.5, lam=0.0)  # int eps:eps
            assert np.allclose(fem.element_elasticity(coords, mu, 0.0),
                               2.0 * mu * gram, atol=1e-12)

    def test_local_divergence_row_structure(self):
        local = fem.element_divergence(REF_TRIANGLE, alpha=2.0)
        assert np.allclose(local, oracle.local_divergence(REF_TRIANGLE, alpha=2.0),
                           atol=1e-14)
        # all pressure rows share the constant divergence value
        assert np.allclose(local[0], local[1]) and np.allclose(local[1], local[2])


class TestAssembly:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mass_matches_oracle(self, n):
        mesh = fem.build_unit_square_mesh(n)
        for space in (fem.scalar_space(mesh), fem.vector_space(mesh)):
            A = fem.assemble_mass(space, 1.7).toarray()
            assert np.allclose(A, oracle.assemble_mass(space, 1.7), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_laplace_matches_oracle(self, n):
        mesh = fem.build_unit_square_mesh(n)
        space = fem.scalar_space(mesh)
        A = fem.assemble_laplace(space, 0.9).toarray()
        assert np.allclose(A, oracle.assemble_laplace(space, 0.9), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_elasticity_matches_oracle(self, n):
        mesh = fem.build_unit_square_mesh(n)
        space = fem.vector_space(mesh)
        A = fem.assemble_elasticity(space, 1.2, 0.8).toarray()
        assert np.allclose(A, oracle.assemble_elasticity(space, 1.2, 0.8), atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_divergence_matches_oracle(self, n):
        mesh = fem.build_unit_square_mesh(n)
        vsp, qsp = fem.vector_space(mesh), fem.scalar_space(mesh)
        D = fem.assemble_divergence_coupling(vsp, qsp, 1.4).toarray()
        assert np.allclose(D, oracle.assemble_divergence(vsp, qsp, 1.4), atol=1e-14)

    def test_interior_laplacian_value(self):
        mesh = fem.build_unit_square_mesh(2)
        K = fem.assemble_laplace(fem.scalar_space(mesh), 1.0)
        assert K.shape == (1, 1)
        assert abs(K[0, 0] - 4.0) <= 1e-13

    def test_interior_mass_sums_incident_triangles(self):
        # the single interior node of n=2 touches six triangles
        mesh = fem.build_unit_square_mesh(2)
        space = fem.scalar_space(mesh)
        node = space.free_nodes[0]
        incident = [t for t in mesh.triangles if node in t]
        assert len(incident) == 6
        expected = sum(
            oracle.local_mass(mesh.nodes[t])[list(t).index(node), list(t).index(node)]
            for t in incident
        )
        M = fem.assemble_mass(space, 1.0)
        assert M[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_zero_coefficient_mass(self, mesh3):
        assert fem.assemble_mass(fem.scalar_space(mesh3), 0.0).nnz == 0

    def test_negative_mass_coefficient_rejected(self, mesh3):
        with pytest.raises(ValueError):
            fem.assemble_mass(fem.scalar_space(mesh3), -1.0)

    def test_laplace_requires_scalar_space_and_positive_coeff(self, mesh3):
        with pytest.raises(ValueError):
            fem.assemble_laplace(fem.vector_space(mesh3), 1.0)
        with pytest.raises(ValueError):
            fem.assemble_laplace(fem.scalar_space(mesh3), 0.0)

    def test_elasticity_requires_vector_space(self, mesh3):
        with pytest.raises(ValueError):
            fem.assemble_elasticity(fem.scalar_space(mesh3), 1.0, 1.0)

    def test_divergence_space_checks(self, mesh3):
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        with pytest.raises(ValueError):
            fem.assemble_divergence_coupling(qsp, qsp, 1.0)
        other = fem.build_unit_square_mesh(3)
        with pytest.raises(ValueError):
            fem.assemble_divergence_coupling(vsp, fem.scalar_space(other), 1.0)

    def test_divergence_zero_and_doubling(self, mesh3):
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        assert fem.assemble_divergence_coupling(vsp, qsp, 0.0).nnz == 0
        D1 = fem.assemble_divergence_coupling(vsp, qsp, 1.3).toarray()
        D2 = fem.assemble_divergence_coupling(vsp, qsp, 2.6).toarray()
        assert np.array_equal(D2, 2.0 * D1)

    def test_divergence_of_affine_field_reproduces_basis_integrals(self):
        # u(x, y) = (x, y) has divergence 2; applying the unconstrained
        # coupling to its nodal interpolant must give 2 alpha int psi_i on
        # interior rows (computed before Dirichlet elimination)
        mesh = fem.build_unit_square_mesh(2)
        qsp = fem.scalar_space(mesh)
        alpha = 0.75
        N = len(mesh.nodes)
        D_all = oracle.assemble_divergence_all_nodes(mesh, alpha)
        u_full = np.concatenate([mesh.nodes[:, 0], mesh.nodes[:, 1]])
        result = D_all @ u_full
        expected = np.zeros(N)
        expected[qsp.free_nodes] = 2.0 * alpha * oracle.node_basis_integrals(qsp)
        for node in qsp.free_nodes:
            assert result[node] == pytest.approx(expected[node], abs=1e-14)

    def test_symmetry_of_assembled_matrices(self, mesh3):
        qsp, vsp = fem.scalar_space(mesh3), fem.vector_space(mesh3)
        for M in (fem.assemble_mass(qsp, 2.0), fem.assemble_mass(vsp, 1.0),
                  fem.assemble_laplace(qsp, 1.5), fem.assemble_elasticity(vsp, 1.0, 2.0)):
            scale = np.max(np.abs(M))
            assert numkit.symmetry_defect(M) <= 1e-13 * scale

    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_stiffness_definiteness_across_resolutions(self, n):
        mesh = fem.build_unit_square_mesh(n)
        qsp, vsp = fem.scalar_space(mesh), fem.vector_space(mesh)
        assert numkit.psd_check(fem.assemble_laplace(qsp, 0.7)).verdict == "positive_definite"
        assert numkit.psd_check(fem.assemble_elasticity(vsp, 1.0, 0.5)).verdict == "positive_definite"

    def test_refinement_mass_approaches_one(self):
        totals = []
        for n in (1, 2, 4, 8):
            space = fem.scalar_space(fem.build_unit_square_mesh(n))
            M = fem.assemble_mass(space, 1.0)
            ones = np.ones(space.dim)
            totals.append(float(ones @ M @ ones) if space.dim else 0.0)
        assert all(a < b for a, b in zip(totals, totals[1:]))
        assert totals[-1] < 1.0


class TestLoad:
    def test_zero_density(self, mesh3):
        space = fem.scalar_space(mesh3)
        assert not fem.assemble_load(space, lambda x, y: 0.0).any()

    def test_unit_density_gives_basis_integrals(self, mesh3):
        space = fem.scalar_space(mesh3)
        load = fem.assemble_load(space, lambda x, y: 1.0)
        assert np.allclose(load, oracle.node_basis_integrals(space), atol=1e-15)

    def test_linearity(self, mesh3):
        space = fem.scalar_space(mesh3)
        f = lambda x, y: x * x + 0.3
        g = lambda x, y: np.sin(3 * y)
        combined = fem.assemble_load(space, lambda x, y: f(x, y) + g(x, y))
        separate = fem.assemble_load(space, f) + fem.assemble_load(space, g)
        assert np.allclose(combined, separate, rtol=1e-14, atol=1e-16)

    def test_vector_load_matches_oracle(self, mesh3):
        space = fem.vector_space(mesh3)
        density = lambda x, y: (x + y, x - y)
        assert np.allclose(fem.assemble_load(space, density),
                           oracle.assemble_load(space, density), atol=1e-15)


class TestNonlinearPermeability:
    def test_constant_kappa_reduces_to_laplace(self, mesh3):
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        u = np.zeros(vsp.dim)
        A = fem.assemble_nonlinear_permeability(qsp, vsp, u, lambda xi: 2.5, nu=2.0).toarray()
        assert np.array_equal(A, fem.assemble_laplace(qsp, 2.5 / 2.0).toarray())

    def test_zero_displacement_uses_kappa_at_zero(self, mesh3):
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        kappa = lambda xi: 1.0 + xi * xi
        A = fem.assemble_nonlinear_permeability(qsp, vsp, np.zeros(vsp.dim), kappa, nu=1.0).toarray()
        assert np.array_equal(A, fem.assemble_laplace(qsp, 1.0).toarray())

    def test_definite_for_bounded_kappa(self, mesh3):
        rng = np.random.default_rng(9)
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        u = rng.standard_normal(vsp.dim)
        kappa = lambda xi: 1.0 + 0.5 * np.sin(7.0 * xi)
        A = fem.assemble_nonlinear_permeability(qsp, vsp, u, kappa, nu=1.0,
                                                bounds=(0.5, 1.5)).toarray()
        assert numkit.psd_check(A).verdict == "positive_definite"

    def test_nonpositive_kappa_rejected(self, mesh3):
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        with pytest.raises(BoundViolationError):
            fem.assemble_nonlinear_permeability(qsp, vsp, np.zeros(vsp.dim),
                                                lambda xi: 0.0, nu=1.0)

    def test_declared_bounds_enforced(self, mesh3):
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        with pytest.raises(BoundViolationError):
            fem.assemble_nonlinear_permeability(qsp, vsp, np.zeros(vsp.dim),
                                                lambda xi: 2.0, nu=1.0, bounds=(0.5, 1.5))

    def test_elementwise_divergence_matches_oracle(self, mesh3):
        rng = np.random.default_rng(10)
        vsp = fem.vector_space(mesh3)
        u = rng.standard_normal(vsp.dim)
        nfree = len(vsp.free_nodes)
        div = fem.elementwise_divergence(vsp, u)
        for t, tri in enumerate(mesh3.triangles):
            coeffs = oracle.hat_coefficients(mesh3.nodes[tri])
            expected = 0.0
            for a in range(3):
                dof = vsp.node_to_free[tri[a]]
                if dof >= 0:
                    grad = oracle.hat_gradient(coeffs, a)
                    expected += u[dof] * grad[0] + u[dof + nfree] * grad[1]
            assert div[t] == pytest.approx(expected, abs=1e-13)


def _loop_assemble(rspace, cspace, local):
    """Reference scatter: one triangle at a time, entries in local order."""
    def dofs(space, tri):
        nfree = len(space.free_nodes)
        node = space.node_to_free[tri]
        return [d + comp * nfree if d >= 0 else -1
                for comp in range(space.components) for d in node]

    A = np.zeros((rspace.dim, cspace.dim))
    for tri, block in zip(rspace.mesh.triangles, local):
        for i, r in enumerate(dofs(rspace, tri)):
            for j, c in enumerate(dofs(cspace, tri)):
                if r >= 0 and c >= 0:
                    A[r, c] += block[i, j]
    return A


class TestBatchedKernels:
    def test_stack_matches_per_triangle_calls(self, mesh3):
        coords = mesh3.nodes[mesh3.triangles]
        coeffs = np.linspace(0.5, 2.0, len(coords))
        cases = [
            (fem.triangle_area, ()), (fem.p1_gradients, ()),
            (fem.element_mass, (1.7,)), (fem.element_stiffness, (0.9,)),
            (fem.element_elasticity, (1.2, 0.8)), (fem.element_divergence, (1.4,)),
        ]
        for kernel, args in cases:
            single = np.array([kernel(c, *args) for c in coords])
            assert np.array_equal(kernel(coords, *args), single), kernel.__name__
        # per-triangle coefficients, as the nonlinear permeability uses them
        single = np.array([fem.element_stiffness(c, k) for c, k in zip(coords, coeffs)])
        assert np.array_equal(fem.element_stiffness(coords, coeffs), single)

    def test_scatter_sums_in_element_order(self):
        # interior nodes are jittered so that entries are sums of inexact
        # terms, whose rounding depends on the summation order
        rng = np.random.default_rng(13)
        grid = fem.build_unit_square_mesh(4)
        jitter = rng.uniform(-0.05, 0.05, grid.nodes.shape)
        jitter[grid.boundary_nodes] = 0.0
        mesh = fem.Mesh2D(grid.nodes + jitter, grid.triangles, grid.boundary_nodes, 4)
        coords = mesh.nodes[mesh.triangles]
        qsp, vsp = fem.scalar_space(mesh), fem.vector_space(mesh)
        assert np.array_equal(fem.assemble_mass(vsp, 0.3).toarray(), _loop_assemble(
            vsp, vsp, np.kron(np.eye(2), fem.element_mass(coords, 0.3))))
        assert np.array_equal(fem.assemble_laplace(qsp, 0.9).toarray(),
                              _loop_assemble(qsp, qsp, fem.element_stiffness(coords, 0.9)))
        assert np.array_equal(fem.assemble_elasticity(vsp, 1.2, 0.8).toarray(),
                              _loop_assemble(vsp, vsp, fem.element_elasticity(coords, 1.2, 0.8)))
        assert np.array_equal(fem.assemble_divergence_coupling(vsp, qsp, 1.4).toarray(),
                              _loop_assemble(qsp, vsp, fem.element_divergence(coords, 1.4)))
        # the dilatation sums over the local nodes in order, skipping constrained ones
        u = rng.standard_normal(vsp.dim)
        nfree = len(vsp.free_nodes)
        expected = np.zeros(len(coords))
        for t, tri in enumerate(mesh.triangles):
            g = fem.p1_gradients(coords[t])
            for a, dof in enumerate(vsp.node_to_free[tri]):
                if dof >= 0:
                    expected[t] += u[dof] * g[a, 0] + u[dof + nfree] * g[a, 1]
        assert np.array_equal(fem.elementwise_divergence(vsp, u), expected)

    def test_assembly_is_bit_reproducible(self):
        rng = np.random.default_rng(11)
        mesh = fem.build_unit_square_mesh(4)
        qsp, vsp = fem.scalar_space(mesh), fem.vector_space(mesh)
        u = rng.standard_normal(vsp.dim)

        def assemble():
            return [
                fem.assemble_mass(qsp, 1.7).toarray(), fem.assemble_mass(vsp, 0.3).toarray(),
                fem.assemble_laplace(qsp, 0.9).toarray(),
                fem.assemble_elasticity(vsp, 1.2, 0.8).toarray(),
                fem.assemble_divergence_coupling(vsp, qsp, 1.4).toarray(),
                fem.assemble_nonlinear_permeability(qsp, vsp, u, lambda xi: 1.0 + xi * xi, 1.3).toarray(),
                fem.elementwise_divergence(vsp, u),
                fem.assemble_load(vsp, lambda x, y: (np.sin(3 * x), x - y)),
            ]

        for first, second in zip(assemble(), assemble()):
            assert np.array_equal(first, second)


class TestElementGeometryCache:
    """Each space keeps the element geometry of its own mesh."""

    def test_kernels_match_fresh_assembly_on_several_spaces(self):
        rng = np.random.default_rng(40)
        # the jittered mesh has the n = 3 mesh's elements at other coordinates
        meshes = [fem.build_unit_square_mesh(2), fem.build_unit_square_mesh(3),
                  TestPermeabilityCsr.jittered(3, rng)]
        spaces = [(fem.scalar_space(mesh), fem.vector_space(mesh)) for mesh in meshes]
        kappa = lambda xi: 1.0 + 0.3 * np.sin(5.0 * xi)  # noqa: E731
        for _ in range(2):  # the second pass reads the geometry the first kept
            for mesh, (qsp, vsp) in zip(meshes, spaces):
                coords = mesh.nodes[mesh.triangles]
                u = rng.standard_normal(vsp.dim)
                nfree = len(vsp.free_nodes)
                dil = np.zeros(len(coords))
                for t, tri in enumerate(mesh.triangles):
                    g = fem.p1_gradients(coords[t])
                    for a, dof in enumerate(vsp.node_to_free[tri]):
                        if dof >= 0:
                            dil[t] += u[dof] * g[a, 0] + u[dof + nfree] * g[a, 1]
                assert np.array_equal(fem.elementwise_divergence(vsp, u), dil)
                local = fem.element_stiffness(coords, np.array([kappa(d) for d in dil]) / 1.3)
                A = fem.assemble_nonlinear_permeability(qsp, vsp, u, kappa, nu=1.3)
                assert np.array_equal(A.toarray(), _loop_assemble(qsp, qsp, local))


class TestFirstViolatingElement:
    def _setup(self, mesh3):
        rng = np.random.default_rng(12)
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        u = rng.standard_normal(vsp.dim)
        dil = fem.elementwise_divergence(vsp, u)
        # two elements whose dilatation no other element shares
        unique = [t for t in range(len(dil)) if np.sum(dil == dil[t]) == 1]
        return vsp, qsp, u, dil, unique[2], unique[5]

    def test_nonpositive_values_name_the_first_element(self, mesh3):
        vsp, qsp, u, dil, first, second = self._setup(mesh3)
        kappa = lambda xi: -1.0 if xi in (dil[first], dil[second]) else 1.0
        with pytest.raises(BoundViolationError, match=re.escape(f"dilatation {dil[first]:.3e} ")):
            fem.assemble_nonlinear_permeability(qsp, vsp, u, kappa, nu=1.0)

    def test_bound_violation_before_nonpositive_value(self, mesh3):
        vsp, qsp, u, dil, first, second = self._setup(mesh3)
        kappa = lambda xi: {dil[first]: 5.0, dil[second]: 0.0}.get(xi, 1.0)
        with pytest.raises(BoundViolationError,
                           match=r"permeability 5\.000e\+00 leaves the declared bounds"):
            fem.assemble_nonlinear_permeability(qsp, vsp, u, kappa, nu=1.0,
                                                bounds=(0.5, 1.5))


class TestPermeabilityCsr:
    """The nonlinear permeability block is CSR on the structural P1 stencil."""

    @staticmethod
    def jittered(n, rng):
        # inexact entries, so that the sums' rounding depends on their order
        grid = fem.build_unit_square_mesh(n)
        jitter = rng.uniform(-0.05 / n, 0.05 / n, grid.nodes.shape)
        jitter[grid.boundary_nodes] = 0.0
        return fem.Mesh2D(grid.nodes + jitter, grid.triangles, grid.boundary_nodes, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_dense_element_order_sum(self, n):
        rng = np.random.default_rng(30 + n)
        mesh = self.jittered(n, rng)
        qsp, vsp = fem.scalar_space(mesh), fem.vector_space(mesh)
        u = rng.standard_normal(vsp.dim)
        kappa = lambda xi: 1.0 + 0.3 * np.sin(5.0 * xi)
        A = fem.assemble_nonlinear_permeability(qsp, vsp, u, kappa, nu=1.3)
        coeff = np.array([kappa(d) for d in fem.elementwise_divergence(vsp, u)]) / 1.3
        local = fem.element_stiffness(mesh.nodes[mesh.triangles], coeff)
        assert A.format == "csr" and A.shape == (qsp.dim, qsp.dim)
        assert np.array_equal(A.toarray(), _loop_assemble(qsp, qsp, local))

    def test_pattern_does_not_depend_on_the_displacement(self, mesh3):
        rng = np.random.default_rng(35)
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        kappa = lambda xi: 1.0 + xi * xi
        first, second = (fem.assemble_nonlinear_permeability(qsp, vsp, u, kappa, nu=1.0)
                         for u in (np.zeros(vsp.dim), rng.standard_normal(vsp.dim)))
        assert not np.array_equal(first.data, second.data)
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)
        # the stencil keeps the entries whose element sums vanish
        assert first.nnz > np.count_nonzero(first.toarray())

    def test_bound_violation_messages(self, mesh3):
        vsp, qsp = fem.vector_space(mesh3), fem.scalar_space(mesh3)
        u = np.zeros(vsp.dim)
        with pytest.raises(BoundViolationError) as info:
            fem.assemble_nonlinear_permeability(qsp, vsp, u, lambda xi: -0.0, nu=1.0)
        assert str(info.value) == "permeability -0.0 at dilatation 0.000e+00 is not positive"
        with pytest.raises(BoundViolationError) as info:
            fem.assemble_nonlinear_permeability(qsp, vsp, u, lambda xi: 2.0, nu=1.0,
                                                bounds=(0.5, 1.5))
        assert str(info.value) == "permeability 2.000e+00 leaves the declared bounds (0.5, 1.5)"
