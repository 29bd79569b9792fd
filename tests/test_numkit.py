import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.io import mmwrite
from scipy.sparse import csc_array, csr_array

from phporo import fem, formulations, numkit
from phporo.numkit import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    SingularMatrixError,
    StructureError,
)

import oracle


def test_is_symmetric_identity():
    assert numkit.is_symmetric(np.eye(3), 1e-12)


def test_is_symmetric_skew_counterexample():
    assert not numkit.is_symmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1e-12)


def test_is_symmetric_below_tolerance():
    M = np.array([[2.0, 1.0 + 5e-13], [1.0, 2.0]])
    assert numkit.is_symmetric(M, 1e-12)
    assert not numkit.is_symmetric(M, 1e-14)


def test_is_symmetric_rejects_nonsquare():
    with pytest.raises(ValueError):
        numkit.is_symmetric(np.zeros((2, 3)))


def test_is_skew_basic():
    assert numkit.is_skew(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1e-12)
    assert not numkit.is_skew(np.eye(2), 1e-12)


def test_zero_matrix_is_both_symmetric_and_skew():
    Z = np.zeros((3, 3))
    assert numkit.is_symmetric(Z, 1e-12)
    assert numkit.is_skew(Z, 1e-12)


def test_default_tol_scales_with_entries():
    assert numkit.default_tol(np.zeros((2, 2))) == pytest.approx(1e-10)
    assert numkit.default_tol(np.full((2, 2), 9.0)) == pytest.approx(1e-9)


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        numkit.as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestPsdCheck:
    def test_diag_semidefinite(self):
        rep = numkit.psd_check(np.diag([1.0, 0.0]))
        assert rep.verdict == POSITIVE_SEMIDEFINITE
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_diag_indefinite(self):
        rep = numkit.psd_check(np.diag([1.0, -1.0]))
        assert rep.verdict == INDEFINITE
        assert not rep.is_semidefinite

    def test_interior_laplacian_positive_definite(self):
        # n=2 leaves a single interior node; the independent oracle gives the
        # 1x1 matrix [4.0], so the only eigenvalue is 4.0
        mesh = fem.build_unit_square_mesh(2)
        space = fem.scalar_space(mesh)
        K = fem.assemble_laplace(space, 1.0).toarray()
        assert np.allclose(K, oracle.assemble_laplace(space, 1.0), atol=1e-14)
        rep = numkit.psd_check(K)
        assert rep.verdict == POSITIVE_DEFINITE
        assert rep.min_eigenvalue == pytest.approx(4.0, abs=1e-13)

    def test_asymmetry_raises_by_default(self):
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(StructureError):
            numkit.psd_check(M)
        rep = numkit.psd_check(M, require_symmetric=False)
        assert rep.max_asymmetry == pytest.approx(0.5)

    def test_gram_matrices_always_semidefinite(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(1, 12)
            V = rng.standard_normal((rng.integers(1, 12), n))
            assert numkit.psd_check(V.T @ V).is_semidefinite

    def test_empty_matrix_is_definite(self):
        rep = numkit.psd_check(np.zeros((0, 0)))
        assert rep.verdict == POSITIVE_DEFINITE

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            numkit.psd_check(np.zeros((2, 3)))


class TestSqrtmSpd:
    def test_diagonal(self):
        assert np.allclose(numkit.sqrtm_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                           atol=1e-14)

    def test_identity(self):
        assert np.allclose(numkit.sqrtm_spd(np.eye(4)), np.eye(4), atol=1e-14)

    def test_two_by_two(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = numkit.sqrtm_spd(M)
        assert np.allclose(S @ S, M, atol=1e-12)
        assert numkit.is_symmetric(S, 1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(StructureError):
            numkit.sqrtm_spd(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(StructureError):
            numkit.sqrtm_spd(np.array([[2.0, 1.0], [0.0, 2.0]]))

    def test_one_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *args, name=name, real=real, **kwargs:
                                calls.append(name) or real(*args, **kwargs))
        numkit.sqrtm_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert calls == ["eigh"]

    def test_random_spd_square_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            V = rng.standard_normal((n, n))
            M = V.T @ V + n * np.eye(n)
            S = numkit.sqrtm_spd(M)
            err = np.linalg.norm(S @ S - M, 2)
            assert err <= numkit.default_tol(M) * np.linalg.norm(M, 2)


class TestSymSkewSplit:
    def test_worked_example(self):
        sym, skew = numkit.sym_skew_split(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.array_equal(sym.toarray(), np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.array_equal(skew.toarray(), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_symmetric_input(self):
        M = np.array([[3.0, 1.5], [1.5, -2.0]])
        sym, skew = numkit.sym_skew_split(M)
        assert np.array_equal(sym.toarray(), M)
        assert skew.nnz == 0

    def test_skew_input(self):
        M = np.array([[0.0, 2.5], [-2.5, 0.0]])
        sym, skew = numkit.sym_skew_split(M)
        assert sym.nnz == 0
        assert np.array_equal(skew.toarray(), M)

    def test_split_properties_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            M = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
            sym, skew = numkit.sym_skew_split(M)
            assert numkit.symmetry_defect(sym) == 0.0
            assert numkit.skew_defect(skew) == 0.0
            # reconstruction within one rounding at the scale of the
            # mirrored-entry pair feeding each output entry
            limit = np.spacing(np.maximum(np.abs(M), np.abs(M.T)))
            assert np.all(np.abs(sym + skew - M) <= limit)


class TestSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(numkit.solve(np.eye(3), b), b)

    def test_diagonal(self):
        assert np.allclose(numkit.solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0])),
                           np.ones(2), atol=1e-15)

    def test_recovers_known_solution(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((5, 5))
        M = V.T @ V + 5 * np.eye(5)
        x = rng.standard_normal(5)
        b = M @ x
        assert np.linalg.norm(numkit.solve(M, b) - x) <= 1e-10

    def test_matrix_rhs(self):
        M = np.array([[2.0, 0.0], [0.0, 4.0]])
        B = np.array([[2.0, 4.0], [4.0, 8.0]])
        assert np.allclose(numkit.solve(M, B), np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            numkit.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            numkit.solve(np.eye(2), np.ones(3))


class TestMatrixMarket:
    def test_coordinate_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 6))
        M[rng.random((4, 6)) < 0.4] = 0.0
        path = tmp_path / "m.mtx"
        numkit.write_matrix_market(path, M)
        with open(path) as fh:
            assert fh.readline().strip() == "%%MatrixMarket matrix coordinate real general"
        assert np.array_equal(numkit.read_matrix_market(path).toarray(), M)

    def test_array_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((3, 5))
        path = tmp_path / "m.mtx"
        with open(path, "wb") as fh:
            mmwrite(fh, M, precision=17, symmetry="general")
        with open(path) as fh:
            assert fh.readline().strip() == "%%MatrixMarket matrix array real general"
        assert np.array_equal(numkit.read_matrix_market(path).toarray(), M)

    def test_coordinate_entries_are_the_row_major_nonzeros(self, tmp_path):
        # explicit zeros and unsorted, duplicated coordinates in the input
        M = csr_array((np.array([0.0, 2.0, -1.0, 0.5, 0.5]),
                       (np.array([1, 0, 2, 0, 0]), np.array([1, 2, 0, 1, 1]))), shape=(3, 3))
        path = tmp_path / "m.mtx"
        numkit.write_matrix_market(path, M)
        lines = [line.split() for line in path.read_text().splitlines()
                 if not line.startswith("%")]
        assert lines[0] == ["3", "3", "3"]
        entries = [(int(r), int(c), float(v)) for r, c, v in lines[1:]]
        assert entries == [(1, 2, 1.0), (1, 3, 2.0), (3, 1, -1.0)]

    def test_zero_matrix(self, tmp_path):
        path = tmp_path / "z.mtx"
        numkit.write_matrix_market(path, np.zeros((3, 2)))
        out = numkit.read_matrix_market(path)
        assert out.shape == (3, 2) and out.nnz == 0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
        with pytest.raises(ValueError):
            numkit.read_matrix_market(path)


def test_block_diag_with_empty_blocks():
    out = numkit.block_diag(np.zeros((0, 0)), np.eye(2), np.zeros((0, 0)))
    assert np.array_equal(out, np.eye(2))


class TestBalancedKernels:
    def test_tiny_block_keeps_its_rank(self):
        # a plain singular-value cut at 1e-10 relative would drop the small block
        rank, V, W = oracle.balanced_kernels(np.diag([1.0, 1e-14, 3e-13]))
        assert rank == 3
        assert V.shape == (3, 0) and W.shape == (3, 0)

    def test_zero_rows_and_columns_stay_in_the_kernels(self):
        E = np.zeros((3, 3))
        E[0, 0], E[2, 2] = 2.0, 1e-12
        rank, V, W = oracle.balanced_kernels(E)
        assert rank == 2
        assert np.allclose(np.abs(V[:, 0]), [0.0, 1.0, 0.0])
        assert np.allclose(np.abs(W[:, 0]), [0.0, 1.0, 0.0])

    def test_kernels_are_orthonormal_and_annihilate(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((5, 3))
        E = np.diag([1.0, 1.0, 1.0, 1e-9, 1e-9]) @ B @ B.T @ np.diag([1.0, 1e-8, 1.0, 1.0, 1.0])
        rank, V, W = oracle.balanced_kernels(E)
        assert rank == 3
        assert np.allclose(V.T @ V, np.eye(2), atol=1e-12)
        assert np.allclose(W.T @ W, np.eye(2), atol=1e-12)
        assert np.linalg.norm(E @ V) <= 1e-12 * np.linalg.norm(E)
        assert np.linalg.norm(E.T @ W) <= 1e-12 * np.linalg.norm(E)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            oracle.balanced_kernels(np.ones((2, 3)))


class TestFactorization:
    def system(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((6, 6)) * (rng.uniform(size=(6, 6)) < 0.4) + 4.0 * np.eye(6)
        return M, rng.standard_normal(6), rng.standard_normal((6, 3))

    def test_dense_csr_and_csc_inputs_solve_identically(self):
        M, b, B = self.system()
        dense = numkit.Factorization(M)
        for sparse in (csr_array(M), csc_array(M)):
            lu = numkit.Factorization(sparse)
            assert np.array_equal(lu.solve(b), dense.solve(b))
            assert np.array_equal(lu.solve(B), dense.solve(B))
        assert np.linalg.norm(M @ dense.solve(B) - B) <= 1e-13 * np.linalg.norm(B)

    def test_non_finite_sparse_data_rejected(self):
        M = csr_array(np.eye(3))
        M.data[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            numkit.Factorization(M)

    def test_tiny_well_conditioned_matrix_solves(self):
        # the pivot rule is relative: a uniformly tiny matrix is not singular
        b = np.array([1e-20, -2e-20, 3e-20])
        assert np.allclose(numkit.solve(1e-20 * np.eye(3), b), [1.0, -2.0, 3.0], rtol=1e-15)

    @pytest.mark.parametrize("M", [np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3)),
                                   np.diag([1.0, 1e-14])])
    def test_singular_matrices_raise(self, M):
        with pytest.raises(SingularMatrixError, match="^step matrix numerically singular"):
            numkit.Factorization(M, "step matrix")

    def test_src_has_one_sparse_lu_call(self):
        # every factorization goes through numkit.lu_factor
        found = []
        for path in sorted(Path(numkit.__file__).parent.glob("*.py")):
            text = path.read_text()
            found += [path.name] * text.count("splu(")
            found += [f"{path.name}:{fn.name}" for fn in ast.walk(ast.parse(text))
                      if isinstance(fn, ast.FunctionDef)
                      and "splu(" in ast.get_source_segment(text, fn)]
        assert found == ["numkit.py", "numkit.py:lu_factor"]


class TestKeptOrder:
    """``Factorization(A, order=...)`` with the order of an earlier
    factorization of the same pattern: natural ordering, same factor."""

    def nonlinear_step_matrices(self, ops, count=4, h=0.05):
        # the semi-implicit kappa(div u) step matrices E - h/2 (J - R(u)) at n = 3
        base = formulations.build_full_first_order(ops)
        u, p = base.state_slice("u"), base.state_slice("p")
        rng = np.random.default_rng(21)
        matrices = []
        for _ in range(count):
            R = np.zeros_like(base.R)
            R[p, p] = fem.assemble_nonlinear_permeability(
                ops.qspace, ops.vspace, rng.standard_normal(ops.dim_u),
                lambda xi: 1.0 + xi * xi, ops.materials[0].nu).toarray()
            matrices.append(csr_array(base.E - 0.5 * h * (base.J - R)))
        return matrices

    def pivoting_matrices(self, n=40, count=4):
        # nonsymmetric, one pattern, small diagonal: partial pivoting swaps rows
        rng = np.random.default_rng(22)
        mask = (rng.uniform(size=(n, n)) < 0.1) | np.eye(n, dtype=bool)
        matrices = []
        for _ in range(count):
            M = np.where(mask, rng.standard_normal((n, n)), 0.0)
            M[np.diag_indices(n)] *= 1e-3
            matrices.append(csc_array(M))
        return matrices

    @pytest.mark.parametrize("family", ["nonlinear_step", "pivoting"])
    def test_kept_order_solves_bit_for_bit(self, ops3, family):
        matrices = (self.nonlinear_step_matrices(ops3) if family == "nonlinear_step"
                    else self.pivoting_matrices())
        if family == "pivoting":
            assert all(not np.array_equal(lu.perm_r, lu.perm_c)
                       for lu in map(numkit.lu_factor, matrices))
        first = numkit.Factorization(matrices[0])
        rng = np.random.default_rng(23)
        b = rng.standard_normal(first.size)
        B = rng.standard_normal((first.size, 3))
        for A in matrices:
            fresh = numkit.Factorization(A)
            kept = numkit.Factorization(csc_array(A)[:, first.order], order=first.order)
            assert np.array_equal(fresh.order, first.order)
            assert np.array_equal(kept.order, first.order)
            assert np.array_equal(kept.solve(b), fresh.solve(b))
            assert np.array_equal(kept.solve(B), fresh.solve(B))
        assert np.linalg.norm(A @ kept.solve(b) - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("M", [np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3)),
                                   np.diag([1.0, 1e-14]), np.diag([1e-14, 1.0, 1.0])])
    def test_kept_order_raises_the_same_singularity_error(self, M):
        prefix = "^step matrix numerically singular"
        with pytest.raises(SingularMatrixError, match=prefix):
            numkit.Factorization(M, "step matrix")
        for order in (np.arange(len(M)), np.arange(len(M))[::-1]):
            with pytest.raises(SingularMatrixError, match=prefix):
                numkit.Factorization(csr_array(M), "step matrix", order=order)
