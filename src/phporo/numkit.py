"""Linear algebra utilities with explicit structural checks.

Every routine takes a dense array or a ``scipy.sparse`` matrix of float64.
The structural ones (``default_tol``, the defects, ``sym_skew_split``,
``psd_certificate``) work in O(nnz) on the canonical CSR of ``as_csr``, to
which dense input is converted once; the spectral ones (``psd_check``,
``sqrtm_spd``) densify sparse input.  ``Factorization``
and ``psd_certificate`` factor through the sparse LU of ``lu_factor``.  No
routine mutates its arguments.  Structural tolerances default to the
scale-aware value ``1e-10 * (1 + max|entry|)``; only the reporting checks
take another one, and every other decision uses a fixed relative cut.

Definiteness is decided by ``psd_certificate`` (one sparse LDL^T) where it
certifies, and by the dense spectrum of ``psd_check`` everywhere else.
``DenseView`` gives a CSR store its read-only dense views.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import block_diag  # noqa: F401  (re-exported)
from scipy.sparse import coo_array, csc_array, csr_array, issparse
from scipy.sparse.linalg import splu

POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE = "positive_semidefinite"
INDEFINITE = "indefinite"


class StructureError(ValueError):
    """A matrix violates a required algebraic structure (symmetry, definiteness)."""


class SingularMatrixError(ValueError):
    """A linear solve hit a numerically singular matrix."""


def as_matrix(M) -> np.ndarray:
    """Convert to a float64 2-d array (sparse input densified) and verify
    all entries are finite."""
    A = M.toarray() if issparse(M) else np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got array of dimension {A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A.astype(float, copy=False)


def as_csr(M) -> csr_array:
    """Canonical float64 CSR of a dense or sparse matrix: sorted indices, no
    duplicates and no explicit zeros, so it equals ``csr_array`` of the dense
    matrix; its ``data``, ``indices`` and ``indptr`` are read-only.

    Read-only arrays mark a ``csr_array`` as checked, and it is returned as
    it is; another canonical CSR input shares its arrays with the result,
    which makes them read-only, and any other sparse input is copied before
    it is cleaned.
    """
    if not issparse(M):
        A = csr_array(as_matrix(M))
    else:
        A = M if type(M) is csr_array and M.dtype == np.float64 else csr_array(M, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"expected a matrix, got array of dimension {A.ndim}")
        if not A.data.flags.writeable and A.has_canonical_format:
            return A
        if not np.all(np.isfinite(A.data)):
            raise ValueError("matrix contains non-finite entries")
        if not (A.has_canonical_format and np.all(A.data)):
            A = A.copy()
            A.sum_duplicates()
            A.eliminate_zeros()
    for arr in (A.data, A.indices, A.indptr):
        arr.setflags(write=False)
    return A


def dense_view(M):
    """Read-only dense copy of a sparse matrix; of a tuple, a tuple of copies."""
    if isinstance(M, tuple):
        return tuple(map(dense_view, M))
    A = M.toarray()
    A.setflags(write=False)
    return A


class DenseView:
    """Class attribute that reads as the ``dense_view`` of ``csr.<name>`` of
    its instance, made the first time it is read and kept in ``_dense``."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if self.name not in obj._dense:
            obj._dense[self.name] = dense_view(getattr(obj.csr, self.name))
        return obj._dense[self.name]


def block_csr(shape, blocks) -> csr_array:
    """Canonical CSR of a ``shape`` matrix made of ``(row, col, block)``
    triples, each dense or sparse block placed with its first entry at
    (row, col); overlapping blocks add up."""
    parts = [(coo_array(B if issparse(B) else as_matrix(B)), row, col) for row, col, B in blocks]
    rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [B.row + r for B, r, _ in parts])
    cols = np.concatenate([np.zeros(0, dtype=np.int64)] + [B.col + c for B, _, c in parts])
    vals = np.concatenate([np.zeros(0)] + [B.data for B, _, _ in parts])
    return as_csr(csr_array((vals, (rows, cols)), shape=shape))


def max_abs(M) -> float:
    """Largest |entry| of M; 0 for a matrix without nonzeros."""
    return float(np.max(np.abs(as_csr(M).data), initial=0.0))


def default_tol(M) -> float:
    """Scale-aware structural tolerance: 1e-10 * (1 + max|entry|)."""
    return 1e-10 * (1.0 + max_abs(M))


def _require_square(M: np.ndarray, op: str) -> None:
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{op} requires a square matrix, got shape {M.shape}")


def _square(M, op: str) -> csr_array:
    """``as_csr`` of M, which must be square."""
    A = as_csr(M)
    _require_square(A, op)
    return A


def symmetry_defect(M) -> float:
    """Largest entry of |M - M^T|."""
    A = _square(M, "symmetry_defect")
    return max_abs(A - A.T)


def skew_defect(M) -> float:
    """Largest entry of |M + M^T| (includes the doubled diagonal)."""
    A = _square(M, "skew_defect")
    return max_abs(A + A.T)


def is_symmetric(M, tol: float | None = None) -> bool:
    """True iff max |M_ij - M_ji| <= tol."""
    return symmetry_defect(M) <= (default_tol(M) if tol is None else tol)


def is_skew(M, tol: float | None = None) -> bool:
    """True iff max |M_ij + M_ji| <= tol (diagonal bounded by tol)."""
    return skew_defect(M) <= (default_tol(M) if tol is None else tol)


def sym_skew_split(M) -> tuple[csr_array, csr_array]:
    """Split M into (symmetric, skew-symmetric) CSR parts that sum back to M."""
    A = _square(M, "sym_skew_split")
    return as_csr(0.5 * (A + A.T)), as_csr(0.5 * (A - A.T))


@dataclass(frozen=True)
class SpectralReport:
    """Definiteness report for a (nearly) symmetric matrix.

    The eigenvalue fields are None when ``psd_certificate`` decided the
    verdict, which then reads positive definite for a matrix without zero
    rows and positive semidefinite otherwise.
    """

    min_eigenvalue: float | None
    max_eigenvalue: float | None
    max_asymmetry: float
    verdict: str

    @classmethod
    def from_extremes(cls, lo: float, hi: float, asymmetry: float,
                      tol: float) -> "SpectralReport":
        """Report for a symmetrized spectrum in [lo, hi], judged at tol."""
        verdict = (POSITIVE_DEFINITE if lo > tol
                   else POSITIVE_SEMIDEFINITE if lo >= -tol else INDEFINITE)
        return cls(lo, hi, asymmetry, verdict)

    @property
    def is_semidefinite(self) -> bool:
        return self.verdict in (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE)

    def to_dict(self) -> dict:
        return asdict(self)


def psd_check(M, tol: float | None = None, require_symmetric: bool = True) -> SpectralReport:
    """Classify the symmetrized part of M as PD / PSD / indefinite.

    Eigenvalues are taken from 0.5*(M + M^T).  With ``require_symmetric``
    (the default) an asymmetry beyond tol raises ``StructureError`` so that
    callers must symmetrize explicitly; reporting callers can disable the
    check and read ``max_asymmetry`` from the result instead.
    """
    A = as_matrix(M)
    _require_square(A, "psd_check")
    if tol is None:
        tol = default_tol(M)
    defect = symmetry_defect(M)
    if require_symmetric and defect > tol:
        raise StructureError(
            f"matrix asymmetry {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    if A.size == 0:
        return SpectralReport(np.inf, -np.inf, 0.0, POSITIVE_DEFINITE)
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    return SpectralReport.from_extremes(float(eigs[0]), float(eigs[-1]), defect, tol)


def psd_certificate(M) -> np.ndarray | None:
    """Zero rows Z of M when M is certified positive semidefinite, else None.

    Certified: the exactly zero rows Z of M are zero columns too, and the
    symmetric part of the block on the other rows, scaled to unit diagonal,
    has an LDL^T (``lu_factor`` with ``symmetric``) whose pivots all exceed
    ``k * eps * max pivot`` for a block of size k, so that block is
    positive definite up to backward error.  The unit vectors e_Z then span
    the kernels of M and M^T.  None means "not certified" (indefinite,
    singular on the block, or too ill-conditioned): ask ``psd_check``.
    """
    A = _square(M, "psd_certificate")
    rows = np.diff(A.indptr) > 0
    cols = np.zeros(A.shape[1], dtype=bool)
    cols[A.indices] = True
    if np.any(cols & ~rows):
        return None
    keep = np.flatnonzero(rows)
    if keep.size:
        # every stored entry lies in the block on the kept rows and columns
        S = as_csr(A + A.T)  # b_ij + b_ji, exactly symmetric
        diag = 0.5 * S.diagonal()
        if not np.all(diag[keep] > 0.0):
            return None
        scale = np.zeros(A.shape[0])
        scale[keep] = 1.0 / np.sqrt(diag[keep])
        # H = ((0.5 s_i) (b_ij + b_ji)) s_j entry by entry, symmetric in its
        # pattern, so its row-major arrays are its CSC arrays too
        r, c = np.repeat(np.arange(A.shape[0]), np.diff(S.indptr)), S.indices
        data = S.data * (0.5 * scale)[c] * scale[r]
        nz = data != 0.0
        block = np.cumsum(rows) - 1  # index in the block of each kept row
        indptr = np.concatenate([[0], np.cumsum(np.bincount(block[r[nz]], minlength=keep.size))])
        H = csc_array((data[nz], block[c[nz]], indptr), shape=(keep.size, keep.size))
        try:
            lu = lu_factor(H, symmetric=True)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            return None
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None  # an off-diagonal pivot: no LDL^T of the block
        pivots = lu.U.diagonal()
        if not np.min(pivots) > keep.size * np.finfo(float).eps * np.max(pivots):
            return None
    return np.flatnonzero(~rows)


def certified_report(M, zero_rows: np.ndarray | None, tol: float | None = None) -> SpectralReport:
    """Report of M given ``zero_rows = psd_certificate(M)``: without
    eigenvalues if certified, else ``psd_check(M, tol, require_symmetric=False)``."""
    if zero_rows is None:
        return psd_check(M, tol, require_symmetric=False)
    verdict = POSITIVE_SEMIDEFINITE if zero_rows.size else POSITIVE_DEFINITE
    return SpectralReport(None, None, symmetry_defect(M), verdict)


def sqrtm_spd(M) -> np.ndarray:
    """Symmetric positive definite square root via one spectral decomposition.

    Requires M symmetric positive definite within tol = ``default_tol(M)``,
    judged on its eigenvalues; S is symmetric with ||S @ S - M|| <= tol ||M||.
    """
    A = as_matrix(M)
    _require_square(A, "sqrtm_spd")
    if A.size == 0:
        return A.copy()
    tol, defect = default_tol(A), symmetry_defect(A)
    if defect > tol:
        raise StructureError(f"matrix asymmetry {defect:.3e} exceeds tolerance {tol:.3e}")
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    report = SpectralReport.from_extremes(float(w[0]), float(w[-1]), defect, tol)
    if report.verdict != POSITIVE_DEFINITE:
        raise StructureError(
            f"sqrtm_spd needs a positive definite matrix, got {report.verdict} "
            f"(min eigenvalue {report.min_eigenvalue:.3e})"
        )
    S = (V * np.sqrt(w)) @ V.T
    return 0.5 * (S + S.T)


def lu_factor(A, symmetric: bool = False, natural: bool = False):
    """Sparse LU (SuperLU) of a CSC matrix: COLAMD ordering and partial
    pivoting, with ``natural`` no column ordering (the columns are eliminated
    as given), or with ``symmetric`` a minimum-degree ordering of A + A^T and
    diagonal pivots, which for symmetric A with ``perm_r == perm_c`` is an
    LDL^T factorization (U = D L^T)."""
    pivoting = (dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}) if symmetric
                else dict(permc_spec="NATURAL") if natural else {})
    return splu(A, **pivoting)


class Factorization:
    """Sparse LU factorization of a square dense or sparse matrix.

    The matrix is factored as CSC by ``lu_factor``.  ``SingularMatrixError``,
    whose message starts with ``what``, is raised when SuperLU finds an exact
    zero pivot or when ``min |u_ii| <= 1e-13 * max |u_ii|`` on the diagonal of
    U; the relative rule keeps a well-conditioned matrix whose entries are all
    tiny.  The factor is kept, so every later ``solve`` costs two triangular
    solves.

    ``order`` holds the columns of the matrix in the order the factor
    eliminates them (``np.argsort(perm_c)``).  Given the ``order`` of an
    earlier factorization of a matrix A with the same pattern, M must hold
    the columns of A in that order (M = A[:, order], best as CSC, which is
    factored as it is); it is factored with natural ordering, which skips
    COLAMD, and the row pivots are chosen afresh, so a matrix equal to the
    earlier one gets the same factor.  ``solve`` answers for A.
    """

    def __init__(self, M, what: str = "matrix", order: np.ndarray | None = None):
        if issparse(M) and M.format == "csc":
            A = M
        else:
            A = csc_array(M if issparse(M) else as_matrix(M), dtype=float)
        if not np.all(np.isfinite(A.data)):
            raise ValueError("matrix contains non-finite entries")
        _require_square(A, "factorization")
        self.size = A.shape[0]
        self.order = order
        self._lu = None
        if self.size == 0:
            return
        try:
            lu = lu_factor(A) if order is None else lu_factor(A, natural=True)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularMatrixError(f"{what} numerically singular ({exc})") from exc
        pivots = np.abs(lu.U.diagonal())
        if float(np.min(pivots)) <= 1e-13 * float(np.max(pivots)):
            raise SingularMatrixError(
                f"{what} numerically singular (smallest pivot {np.min(pivots):.3e})"
            )
        self.order = np.argsort(lu.perm_c) if order is None else order[np.argsort(lu.perm_c)]
        # x solves A[:, order] x = b, so entry i of x belongs to column order[i]
        self._unpermute = None if order is None else np.argsort(order)
        self._lu = lu

    def solve(self, b) -> np.ndarray:
        """Solve for a vector or a matrix right-hand side."""
        rhs = np.asarray(b, dtype=float)
        if rhs.shape[0] != self.size:
            raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix size {self.size}")
        if self._lu is None:
            return np.zeros_like(rhs)
        x = self._lu.solve(rhs)
        return x if self._unpermute is None else x[self._unpermute]


def solve(M, b) -> np.ndarray:
    """Solve M x = b once; see ``Factorization`` for the singularity rule."""
    return Factorization(M).solve(b)


# ---------------------------------------------------------------------------
# MatrixMarket export (coordinate format) and import (coordinate or array)
# ---------------------------------------------------------------------------
# scipy.io is imported on use: importing it with the package would slow
# every start-up for the few commands that write or read files.

def write_matrix_market(path, M) -> None:
    """Write M in MatrixMarket coordinate format (real general, 17
    significant digits), its nonzeros in row-major order."""
    from scipy.io import mmwrite

    # an open file keeps mmwrite from appending ".mtx" to the path
    with open(path, "wb") as fh:
        mmwrite(fh, as_csr(M).tocoo(), precision=17, symmetry="general")


def read_matrix_market(path) -> csr_array:
    """Canonical CSR (``as_csr``) of a real general MatrixMarket file in
    coordinate or array format."""
    from scipy.io import mminfo, mmread

    _, _, _, fmt, field, symmetry = mminfo(path)
    if fmt not in ("coordinate", "array") or field != "real" or symmetry != "general":
        raise ValueError(f"unsupported MatrixMarket header: {fmt} {field} {symmetry}")
    return as_csr(mmread(path, spmatrix=False))
