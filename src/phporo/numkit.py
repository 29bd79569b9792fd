"""Linear algebra utilities with explicit structural checks.

Matrices are plain 2-d numpy arrays of float64, except that ``Factorization``
also takes ``scipy.sparse`` matrices; it and ``psd_certificate`` factor
through the sparse LU of ``lu_factor``.  Every routine is a pure function;
nothing here mutates its arguments.  Structural tolerances default to the
scale-aware value ``1e-10 * (1 + max|entry|)``; only the reporting checks
take another one, and every other decision uses a fixed relative cut.

Definiteness is decided by ``psd_certificate`` (one sparse LDL^T) where it
certifies, and by the dense spectrum of ``psd_check`` everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag  # noqa: F401  (re-exported)
from scipy.sparse import csc_array, issparse
from scipy.sparse.linalg import splu

POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE = "positive_semidefinite"
INDEFINITE = "indefinite"


class StructureError(ValueError):
    """A matrix violates a required algebraic structure (symmetry, definiteness)."""


class SingularMatrixError(ValueError):
    """A linear solve hit a numerically singular matrix."""


def as_matrix(M) -> np.ndarray:
    """Convert to a float64 2-d array and verify all entries are finite."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got array of dimension {A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def default_tol(M) -> float:
    """Scale-aware structural tolerance: 1e-10 * (1 + max|entry|)."""
    A = np.asarray(M, dtype=float)
    amax = float(np.max(np.abs(A))) if A.size else 0.0
    return 1e-10 * (1.0 + amax)


def _require_square(M: np.ndarray, op: str) -> None:
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{op} requires a square matrix, got shape {M.shape}")


def symmetry_defect(M) -> float:
    """Largest entry of |M - M^T|."""
    A = as_matrix(M)
    _require_square(A, "symmetry_defect")
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A - A.T)))


def skew_defect(M) -> float:
    """Largest entry of |M + M^T| (includes the doubled diagonal)."""
    A = as_matrix(M)
    _require_square(A, "skew_defect")
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A + A.T)))


def is_symmetric(M, tol: float | None = None) -> bool:
    """True iff max |M_ij - M_ji| <= tol."""
    return symmetry_defect(M) <= (default_tol(M) if tol is None else tol)


def is_skew(M, tol: float | None = None) -> bool:
    """True iff max |M_ij + M_ji| <= tol (diagonal bounded by tol)."""
    return skew_defect(M) <= (default_tol(M) if tol is None else tol)


def sym_skew_split(M) -> tuple[np.ndarray, np.ndarray]:
    """Split M into (symmetric, skew-symmetric) parts that sum back to M."""
    A = as_matrix(M)
    _require_square(A, "sym_skew_split")
    sym = 0.5 * (A + A.T)
    skw = 0.5 * (A - A.T)
    return sym, skw


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
        return {
            "min_eigenvalue": self.min_eigenvalue,
            "max_eigenvalue": self.max_eigenvalue,
            "max_asymmetry": self.max_asymmetry,
            "verdict": self.verdict,
        }


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
        tol = default_tol(A)
    defect = symmetry_defect(A)
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
    A = as_matrix(M)
    _require_square(A, "psd_certificate")
    nonzero = A != 0.0
    rows = nonzero.any(axis=1)
    if np.any(nonzero.any(axis=0) & ~rows):
        return None
    keep = np.flatnonzero(rows)
    if keep.size:
        B = A[np.ix_(keep, keep)]
        diag = B.diagonal()
        if not np.all(diag > 0.0):
            return None
        scale = 1.0 / np.sqrt(diag)
        H = (0.5 * scale[:, None]) * (B + B.T) * scale
        try:
            lu = lu_factor(csc_array(H), symmetric=True)
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


def balanced_kernels(M) -> tuple[int, np.ndarray, np.ndarray]:
    """Rank of M with orthonormal bases V of ker M and W of ker M^T.

    The rank is decided on D_r M D_c, where D_r and D_c hold the inverse
    square roots of the row and column max-norms of M (1 for a zero row or
    column), so that a block tiny against the rest of M, such as the storage
    mass of a stiff medium, is not cut as rank deficiency: singular values up
    to ``1e-10 * max(1, largest)`` count as zero.  The kernels found there are
    mapped back through D_c and D_r and re-orthonormalized.
    """
    A = as_matrix(M)
    _require_square(A, "balanced_kernels")
    mag = np.abs(A)
    d_row, d_col = (1.0 / np.sqrt(np.where(norms > 0.0, norms, 1.0))
                    for norms in (mag.max(axis=1, initial=0.0), mag.max(axis=0, initial=0.0)))
    U, sv, Vh = np.linalg.svd(d_row[:, None] * A * d_col)
    rank = int(np.sum(sv > 1e-10 * max(sv[0] if sv.size else 0.0, 1.0)))
    V = np.linalg.qr(d_col[:, None] * Vh[rank:].T)[0]
    W = np.linalg.qr(d_row[:, None] * U[:, rank:])[0]
    return rank, V, W


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

    ``order`` holds the columns of M in the order the factor eliminates them
    (``np.argsort(perm_c)``).  Given the ``order`` of an earlier
    factorization of a matrix with the same pattern, M[:, order] is factored
    with natural ordering, which skips COLAMD; the row pivots are chosen
    afresh, so a matrix equal to the earlier one gets the same factor.
    """

    def __init__(self, M, what: str = "matrix", order: np.ndarray | None = None):
        if issparse(M):
            A = csc_array(M, dtype=float)
            if not np.all(np.isfinite(A.data)):
                raise ValueError("matrix contains non-finite entries")
        else:
            A = csc_array(as_matrix(M))
        _require_square(A, "factorization")
        self.size = A.shape[0]
        self.order = order
        self._lu = None
        if self.size == 0:
            return
        try:
            lu = lu_factor(A) if order is None else lu_factor(A[:, order], natural=True)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularMatrixError(f"{what} numerically singular ({exc})") from exc
        pivots = np.abs(lu.U.diagonal())
        if float(np.min(pivots)) <= 1e-13 * float(np.max(pivots)):
            raise SingularMatrixError(
                f"{what} numerically singular (smallest pivot {np.min(pivots):.3e})"
            )
        self.order = np.argsort(lu.perm_c) if order is None else order[np.argsort(lu.perm_c)]
        # x solves M[:, order] x = b, so entry i of x belongs to column order[i]
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
# MatrixMarket import/export (coordinate and dense array formats)
# ---------------------------------------------------------------------------
# scipy.io is imported on use: importing it with the package would slow
# every start-up for the few commands that write or read files.

_MM_FORMATS = ("coordinate", "array")


def write_matrix_market(path, M, fmt: str = "coordinate") -> None:
    """Write M in MatrixMarket format (real general, 17 significant digits)."""
    from scipy.io import mmwrite
    from scipy.sparse import coo_array

    A = as_matrix(M)
    if fmt not in _MM_FORMATS:
        raise ValueError(f"unknown MatrixMarket format {fmt!r}")
    # an open file keeps mmwrite from appending ".mtx" to the path
    with open(path, "wb") as fh:
        mmwrite(fh, coo_array(A) if fmt == "coordinate" else A,
                precision=17, symmetry="general")


def read_matrix_market(path) -> np.ndarray:
    """Read a real general MatrixMarket file written in either format."""
    from scipy.io import mminfo, mmread

    _, _, _, fmt, field, symmetry = mminfo(path)
    if fmt not in _MM_FORMATS or field != "real" or symmetry != "general":
        raise ValueError(f"unsupported MatrixMarket header: {fmt} {field} {symmetry}")
    A = mmread(path)
    return A.toarray() if fmt == "coordinate" else A
