"""Dense linear algebra utilities with explicit structural checks.

All matrices are plain 2-d numpy arrays of float64.  Every routine is a pure
function; nothing here mutates its arguments.  Tolerances default to the
scale-aware value ``1e-10 * (1 + max|entry|)`` and can be overridden
everywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

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
    """Eigenvalue-based definiteness report for a (nearly) symmetric matrix."""

    min_eigenvalue: float
    max_eigenvalue: float
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


def sqrtm_spd(M, tol: float | None = None) -> np.ndarray:
    """Symmetric positive definite square root via spectral decomposition.

    Requires M symmetric positive definite within tol; the result S is
    symmetric with ||S @ S - M|| <= tol * ||M||.
    """
    A = as_matrix(M)
    _require_square(A, "sqrtm_spd")
    if tol is None:
        tol = default_tol(A)
    report = psd_check(A, tol)
    if report.verdict != POSITIVE_DEFINITE:
        raise StructureError(
            f"sqrtm_spd needs a positive definite matrix, got {report.verdict} "
            f"(min eigenvalue {report.min_eigenvalue:.3e})"
        )
    if A.size == 0:
        return A.copy()
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    S = (V * np.sqrt(w)) @ V.T
    return 0.5 * (S + S.T)


def balanced_kernels(M, tol: float = 1e-10) -> tuple[int, np.ndarray, np.ndarray]:
    """Rank of M with orthonormal bases V of ker M and W of ker M^T.

    The rank is decided on D_r M D_c, where D_r and D_c hold the inverse
    square roots of the row and column max-norms of M (1 for a zero row or
    column), so that a block tiny against the rest of M, such as the storage
    mass of a stiff medium, is not cut as rank deficiency: singular values up
    to ``tol * max(1, largest)`` count as zero.  The kernels found there are
    mapped back through D_c and D_r and re-orthonormalized.
    """
    A = as_matrix(M)
    _require_square(A, "balanced_kernels")
    mag = np.abs(A)
    d_row, d_col = (1.0 / np.sqrt(np.where(norms > 0.0, norms, 1.0))
                    for norms in (mag.max(axis=1, initial=0.0), mag.max(axis=0, initial=0.0)))
    U, sv, Vh = np.linalg.svd(d_row[:, None] * A * d_col)
    rank = int(np.sum(sv > tol * max(sv[0] if sv.size else 0.0, 1.0)))
    V = np.linalg.qr(d_col[:, None] * Vh[rank:].T)[0]
    W = np.linalg.qr(d_row[:, None] * U[:, rank:])[0]
    return rank, V, W


class Factorization:
    """LU factorization of a square matrix with explicit singularity detection.

    A pivot below ``1e-13 * max(1, max pivot)`` raises ``SingularMatrixError``
    whose message starts with ``what``.  The factor is kept, so every later
    ``solve`` costs two triangular solves.
    """

    def __init__(self, M, what: str = "matrix"):
        A = as_matrix(M)
        _require_square(A, "factorization")
        self.size = A.shape[0]
        self._lu = None
        if A.size == 0:
            return
        with warnings.catch_warnings():
            # singularity is detected and raised explicitly below
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(A, check_finite=False)
        pivots = np.abs(np.diag(lu))
        if float(np.min(pivots)) <= 1e-13 * max(1.0, float(np.max(pivots))):
            raise SingularMatrixError(
                f"{what} numerically singular (smallest pivot {np.min(pivots):.3e})"
            )
        self._lu = (lu, piv)

    def solve(self, b) -> np.ndarray:
        """Solve for a vector or a matrix right-hand side."""
        rhs = np.asarray(b, dtype=float)
        if rhs.shape[0] != self.size:
            raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix size {self.size}")
        if self._lu is None:
            return np.zeros_like(rhs)
        return lu_solve(self._lu, rhs, check_finite=False)


def solve(M, b) -> np.ndarray:
    """Solve M x = b once; see ``Factorization`` for the singularity rule."""
    return Factorization(M).solve(b)


def block_diag(*blocks) -> np.ndarray:
    """Dense block-diagonal concatenation; accepts empty blocks."""
    mats = [as_matrix(B) for B in blocks]
    rows = sum(B.shape[0] for B in mats)
    cols = sum(B.shape[1] for B in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for B in mats:
        out[r : r + B.shape[0], c : c + B.shape[1]] = B
        r += B.shape[0]
        c += B.shape[1]
    return out


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
