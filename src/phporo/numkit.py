"""Linear algebra utilities with explicit structural checks.

Every routine takes a dense array or a ``scipy.sparse`` matrix of float64.
The structural and spectral ones work on the canonical CSR of ``as_csr``, to
which dense input is converted once; only ``sqrtm_spd`` densifies.  A CSR
made of placed, weighted matrices comes from one builder, ``placed`` (one
scipy COO build): ``block_csr`` and the step matrices of ``timeint``.
``Factorization`` (factor, solve, and refactor in the kept column order)
and ``psd_certificate`` factor through the sparse LU of ``lu_factor``; when
a step reuses a factor and when it refactors is decided by the frozen-R
stepper of ``timeint`` (``_FrozenRSteps``, ``timeint.REFINE_TARGET``,
``timeint.REFINE_SOLVES``).  No routine mutates its arguments.  Structural
tolerances default to the scale-aware value ``1e-10 * (1 + max|entry|)``;
only the reporting checks take another one, and every other decision uses a
fixed relative cut.

Definiteness is decided by ``psd_certificate`` (one sparse LDL^T) where it
certifies, and everywhere else by ``psd_check`` from the lowest eigenvalue
of the symmetric part, found by one Lanczos run (``lowest_eigenvalue``).
``DenseView`` gives a CSR store its read-only dense views.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from inspect import signature

import numpy as np
from scipy.linalg import block_diag  # noqa: F401  (re-exported)
from scipy.sparse import coo_array, csc_array, csr_array, eye_array, issparse
from scipy.sparse.linalg import ArpackError, eigsh, splu

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


def placed(shape, *terms) -> csr_array:
    """CSR of the ``shape`` matrix that sums ``weight * M`` over the
    ``(M, weight, row, column)`` terms, each dense or sparse M placed with
    its first entry at (row, column), by one ``coo_array`` build.  Every
    stored entry of every term is kept, explicit zeros too (a dense M stores
    its nonzeros), and the indices are 32-bit, as SuperLU takes them.

    scipy adds up the terms that fall on one entry in no fixed order, which
    changes no sum of two terms and, but for the sign of a zero, no sum of
    one term and exact zeros.  Every caller must keep to those sums: three
    terms or more on one entry would round in an unknown order.
    """
    parts = [(coo_array(M if issparse(M) else as_matrix(M)), weight, row, column)
             for M, weight, row, column in terms]
    empty = [np.zeros(0, dtype=np.intc)]
    rows = np.concatenate(empty + [B.row + r for B, _, r, _ in parts], dtype=np.intc)
    columns = np.concatenate(empty + [B.col + c for B, _, _, c in parts], dtype=np.intc)
    data = np.concatenate([np.zeros(0)] + [weight * B.data for B, weight, _, _ in parts])
    return coo_array((data, (rows, columns)), shape=shape).tocsr()


def block_csr(shape, blocks) -> csr_array:
    """Canonical CSR of a ``shape`` matrix made of ``(row, col, block)``
    triples, each dense or sparse block placed with its first entry at
    (row, col) by ``placed``; overlapping blocks add up."""
    return as_csr(placed(shape, *((B, 1.0, row, col) for row, col, B in blocks)))


def max_abs(M) -> float:
    """Largest |entry| of M; 0 for a matrix without nonzeros."""
    return float(np.max(np.abs(as_csr(M).data), initial=0.0))


def default_tol(M) -> float:
    """Scale-aware structural tolerance: 1e-10 * (1 + max|entry|)."""
    return 1e-10 * (1.0 + max_abs(M))


def _square(M, op: str):
    """M, which must be square."""
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{op} requires a square matrix, got shape {M.shape}")
    return M


def symmetry_defect(M) -> float:
    """Largest entry of |M - M^T|."""
    A = _square(as_csr(M), "symmetry_defect")
    return max_abs(A - A.T)


def skew_defect(M) -> float:
    """Largest entry of |M + M^T| (includes the doubled diagonal)."""
    A = _square(as_csr(M), "skew_defect")
    return max_abs(A + A.T)


def is_symmetric(M, tol: float | None = None) -> bool:
    """True iff max |M_ij - M_ji| <= tol."""
    return symmetry_defect(M) <= (default_tol(M) if tol is None else tol)


def is_skew(M, tol: float | None = None) -> bool:
    """True iff max |M_ij + M_ji| <= tol (diagonal bounded by tol)."""
    return skew_defect(M) <= (default_tol(M) if tol is None else tol)


def sym_skew_split(M) -> tuple[csr_array, csr_array]:
    """Split M into (symmetric, skew-symmetric) CSR parts that sum back to M."""
    A = _square(as_csr(M), "sym_skew_split")
    return as_csr(0.5 * (A + A.T)), as_csr(0.5 * (A - A.T))


@dataclass(frozen=True)
class SpectralReport:
    """Definiteness report for a (nearly) symmetric matrix.

    ``min_eigenvalue`` is None when ``psd_certificate`` decided the verdict,
    which then reads positive definite for a matrix without zero rows and
    positive semidefinite otherwise.
    """

    min_eigenvalue: float | None
    max_asymmetry: float
    verdict: str

    @classmethod
    def from_lowest(cls, lo: float, asymmetry: float, tol: float) -> "SpectralReport":
        """Report for a symmetrized spectrum whose lowest value is lo, judged at tol."""
        verdict = (POSITIVE_DEFINITE if lo > tol
                   else POSITIVE_SEMIDEFINITE if lo >= -tol else INDEFINITE)
        return cls(lo, asymmetry, verdict)

    @property
    def is_semidefinite(self) -> bool:
        return self.verdict in (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE)

    def to_dict(self) -> dict:
        return asdict(self)


# a run stopped on an invariant subspace restarts from a vector drawn from rng
_SEEDED = {"rng": 0} if "rng" in signature(eigsh).parameters else {}


def eigsh_one(A, **options) -> float:
    """The eigenvalue of a symmetric matrix or pencil (n >= 2) that one
    Lanczos run, ``eigsh`` with k = 1 and ``options``, finds from fixed
    vectors; ARPACK errors and no convergence raise ``StructureError``."""
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, A.shape[0])
    try:
        return float(eigsh(A, k=1, v0=v0, return_eigenvectors=False, **_SEEDED, **options)[0])
    except ArpackError as exc:  # ArpackNoConvergence included
        raise StructureError(f"definiteness undecided: {exc}") from exc


def lowest_eigenvalue(S: csr_array) -> float:
    """Lowest eigenvalue of the symmetric CSR S, to about eps * sigma:
    ``eigsh_one`` of S + sigma I (``which="SA"``) less sigma, twice the
    largest row sum of |S|.  ARPACK moves its start vector into the range of
    the operator, which misses the kernel of a singular S; S + sigma I has
    none.  S without stored entries reads 0 (0 x 0: inf), 1 x 1 its entry."""
    if S.nnz == 0 or S.shape[0] == 1:
        return float(np.min(S.diagonal(), initial=np.inf))
    sigma = 2.0 * float(np.max(abs(S) @ np.ones(S.shape[0])))
    return eigsh_one(S + sigma * eye_array(S.shape[0], format="csr"), which="SA") - sigma


def psd_check(M, tol: float | None = None, require_symmetric: bool = True) -> SpectralReport:
    """Classify the symmetrized part of M as PD / PSD / indefinite by the
    ``lowest_eigenvalue`` of the CSR of 0.5*(M + M^T).  With
    ``require_symmetric`` (the default) an asymmetry beyond tol raises
    ``StructureError``, so callers must symmetrize explicitly; reporting
    callers disable the check and read ``max_asymmetry`` instead."""
    A = _square(as_csr(M), "psd_check")
    tol = default_tol(A) if tol is None else tol
    defect = symmetry_defect(A)
    if require_symmetric and defect > tol:
        raise StructureError(f"matrix asymmetry {defect:.3e} exceeds tolerance {tol:.3e}")
    return SpectralReport.from_lowest(lowest_eigenvalue(as_csr(0.5 * (A + A.T))), defect, tol)


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
    A = _square(as_csr(M), "psd_certificate")
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
    """Report of M given ``zero_rows = psd_certificate(M)``: without an
    eigenvalue if certified, else ``psd_check(M, tol, require_symmetric=False)``."""
    if zero_rows is None:
        return psd_check(M, tol, require_symmetric=False)
    verdict = POSITIVE_SEMIDEFINITE if zero_rows.size else POSITIVE_DEFINITE
    return SpectralReport(None, symmetry_defect(M), verdict)


def sqrtm_spd(M) -> np.ndarray:
    """Symmetric positive definite square root via one spectral decomposition.

    Requires M symmetric positive definite within tol = ``default_tol(M)``,
    judged on its eigenvalues; S is symmetric with ||S @ S - M|| <= tol ||M||.
    """
    A = _square(as_matrix(M), "sqrtm_spd")
    if A.size == 0:
        return A.copy()
    tol, defect = default_tol(A), symmetry_defect(A)
    if defect > tol:
        raise StructureError(f"matrix asymmetry {defect:.3e} exceeds tolerance {tol:.3e}")
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    report = SpectralReport.from_lowest(float(w[0]), defect, tol)
    if report.verdict != POSITIVE_DEFINITE:
        raise StructureError(f"sqrtm_spd needs a positive definite matrix, got {report.verdict} "
                             f"(min eigenvalue {report.min_eigenvalue:.3e})")
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

    ``refactor`` factors a new matrix of the same pattern in its place: its
    columns are taken in the order this factor eliminates them, with natural
    ordering, which skips COLAMD, and the row pivots are chosen afresh, so a
    matrix equal to the first one gets the same factor; ``solve`` puts the
    solution back in the matrix's own order.
    """

    def __init__(self, M, what: str = "matrix"):
        self._order = None  # the order of the factor's columns, once there is one
        self.refactor(M, what)

    def solve(self, b) -> np.ndarray:
        """Solve for a vector or a matrix right-hand side."""
        rhs = np.asarray(b, dtype=float)
        if rhs.shape[0] != self.size:
            raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix size {self.size}")
        if self.size == 0:
            return np.zeros_like(rhs)
        x = self._lu.solve(rhs)
        return x if self._unpermute is None else x[self._unpermute]

    def refactor(self, M, what: str = "matrix") -> None:
        """Factor M, a matrix of the factored one's pattern, in this factor's
        column order, in its place.  The old factor is dropped once M is
        copied and permuted, before the new one is made, so one is held at a
        time, and a singular M leaves none: it raises as the constructor does."""
        A = _square(csc_array(M if issparse(M) else as_matrix(M), dtype=float), "factorization")
        if not np.all(np.isfinite(A.data)):
            raise ValueError("matrix contains non-finite entries")
        self.size, order = A.shape[0], self._order
        if order is not None:
            A = A[:, order]
        # the old factor is dropped only now, so that the new one reuses its
        # memory (copying after the drop doubled the run's page faults)
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
        self._order = np.argsort(lu.perm_c) if order is None else order[np.argsort(lu.perm_c)]
        # x solves A[:, order] x = b, so entry i of x belongs to column order[i]
        self._unpermute = None if order is None else np.argsort(order)
        self._lu = lu


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
