"""Differentiation-index classification and consistency machinery.

With Z the zero rows of E and N the other rows, det(lambda E - A) has the
leading coefficient +-det(L), L = [E[N, :]; -A[Z, :]] (Kunkel and Mehrmann,
EMS 2006): a nonsingular L makes the pencil regular, e_Z span the left kernel
of E and the index 0 for empty Z, else 1.  A certified E with a singular
A[Z, Z] has index at least 2, exactly 2 for a regular pH pencil: one whose E,
R and J share no kernel vector (Mehl, Mehrmann and Wojtylak, SIMAX 2018), as
``classify_phdae_index`` proves from ``phdae.kinematic_block`` with no LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags_array
from scipy.sparse.linalg import LinearOperator, onenormest

from . import numkit
from .formulations import (
    DiscreteOperators,
    NetworkCoupling,
    blocked_storage_mass,
    kbar_matrix,
    stacked_coupling,
)
from .interconnect import FeedbackLaw, close_loop
from .numkit import SingularMatrixError
from .phdae import PhDae, certificate, kinematic_block, validate_structure

INDEX_AT_LEAST_2 = 2
_REGULARITY_SHIFT = 2.0  # any lambda > 0 decides regularity of a pH pencil
_INDEX_LABELS = {0: "0", 1: "1", INDEX_AT_LEAST_2: "at_least_2"}
_REFINEMENT_STEPS = 3  # of the initialization's SQD solve; 2 leave Schur errors near 1e-11


@dataclass(frozen=True)
class IndexReport:
    """Classification result; ``index == 2`` means at least two."""

    index: int
    e_rank: int

    @property
    def label(self) -> str:
        return _INDEX_LABELS[self.index]

    def to_dict(self) -> dict:
        return {"index": self.label, "e_rank": self.e_rank}


def classify_index(E, A) -> IndexReport:
    """Classify the differentiation index of E z' = A z + k.

    On the CSR of E and A, the rows Z of ``algebraic_rows`` give index 0
    (no rows) or 1, unless E is certified and -A[Z, Z] is singular.  Then
    the index is at least 2 if lambda E - A at a fixed lambda > 0 passes
    ``_nonsingular``, else the pencil is singular
    (``SingularMatrixError``), exact for a pH pencil A = J - R: Re x^H
    (lambda E - A) x = 0 forces E x = R x = J x = 0 at every lambda.
    """
    E, A = numkit.as_csr(E), numkit.as_csr(A)
    if E.shape != A.shape or E.shape[0] != E.shape[1]:
        raise ValueError(f"E and A must be square of equal size, got {E.shape} and {A.shape}")
    return _classify(E, A, numkit.psd_certificate(E))


def classify_phdae_index(sys: PhDae) -> IndexReport:
    """Classify the drift pair (E, J - R) of a system, reusing its certificate
    of E.  An index-2 candidate is regular with no LU if R is certified, the
    system passes ``validate_structure`` and the zero rows K common to E and R
    lie in the w columns of ``kinematic_block`` (q, w): J[q, K] = E_qq[:, K - w] has full rank."""
    def regular() -> bool:
        zero_r = certificate(sys, "R")
        if zero_r is None or not validate_structure(sys).verdict:
            return False
        K, (_, w) = np.intersect1d(certificate(sys, "E"), zero_r), kinematic_block(sys)
        return bool(np.all((K >= w.start) & (K < w.stop)))
    return _classify(sys.csr.E, sys.drift(), certificate(sys, "E"), regular)


def _nonsingular(M) -> bool:
    """True if ``numkit.psd_certificate`` proves the symmetric part of M
    positive definite, whatever its scaling, or M passes ``Factorization``."""
    kernel = numkit.psd_certificate(M)
    if kernel is not None and not kernel.size:
        return True
    try:
        numkit.Factorization(M)
    except SingularMatrixError:
        return False
    return True


def algebraic_rows(E, A, zero_rows: np.ndarray | None) -> np.ndarray:
    """Rows Z of the CSR E whose unit vectors span the left kernel of E,
    given ``zero_rows = psd_certificate(E)``: the certificate's rows, or
    else the rows of E without stored entries, once L = [E[N, :]; -A[Z, :]]
    is nonsingular; a singular L leaves the index undecided and raises
    ``SingularMatrixError``.
    """
    if zero_rows is not None:
        return zero_rows
    on_z = np.diff(E.indptr) == 0
    # E has no entries on the rows Z, so subtracting A's rows there stacks L
    if not _nonsingular(E - diags_array(on_z.astype(float)) @ A):
        raise SingularMatrixError(
            "index undecided: E is not certified and [E[N, :]; -A[Z, :]] is singular"
        )
    return np.flatnonzero(on_z)


def _classify(E, A, zero_rows: np.ndarray | None, regular=lambda: False) -> IndexReport:
    """Index of the CSR pencil (E, A) given ``zero_rows = psd_certificate(E)``: a
    certified E makes L block triangular (E[N, Z] = 0), so -A[Z, Z] decides it."""
    certified = zero_rows is not None
    zero_rows = algebraic_rows(E, A, zero_rows)
    rank = E.shape[0] - zero_rows.size
    if certified and zero_rows.size and not _nonsingular(-A[np.ix_(zero_rows, zero_rows)]):
        if not (regular() or _nonsingular(_REGULARITY_SHIFT * E - A)):
            raise SingularMatrixError(f"matrix pencil is singular at lambda = {_REGULARITY_SHIFT}")
        return IndexReport(INDEX_AT_LEAST_2, rank)
    return IndexReport(1 if zero_rows.size else 0, rank)


# ---------------------------------------------------------------------------
# Consistent initialization and the hidden constraint (quasi-static case)
# ---------------------------------------------------------------------------

def _backward_error(residual, norm_a: float, x, b) -> float:
    """Normwise backward error |A x - b| / (|A| |x| + |b|) in the infinity norm."""
    scale = norm_a * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    # a zero scale means A x and b vanish, so the residual does too
    return float(np.linalg.norm(residual, np.inf) / scale) if scale > 0.0 else 0.0


def consistent_initialization(ops: DiscreteOperators, p0, f0, fdot0, g0,
                              coupling: NetworkCoupling | None = None):
    """Initial (w0, u0) satisfying the constraint and its hidden companion.

    The loads f0, fdot0, g0 are assembled (dual) vectors at t = 0.  In the
    quasi-static case these relations are forced; for regular systems they
    simply provide an admissible start compatible with the rho -> 0 limit.
    w0 solves S w0 = rhs_w, S = K_A + D-bar^T M-bar^-1 D-bar, as the w block of
    the symmetric quasi-definite [[K_A, D-bar^T], [D-bar, -M-bar]] [w; y] =
    [rhs_w; 0], which has an LDL^T in any symmetric ordering (Vanderbei 1995);
    refinement repairs the growth of a tiny M-bar (Gill, Saunders and Shinnerl
    1996).  Both solves must reach a normwise backward error of at most 1e-10,
    on the Schur system with |S| from Hager's lower bound; S is never formed.
    """
    if not ops.dim_u:  # no free displacement dofs: the empty system
        return np.zeros(0), np.zeros(0)
    p0, f0, fdot0, g0 = (np.asarray(a, dtype=float) for a in (p0, f0, fdot0, g0))
    dbar, mbar, ka = stacked_coupling(ops), blocked_storage_mass(ops), ops.csr.stiff_elast
    mbar_lu = numkit.Factorization(mbar)
    rhs_u = dbar.T @ p0 + f0
    u0 = numkit.solve(ka, rhs_u)
    # differentiating K_A u = D^T p + f along the flow gives the velocity
    # relation with +fdot on the right-hand side
    rhs_w = fdot0 - dbar.T @ mbar_lu.solve(kbar_matrix(ops, coupling) @ p0 - g0)
    du, n = ops.dim_u, ops.dim_u + mbar.shape[0]
    sqd = numkit.block_csr((n, n), [(0, 0, ka), (0, du, dbar.T), (du, 0, dbar), (du, du, -mbar)])
    try:
        ldl = numkit.lu_factor(sqd.tocsc(), symmetric=True)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"initialization system numerically singular ({exc})") from exc
    rhs, x = np.concatenate([rhs_w, np.zeros(n - du)]), np.zeros(n)
    for _ in range(1 + _REFINEMENT_STEPS):  # the solve, then the refinement steps
        x += ldl.solve(rhs - sqd @ x)
    w0 = x[:du]

    def schur(w):
        return ka @ w + dbar.T @ mbar_lu.solve(dbar @ w)

    # S is symmetric, so its 1-norm is its infinity norm; t = 1 draws no random columns
    norm_s = onenormest(LinearOperator(ka.shape, matvec=schur, rmatvec=schur), t=1)
    err_u = _backward_error(ka @ u0 - rhs_u, float(abs(ka).sum(axis=1).max()), u0, rhs_u)
    err_w = _backward_error(schur(w0) - rhs_w, norm_s, w0, rhs_w)
    if not (err_u <= 1e-10 and err_w <= 1e-10):
        raise numkit.SingularMatrixError(
            f"initialization solves did not converge "
            f"(backward errors {err_u:.3e}, {err_w:.3e})"
        )
    return w0, u0


def hidden_constraint_residual(ops: DiscreteOperators, w, p, fdot, g,
                               coupling: NetworkCoupling | None = None) -> float:
    """Norm of the differentiated constraint on the velocity state,
    K_A w + D-bar^T M-bar^-1 (D-bar w + K-bar p - g) - fdot, by one M-bar solve."""
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    fdot = np.asarray(fdot, dtype=float)
    g = np.asarray(g, dtype=float)
    dbar = stacked_coupling(ops)
    flux = numkit.solve(blocked_storage_mass(ops), dbar @ w + kbar_matrix(ops, coupling) @ p - g)
    return float(np.linalg.norm(ops.csr.stiff_elast @ w + dbar.T @ flux - fdot))


def nonaugmented_quasi_static_pencil(ops: DiscreteOperators,
                                     coupling: NetworkCoupling | None = None):
    """Pencil (E, A) of the two-variable (u, p) quasi-static system.

    This is the form without the auxiliary velocity state: the time
    derivative of u enters only through the divergence coupling, so E is the
    rectangular-looking block [[0, 0], [D, M]] and A = [[-K_A, D^T], [0, -K]],
    both CSR.
    """
    dbar = stacked_coupling(ops)
    du = ops.dim_u
    n = du + dbar.shape[0]
    E = numkit.block_csr((n, n), [(du, 0, dbar), (du, du, blocked_storage_mass(ops))])
    A = numkit.block_csr((n, n), [(0, 0, -ops.csr.stiff_elast), (0, du, dbar.T),
                                  (du, du, -kbar_matrix(ops, coupling))])
    return E, A


# ---------------------------------------------------------------------------
# Output-feedback regularization of the quasi-static system
# ---------------------------------------------------------------------------

def regularize_output_feedback(sys: PhDae, F11) -> PhDae:
    """Close the loop v_f = F11 y_f + residual on the velocity port.

    F11, dense or sparse (kept sparse), is embedded at the f port of an
    otherwise zero gain, so the closed loop adds M_u F11 M_u into the (w, w)
    drift position: the skew part goes to J, the symmetric part (sign-flipped)
    to R.  The result has index 1 for nonsingular F11 and keeps the dissipative
    structure exactly when the symmetric part of F11 is negative semidefinite;
    the returned system is built unvalidated so both properties can be checked.
    """
    F11 = numkit.as_csr(F11)
    f_cols = sys.input_slice("f")
    size = f_cols.stop - f_cols.start
    if F11.shape != (size, size):
        raise ValueError(f"feedback gain must be {size}x{size}, got {F11.shape}")
    F = numkit.block_csr((sys.input_dim, sys.input_dim), [(f_cols.start, f_cols.start, F11)])
    return close_loop(sys, FeedbackLaw(F))
