"""Differentiation-index classification and consistency machinery.

For a regular constant-coefficient pair (E, A) the index is 0 when E is
invertible, 1 when W^T A V is invertible for kernel bases V of E and W of
E^T, and at least 2 otherwise.  Detection of anything beyond "at least 2"
is deliberately out of scope; for a regular pH pencil, whose index is at
most 2 (Mehl, Mehrmann and Wojtylak, SIMAX 2018), it means exactly 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .phdae import PhDae, certificate

INDEX_AT_LEAST_2 = 2
_REGULARITY_SHIFT = 2.0  # any lambda > 0 decides regularity of a pH pencil
_INDEX_LABELS = {0: "0", 1: "1", INDEX_AT_LEAST_2: "at_least_2"}


@dataclass(frozen=True)
class IndexReport:
    """Classification result; ``index == 2`` means at least two."""

    index: int
    e_rank: int
    kernel_test_value: float | None  # None unless the dense kernel test ran

    @property
    def label(self) -> str:
        return _INDEX_LABELS[self.index]

    def to_dict(self) -> dict:
        return {
            "index": self.label,
            "e_rank": self.e_rank,
            "kernel_test_value": self.kernel_test_value,
        }


def classify_index(E, A) -> IndexReport:
    """Classify the differentiation index of E z' = A z + k.

    When ``numkit.psd_certificate`` certifies E, with zero rows Z, the
    pencil is regular when lambda E - A at a fixed lambda > 0 passes
    ``numkit.Factorization``, E has rank n - |Z| with kernel basis e_Z, and
    the index is 0 for empty Z, else 1 when A[Z, Z] is nonsingular (the
    certificate proves the symmetric part of -A[Z, Z] positive definite,
    whatever its scaling, or it passes ``Factorization``) and at least 2
    otherwise.  All of this runs on the CSR of E and A.  Without a
    certificate of E, or when the first factorization fails,
    ``classify_index_dense`` decides.
    """
    E, A = numkit.as_csr(E), numkit.as_csr(A)
    _require_pencil(E, A)
    return _classify(E, A, numkit.psd_certificate(E), lambda: classify_index_dense(E, A))


def classify_phdae_index(sys: PhDae) -> IndexReport:
    """Classify a descriptor system through its drift pair (E, J - R),
    reusing the system's certificate of E; the dense test, if needed, reads
    the system's dense views."""
    return _classify(sys.csr.E, sys.drift(), certificate(sys, "E"),
                     lambda: classify_index_dense(sys.E, sys.J - sys.R))


def _require_pencil(E, A) -> None:
    if E.shape != A.shape or E.shape[0] != E.shape[1]:
        raise ValueError(f"E and A must be square of equal size, got {E.shape} and {A.shape}")


def _classify(E, A, zero_rows: np.ndarray | None, dense) -> IndexReport:
    """Index of the CSR pencil (E, A) given ``zero_rows = psd_certificate(E)``;
    ``dense()`` runs the dense test where the certificate cannot decide."""
    if zero_rows is None:
        return dense()
    try:
        numkit.Factorization(_REGULARITY_SHIFT * E - A)
    except SingularMatrixError:
        # the dense test decides, and raises if the pencil is singular
        return dense()
    rank = E.shape[0] - zero_rows.size
    if not zero_rows.size:
        return IndexReport(0, rank, None)
    block = A[np.ix_(zero_rows, zero_rows)]
    kernel = numkit.psd_certificate(-block)
    if kernel is not None and not kernel.size:
        return IndexReport(1, rank, None)
    try:
        numkit.Factorization(block)
    except SingularMatrixError:
        return IndexReport(INDEX_AT_LEAST_2, rank, None)
    return IndexReport(1, rank, None)


def classify_index_dense(E, A) -> IndexReport:
    """Dense index classification, for an uncertified E and as test oracle;
    sparse E and A are densified.

    Regularity is decided by one SVD of lambda E - A at a fixed lambda > 0;
    a singular pencil (singular values down to 1e-10 times the largest, at
    least 1) raises ``ValueError``.  For pH pencils A = J - R this
    is exact: Re x^H (lambda E - J + R) x = 0 forces E x = R x = 0 (both
    PSD), hence J x = 0, so a pencil singular at one lambda > 0 has a common
    kernel of E, J and R and is singular everywhere (Mehl, Mehrmann and
    Wojtylak, SIMAX 2018).  A general pencil with an eigenvalue at that
    lambda is reported as singular.  The rank of E and its kernels come
    from ``numkit.balanced_kernels``; the index is 1 when the smallest
    singular value of W^T A V, the kernel test value, exceeds
    ``1e-10 * max(1, ||A||_2)``.
    """
    E, A = numkit.as_matrix(E), numkit.as_matrix(A)
    _require_pencil(E, A)
    n = E.shape[0]
    if n == 0:
        return IndexReport(0, 0, None)

    sv = np.linalg.svd(_REGULARITY_SHIFT * E - A, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1.0):
        raise ValueError(f"matrix pencil is singular at lambda = {_REGULARITY_SHIFT}")

    rank, V, W = numkit.balanced_kernels(E)
    if rank == n:
        return IndexReport(0, rank, None)

    # V and W have n - rank > 0 columns, so the core is a nonempty square
    ktv = float(np.linalg.svd(W.T @ A @ V, compute_uv=False)[-1])
    index = 1 if ktv > 1e-10 * max(float(np.linalg.norm(A, 2)), 1.0) else INDEX_AT_LEAST_2
    return IndexReport(index, rank, ktv)


# ---------------------------------------------------------------------------
# Consistent initialization and the hidden constraint (quasi-static case)
# ---------------------------------------------------------------------------

def _schur_blocks(ops: DiscreteOperators, coupling: NetworkCoupling | None):
    """D-bar, K-bar, the factored M-bar and the Schur matrix K_A + D-bar^T M-bar^-1 D-bar."""
    dbar = stacked_coupling(ops)
    mbar = numkit.Factorization(blocked_storage_mass(ops))
    schur = ops.stiff_elast + dbar.T @ mbar.solve(dbar)
    return dbar, kbar_matrix(ops, coupling), mbar, schur


def _backward_error(A, x, b) -> float:
    """Normwise backward error |A x - b| / (|A| |x| + |b|) in the infinity norm."""
    scale = np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    # a zero scale means A x and b vanish, so the residual does too
    return float(np.linalg.norm(A @ x - b, np.inf) / scale) if scale > 0.0 else 0.0


def consistent_initialization(ops: DiscreteOperators, p0, f0, fdot0, g0,
                              coupling: NetworkCoupling | None = None):
    """Initial (w0, u0) satisfying the constraint and its hidden companion.

    The loads f0, fdot0, g0 are assembled (dual) vectors at t = 0.  In the
    quasi-static case these relations are forced; for regular systems they
    simply provide an admissible start compatible with the rho -> 0 limit.
    Both solves must reach a normwise backward error of at most 1e-10.
    """
    p0 = np.asarray(p0, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    fdot0 = np.asarray(fdot0, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    dbar, kbar, mbar, schur = _schur_blocks(ops, coupling)
    ka = ops.stiff_elast

    rhs_u = dbar.T @ p0 + f0
    u0 = numkit.solve(ka, rhs_u)
    # differentiating K_A u = D^T p + f along the flow gives the velocity
    # relation with +fdot on the right-hand side
    rhs_w = fdot0 - dbar.T @ mbar.solve(kbar @ p0 - g0)
    w0 = numkit.solve(schur, rhs_w)

    err_u = _backward_error(ka, u0, rhs_u)
    err_w = _backward_error(schur, w0, rhs_w)
    if max(err_u, err_w) > 1e-10:
        raise numkit.SingularMatrixError(
            f"initialization solves did not converge "
            f"(backward errors {err_u:.3e}, {err_w:.3e})"
        )
    return w0, u0


def hidden_constraint_residual(ops: DiscreteOperators, w, p, fdot, g,
                               coupling: NetworkCoupling | None = None) -> float:
    """Norm of the differentiated constraint the velocity state must satisfy."""
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    fdot = np.asarray(fdot, dtype=float)
    g = np.asarray(g, dtype=float)
    dbar, kbar, mbar, schur = _schur_blocks(ops, coupling)
    resid = schur @ w + dbar.T @ mbar.solve(kbar @ p - g) - fdot
    return float(np.linalg.norm(resid))


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
    A = numkit.block_csr((n, n), [(0, 0, -ops.stiff_elast), (0, du, dbar.T),
                                  (du, du, -kbar_matrix(ops, coupling))])
    return E, A


# ---------------------------------------------------------------------------
# Output-feedback regularization of the quasi-static system
# ---------------------------------------------------------------------------

def regularize_output_feedback(sys: PhDae, F11) -> PhDae:
    """Close the loop v_f = F11 y_f + residual on the velocity port.

    F11 is embedded at the f port of an otherwise zero gain, so the closed
    loop adds M_u F11 M_u into the (w, w) drift position: the skew part goes
    to J, the symmetric part (sign-flipped) to R.  The result has index 1 for
    nonsingular F11 and keeps the dissipative structure exactly when the
    symmetric part of F11 is negative semidefinite; the returned system is
    built unvalidated so both properties can be checked explicitly.
    """
    F11 = numkit.as_matrix(F11)
    f_cols = sys.input_slice("f")
    size = f_cols.stop - f_cols.start
    if F11.shape != (size, size):
        raise ValueError(f"feedback gain must be {size}x{size}, got {F11.shape}")
    F = numkit.block_csr((sys.input_dim, sys.input_dim), [(f_cols.start, f_cols.start, F11)])
    return close_loop(sys, FeedbackLaw(F))
