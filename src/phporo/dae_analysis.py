"""Differentiation-index classification and consistency machinery.

For a regular constant-coefficient pair (E, A) the index is 0 when E is
invertible, 1 when W^T A V is invertible for kernel bases V of E and W of
E^T, and at least 2 otherwise.  Detection of anything beyond "at least 2"
is deliberately out of scope.
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
from .phdae import PhDae

INDEX_AT_LEAST_2 = 2
_PENCIL_SEED = 0x5EED
_INDEX_LABELS = {0: "0", 1: "1", INDEX_AT_LEAST_2: "at_least_2"}


@dataclass(frozen=True)
class IndexReport:
    """Classification result; ``index == 2`` means at least two."""

    index: int
    e_rank: int
    pencil_regular: bool
    kernel_test_value: float | None

    @property
    def label(self) -> str:
        return _INDEX_LABELS[self.index]

    def to_dict(self) -> dict:
        return {
            "index": self.label,
            "e_rank": self.e_rank,
            "pencil_regular": self.pencil_regular,
            "kernel_test_value": self.kernel_test_value,
        }


def classify_index(E, A, tol: float = 1e-10, seed: int = _PENCIL_SEED) -> IndexReport:
    """Classify the differentiation index of E z' = A z + k.

    Pencil regularity is probed by the smallest singular value of
    lambda E - A at three random lambda values (probabilistic, recorded in
    the report); a pencil singular at all samples is rejected.
    """
    E = numkit.as_matrix(E)
    A = numkit.as_matrix(A)
    if E.shape != A.shape or E.shape[0] != E.shape[1]:
        raise ValueError(f"E and A must be square of equal size, got {E.shape} and {A.shape}")
    n = E.shape[0]
    if n == 0:
        return IndexReport(0, 0, True, None)

    rng = np.random.default_rng(seed)
    regular = False
    for lam in rng.uniform(0.5, 2.0, size=3):
        sv = np.linalg.svd(lam * E - A, compute_uv=False)
        if sv[-1] > tol * max(sv[0], 1.0):
            regular = True
            break
    if not regular:
        raise ValueError("matrix pencil appears singular at all sampled shifts")

    rank, V, W = numkit.balanced_kernels(E, tol)
    if rank == n:
        return IndexReport(0, rank, True, None)

    # V and W have n - rank > 0 columns, so the core is a nonempty square
    ktv = float(np.linalg.svd(W.T @ A @ V, compute_uv=False)[-1])
    index = 1 if ktv > tol * max(float(np.linalg.norm(A, 2)), 1.0) else INDEX_AT_LEAST_2
    return IndexReport(index, rank, True, ktv)


def classify_phdae_index(sys: PhDae, tol: float = 1e-10,
                         seed: int = _PENCIL_SEED) -> IndexReport:
    """Classify a descriptor system through its drift pair (E, J - R)."""
    return classify_index(sys.E, sys.drift(), tol=tol, seed=seed)


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
                              coupling: NetworkCoupling | None = None,
                              tol: float | None = None):
    """Initial (w0, u0) satisfying the constraint and its hidden companion.

    The loads f0, fdot0, g0 are assembled (dual) vectors at t = 0.  In the
    quasi-static case these relations are forced; for regular systems they
    simply provide an admissible start compatible with the rho -> 0 limit.
    Both solves must reach a normwise backward error of at most ``tol``
    (default 1e-10).
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
    if max(err_u, err_w) > (1e-10 if tol is None else tol):
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
    rectangular-looking block [[0, 0], [D, M]] and A = [[-K_A, D^T], [0, -K]].
    """
    dbar = stacked_coupling(ops)
    mbar = blocked_storage_mass(ops)
    kbar = kbar_matrix(ops, coupling)
    du = ops.dim_u
    mdp = mbar.shape[0]
    E = np.zeros((du + mdp, du + mdp))
    E[du:, :du] = dbar
    E[du:, du:] = mbar
    A = np.zeros_like(E)
    A[:du, :du] = -ops.stiff_elast
    A[:du, du:] = dbar.T
    A[du:, du:] = -kbar
    return E, A


# ---------------------------------------------------------------------------
# Output-feedback regularization of the quasi-static system
# ---------------------------------------------------------------------------

def regularize_output_feedback(sys: PhDae, F11) -> PhDae:
    """Close the loop v_f = F11 y_f + residual on the velocity port.

    Adds M_u^T F11 M_u into the (w, w) drift position: the skew part goes to
    J, the symmetric part (sign-flipped) to R.  The result has index 1 for
    nonsingular F11 and keeps the dissipative structure exactly when the
    symmetric part of F11 is negative semidefinite; the returned system is
    built unvalidated so both properties can be checked explicitly.
    """
    F11 = numkit.as_matrix(F11)
    w_rows = sys.state_slice("w")
    f_cols = sys.input_slice("f")
    mu = sys.G[w_rows, f_cols]
    if F11.shape != (mu.shape[1], mu.shape[1]):
        raise ValueError(
            f"feedback gain must be {mu.shape[1]}x{mu.shape[1]}, got {F11.shape}"
        )
    delta = mu.T @ F11 @ mu
    sym, skew = numkit.sym_skew_split(delta)
    J = sys.J.copy()
    R = sys.R.copy()
    J[w_rows, w_rows] += skew
    R[w_rows, w_rows] -= sym
    return PhDae(sys.E, J, R, sys.G, state_blocks=sys.state_blocks,
                 input_blocks=sys.input_blocks, tol=sys.tol, validate=False)
