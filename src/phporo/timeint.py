"""Time integration with per-step energy accounting.

The implicit midpoint rule is the default: for linear constant-coefficient
systems it satisfies the discrete balance

    H(z_{k+1}) - H(z_k) = -h zm^T R zm + h ym^T vm,   zm = (z_k + z_{k+1})/2,

exactly up to roundoff, so every trajectory carries a dissipated/supplied
ledger that can be audited after the fact.  Implicit Euler is provided as a
baseline; it introduces artificial dissipation and keeps the same ledger
convention without the exact identity.  Both are the theta method
(theta = 1/2 and theta = 1) of one stepping loop, which factors the step
matrix once per distinct step size.

Index-2 systems are integrated directly without index reduction; the
stepper neither corrects nor reports constraint drift, which callers can
measure on the returned states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, phdae
from .formulations import DiscreteOperators, build_full_first_order
from .numkit import Factorization, SingularMatrixError, balanced_kernels
from .phdae import InconsistentStateError, PhDae


@dataclass(frozen=True)
class Trajectory:
    """Time grid, state snapshots and the per-step energy ledger."""

    times: np.ndarray        # (T,) strictly increasing
    states: np.ndarray       # (T, n)
    hamiltonian: np.ndarray  # (T,)
    dissipated: np.ndarray   # (T-1,) h * zm^T R zm per step
    supplied: np.ndarray     # (T-1,) h * ym^T vm per step

    def __post_init__(self):
        T = len(self.times)
        if self.states.shape[0] != T or len(self.hamiltonian) != T:
            raise ValueError("snapshot arrays must match the time grid")
        if len(self.dissipated) != T - 1 or len(self.supplied) != T - 1:
            raise ValueError("ledger arrays must have one entry per step")
        if T > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def dissipated_cumulative(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.dissipated)])

    def supplied_cumulative(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.supplied)])

    def balance_residuals(self) -> np.ndarray:
        """|H_{k+1} - H_k + dissipated_k - supplied_k| per step."""
        return np.abs(np.diff(self.hamiltonian) + self.dissipated - self.supplied)

    def hamiltonian_nonincreasing(self, tol: float = 1e-12) -> bool:
        """True if H never rises by more than tol * max(1, |H_k|) in a step."""
        h = self.hamiltonian
        slack = tol * np.maximum(1.0, np.abs(h[:-1]))
        return bool(np.all(h[1:] <= h[:-1] + slack))

    def to_csv(self, path) -> None:
        """Columns: time, H, dissipated_cum, supplied_cum, state entries."""
        header = ["time", "H", "dissipated_cum", "supplied_cum"]
        header += [f"z{i}" for i in range(self.states.shape[1])]
        table = np.column_stack([self.times, self.hamiltonian, self.dissipated_cumulative(),
                                 self.supplied_cumulative(), self.states])
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in table:
                fh.write(",".join(map(repr, row.tolist())) + "\n")


def _check_consistent_start(sys: PhDae, z0: np.ndarray, v0: np.ndarray,
                            tol: float | None) -> None:
    """Algebraic rows (left kernel of E) must annihilate the drift at t = 0."""
    rank, _, W = balanced_kernels(sys.E)
    if rank == sys.state_dim:
        return
    rhs = sys.drift() @ z0 + sys.G @ v0
    resid = float(np.linalg.norm(W.T @ rhs))
    scale = 1.0 + float(np.max(np.abs(rhs))) if rhs.size else 1.0
    limit = tol if tol is not None else 1e-8 * scale
    if resid > limit:
        raise InconsistentStateError(
            f"initial state violates the algebraic constraints "
            f"(residual {resid:.3e} > {limit:.3e})"
        )


def _snapped_steps(t: np.ndarray) -> np.ndarray:
    """Step sizes of the grid, with sizes that agree to 1e-12 relative
    replaced by the smallest of them, so that a uniform grid has exactly one
    step size despite the rounding of its nodes."""
    h = np.diff(t)
    order = np.argsort(h, kind="stable")
    sorted_h = h[order]
    i = 0
    while i < len(sorted_h):
        j = int(np.searchsorted(sorted_h, sorted_h[i] * (1.0 + 1e-12), side="right"))
        h[order[i:j]] = sorted_h[i]
        i = j
    return h


def _theta_run(sys: PhDae, z0, input, t_grid, tol: float | None, theta: float,
               frozen_R=None) -> Trajectory:
    """Theta method for E z' = (J - R) z + G v with the midpoint ledger.

    Each step solves (E - theta h K) z_new = (E + (1 - theta) h K) z + h G v
    with K = J - R and v sampled at t_k + theta h.  The step matrices are
    formed and factored once per distinct step size.  ``frozen_R(z)``, if
    given, returns the dissipation matrix for the step that starts at z;
    it is then used for that step's K and ledger, and the step matrices are
    formed and factored on every step.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (sys.state_dim,):
        raise ValueError(f"initial state must have length {sys.state_dim}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or (len(t) > 1 and not np.all(np.diff(t) > 0)):
        raise ValueError("time grid must be 1-d and strictly increasing")
    v = input if input is not None else (lambda t, zero=np.zeros(sys.input_dim): zero)
    _check_consistent_start(sys, z0, np.asarray(v(t[0]), dtype=float), tol)

    steps = _snapped_steps(t)
    states = np.empty((len(t), sys.state_dim))
    states[0] = z0
    H = np.empty(len(t))
    H[0] = phdae.hamiltonian(sys, z0)
    diss = np.empty(len(steps))
    supp = np.empty(len(steps))
    R, K = sys.R, sys.drift()
    step_matrices: dict[float, tuple] = {}
    z = z0
    for k, h in enumerate(steps.tolist()):
        if frozen_R is not None:
            R = frozen_R(z)
            K = sys.J - R
            step_matrices.clear()
        if h not in step_matrices:
            try:
                lu = Factorization(sys.E - theta * h * K, "step matrix")
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"step {k}: {exc}") from exc
            step_matrices[h] = (lu, sys.E + (1.0 - theta) * h * K)
        lu, explicit = step_matrices[h]
        v_mid = np.asarray(v(t[k] + 0.5 * h), dtype=float)
        v_step = v_mid if theta == 0.5 else np.asarray(v(t[k] + theta * h), dtype=float)
        z_new = lu.solve(explicit @ z + h * (sys.G @ v_step))
        # midpoint-quadrature ledger for every theta
        zm = 0.5 * (z + z_new)
        diss[k] = h * float(zm @ R @ zm)
        supp[k] = h * float((sys.G.T @ zm) @ v_mid)
        z = z_new
        states[k + 1] = z
        H[k + 1] = phdae.hamiltonian(sys, z)
    return Trajectory(t, states, H, diss, supp)


def integrate_midpoint(sys: PhDae, z0, input=None, t_grid=None,
                       tol: float | None = None) -> Trajectory:
    """Implicit midpoint rule; one factorization per distinct step size."""
    return _theta_run(sys, z0, input, t_grid, tol, 0.5)


def integrate_euler(sys: PhDae, z0, input=None, t_grid=None,
                    tol: float | None = None) -> Trajectory:
    """Implicit Euler baseline; adds artificial dissipation on lossless systems."""
    return _theta_run(sys, z0, input, t_grid, tol, 1.0)


def integrate_nonlinear_kappa(ops: DiscreteOperators, kappa_fn, z0, input=None,
                              t_grid=None, bounds: tuple[float, float] | None = None,
                              tol: float | None = None) -> Trajectory:
    """Semi-implicit midpoint run with dilatation-dependent permeability.

    Only the first-order single-network formulation supports this: before
    each step the pressure dissipation block is reassembled from the current
    displacement and frozen for the step, so the per-step balance identity
    still holds with the frozen block in the ledger.
    """
    if ops.networks != 1:
        raise ValueError("nonlinear permeability runs need a single network")
    base = build_full_first_order(ops)
    nu = ops.materials[0].nu
    u_slice = base.state_slice("u")
    p_slice = base.state_slice("p")
    R = base.R.copy()

    def frozen_R(z):
        R[p_slice, p_slice] = fem.assemble_nonlinear_permeability(
            ops.qspace, ops.vspace, z[u_slice], kappa_fn, nu, bounds=bounds
        )
        return R

    return _theta_run(base, z0, input, t_grid, tol, 0.5, frozen_R)
