"""Time integration with per-step energy accounting.

The implicit midpoint rule is the default: for linear constant-coefficient
systems it satisfies the discrete balance

    H(z_{k+1}) - H(z_k) = -h zm^T R zm + h ym^T vm,   zm = (z_k + z_{k+1})/2,

exactly up to roundoff, so every trajectory carries a dissipated/supplied
ledger that can be audited after the fact.  Implicit Euler is provided as a
baseline; it introduces artificial dissipation and keeps the same ledger
convention without the exact identity.  Both are the theta method
(theta = 1/2 and theta = 1) of one stepping loop.  The loop works on CSR
copies of E, J, R and G taken once per run: step matrices are sparse sums,
factored once per distinct step size by ``numkit``'s sparse LU, and every
product in a step is a sparse matrix-vector product.  The nonlinear
permeability run supplies a new R of one fixed pattern on every step: both
step matrices then live on one CSR pattern, the union of those of
E - theta h J, E + (1 - theta) h J and R, fixed at the first step, and each
step writes their data arrays and factors with the column order of the
first factorization, so it pays for one numeric LU but no ordering.

Index-2 systems are integrated directly without index reduction; the
stepper neither corrects nor reports constraint drift, which callers can
measure on the returned states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from . import fem
from .formulations import DiscreteOperators, build_full_first_order
from .numkit import Factorization, SingularMatrixError, balanced_kernels
from .phdae import InconsistentStateError, PhDae, certificate


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

    def hamiltonian_nonincreasing(self) -> bool:
        """True if H never rises by more than 1e-12 * max(1, |H_k|) in a step."""
        h = self.hamiltonian
        slack = 1e-12 * np.maximum(1.0, np.abs(h[:-1]))
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


def _check_consistent_start(sys: PhDae, z0: np.ndarray, v0: np.ndarray) -> None:
    """Algebraic rows (left kernel of E) of r = (J - R) z0 + G v0 must
    vanish, up to 1e-8 * (1 + max|r|).

    A certified E names those rows (its zero rows); otherwise the left
    kernel comes from ``balanced_kernels``.
    """
    zero_rows = certificate(sys, "E")
    if zero_rows is not None and not zero_rows.size:
        return  # E is nonsingular
    rhs = sys.drift() @ z0 + sys.G @ v0
    algebraic = rhs[zero_rows] if zero_rows is not None else balanced_kernels(sys.E)[2].T @ rhs
    resid = float(np.linalg.norm(algebraic))
    scale = 1.0 + float(np.max(np.abs(rhs))) if rhs.size else 1.0
    limit = 1e-8 * scale
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


def _entry_keys(M) -> np.ndarray:
    """row * columns + column of every stored entry of the CSR matrix M."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)) * M.shape[1] + M.indices


class _FrozenRSteps:
    """Both step matrices of the frozen-R path on one CSR pattern.

    The pattern is the union of those of E - a J, E + b J and the first R
    (a = theta h, b = (1 - theta) h).  ``step`` takes an R of that same
    pattern, writes E - a J + a R and E + b J - b R as data arrays on it,
    entry by entry as the sparse sums would, and factors the first with the
    column order of the pattern's first factorization.
    """

    def __init__(self, implicit, explicit, R):
        keys = np.unique(np.concatenate([_entry_keys(M) for M in (implicit, explicit, R)]))
        n, m = R.shape
        self._indptr = np.searchsorted(keys, np.arange(n + 1) * m)
        self._indices = keys % m
        slots = [np.searchsorted(keys, _entry_keys(M)) for M in (implicit, explicit, R)]
        self._implicit = self._on_pattern(slots[0], implicit.data)
        self._explicit = self._on_pattern(slots[1], explicit.data)
        self._R_slots = slots[2]
        self._R_pattern = (R.indptr, R.indices)
        self._order = None

    def _on_pattern(self, slots, values) -> np.ndarray:
        """Data array with the values at their slots and zeros elsewhere."""
        return np.bincount(slots, weights=values, minlength=self._indices.size)

    def holds(self, R) -> bool:
        """True if R has the pattern of the first R."""
        return all(map(np.array_equal, self._R_pattern, (R.indptr, R.indices)))

    def step(self, R, a: float, b: float) -> tuple[Factorization, csr_array]:
        r = self._on_pattern(self._R_slots, R.data)
        implicit, explicit = (csr_array((data, self._indices, self._indptr), shape=R.shape)
                              for data in (self._implicit + a * r, self._explicit - b * r))
        lu = Factorization(implicit, "step matrix", order=self._order)
        self._order = lu.order
        return lu, explicit


def _theta_run(sys: PhDae, z0, input, t_grid, theta: float, frozen_R=None) -> Trajectory:
    """Theta method for E z' = (J - R) z + G v with the midpoint ledger.

    Each step solves (E - theta h J + theta h R) z_new =
    (E + (1 - theta) h J - (1 - theta) h R) z + h G v with v sampled at
    t_k + theta h.  E, J, R and G are taken as CSR once; the step matrices
    are formed and factored once per distinct step size.  ``frozen_R(z)``,
    if given, returns the CSR dissipation matrix for the step that starts at
    z; it is then used for that step's matrices and ledger.  Those are
    written on every step into a pattern kept per step size (``_FrozenRSteps``,
    made anew when R's pattern changes) and factored without a new ordering.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (sys.state_dim,):
        raise ValueError(f"initial state must have length {sys.state_dim}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or (len(t) > 1 and not np.all(np.diff(t) > 0)):
        raise ValueError("time grid must be 1-d and strictly increasing")
    v = input if input is not None else (lambda t, zero=np.zeros(sys.input_dim): zero)
    _check_consistent_start(sys, z0, np.asarray(v(t[0]), dtype=float))

    E, J, R, G = (csr_array(M) for M in (sys.E, sys.J, sys.R, sys.G))
    steps = _snapped_steps(t)
    states = np.empty((len(t), sys.state_dim))
    states[0] = z0
    H = np.empty(len(t))
    H[0] = 0.5 * float(z0 @ (E @ z0))
    diss = np.empty(len(steps))
    supp = np.empty(len(steps))
    step_matrices: dict[float, tuple] = {}  # h -> (factored step matrix, explicit matrix)
    frozen_steps: dict[float, _FrozenRSteps] = {}
    z = z0
    for k, h in enumerate(steps.tolist()):
        a, b = theta * h, (1.0 - theta) * h
        try:
            if frozen_R is None:
                if h not in step_matrices:
                    step_matrices[h] = (Factorization(E - a * J + a * R, "step matrix"),
                                        E + b * J - b * R)
                lu, explicit = step_matrices[h]
            else:
                R = frozen_R(z)
                if h not in frozen_steps or not frozen_steps[h].holds(R):
                    frozen_steps[h] = _FrozenRSteps(E - a * J, E + b * J, R)
                lu, explicit = frozen_steps[h].step(R, a, b)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"step {k}: {exc}") from exc
        Gv = G @ np.asarray(v(t[k] + 0.5 * h), dtype=float)
        Gv_step = Gv if theta == 0.5 else G @ np.asarray(v(t[k] + theta * h), dtype=float)
        z_new = lu.solve(explicit @ z + h * Gv_step)
        # midpoint-quadrature ledger for every theta
        zm = 0.5 * (z + z_new)
        diss[k] = h * float(zm @ (R @ zm))
        supp[k] = h * float(zm @ Gv)
        z = z_new
        states[k + 1] = z
        H[k + 1] = 0.5 * float(z @ (E @ z))
    return Trajectory(t, states, H, diss, supp)


def integrate_midpoint(sys: PhDae, z0, input=None, t_grid=None) -> Trajectory:
    """Implicit midpoint rule; one factorization per distinct step size."""
    return _theta_run(sys, z0, input, t_grid, 0.5)


def integrate_euler(sys: PhDae, z0, input=None, t_grid=None) -> Trajectory:
    """Implicit Euler baseline; adds artificial dissipation on lossless systems."""
    return _theta_run(sys, z0, input, t_grid, 1.0)


def integrate_nonlinear_kappa(ops: DiscreteOperators, kappa_fn, z0, input=None, t_grid=None,
                              bounds: tuple[float, float] | None = None) -> Trajectory:
    """Semi-implicit midpoint run with dilatation-dependent permeability.

    Only the first-order single-network formulation supports this: before
    each step the pressure dissipation block is reassembled from the current
    displacement and frozen for the step, so the per-step balance identity
    still holds with the frozen block in the ledger; R is zero outside it.
    """
    if ops.networks != 1:
        raise ValueError("nonlinear permeability runs need a single network")
    base = build_full_first_order(ops)
    nu = ops.materials[0].nu
    u_slice = base.state_slice("u")
    p_slice = base.state_slice("p")

    def frozen_R(z):
        block = fem.assemble_nonlinear_permeability(
            ops.qspace, ops.vspace, z[u_slice], kappa_fn, nu, bounds=bounds
        )
        # the block's rows and columns are the p rows and columns of R
        indptr = np.pad(block.indptr, (p_slice.start, base.state_dim - p_slice.stop), mode="edge")
        return csr_array((block.data, block.indices + p_slice.start, indptr), shape=base.R.shape)

    return _theta_run(base, z0, input, t_grid, 0.5, frozen_R)
