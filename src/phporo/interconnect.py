"""Power-conserving aggregation and output feedback of descriptor systems.

Closing the loop v = F y + v_res turns the drift J - R into
J - R + G F G^T: the skew part of F lands in J, the symmetric part in -R.
The result stays dissipative iff R - G F_sym G^T remains positive
semidefinite, which is checked eagerly.

The couple_* constructors rebuild the poroelastic formulations out of their
physical subsystems.  Because inputs follow the nodal-density convention
(G carries mass matrices), the discrete feedback gains are the mass-weighted
representations M^-1 (coupling block) M^-1 of the underlying operators; the
closed-loop matrices then agree entrywise with the direct builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .formulations import (
    DiscreteOperators,
    NetworkCoupling,
    blocked_unit_mass,
    stacked_coupling,
)
from .numkit import StructureError
from .phdae import PhDae, validate_structure

RESIDUAL_PORT = "vp"  # pressure port consumed by the coupling, never driven


@dataclass(frozen=True)
class FeedbackLaw:
    """Square output-feedback gain with cached symmetric/skew split."""

    F: np.ndarray
    sym: np.ndarray = field(init=False, repr=False)
    skew: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        F = numkit.as_matrix(self.F)
        if F.shape[0] != F.shape[1]:
            raise ValueError(f"feedback gain must be square, got {F.shape}")
        sym, skew = numkit.sym_skew_split(F)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "sym", sym)
        object.__setattr__(self, "skew", skew)

    @property
    def size(self) -> int:
        return self.F.shape[0]


def aggregate(*systems: PhDae) -> PhDae:
    """Uncoupled juxtaposition: block-diagonal matrices, additive energy."""
    return PhDae(
        *(numkit.block_diag(*(getattr(s, name) for s in systems)) for name in "EJRG"),
        state_blocks=sum((s.state_blocks for s in systems), ()),
        input_blocks=sum((s.input_blocks for s in systems), ()),
    )


def close_loop(sys: PhDae, law: FeedbackLaw) -> PhDae:
    """The unvalidated closed loop (J + G F_skew G^T, R - G F_sym G^T)."""
    if law.size != sys.input_dim:
        raise ValueError(
            f"feedback gain size {law.size} does not match input dimension {sys.input_dim}"
        )
    return PhDae(sys.E, sys.J + sys.G @ law.skew @ sys.G.T, sys.R - sys.G @ law.sym @ sys.G.T,
                 sys.G, state_blocks=sys.state_blocks, input_blocks=sys.input_blocks,
                 validate=False)


def feedback(sys: PhDae, law: FeedbackLaw) -> PhDae:
    """Close v = F y + v_res; raises ``StructureError`` if dissipativity is lost."""
    closed = close_loop(sys, law)
    report = validate_structure(closed)
    if not report.r_report.is_semidefinite:
        raise StructureError(
            f"feedback destroys the dissipative structure: R - G F_sym G^T has "
            f"min eigenvalue {report.r_report.min_eigenvalue:.3e}"
        )
    report.require()
    return closed


# ---------------------------------------------------------------------------
# Physical subsystems
# ---------------------------------------------------------------------------

def _hyperbolic_subsystem(ops: DiscreteOperators) -> PhDae:
    """Elastic body with velocity state: E = diag(mass_rho, K_A), lossless."""
    du = ops.dim_u
    ka = ops.stiff_elast
    J = np.zeros((2 * du, 2 * du))
    J[:du, du:] = -ka
    J[du:, :du] = ka
    G = np.zeros((2 * du, du))
    G[:du, :] = ops.mass_u
    return PhDae(
        numkit.block_diag(ops.mass_rho, ka), J, np.zeros((2 * du, 2 * du)), G,
        state_blocks=(("w", du), ("u", du)), input_blocks=(("f", du),),
    )


def _parabolic_subsystem(ops: DiscreteOperators, network: int) -> PhDae:
    """Single pressure network: storage mass against its flow stiffness."""
    dp = ops.dim_p
    label = "p" if ops.networks == 1 else f"p{network + 1}"
    return PhDae(
        ops.mass_storage, np.zeros((dp, dp)), ops.stiff_flow[network], ops.mass_p,
        state_blocks=((label, dp),), input_blocks=(("g", dp),),
    )


def _elliptic_subsystem(ops: DiscreteOperators) -> PhDae:
    """Static elastic body: purely resistive, zero stored energy."""
    du = ops.dim_u
    return PhDae(
        np.zeros((du, du)), np.zeros((du, du)), ops.stiff_elast, ops.mass_u,
        state_blocks=(("u", du),), input_blocks=(("f", du),),
    )


def _flux_potential_subsystem(ops: DiscreteOperators) -> PhDae:
    """Pressure/auxiliary pair (p, q) with energy carried by the flow operator."""
    dp = ops.dim_p
    kk = ops.stiff_flow[0]
    E = numkit.block_diag(np.zeros((dp, dp)), kk)
    J = np.zeros((2 * dp, 2 * dp))
    J[:dp, dp:] = kk
    J[dp:, :dp] = -kk
    R = numkit.block_diag(ops.mass_storage, np.zeros((dp, dp)))
    G = numkit.block_diag(ops.mass_p, ops.mass_p)
    return PhDae(E, J, R, G, state_blocks=(("p", dp), ("q", dp)),
                 input_blocks=((RESIDUAL_PORT, dp), ("g", dp)))


def _divergence_gain(ops: DiscreteOperators, size: int) -> np.ndarray:
    """size x size gain whose skew block couples the f port with the m pressure
    ports after it through M_u^-1 D^T M_p^-1, the mass-weighted divergence."""
    dbar = stacked_coupling(ops)
    du, mdp = ops.dim_u, dbar.shape[0]
    F = np.zeros((size, size))
    if dbar.size:
        f_up = numkit.solve(ops.mass_u, numkit.solve(blocked_unit_mass(ops), dbar).T)
        F[:du, du : du + mdp] = f_up
        F[du : du + mdp, :du] = -f_up.T
    return F


# ---------------------------------------------------------------------------
# Couplings that reproduce the direct formulations
# ---------------------------------------------------------------------------

def couple_two_field(ops: DiscreteOperators) -> PhDae:
    """Skew coupling of the elastic and pressure subsystems; equals the
    first-order builder entrywise."""
    if ops.networks != 1:
        raise ValueError("two-field coupling needs a single network")
    return couple_network(ops, NetworkCoupling(np.zeros((1, 1))))


def couple_alt_qs(ops: DiscreteOperators) -> PhDae:
    """Skew coupling of the static body with the (p, q) pair; equals the
    auxiliary-variable builder entrywise (its pressure port stays residual)."""
    if ops.networks != 1:
        raise ValueError("the auxiliary-variable coupling needs a single network")
    if numkit.symmetry_defect(ops.stiff_flow[0]) > numkit.default_tol(ops.stiff_flow[0]):
        raise StructureError("the auxiliary-variable coupling needs a symmetric flow operator")
    agg = aggregate(_elliptic_subsystem(ops), _flux_potential_subsystem(ops))
    return feedback(agg, FeedbackLaw(_divergence_gain(ops, agg.input_dim)))


def couple_network(ops: DiscreteOperators, coupling: NetworkCoupling) -> PhDae:
    """Couple the elastic body with m pressure networks through the divergence
    gains and the exchange-rate block; equals the network builder entrywise.

    The exchange block enters the feedback with a negative sign so that the
    closed loop reproduces the coupled flow operator; its symmetric part then
    lands in R, and the dissipativity check of :func:`feedback` enforces the
    small-exchange-rate condition.
    """
    if coupling.size != ops.networks:
        raise ValueError("coupling dimension does not match the operator bundle")
    sys = aggregate(_hyperbolic_subsystem(ops),
                    *(_parabolic_subsystem(ops, i) for i in range(ops.networks)))
    du, dp = ops.dim_u, ops.dim_p
    mp_inv = numkit.solve(ops.mass_p, np.eye(dp)) if dp else np.zeros((0, 0))
    F = _divergence_gain(ops, sys.input_dim)
    F[du:, du:] = -np.kron(coupling.exchange, mp_inv)
    return feedback(sys, FeedbackLaw(F))


# ---------------------------------------------------------------------------
# Deviation report between a coupled system and its direct counterpart
# ---------------------------------------------------------------------------

def _external_input_columns(sys: PhDae) -> np.ndarray:
    cols = []
    start = 0
    for name, size in sys.input_blocks:
        if name != RESIDUAL_PORT:
            cols.extend(range(start, start + size))
        start += size
    return np.array(cols, dtype=int)


def coupling_deviation(coupled: PhDae, direct: PhDae) -> dict:
    """Entrywise max deviations (relative to the direct system's scale).

    G is compared on the externally driven ports only: the coupling consumes
    the pressure port of the (p, q) subsystem, which has no counterpart in
    the direct builder.
    """
    if coupled.state_dim != direct.state_dim:
        raise ValueError("systems have different state dimensions")
    out = {}
    for name in ("E", "J", "R"):
        a, b = getattr(coupled, name), getattr(direct, name)
        scale = max(float(np.max(np.abs(b))) if b.size else 0.0, 1.0)
        out[name] = float(np.max(np.abs(a - b)) / scale) if b.size else 0.0
    g_cols = _external_input_columns(coupled)
    ga = coupled.G[:, g_cols] if g_cols.size else coupled.G[:, :0]
    gb = direct.G
    if ga.shape != gb.shape:
        raise ValueError(f"driven input ports {ga.shape} do not match direct G {gb.shape}")
    scale = max(float(np.max(np.abs(gb))) if gb.size else 0.0, 1.0)
    out["G"] = float(np.max(np.abs(ga - gb)) / scale) if gb.size else 0.0
    return out
