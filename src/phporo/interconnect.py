"""Power-conserving aggregation and output feedback of descriptor systems.

Closing the loop v = F y + v_res turns the drift J - R into
J - R + G F G^T: the skew part of F lands in J, the symmetric part in -R.
The result stays dissipative iff R - G F_sym G^T remains positive
semidefinite, which is checked eagerly.

The couple_* constructors rebuild the poroelastic formulations out of their
physical subsystems.  Beside its driven nodal-density port (G carries a mass
matrix), every subsystem has a coupling port whose G is the identity on the
rows it couples, so the coupling acts on assembled loads.  These ports are
closed with the coupling operators themselves, [[0, D^T], [-D, -B kron M_p]],
and the closed-loop E, J and R equal the direct builders exactly, with their
sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from . import numkit
from .formulations import DiscreteOperators, NetworkCoupling, stacked_coupling
from .numkit import StructureError
from .phdae import PhDae, validate_structure

COUPLING_PORT = "coupling"  # load-space port closed by the coupling, never driven


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
    """Uncoupled juxtaposition: block-diagonal matrices, additive energy.

    Built unvalidated: the parts were validated when they were built."""
    return PhDae(
        *(numkit.block_diag(*(getattr(s, name) for s in systems)) for name in "EJRG"),
        state_blocks=sum((s.state_blocks for s in systems), ()),
        input_blocks=sum((s.input_blocks for s in systems), ()),
        validate=False,
    )


def close_loop(sys: PhDae, law: FeedbackLaw) -> PhDae:
    """The unvalidated closed loop (J + G F_skew G^T, R - G F_sym G^T)."""
    if law.size != sys.input_dim:
        raise ValueError(
            f"feedback gain size {law.size} does not match input dimension {sys.input_dim}"
        )
    G = csr_array(sys.G)
    return PhDae(sys.E, sys.J + G @ law.skew @ G.T, sys.R - G @ law.sym @ G.T, sys.G,
                 state_blocks=sys.state_blocks, input_blocks=sys.input_blocks,
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
# Physical subsystems: a driven nodal-density port and a coupling port each
# ---------------------------------------------------------------------------

def _hyperbolic_subsystem(ops: DiscreteOperators) -> PhDae:
    """Elastic body with velocity state: E = diag(mass_rho, K_A), lossless."""
    du = ops.dim_u
    ka = ops.stiff_elast
    J = np.zeros((2 * du, 2 * du))
    J[:du, du:] = -ka
    J[du:, :du] = ka
    G = np.zeros((2 * du, 2 * du))
    G[:du, :du] = ops.mass_u
    G[:du, du:] = np.eye(du)
    return PhDae(
        numkit.block_diag(ops.mass_rho, ka), J, np.zeros((2 * du, 2 * du)), G,
        state_blocks=(("w", du), ("u", du)), input_blocks=(("f", du), (COUPLING_PORT, du)),
    )


def _parabolic_subsystem(ops: DiscreteOperators, network: int) -> PhDae:
    """Single pressure network: storage mass against its flow stiffness."""
    dp = ops.dim_p
    label = "p" if ops.networks == 1 else f"p{network + 1}"
    return PhDae(
        ops.mass_storage, np.zeros((dp, dp)), ops.stiff_flow[network],
        np.hstack([ops.mass_p, np.eye(dp)]),
        state_blocks=((label, dp),), input_blocks=(("g", dp), (COUPLING_PORT, dp)),
    )


def _elliptic_subsystem(ops: DiscreteOperators) -> PhDae:
    """Static elastic body: purely resistive, zero stored energy."""
    du = ops.dim_u
    return PhDae(
        np.zeros((du, du)), np.zeros((du, du)), ops.stiff_elast,
        np.hstack([ops.mass_u, np.eye(du)]),
        state_blocks=(("u", du),), input_blocks=(("f", du), (COUPLING_PORT, du)),
    )


def _flux_potential_subsystem(ops: DiscreteOperators) -> PhDae:
    """Pressure/auxiliary pair (p, q) with energy carried by the flow operator;
    the coupling port acts on the p rows, the driven port on the q rows."""
    dp = ops.dim_p
    kk = ops.stiff_flow[0]
    E = numkit.block_diag(np.zeros((dp, dp)), kk)
    J = np.zeros((2 * dp, 2 * dp))
    J[:dp, dp:] = kk
    J[dp:, :dp] = -kk
    R = numkit.block_diag(ops.mass_storage, np.zeros((dp, dp)))
    G = numkit.block_diag(np.eye(dp), ops.mass_p)
    return PhDae(E, J, R, G, state_blocks=(("p", dp), ("q", dp)),
                 input_blocks=((COUPLING_PORT, dp), ("g", dp)))


def _coupling_mask(sys: PhDae) -> np.ndarray:
    """True on the input columns of the coupling ports."""
    return np.array([name == COUPLING_PORT for name, size in sys.input_blocks
                     for _ in range(size)], dtype=bool)


def _close_coupling_ports(ops: DiscreteOperators, exchange: np.ndarray, sys: PhDae) -> PhDae:
    """Close the coupling ports of an aggregate of subsystems, the elastic
    one first, with [[0, D^T], [-D, -B kron M_p]].  It takes the aggregate,
    not its parts, so that the parts are freed before the loop is closed."""
    ports = np.flatnonzero(_coupling_mask(sys))
    u, p = ports[: ops.dim_u], ports[ops.dim_u :]
    dbar = stacked_coupling(ops)
    F = np.zeros((sys.input_dim, sys.input_dim))
    F[np.ix_(u, p)] = dbar.T
    F[np.ix_(p, u)] = -dbar
    F[np.ix_(p, p)] = np.kron(-exchange, ops.mass_p)
    return feedback(sys, FeedbackLaw(F))


# ---------------------------------------------------------------------------
# Couplings that reproduce the direct formulations
# ---------------------------------------------------------------------------

def couple_two_field(ops: DiscreteOperators) -> PhDae:
    """Skew coupling of the elastic and pressure subsystems; equals the
    first-order builder exactly."""
    if ops.networks != 1:
        raise ValueError("two-field coupling needs a single network")
    return couple_network(ops, NetworkCoupling(np.zeros((1, 1))))


def couple_alt_qs(ops: DiscreteOperators) -> PhDae:
    """Skew coupling of the static body with the (p, q) pair; equals the
    auxiliary-variable builder exactly."""
    if ops.networks != 1:
        raise ValueError("the auxiliary-variable coupling needs a single network")
    if numkit.symmetry_defect(ops.stiff_flow[0]) > numkit.default_tol(ops.stiff_flow[0]):
        raise StructureError("the auxiliary-variable coupling needs a symmetric flow operator")
    return _close_coupling_ports(
        ops, np.zeros((1, 1)), aggregate(_elliptic_subsystem(ops), _flux_potential_subsystem(ops)))


def couple_network(ops: DiscreteOperators, coupling: NetworkCoupling) -> PhDae:
    """Couple the elastic body with m pressure networks through the divergence
    and the exchange-rate block; equals the network builder exactly.

    The exchange block enters the feedback with a negative sign so that the
    closed loop reproduces the coupled flow operator; its symmetric part then
    lands in R, and the dissipativity check of :func:`feedback` enforces the
    small-exchange-rate condition.
    """
    if coupling.size != ops.networks:
        raise ValueError("coupling dimension does not match the operator bundle")
    return _close_coupling_ports(ops, coupling.exchange, aggregate(
        _hyperbolic_subsystem(ops), *(_parabolic_subsystem(ops, i) for i in range(ops.networks))))


# ---------------------------------------------------------------------------
# Deviation report between a coupled system and its direct counterpart
# ---------------------------------------------------------------------------

def coupling_deviation(coupled: PhDae, direct: PhDae) -> dict:
    """Entrywise max deviations (relative to the direct system's scale).

    G is compared on the driven ports only: the coupling ports have no
    counterpart in the direct builder.
    """
    if coupled.state_dim != direct.state_dim:
        raise ValueError("systems have different state dimensions")
    out = {}
    for name in ("E", "J", "R"):
        a, b = getattr(coupled, name), getattr(direct, name)
        scale = max(float(np.max(np.abs(b))) if b.size else 0.0, 1.0)
        out[name] = float(np.max(np.abs(a - b)) / scale) if b.size else 0.0
    ga = coupled.G[:, ~_coupling_mask(coupled)]
    gb = direct.G
    if ga.shape != gb.shape:
        raise ValueError(f"driven input ports {ga.shape} do not match direct G {gb.shape}")
    scale = max(float(np.max(np.abs(gb))) if gb.size else 0.0, 1.0)
    out["G"] = float(np.max(np.abs(ga - gb)) / scale) if gb.size else 0.0
    return out
