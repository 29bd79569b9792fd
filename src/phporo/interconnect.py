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
sparsity.  The parts are built unvalidated and ``feedback`` certifies the
closed loop once: an asymmetric flow block fails the loop's E and J tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import block_diag, csr_array, eye_array, kron

from . import numkit
from .formulations import DiscreteOperators, NetworkCoupling, stacked_coupling
from .numkit import StructureError
from .phdae import PhDae, validate_structure

COUPLING_PORT = "coupling"  # load-space port closed by the coupling, never driven


@dataclass(frozen=True)
class FeedbackLaw:
    """Square output-feedback gain, held as CSR with its symmetric/skew split."""

    F: csr_array
    sym: csr_array = field(init=False, repr=False)
    skew: csr_array = field(init=False, repr=False)

    def __post_init__(self):
        F = numkit.as_csr(self.F)
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

    Built unvalidated: valid parts make it valid, and ``feedback`` checks a closed loop."""
    return PhDae(
        *(block_diag([getattr(s.csr, name) for s in systems], format="csr") for name in "EJRG"),
        state_blocks=sum((s.state_blocks for s in systems), ()),
        input_blocks=sum((s.input_blocks for s in systems), ()),
        validate=False,
    )


def close_loop(sys: PhDae, law: FeedbackLaw) -> PhDae:
    """The unvalidated closed loop (J + G F_skew G^T, R - G F_sym G^T), sparse."""
    if law.size != sys.input_dim:
        raise ValueError(
            f"feedback gain size {law.size} does not match input dimension {sys.input_dim}"
        )
    E, J, R, G = sys.csr
    return PhDae(E, J + G @ law.skew @ G.T, R - G @ law.sym @ G.T, G,
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
    du, blocks = ops.dim_u, ops.csr
    ka = blocks.stiff_elast
    shape = (2 * du, 2 * du)
    return PhDae(
        numkit.block_csr(shape, [(0, 0, blocks.mass_rho), (du, du, ka)]),
        numkit.block_csr(shape, [(0, du, -ka), (du, 0, ka)]),
        csr_array(shape),
        numkit.block_csr(shape, [(0, 0, blocks.mass_u), (0, du, eye_array(du))]),
        state_blocks=(("w", du), ("u", du)), input_blocks=(("f", du), (COUPLING_PORT, du)),
        validate=False)


def _parabolic_subsystem(ops: DiscreteOperators, network: int) -> PhDae:
    """Single pressure network: storage mass against its flow stiffness."""
    dp, blocks = ops.dim_p, ops.csr
    label = "p" if ops.networks == 1 else f"p{network + 1}"
    return PhDae(
        blocks.mass_storage, csr_array((dp, dp)), blocks.stiff_flow[network],
        numkit.block_csr((dp, 2 * dp), [(0, 0, blocks.mass_p), (0, dp, eye_array(dp))]),
        state_blocks=((label, dp),), input_blocks=(("g", dp), (COUPLING_PORT, dp)),
        validate=False)


def _elliptic_subsystem(ops: DiscreteOperators) -> PhDae:
    """Static elastic body: purely resistive, zero stored energy."""
    du = ops.dim_u
    return PhDae(
        csr_array((du, du)), csr_array((du, du)), ops.csr.stiff_elast,
        numkit.block_csr((du, 2 * du), [(0, 0, ops.csr.mass_u), (0, du, eye_array(du))]),
        state_blocks=(("u", du),), input_blocks=(("f", du), (COUPLING_PORT, du)),
        validate=False)


def _flux_potential_subsystem(ops: DiscreteOperators) -> PhDae:
    """Pressure/auxiliary pair (p, q) with energy carried by the flow operator;
    the coupling port acts on the p rows, the driven port on the q rows."""
    dp, blocks = ops.dim_p, ops.csr
    kk = blocks.stiff_flow[0]
    shape = (2 * dp, 2 * dp)
    return PhDae(
        numkit.block_csr(shape, [(dp, dp, kk)]),
        numkit.block_csr(shape, [(0, dp, kk), (dp, 0, -kk)]),
        numkit.block_csr(shape, [(0, 0, blocks.mass_storage)]),
        numkit.block_csr(shape, [(0, 0, eye_array(dp)), (dp, dp, blocks.mass_p)]),
        state_blocks=(("p", dp), ("q", dp)), input_blocks=((COUPLING_PORT, dp), ("g", dp)),
        validate=False)


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
    dbar = stacked_coupling(ops).tocoo()
    exch = kron(numkit.as_csr(-exchange), ops.csr.mass_p, format="coo")
    rows = np.concatenate([u[dbar.col], p[dbar.row], p[exch.row]])
    cols = np.concatenate([p[dbar.row], u[dbar.col], p[exch.col]])
    data = np.concatenate([dbar.data, -dbar.data, exch.data])
    F = csr_array((data, (rows, cols)), shape=(sys.input_dim, sys.input_dim))
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
    out = {name: _relative_gap(getattr(coupled.csr, name), getattr(direct.csr, name))
           for name in ("E", "J", "R")}
    ga = coupled.csr.G[:, np.flatnonzero(~_coupling_mask(coupled))]
    gb = direct.csr.G
    if ga.shape != gb.shape:
        raise ValueError(f"driven input ports {ga.shape} do not match direct G {gb.shape}")
    out["G"] = _relative_gap(ga, gb)
    return out


def _relative_gap(a, b) -> float:
    """max |a - b| over max(max |b|, 1), on the CSR difference."""
    return numkit.max_abs(a - b) / max(numkit.max_abs(b), 1.0)
