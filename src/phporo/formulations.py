"""Discrete poroelastic descriptor systems in every supported formulation.

Operators are assembled once into a ``DiscreteOperators`` bundle; builders
then arrange them into pH quadruples:

* first-order form with velocity state (w, u, p), index 0 when rho > 0,
* square-root variant with transformed displacement state,
* quasi-static form (rho = 0, singular E),
* alternative quasi-static form with auxiliary flux-potential state (u, p, q),
* multiple-network form with m pressure fields exchanging mass,
* Schur-reduced parabolic pressure equation with displacement recovery.

Inputs follow a nodal-density convention: the input matrix G carries the
unit-coefficient mass matrices, so v holds nodal coefficients of the source
densities and G v is the assembled load.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_array, eye_array

from . import fem, numkit
from .fem import FeSpace, Mesh2D, PoroMaterial
from .numkit import POSITIVE_DEFINITE, StructureError
from .phdae import PhDae

FORMULATION_TAGS = ("full", "sqrt", "quasi_static", "alt_qs", "network", "schur_parabolic")


@dataclass(frozen=True)
class NetworkCoupling:
    """Exchange-rate matrix with zero row sums (diagonal balances the row)."""

    exchange: np.ndarray

    def __post_init__(self):
        B = numkit.as_matrix(self.exchange)
        if B.shape[0] != B.shape[1]:
            raise ValueError(f"exchange matrix must be square, got {B.shape}")
        scale = 1.0 + (float(np.max(np.abs(B))) if B.size else 0.0)
        sums = np.abs(B.sum(axis=1))
        if B.size and float(np.max(sums)) > 1e-13 * scale:
            raise ValueError(
                f"exchange-rate rows must sum to zero (worst row sum {np.max(sums):.3e})"
            )
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "exchange", B)

    @classmethod
    def from_exchange_rates(cls, offdiag) -> "NetworkCoupling":
        """Build from off-diagonal rates; diagonal entries balance each row."""
        B = numkit.as_matrix(offdiag).copy()
        np.fill_diagonal(B, 0.0)
        np.fill_diagonal(B, -B.sum(axis=1))
        return cls(B)

    @property
    def size(self) -> int:
        return self.exchange.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return numkit.symmetry_defect(self.exchange) <= numkit.default_tol(self.exchange)


@dataclass(frozen=True)
class DiscreteOperators:
    """Assembled matrices of one poroelastic problem (m >= 1 networks).

    ``mass_u`` / ``mass_p`` are the unit-coefficient mass matrices used as
    input weights and as the discrete pressure-space embedding.
    """

    mass_rho: np.ndarray            # rho-weighted displacement mass
    stiff_elast: np.ndarray         # elastic stiffness
    mass_storage: np.ndarray        # (1/biot_M)-weighted pressure mass, one network
    stiff_flow: tuple               # per-network pressure stiffness
    div_coupling: tuple             # per-network alpha-weighted divergence coupling
    mass_p: np.ndarray              # unit-coefficient pressure mass
    mass_u: np.ndarray              # unit-coefficient displacement mass
    networks: int
    vspace: FeSpace
    qspace: FeSpace
    materials: tuple

    def __post_init__(self):
        if self.networks != len(self.stiff_flow) or self.networks != len(self.div_coupling):
            raise ValueError("per-network matrix lists must match the network count")
        dp, du = self.qspace.dim, self.vspace.dim
        for D in self.div_coupling:
            if D.shape != (dp, du):
                raise ValueError(f"coupling block must be {dp}x{du}, got {D.shape}")

    @property
    def dim_u(self) -> int:
        return self.vspace.dim

    @property
    def dim_p(self) -> int:
        return self.qspace.dim


def _assemble(mesh: Mesh2D, mats: tuple) -> DiscreteOperators:
    """Operator bundle of one pressure network per material; the solid
    coefficients (rho, mu, lambda, biot_M) are read from the first."""
    head = mats[0]
    vsp = fem.vector_space(mesh)
    qsp = fem.scalar_space(mesh)
    return DiscreteOperators(
        mass_rho=fem.assemble_mass(vsp, head.rho),
        stiff_elast=fem.assemble_elasticity(vsp, head.mu, head.lam),
        mass_storage=fem.assemble_mass(qsp, 1.0 / head.biot_M),
        stiff_flow=tuple(fem.assemble_laplace(qsp, m.kappa / m.nu) for m in mats),
        div_coupling=tuple(fem.assemble_divergence_coupling(vsp, qsp, m.alpha) for m in mats),
        mass_p=fem.assemble_mass(qsp, 1.0),
        mass_u=fem.assemble_mass(vsp, 1.0),
        networks=len(mats),
        vspace=vsp,
        qspace=qsp,
        materials=mats,
    )


def assemble_two_field(mesh: Mesh2D, mat: PoroMaterial) -> DiscreteOperators:
    """Assemble the single-network operator bundle on a shared mesh."""
    return _assemble(mesh, (mat,))


def assemble_network(mesh: Mesh2D, mats, coupling: NetworkCoupling) -> DiscreteOperators:
    """Assemble m >= 2 pressure networks sharing rho, mu, lambda and biot_M."""
    mats = tuple(mats)
    if len(mats) < 2:
        raise ValueError("network assembly needs at least two networks")
    if coupling.size != len(mats):
        raise ValueError(
            f"coupling dimension {coupling.size} does not match {len(mats)} networks"
        )
    head = mats[0]
    for mat in mats[1:]:
        if (mat.rho, mat.mu, mat.lam, mat.biot_M) != (head.rho, head.mu, head.lam, head.biot_M):
            raise ValueError("networks must share rho, mu, lambda and biot_M")
    return _assemble(mesh, mats)


# ---------------------------------------------------------------------------
# Block helpers shared by the builders
# ---------------------------------------------------------------------------

def stacked_coupling(ops: DiscreteOperators) -> np.ndarray:
    """All divergence couplings stacked: (m * dim_p) x dim_u."""
    return np.vstack(ops.div_coupling) if ops.networks else np.zeros((0, ops.dim_u))


def blocked_storage_mass(ops: DiscreteOperators) -> np.ndarray:
    """Storage-weighted pressure mass repeated per network."""
    return np.kron(np.eye(ops.networks), ops.mass_storage)


def blocked_unit_mass(ops: DiscreteOperators) -> np.ndarray:
    """Unit pressure mass repeated per network (input weight for the g ports)."""
    return np.kron(np.eye(ops.networks), ops.mass_p)


def kbar_matrix(ops: DiscreteOperators, coupling: NetworkCoupling | None = None) -> np.ndarray:
    """Coupled flow operator: blockdiag of the K_i plus B kron the unit mass."""
    K = numkit.block_diag(*ops.stiff_flow)
    if coupling is not None:
        if coupling.size != ops.networks:
            raise ValueError("coupling dimension does not match the operator bundle")
        K = K + np.kron(coupling.exchange, ops.mass_p)
    return K


def _per_network(ops: DiscreteOperators, block: np.ndarray, row: int, col: int) -> list:
    """``numkit.block_csr`` triples of ``block`` repeated down the diagonal,
    once per network, starting at (row, col)."""
    dp = ops.dim_p
    return [(row + i * dp, col + i * dp, block) for i in range(ops.networks)]


def _first_order_system(ops: DiscreteOperators, coupling: NetworkCoupling | None,
                        mass_rho, e_uu, c_uu) -> PhDae:
    """State (w, u, p) with E = diag(mass_rho, e_uu, M-bar); c_uu couples w and u in J."""
    du, mdp = ops.dim_u, ops.networks * ops.dim_p
    n = 2 * du + mdp
    ksym, kskew = numkit.sym_skew_split(kbar_matrix(ops, coupling))
    dbar, c_uu = numkit.as_csr(stacked_coupling(ops)), numkit.as_csr(c_uu)
    E = numkit.block_csr((n, n), [(0, 0, mass_rho), (du, du, e_uu),
                                  *_per_network(ops, ops.mass_storage, 2 * du, 2 * du)])
    J = numkit.block_csr((n, n), [(0, du, -c_uu), (du, 0, c_uu), (0, 2 * du, dbar.T),
                                  (2 * du, 0, -dbar), (2 * du, 2 * du, -kskew)])
    R = numkit.block_csr((n, n), [(2 * du, 2 * du, ksym)])
    G = numkit.block_csr((n, du + mdp), [(0, 0, ops.mass_u),
                                         *_per_network(ops, ops.mass_p, 2 * du, du)])
    return PhDae(
        E, J, R, G,
        state_blocks=(("w", du), ("u", du), ("p", mdp)),
        input_blocks=(("f", du), ("g", mdp)),
    )


# ---------------------------------------------------------------------------
# Formulation builders
# ---------------------------------------------------------------------------

def build_full_first_order(ops: DiscreteOperators) -> PhDae:
    """First-order system with state (w, u, p); E = diag(mass_rho, K_A, M)."""
    if ops.networks != 1:
        raise ValueError("the two-field builder needs a single network; see build_network_ph")
    return _first_order_system(ops, None, ops.mass_rho, ops.stiff_elast, ops.stiff_elast)


def build_quasi_static(ops: DiscreteOperators, coupling: NetworkCoupling | None = None) -> PhDae:
    """First-order layout with the velocity mass forced to zero (singular E)."""
    if coupling is not None:
        _require_elliptic(ops, coupling)
    return _first_order_system(ops, coupling, csr_array(ops.mass_rho.shape),
                               ops.stiff_elast, ops.stiff_elast)


def build_sqrt_formulation(ops: DiscreteOperators) -> PhDae:
    """Variant with transformed displacement state S u, S the SPD root of K_A.

    The Hamiltonian and the output coincide with the first-order form under
    the substitution, at milder smoothness demands on the state.
    """
    if ops.networks != 1:
        raise ValueError("the square-root builder needs a single network")
    S = numkit.sqrtm_spd(ops.stiff_elast)
    return _first_order_system(ops, None, ops.mass_rho, eye_array(ops.dim_u), S)


def build_alternative_qs(ops: DiscreteOperators, coupling: NetworkCoupling | None = None) -> PhDae:
    """Quasi-static form with auxiliary state q solving K q = D u + M p.

    Valid only for a self-adjoint (symmetric) flow operator, which for
    networks means a symmetric exchange matrix; the flow operator appears on
    the left-hand side, so it must also be positive definite.
    """
    if coupling is not None and not coupling.is_symmetric:
        raise StructureError(
            "the auxiliary-variable form needs symmetric exchange rates"
        )
    kbar = numkit.as_csr(kbar_matrix(ops, coupling))
    defect = numkit.symmetry_defect(kbar)
    if defect > numkit.default_tol(kbar):
        raise StructureError(
            f"the auxiliary-variable form needs a symmetric flow operator "
            f"(asymmetry {defect:.3e}); nonsymmetric exchange rates are not supported"
        )
    kbar = numkit.as_csr(0.5 * (kbar + kbar.T))
    if numkit.certified_report(kbar, numkit.psd_certificate(kbar)).verdict != POSITIVE_DEFINITE:
        raise StructureError("the flow operator must be positive definite")
    du, mdp = ops.dim_u, ops.networks * ops.dim_p
    n = du + 2 * mdp
    dbar = numkit.as_csr(stacked_coupling(ops))
    E = numkit.block_csr((n, n), [(du + mdp, du + mdp, kbar)])
    J = numkit.block_csr((n, n), [(0, du, dbar.T), (du, 0, -dbar),
                                  (du, du + mdp, kbar), (du + mdp, du, -kbar)])
    R = numkit.block_csr((n, n), [(0, 0, ops.stiff_elast),
                                  *_per_network(ops, ops.mass_storage, du, du)])
    G = numkit.block_csr((n, du + mdp), [(0, 0, ops.mass_u),
                                         *_per_network(ops, ops.mass_p, du + mdp, du)])
    return PhDae(
        E, J, R, G,
        state_blocks=(("u", du), ("p", mdp), ("q", mdp)),
        input_blocks=(("f", du), ("g", mdp)),
    )


def alternative_qs_initialization(ops: DiscreteOperators, p0, f0,
                                  coupling: NetworkCoupling | None = None):
    """Consistent (u0, q0) for the auxiliary-variable form given p0 and the load."""
    p0 = np.asarray(p0, dtype=float)
    u0 = numkit.solve(ops.stiff_elast, stacked_coupling(ops).T @ p0 + np.asarray(f0, float))
    kbar = kbar_matrix(ops, coupling)
    q0 = numkit.solve(kbar, stacked_coupling(ops) @ u0 + blocked_storage_mass(ops) @ p0)
    return u0, q0


# ---------------------------------------------------------------------------
# Schur reduction to the parabolic pressure equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParabolicReduction:
    """Reduced implicit ODE mass * p' + stiff * p = g_tilde(t) with recovery.

    The adapted right-hand side needs the time derivative of the displacement
    load, so callers must provide it explicitly.
    """

    mass: np.ndarray      # storage mass plus the elastic Schur complement
    stiff: np.ndarray     # coupled flow operator
    ops: DiscreteOperators
    f: object             # t -> displacement load
    fdot: object          # t -> its time derivative
    g: object             # t -> pressure load
    elastic: numkit.Factorization  # K_A, factored once for every later solve

    def g_tilde(self, t: float) -> np.ndarray:
        correction = stacked_coupling(self.ops) @ self.elastic.solve(self.fdot(t))
        return np.asarray(self.g(t), dtype=float) - correction

    def recover_displacement(self, p, t: float) -> np.ndarray:
        rhs = stacked_coupling(self.ops).T @ np.asarray(p, float) + np.asarray(self.f(t), float)
        return self.elastic.solve(rhs)

    def as_phdae(self) -> PhDae:
        """Wrap as a descriptor system with direct load input (G = identity)."""
        sym, skew = numkit.sym_skew_split(self.stiff)
        mdp = self.mass.shape[0]
        return PhDae(
            self.mass, -skew, sym, eye_array(mdp, format="csr"),
            state_blocks=(("p", mdp),), input_blocks=(("g", mdp),),
        )


def schur_reduce_parabolic(ops: DiscreteOperators, f, fdot, g,
                           coupling: NetworkCoupling | None = None) -> ParabolicReduction:
    """Eliminate the displacement through the invertible elastic operator."""
    dbar = stacked_coupling(ops)
    elastic = numkit.Factorization(ops.stiff_elast)
    mass = blocked_storage_mass(ops) + dbar @ elastic.solve(dbar.T)
    mass = 0.5 * (mass + mass.T)
    return ParabolicReduction(mass, kbar_matrix(ops, coupling), ops, f, fdot, g, elastic)


# ---------------------------------------------------------------------------
# Network ellipticity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticityReport:
    """Definiteness of the coupled flow operator and the small-rate bound.

    ``bound_satisfied`` implies ``elliptic``; the converse direction does not
    hold and is never asserted.
    """

    min_sym_eigenvalue: float
    elliptic: bool
    ellipticity_constant: float      # smallest flow eigenvalue against the H1 Gram
    embedding_constant_sq: float     # largest unit-mass eigenvalue against the H1 Gram
    max_offdiag_rate: float
    sufficient_bound: float
    bound_satisfied: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_network_ellipticity(ops: DiscreteOperators,
                              coupling: NetworkCoupling) -> EllipticityReport:
    """Report sym-part definiteness of the coupled flow operator.

    The sufficient small-exchange-rate bound max |beta_ij| < c / (2 m C^2)
    uses discrete estimates: c from the flow blocks against the H1 Gram and
    C^2 from the unit mass against the same Gram.
    """
    kbar = kbar_matrix(ops, coupling)
    sym = 0.5 * (kbar + kbar.T)
    tol = numkit.default_tol(sym)
    if sym.size == 0:
        return EllipticityReport(np.inf, True, np.inf, 0.0, 0.0, np.inf, True)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    gram = ops.mass_p + fem.assemble_laplace(ops.qspace, 1.0)
    c = min(float(eigh(K, gram, eigvals_only=True)[0]) for K in ops.stiff_flow)
    embed_sq = float(eigh(ops.mass_p, gram, eigvals_only=True)[-1])
    B = coupling.exchange
    off = np.abs(B - np.diag(np.diag(B)))
    c_beta = float(np.max(off)) if off.size else 0.0
    bound = c / (2.0 * ops.networks * embed_sq) if embed_sq > 0 else np.inf
    return EllipticityReport(
        min_sym_eigenvalue=min_eig,
        elliptic=min_eig > tol,
        ellipticity_constant=c,
        embedding_constant_sq=embed_sq,
        max_offdiag_rate=c_beta,
        sufficient_bound=bound,
        bound_satisfied=c_beta < bound,
    )


def _require_elliptic(ops: DiscreteOperators, coupling: NetworkCoupling) -> None:
    kbar = kbar_matrix(ops, coupling)
    report = numkit.certified_report(kbar, numkit.psd_certificate(kbar))
    if not report.is_semidefinite:
        raise StructureError(
            f"symmetric part of the coupled flow operator is indefinite "
            f"(min eigenvalue {report.min_eigenvalue:.3e}); exchange rates too large"
        )


def build_network_ph(ops: DiscreteOperators, coupling: NetworkCoupling) -> PhDae:
    """Multiple-network system; the skew part of the exchange block lands in J,
    the symmetric part in R.  Rejects couplings whose symmetric part is
    indefinite."""
    _require_elliptic(ops, coupling)
    return _first_order_system(ops, coupling, ops.mass_rho, ops.stiff_elast, ops.stiff_elast)
