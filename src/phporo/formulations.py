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
densities and G v is the assembled load.  An input is any callable t -> v;
a ``SeparableSignal``, sum_k tau_k(t) b_k with array-capable time factors,
is also sampled at many times in one call, term by term, with the bits of
its per-time values.  The Schur reduction turns separable loads f' and g
into a separable reduced input g - D-bar K_A^-1 f', from one solve with all
of f''s vectors; for any other loads it solves with K_A at every sample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import block_diag, csr_array, eye_array, kron, vstack

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


class OperatorBlocks(NamedTuple):
    """The canonical CSR blocks (``numkit.as_csr``) of one operator bundle."""

    mass_rho: csr_array      # rho-weighted displacement mass
    stiff_elast: csr_array   # elastic stiffness
    mass_storage: csr_array  # (1/biot_M)-weighted pressure mass, one network
    stiff_flow: tuple        # per-network pressure stiffness
    div_coupling: tuple      # per-network alpha-weighted divergence coupling
    mass_p: csr_array        # unit-coefficient pressure mass
    mass_u: csr_array        # unit-coefficient displacement mass


@dataclass(frozen=True)
class DiscreteOperators:
    """Assembled matrices of one poroelastic problem (m >= 1 networks).

    ``csr`` holds the blocks as ``fem`` assembles them; the attributes of the
    same names are read-only dense views made on first read, for the tests
    and their oracle.  ``mass_u`` / ``mass_p`` are the unit-coefficient mass
    matrices used as input weights and as the pressure-space embedding.
    ``build_full_first_order`` and ``_flow_report`` keep their results in ``_systems``.
    """

    csr: OperatorBlocks
    vspace: FeSpace
    qspace: FeSpace
    materials: tuple
    _dense: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _systems: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    mass_rho = numkit.DenseView()
    stiff_elast = numkit.DenseView()
    mass_storage = numkit.DenseView()
    stiff_flow = numkit.DenseView()
    div_coupling = numkit.DenseView()
    mass_p = numkit.DenseView()
    mass_u = numkit.DenseView()

    @property
    def networks(self) -> int:
        return len(self.csr.stiff_flow)

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
        OperatorBlocks(
            mass_rho=fem.assemble_mass(vsp, head.rho),
            stiff_elast=fem.assemble_elasticity(vsp, head.mu, head.lam),
            mass_storage=fem.assemble_mass(qsp, 1.0 / head.biot_M),
            stiff_flow=tuple(fem.assemble_laplace(qsp, m.kappa / m.nu) for m in mats),
            div_coupling=tuple(fem.assemble_divergence_coupling(vsp, qsp, m.alpha)
                               for m in mats),
            mass_p=fem.assemble_mass(qsp, 1.0),
            mass_u=fem.assemble_mass(vsp, 1.0),
        ),
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
# Separable input signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableSignal:
    """u(t) = sum_k factors[k](t) vectors[k], K >= 0 terms of width m.

    Each factor maps an array of times to an array of values; ``vectors`` is
    a read-only (K, m) table.  ``sample`` builds the (T, m) table of u at T
    times by adding each term's products to a zero table in the order of the
    terms; a call runs that code on one time, so a row of ``sample`` is the
    call at its time, bit for bit.
    """

    factors: tuple
    vectors: np.ndarray

    def __post_init__(self):
        V = np.array(self.vectors, dtype=float)
        if V.ndim != 2 or V.shape[0] != len(self.factors):
            raise ValueError(f"vectors must be a ({len(self.factors)}, m) table, got {V.shape}")
        V.setflags(write=False)
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "vectors", V)

    def sample(self, times) -> np.ndarray:
        """The (T, m) table of u at the T times, one row each."""
        times = np.asarray(times, dtype=float)
        table = np.zeros((times.size, self.vectors.shape[1]))
        for factor, vector in zip(self.factors, self.vectors):
            table += np.asarray(factor(times), dtype=float)[:, None] * vector
        return table

    def __call__(self, t: float) -> np.ndarray:
        return self.sample(np.array([t], dtype=float))[0]


# ---------------------------------------------------------------------------
# Block helpers shared by the builders
# ---------------------------------------------------------------------------

def stacked_coupling(ops: DiscreteOperators) -> csr_array:
    """All divergence couplings stacked: (m * dim_p) x dim_u."""
    return numkit.as_csr(vstack(ops.csr.div_coupling, format="csr"))


def blocked_storage_mass(ops: DiscreteOperators) -> csr_array:
    """Storage-weighted pressure mass repeated per network."""
    return numkit.as_csr(kron(eye_array(ops.networks), ops.csr.mass_storage, format="csr"))


def blocked_unit_mass(ops: DiscreteOperators) -> csr_array:
    """Unit pressure mass repeated per network (input weight for the g ports)."""
    return numkit.as_csr(kron(eye_array(ops.networks), ops.csr.mass_p, format="csr"))


def kbar_matrix(ops: DiscreteOperators, coupling: NetworkCoupling | None = None) -> csr_array:
    """Coupled flow operator: blockdiag of the K_i plus B kron the unit mass."""
    K = block_diag(ops.csr.stiff_flow, format="csr")
    if coupling is not None:
        if coupling.size != ops.networks:
            raise ValueError("coupling dimension does not match the operator bundle")
        K = K + kron(coupling.exchange, ops.csr.mass_p, format="csr")
    return numkit.as_csr(K)


def _first_order_system(ops: DiscreteOperators, coupling: NetworkCoupling | None,
                        mass_rho, e_uu, c_uu=None) -> PhDae:
    """State (w, u, p) with E = diag(mass_rho, e_uu, M-bar); c_uu couples w and u in J.

    Without c_uu it is e_uu: the u rows then read e_uu u' = e_uu w, which
    ``timeint`` finds on the matrices and steps without a solve."""
    du, mdp = ops.dim_u, ops.networks * ops.dim_p
    n = 2 * du + mdp
    ksym, kskew = numkit.sym_skew_split(kbar_matrix(ops, coupling))
    dbar, c_uu = stacked_coupling(ops), numkit.as_csr(e_uu if c_uu is None else c_uu)
    E = numkit.block_csr((n, n), [(0, 0, mass_rho), (du, du, e_uu),
                                  (2 * du, 2 * du, blocked_storage_mass(ops))])
    J = numkit.block_csr((n, n), [(0, du, -c_uu), (du, 0, c_uu), (0, 2 * du, dbar.T),
                                  (2 * du, 0, -dbar), (2 * du, 2 * du, -kskew)])
    R = numkit.block_csr((n, n), [(2 * du, 2 * du, ksym)])
    G = numkit.block_csr((n, du + mdp), [(0, 0, ops.csr.mass_u),
                                         (2 * du, du, blocked_unit_mass(ops))])
    return PhDae(
        E, J, R, G,
        state_blocks=(("w", du), ("u", du), ("p", mdp)),
        input_blocks=(("f", du), ("g", mdp)),
    )


# ---------------------------------------------------------------------------
# Formulation builders
# ---------------------------------------------------------------------------

def build_full_first_order(ops: DiscreteOperators) -> PhDae:
    """First-order system with state (w, u, p); E = diag(mass_rho, K_A, M).

    The system is immutable and built once per bundle: every later call
    returns the one kept on ``ops``."""
    if ops.networks != 1:
        raise ValueError("the two-field builder needs a single network; see build_network_ph")
    if "full" not in ops._systems:
        ops._systems["full"] = _first_order_system(ops, None, ops.csr.mass_rho,
                                                   ops.csr.stiff_elast)
    return ops._systems["full"]


def build_quasi_static(ops: DiscreteOperators, coupling: NetworkCoupling | None = None) -> PhDae:
    """First-order layout with the velocity mass forced to zero (singular E)."""
    if coupling is not None:
        _require_elliptic(ops, coupling)
    ka = ops.csr.stiff_elast
    return _first_order_system(ops, coupling, csr_array(ka.shape), ka)


def build_sqrt_formulation(ops: DiscreteOperators) -> PhDae:
    """Variant with transformed displacement state S u, S the SPD root of K_A.

    The Hamiltonian and the output coincide with the first-order form under
    the substitution, at milder smoothness demands on the state.
    """
    if ops.networks != 1:
        raise ValueError("the square-root builder needs a single network")
    S = numkit.sqrtm_spd(ops.csr.stiff_elast)  # dense by nature
    return _first_order_system(ops, None, ops.csr.mass_rho, eye_array(ops.dim_u), S)


def build_alternative_qs(ops: DiscreteOperators, coupling: NetworkCoupling | None = None) -> PhDae:
    """Quasi-static form with auxiliary state q solving K q = D u + M p.

    Valid only for a self-adjoint (symmetric) flow operator, which for
    networks means a symmetric exchange matrix; the flow operator appears on
    the left-hand side, so it must also be positive definite.
    """
    if coupling is not None and not coupling.is_symmetric:
        raise StructureError("the auxiliary-variable form needs symmetric exchange rates")
    kbar, report = _flow_report(ops, coupling)
    if report.max_asymmetry > numkit.default_tol(kbar):
        raise StructureError(f"the auxiliary-variable form needs a symmetric flow operator "
                             f"(asymmetry {report.max_asymmetry:.3e})")
    if report.verdict != POSITIVE_DEFINITE:
        raise StructureError("the flow operator must be positive definite")
    kbar = numkit.as_csr(0.5 * (kbar + kbar.T))
    du, mdp = ops.dim_u, ops.networks * ops.dim_p
    n = du + 2 * mdp
    dbar = stacked_coupling(ops)
    E = numkit.block_csr((n, n), [(du + mdp, du + mdp, kbar)])
    J = numkit.block_csr((n, n), [(0, du, dbar.T), (du, 0, -dbar),
                                  (du, du + mdp, kbar), (du + mdp, du, -kbar)])
    R = numkit.block_csr((n, n), [(0, 0, ops.csr.stiff_elast), (du, du, blocked_storage_mass(ops))])
    G = numkit.block_csr((n, du + mdp), [(0, 0, ops.csr.mass_u),
                                         (du + mdp, du, blocked_unit_mass(ops))])
    return PhDae(
        E, J, R, G,
        state_blocks=(("u", du), ("p", mdp), ("q", mdp)),
        input_blocks=(("f", du), ("g", mdp)),
    )


def alternative_qs_initialization(ops: DiscreteOperators, p0, f0,
                                  coupling: NetworkCoupling | None = None):
    """Consistent (u0, q0) for the auxiliary-variable form given p0 and the load."""
    p0 = np.asarray(p0, dtype=float)
    dbar = stacked_coupling(ops)
    u0 = numkit.solve(ops.csr.stiff_elast, dbar.T @ p0 + np.asarray(f0, float))
    q0 = numkit.solve(kbar_matrix(ops, coupling), dbar @ u0 + blocked_storage_mass(ops) @ p0)
    return u0, q0


# ---------------------------------------------------------------------------
# Schur reduction to the parabolic pressure equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParabolicReduction:
    """Reduced implicit ODE mass * p' + stiff * p = g_tilde(t) with recovery.

    The adapted right-hand side g_tilde = g - D-bar K_A^-1 f' needs the time
    derivative of the displacement load, so callers must provide it
    explicitly.  When f' and g are ``SeparableSignal``s, ``separable_input``
    is g_tilde as one, and ``g_tilde`` calls it; else it is None and each
    ``g_tilde`` solves with K_A.
    """

    mass: np.ndarray      # storage mass plus the elastic Schur complement (dense)
    stiff: csr_array      # coupled flow operator
    dbar: csr_array       # ``stacked_coupling`` of the bundle, built once
    f: object             # t -> displacement load
    fdot: object          # t -> its time derivative
    g: object             # t -> pressure load
    elastic: numkit.Factorization  # K_A, factored once for every later solve
    separable_input: SeparableSignal | None = None  # g_tilde, for separable fdot and g

    @property
    def input_signal(self):
        """g_tilde as the stepper takes it: ``separable_input`` when there is one."""
        return self.g_tilde if self.separable_input is None else self.separable_input

    def g_tilde(self, t: float) -> np.ndarray:
        if self.separable_input is not None:
            return self.separable_input(t)
        correction = self.dbar @ self.elastic.solve(self.fdot(t))
        return np.asarray(self.g(t), dtype=float) - correction

    def recover_displacement(self, p, t: float) -> np.ndarray:
        rhs = self.dbar.T @ np.asarray(p, float) + np.asarray(self.f(t), float)
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
    """Eliminate the displacement through the invertible elastic operator;
    the reduced mass is dense, formed from the dense coupling.  Separable
    fdot and g give a separable g_tilde: g's terms, then fdot's factors with
    the vectors -D-bar K_A^-1 b_k, from one solve with all of fdot's b_k."""
    dbar = stacked_coupling(ops)
    elastic = numkit.Factorization(ops.csr.stiff_elast)
    dense = dbar.toarray()
    mass = blocked_storage_mass(ops).toarray() + dense @ elastic.solve(dense.T)
    mass = 0.5 * (mass + mass.T)
    separable = None
    if isinstance(fdot, SeparableSignal) and isinstance(g, SeparableSignal):
        correction = -(dbar @ elastic.solve(fdot.vectors.T)).T
        separable = SeparableSignal(g.factors + fdot.factors,
                                    np.concatenate([g.vectors, correction]))
    return ParabolicReduction(mass, kbar_matrix(ops, coupling), dbar, f, fdot, g, elastic,
                              separable)


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


def _lowest_eigenvalue(A: csr_array, B: csr_array | None = None) -> float:
    """Smallest eigenvalue of A x = lambda B x for symmetric positive definite
    A and B (B = I if None), by shift-invert Lanczos about 0 (``eigsh_one``);
    ``eigsh`` needs two unknowns, one is a quotient."""
    if A.shape[0] == 1:
        return float(A.diagonal()[0] / (1.0 if B is None else B.diagonal()[0]))
    return numkit.eigsh_one(A.tocsc(), M=None if B is None else B.tocsc(), sigma=0.0,
                            which="LM")


def _flow_report(ops: DiscreteOperators, coupling: NetworkCoupling | None):
    """The coupled flow operator and its ``certified_report``, kept per exchange matrix."""
    key = ("flow", None if coupling is None else coupling.exchange.tobytes())
    if key not in ops._systems:
        kbar = kbar_matrix(ops, coupling)
        ops._systems[key] = kbar, numkit.certified_report(kbar, numkit.psd_certificate(kbar))
    return ops._systems[key]


def check_network_ellipticity(ops: DiscreteOperators,
                              coupling: NetworkCoupling) -> EllipticityReport:
    """Report sym-part definiteness of the coupled flow operator.

    ``elliptic`` comes from ``psd_certificate`` of the flow operator, or from
    the lowest eigenvalue of ``psd_check`` where that does not certify.  The
    bound max |beta_ij| < c / (2 m C^2) uses c, the smallest eigenvalue of the
    flow blocks against the H1 Gram M + L, and C^2, the largest of (M, M + L).
    ``_assemble`` makes every flow block k_i L, k_i = kappa_i / nu_i, so both come
    from one ``_lowest_eigenvalue``, lambda_h of (L, M): c = min_i k_i lambda_h /
    (1 + lambda_h), C^2 = 1 / (1 + lambda_h), the bound min_i k_i lambda_h / (2 m).
    """
    kbar, report = _flow_report(ops, coupling)
    if kbar.shape[0] == 0:
        return EllipticityReport(np.inf, True, np.inf, 0.0, 0.0, np.inf, True)
    min_eig = report.min_eigenvalue
    if min_eig is None:  # certified: a kernel spanned by e_Z (semidefinite), or definite
        min_eig = (0.0 if report.verdict == numkit.POSITIVE_SEMIDEFINITE
                   else _lowest_eigenvalue(numkit.sym_skew_split(kbar)[0]))
    lam_h = _lowest_eigenvalue(fem.assemble_laplace(ops.qspace, 1.0), ops.csr.mass_p)
    rate = min(mat.kappa / mat.nu for mat in ops.materials)
    B = coupling.exchange
    off = np.abs(B - np.diag(np.diag(B)))
    c_beta = float(np.max(off)) if off.size else 0.0
    bound = rate * lam_h / (2.0 * ops.networks)
    return EllipticityReport(
        min_sym_eigenvalue=min_eig,
        elliptic=report.verdict == POSITIVE_DEFINITE,
        ellipticity_constant=rate * lam_h / (1.0 + lam_h),
        embedding_constant_sq=1.0 / (1.0 + lam_h),
        max_offdiag_rate=c_beta,
        sufficient_bound=bound,
        bound_satisfied=c_beta < bound,
    )


def _require_elliptic(ops: DiscreteOperators, coupling: NetworkCoupling) -> None:
    report = _flow_report(ops, coupling)[1]
    if not report.is_semidefinite:
        raise StructureError(f"symmetric part of the coupled flow operator is indefinite "
                             f"(min eigenvalue {report.min_eigenvalue:.3e}); "
                             "exchange rates too large")


def build_network_ph(ops: DiscreteOperators, coupling: NetworkCoupling) -> PhDae:
    """Multiple-network system; the skew part of the exchange block lands in J,
    the symmetric part in R.  Rejects couplings whose symmetric part is
    indefinite."""
    _require_elliptic(ops, coupling)
    return _first_order_system(ops, coupling, ops.csr.mass_rho, ops.csr.stiff_elast)
