"""Structured P1 triangular finite elements on the unit square.

The mesh is a uniform n-by-n grid of cells, each split along the same
diagonal (lower-left to upper-right) so that assembled matrices are
bit-reproducible.  All spaces carry homogeneous Dirichlet conditions: free
degrees of freedom are exactly the interior nodes.  Vector-valued spaces are
component-blocked, i.e. dof k < n_free is the x-component at interior node k
and dof n_free + k the y-component.

Integrals use the 3-point edge-midpoint rule, which is exact for quadratic
integrands; P1 stiffness integrands are elementwise constant, so stiffness
and coupling matrices are exact.

Assembly evaluates each element kernel once on the stack of all triangles
and sums the local matrices with one ``np.bincount``, contributions to every
entry in element order, into the CSR of the mesh stencil of the (row space,
column space) pair, so results are bit-reproducible from run to run.  The
linear operators are canonical CSR (``numkit.as_csr``: the stencil's exact
zeros dropped); the nonlinear permeability block, reassembled on every time
step, keeps the whole stencil, so its pattern is the same on every call, and
reads the element geometry kept on the space (``FeSpace._elements``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array

from . import numkit

SCALAR_P1 = "scalar_p1"
VECTOR_P1 = "vector_p1"


class BoundViolationError(ValueError):
    """A sampled coefficient left its admissible range."""


@dataclass(frozen=True)
class Mesh2D:
    """Triangulation of the unit square with counterclockwise elements."""

    nodes: np.ndarray          # (N, 2) coordinates
    triangles: np.ndarray      # (T, 3) node indices, positive orientation
    boundary_nodes: np.ndarray  # sorted indices with x or y in {0, 1}
    resolution: int

    @property
    def interior_nodes(self) -> np.ndarray:
        mask = np.ones(len(self.nodes), dtype=bool)
        mask[self.boundary_nodes] = False
        return np.nonzero(mask)[0]


def build_unit_square_mesh(n: int) -> Mesh2D:
    """Uniform triangulation with (n+1)^2 nodes and 2 n^2 triangles."""
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    coords = np.linspace(0.0, 1.0, n + 1)
    x, y = np.meshgrid(coords, coords)
    nodes = np.column_stack([x.ravel(), y.ravel()])
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()  # lower-left node, row by row
    lr, ul = ll + 1, ll + n + 1
    # split every cell along the lower-left to upper-right diagonal
    triangles = np.column_stack([ll, lr, ul + 1, ll, ul + 1, ul]).reshape(-1, 3)
    on_boundary = ((nodes == 0.0) | (nodes == 1.0)).any(axis=1)
    return Mesh2D(nodes, triangles, np.nonzero(on_boundary)[0], n)


@dataclass(frozen=True)
class FeSpace:
    """P1 space on a mesh with Dirichlet nodes eliminated."""

    kind: str
    mesh: Mesh2D
    free_nodes: np.ndarray = field(repr=False)
    node_to_free: np.ndarray = field(repr=False)  # -1 for constrained nodes
    # column-space kind -> ``_stencil`` of that pair, rows in this space
    _stencils: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def components(self) -> int:
        return 2 if self.kind == VECTOR_P1 else 1

    @property
    def dim(self) -> int:
        return self.components * len(self.free_nodes)

    @cached_property
    def _elements(self) -> tuple[np.ndarray, ...]:
        """``(_dofs, p1_gradients, triangle_area, grad_i . grad_j)`` of every
        element, made on first use: the per-step kernels read them here."""
        coords = self.mesh.nodes[self.mesh.triangles]
        g = p1_gradients(coords)
        return _dofs(self), g, triangle_area(coords), g @ g.swapaxes(-1, -2)


def _make_space(mesh: Mesh2D, kind: str) -> FeSpace:
    free = mesh.interior_nodes
    lookup = -np.ones(len(mesh.nodes), dtype=int)
    lookup[free] = np.arange(len(free))
    return FeSpace(kind, mesh, free, lookup)


def scalar_space(mesh: Mesh2D) -> FeSpace:
    return _make_space(mesh, SCALAR_P1)


def vector_space(mesh: Mesh2D) -> FeSpace:
    return _make_space(mesh, VECTOR_P1)


@dataclass(frozen=True)
class PoroMaterial:
    """Physical coefficients of one poroelastic network.

    rho may be zero (quasi-static); alpha may be zero to decouple flow from
    elasticity, which several reduction checks rely on.
    """

    rho: float
    mu: float
    lam: float
    alpha: float
    biot_M: float
    kappa: float
    nu: float

    def __post_init__(self):
        vals = (self.rho, self.mu, self.lam, self.alpha, self.biot_M, self.kappa, self.nu)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("material coefficients must be finite")
        if self.rho < 0:
            raise ValueError("density rho must be >= 0")
        if self.mu <= 0 or self.lam < 0:
            raise ValueError("Lame coefficients need mu > 0 and lambda >= 0")
        if self.alpha < 0:
            raise ValueError("coupling coefficient alpha must be >= 0")
        if self.biot_M <= 0 or self.kappa <= 0 or self.nu <= 0:
            raise ValueError("biot_M, kappa and nu must be positive")


# ---------------------------------------------------------------------------
# Local element matrices (P1, straight triangles)
# ---------------------------------------------------------------------------
# Each kernel takes one triangle (3, 2) or a stack of triangles (T, 3, 2) and
# returns one local matrix or the stack of them; coefficients may be scalars
# or one value per triangle.

def _scaled(factor, local) -> np.ndarray:
    """Multiply each local matrix of a stack by its own factor."""
    return np.asarray(factor)[..., None, None] * local


def triangle_area(coords):
    """Signed area; positive for counterclockwise vertex order."""
    c = np.asarray(coords, dtype=float)
    x, y = c[..., 0], c[..., 1]
    return 0.5 * ((x[..., 1] - x[..., 0]) * (y[..., 2] - y[..., 0])
                  - (x[..., 2] - x[..., 0]) * (y[..., 1] - y[..., 0]))


_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def p1_gradients(coords) -> np.ndarray:
    """(3, 2) array (per triangle) of the constant gradients of the three hat functions."""
    c = np.asarray(coords, dtype=float)
    g = np.stack([c[..., _NEXT, 1] - c[..., _PREV, 1],
                  c[..., _PREV, 0] - c[..., _NEXT, 0]], axis=-1)
    return g / np.asarray(2.0 * triangle_area(c))[..., None, None]


_MASS_PATTERN = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


def element_mass(coords, coeff: float = 1.0) -> np.ndarray:
    """Local scalar mass matrix (coeff * area / 12) * [[2,1,1],[1,2,1],[1,1,2]]."""
    return _scaled(coeff * triangle_area(coords) / 12.0, _MASS_PATTERN)


def element_stiffness(coords, coeff=1.0) -> np.ndarray:
    """Local scalar stiffness matrix coeff * area * grad_i . grad_j."""
    g = p1_gradients(coords)
    return _scaled(coeff * triangle_area(coords), g @ g.swapaxes(-1, -2))


def element_elasticity(coords, mu: float, lam: float) -> np.ndarray:
    """Local 6x6 elastic stiffness in component-blocked order (x dofs, y dofs)."""
    g = p1_gradients(coords)
    B = np.zeros(g.shape[:-2] + (3, 6))  # rows: eps_xx, eps_yy, gamma_xy
    B[..., 0, 0:3] = g[..., 0]
    B[..., 1, 3:6] = g[..., 1]
    B[..., 2, 0:3] = g[..., 1]
    B[..., 2, 3:6] = g[..., 0]
    C = np.array([
        [2.0 * mu + lam, lam, 0.0],
        [lam, 2.0 * mu + lam, 0.0],
        [0.0, 0.0, mu],
    ])
    K = _scaled(triangle_area(coords), B.swapaxes(-1, -2) @ C @ B)
    return 0.5 * (K + K.swapaxes(-1, -2))


def element_divergence(coords, alpha: float = 1.0) -> np.ndarray:
    """Local 3x6 coupling alpha * int (div phi_j) psi_i; div is constant, int psi_i = area/3."""
    g = p1_gradients(coords)
    div_row = np.concatenate([g[..., 0], g[..., 1]], axis=-1)  # divergence of each local vector dof
    return _scaled(alpha * triangle_area(coords) / 3.0,
                   np.repeat(div_row[..., None, :], 3, axis=-2))


# ---------------------------------------------------------------------------
# Global assembly
# ---------------------------------------------------------------------------

def _dofs(space: FeSpace) -> np.ndarray:
    """(T, 3 * components) global dof of each local dof, component-blocked
    like the local matrices; -1 where the dof is constrained."""
    node = space.node_to_free[space.mesh.triangles]
    nfree = len(space.free_nodes)
    return np.concatenate([np.where(node >= 0, node + comp * nfree, -1)
                           for comp in range(space.components)], axis=1)


def _stencil(rows: FeSpace, cols: FeSpace) -> tuple[np.ndarray, ...]:
    """CSR pattern of an assembly with rows in ``rows`` and columns in
    ``cols`` (spaces on one mesh), from the mesh alone; kept on ``rows``.

    Returns ``(keep, slot, indptr, indices)``: ``keep`` (T, r, c) marks the
    local entries in a free row and column, and ``slot`` gives each kept
    entry, in element order, its place in the CSR data.  Every pair of dofs
    that share an element is in the pattern, whatever the values.
    """
    if cols.kind not in rows._stencils:
        r, c = _dofs(rows), _dofs(cols)
        keep = (r[:, :, None] >= 0) & (c[:, None, :] >= 0)
        keys, slot = np.unique((r[:, :, None] * cols.dim + c[:, None, :])[keep],
                               return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(rows.dim + 1) * cols.dim)
        rows._stencils[cols.kind] = (keep, slot, indptr, keys % cols.dim)
    return rows._stencils[cols.kind]


def _stencil_sum(local, rows: FeSpace, cols: FeSpace) -> csr_array:
    """Stacked local matrices (T, r, c) summed into the CSR of the stencil:
    ``np.bincount`` adds the contributions to each entry one at a time in
    element order; entries in a constrained row or column are dropped."""
    keep, slot, indptr, indices = _stencil(rows, cols)
    data = np.bincount(slot, weights=local[keep], minlength=len(indices))
    # with nothing kept (no free dofs) bincount returns integers
    return csr_array((data.astype(float, copy=False), indices, indptr),
                     shape=(rows.dim, cols.dim))


def assemble_mass(space: FeSpace, coeff: float) -> csr_array:
    """Mass matrix with constant coefficient; block-diagonal per component."""
    if coeff < 0:
        raise ValueError(f"mass coefficient must be >= 0, got {coeff}")
    # one copy of the scalar local mass per component block
    local = np.kron(np.eye(space.components),
                    element_mass(space.mesh.nodes[space.mesh.triangles], coeff))
    return numkit.as_csr(_stencil_sum(local, space, space))


def assemble_laplace(space: FeSpace, coeff: float) -> csr_array:
    """Scalar stiffness matrix with constant coefficient; SPD on the free dofs."""
    if space.kind != SCALAR_P1:
        raise ValueError("assemble_laplace expects a scalar space")
    if coeff <= 0:
        raise ValueError(f"diffusion coefficient must be > 0, got {coeff}")
    local = element_stiffness(space.mesh.nodes[space.mesh.triangles], coeff)
    return numkit.as_csr(_stencil_sum(local, space, space))


def assemble_elasticity(space: FeSpace, mu: float, lam: float) -> csr_array:
    """Linear elastic stiffness; SPD on the free dofs."""
    if space.kind != VECTOR_P1:
        raise ValueError("assemble_elasticity expects a vector space")
    if mu <= 0 or lam < 0:
        raise ValueError("assemble_elasticity needs mu > 0 and lambda >= 0")
    local = element_elasticity(space.mesh.nodes[space.mesh.triangles], mu, lam)
    return numkit.as_csr(_stencil_sum(local, space, space))


def assemble_divergence_coupling(vspace: FeSpace, qspace: FeSpace, alpha: float) -> csr_array:
    """Coupling D with D[i, j] = alpha * int (div phi_j) psi_i (pressure rows)."""
    if vspace.kind != VECTOR_P1 or qspace.kind != SCALAR_P1:
        raise ValueError("divergence coupling needs a vector and a scalar space")
    if vspace.mesh is not qspace.mesh:
        raise ValueError("divergence coupling requires both spaces on the same mesh")
    local = element_divergence(vspace.mesh.nodes[vspace.mesh.triangles], alpha)
    return numkit.as_csr(_stencil_sum(local, qspace, vspace))


# hat function values (cols) at the midpoint of edge (q, q + 1) (rows)
_MIDPOINT_VALUES = 0.5 * (np.eye(3) + np.eye(3)[_NEXT])


def assemble_load(space: FeSpace, density) -> np.ndarray:
    """Load vector int density * phi_i via the 3-point edge-midpoint rule.

    For scalar spaces ``density(x, y)`` returns a float; for vector spaces a
    length-2 sequence.  It is called once per quadrature point.
    """
    coords = space.mesh.nodes[space.mesh.triangles]
    T = len(coords)
    points = 0.5 * (coords + coords[:, _NEXT])  # midpoint of edge (a, a + 1)
    f = np.array([density(x, y) for x, y in points.reshape(-1, 2)], dtype=float)
    wf = (triangle_area(coords) / 3.0)[:, None, None] * f.reshape(T, 3, space.components)
    # row q holds point q's contribution to every local dof (comp, a)
    local = (wf[..., None] * _MIDPOINT_VALUES[:, None, :]).reshape(T, 3, -1)
    dofs = np.broadcast_to(_dofs(space)[:, None, :], local.shape)
    keep = dofs >= 0
    # one bincount in element order, point by point within an element
    return np.bincount(dofs[keep], weights=local[keep],
                       minlength=space.dim).astype(float, copy=False)


def elementwise_divergence(vspace: FeSpace, u_free: np.ndarray) -> np.ndarray:
    """div u_h per triangle (constant for P1) from a free-dof displacement vector."""
    if vspace.kind != VECTOR_P1:
        raise ValueError("elementwise_divergence expects a vector space")
    u = np.asarray(u_free, dtype=float)
    if u.shape != (vspace.dim,):
        raise ValueError(f"displacement vector must have length {vspace.dim}")
    dofs, g, _, _ = vspace._elements
    u = np.append(u, 0.0)[dofs]  # constrained dofs (-1) read the appended zero
    div = np.zeros(len(g))
    for a in range(3):  # summing in local-node order keeps the rounding fixed
        div += u[:, a] * g[:, a, 0] + u[:, 3 + a] * g[:, a, 1]
    return div


def assemble_nonlinear_permeability(qspace: FeSpace, vspace: FeSpace, u_free,
                                    kappa_fn, nu: float,
                                    bounds: tuple[float, float] | None = None) -> csr_array:
    """Pressure stiffness with coefficient kappa(div u_h)/nu evaluated per element.

    The result is CSR on the structural P1 stencil of the free dofs, explicit
    zeros included, so its ``indptr`` and ``indices`` are the same on every
    call; its data are the element contributions summed in element order,
    so ``toarray()`` is bit for bit the dense assembly.  The element areas and
    grad_i . grad_j come from ``qspace._elements``, computed once per space.

    ``kappa_fn`` is called once per element with that element's dilatation.
    A value outside (0, inf) or outside the caller-supplied bounds raises
    ``BoundViolationError`` naming the first such element.
    """
    if qspace.mesh is not vspace.mesh:
        raise ValueError("spaces must share a mesh")
    if nu <= 0:
        raise ValueError("viscosity nu must be positive")
    dil = elementwise_divergence(vspace, u_free)
    # kappa_fn gets Python floats: the same IEEE arithmetic as numpy scalars, faster
    kappa = np.array([float(kappa_fn(d)) for d in dil.tolist()])
    positive = np.isfinite(kappa) & (kappa > 0.0)
    admissible = positive if bounds is None else (
        positive & (bounds[0] <= kappa) & (kappa <= bounds[1]))
    if not admissible.all():
        t = int(np.argmin(admissible))
        if not positive[t]:
            raise BoundViolationError(
                f"permeability {float(kappa[t])!r} at dilatation {dil[t]:.3e} is not positive"
            )
        raise BoundViolationError(
            f"permeability {kappa[t]:.3e} leaves the declared bounds {bounds}"
        )
    _, _, area, gg = qspace._elements
    # the operations of element_stiffness(coords, kappa / nu), in its order
    return _stencil_sum((kappa / nu * area)[:, None, None] * gg, qspace, qspace)


def write_mesh_text(mesh: Mesh2D, path) -> None:
    """Plain-text export: node coordinates, then element node triples."""
    with open(path, "w") as fh:
        fh.write(f"nodes {len(mesh.nodes)}\n")
        # Python floats: their repr is the shortest string that reads back exactly
        fh.writelines(f"{x!r} {y!r}\n" for x, y in mesh.nodes.tolist())
        fh.write(f"triangles {len(mesh.triangles)}\n")
        np.savetxt(fh, mesh.triangles, fmt="%d")
