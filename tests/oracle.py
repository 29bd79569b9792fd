"""Independent P1 assembly oracle used to cross-check the fem module.

Everything here is computed the slow way on purpose: hat functions come from
solving the 3x3 vertex interpolation system, integrals use the 3-point
edge-midpoint quadrature evaluated numerically, and element energies are
contracted from explicit 2x2 strain tensors.  No code is shared with
phporo.fem beyond the mesh and dof layout conventions.  ``dense_scatter``
is the dense assembly phporo.fem replaced by its CSR stencil sum, kept as
the bit-for-bit reference of the operator blocks.  The dense ellipticity
constants are the oracle of phporo.formulations.check_network_ellipticity,
and ``dense_psd_check``, the full spectrum of the symmetric part, that of
the one-Lanczos-run phporo.numkit.psd_check.
The dense Schur solve of the consistent initialization and the dense rank,
kernel and index classification at the end are the oracles of the sparse
initialization and index rule in phporo.dae_analysis.  ``trajectory_csv``
writes a trajectory one ``repr`` per value, the byte-for-byte reference of
the vectorized formatter behind phporo.timeint.Trajectory.to_csv.
``stepwise_theta_run`` is the theta-method loop of phporo.timeint with the
input sampled and the ledger booked one step at a time by one-vector
products, the bit-for-bit reference of its blocked bookkeeping; it reduces
the step of a system with a kinematic block (``timeint._kinematic_block``)
by scipy slicing, and with ``full_lu`` it steps with the LU of the whole
step matrix instead, the reference that the reduced steps must agree with.
``separable_closure`` evaluates a sum of scenario source terms one time at a
time with ``math``'s sin and cos, the bit-for-bit reference of
phporo.formulations.SeparableSignal.
"""

import math

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_array

from phporo import timeint
from phporo.dae_analysis import INDEX_AT_LEAST_2, IndexReport
from phporo import numkit
from phporo.numkit import Factorization, SingularMatrixError, as_matrix

# barycentric coordinates of the edge midpoints (quadrature of order 2)
EDGE_MIDPOINTS = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])


def tri_area(coords):
    a, b, c = np.asarray(coords, dtype=float)
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


def hat_coefficients(coords):
    """Columns: coefficients (c0, cx, cy) of each hat function."""
    V = np.column_stack([np.ones(3), coords[:, 0], coords[:, 1]])
    return np.linalg.solve(V, np.eye(3))


def hat_value(coeffs, a, point):
    return coeffs[0, a] + coeffs[1, a] * point[0] + coeffs[2, a] * point[1]


def hat_gradient(coeffs, a):
    return np.array([coeffs[1, a], coeffs[2, a]])


def quad_rule(coords):
    """(points, weights) of the edge-midpoint rule on one triangle."""
    coords = np.asarray(coords, dtype=float)
    pts = EDGE_MIDPOINTS @ coords
    w = np.full(3, tri_area(coords) / 3.0)
    return pts, w


def local_mass(coords, coeff=1.0):
    coeffs = hat_coefficients(np.asarray(coords, float))
    pts, w = quad_rule(coords)
    M = np.zeros((3, 3))
    for q, wq in enumerate(w):
        for a in range(3):
            for b in range(3):
                M[a, b] += coeff * wq * hat_value(coeffs, a, pts[q]) * hat_value(coeffs, b, pts[q])
    return M


def local_stiffness(coords, coeff=1.0):
    coeffs = hat_coefficients(np.asarray(coords, float))
    pts, w = quad_rule(coords)
    K = np.zeros((3, 3))
    for wq in w:
        for a in range(3):
            for b in range(3):
                K[a, b] += coeff * wq * hat_gradient(coeffs, a) @ hat_gradient(coeffs, b)
    return K


def _strain(coeffs, a, comp):
    grad = hat_gradient(coeffs, a)
    du = np.zeros((2, 2))
    du[comp, :] = grad
    return 0.5 * (du + du.T)


def local_elasticity(coords, mu, lam):
    """6x6 in component-blocked local order (x dofs then y dofs)."""
    coeffs = hat_coefficients(np.asarray(coords, float))
    area = tri_area(coords)
    K = np.zeros((6, 6))
    for ci in range(2):
        for ai in range(3):
            ei = _strain(coeffs, ai, ci)
            for cj in range(2):
                for aj in range(3):
                    ej = _strain(coeffs, aj, cj)
                    val = 2.0 * mu * np.sum(ei * ej) + lam * np.trace(ei) * np.trace(ej)
                    K[3 * ci + ai, 3 * cj + aj] = area * val
    return K


def local_divergence(coords, alpha=1.0):
    """3x6 coupling: rows pressure hats, cols component-blocked displacement."""
    coeffs = hat_coefficients(np.asarray(coords, float))
    pts, w = quad_rule(coords)
    D = np.zeros((3, 6))
    for q, wq in enumerate(w):
        for i in range(3):
            psi = hat_value(coeffs, i, pts[q])
            for c in range(2):
                for a in range(3):
                    D[i, 3 * c + a] += alpha * wq * hat_gradient(coeffs, a)[c] * psi
    return D


# ---------------------------------------------------------------------------
# Global assembly against a FeSpace (shares only the dof layout convention)
# ---------------------------------------------------------------------------

def dense_scatter(local, rows, cols, shape):
    """Sum stacked local matrices (T, r, c) into a dense matrix of ``shape``.

    ``rows`` (T, r) and ``cols`` (T, c) are dof tables; entries in a
    constrained row or column are dropped.  ``np.bincount`` adds the
    contributions to each global entry one at a time in element order.
    """
    keep = (rows[:, :, None] >= 0) & (cols[:, None, :] >= 0)
    index = rows[:, :, None] * shape[1] + cols[:, None, :]
    sums = np.bincount(index[keep], weights=local[keep], minlength=shape[0] * shape[1])
    # with nothing kept (no free dofs) bincount returns integers
    return sums.astype(float, copy=False).reshape(shape)


def assemble_mass(space, coeff=1.0):
    A = np.zeros((space.dim, space.dim))
    nfree = len(space.free_nodes)
    for tri in space.mesh.triangles:
        local = local_mass(space.mesh.nodes[tri], coeff)
        dofs = space.node_to_free[tri]
        comps = 1 if space.kind == "scalar_p1" else 2
        for c in range(comps):
            for a in range(3):
                if dofs[a] < 0:
                    continue
                for b in range(3):
                    if dofs[b] >= 0:
                        A[dofs[a] + c * nfree, dofs[b] + c * nfree] += local[a, b]
    return A


def assemble_laplace(space, coeff=1.0):
    A = np.zeros((space.dim, space.dim))
    for tri in space.mesh.triangles:
        local = local_stiffness(space.mesh.nodes[tri], coeff)
        dofs = space.node_to_free[tri]
        for a in range(3):
            if dofs[a] < 0:
                continue
            for b in range(3):
                if dofs[b] >= 0:
                    A[dofs[a], dofs[b]] += local[a, b]
    return A


def assemble_elasticity(space, mu, lam):
    A = np.zeros((space.dim, space.dim))
    nfree = len(space.free_nodes)
    for tri in space.mesh.triangles:
        local = local_elasticity(space.mesh.nodes[tri], mu, lam)
        dofs = space.node_to_free[tri]
        for ci in range(2):
            for ai in range(3):
                if dofs[ai] < 0:
                    continue
                for cj in range(2):
                    for aj in range(3):
                        if dofs[aj] >= 0:
                            A[dofs[ai] + ci * nfree, dofs[aj] + cj * nfree] += \
                                local[3 * ci + ai, 3 * cj + aj]
    return A


def assemble_divergence(vspace, qspace, alpha=1.0):
    D = np.zeros((qspace.dim, vspace.dim))
    nfree = len(vspace.free_nodes)
    for tri in vspace.mesh.triangles:
        local = local_divergence(vspace.mesh.nodes[tri], alpha)
        pdofs = qspace.node_to_free[tri]
        udofs = vspace.node_to_free[tri]
        for i in range(3):
            if pdofs[i] < 0:
                continue
            for c in range(2):
                for a in range(3):
                    if udofs[a] >= 0:
                        D[pdofs[i], udofs[a] + c * nfree] += local[i, 3 * c + a]
    return D


def assemble_divergence_all_nodes(mesh, alpha=1.0):
    """Coupling over all nodes (no Dirichlet elimination), rows = all nodes."""
    N = len(mesh.nodes)
    D = np.zeros((N, 2 * N))
    for tri in mesh.triangles:
        local = local_divergence(mesh.nodes[tri], alpha)
        for i in range(3):
            for c in range(2):
                for a in range(3):
                    D[tri[i], tri[a] + c * N] += local[i, 3 * c + a]
    return D


def assemble_load(space, density):
    out = np.zeros(space.dim)
    nfree = len(space.free_nodes)
    for tri in space.mesh.triangles:
        coords = space.mesh.nodes[tri]
        coeffs = hat_coefficients(coords)
        pts, w = quad_rule(coords)
        dofs = space.node_to_free[tri]
        for q, wq in enumerate(w):
            f = density(pts[q][0], pts[q][1])
            for a in range(3):
                if dofs[a] < 0:
                    continue
                if space.kind == "scalar_p1":
                    out[dofs[a]] += wq * f * hat_value(coeffs, a, pts[q])
                else:
                    out[dofs[a]] += wq * f[0] * hat_value(coeffs, a, pts[q])
                    out[dofs[a] + nfree] += wq * f[1] * hat_value(coeffs, a, pts[q])
    return out


def node_basis_integrals(space):
    """int psi_i for every free scalar dof (one third of the incident area)."""
    out = np.zeros(space.dim)
    for tri in space.mesh.triangles:
        area = tri_area(space.mesh.nodes[tri])
        dofs = space.node_to_free[tri]
        for a in range(3):
            if dofs[a] >= 0:
                out[dofs[a]] += area / 3.0
    return out


# ---------------------------------------------------------------------------
# Dense reference systems built from a DiscreteOperators bundle
# ---------------------------------------------------------------------------
# The (E, J, R, G) quadruples every builder and coupled route should store,
# made with dense arrays block by block: dense block_diag, slice assignment,
# np.kron and dense feedback products.  The operator blocks and the square
# root S are inputs, so they come from the bundle and from numkit.

def _block_diag(*blocks):
    rows = sum(B.shape[0] for B in blocks)
    cols = sum(B.shape[1] for B in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for B in blocks:
        out[r : r + B.shape[0], c : c + B.shape[1]] = B
        r, c = r + B.shape[0], c + B.shape[1]
    return out


def _flow_operator(ops, exchange=None):
    K = _block_diag(*ops.stiff_flow)
    return K if exchange is None else K + np.kron(exchange, ops.mass_p)


def dense_ellipticity(ops, exchange):
    """(min_sym_eigenvalue, ellipticity_constant, embedding_constant_sq) of
    the flow operator from dense spectra: the smallest eigenvalue of its
    symmetric part, the smallest of (K_i, M + L) over the networks and the
    largest of (M, M + L), with L this module's unit Laplacian."""
    kbar = _flow_operator(ops, exchange)
    gram = ops.mass_p + assemble_laplace(ops.qspace, 1.0)
    c = min(float(eigh(K, gram, eigvals_only=True)[0]) for K in ops.stiff_flow)
    embed_sq = float(eigh(ops.mass_p, gram, eigvals_only=True)[-1])
    return float(np.linalg.eigvalsh(0.5 * (kbar + kbar.T))[0]), c, embed_sq


def dense_psd_check(M, tol=None, require_symmetric=True):
    """``numkit.psd_check`` from the whole dense spectrum of 0.5*(M + M^T)."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"psd_check requires a square matrix, got shape {A.shape}")
    if tol is None:
        tol = numkit.default_tol(M)
    defect = numkit.symmetry_defect(M)
    if require_symmetric and defect > tol:
        raise numkit.StructureError(f"matrix asymmetry {defect:.3e} exceeds tolerance {tol:.3e}")
    if A.size == 0:
        return numkit.SpectralReport(np.inf, 0.0, numkit.POSITIVE_DEFINITE)
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    return numkit.SpectralReport.from_lowest(float(eigs[0]), defect, tol)


def _first_order(ops, exchange, mass_rho, e_uu, c_uu):
    du, mdp = ops.dim_u, ops.networks * ops.dim_p
    kbar = _flow_operator(ops, exchange)
    ksym, kskew = 0.5 * (kbar + kbar.T), 0.5 * (kbar - kbar.T)
    dbar = np.vstack(ops.div_coupling)
    eye_m = np.eye(ops.networks)
    E = _block_diag(mass_rho, e_uu, np.kron(eye_m, ops.mass_storage))
    J = np.zeros((2 * du + mdp, 2 * du + mdp))
    J[:du, du : 2 * du] = -c_uu
    J[du : 2 * du, :du] = c_uu
    J[:du, 2 * du :] = dbar.T
    J[2 * du :, :du] = -dbar
    J[2 * du :, 2 * du :] = -kskew
    R = _block_diag(np.zeros((2 * du, 2 * du)), ksym)
    G = np.zeros((2 * du + mdp, du + mdp))
    G[:du, :du] = ops.mass_u
    G[2 * du :, du:] = np.kron(eye_m, ops.mass_p)
    return E, J, R, G


def _alternative_qs(ops, exchange):
    du, mdp = ops.dim_u, ops.networks * ops.dim_p
    kbar = _flow_operator(ops, exchange)
    kbar = 0.5 * (kbar + kbar.T)
    dbar = np.vstack(ops.div_coupling)
    eye_m = np.eye(ops.networks)
    E = _block_diag(np.zeros((du + mdp, du + mdp)), kbar)
    J = np.zeros((du + 2 * mdp, du + 2 * mdp))
    J[:du, du : du + mdp] = dbar.T
    J[du : du + mdp, :du] = -dbar
    J[du : du + mdp, du + mdp :] = kbar
    J[du + mdp :, du : du + mdp] = -kbar
    R = _block_diag(ops.stiff_elast, np.kron(eye_m, ops.mass_storage), np.zeros((mdp, mdp)))
    G = np.zeros((du + 2 * mdp, du + mdp))
    G[:du, :du] = ops.mass_u
    G[du + mdp :, du:] = np.kron(eye_m, ops.mass_p)
    return E, J, R, G


def dense_system(tag, ops, exchange=None, sqrt=None, reduction=None):
    """Dense (E, J, R, G) of the direct builder ``tag``; ``sqrt`` is the root
    S of the elastic stiffness ("sqrt"), ``reduction`` the
    ``ParabolicReduction`` whose mass and flow operator are wrapped
    ("schur_parabolic")."""
    ka = ops.stiff_elast
    if tag in ("full", "network"):
        return _first_order(ops, exchange, ops.mass_rho, ka, ka)
    if tag == "quasi_static":
        return _first_order(ops, exchange, np.zeros_like(ops.mass_rho), ka, ka)
    if tag == "sqrt":
        return _first_order(ops, None, ops.mass_rho, np.eye(ops.dim_u), sqrt)
    if tag == "alt_qs":
        return _alternative_qs(ops, exchange)
    if tag == "schur_parabolic":
        K = reduction.stiff.toarray()
        mdp = reduction.mass.shape[0]
        return reduction.mass, -0.5 * (K - K.T), 0.5 * (K + K.T), np.eye(mdp)
    raise ValueError(tag)


def _coupled(parts, ops, exchange, port_rows):
    """Aggregate dense subsystems and close their coupling ports densely."""
    E, J, R, G = (_block_diag(*(part[i] for part in parts)) for i in range(4))
    u, p = port_rows[: ops.dim_u], port_rows[ops.dim_u :]
    dbar = np.vstack(ops.div_coupling)
    F = np.zeros((G.shape[1], G.shape[1]))
    F[np.ix_(u, p)] = dbar.T
    F[np.ix_(p, u)] = -dbar
    F[np.ix_(p, p)] = np.kron(-exchange, ops.mass_p)
    sym, skew = 0.5 * (F + F.T), 0.5 * (F - F.T)
    return E, J + G @ skew @ G.T, R - G @ sym @ G.T, G


def dense_coupled(tag, ops, exchange=None):
    """Dense (E, J, R, G) of the coupled route ``tag`` ("full", "alt_qs" or
    "network"): the subsystems with a driven and a coupling port each, their
    block-diagonal aggregate and the dense closed loop."""
    du, dp = ops.dim_u, ops.dim_p
    ka, eye_u, eye_p = ops.stiff_elast, np.eye(du), np.eye(dp)
    if tag == "alt_qs":
        kk = ops.stiff_flow[0]
        elastic = (np.zeros((du, du)), np.zeros((du, du)), ka, np.hstack([ops.mass_u, eye_u]))
        flux = (_block_diag(np.zeros((dp, dp)), kk),
                np.block([[np.zeros((dp, dp)), kk], [-kk, np.zeros((dp, dp))]]),
                _block_diag(ops.mass_storage, np.zeros((dp, dp))),
                _block_diag(eye_p, ops.mass_p))
        ports = np.concatenate([du + np.arange(du), 2 * du + np.arange(dp)])
        return _coupled((elastic, flux), ops, np.zeros((1, 1)), ports)
    exchange = np.zeros((1, 1)) if exchange is None else exchange
    zero_u = np.zeros((du, du))
    hyperbolic = (_block_diag(ops.mass_rho, ka), np.block([[zero_u, -ka], [ka, zero_u]]),
                  np.zeros((2 * du, 2 * du)), np.block([[ops.mass_u, eye_u], [zero_u, zero_u]]))
    networks = [(ops.mass_storage, np.zeros((dp, dp)), K, np.hstack([ops.mass_p, eye_p]))
                for K in ops.stiff_flow]
    ports = np.concatenate([du + np.arange(du)]
                           + [2 * du + 2 * dp * i + dp + np.arange(dp)
                              for i in range(ops.networks)])
    return _coupled([hyperbolic, *networks], ops, exchange, ports)


# ---------------------------------------------------------------------------
# Dense consistent initialization (the oracle of dae_analysis)
# ---------------------------------------------------------------------------
# The formula dae_analysis.consistent_initialization replaced by its sparse
# quasi-definite solve: the Schur matrix formed densely and solved by LAPACK.

def dense_schur_system(ops, p0, fdot0, g0, coupling=None):
    """Dense Schur matrix S = K_A + D-bar^T M-bar^-1 D-bar of the hidden
    constraint and its right-hand side fdot0 - D-bar^T M-bar^-1 (K-bar p0 - g0)."""
    dbar = np.vstack(ops.div_coupling)
    mbar = np.kron(np.eye(ops.networks), ops.mass_storage)
    kbar = _flow_operator(ops, None if coupling is None else coupling.exchange)
    schur = ops.stiff_elast + dbar.T @ np.linalg.solve(mbar, dbar)
    return schur, fdot0 - dbar.T @ np.linalg.solve(mbar, kbar @ p0 - g0)


def dense_consistent_initialization(ops, p0, f0, fdot0, g0, coupling=None):
    """(w0, u0) from dense solves of the Schur system and of
    K_A u0 = D-bar^T p0 + f0."""
    schur, rhs_w = dense_schur_system(ops, p0, fdot0, g0, coupling)
    rhs_u = np.vstack(ops.div_coupling).T @ p0 + f0
    return np.linalg.solve(schur, rhs_w), np.linalg.solve(ops.stiff_elast, rhs_u)


# ---------------------------------------------------------------------------
# Dense rank, kernels and index (the oracle of dae_analysis)
# ---------------------------------------------------------------------------
# Singular values decide everything here; the sparse rule in dae_analysis
# must give the same index label and rank of E on every built system.

def balanced_kernels(M):
    """Rank of M with orthonormal bases V of ker M and W of ker M^T.

    The rank is decided on D_r M D_c, where D_r and D_c hold the inverse
    square roots of the row and column max-norms of M (1 for a zero row or
    column), so that a block tiny against the rest of M, such as the storage
    mass of a stiff medium, is not cut as rank deficiency: singular values up
    to ``1e-10 * max(1, largest)`` count as zero.  The kernels found there are
    mapped back through D_c and D_r and re-orthonormalized.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"balanced_kernels requires a square matrix, got shape {A.shape}")
    mag = np.abs(A)
    d_row, d_col = (1.0 / np.sqrt(np.where(norms > 0.0, norms, 1.0))
                    for norms in (mag.max(axis=1, initial=0.0), mag.max(axis=0, initial=0.0)))
    U, sv, Vh = np.linalg.svd(d_row[:, None] * A * d_col)
    rank = int(np.sum(sv > 1e-10 * max(sv[0] if sv.size else 0.0, 1.0)))
    V = np.linalg.qr(d_col[:, None] * Vh[rank:].T)[0]
    W = np.linalg.qr(d_row[:, None] * U[:, rank:])[0]
    return rank, V, W


def classify_index_dense(E, A):
    """Dense index classification of the pencil (E, A); sparse input is
    densified.

    Regularity is decided by one SVD of 2 E - A; a singular pencil (singular
    values down to 1e-10 times the largest, at least 1) raises
    ``ValueError``.  The rank of E and its kernels come from
    ``balanced_kernels``; the index is 1 when the smallest singular value of
    W^T A V exceeds ``1e-10 * max(1, ||A||_2)``, else at least 2.
    """
    E, A = as_matrix(E), as_matrix(A)
    if E.shape != A.shape or E.shape[0] != E.shape[1]:
        raise ValueError(f"E and A must be square of equal size, got {E.shape} and {A.shape}")
    n = E.shape[0]
    if n == 0:
        return IndexReport(0, 0)
    sv = np.linalg.svd(2.0 * E - A, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1.0):
        raise ValueError("matrix pencil is singular at lambda = 2.0")
    rank, V, W = balanced_kernels(E)
    if rank == n:
        return IndexReport(0, rank)
    # V and W have n - rank > 0 columns, so the core is a nonempty square
    core = float(np.linalg.svd(W.T @ A @ V, compute_uv=False)[-1])
    return IndexReport(1 if core > 1e-10 * max(float(np.linalg.norm(A, 2)), 1.0)
                       else INDEX_AT_LEAST_2, rank)


def consistent_start_residual(sys, z0, v0):
    """Residual and limit of the start check on the left kernel W of E from
    ``balanced_kernels``: (|W^T r|, 1e-8 * (1 + max|r|)) for
    r = (J - R) z0 + G v0, or None when E is nonsingular."""
    rank, _, W = balanced_kernels(sys.E)
    if rank == sys.state_dim:
        return None
    rhs = (sys.J - sys.R) @ z0 + sys.G @ v0
    return float(np.linalg.norm(W.T @ rhs)), 1e-8 * (1.0 + float(np.max(np.abs(rhs))))


def csv_text(table) -> bytes:
    """Rows of comma-separated ``repr`` of each value, newline-terminated."""
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(table).tolist()).encode()


def trajectory_csv(traj) -> bytes:
    """The CSV file of a trajectory: header, then one row per time point."""
    header = ["time", "H", "dissipated_cum", "supplied_cum"]
    header += [f"z{i}" for i in range(traj.states.shape[1])]
    table = np.column_stack([traj.times, traj.hamiltonian, traj.dissipated_cumulative(),
                             traj.supplied_cumulative(), traj.states])
    return (",".join(header) + "\n").encode() + csv_text(table)


def reduced_step_matrices(block, F, X, a, b):
    """(keep, S, X_r) of a step with F = E - a J + a R and X = E + b J - b R
    of a system with a kinematic block (u, w) (``timeint._kinematic_block``),
    by scipy slicing and sparse sums: keep is every row but u's, S is
    F[keep, keep] + a F[keep, u] at the w columns, and X_r is
    X[keep, :] - F[keep, u] at the u columns - b F[keep, u] at the w columns."""
    u, w = block
    n = F.shape[0]
    keep = np.r_[0:u.start, u.stop:n]
    F_k, X_k = F[keep], X[keep]
    F_ku = F_k[:, u]

    def at(M, column, width):
        return csr_array((M.data, M.indices + column, M.indptr), shape=(M.shape[0], width))

    S = F_k[:, keep] + a * at(F_ku, int(np.searchsorted(keep, w.start)), keep.size)
    X_r = X_k - at(F_ku, u.start, n) - b * at(F_ku, w.start, n)
    return keep, S, X_r


def rebuilt_state(block, y, z, a, b):
    """The new state whose entries outside the kinematic block (u, w) are
    y, with u+ = u + b w + a w+ from the old state z."""
    u, w = block
    x = np.insert(y, u.start, np.zeros(u.stop - u.start))
    x[u] = z[u] + b * z[w] + a * x[w]
    return x


def refined(lu, M, b):
    """x from iterative refinement x <- x + lu^-1 (b - M x) for the CSR M,
    once ||b - M x|| <= REFINE_TARGET (||M|| ||x|| + ||b||) in the max norm
    (``timeint``'s constants); None for an M with a zero row or column, or
    as soon as the error, falling on at the rate of the last solve, would
    miss the target within REFINE_SOLVES solves."""
    ones = np.ones(M.shape[0])
    row_sums = abs(M) @ ones
    if not (np.all(row_sums) and np.all(ones @ abs(M))):
        return None
    scale_M, scale_b = float(np.max(row_sums)), float(np.max(np.abs(b)))
    x, last, resid = None, None, b
    for used in range(1, timeint.REFINE_SOLVES + 1):
        dx = lu.solve(resid)
        x = dx if x is None else x + dx
        resid = b - M @ x
        error = float(abs(resid).max())
        scale = scale_M * float(abs(x).max()) + scale_b
        if error <= timeint.REFINE_TARGET * scale:
            return x
        error /= scale
        rate = 0.0 if last is None else error / last
        if error * rate ** (timeint.REFINE_SOLVES - used) > timeint.REFINE_TARGET:
            return None
        last = error
    return None


def stepwise_theta_run(sys, z0, input, t_grid, theta, frozen_R=None, full_lu=False):
    """``timeint._theta_run`` one step at a time: per step it samples the
    input, forms G v, solves, and books zm^T R zm, zm^T G v and z^T E z with
    one-vector sparse products.  A system with a kinematic block
    (``timeint._kinematic_block``) steps on ``reduced_step_matrices`` and
    ``rebuilt_state``, unless ``full_lu``: then
    every system steps as before that reduction, with the LU of the whole
    step matrix, and a frozen R is solved by refinement with the last
    whole-matrix factor (refactored when that fails), both step matrices
    made by sparse sums.  Returns (states, H, dissipated, supplied)."""
    z0 = np.asarray(z0, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    v = input if input is not None else (lambda t, zero=np.zeros(sys.input_dim): zero)
    timeint._check_consistent_start(sys, z0, np.asarray(v(t[0]), dtype=float))
    E, J, R, G = sys.csr
    block = timeint._kinematic_block(sys)
    reduce = block[0].stop > block[0].start and not full_lu
    steps = timeint._snapped_steps(t)
    states = np.empty((len(t), sys.state_dim))
    states[0] = z0
    H = np.empty(len(t))
    H[0] = 0.5 * float(z0 @ (E @ z0))
    diss, supp = np.empty(len(steps)), np.empty(len(steps))
    step_matrices, frozen, z = {}, None, z0
    for k, h in enumerate(steps.tolist()):
        a, b = theta * h, (1.0 - theta) * h
        Gv = G @ np.asarray(v(t[k] + 0.5 * h), dtype=float)
        Gv_step = Gv if theta == 0.5 else G @ np.asarray(v(t[k] + theta * h), dtype=float)
        try:
            if frozen_R is None:
                if h not in step_matrices:
                    F, X = E - a * J + a * R, E + b * J - b * R
                    keep, S, X_r = (reduced_step_matrices(block, F, X, a, b) if reduce
                                    else (slice(None), F, X))
                    step_matrices[h] = (Factorization(S, "step matrix"), keep, X_r)
                lu, keep, X_r = step_matrices[h]
                y = lu.solve(X_r @ z + (h * Gv_step)[keep])
                z_new = rebuilt_state(block, y, z, a, b) if reduce else y
            elif full_lu:
                R = frozen_R(z)
                F, X = E - a * J + a * R, E + b * J - b * R
                rhs = X @ z + h * Gv_step
                key = (a, R.indptr.tobytes(), R.indices.tobytes())
                if frozen is None or frozen[0] != key:
                    frozen = (key, Factorization(F, "step matrix"))
                    z_new = frozen[1].solve(rhs)
                elif (z_new := refined(frozen[1], F, rhs)) is None:
                    frozen[1].refactor(F, "step matrix")
                    z_new = frozen[1].solve(rhs)
            else:
                R = frozen_R(z)
                if frozen is None or not frozen.holds(R, a):
                    frozen = timeint._FrozenRSteps(sys, block, R, a, b)
                z_new = frozen.step(R, z, h * Gv_step)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"step {k}: {exc}") from exc
        zm = 0.5 * (z + z_new)
        diss[k] = h * float(zm @ (R @ zm))
        supp[k] = h * float(zm @ Gv)
        z = z_new
        states[k + 1] = z
        H[k + 1] = 0.5 * float(z @ (E @ z))
    return states, H, diss, supp


def separable_closure(parts, size):
    """t -> the sum of T(omega t) * vector over the (source term, vector)
    parts, added one by one to a zero vector, T from ``math``."""
    time_factor = {"const": lambda x: 1.0, "sin": math.sin, "cos": math.cos}

    def signal(t):
        out = np.zeros(size)
        for term, vec in parts:
            out += time_factor[term.time](term.omega * t) * vec
        return out

    return signal
