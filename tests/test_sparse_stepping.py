"""The sparse operator blocks, systems and theta-method core against dense
references at n <= 4, and one nonlinear run at n = 16 that refactors.

The operator blocks are the canonical CSR of ``oracle.dense_scatter``, and
every builder and coupled route stores the CSR of the dense quadruple that
``oracle`` assembles from the same operators.  The stepping reference is the
dense algorithm the core replaced: dense step matrices,
``scipy.linalg.lu_factor`` once per distinct step size (or per step when a
frozen R is supplied) and dense products for the update and the ledger.
"""

from collections import Counter

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse import coo_array, csc_array, csr_array

from phporo import cli, fem, formulations, interconnect, numkit, phdae, timeint
from phporo.phdae import PhDae

import oracle
from conftest import consistent_state, linear_data, make_network_ops, make_ops
from test_cli import material_doc, network_doc, scenario_doc


def built_and_reference(case, n):
    """The system ``case`` builds at mesh size n and its dense oracle quadruple."""
    ops, qs = make_ops(n), make_ops(n, rho=0.0)
    nops, B = make_network_ops(n, m=2, symmetric=False, seed=3)
    qs_net, B_sym = make_network_ops(n, m=2, seed=4)
    zero = lambda t: np.zeros(qs.dim_u)  # noqa: E731
    reduction = formulations.schur_reduce_parabolic(qs, zero, zero, zero)
    S = numkit.sqrtm_spd(ops.stiff_elast)
    return {
        "full": lambda: (formulations.build_full_first_order(ops),
                         oracle.dense_system("full", ops)),
        "sqrt": lambda: (formulations.build_sqrt_formulation(ops),
                         oracle.dense_system("sqrt", ops, sqrt=S)),
        "quasi_static": lambda: (formulations.build_quasi_static(qs),
                                 oracle.dense_system("quasi_static", qs)),
        "quasi_static_network": lambda: (
            formulations.build_quasi_static(qs_net, B_sym),
            oracle.dense_system("quasi_static", qs_net, B_sym.exchange)),
        "alt_qs": lambda: (formulations.build_alternative_qs(qs),
                           oracle.dense_system("alt_qs", qs)),
        "alt_qs_network": lambda: (formulations.build_alternative_qs(qs_net, B_sym),
                                   oracle.dense_system("alt_qs", qs_net, B_sym.exchange)),
        "network": lambda: (formulations.build_network_ph(nops, B),
                            oracle.dense_system("network", nops, B.exchange)),
        "schur_parabolic": lambda: (reduction.as_phdae(),
                                    oracle.dense_system("schur_parabolic", qs,
                                                        reduction=reduction)),
        "full:coupled": lambda: (interconnect.couple_two_field(ops),
                                 oracle.dense_coupled("full", ops)),
        "alt_qs:coupled": lambda: (interconnect.couple_alt_qs(qs),
                                   oracle.dense_coupled("alt_qs", qs)),
        "network:coupled": lambda: (interconnect.couple_network(nops, B),
                                    oracle.dense_coupled("network", nops, B.exchange)),
    }[case]()


BUILT = ("full", "sqrt", "quasi_static", "quasi_static_network", "alt_qs", "alt_qs_network",
         "network", "schur_parabolic", "full:coupled", "alt_qs:coupled", "network:coupled")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", BUILT)
def test_stored_csr_is_the_csr_of_the_dense_reference(case, n):
    sys, reference = built_and_reference(case, n)
    for name, dense in zip("EJRG", reference):
        got, want = getattr(sys.csr, name), csr_array(dense)
        assert got.shape == want.shape, (case, name)
        assert np.array_equal(got.indptr, want.indptr), (case, name)
        assert np.array_equal(got.indices, want.indices), (case, name)
        assert np.array_equal(got.data, want.data), (case, name)
        assert not any(a.flags.writeable for a in (got.data, got.indices, got.indptr))
        assert np.array_equal(getattr(sys, name), dense), (case, name)


def bundle_reference(ops):
    """The dense scatter of every block of the bundle, from fem's element kernels."""
    mesh = ops.vspace.mesh
    coords = mesh.nodes[mesh.triangles]
    v, q = fem._dofs(ops.vspace), fem._dofs(ops.qspace)
    uu, pp, pu = (v, v, (ops.dim_u,) * 2), (q, q, (ops.dim_p,) * 2), (q, v, (ops.dim_p, ops.dim_u))
    head, mats = ops.materials[0], ops.materials

    def mass(coeff, table):
        local = fem.element_mass(coords, coeff)
        return oracle.dense_scatter(local if table is pp else np.kron(np.eye(2), local), *table)

    return {
        "mass_rho": mass(head.rho, uu),
        "stiff_elast": oracle.dense_scatter(fem.element_elasticity(coords, head.mu, head.lam),
                                            *uu),
        "mass_storage": mass(1.0 / head.biot_M, pp),
        "stiff_flow": tuple(oracle.dense_scatter(fem.element_stiffness(coords, m.kappa / m.nu),
                                                 *pp) for m in mats),
        "div_coupling": tuple(oracle.dense_scatter(fem.element_divergence(coords, m.alpha), *pu)
                              for m in mats),
        "mass_p": mass(1.0, pp),
        "mass_u": mass(1.0, uu),
    }


@pytest.mark.parametrize("networks", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operator_blocks_are_the_canonical_csr_of_the_dense_scatter(n, networks):
    ops = make_ops(n) if networks == 1 else make_network_ops(n, m=networks, rho=0.5)[0]
    assert len(ops.csr.stiff_flow) == len(ops.csr.div_coupling) == networks
    for name, dense in bundle_reference(ops).items():
        got = getattr(ops.csr, name)
        for M, want in zip(got, dense) if isinstance(got, tuple) else [(got, dense)]:
            ref = csr_array(want)
            assert M.format == "csr" and M.shape == want.shape, name
            assert np.array_equal(M.indptr, ref.indptr), name
            assert np.array_equal(M.indices, ref.indices), name
            assert np.array_equal(M.data, ref.data) and np.all(M.data), name
            assert not any(a.flags.writeable for a in (M.data, M.indices, M.indptr))
            assert np.array_equal(M.toarray(), want), name
        view = getattr(ops, name)
        for A in view if isinstance(view, tuple) else [view]:
            assert not A.flags.writeable


@pytest.fixture
def no_dense_views(monkeypatch):
    """Make building a dense view of a system matrix or an operator block fail."""
    def refuse(M):
        raise AssertionError("dense view of a system matrix or an operator block")

    monkeypatch.setattr(numkit, "dense_view", refuse)


def test_the_guard_covers_system_and_operator_views(no_dense_views):
    ops = make_ops(2)
    for read in (lambda: ops.stiff_elast, lambda: ops.div_coupling,
                 lambda: formulations.build_full_first_order(ops).E):
        with pytest.raises(AssertionError, match="dense view"):
            read()


CHECKED = {
    "full": lambda: scenario_doc(mesh_n=3),
    "sqrt": lambda: scenario_doc(mesh_n=3, formulation="sqrt"),
    "quasi_static": lambda: scenario_doc(mesh_n=3, formulation="quasi_static",
                                         materials=[material_doc(rho=0.0)]),
    "alt_qs": lambda: scenario_doc(mesh_n=3, formulation="alt_qs",
                                   materials=[material_doc(rho=0.0)]),
    "network": lambda: network_doc(mesh_n=3),
    "schur_parabolic": lambda: scenario_doc(mesh_n=3, formulation="schur_parabolic",
                                            materials=[material_doc(rho=0.0)]),
    "full:coupled": lambda: scenario_doc(mesh_n=3, route="coupled"),
    "alt_qs:coupled": lambda: scenario_doc(mesh_n=3, route="coupled", formulation="alt_qs",
                                           materials=[material_doc(rho=0.0)]),
    "network:coupled": lambda: network_doc(mesh_n=3, route="coupled"),
}


@pytest.mark.parametrize("case", list(CHECKED))
def test_certified_check_reads_no_dense_view(case, no_dense_views):
    report, code = cli.cmd_check(cli.parse_scenario(CHECKED[case]()))
    assert code == 0 and report["pass"]
    assert report["structure"]["E"]["min_eigenvalue"] is None  # decided by the certificate


@pytest.mark.parametrize("case", ["full", "quasi_static"])
def test_simulate_reads_no_dense_view(case, no_dense_views, tmp_path):
    summary, code = cli.cmd_simulate(cli.parse_scenario(CHECKED[case]()), str(tmp_path / "t.csv"))
    assert code == 0 and summary["max_power_balance_residual"] <= 1e-10


@pytest.mark.parametrize("case", ["full", "quasi_static", "network"])
def test_simulate_forms_no_dense_matrix(case, monkeypatch, tmp_path):
    # parsed first: NetworkCoupling reads its m x m exchange matrix through as_matrix
    scn = cli.parse_scenario(CHECKED[case]())

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix on the simulate path")

    for owner, name in ((numkit, "dense_view"), (csr_array, "toarray"), (csc_array, "toarray")):
        monkeypatch.setattr(owner, name, refuse)
    summary, code = cli.cmd_simulate(scn, str(tmp_path / "t.csv"))
    assert code == 0 and summary["max_power_balance_residual"] <= 1e-10


def test_export_and_load_read_no_dense_view(no_dense_views, tmp_path):
    scn = cli.parse_scenario(CHECKED["full"]())
    report, code = cli.cmd_export(scn, str(tmp_path / "export"))
    assert code == 0 and report["pass"]
    loaded = phdae.load_phdae(tmp_path / "export")
    built = cli.build_system(scn, cli.build_operators(scn))
    for name in "EJRG":
        a, b = getattr(loaded.csr, name), getattr(built.csr, name)
        assert all(map(np.array_equal, (a.indptr, a.indices, a.data),
                       (b.indptr, b.indices, b.data)))


def test_uncertified_matrix_reads_no_dense_view(no_dense_views):
    sys = PhDae(np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]), np.ones((2, 1)),
                validate=False)
    assert phdae.certificate(sys, "R") is None
    report = phdae.validate_structure(sys)
    assert report.r_report.verdict == numkit.INDEFINITE
    assert report.r_report.min_eigenvalue == pytest.approx(-1.0, abs=1e-14)
    assert not sys._dense


def dense_theta_run(sys, z0, v, t, theta, frozen_R=None):
    """Dense theta method with the midpoint ledger; returns states, H, ledgers."""
    E, J, G = sys.E, sys.J, sys.G
    R = sys.R
    steps = timeint._snapped_steps(t)
    states = [np.asarray(z0, dtype=float)]
    diss, supp, cache = [], [], {}
    for k, h in enumerate(steps.tolist()):
        if frozen_R is not None:
            R = frozen_R(states[-1])
            cache.clear()
        if h not in cache:
            K = J - R
            cache[h] = (lu_factor(E - theta * h * K), E + (1.0 - theta) * h * K)
        lu, explicit = cache[h]
        z = states[-1]
        v_mid = np.asarray(v(t[k] + 0.5 * h), dtype=float)
        v_step = np.asarray(v(t[k] + theta * h), dtype=float)
        z_new = lu_solve(lu, explicit @ z + h * (G @ v_step))
        zm = 0.5 * (z + z_new)
        diss.append(h * float(zm @ R @ zm))
        supp.append(h * float((G.T @ zm) @ v_mid))
        states.append(z_new)
    states = np.array(states)
    H = np.array([0.5 * float(z @ E @ z) for z in states])
    return states, H, np.array(diss), np.array(supp)


def relative_gap(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


def assert_agrees(sys, traj, ref, loose=(), balanced=True):
    """States, H and ledgers to 1e-12 relative; the blocks in ``loose`` to 1e-8.

    ``balanced`` (midpoint runs) also asks for the exact per-step balance.
    """
    states, H, diss, supp = ref
    tight = np.ones(sys.state_dim, dtype=bool)
    for label in loose:
        block = sys.state_slice(label)
        tight[block] = False
        assert relative_gap(traj.states[:, block], states[:, block]) <= 1e-8
    assert relative_gap(traj.states[:, tight], states[:, tight]) <= 1e-12
    assert relative_gap(traj.hamiltonian, H) <= 1e-12
    assert relative_gap(traj.dissipated, diss) <= 1e-12
    assert relative_gap(traj.supplied, supp) <= 1e-12
    if not balanced:
        return
    scale = np.maximum(1.0, np.abs(traj.hamiltonian[:-1]))
    assert np.all(traj.balance_residuals() <= 1e-10 * scale)


# scenario document, state blocks that may drift at 1e-8 (index-2 velocity)
CASES = {
    "full": (lambda: scenario_doc(mesh_n=3), ()),
    "sqrt": (lambda: scenario_doc(mesh_n=3, formulation="sqrt"), ()),
    "quasi_static": (lambda: scenario_doc(mesh_n=3, formulation="quasi_static",
                                          materials=[material_doc(rho=0.0)]), ("w",)),
    "alt_qs": (lambda: scenario_doc(mesh_n=3, formulation="alt_qs",
                                    materials=[material_doc(rho=0.0)]), ()),
    "network": (lambda: network_doc(mesh_n=3), ("w",)),
    "schur_parabolic": (lambda: scenario_doc(mesh_n=4, formulation="schur_parabolic",
                                             materials=[material_doc(rho=0.0)]), ()),
    "full:coupled": (lambda: scenario_doc(mesh_n=3, route="coupled"), ()),
    "alt_qs:coupled": (lambda: scenario_doc(mesh_n=3, route="coupled", formulation="alt_qs",
                                            materials=[material_doc(rho=0.0)]), ()),
    "network:coupled": (lambda: network_doc(mesh_n=3, route="coupled"), ("w",)),
}


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
@pytest.mark.parametrize("case", list(CASES))
def test_sparse_core_matches_dense_reference(case, integrator):
    doc_fn, loose = CASES[case]
    scn = cli.parse_scenario(dict(doc_fn(), integrator=integrator))
    ops = cli.build_operators(scn)
    system, traj = cli._run(scn, ops)
    built = cli.build_system(scn, ops)
    signal = (built.g_tilde if isinstance(built, formulations.ParabolicReduction)
              else cli.input_signal(scn, ops, system))
    theta = 0.5 if integrator == "midpoint" else 1.0
    ref = dense_theta_run(system, cli.initial_state(scn, ops, system), signal,
                          cli.time_grid(scn), theta)
    assert_agrees(system, traj, ref, loose, balanced=theta == 0.5)


def test_nonlinear_kappa_matches_dense_reference(ops3):
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731
    v, f, fdot, g = linear_data(ops3, seed=12)
    p0 = np.random.default_rng(13).uniform(-0.5, 0.5, ops3.dim_p)
    z0 = consistent_state(ops3, p0, f, fdot, g)
    grid = np.linspace(0.0, 1.0, 41)
    traj = timeint.integrate_nonlinear_kappa(ops3, kappa, z0, v, grid, bounds=(0.5, 1.0))

    base = formulations.build_full_first_order(ops3)
    u, p = base.state_slice("u"), base.state_slice("p")

    def frozen_R(z):
        R = base.R.copy()
        R[p, p] = fem.assemble_nonlinear_permeability(
            ops3.qspace, ops3.vspace, z[u], kappa, ops3.materials[0].nu, bounds=(0.5, 1.0)).toarray()
        return R

    ref = dense_theta_run(base, z0, v, grid, 0.5, frozen_R)
    assert_agrees(base, traj, ref)
    assert not np.allclose(frozen_R(traj.states[-1])[p, p], base.R[p, p])


def test_nonlinear_kappa_run_is_reproducible(ops3):
    # the kappa and data of test_nonlinear_kappa_matches_dense_reference
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731
    v, f, fdot, g = linear_data(ops3, seed=12)
    p0 = np.random.default_rng(13).uniform(-0.5, 0.5, ops3.dim_p)
    z0 = consistent_state(ops3, p0, f, fdot, g)
    grid = np.linspace(0.0, 1.0, 41)
    first, second = (timeint.integrate_nonlinear_kappa(ops3, kappa, z0, v, grid, bounds=(0.5, 1.0))
                     for _ in range(2))
    for name in ("states", "hamiltonian", "dissipated", "supplied"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def colamd_every_step(ops, kappa, z0, v, t, bounds):
    """The frozen-R midpoint run as it was before step matrices kept a
    pattern: R from the nonzeros of the dense block, sparse sums, and a fresh
    COLAMD-ordered LU on every step, of the step reduced to the rows and
    columns outside the kinematic u block (``oracle.reduced_step_matrices``)."""
    base = formulations.build_full_first_order(ops)
    u, p = base.state_slice("u"), base.state_slice("p")
    kinematic = timeint._kinematic_block(base)
    E, J, G = (csr_array(M) for M in (base.E, base.J, base.G))
    states, H, diss, supp = [z0], [0.5 * float(z0 @ (E @ z0))], [], []
    for k, h in enumerate(timeint._snapped_steps(t).tolist()):
        z = states[-1]
        block = coo_array(fem.assemble_nonlinear_permeability(
            ops.qspace, ops.vspace, z[u], kappa, ops.materials[0].nu, bounds=bounds).toarray())
        R = csr_array((block.data, (block.row + p.start, block.col + p.start)), shape=E.shape)
        keep, S, X_r = oracle.reduced_step_matrices(
            kinematic, (E - (0.5 * h) * J) + (0.5 * h) * R, (E + (0.5 * h) * J) - (0.5 * h) * R,
            0.5 * h, 0.5 * h)
        Gv = G @ np.asarray(v(t[k] + 0.5 * h), dtype=float)
        y = numkit.Factorization(S).solve(X_r @ z + (h * Gv)[keep])
        z_new = oracle.rebuilt_state(kinematic, y, z, 0.5 * h, 0.5 * h)
        zm = 0.5 * (z + z_new)
        diss.append(h * float(zm @ (R @ zm)))
        supp.append(h * float(zm @ Gv))
        states.append(z_new)
        H.append(0.5 * float(z_new @ (E @ z_new)))
    return np.array(states), np.array(H), np.array(diss), np.array(supp)


@pytest.mark.parametrize("n", [3, 5])
def test_nonlinear_kappa_matches_fresh_colamd_run_bitwise(n, monkeypatch):
    ops = make_ops(n)
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731
    v, f, fdot, g = linear_data(ops, seed=14)
    p0 = np.random.default_rng(15).uniform(-0.5, 0.5, ops.dim_p)
    z0 = consistent_state(ops, p0, f, fdot, g)
    grid = np.linspace(0.0, 1.0, 31)
    ref = colamd_every_step(ops, kappa, z0, v, grid, (0.5, 1.0))
    # with the last factor reused the run agrees to 1e-12
    traj = timeint.integrate_nonlinear_kappa(ops, kappa, z0, v, grid, bounds=(0.5, 1.0))
    assert_agrees(formulations.build_full_first_order(ops), traj, ref)
    # without reuse every step is factored, bit for bit as a fresh COLAMD LU
    monkeypatch.setattr(timeint, "REFINE_SOLVES", 0)
    traj = timeint.integrate_nonlinear_kappa(ops, kappa, z0, v, grid, bounds=(0.5, 1.0))
    states, H, diss, supp = ref
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.hamiltonian, H)
    assert np.array_equal(traj.dissipated, diss)
    assert np.array_equal(traj.supplied, supp)


def test_refactors_of_their_own_accord_keep_one_ordering(monkeypatch):
    # at n = 16 and h = 0.1 refinement with the last step's factor stalls on
    # most steps, with REFINE_SOLVES as it is; those steps are factored in the
    # kept column order, so the run makes one COLAMD ordering
    ops = make_ops(16)
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731
    v, f, fdot, g = linear_data(ops, seed=14)
    z0 = consistent_state(ops, np.random.default_rng(15).uniform(-0.5, 0.5, ops.dim_p),
                          f, fdot, g)
    grid = np.linspace(0.0, 1.0, 11)
    ref = colamd_every_step(ops, kappa, z0, v, grid, (0.5, 1.0))
    orderings, real = Counter(), numkit.lu_factor

    def counting(A, **kwargs):
        orderings["colamd" if not kwargs else "natural" if kwargs.get("natural") else "ldlt"] += 1
        return real(A, **kwargs)

    monkeypatch.setattr(numkit, "lu_factor", counting)
    traj = timeint.integrate_nonlinear_kappa(ops, kappa, z0, v, grid, bounds=(0.5, 1.0))
    assert orderings["colamd"] == 1 and orderings["natural"] >= 2
    assert_agrees(formulations.build_full_first_order(ops), traj, ref)


def test_frozen_R_whose_pattern_changes_matches_dense_reference(ops3, monkeypatch):
    # on step 7 alone R is lumped to its diagonal: the step matrices get a
    # new pattern there and the old one back on step 8
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731
    v, f, fdot, g = linear_data(ops3, seed=16)
    z0 = consistent_state(ops3, np.full(ops3.dim_p, 0.3), f, fdot, g)
    grid = np.linspace(0.0, 1.0, 21)
    base = formulations.build_full_first_order(ops3)
    u, p = base.state_slice("u"), base.state_slice("p")

    def frozen_R_maker():
        calls = []

        def frozen_R(z):
            R = np.zeros_like(base.R)
            R[p, p] = fem.assemble_nonlinear_permeability(
                ops3.qspace, ops3.vspace, z[u], kappa, ops3.materials[0].nu).toarray()
            if len(calls) == 7:
                R = np.diag(R.diagonal())
            calls.append(z)
            return R
        return frozen_R

    orderings = []
    real = numkit.lu_factor

    def counting(A, **kwargs):
        if not kwargs:
            orderings.append(A.shape)
        return real(A, **kwargs)

    monkeypatch.setattr(numkit, "lu_factor", counting)
    dense_R = frozen_R_maker()
    traj = timeint._theta_run(base, z0, v, grid, 0.5, lambda z: csr_array(dense_R(z)))
    assert len(orderings) == 3  # steps 0, 7 and 8
    ref = dense_theta_run(base, z0, v, grid, 0.5, frozen_R_maker())
    assert_agrees(base, traj, ref)


def test_nonlinear_run_needs_no_dense_matrix(monkeypatch):
    ops = make_ops(3)
    v, f, fdot, g = linear_data(ops, seed=17)
    z0 = consistent_state(ops, np.full(ops.dim_p, 0.2), f, fdot, g)
    stencil = fem._stencil(ops.qspace, ops.qspace)  # made by the bundle's assembly

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix on the nonlinear step path")

    for owner, name in ((numkit, "dense_view"), (numkit, "as_matrix"),
                        (csr_array, "toarray"), (csc_array, "toarray")):
        monkeypatch.setattr(owner, name, refuse)
    traj = timeint.integrate_nonlinear_kappa(ops, lambda xi: 1.0 + xi * xi, z0, v,
                                             np.linspace(0.0, 1.0, 11))
    assert traj.balance_residuals().max() <= 1e-12 * max(1.0, np.abs(traj.hamiltonian).max())
    assert fem._stencil(ops.qspace, ops.qspace) is stencil  # no new stencil per step


def test_longer_nonlinear_run_recomputes_no_run_constant(monkeypatch):
    # element geometry is computed once per space, and the run's sparse
    # containers (the embedded R and both step matrices) are made once and
    # written on every step, so 20 steps make no more of either than 5 do
    counts = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    count(fem, "p1_gradients")
    count(fem, "triangle_area")
    count(timeint, "csr_array")
    kappa = lambda xi: (1.0 + 4.0 * xi * xi) / (2.0 + 4.0 * xi * xi)  # noqa: E731

    def run(steps):
        ops = make_ops(3)
        v, f, fdot, g = linear_data(ops, seed=18)
        z0 = consistent_state(ops, np.full(ops.dim_p, 0.3), f, fdot, g)
        counts.clear()
        traj = timeint.integrate_nonlinear_kappa(ops, kappa, z0, v,
                                                 np.linspace(0.0, 0.05 * steps, steps + 1))
        assert len(traj.times) == steps + 1
        return dict(counts)

    short = run(5)
    assert short["p1_gradients"] > 0 and short["triangle_area"] > 0 and short["csr_array"] > 0
    assert short == run(20)
