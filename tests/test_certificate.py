"""The sparse definiteness certificate against the dense spectrum it replaces.

``numkit.psd_certificate`` decides structure wherever it certifies a matrix,
and the Lanczos run of ``numkit.psd_check`` everywhere else.  Every system is
checked twice: as built, and against the dense verdicts, for which the
structure report runs with the certificate forced to answer "not certified"
and ``psd_check`` replaced by ``oracle.dense_psd_check``, and the index and
start checks come from the SVD oracle in ``oracle.py``.  The certificate and the structural measures take dense and
CSR input alike, and the tests run on both.
"""

import numpy as np
import pytest
from scipy.sparse import csr_array

from phporo import dae_analysis, fem, formulations, interconnect, numkit, phdae, timeint
from phporo.interconnect import FeedbackLaw
from phporo.numkit import StructureError
from phporo.phdae import InconsistentStateError, PhDae

import oracle
from conftest import make_network_ops, make_ops, random_coupling


def built_systems(n):
    """Every formulation and every coupled route at mesh size n."""
    ops, qs = make_ops(n), make_ops(n, rho=0.0)
    nops, B = make_network_ops(n, m=2, symmetric=False, seed=3)
    zero_u = lambda t: np.zeros(qs.dim_u)
    reduction = formulations.schur_reduce_parabolic(qs, zero_u, zero_u,
                                                    lambda t: np.zeros(qs.dim_p))
    return {
        "full": formulations.build_full_first_order(ops),
        "sqrt": formulations.build_sqrt_formulation(ops),
        "quasi_static": formulations.build_quasi_static(qs),
        "alt_qs": formulations.build_alternative_qs(qs),
        "network": formulations.build_network_ph(nops, B),
        "schur_parabolic": reduction.as_phdae(),
        "full_coupled": interconnect.couple_two_field(ops),
        "alt_qs_coupled": interconnect.couple_alt_qs(qs),
        "network_coupled": interconnect.couple_network(nops, B),
    }


def with_explicit_zeros(M):
    """CSR of M that also stores every zero diagonal entry: not canonical."""
    M = np.asarray(M, dtype=float)
    rows, cols = np.nonzero(M)
    diag = np.arange(min(M.shape))
    return csr_array((np.concatenate([M[rows, cols], np.zeros(diag.size)]),
                      (np.concatenate([rows, diag]), np.concatenate([cols, diag]))),
                     shape=M.shape)


@pytest.fixture
def layout():
    """Matrix input as a dense array; the ``...OnCsr`` classes give it as a
    CSR with explicit zeros instead."""
    return lambda M: np.asarray(M, dtype=float)


def fresh(sys, validate=False, layout=np.asarray, **replaced):
    """A copy of sys that keeps no certificate or report, with some matrices
    replaced, built from its matrices in ``layout``."""
    mats = [layout(replaced.get(name, getattr(sys, name))) for name in "EJRG"]
    return PhDae(*mats, state_blocks=sys.state_blocks, input_blocks=sys.input_blocks,
                 validate=validate)


def structural(M):
    """The certificate and the structural measures of M."""
    zero_rows = numkit.psd_certificate(M)
    return (None if zero_rows is None else zero_rows.tolist(), numkit.symmetry_defect(M),
            numkit.skew_defect(M), numkit.default_tol(M))


def start_states(sys):
    return np.zeros(sys.state_dim), np.random.default_rng(0).standard_normal(sys.state_dim)


def verdicts(report, index, starts):
    return (report.verdict, report.e_report.verdict, report.r_report.verdict,
            report.w_report.verdict, report.j_skew_defect, index.label, index.e_rank,
            tuple(starts))


def start_verdict(sys, z0):
    try:
        timeint._check_consistent_start(sys, z0, np.zeros(sys.input_dim))
        return "consistent"
    except InconsistentStateError as exc:
        return str(exc)  # the residual, to four digits


def oracle_start_verdict(sys, z0):
    checked = oracle.consistent_start_residual(sys, z0, np.zeros(sys.input_dim))
    if checked is None or checked[0] <= checked[1]:
        return "consistent"
    return "initial state violates the algebraic constraints (residual %.3e > %.3e)" % checked


def outcomes(sys):
    """Structure, index and start-consistency verdicts of one system."""
    return verdicts(phdae.validate_structure(sys), dae_analysis.classify_phdae_index(sys),
                    [start_verdict(sys, z0) for z0 in start_states(sys)])


def dense_outcomes(sys, monkeypatch):
    """The verdicts of ``outcomes`` from the dense code: the structure report
    from the dense spectrum without the certificate, the index and start
    checks from the oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(numkit, "psd_certificate", lambda M: None)
        patch.setattr(numkit, "psd_check", oracle.dense_psd_check)
        report = phdae.validate_structure(fresh(sys))
    return verdicts(report, oracle.classify_index_dense(sys.E, sys.J - sys.R),
                    [oracle_start_verdict(sys, z0) for z0 in start_states(sys)])


def certificate_agrees_with_the_dense_verdict(n, monkeypatch, layout):
    for name, sys in built_systems(n).items():
        copy = fresh(sys, layout=layout)
        got = outcomes(copy)
        assert phdae.certificate(copy, "E") is not None, name
        assert phdae.certificate(copy, "R") is not None, name
        assert got == dense_outcomes(sys, monkeypatch), name


@pytest.mark.parametrize("n", [2, 4])
def test_certificate_agrees_with_the_dense_verdict(n, monkeypatch, layout):
    certificate_agrees_with_the_dense_verdict(n, monkeypatch, layout)


@pytest.mark.parametrize("n", [2, 4])
def test_certificate_agrees_with_the_dense_verdict_on_csr(n, monkeypatch):
    certificate_agrees_with_the_dense_verdict(n, monkeypatch, with_explicit_zeros)


@pytest.mark.parametrize("n", [2, 4])
def test_zero_rows_span_the_dense_kernels(n):
    for name, sys in built_systems(n).items():
        zero_rows = phdae.certificate(sys, "E")
        rank, V, W = oracle.balanced_kernels(sys.E)
        assert rank == sys.state_dim - zero_rows.size, name
        unit = np.eye(sys.state_dim)[:, zero_rows]
        for basis in (V, W):
            # the same subspace: projecting e_Z onto the dense basis keeps it
            assert np.allclose(basis @ (basis.T @ unit), unit, atol=1e-12), name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_index_agrees_with_the_oracle(n):
    # every builder and coupled route, the feedback loops of criterion 6 and
    # the non-augmented pencils with one and two networks
    systems = built_systems(n)
    qs = formulations.build_quasi_static(make_ops(n, rho=0.0))
    eye = np.eye(qs.state_slice("w").stop)
    for label, gain in (("negative", -eye), ("zero", 0.0 * eye), ("positive", eye)):
        systems["feedback_" + label] = dae_analysis.regularize_output_feedback(qs, gain)
    for name, sys in systems.items():
        expected = oracle.classify_index_dense(sys.E, sys.J - sys.R)
        assert dae_analysis.classify_phdae_index(sys) == expected, name
    for args in ((make_ops(n, rho=0.0),), make_network_ops(n, m=2, symmetric=False, seed=3)):
        E, A = dae_analysis.nonaugmented_quasi_static_pencil(*args)
        assert dae_analysis.classify_index(E, A) == oracle.classify_index_dense(E, A)


class TestNegativeCases:
    def test_oversized_exchange_rates(self, monkeypatch, layout):
        ops, B = make_network_ops(3, m=2)
        sys = formulations.build_network_ph(ops, B)
        big = formulations.kbar_matrix(ops, random_coupling(np.random.default_rng(0), 2,
                                                             scale=1e6)).toarray()
        R = sys.R.copy()
        R[2 * ops.dim_u :, 2 * ops.dim_u :] = 0.5 * (big + big.T)
        broken = fresh(sys, R=R, layout=layout)
        assert phdae.certificate(broken, "R") is None
        assert structural(layout(R)) == structural(R)
        got = outcomes(broken)
        assert got == dense_outcomes(broken, monkeypatch)
        assert got[0] is False and got[2] == "indefinite"
        with pytest.raises(StructureError, match="min eigenvalue"):
            formulations.build_network_ph(ops, random_coupling(np.random.default_rng(0), 2,
                                                               scale=1e6))

    def test_j_with_a_symmetric_defect(self, monkeypatch, layout):
        sys = built_systems(2)["full"]
        J = sys.J + 1e-6 * np.eye(sys.state_dim)
        broken = fresh(sys, J=J, layout=layout)
        assert structural(layout(J)) == structural(J)
        got = outcomes(broken)
        assert got == dense_outcomes(broken, monkeypatch)
        assert got[0] is False
        assert "J skew defect" in "".join(phdae.validate_structure(broken).failures())

    def test_feedback_that_loses_dissipativity(self, monkeypatch, layout):
        sys = built_systems(2)["quasi_static"]
        closed = interconnect.close_loop(sys, FeedbackLaw(layout(np.eye(sys.input_dim))))
        assert phdae.certificate(closed, "R") is None
        assert structural(layout(closed.R)) == structural(closed.R)
        got = outcomes(closed)
        assert got == dense_outcomes(closed, monkeypatch)
        assert got[0] is False and got[2] == "indefinite"
        with pytest.raises(StructureError, match="min eigenvalue"):
            interconnect.feedback(sys, FeedbackLaw(layout(np.eye(sys.input_dim))))

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_exactly_singular_block_is_not_certified(self, n, layout):
        # the Laplacian without Dirichlet elimination: PSD, constants in its
        # kernel, and no zero row
        mesh = fem.build_unit_square_mesh(n)
        every = np.arange(len(mesh.nodes))
        laplace = fem.assemble_laplace(fem.FeSpace(fem.SCALAR_P1, mesh, every, every),
                                       1.0).toarray()
        assert numkit.psd_certificate(layout(laplace)) is None
        assert numkit.psd_check(layout(laplace)).verdict == numkit.POSITIVE_SEMIDEFINITE

    def test_uncertified_e_decided_by_stacked_rows(self, layout):
        # the zero rows of E are not zero columns: L = [E[N, :]; -A[Z, :]] decides
        E, A = (M.toarray() for M in dae_analysis.nonaugmented_quasi_static_pencil(
            make_ops(3, rho=0.0)))
        assert not E[: make_ops(3).dim_u].any()
        assert numkit.psd_certificate(layout(E)) is None
        assert structural(layout(E)) == structural(E)
        got = dae_analysis.classify_index(layout(E), layout(A))
        assert got == oracle.classify_index_dense(E, A)
        assert got.label == "1"


class TestNegativeCasesOnCsr(TestNegativeCases):
    """The negative cases with every matrix given as CSR with explicit zeros."""

    @pytest.fixture
    def layout(self):
        return with_explicit_zeros


class TestPsdCertificate:
    def test_zero_rows_and_definite_rest(self, layout):
        assert numkit.psd_certificate(layout(np.diag([2.0, 0.0, 1e-20]))).tolist() == [1]
        assert numkit.psd_certificate(layout(np.zeros((3, 3)))).tolist() == [0, 1, 2]
        assert numkit.psd_certificate(layout(np.zeros((0, 0)))).tolist() == []

    @pytest.mark.parametrize("M", [
        [[1.0, 2.0], [2.0, 1.0]],              # indefinite
        [[0.0, 1.0], [1.0, 0.0]],              # zero diagonal
        [[1.0, 1.0], [1.0, 1.0]],              # singular
        [[1.0, 0.0], [1.0, 0.0]],              # zero row with a nonzero column
        [[1.0, 0.0, 0.0], [0.0, -1e-30, 0.0], [0.0, 0.0, 1.0]],
        # indefinite, yet every pivot of U is positive: one is off the diagonal
        [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0],
         [0.0, 0.0, 1.0, 1.0]],
    ])
    def test_not_certified(self, M, layout):
        assert numkit.psd_certificate(layout(M)) is None
        assert structural(layout(M)) == structural(np.array(M))

    def test_symmetric_part_is_certified(self, layout):
        # a skew part changes neither the definiteness nor the zero rows
        M = layout([[2.0, 1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        assert numkit.psd_certificate(M).tolist() == [2]
        report = numkit.certified_report(M, numkit.psd_certificate(M))
        assert report.verdict == numkit.POSITIVE_SEMIDEFINITE
        assert report.min_eigenvalue is None and report.max_asymmetry == 2.0

    def test_non_finite_and_non_square_rejected(self, layout):
        with pytest.raises(ValueError):
            numkit.psd_certificate(layout(np.array([[np.nan]])))
        with pytest.raises(ValueError):
            numkit.psd_certificate(layout(np.ones((2, 3))))

    def test_uncertified_report_is_the_dense_one(self, layout):
        M = np.diag([1.0, -1.0])
        assert numkit.certified_report(layout(M), None) == numkit.psd_check(M)


class TestPsdCertificateOnCsr(TestPsdCertificate):
    """The certificate cases with every matrix given as CSR with explicit zeros."""

    @pytest.fixture
    def layout(self):
        return with_explicit_zeros


@pytest.mark.parametrize("n", [2, 4])
def test_structural_measures_agree_on_dense_and_csr(n):
    for name, sys in built_systems(n).items():
        for M in (sys.E, sys.J, sys.R):
            got = structural(M)
            assert structural(csr_array(M)) == got, name
            assert structural(with_explicit_zeros(M)) == got, name


def test_certified_systems_need_no_dense_spectrum(monkeypatch):
    systems = built_systems(4)
    nops, B = make_network_ops(4, m=2, symmetric=False, seed=3)
    pencils = [dae_analysis.nonaugmented_quasi_static_pencil(make_ops(4, rho=0.0)),
               dae_analysis.nonaugmented_quasi_static_pencil(nops, B)]

    def refuse(*args, **kwargs):
        raise AssertionError("dense SVD or eigendecomposition")

    for name in ("svd", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for sys in systems.values():
        copy = fresh(sys, validate=True)
        assert phdae.validate_structure(copy).verdict
        dae_analysis.classify_phdae_index(copy)
        timeint._check_consistent_start(copy, np.zeros(copy.state_dim),
                                        np.zeros(copy.input_dim))
    for E, A in pencils:
        assert dae_analysis.classify_index(E, A).label == "1"


def oversized_flow(n, symmetric=True):
    """The coupled flow operator with rates far above the small-rate bound."""
    ops, _ = make_network_ops(n, m=2)
    coupling = random_coupling(np.random.default_rng(n), 2, scale=1e6, symmetric=symmetric)
    return [formulations.kbar_matrix(ops, coupling)]


def rank_deficient_grams():
    """The Gram matrices V^T V of ``test_gram_matrices_always_semidefinite``
    whose V has fewer rows than columns."""
    rng, out = np.random.default_rng(42), []
    for _ in range(50):
        n = rng.integers(1, 12)
        V = rng.standard_normal((rng.integers(1, 12), n))
        if V.shape[0] < n:
            out.append(V.T @ V)
    return out


def full_laplacians():
    """Laplacians without Dirichlet elimination: PSD, constants in the
    kernel, no zero row."""
    out = []
    for n in (2, 4, 8):
        mesh = fem.build_unit_square_mesh(n)
        every = np.arange(len(mesh.nodes))
        out.append(fem.assemble_laplace(fem.FeSpace(fem.SCALAR_P1, mesh, every, every), 1.0))
    return out


def indefinite_r():
    sys = PhDae(np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]), np.ones((2, 1)),
                validate=False)
    return [sys.csr.R, phdae.dissipation_matrix(sys)]


def lost_dissipativity():
    qs = built_systems(2)["quasi_static"]
    ops, _ = make_network_ops(2, m=2)
    network = interconnect.couple_network(ops, random_coupling(np.random.default_rng(6), 2))
    return [interconnect.close_loop(sys, FeedbackLaw(np.eye(sys.input_dim))).csr.R
            for sys in (qs, network)]


PSD_CASES = {
    **{f"oversized_flow_{n}": (lambda n=n: oversized_flow(n)) for n in (4, 8, 16, 32)},
    "oversized_nonsymmetric_flow": lambda: oversized_flow(8, symmetric=False),
    "indefinite_r": indefinite_r,
    "feedback_that_loses_dissipativity": lost_dissipativity,
    "rank_deficient_grams": rank_deficient_grams,
    "laplacian_with_kernel": full_laplacians,
    "zero_rows": lambda: [formulations.build_quasi_static(make_ops(4, rho=0.0)).csr.E,
                          dae_analysis.nonaugmented_quasi_static_pencil(make_ops(3, rho=0.0))[0]],
    "no_stored_entries": lambda: [np.zeros((3, 3)), csr_array((5, 5)), csr_array((1, 1))],
}


@pytest.mark.parametrize("case", list(PSD_CASES))
def test_psd_check_agrees_with_the_dense_oracle(case):
    for M in PSD_CASES[case]():
        got = numkit.psd_check(M, require_symmetric=False)
        want = oracle.dense_psd_check(M, require_symmetric=False)
        assert (got.verdict, got.max_asymmetry) == (want.verdict, want.max_asymmetry), case
        error = abs(got.min_eigenvalue - want.min_eigenvalue)
        assert error <= max(1e-8 * abs(want.min_eigenvalue),
                            1e-12 * (1.0 + numkit.max_abs(M))), case
        if case.startswith(("oversized", "indefinite", "feedback")):
            assert got.verdict == numkit.INDEFINITE, case
