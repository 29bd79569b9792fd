import dataclasses

import numpy as np
import pytest

from phporo import formulations, interconnect, numkit, phdae
from phporo.interconnect import FeedbackLaw
from phporo.numkit import StructureError
from phporo.phdae import PhDae

from conftest import make_material, make_network_ops, make_ops


def empty_system():
    z = np.zeros((0, 0))
    return PhDae(z, z, z, z)


class TestFeedbackLaw:
    def test_split_reconstructs(self):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((5, 5))
        law = FeedbackLaw(F)
        limit = np.spacing(np.maximum(np.abs(F), np.abs(F.T)))
        assert np.all(np.abs(law.sym + law.skew - F) <= limit)
        assert numkit.symmetry_defect(law.sym) == 0.0
        assert numkit.skew_defect(law.skew) == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            FeedbackLaw(np.zeros((2, 3)))


class TestAggregate:
    def test_with_empty_system_is_identity(self, ops2):
        sys = formulations.build_full_first_order(ops2)
        for combined in (interconnect.aggregate(sys, empty_system()),
                         interconnect.aggregate(empty_system(), sys)):
            for name in ("E", "J", "R", "G"):
                assert np.array_equal(getattr(combined, name), getattr(sys, name))

    def test_energy_is_additive(self, ops2):
        a = formulations.build_full_first_order(ops2)
        b = formulations.build_quasi_static(ops2)
        combined = interconnect.aggregate(a, b)
        rng = np.random.default_rng(1)
        for _ in range(5):
            za = rng.standard_normal(a.state_dim)
            zb = rng.standard_normal(b.state_dim)
            assert phdae.hamiltonian(combined, np.concatenate([za, zb])) == (
                pytest.approx(phdae.hamiltonian(a, za) + phdae.hamiltonian(b, zb),
                              rel=1e-14)
            )

    def test_structure_preserved(self, ops2):
        a = formulations.build_full_first_order(ops2)
        b = formulations.build_sqrt_formulation(ops2)
        assert phdae.validate_structure(interconnect.aggregate(a, b)).verdict

    def test_many_systems_equal_nested_pairs(self, ops2):
        a = formulations.build_full_first_order(ops2)
        b = formulations.build_quasi_static(ops2)
        c = formulations.build_alternative_qs(ops2)
        flat = interconnect.aggregate(a, b, c)
        nested = interconnect.aggregate(interconnect.aggregate(a, b), c)
        for name in ("E", "J", "R", "G"):
            assert np.array_equal(getattr(flat, name), getattr(nested, name))
        assert flat.state_blocks == nested.state_blocks
        assert flat.input_blocks == nested.input_blocks


class TestFeedback:
    def make_plant(self):
        E = np.eye(2)
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        G = np.array([[1.0, 0.0], [0.0, 2.0]])
        return PhDae(E, J, np.zeros((2, 2)), G)

    def test_skew_gain_keeps_r_bitwise(self):
        sys = self.make_plant()
        law = FeedbackLaw(np.array([[0.0, 0.7], [-0.7, 0.0]]))
        closed = interconnect.feedback(sys, law)
        assert np.array_equal(closed.R, sys.R)
        assert np.array_equal(closed.E, sys.E)
        assert phdae.validate_structure(closed).verdict

    def test_negative_identity_adds_gram_to_r(self):
        sys = self.make_plant()
        closed = interconnect.feedback(sys, FeedbackLaw(-np.eye(2)))
        assert np.allclose(closed.R, sys.G @ sys.G.T, atol=1e-15)

    def test_positive_gain_without_damping_rejected(self):
        sys = self.make_plant()
        with pytest.raises(StructureError) as err:
            interconnect.feedback(sys, FeedbackLaw(10.0 * np.eye(2)))
        assert "min eigenvalue" in str(err.value)

    def test_gain_size_checked(self):
        with pytest.raises(ValueError):
            interconnect.feedback(self.make_plant(), FeedbackLaw(np.eye(3)))


class TestCoupleTwoField:
    @pytest.mark.parametrize("n", [2, 3])
    def test_reproduces_direct_builder(self, n):
        ops = make_ops(n)
        dev = interconnect.coupling_deviation(
            interconnect.couple_two_field(ops),
            formulations.build_full_first_order(ops),
        )
        assert max(dev.values()) <= 1e-14

    def test_zero_coupling_leaves_aggregate(self, mesh3):
        ops = formulations.assemble_two_field(mesh3, make_material(alpha=0.0))
        coupled = interconnect.couple_two_field(ops)
        w, p = coupled.state_slice("w"), coupled.state_slice("p")
        assert not coupled.J[w, p].any()
        assert phdae.validate_structure(coupled).verdict

    def test_energy_splits_into_subsystem_parts(self, ops2):
        coupled = interconnect.couple_two_field(ops2)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(coupled.state_dim)
        w = z[coupled.state_slice("w")]
        u = z[coupled.state_slice("u")]
        p = z[coupled.state_slice("p")]
        h_solid = 0.5 * (w @ ops2.mass_rho @ w + u @ ops2.stiff_elast @ u)
        h_fluid = 0.5 * (p @ ops2.mass_storage @ p)
        assert phdae.hamiltonian(coupled, z) == pytest.approx(h_solid + h_fluid,
                                                              rel=1e-13)

    def test_rejects_networks(self):
        ops, _ = make_network_ops(2, m=2)
        with pytest.raises(ValueError):
            interconnect.couple_two_field(ops)


class TestCoupleAltQs:
    @pytest.mark.parametrize("n", [2, 3])
    def test_reproduces_direct_builder(self, n):
        ops = make_ops(n, rho=0.0)
        dev = interconnect.coupling_deviation(
            interconnect.couple_alt_qs(ops),
            formulations.build_alternative_qs(ops),
        )
        assert max(dev.values()) <= 1e-14

    def test_energy_comes_from_flux_potential_only(self, ops3):
        coupled = interconnect.couple_alt_qs(ops3)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(coupled.state_dim)
        q = z[coupled.state_slice("q")]
        assert phdae.hamiltonian(coupled, z) == pytest.approx(
            0.5 * q @ ops3.stiff_flow[0] @ q, rel=1e-13
        )

    def test_flux_potential_subsystem_is_valid(self, ops3):
        sub = interconnect._flux_potential_subsystem(ops3)
        assert phdae.validate_structure(sub).verdict

    def test_asymmetric_flow_block_fails_the_closed_loop_check(self):
        # no pre-check: the one validation of the closed loop finds the
        # asymmetry in E and the skew defect it leaves in J
        ops = make_ops(3, rho=0.0)
        K = ops.csr.stiff_flow[0].tolil()
        K[0, 1] += 1e-3
        bent = dataclasses.replace(ops, csr=ops.csr._replace(stiff_flow=(K.tocsr(),)))
        with pytest.raises(StructureError, match=r"E .*asymmetry 1\.000e-03.*J skew defect"):
            interconnect.couple_alt_qs(bent)


class TestCoupleNetwork:
    def test_single_network_matches_two_field(self, ops2):
        B = formulations.NetworkCoupling(np.zeros((1, 1)))
        a = interconnect.couple_network(ops2, B)
        b = interconnect.couple_two_field(ops2)
        for name in ("E", "J", "R", "G"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_symmetric_rates_leave_j_untouched(self):
        ops, B = make_network_ops(2, m=2, symmetric=True)
        coupled = interconnect.couple_network(ops, B)
        direct = formulations.build_network_ph(ops, B)
        pressure = slice(2 * ops.dim_u, coupled.state_dim)
        assert np.allclose(coupled.J[pressure, pressure], 0.0, atol=1e-16)
        assert np.allclose(direct.J[pressure, pressure], 0.0, atol=1e-16)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_reproduces_direct_builder(self, symmetric):
        ops, B = make_network_ops(2, m=3, symmetric=symmetric, seed=5)
        dev = interconnect.coupling_deviation(
            interconnect.couple_network(ops, B),
            formulations.build_network_ph(ops, B),
        )
        assert max(dev.values()) <= 1e-14

    def test_oversized_rates_rejected_by_feedback(self):
        ops, _ = make_network_ops(2, m=2)
        rng = np.random.default_rng(6)
        from conftest import random_coupling
        Bbig = random_coupling(rng, 2, scale=1e6, symmetric=True)
        with pytest.raises(StructureError):
            interconnect.couple_network(ops, Bbig)


@pytest.mark.parametrize("route", ["network", "two_field", "alt_qs"])
def test_each_coupled_system_is_validated_once(monkeypatch, route):
    # the subsystems and their aggregate are built unvalidated: E and R are
    # certified once, on the closed loop
    if route == "network":
        ops, B = make_network_ops(4, m=3, symmetric=False, seed=5)
        couple = lambda: interconnect.couple_network(ops, B)
    elif route == "two_field":
        ops = make_ops(4)
        couple = lambda: interconnect.couple_two_field(ops)
    else:
        ops = make_ops(4, rho=0.0)
        couple = lambda: interconnect.couple_alt_qs(ops)
    calls = []
    certify = numkit.psd_certificate
    monkeypatch.setattr(numkit, "psd_certificate",
                        lambda *args, **kwargs: calls.append(1) or certify(*args, **kwargs))
    couple()
    assert len(calls) == 2


ROUTES = ["two_field", "alt_qs"] + [f"network_{m}_{kind}" for m in (2, 3)
                                    for kind in ("symmetric", "nonsymmetric")]


def coupled_and_direct(route, n):
    """The coupled system of a route and its direct builder's system."""
    if route == "two_field":
        ops = make_ops(n)
        return interconnect.couple_two_field(ops), formulations.build_full_first_order(ops)
    if route == "alt_qs":
        ops = make_ops(n, rho=0.0)
        return interconnect.couple_alt_qs(ops), formulations.build_alternative_qs(ops)
    _, m, kind = route.split("_")
    ops, B = make_network_ops(n, m=int(m), symmetric=kind == "symmetric", seed=5)
    return interconnect.couple_network(ops, B), formulations.build_network_ph(ops, B)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("route", ROUTES)
def test_coupled_system_equals_direct_builder(route, n):
    coupled, direct = coupled_and_direct(route, n)
    for name in ("E", "J", "R"):
        assert np.array_equal(getattr(coupled, name), getattr(direct, name))
    labels = np.repeat([name for name, _ in coupled.input_blocks],
                       [size for _, size in coupled.input_blocks])
    assert np.array_equal(coupled.G[:, labels != interconnect.COUPLING_PORT], direct.G)
    assert set(interconnect.coupling_deviation(coupled, direct).values()) == {0.0}


def test_couplings_factor_no_matrix(monkeypatch):
    ops, qs = make_ops(3), make_ops(3, rho=0.0)
    net_ops, B = make_network_ops(3, m=2, symmetric=False)

    def refuse(*args, **kwargs):
        raise AssertionError("a coupling solved a linear system")

    monkeypatch.setattr(numkit, "Factorization", refuse)
    monkeypatch.setattr(numkit, "solve", refuse)
    # the certificates factor through lu_factor, so validation still runs
    for coupled in (interconnect.couple_two_field(ops), interconnect.couple_alt_qs(qs),
                    interconnect.couple_network(net_ops, B)):
        assert phdae.validate_structure(coupled).verdict
