import numpy as np
import pytest
from hypothesis import settings

from phporo import dae_analysis, fem, formulations

# Property tests draw the same bounded set of examples on every run.
settings.register_profile("phporo", derandomize=True, max_examples=200, deadline=None,
                          database=None)
settings.load_profile("phporo")


def make_material(rho=1.0, mu=1.0, lam=1.0, alpha=1.0, biot_M=1.0, kappa=1.0, nu=1.0):
    return fem.PoroMaterial(rho=rho, mu=mu, lam=lam, alpha=alpha,
                            biot_M=biot_M, kappa=kappa, nu=nu)


def make_ops(n=2, rho=1.0, **kwargs):
    mesh = fem.build_unit_square_mesh(n)
    return formulations.assemble_two_field(mesh, make_material(rho=rho, **kwargs))


def make_network_ops(n=2, m=2, rho=0.0, seed=0, symmetric=True, scale=0.02, **kwargs):
    """Network bundle with per-network coefficients and a small random
    coupling; ``kwargs`` are material fields shared by every network."""
    rng = np.random.default_rng(seed)
    mesh = fem.build_unit_square_mesh(n)
    mats = [make_material(rho=rho, alpha=0.3 + 0.2 * i, kappa=0.5 + 0.5 * i,
                          nu=1.0 + 0.25 * i, **kwargs) for i in range(m)]
    B = random_coupling(rng, m, scale=scale, symmetric=symmetric)
    return formulations.assemble_network(mesh, mats, B), B


def random_coupling(rng, m, scale=0.02, symmetric=True):
    """Exchange matrix with positive off-diagonal rates and zero row sums."""
    off = rng.uniform(0.0, scale, size=(m, m))
    if symmetric:
        off = 0.5 * (off + off.T)
    return formulations.NetworkCoupling.from_exchange_rates(off)


def linear_data(ops, seed=0, slope=0.2):
    """Nodal-density input with vanishing second time derivative.

    Returns (v, f, fdot, g): the stacked input signal and the assembled load
    callables that the consistency machinery expects.
    """
    rng = np.random.default_rng(seed)
    du = ops.dim_u
    mdp = ops.networks * ops.dim_p
    cu = rng.uniform(-0.5, 0.5, du)
    cg = rng.uniform(-0.5, 0.5, mdp)
    mp = formulations.blocked_unit_mass(ops)

    def v(t):
        return np.concatenate([cu * (1.0 + slope * t), cg * (0.5 - 0.5 * slope * t)])

    f = lambda t: ops.mass_u @ (cu * (1.0 + slope * t))
    fdot = lambda t: ops.mass_u @ (cu * slope)
    g = lambda t: mp @ (cg * (0.5 - 0.5 * slope * t))
    return v, f, fdot, g


def consistent_state(ops, p0, f, fdot, g, coupling=None):
    """Stacked (w0, u0, p0) start for the first-order formulations."""
    w0, u0 = dae_analysis.consistent_initialization(
        ops, p0, f(0.0), fdot(0.0), g(0.0), coupling
    )
    return np.concatenate([w0, u0, np.asarray(p0, float)])


@pytest.fixture(scope="session")
def mesh2():
    return fem.build_unit_square_mesh(2)


@pytest.fixture(scope="session")
def mesh3():
    return fem.build_unit_square_mesh(3)


@pytest.fixture(scope="session")
def ops2():
    return make_ops(2)


@pytest.fixture(scope="session")
def ops3():
    return make_ops(3)


@pytest.fixture(scope="session")
def ops3_qs():
    return make_ops(3, rho=0.0)
