"""Separable input signals: block sampling, the separable Schur input and the
work a CLI run saves with them.

``formulations.SeparableSignal`` samples sum_k tau_k(t) b_k at many times in
one call; its rows must be the bits of its per-time calls and of the
per-time closure in ``oracle.separable_closure``.  The Schur reduction of
separable loads is itself separable, so a stepped run samples once per block
and never solves with the elastic factor again.
"""

import collections

import numpy as np
import pytest

from phporo import cli, formulations, numkit, timeint
from phporo.cli import SourceTerm

import oracle
from test_cli import material_doc, scenario_doc


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


TERM_SETS = {
    "const": [SourceTerm(0.7, 1, 0)],
    "sin": [SourceTerm(-0.3, 0, 2, "sin", 2.5)],
    "cos": [SourceTerm(1.1, 1, 1, "cos", 0.75)],
    "overlapping supports": [SourceTerm(0.7, 1, 0), SourceTerm(-0.3, 0, 2, "sin", 2.5),
                             SourceTerm(1.1, 1, 1, "cos", 0.75),
                             SourceTerm(0.2, 2, 1, "sin", 13.0)],
    "zero coefficients": [SourceTerm(0.0, 1, 1, "sin", 1.3), SourceTerm(0.5, 0, 0, "cos"),
                          SourceTerm(0.4, 1, 0).time_derivative()],
    "no terms": [],
}


@pytest.mark.parametrize("kind", list(TERM_SETS))
def test_sample_rows_are_the_per_time_calls_and_the_oracle(kind):
    ops = cli.build_operators(cli.parse_scenario(scenario_doc(mesh_n=3)))
    n = ops.dim_p
    # the terms on the second of three blocks, then the first term again on the first
    terms = TERM_SETS[kind]
    parts = cli._spatial_parts(ops.qspace, [(), terms, ()], 3 * n)
    parts += cli._spatial_parts(ops.qspace, [terms[:1]], 3 * n)
    signal = cli._separable_signal(parts, 3 * n)
    reference = oracle.separable_closure(parts, 3 * n)
    times = np.concatenate([[0.0, -0.25], np.random.default_rng(3).uniform(0.0, 40.0, 61)])
    table = signal.sample(times)
    assert table.shape == (len(times), 3 * n)
    assert same_bits(table, [signal(t) for t in times])
    assert same_bits(table, [reference(t) for t in times])
    assert same_bits(signal.sample(times[:0]), np.zeros((0, 3 * n)))


def test_signal_tables_are_read_only_and_checked():
    signal = formulations.SeparableSignal([np.cos], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        signal.vectors[0, 0] = 3.0
    with pytest.raises(ValueError):
        formulations.SeparableSignal((np.cos,), np.zeros((2, 3)))
    assert same_bits(formulations.SeparableSignal((), np.zeros((0, 4)))(0.5), np.zeros(4))


def schur_reduction(f_times):
    """The reduction of a scenario with two displacement load terms of the
    given time kinds, and the same reduction from opaque load callables."""
    doc = scenario_doc(mesh_n=3, formulation="schur_parabolic",
                       materials=[material_doc(rho=0.0)],
                       source_f=[{"c": 0.4, "ax": 1, "ay": 0, "component": 0,
                                  "time": f_times[0], "omega": 2.0},
                                 {"c": -0.7, "ax": 0, "ay": 1, "component": 1,
                                  "time": f_times[1], "omega": 1.5}],
                       source_g=[[{"c": 0.2, "ax": 1, "ay": 1, "time": "sin", "omega": 2.5}]])
    scn = cli.parse_scenario(doc)
    ops = cli.build_operators(scn)
    red = cli.build_system(scn, ops)
    f, fdot, g = cli.load_signals(scn, ops)
    opaque = formulations.schur_reduce_parabolic(
        ops, f, lambda t: fdot(t), lambda t: g(t))
    return red, opaque


TIMES = np.linspace(0.0, 3.0, 13)


@pytest.mark.parametrize("f_times", [("sin", "cos"), ("cos", "sin")])
def test_separable_g_tilde_is_the_adapted_load(f_times):
    red, opaque = schur_reduction(f_times)
    assert isinstance(red.separable_input, formulations.SeparableSignal)
    assert red.input_signal is red.separable_input
    assert opaque.separable_input is None and opaque.input_signal == opaque.g_tilde
    for t in TIMES:
        got, want = red.g_tilde(t), opaque.g_tilde(t)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert same_bits(red.separable_input.sample(TIMES), [red.g_tilde(t) for t in TIMES])


def test_constant_displacement_load_gives_the_same_bits():
    red, opaque = schur_reduction(("const", "const"))
    assert same_bits([red.g_tilde(t) for t in TIMES], [opaque.g_tilde(t) for t in TIMES])


def test_no_displacement_load_leaves_the_pressure_load():
    scn = cli.parse_scenario(scenario_doc(mesh_n=3, formulation="schur_parabolic",
                                          materials=[material_doc(rho=0.0)], source_f=[]))
    red = cli.build_system(scn, cli.build_operators(scn))
    assert red.separable_input.vectors.shape == (1, red.mass.shape[0])
    assert same_bits(red.g_tilde(0.3), red.g(0.3))


def block_of(system):
    return max(1, timeint._BLOCK_VALUES // max(1, system.state_dim + system.input_dim))


def counting(monkeypatch, owner, name, log):
    """Patch owner.name to append (self, name) to log before each call."""
    method = getattr(owner, name)

    def counted(self, *args, **kwargs):
        log.append((self, name))
        return method(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
def test_cli_run_samples_once_per_block_and_never_per_time(integrator, monkeypatch):
    scn = cli.parse_scenario(scenario_doc(mesh_n=3, integrator=integrator))
    ops = cli.build_operators(scn)
    blocks = 3
    steps = 2 * block_of(cli.build_system(scn, ops)) + 3  # two whole blocks and a part
    scn = cli.parse_scenario(scenario_doc(mesh_n=3, integrator=integrator, steps=steps))
    signals, log = [], []
    make_signal = cli.input_signal
    monkeypatch.setattr(cli, "input_signal",
                        lambda *args: signals.append(make_signal(*args)) or signals[-1])
    for name in ("sample", "__call__"):
        counting(monkeypatch, formulations.SeparableSignal, name, log)
    _, traj = cli._run(scn, ops)
    assert len(traj.times) == steps + 1
    calls = collections.Counter(name for owner, name in log if owner is signals[0])
    # one sample for the start check, then one (Euler: two) per block
    assert calls == {"sample": 1 + blocks * (1 if integrator == "midpoint" else 2)}


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
def test_schur_run_makes_no_elastic_solve_once_reduced(integrator, monkeypatch):
    scn = cli.parse_scenario(scenario_doc(
        mesh_n=3, formulation="schur_parabolic", materials=[material_doc(rho=0.0)],
        integrator=integrator,
        source_f=[{"c": 0.4, "ax": 1, "ay": 0, "component": 0, "time": "cos", "omega": 2.0}]))
    reductions, log = [], []
    reduce = formulations.schur_reduce_parabolic

    def recorded(*args, **kwargs):
        reductions.append((reduce(*args, **kwargs), len(log)))
        return reductions[-1][0]

    monkeypatch.setattr(formulations, "schur_reduce_parabolic", recorded)
    counting(monkeypatch, numkit.Factorization, "solve", log)
    _, traj = cli._run(scn, cli.build_operators(scn))
    (red, built_at), = reductions
    later = [owner for owner, _ in log[built_at:]]
    assert not any(owner is red.elastic for owner in later)
    assert len(later) == scn.steps  # the step solves alone
