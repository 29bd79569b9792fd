"""Command-line front end: check | simulate | compare | export.

Scenarios are flat JSON documents (see README for the schema).  Source
densities are sums of separable terms c * x^ax * y^ay * T(omega t) with
T in {const, sin, cos}, so their time derivatives are available in closed
form wherever the machinery needs them (Schur reduction, consistent
initialization).  Every signal made from them is a
``formulations.SeparableSignal``, which the stepper samples once per block
of steps.

Exit codes: 0 all checks pass, 1 numerical or structural failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import dataclass

import numpy as np

from . import dae_analysis, fem, formulations, interconnect, numkit, phdae, timeint
from .fem import BoundViolationError, PoroMaterial
from .formulations import FORMULATION_TAGS, DiscreteOperators, NetworkCoupling
from .numkit import SingularMatrixError, StructureError
from .phdae import InconsistentStateError, PhDae


class ScenarioError(ValueError):
    """Invalid scenario configuration (exit code 2)."""


_NUMERICAL_ERRORS = (StructureError, SingularMatrixError, InconsistentStateError,
                     BoundViolationError)

# Rows of the one dense matrix a sqrt (root S of K_A) or schur_parabolic (reduced mass) run
# forms; `check` just below the cap peaks at 2012 MB (sqrt, n = 46), 1518 MB (schur, n = 65).
DENSE_ROWS_CAP = 4096


# ---------------------------------------------------------------------------
# Source-term grammar
# ---------------------------------------------------------------------------

_TIME_KINDS = ("const", "sin", "cos")


@dataclass(frozen=True)
class SourceTerm:
    """One separable term c * x^ax * y^ay * T(omega t)."""

    c: float
    ax: int = 0
    ay: int = 0
    time: str = "const"
    omega: float = 1.0
    component: int = 0

    def __post_init__(self):
        if self.time not in _TIME_KINDS:
            raise ScenarioError(f"unknown time factor {self.time!r}, want one of {_TIME_KINDS}")
        if self.ax < 0 or self.ay < 0:
            raise ScenarioError("polynomial exponents must be non-negative")
        if self.component not in (0, 1):
            raise ScenarioError("component must be 0 (x) or 1 (y)")

    def spatial(self, x, y):
        """Spatial factor c * x^ax * y^ay; x and y may be arrays."""
        return self.c * x**self.ax * y**self.ay

    def time_factor(self, t):
        """T(omega t); t may be an array of times."""
        if self.time == "sin":
            return np.sin(self.omega * t)
        if self.time == "cos":
            return np.cos(self.omega * t)
        return np.ones_like(t, dtype=float)

    def value(self, x: float, y: float, t: float) -> float:
        return self.spatial(x, y) * self.time_factor(t)

    def time_derivative(self) -> "SourceTerm":
        if self.time == "sin":
            return SourceTerm(self.c * self.omega, self.ax, self.ay, "cos",
                              self.omega, self.component)
        if self.time == "cos":
            return SourceTerm(-self.c * self.omega, self.ax, self.ay, "sin",
                              self.omega, self.component)
        return SourceTerm(0.0, self.ax, self.ay, "const", self.omega, self.component)


def _parse_terms(raw, where: str) -> tuple[SourceTerm, ...]:
    if raw is None:
        return ()
    terms = []
    for entry in raw:
        try:
            terms.append(SourceTerm(
                c=float(entry.get("c", 0.0)),
                ax=int(entry.get("ax", 0)),
                ay=int(entry.get("ay", 0)),
                time=entry.get("time", "const"),
                omega=float(entry.get("omega", 1.0)),
                component=int(entry.get("component", 0)),
            ))
        except (TypeError, ValueError, AttributeError) as exc:
            raise ScenarioError(f"malformed source term in {where}: {entry!r} ({exc})") from exc
    return tuple(terms)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    mesh_n: int
    formulation: str
    materials: tuple
    exchange: NetworkCoupling | None
    t_end: float
    steps: int
    integrator: str
    source_f: tuple            # displacement source terms (component-tagged)
    source_g: tuple            # per-network tuples of pressure source terms
    initial_pressure: tuple    # per-network tuples of spatial terms
    route: str = "direct"
    tol: float | None = None

    @property
    def networks(self) -> int:
        return len(self.materials)

    def zero_input(self) -> bool:
        return all(term.c == 0.0 for term in self.source_f + sum(self.source_g, ()))


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document; any malformed value is a ``ScenarioError``."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    try:
        return _parse_document(doc)
    except ScenarioError:
        raise
    except (TypeError, ValueError, AttributeError, LookupError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _per_network(doc: dict, key: str, m: int) -> tuple:
    """The source terms of ``key``, one tuple per network: a flat list is one
    network's, and a missing key gives m empty tuples."""
    lists = doc.get(key) or []
    if lists and not isinstance(lists[0], list):
        lists = [lists]
    parsed = tuple(_parse_terms(terms, key) for terms in lists)
    if parsed and len(parsed) != m:
        raise ScenarioError(f"{key} must list terms for each of the {m} networks")
    return parsed or tuple(() for _ in range(m))


def _parse_document(doc: dict) -> Scenario:
    try:
        mesh_n = int(doc["mesh_n"])
        formulation = str(doc["formulation"])
        raw_mats = doc["materials"]
    except KeyError as exc:
        raise ScenarioError(f"scenario is missing required key {exc}") from exc
    if formulation not in FORMULATION_TAGS:
        raise ScenarioError(f"unknown formulation {formulation!r}, want one of {FORMULATION_TAGS}")
    if mesh_n < 1:
        raise ScenarioError("mesh_n must be >= 1")
    materials = tuple(PoroMaterial(**{k: float(v) for k, v in m.items()}) for m in raw_mats)
    if not materials:
        raise ScenarioError("at least one material is required")

    m = len(materials)
    exchange = None
    if doc.get("exchange_matrix") is not None:
        exchange = NetworkCoupling(np.asarray(doc["exchange_matrix"], dtype=float))
        if exchange.size != m:
            raise ScenarioError("exchange matrix dimension must match the material count")

    if formulation == "network":
        if m < 2 or exchange is None:
            raise ScenarioError("the network formulation needs >= 2 materials and exchange_matrix")
    elif formulation in ("full", "sqrt"):
        if m != 1:
            raise ScenarioError(f"the {formulation} formulation is single-network")
    elif m > 1 and exchange is None:
        raise ScenarioError("multi-network scenarios need exchange_matrix")
    if formulation == "alt_qs" and m > 1 and exchange is not None and not exchange.is_symmetric:
        raise ScenarioError("alt_qs with several networks needs a symmetric exchange matrix")
    dense_rows = {"sqrt": 2, "schur_parabolic": m}.get(formulation, 0) * (mesh_n - 1) ** 2
    if dense_rows > DENSE_ROWS_CAP:
        raise ScenarioError(f"{formulation} at mesh_n = {mesh_n} forms a dense matrix of "
                            f"{dense_rows} rows, above DENSE_ROWS_CAP = {DENSE_ROWS_CAP}")

    source_g, initial_pressure = (_per_network(doc, key, m)
                                  for key in ("source_g", "initial_pressure"))

    route = str(doc.get("route", "direct"))
    if route not in ("direct", "coupled"):
        raise ScenarioError("route must be 'direct' or 'coupled'")
    if route == "coupled" and formulation not in ("full", "alt_qs", "network"):
        raise ScenarioError(f"the coupled route is not defined for {formulation!r}")
    if route == "coupled" and formulation == "alt_qs" and m > 1:
        raise ScenarioError("the coupled alt_qs route is single-network")

    integrator = str(doc.get("integrator", "midpoint"))
    if integrator not in ("midpoint", "euler"):
        raise ScenarioError("integrator must be 'midpoint' or 'euler'")

    steps = int(doc.get("steps", 100))
    t_end = float(doc.get("t_end", 1.0))
    if steps < 1 or t_end <= 0:
        raise ScenarioError("steps must be >= 1 and t_end > 0")
    tol = None if doc.get("tol") is None else float(doc["tol"])
    if not (tol is None or 0.0 <= tol < np.inf):
        raise ScenarioError(f"tol must be a finite number >= 0, got {tol}")

    return Scenario(
        mesh_n=mesh_n,
        formulation=formulation,
        materials=materials,
        exchange=exchange,
        t_end=t_end,
        steps=steps,
        integrator=integrator,
        source_f=_parse_terms(doc.get("source_f"), "source_f"),
        source_g=source_g,
        initial_pressure=initial_pressure,
        route=route,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Scenario -> operators, system, signals, initial state
# ---------------------------------------------------------------------------

def build_operators(scn: Scenario) -> DiscreteOperators:
    mesh = fem.build_unit_square_mesh(scn.mesh_n)
    if scn.networks == 1:
        return formulations.assemble_two_field(mesh, scn.materials[0])
    return formulations.assemble_network(mesh, scn.materials, scn.exchange)


def build_system(scn: Scenario, ops: DiscreteOperators):
    """Return the PhDae (or ParabolicReduction) selected by the scenario."""
    coupling = scn.exchange if scn.networks > 1 else None
    if scn.route == "coupled":
        if scn.formulation == "full":
            return interconnect.couple_two_field(ops)
        if scn.formulation == "alt_qs":
            return interconnect.couple_alt_qs(ops)
        return interconnect.couple_network(ops, scn.exchange)
    if scn.formulation == "full":
        return formulations.build_full_first_order(ops)
    if scn.formulation == "sqrt":
        return formulations.build_sqrt_formulation(ops)
    if scn.formulation == "quasi_static":
        return formulations.build_quasi_static(ops, coupling)
    if scn.formulation == "alt_qs":
        return formulations.build_alternative_qs(ops, coupling)
    if scn.formulation == "network":
        return formulations.build_network_ph(ops, scn.exchange)
    f, fdot, g = load_signals(scn, ops)
    return formulations.schur_reduce_parabolic(ops, f, fdot, g, coupling)


def _spatial_parts(space, blocks, size: int, offset: int = 0) -> list:
    """(term, vector) for every source term: the term's spatial factor at the
    free nodes of ``space``, placed in a zero vector of length ``size``.

    ``blocks`` holds one tuple of terms per stacked block of free-node values;
    the first block starts at ``offset``.
    """
    nodes = space.mesh.nodes[space.free_nodes]
    n = len(nodes)
    parts = []
    for b, terms in enumerate(blocks):
        start = offset + b * n
        for term in terms:
            vec = np.zeros(size)
            vec[start : start + n] = term.spatial(nodes[:, 0], nodes[:, 1])
            parts.append((term, vec))
    return parts


def _separable_signal(parts, size: int) -> formulations.SeparableSignal:
    """The sum of time_factor(t) * vector over the (term, vector) parts."""
    vectors = np.array([vec for _, vec in parts]).reshape(len(parts), size)
    return formulations.SeparableSignal(tuple(term.time_factor for term, _ in parts), vectors)


def _by_component(terms) -> tuple:
    return tuple(tuple(t for t in terms if t.component == c) for c in (0, 1))


def input_signal(scn: Scenario, ops: DiscreteOperators, system: PhDae):
    """Nodal-density input stacked according to the system's input blocks."""
    size = system.input_dim
    parts = []
    offset = network = 0
    for name, block_size in system.input_blocks:
        if name == "f":
            parts += _spatial_parts(ops.vspace, _by_component(scn.source_f), size, offset)
        elif name == "g":
            count = block_size // ops.dim_p if ops.dim_p else 0
            parts += _spatial_parts(ops.qspace, scn.source_g[network : network + count],
                                    size, offset)
            network += count
        offset += block_size
    return _separable_signal(parts, size)


def load_signals(scn: Scenario, ops: DiscreteOperators):
    """Assembled load vectors f(t), fdot(t), g(t) for the reduction machinery."""
    du, mdp = ops.dim_u, ops.networks * ops.dim_p
    rates = tuple(t.time_derivative() for t in scn.source_f)
    mp = formulations.blocked_unit_mass(ops)

    def load(M, parts, size):
        return _separable_signal([(term, M @ vec) for term, vec in parts], size)

    return (
        load(ops.csr.mass_u, _spatial_parts(ops.vspace, _by_component(scn.source_f), du), du),
        load(ops.csr.mass_u, _spatial_parts(ops.vspace, _by_component(rates), du), du),
        load(mp, _spatial_parts(ops.qspace, scn.source_g, mdp), mdp),
    )


def initial_pressure_vector(scn: Scenario, ops: DiscreteOperators) -> np.ndarray:
    size = len(scn.initial_pressure) * ops.dim_p
    return _separable_signal(_spatial_parts(ops.qspace, scn.initial_pressure, size), size)(0.0)


def initial_state(scn: Scenario, ops: DiscreteOperators, system) -> np.ndarray:
    """Consistent initial state for the scenario's formulation."""
    coupling = scn.exchange if scn.networks > 1 else None
    p0 = initial_pressure_vector(scn, ops)
    if scn.formulation == "schur_parabolic":
        return p0
    f, fdot, g = load_signals(scn, ops)
    if scn.formulation == "alt_qs":
        u0, q0 = formulations.alternative_qs_initialization(ops, p0, f(0.0), coupling)
        return np.concatenate([u0, p0, q0])
    w0, u0 = dae_analysis.consistent_initialization(
        ops, p0, f(0.0), fdot(0.0), g(0.0), coupling
    )
    if scn.formulation == "sqrt":
        u0 = _square_root(system) @ u0
    return np.concatenate([w0, u0, p0])


def _square_root(system: PhDae) -> np.ndarray:
    """The root S of K_A that ``build_sqrt_formulation`` put into J."""
    return system.csr.J[system.state_slice("u"), system.state_slice("w")].toarray()


def time_grid(scn: Scenario) -> np.ndarray:
    return np.linspace(0.0, scn.t_end, scn.steps + 1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _checked_system(scn: Scenario, ops: DiscreteOperators):
    """The scenario's descriptor system with its structure and index reports."""
    system = build_system(scn, ops)
    if isinstance(system, formulations.ParabolicReduction):
        system = system.as_phdae()
    return (system, phdae.validate_structure(system, tol=scn.tol),
            dae_analysis.classify_phdae_index(system))


def cmd_check(scn: Scenario) -> tuple[dict, int]:
    ops = build_operators(scn)
    report: dict = {"formulation": scn.formulation, "route": scn.route}
    ok = True
    if scn.networks > 1:
        ell = formulations.check_network_ellipticity(ops, scn.exchange)
        report["ellipticity"] = ell.to_dict()
        ok = ok and ell.elliptic
    try:
        system, structure, index = _checked_system(scn, ops)
    except _NUMERICAL_ERRORS as exc:
        report["error"] = str(exc)
        report["pass"] = False
        return report, 1
    report["structure"] = structure.to_dict()
    report["index"] = index.to_dict()
    ok = ok and structure.verdict
    report["pass"] = ok
    return report, 0 if ok else 1


def cmd_simulate(scn: Scenario, out_path: str) -> tuple[dict, int]:
    _, traj = _run(scn, build_operators(scn))
    traj.to_csv(out_path)
    residual = float(np.max(traj.balance_residuals())) if scn.steps else 0.0
    summary = {
        "out": out_path,
        "steps": scn.steps,
        "formulation": scn.formulation,
        "max_power_balance_residual": residual,
        "hamiltonian_monotone": traj.hamiltonian_nonincreasing() if scn.zero_input() else None,
        "final_hamiltonian": float(traj.hamiltonian[-1]),
    }
    return summary, 0


_TRAJECTORY_PAIRS = {
    frozenset(("full", "sqrt")),
    frozenset(("quasi_static", "schur_parabolic")),
    frozenset(("quasi_static", "alt_qs")),
    frozenset(("full", "quasi_static")),
}


def _run(scn: Scenario, ops: DiscreteOperators):
    """Build the scenario's system and integrate it from its consistent start."""
    integrate = (timeint.integrate_midpoint if scn.integrator == "midpoint"
                 else timeint.integrate_euler)
    system = build_system(scn, ops)
    if isinstance(system, formulations.ParabolicReduction):
        signal = system.input_signal
        system = system.as_phdae()
    else:
        signal = input_signal(scn, ops, system)
    z0 = initial_state(scn, ops, system)
    return system, integrate(system, z0, signal, time_grid(scn))


def _pressure_block(system: PhDae, traj: timeint.Trajectory) -> np.ndarray:
    return traj.states[:, system.state_slice("p")]


def cmd_compare(first: Scenario, second: Scenario) -> tuple[dict, int]:
    if first.mesh_n != second.mesh_n:
        raise ScenarioError("compared scenarios must share mesh_n")
    report: dict = {"pair": [first.formulation + ":" + first.route,
                             second.formulation + ":" + second.route]}

    if first.formulation == second.formulation and {first.route, second.route} == {"direct", "coupled"}:
        direct_scn, coupled_scn = (first, second) if first.route == "direct" else (second, first)
        ops = build_operators(direct_scn)
        dev = interconnect.coupling_deviation(
            build_system(coupled_scn, ops), build_system(direct_scn, ops)
        )
        report["matrix_deviation"] = dev
        report["max_matrix_deviation"] = max(dev.values())
        return report, 0

    pair = frozenset((first.formulation, second.formulation))
    if first.route != "direct" or second.route != "direct" or pair not in _TRAJECTORY_PAIRS:
        raise ScenarioError(
            f"formulations {first.formulation!r} and {second.formulation!r} are not comparable"
        )
    if (first.steps, first.t_end, first.integrator) != (second.steps, second.t_end,
                                                        second.integrator):
        raise ScenarioError("compared scenarios must share the time grid and the integrator")

    by_tag = {first.formulation: first, second.formulation: second}
    if pair == frozenset(("full", "sqrt")):
        if by_tag["full"].materials != by_tag["sqrt"].materials:
            raise ScenarioError("the full/sqrt comparison needs identical materials")
        ops = build_operators(by_tag["full"])
        sys_full, traj_full = _run(by_tag["full"], ops)
        sys_sqrt, traj_sqrt = _run(by_tag["sqrt"], ops)
        S = _square_root(sys_sqrt)
        mapped = traj_full.states.copy()
        u = sys_full.state_slice("u")
        mapped[:, u] = traj_full.states[:, u] @ S.T
        report["max_state_deviation"] = float(np.max(np.abs(mapped - traj_sqrt.states)))
        report["max_pressure_deviation"] = float(np.max(np.abs(
            _pressure_block(sys_full, traj_full) - _pressure_block(sys_sqrt, traj_sqrt)
        )))
        return report, 0

    runs = {tag: _run(scn, build_operators(scn)) for tag, scn in by_tag.items()}
    if pair == frozenset(("quasi_static", "alt_qs")):
        devs = []
        for label in ("u", "p"):
            blocks = [traj.states[:, system.state_slice(label)]
                      for system, traj in (runs["quasi_static"], runs["alt_qs"])]
            devs.append(float(np.max(np.abs(blocks[0] - blocks[1]))))
        report["max_state_deviation"] = max(devs)
        report["max_pressure_deviation"] = devs[1]
        return report, 0
    tags = tuple(pair)
    p_blocks = [_pressure_block(*runs[tag]) for tag in (tags[0], tags[1])]
    report["max_pressure_deviation"] = float(np.max(np.abs(p_blocks[0] - p_blocks[1])))
    return report, 0


def cmd_export(scn: Scenario, out_dir: str) -> tuple[dict, int]:
    ops = build_operators(scn)
    system, structure, index = _checked_system(scn, ops)
    phdae.save_phdae(system, out_dir, tol=scn.tol)
    blocks = {name: getattr(ops.csr, name)
              for name in ("mass_rho", "stiff_elast", "mass_storage", "mass_p", "mass_u")}
    for i, (K, D) in enumerate(zip(ops.csr.stiff_flow, ops.csr.div_coupling)):
        blocks[f"stiff_flow_{i}"] = K
        blocks[f"div_coupling_{i}"] = D
    for name, M in blocks.items():
        numkit.write_matrix_market(os.path.join(out_dir, f"{name}.mtx"), M)
    manifest = {
        "formulation": scn.formulation,
        "route": scn.route,
        "mesh_n": scn.mesh_n,
        "networks": scn.networks,
        "state_dim": system.state_dim,
        "input_dim": system.input_dim,
        "operator_blocks": sorted(blocks),
        "checks": {"structure": structure.to_dict(), "index": index.to_dict()},
    }
    with open(os.path.join(out_dir, "scenario_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"out": out_dir, "state_dim": system.state_dim,
            "input_dim": system.input_dim, "pass": structure.verdict}, 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config {path} is not valid JSON: {exc}") from exc


def _apply_overrides(doc: dict, args) -> dict:
    """doc with the command-line overrides; anything but an object is left
    for ``parse_scenario`` to reject."""
    if args.tol is None or not isinstance(doc, dict):
        return doc
    return dict(doc, tol=args.tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phporo",
        description="Structure checks, simulations and comparisons for poroelastic descriptor systems.",
    )
    parser.add_argument("command", choices=("check", "simulate", "compare", "export"))
    parser.add_argument("--config", required=True, help="path to the scenario JSON file")
    parser.add_argument("--out", default=None, help="output CSV path or export directory")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance of the reported check (check and export only)")
    args = parser.parse_args(argv)

    try:
        if args.tol is not None and args.command not in ("check", "export"):
            raise ScenarioError("--tol applies only to check and export")
        doc = _load_config(args.config)
        if args.command == "compare":
            if not isinstance(doc, dict) or "first" not in doc or "second" not in doc:
                raise ScenarioError("compare configs need 'first' and 'second' scenarios")
            first = parse_scenario(doc["first"])
            second = parse_scenario(doc["second"])
            report, code = cmd_compare(first, second)
        else:
            scn = parse_scenario(_apply_overrides(doc, args))
            if args.command == "check":
                report, code = cmd_check(scn)
            elif args.command == "simulate":
                out = args.out or "trajectory.csv"
                report, code = cmd_simulate(scn, out)
            else:
                out = args.out or "export"
                report, code = cmd_export(scn, out)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 1
    except OSError as exc:
        print(f"io failure: {exc}", file=_sys.stderr)
        return 1

    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
