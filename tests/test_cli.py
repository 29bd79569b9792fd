import importlib
import inspect
import json
import pkgutil
from types import FunctionType

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import phporo
from phporo import cli, numkit, phdae, timeint
from phporo.cli import Scenario, ScenarioError, SourceTerm, parse_scenario

import oracle


def material_doc(rho=1.0, alpha=1.0, kappa=1.0, nu=1.0):
    return {"rho": rho, "mu": 1.0, "lam": 1.0, "alpha": alpha,
            "biot_M": 1.0, "kappa": kappa, "nu": nu}


def scenario_doc(**overrides):
    doc = {
        "mesh_n": 2,
        "formulation": "full",
        "materials": [material_doc()],
        "t_end": 1.0,
        "steps": 20,
        "integrator": "midpoint",
        "source_f": [{"c": 0.4, "ax": 0, "ay": 0, "component": 0, "time": "sin",
                      "omega": 2.0}],
        "source_g": [[{"c": 0.2, "ax": 1, "ay": 0, "time": "const"}]],
        "initial_pressure": [[{"c": 1.0, "ax": 0, "ay": 0}]],
    }
    doc.update(overrides)
    return doc


def network_doc(m=2, rho=0.0, scale=0.02, symmetric=True, **overrides):
    rng = np.random.default_rng(0)
    off = rng.uniform(0.0, scale, size=(m, m))
    if symmetric:
        off = 0.5 * (off + off.T)
    B = off.copy()
    np.fill_diagonal(B, 0.0)
    np.fill_diagonal(B, -B.sum(axis=1))
    doc = scenario_doc(
        formulation="network",
        materials=[material_doc(rho=rho, alpha=0.3 + 0.2 * i, kappa=0.5 + 0.5 * i)
                   for i in range(m)],
        exchange_matrix=B.tolist(),
        source_f=[],
        source_g=[],
        initial_pressure=[[{"c": 1.0 - 0.4 * i, "ax": 1, "ay": 1}] for i in range(m)],
    )
    doc.update(overrides)
    return doc


class TestSourceTerm:
    def test_value_kinds(self):
        assert SourceTerm(2.0, 1, 1, "const").value(0.5, 2.0, 7.0) == pytest.approx(2.0)
        assert SourceTerm(1.0, 0, 0, "sin", omega=2.0).value(0, 0, 0.25) == (
            pytest.approx(np.sin(0.5))
        )
        assert SourceTerm(1.0, 0, 0, "cos", omega=3.0).value(0, 0, 0.5) == (
            pytest.approx(np.cos(1.5))
        )

    def test_time_derivatives(self):
        sin_term = SourceTerm(2.0, 1, 0, "sin", omega=3.0)
        d = sin_term.time_derivative()
        assert d.time == "cos" and d.c == pytest.approx(6.0)
        cos_term = SourceTerm(2.0, 0, 0, "cos", omega=3.0)
        d = cos_term.time_derivative()
        assert d.time == "sin" and d.c == pytest.approx(-6.0)
        assert SourceTerm(5.0, 0, 0, "const").time_derivative().c == 0.0

    def test_invalid_terms_rejected(self):
        with pytest.raises(ScenarioError):
            SourceTerm(1.0, 0, 0, "tan")
        with pytest.raises(ScenarioError):
            SourceTerm(1.0, -1, 0, "const")
        with pytest.raises(ScenarioError):
            SourceTerm(1.0, 0, 0, "const", component=2)


class TestParseScenario:
    def test_minimal_document(self):
        scn = parse_scenario(scenario_doc())
        assert isinstance(scn, Scenario)
        assert scn.networks == 1 and scn.formulation == "full"

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("mesh_n"),
        lambda d: d.pop("materials"),
        lambda d: d.update(formulation="spectral"),
        lambda d: d.update(mesh_n=0),
        lambda d: d.update(steps=0),
        lambda d: d.update(integrator="rk4"),
        lambda d: d.update(route="sideways"),
        lambda d: d.update(route="coupled", formulation="sqrt"),
        lambda d: d.update(materials=[material_doc(), material_doc()]),
        lambda d: d.update(materials=[material_doc(rho=-1.0)]),
    ])
    def test_invalid_documents_rejected(self, mutate):
        doc = scenario_doc()
        mutate(doc)
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_network_needs_exchange_matrix(self):
        doc = network_doc()
        doc.pop("exchange_matrix")
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_alt_qs_network_needs_symmetric_exchange(self):
        doc = network_doc(symmetric=False, formulation="alt_qs")
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_bad_exchange_matrix_is_config_error(self):
        doc = network_doc()
        doc["exchange_matrix"] = [[0.5, 0.0], [0.0, 0.5]]
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    @pytest.mark.parametrize("key", ["source_g", "initial_pressure"])
    def test_a_flat_term_list_is_one_networks(self, key):
        doc = scenario_doc(**{key: [{"c": 0.3, "ax": 1, "ay": 2}, {"c": -1.0}]})
        assert getattr(parse_scenario(doc), key) == (
            (SourceTerm(0.3, 1, 2, "const"), SourceTerm(-1.0, 0, 0, "const")),)

    @pytest.mark.parametrize("key", ["source_g", "initial_pressure"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_a_missing_term_list_gives_m_empty_ones(self, key, m):
        doc = network_doc(m=m) if m > 1 else scenario_doc()
        doc.pop(key)
        assert getattr(parse_scenario(doc), key) == ((),) * m

    @pytest.mark.parametrize("key", ["source_g", "initial_pressure"])
    def test_a_term_list_per_network_is_required(self, key):
        doc = network_doc(m=3, **{key: [[{"c": 1.0}], [{"c": 2.0}]]})
        with pytest.raises(ScenarioError,
                           match=f"^{key} must list terms for each of the 3 networks$"):
            parse_scenario(doc)

    def test_zero_input_detection(self):
        assert parse_scenario(network_doc()).zero_input()
        assert not parse_scenario(scenario_doc()).zero_input()


class TestCheck:
    def test_full_formulation_passes(self):
        report, code = cli.cmd_check(parse_scenario(scenario_doc()))
        assert code == 0 and report["pass"]
        assert report["index"]["index"] == "0"
        assert report["structure"]["verdict"]

    def test_quasi_static_reports_high_index(self):
        doc = scenario_doc(formulation="quasi_static",
                           materials=[material_doc(rho=0.0)])
        report, code = cli.cmd_check(parse_scenario(doc))
        assert code == 0
        assert report["index"]["index"] == "at_least_2"

    def test_every_formulation_tag_checks_out(self):
        docs = [
            scenario_doc(),
            scenario_doc(formulation="sqrt"),
            scenario_doc(formulation="quasi_static", materials=[material_doc(rho=0.0)]),
            scenario_doc(formulation="alt_qs", materials=[material_doc(rho=0.0)]),
            scenario_doc(formulation="schur_parabolic", materials=[material_doc(rho=0.0)]),
            network_doc(),
        ]
        for doc in docs:
            report, code = cli.cmd_check(parse_scenario(doc))
            assert code == 0, report

    def test_oversized_exchange_rates_fail(self):
        report, code = cli.cmd_check(parse_scenario(network_doc(scale=1e6, mesh_n=3)))
        assert code == 1
        assert not report["pass"]
        assert not report["ellipticity"]["elliptic"]

    @staticmethod
    def oversized_check(tmp_path):
        cfg = tmp_path / "oversized.json"
        cfg.write_text(json.dumps(network_doc(scale=1e6, mesh_n=8)))
        return ["check", "--config", str(cfg)]

    def test_oversized_exchange_rates_need_no_dense_spectrum(self, tmp_path, capsys,
                                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigendecomposition")

        for module in (np.linalg, scipy.linalg):
            for name in ("eigh", "eigvalsh"):
                monkeypatch.setattr(module, name, refuse)
        assert cli.main(self.oversized_check(tmp_path)) == 1
        ellipticity = json.loads(capsys.readouterr().out)["ellipticity"]
        assert ellipticity["elliptic"] is False
        assert -np.inf < ellipticity["min_sym_eigenvalue"] < 0.0

    def test_oversized_exchange_rates_decide_the_flow_operator_once(self, tmp_path, capsys,
                                                                    monkeypatch):
        # the ellipticity report and the builder share one verdict
        calls = []
        real = numkit.lowest_eigenvalue
        monkeypatch.setattr(numkit, "lowest_eigenvalue",
                            lambda S: calls.append(S.shape) or real(S))
        assert cli.main(self.oversized_check(tmp_path)) == 1
        assert len(calls) == 1
        assert "exchange rates too large" in json.loads(capsys.readouterr().out)["error"]

    def test_oversized_exchange_rates_report_the_same_bytes(self, tmp_path, capsys):
        outs = []
        for _ in range(2):
            assert cli.main(self.oversized_check(tmp_path)) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("error", [ArpackNoConvergence("ARPACK error -1: No convergence",
                                                           np.zeros(0), np.zeros((0, 0))),
                                       ArpackError(-9)], ids=["no_convergence", "error"])
    @pytest.mark.parametrize("scale", [0.02, 1e6], ids=["certified", "oversized"])
    def test_arpack_failure_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch,
                                                   error, scale):
        # the certified flow operator reaches ARPACK through the ellipticity
        # constants, the oversized one through psd_check
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(numkit, "eigsh", fail)
        cfg = tmp_path / "network.json"
        cfg.write_text(json.dumps(network_doc(scale=scale, mesh_n=3)))
        assert cli.main(["check", "--config", str(cfg)]) == 1
        assert "numerical failure: definiteness undecided" in capsys.readouterr().err


class TestSimulate:
    def test_zero_scenario_stays_zero(self, tmp_path):
        doc = scenario_doc(source_f=[], source_g=[], initial_pressure=[])
        out = tmp_path / "zero.csv"
        summary, code = cli.cmd_simulate(parse_scenario(doc), str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        values = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert not values[:, 1:].any()

    def test_deterministic_output(self, tmp_path):
        doc = scenario_doc()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.cmd_simulate(parse_scenario(doc), str(a))
        cli.cmd_simulate(parse_scenario(doc), str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("doc_fn", [
        lambda: scenario_doc(mesh_n=3),
        lambda: scenario_doc(mesh_n=3, integrator="euler", source_f=[], source_g=[]),
        lambda: scenario_doc(mesh_n=3, formulation="quasi_static",
                             materials=[material_doc(rho=0.0)],
                             source_f=[{"c": 0.4, "ax": 0, "ay": 0, "component": 0,
                                        "time": "const"}]),
        lambda: network_doc(mesh_n=3),
        lambda: scenario_doc(mesh_n=3, formulation="schur_parabolic",
                             materials=[material_doc(rho=0.0)]),
    ], ids=["full_midpoint", "full_euler", "quasi_static", "network", "schur_parabolic"])
    def test_csv_bytes_match_the_repr_oracle(self, tmp_path, doc_fn):
        scn = parse_scenario(doc_fn())
        out = tmp_path / "t.csv"
        _, code = cli.cmd_simulate(scn, str(out))
        assert code == 0
        _, traj = cli._run(scn, cli.build_operators(scn))
        assert out.read_bytes() == oracle.trajectory_csv(traj)

    def test_brain_network_is_monotone(self, tmp_path):
        doc = network_doc(m=4, rho=0.0)
        out = tmp_path / "brain.csv"
        summary, code = cli.cmd_simulate(parse_scenario(doc), str(out))
        assert code == 0
        assert summary["hamiltonian_monotone"] is True
        assert summary["max_power_balance_residual"] <= 1e-11

    def test_forced_run_reports_no_monotonicity_claim(self, tmp_path):
        summary, _ = cli.cmd_simulate(parse_scenario(scenario_doc()),
                                      str(tmp_path / "f.csv"))
        assert summary["hamiltonian_monotone"] is None

    @pytest.mark.parametrize("tag", ["sqrt", "alt_qs", "schur_parabolic"])
    def test_other_formulations_run(self, tmp_path, tag):
        rho = 0.0 if tag != "sqrt" else 1.0
        doc = scenario_doc(formulation=tag, materials=[material_doc(rho=rho)])
        summary, code = cli.cmd_simulate(parse_scenario(doc), str(tmp_path / "t.csv"))
        assert code == 0
        assert summary["max_power_balance_residual"] <= 1e-11

    def test_euler_integrator_dissipates_without_input(self, tmp_path):
        doc = scenario_doc(integrator="euler", source_f=[], source_g=[])
        summary, code = cli.cmd_simulate(parse_scenario(doc), str(tmp_path / "e.csv"))
        assert code == 0
        assert summary["hamiltonian_monotone"] is True

    @pytest.mark.parametrize("doc_fn, tag", [
        (lambda: scenario_doc(route="coupled"), "full"),
        (lambda: scenario_doc(route="coupled", formulation="alt_qs",
                              materials=[material_doc(rho=0.0)]), "alt_qs"),
        (lambda: network_doc(route="coupled", mesh_n=3), "network"),
    ])
    def test_coupled_route_matches_direct_trajectory(self, tmp_path, doc_fn, tag):
        coupled_doc = doc_fn()
        direct_doc = dict(coupled_doc, route="direct")
        a, b = tmp_path / "coupled.csv", tmp_path / "direct.csv"
        _, code_a = cli.cmd_simulate(parse_scenario(coupled_doc), str(a))
        _, code_b = cli.cmd_simulate(parse_scenario(direct_doc), str(b))
        assert code_a == 0 and code_b == 0
        rows_a = np.loadtxt(a, delimiter=",", skiprows=1)
        rows_b = np.loadtxt(b, delimiter=",", skiprows=1)
        # state columns agree; the Hamiltonian column follows
        assert np.max(np.abs(rows_a[:, 4:] - rows_b[:, 4:])) <= 1e-10


class TestCompare:
    def test_direct_vs_coupled(self):
        first = parse_scenario(scenario_doc())
        second = parse_scenario(scenario_doc(route="coupled"))
        report, code = cli.cmd_compare(first, second)
        assert code == 0
        assert report["max_matrix_deviation"] <= 1e-14

    def test_quasi_static_vs_schur(self):
        base = dict(mesh_n=3, steps=50,
                    materials=[material_doc(rho=0.0)],
                    source_f=[{"c": 0.2, "ax": 1, "ay": 0, "component": 1,
                               "time": "const"}])
        first = parse_scenario(scenario_doc(formulation="quasi_static", **base))
        second = parse_scenario(scenario_doc(formulation="schur_parabolic", **base))
        report, code = cli.cmd_compare(first, second)
        assert code == 0
        assert report["max_pressure_deviation"] <= 1e-8

    def test_full_vs_sqrt(self):
        first = parse_scenario(scenario_doc())
        second = parse_scenario(scenario_doc(formulation="sqrt"))
        report, code = cli.cmd_compare(first, second)
        assert code == 0
        assert report["max_state_deviation"] <= 1e-9

    def test_full_vs_quasi_static_limit_study(self):
        # three compare invocations with shrinking density reproduce the
        # quasi-static limit
        base = dict(mesh_n=3, steps=50,
                    source_f=[{"c": 0.2, "ax": 1, "ay": 0, "component": 1,
                               "time": "const"}])
        second = parse_scenario(scenario_doc(formulation="quasi_static",
                                             materials=[material_doc(rho=0.0)], **base))
        devs = []
        for rho in (1e-2, 1e-4, 1e-6):
            first = parse_scenario(scenario_doc(materials=[material_doc(rho=rho)],
                                                **base))
            report, code = cli.cmd_compare(first, second)
            assert code == 0
            devs.append(report["max_pressure_deviation"])
        assert devs[0] > devs[1] > devs[2] > 0.0

    def test_incomparable_pair_rejected(self):
        first = parse_scenario(scenario_doc())
        second = parse_scenario(scenario_doc(formulation="alt_qs",
                                             materials=[material_doc(rho=0.0)]))
        with pytest.raises(ScenarioError):
            cli.cmd_compare(first, second)

    def test_mismatched_meshes_rejected(self):
        first = parse_scenario(scenario_doc())
        second = parse_scenario(scenario_doc(mesh_n=3, formulation="sqrt"))
        with pytest.raises(ScenarioError):
            cli.cmd_compare(first, second)


class TestExport:
    def test_round_trip_preserves_structure(self, tmp_path):
        out = tmp_path / "export"
        report, code = cli.cmd_export(parse_scenario(scenario_doc()), str(out))
        assert code == 0 and report["pass"]
        loaded = phdae.load_phdae(out)
        assert phdae.validate_structure(loaded).verdict
        J = numkit.read_matrix_market(out / "J.mtx")
        assert numkit.is_skew(J, 1e-12 * (1.0 + np.max(np.abs(J))))
        manifest = json.loads((out / "scenario_manifest.json").read_text())
        assert manifest["state_dim"] == loaded.state_dim
        assert manifest["input_dim"] == loaded.input_dim
        assert (out / "stiff_flow_0.mtx").exists()


# where a scenario number sits in ``scenario_doc``: the value is written there
NUMBER_KEYS = {
    "t_end": lambda doc: (doc, "t_end"),
    "steps": lambda doc: (doc, "steps"),
    "mesh_n": lambda doc: (doc, "mesh_n"),
    "source_f.c": lambda doc: (doc["source_f"][0], "c"),
    "source_f.omega": lambda doc: (doc["source_f"][0], "omega"),
    "source_g.c": lambda doc: (doc["source_g"][0][0], "c"),
    "source_g.omega": lambda doc: (doc["source_g"][0][0], "omega"),
    "initial_pressure.c": lambda doc: (doc["initial_pressure"][0][0], "c"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", list(NUMBER_KEYS))
def test_a_non_finite_scenario_number_is_a_configuration_error(tmp_path, capsys, key, value):
    # such a run used to die with a traceback (t_end) or print NaN, which is
    # not JSON, into its summary (c, omega)
    doc = scenario_doc()
    entry, name = NUMBER_KEYS[key](doc)
    entry[name] = value
    cfg, out = tmp_path / "scn.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and not captured.out
    assert not out.exists()


class TestTolerance:
    @pytest.mark.parametrize("formulation, route", [
        ("full", "direct"), ("full", "coupled"), ("schur_parabolic", "direct"),
    ])
    def test_tol_is_the_tolerance_of_the_check_and_the_export(self, tmp_path, capsys,
                                                             formulation, route):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(scenario_doc(formulation=formulation, route=route)))
        assert cli.main(["check", "--config", str(cfg), "--tol", "1e-6"]) == 0
        structure = json.loads(capsys.readouterr().out)["structure"]
        assert structure["psd_tol"] == structure["skew_tol"] == 1e-6
        out = tmp_path / "export"
        assert cli.main(["export", "--config", str(cfg), "--out", str(out), "--tol", "1e-6"]) == 0
        assert json.loads((out / "manifest.json").read_text())["validation_tol"] == 1e-6
        loaded = phdae.load_phdae(out)
        assert phdae.validate_structure(loaded, 1e-6).verdict

    def test_tol_option_is_refused_where_no_check_reads_it(self, tmp_path, capsys):
        cfg, out = tmp_path / "scn.json", tmp_path / "traj.csv"
        cfg.write_text(json.dumps(scenario_doc()))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--tol", "1e-6"]) == 2
        assert not out.exists()
        assert "--tol applies only to check and export" in capsys.readouterr().err
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"first": scenario_doc(), "second": scenario_doc(route="coupled")}))
        assert cli.main(["compare", "--config", str(pair), "--tol", "1e-6"]) == 2

    @pytest.mark.parametrize("command", ["check", "export"])
    @pytest.mark.parametrize("via", ["key", "flag"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tol_must_be_a_finite_number_at_least_zero(self, tmp_path, capsys, command, via,
                                                       tol):
        # a negative or nan tolerance fails every check, an infinite one
        # passes any structure: neither is a verdict on the system
        cfg, out = tmp_path / "scn.json", tmp_path / "export"
        cfg.write_text(json.dumps(scenario_doc(**({"tol": float(tol)} if via == "key" else {}))))
        flag = ["--tol", tol] if via == "flag" else []
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *flag]) == 2
        assert "tol must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_tol_is_a_valid_tolerance(self, tmp_path, capsys):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(scenario_doc(tol=0.0)))
        assert cli.main(["check", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["structure"]["psd_tol"] == 0.0

    def test_scenario_tol_is_allowed_for_every_command(self, tmp_path):
        # one scenario file serves check, simulate and export alike
        cfg, out = tmp_path / "scn.json", tmp_path / "traj.csv"
        cfg.write_text(json.dumps(scenario_doc(tol=1e-6)))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_only_checks_take_a_tolerance(self):
        # a tolerance belongs to the check that reports it; every other
        # decision uses a fixed cut
        def takes_tol(fn):
            try:
                return "tol" in inspect.signature(fn).parameters
            except ValueError:  # no signature, such as an exception class
                return False

        found = set()
        for info in pkgutil.iter_modules(phporo.__path__):
            module = importlib.import_module(f"phporo.{info.name}")
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                    continue
                members = [(name, obj)]
                if inspect.isclass(obj):
                    members += [(f"{name}.{key}", getattr(obj, key))
                                for key, value in vars(obj).items() if not key.startswith("__")
                                and isinstance(value, (FunctionType, classmethod, staticmethod))]
                found |= {f"{info.name}.{qual}" for qual, fn in members if takes_tol(fn)}
        assert found == {
            "cli.Scenario",
            "numkit.SpectralReport.from_lowest", "numkit.certified_report",
            "numkit.is_skew", "numkit.is_symmetric", "numkit.psd_check",
            "phdae.power_balance_residual", "phdae.save_phdae", "phdae.validate_structure",
        }


class TestDenseRowsCap:
    """sqrt forms the dense root S of K_A (2 (n - 1)^2 rows) and
    schur_parabolic the dense reduced mass (m (n - 1)^2 rows)."""

    CASES = [("sqrt", 1, 46), ("schur_parabolic", 1, 65), ("schur_parabolic", 2, 46)]

    @staticmethod
    def doc(formulation, m, mesh_n):
        if m == 1:
            return scenario_doc(mesh_n=mesh_n, formulation=formulation,
                                materials=[material_doc(rho=0.0)])
        return network_doc(m=m, mesh_n=mesh_n, formulation=formulation)

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("operators built")

        monkeypatch.setattr(cli, "build_operators", refuse)

    @pytest.mark.parametrize("formulation, m, below", CASES)
    def test_check_above_the_cap_exits_2_before_building(self, formulation, m, below,
                                                         nothing_built, tmp_path, capsys):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(self.doc(formulation, m, below + 1)))
        assert cli.main(["check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"DENSE_ROWS_CAP = {cli.DENSE_ROWS_CAP}" in err

    @pytest.mark.parametrize("formulation, m, below", CASES)
    def test_just_below_the_cap_parses(self, formulation, m, below, nothing_built):
        rows = (2 if formulation == "sqrt" else m) * (below - 1) ** 2
        assert rows <= cli.DENSE_ROWS_CAP
        assert parse_scenario(self.doc(formulation, m, below)).mesh_n == below


class TestMain:
    def test_exit_code_zero_on_success(self, tmp_path, capsys):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(scenario_doc()))
        assert cli.main(["check", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"]

    def test_exit_code_two_on_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(scenario_doc(formulation="nope")))
        assert cli.main(["check", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exit_code_two_on_missing_config(self, capsys):
        assert cli.main(["check", "--config", "/does/not/exist.json"]) == 2

    def test_exit_code_one_on_structural_failure(self, tmp_path, capsys):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(network_doc(scale=1e6, mesh_n=3)))
        assert cli.main(["check", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("doc", [
        scenario_doc(),
        scenario_doc(mesh_n=1, formulation="quasi_static", materials=[material_doc(rho=0.0)]),
    ], ids=["full", "quasi_static_without_free_dofs"])
    def test_simulate_writes_requested_file(self, tmp_path, capsys, doc):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_compare_config_needs_two_scenarios(self, tmp_path, capsys):
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps({"first": scenario_doc()}))
        assert cli.main(["compare", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command, doc", [
        ("check", scenario_doc(mesh_n="abc")),
        ("check", scenario_doc(steps="many")),
        ("check", scenario_doc(source_f=[{"c": "x"}])),
        ("check", [scenario_doc()]),
        ("check", scenario_doc(materials=[1])),
        ("compare", {"first": 3, "second": scenario_doc()}),
    ], ids=["mesh_n", "steps", "source_term", "list_document", "material", "compare_first"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(scenario_doc(seed=0)))
        assert cli.main(["check", "--config", str(cfg)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--config", str(cfg), "--seed", "3"])
        assert exc.value.code == 2


class TestSeparableSignals:
    """Precomputed spatial vectors reproduce per-node term evaluation."""

    TERMS_F = [
        {"c": 0.4, "ax": 1, "ay": 0, "component": 0, "time": "sin", "omega": 2.0},
        {"c": -0.7, "ax": 0, "ay": 2, "component": 1, "time": "cos", "omega": 3.0},
        {"c": 0.3, "ax": 2, "ay": 1, "component": 0, "time": "const"},
        {"c": 1.1, "ax": 0, "ay": 0, "component": 1, "time": "sin", "omega": 0.5},
    ]
    TERMS_G = [
        [{"c": 0.2, "ax": 1, "ay": 0, "time": "const"},
         {"c": 0.9, "ax": 1, "ay": 1, "time": "cos", "omega": 1.5}],
        [{"c": -0.5, "ax": 0, "ay": 3, "time": "sin", "omega": 4.0}],
    ]

    @staticmethod
    def reference(terms, space, t, component=None):
        nodes = space.mesh.nodes[space.free_nodes]
        return np.array([sum(term.value(x, y, t) for term in terms
                             if component is None or term.component == component)
                         for x, y in nodes])

    def test_network_input_matches_per_node_values(self):
        scn = parse_scenario(network_doc(m=2, mesh_n=3, source_f=self.TERMS_F,
                                         source_g=self.TERMS_G,
                                         initial_pressure=self.TERMS_G))
        ops = cli.build_operators(scn)
        system = cli.build_system(scn, ops)
        v = cli.input_signal(scn, ops, system)
        f, fdot, g = cli.load_signals(scn, ops)
        rates = tuple(term.time_derivative() for term in scn.source_f)
        mp = np.kron(np.eye(2), ops.mass_p)
        for t in (0.0, 0.37, 1.9):
            vu = np.concatenate([self.reference(scn.source_f, ops.vspace, t, c) for c in (0, 1)])
            vu_dot = np.concatenate([self.reference(rates, ops.vspace, t, c) for c in (0, 1)])
            vp = np.concatenate([self.reference(terms, ops.qspace, t) for terms in scn.source_g])
            np.testing.assert_allclose(v(t), np.concatenate([vu, vp]), rtol=1e-14, atol=0.0)
            for got, want in ((f(t), ops.mass_u @ vu), (fdot(t), ops.mass_u @ vu_dot),
                              (g(t), mp @ vp)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        p0 = np.concatenate([self.reference(terms, ops.qspace, 0.0)
                             for terms in scn.initial_pressure])
        np.testing.assert_allclose(cli.initial_pressure_vector(scn, ops), p0,
                                   rtol=1e-14, atol=0.0)


class TestStiffStorage:
    def test_large_biot_modulus_initializes_and_balances(self, tmp_path, capsys):
        # K_A + D^T M^-1 D has entries ~1e6 here; an absolute residual test
        # rejected its accurate solve
        doc = scenario_doc(mesh_n=4, formulation="quasi_static",
                           materials=[dict(material_doc(rho=0.0), biot_M=1e6)])
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        H = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert report["max_power_balance_residual"] <= 1e-10 * max(1.0, np.max(np.abs(H)))

    @pytest.mark.parametrize("formulation, rho, biot_M, index, e_rank", [
        ("full", 1.0, 1e8, "0", 45),
        ("quasi_static", 0.0, 1e8, "at_least_2", 27),
        ("quasi_static", 0.0, 1e10, "at_least_2", 27),
        ("schur_parabolic", 0.0, 1e10, "0", 9),
        ("schur_parabolic", 0.0, 1e12, "0", 9),
        ("schur_parabolic", 0.0, 1e14, "0", 9),
        ("alt_qs", 0.0, 1e12, "1", 9),
        ("alt_qs", 0.0, 1e14, "1", 9),
    ])
    def test_stiff_storage_keeps_the_rank_of_E(self, tmp_path, capsys, formulation,
                                                rho, biot_M, index, e_rank):
        # the storage mass is ~1e-12 against K_A here; a plain relative
        # singular-value cut counted it as rank deficiency
        doc = scenario_doc(mesh_n=4, formulation=formulation,
                           materials=[dict(material_doc(rho=rho), biot_M=biot_M)])
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["check", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["index"]["index"] == index
        assert report["index"]["e_rank"] == e_rank
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        H = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert report["max_power_balance_residual"] <= 1e-10 * max(1.0, np.max(np.abs(H)))


class TestSquareRootOncePerRun:
    """``sqrt`` runs compute the root S of K_A once, in the builder; the
    initial state and the full/sqrt comparison read it from J."""

    @pytest.fixture
    def roots(self, monkeypatch):
        calls = []
        real = numkit.sqrtm_spd
        monkeypatch.setattr(numkit, "sqrtm_spd", lambda M: calls.append(M) or real(M))
        return calls

    def test_simulate_on_sqrt(self, tmp_path, roots):
        doc = scenario_doc(formulation="sqrt")
        _, code = cli.cmd_simulate(parse_scenario(doc), str(tmp_path / "s.csv"))
        assert code == 0 and len(roots) == 1

    def test_full_vs_sqrt_compare(self, roots):
        first = parse_scenario(scenario_doc())
        second = parse_scenario(scenario_doc(formulation="sqrt"))
        _, code = cli.cmd_compare(first, second)
        assert code == 0 and len(roots) == 1

    def test_root_read_from_j_is_the_builders(self):
        scn = parse_scenario(scenario_doc(formulation="sqrt", mesh_n=3))
        ops = cli.build_operators(scn)
        S = cli._square_root(cli.build_system(scn, ops))
        assert np.array_equal(S, numkit.sqrtm_spd(ops.stiff_elast))


class TestCompareIntegrator:
    def test_euler_pair_is_integrated_with_euler(self):
        first = parse_scenario(scenario_doc(mesh_n=3, integrator="euler",
                                            materials=[material_doc(rho=1e-2)]))
        second = parse_scenario(scenario_doc(mesh_n=3, formulation="quasi_static",
                                             integrator="euler",
                                             materials=[material_doc(rho=0.0)]))
        report, code = cli.cmd_compare(first, second)
        assert code == 0
        pressures = []
        for scn in (first, second):
            ops = cli.build_operators(scn)
            system = cli.build_system(scn, ops)
            traj = timeint.integrate_euler(system, cli.initial_state(scn, ops, system),
                                           cli.input_signal(scn, ops, system),
                                           cli.time_grid(scn))
            pressures.append(traj.states[:, system.state_slice("p")])
        assert report["max_pressure_deviation"] == float(np.max(np.abs(
            pressures[0] - pressures[1])))

    def test_mismatched_integrators_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({"first": scenario_doc(integrator="euler"),
                                   "second": scenario_doc(formulation="sqrt")}))
        assert cli.main(["compare", "--config", str(cfg)]) == 2
        assert "integrator" in capsys.readouterr().err


def test_check_validates_structure_once(monkeypatch):
    calls = []
    certify = numkit.psd_certificate
    monkeypatch.setattr(numkit, "psd_certificate",
                        lambda *args, **kwargs: calls.append(1) or certify(*args, **kwargs))
    monkeypatch.setattr(numkit, "psd_check", lambda *args, **kwargs: pytest.fail("dense check"))
    report, code = cli.cmd_check(parse_scenario(scenario_doc()))
    assert code == 0 and report["structure"]["verdict"]
    assert len(calls) == 2  # E and R, when the system is built


@pytest.mark.parametrize("formulation, rho", [("full", 1.0), ("quasi_static", 0.0)])
@pytest.mark.parametrize("biot_M", [1e12, 1e14])
def test_tiny_storage_mass_is_not_singular(tmp_path, capsys, formulation, rho, biot_M):
    # every pivot of M-bar is ~1e-14 here; only a relative pivot rule lets
    # this well-conditioned matrix through
    doc = scenario_doc(mesh_n=4, formulation=formulation,
                       materials=[dict(material_doc(rho=rho), biot_M=biot_M)])
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    H = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    assert report["max_power_balance_residual"] <= 1e-10 * max(1.0, np.max(np.abs(H)))
