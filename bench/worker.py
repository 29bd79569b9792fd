"""One benchmark process: set-up, timed rounds of one workload, gates.

run.py starts this script in a fresh interpreter, once per set-up probe and
once for the measured run:

    python3 bench/worker.py --ops DIR --warmup DIR --seconds S --trace 0|1 \
        [--spans FILE] [--setup-only]

Set-up is timed from interpreter start-up of this script to the end of the
warm-up: importing phporo (with numpy and scipy), parsing every scenario
file and running each operation once at the smallest size.  A round runs
every operation of the workload once and checks its output; whole rounds
repeat while the next one is expected to end within ``--seconds`` (at least
one runs).  With ``--trace 1`` the first half of the time runs untraced and
the second half traced.  The script prints one JSON
line with its results.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402  (imports belong to the timed set-up)
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import phporo  # noqa: E402
from phporo import cli, fem, formulations, numkit, phdae, timeint  # noqa: E402

import gates  # noqa: E402
import tracing  # noqa: E402

KINDS = ("check", "compare", "export", "simulate")
TYPED_ERRORS = (numkit.StructureError, numkit.SingularMatrixError,
                phdae.InconsistentStateError, fem.BoundViolationError, cli.ScenarioError)


def _run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _run_nonlinear(doc):
    """Semi-implicit run with kappa(xi) = k0 (1 + a xi^2) / (2 + a xi^2)."""
    k0, a = doc["kappa_law"]["k0"], doc["kappa_law"]["a"]

    def kappa(xi):
        return k0 * (1.0 + a * xi * xi) / (2.0 + a * xi * xi)

    scn = cli.parse_scenario(doc["scenario"])
    ops = cli.build_operators(scn)
    system = formulations.build_full_first_order(ops)
    traj = timeint.integrate_nonlinear_kappa(
        ops, kappa, cli.initial_state(scn, ops, system), cli.input_signal(scn, ops, system),
        cli.time_grid(scn), bounds=tuple(doc["bounds"]))
    return {"traj": traj}


class Workload:
    """The operations of one generated workload directory."""

    def __init__(self, directory, tracer=None):
        self.dir = Path(directory)
        self.ops = json.loads((self.dir / "ops.json").read_text())
        self.out = self.dir / "out"
        self.tracer = tracer

    def parse(self) -> None:
        """Parse every scenario the operations read."""
        for op in self.ops:
            doc = json.loads((self.dir / op["config"]).read_text())
            if op["kind"] == "compare":
                docs = (doc["first"], doc["second"])
            elif op["kind"] == "nonlinear":
                docs = (doc["scenario"],)
            else:
                docs = (doc,)
            for scenario in docs:
                cli.parse_scenario(scenario)

    def run(self, op) -> tuple[float, dict]:
        """Run one operation; only the call into phporo is timed and traced."""
        config = self.dir / op["config"]
        outcome = {"out": str(self.out / op["name"]), "config": str(config)}
        if op["kind"] == "nonlinear":
            doc = json.loads(config.read_text())
            call = lambda: _run_nonlinear(doc)  # noqa: E731
        else:
            argv = [op["kind"], "--config", str(config)]
            if op["kind"] in ("simulate", "export"):
                argv += ["--out", outcome["out"]]
            call = lambda: _run_cli(argv)  # noqa: E731
        if self.tracer:
            self.tracer.op = op["name"]
            self.tracer.active = True
        start = perf_counter()
        try:
            outcome.update(call())
        except Exception as exc:  # the gate judges it; the run goes on
            outcome["error"] = exc
        finally:
            elapsed = perf_counter() - start
            if self.tracer:
                self.tracer.active = False
        return elapsed, outcome

    def round(self) -> dict:
        """Every operation once, each checked by its gate."""
        self.out.mkdir(exist_ok=True)
        if self.tracer:
            self.tracer.reset_counters()
        times, failures = {}, []
        for op in self.ops:
            elapsed, outcome = self.run(op)
            times[op["name"]] = elapsed
            try:
                reason = gates.check(op, outcome)
            except Exception as exc:  # a malformed output fails its gate
                reason = f"gate raised {type(exc).__name__}: {exc}"
            if reason:
                failures.append({"op": op["name"], "reason": reason})
                if "error" in outcome and not isinstance(outcome["error"], TYPED_ERRORS):
                    traceback.print_exception(outcome["error"], file=sys.stderr)
            out = Path(outcome["out"])
            if out.is_dir():
                shutil.rmtree(out)
            elif out.exists():
                out.unlink()
        # peak resident memory so far; it grows with the number of rounds
        # (allocator fragmentation), so the metric reads it after round one
        record = {"times": times, "failures": failures,
                  "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if self.tracer:
            spans = self.tracer.take()
            record.update(tracing.aggregate(spans), spans=spans, steps=self.tracer.steps,
                          bytes=dict(self.tracer.bytes), errors=dict(self.tracer.errors))
        return record

    def rounds(self, budget_s: float) -> list[dict]:
        """Whole rounds while another one is expected to end within budget_s."""
        done = []
        start = perf_counter()
        while True:
            done.append(self.round())
            elapsed = perf_counter() - start
            if elapsed * (len(done) + 1) / len(done) > budget_s:
                return done


def summarize(ops: list[dict], rounds: list[dict]) -> dict:
    """End-to-end figures from per-operation medians over the rounds."""
    med = {op["name"]: statistics.median(r["times"][op["name"]] for r in rounds)
           for op in ops}
    steps = sum(op["steps"] for op in ops)
    stepping_s = sum(med[op["name"]] for op in ops if op["steps"])
    out = {
        "wall_s": sum(med.values()),
        "steps_per_s": steps / stepping_s if steps else 0.0,
        "round_wall_s": [sum(r["times"].values()) for r in rounds],
        "op_median_s": med,
    }
    for kind in KINDS:
        out[f"{kind}_s"] = sum((med[op["name"]] for op in ops if op["kind"] == kind), 0.0)
    return out


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer figures, averaged over the traced rounds so that they add up."""
    n = len(traced)

    def mean(get):
        return sum(get(r) for r in traced) / n

    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.calls"] = mean(lambda r: r["layers"][layer]["calls"])
        m[f"{layer}.self_s"] = mean(lambda r: r["layers"][layer]["self_s"])
        m[f"{layer}.errors"] = mean(lambda r: r["errors"].get(layer, 0))
    for group in dict.fromkeys(g for _, g in tracing.GROUPS):
        m[f"{group}.calls"] = mean(lambda r: r["groups"].get(group, {}).get("calls", 0))
        m[f"{group}.self_s"] = mean(lambda r: r["groups"].get(group, {}).get("self_s", 0.0))
    for group in tracing.BYTE_GROUPS:
        m[f"{group}.bytes"] = mean(lambda r: r["bytes"].get(group, 0))
    wall = mean(lambda r: sum(r["times"].values()))
    m["trace.wall_s"] = wall
    m["glue.self_s"] = wall - sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    m["trace.overhead_s"] = wall - sum(sum(r["times"].values()) for r in untraced) / len(untraced)
    m["timeint.steps"] = mean(lambda r: r["steps"])
    m["timeint.step_self_us"] = (1e6 * m["timeint.integrate.self_s"] / m["timeint.steps"]
                                 if m["timeint.steps"] else 0.0)
    return m


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            env["cpu_model"] = models[0]
    for lib, module in (("numpy", np), ("scipy", scipy)):
        with contextlib.suppress(Exception):  # show_config layouts differ by version
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[f"{lib}_blas"] = f"{blas['name']} {blas['version']}"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one phporo benchmark process")
    parser.add_argument("--ops", required=True, help="generated workload directory")
    parser.add_argument("--warmup", required=True, help="the same workload at the smallest size")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(phporo.__file__).resolve().parent != SRC / "phporo":
        print(f"phporo was imported from {phporo.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    tracer = tracing.Tracer(TYPED_ERRORS) if args.trace else None
    timed = Workload(args.ops)
    warmup = Workload(args.warmup)
    timed.parse()
    warmup.parse()
    warm_failures = warmup.round()["failures"]
    setup_s = perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "warmup_failures": warm_failures}))
        return 0

    result = {"setup_s": setup_s, "warmup_failures": warm_failures, "env": environment()}
    if args.trace:
        untraced = timed.rounds(args.seconds / 2)
        timed.tracer = tracer
        tracer.install()
        try:
            traced = timed.rounds(args.seconds / 2)
        finally:
            tracer.uninstall()
        if args.spans:
            tracing.write_spans(args.spans, [r["spans"] for r in traced])
        result["per_layer"] = layer_metrics(traced, untraced)
    else:
        untraced, traced = timed.rounds(args.seconds), []
    result.update(summarize(timed.ops, untraced))
    checked = untraced + traced
    result["attempted"] = len(timed.ops) * len(checked)
    result["failures"] = [f for r in checked for f in r["failures"]]
    result["failed"] = len(result["failures"])
    result["failed_ops_ratio"] = result["failed"] / result["attempted"]
    result["peak_rss_mb"] = untraced[0]["max_rss_mb"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
