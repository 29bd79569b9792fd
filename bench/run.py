"""phporo benchmark: one workload and seed, measured in fresh processes.

    python3 bench/run.py --workload analyze|march|nonlinear --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; phporo is imported from the checkout's
``src``.  The seeded generator (scenarios.py) writes the workload's scenario
files, then worker.py runs in SETUP_PROBES set-up-only processes and in one
measured process, each with BLAS_THREADS BLAS threads.  The next-to-last line
of output is a report (environment, per-operation medians, per-kind totals,
failures); the last line is the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.

Workloads (BENCHMARK.json says why each exists):

* analyze: n = 12; check on all six formulations and two coupled routes, an
  oversized-rate check that must fail, a coupled-vs-direct compare, an export.
* march: n = 8; five 1000-step simulations and a quasi_static/schur_parabolic
  compare.
* nonlinear: n = 12; a 150-step run with dilatation-dependent permeability
  and a short run that must stop on a bound violation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios
import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Set-up is also measured in this many set-up-only fresh processes, half
# before and half after the measured one, and setup_s is the median of all.
SETUP_PROBES = 6
# One BLAS thread: the runs share the machine, and threads that contend for
# cores make timings spread.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every process of a run must have ended by then.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict:
    units = {}
    for layer in tracing.LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.errors": "count"})
    for group in dict.fromkeys(group for _, group in tracing.GROUPS):
        units.update({f"{group}.calls": "count", f"{group}.self_s": "s"})
    for group in tracing.BYTE_GROUPS:
        units[f"{group}.bytes"] = "B"
    units.update({
        "glue.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
        "timeint.steps": "count", "timeint.step_self_us": "us",
        # end-to-end figures that only some workloads have, from the
        # untraced half of the traced run
        "check_s": "s", "compare_s": "s", "export_s": "s", "simulate_s": "s",
        "steps_per_s": "1/s", "failed_ops_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phporo benchmark")
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="run every operation at the smallest size (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "phporo" / "__init__.py").is_file():
        print(f"benchmark failed: no phporo sources under {SRC}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               **{var: str(BLAS_THREADS) for var in BLAS_VARS})
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = BENCH / ".work" / "spans" / f"{args.workload}.jsonl"
    try:
        scenarios.generate(args.workload, args.seed, work / "timed", tiny=args.tiny)
        scenarios.generate(args.workload, args.seed, work / "warmup", tiny=True)
        common = ["--ops", str(work / "timed"), "--warmup", str(work / "warmup")]
        probes = [_worker(common + ["--setup-only"], env, deadline)
                  for _ in range(SETUP_PROBES // 2)]
        run = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--spans", str(spans)], env, deadline)
        probes += [_worker(common + ["--setup-only"], env, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_samples = [p["setup_s"] for p in probes] + [run["setup_s"]]
    warmup_failures = [f for p in probes + [run] for f in p["warmup_failures"]]
    values = dict(run, setup_s=statistics.median(setup_samples), **run.get("per_layer", {}))
    units = PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": run["env"],
        "setup_samples_s": setup_samples, "round_wall_s": run["round_wall_s"],
        "op_median_s": run["op_median_s"],
        **{name: run[name] for name in ("wall_s", "check_s", "compare_s", "export_s",
                                        "simulate_s", "steps_per_s", "failed_ops_ratio",
                                        "peak_rss_mb")},
        "failures": run["failures"][:20], "warmup_failures": warmup_failures[:20],
    }
    if args.trace:
        report["spans"] = str(spans.relative_to(BENCH.parent))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run["failed"] == 0 and not warmup_failures,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
