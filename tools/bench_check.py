"""Fresh-process ``phporo check`` of the quasi-static form, before and after a
change, as one JSON file.

    python3 tools/bench_check.py --parent DIR [--out BENCH_30.json]

DIR is a checkout of the commit before the change (``git archive`` of it
will do); the checkout this script sits in is the change.  Each case is the
``check_scenario`` of ``bench_reduced_step.py`` (its ``SCENARIO`` with rho =
0 and m equal networks exchanging at rate 0.01) at mesh size n, run by
``CHECK_PROBE`` in a fresh child process with ``OPENBLAS_NUM_THREADS=1``:
wall time around the child, its peak RSS (``ru_maxrss``), and the rows of
every ``numkit.lu_factor`` call next to the state dimension of the checked
system.  Parent and change alternate, the parent first in even pairs; the
report gives every run and, per side, the median, the quartiles and the range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
from pathlib import Path

from bench_reduced_step import CHECK_PROBE, HERE, check_scenario, run_child

CASES = ((64, 1), (64, 2), (128, 1), (128, 2))
PAIRS = 5  # alternating parent/change pairs per case


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--out", default=str(HERE / "BENCH_30.json"))
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": HERE}
    report = {
        "what": __doc__.split("\n\n", 2)[2].strip(),
        "machine": f"{os.cpu_count()} vCPU {platform.machine()}, Python "
                   f"{platform.python_version()}, OPENBLAS_NUM_THREADS=1",
        "cases": {},
    }
    with tempfile.TemporaryDirectory() as work:
        for n, m in CASES:
            config = Path(work) / f"check_{n}_{m}.json"
            config.write_text(json.dumps(check_scenario(n, m)))
            runs = {side: [] for side in sides}
            for pair in range(PAIRS):
                for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                    result = run_child(sides[side], ["-c", CHECK_PROBE, str(config)])
                    print(f"n={n} m={m}", side, json.dumps(result), flush=True)
                    runs[side].append(result)
            report["cases"][f"n{n}_m{m}"] = {
                side: {"wall_s": spread([r["wall_s"] for r in results]),
                       "peak_rss_mb": spread([r["peak_rss_mb"] for r in results]),
                       "runs": results}
                for side, results in runs.items()}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
