"""The exchange-rate lemma's constants on a sequence of meshes, as one JSON file.

    python3 tools/mesh_sequence.py [--sizes 8 16 32 64 128 256] [--out MESH_SEQUENCE.json]

Setup: m = 2 networks with kappa = nu = 1 and off-diagonal exchange rates
0.01 on the unit square with n cells per side.  Each n runs
``check_network_ellipticity`` in a fresh child process (``run_child`` of
``bench_reduced_step.py``: ``OPENBLAS_NUM_THREADS=1``, phporo imported from
this checkout's ``src``, peak RSS from the child's ``ru_maxrss``).

Every flow block is the Laplacian L, so the check reports c_h =
lambda_h / (1 + lambda_h) and C^2_h = 1 / (1 + lambda_h), lambda_h the
lowest eigenvalue of L x = lambda M x.  Its limit is lambda = 2 pi^2, with
c = lambda / (1 + lambda) and C^2 = 1 / (1 + lambda); the P1 eigenvalue
approaches it from above at O(h^2), so c_h - c = C^2 - C^2_h > 0 should fall
by about four per halving of h ("ratio"), and the sufficient bound
lambda_h / 4 approaches pi^2 / 2.  "check_s" is assembly and check inside
the child, "wall_s" the whole child with its interpreter start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
from pathlib import Path

from bench_reduced_step import HERE, run_child

RATE = 0.01
LAMBDA = 2.0 * math.pi**2

PROBE = """
import json, sys, time
import numpy as np
from phporo import fem, formulations
n, rate = int(sys.argv[1]), float(sys.argv[2])
start = time.perf_counter()
coupling = formulations.NetworkCoupling.from_exchange_rates(np.full((2, 2), rate))
mat = fem.PoroMaterial(rho=0.0, mu=1.0, lam=1.0, alpha=1.0, biot_M=1.0, kappa=1.0, nu=1.0)
ops = formulations.assemble_network(fem.build_unit_square_mesh(n), (mat, mat), coupling)
report = formulations.check_network_ellipticity(ops, coupling).to_dict()
print(json.dumps(dict(report, check_s=round(time.perf_counter() - start, 3))))
"""


def measure(sizes) -> list[dict]:
    rows = []
    for n in sizes:
        child = run_child(HERE, ["-c", PROBE, str(n), repr(RATE)])
        if child["exit"] != 0:
            raise RuntimeError(f"n = {n}: {child.get('error')}")
        embed_sq = child["embedding_constant_sq"]
        c_gap = child["ellipticity_constant"] - LAMBDA / (1.0 + LAMBDA)
        row = {
            "n": n,
            "lambda_h": 1.0 / embed_sq - 1.0,
            "c_gap": c_gap,
            "embed_sq_gap": 1.0 / (1.0 + LAMBDA) - embed_sq,
            "ratio": rows[-1]["c_gap"] / c_gap if rows else None,
            "sufficient_bound": child["sufficient_bound"],
            "elliptic": child["elliptic"],
            "bound_satisfied": child["bound_satisfied"],
            "check_s": child["check_s"],
            "wall_s": child["wall_s"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32, 64, 128, 256])
    parser.add_argument("--out", default=str(HERE / "MESH_SEQUENCE.json"))
    args = parser.parse_args(argv)
    report = {
        "what": __doc__.split("\n\n", 2)[2].strip(),
        "machine": f"{os.cpu_count()} vCPU {platform.machine()}, Python "
                   f"{platform.python_version()}, OPENBLAS_NUM_THREADS=1",
        "limits": {"lambda": LAMBDA, "c": LAMBDA / (1.0 + LAMBDA),
                   "embed_sq": 1.0 / (1.0 + LAMBDA), "sufficient_bound": LAMBDA / 4.0},
        "rows": measure(args.sizes),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
