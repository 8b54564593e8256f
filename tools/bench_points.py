"""Solve every point of the three benchmark workloads and write one JSON record per point.

    python tools/bench_points.py OUT [--workers 2]

Run from a source checkout; the genneg under ``src`` and the workloads in
``perfbench/bench.py`` next to this script are the ones used (the benchmark
is read, never changed).  The 254 points are those the benchmark's CLI calls
solve:

* ``solve-n4``: its four single solves, the Haar-4 state seeded with the
  benchmark's ``HAAR4_SEED`` (4 points);
* ``sweep-n3``: each sweep on ``analysis.default_grid`` with the sweep's step
  count, as ``genneg sweep`` builds it (150 points);
* ``ensemble-n3``: each ensemble's members, member i seeded with
  ``states.derive_seed(seed, i)``, on its default grid, as ``genneg
  ensemble`` builds them (100 points).

OUT gets one line per point, in that order: its label, E, E_lo, E_hi, the
solver's iteration count, status and message.  Floats are written in their
shortest round-trip form, so two checkouts whose solves agree bit for bit
write identical files, and ``cmp`` compares them.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from bench import WORKLOADS, Ensemble, Solve, Sweep  # noqa: E402
from genneg import analysis, gmn, states  # noqa: E402
from genneg.channels import ChannelKind, apply_local_channel  # noqa: E402

BENCH_WORKLOADS = ("solve-n4", "sweep-n3", "ensemble-n3")


def points() -> list:
    """(label, initial density matrix, channel, s, qubit count) of every point, in order."""
    out = []
    for name in BENCH_WORKLOADS:
        workload = WORKLOADS[name]
        n = workload.nqubits
        for item in workload.items:
            kind = ChannelKind.parse(item.channel)
            if isinstance(item, Solve):
                out.append((item.key, item.initial(n), kind, item.s, n))
            elif isinstance(item, Sweep):
                rho0 = states.to_density(states.named_state(item.state))
                out += [(f"{item.key}/s={s:.6g}", rho0, kind, float(s), n)
                        for s in analysis.default_grid(kind, steps=item.steps)]
            elif isinstance(item, Ensemble):
                grid = analysis.default_grid(kind, smax=item.smax, steps=item.steps)
                for i in range(item.count):
                    rho0 = item.member_density(i, n)
                    out += [(f"{item.key}/r{i:03d}/s={s:.6g}", rho0, kind, float(s), n)
                            for s in grid]
            else:
                raise TypeError(f"unknown benchmark item {item!r}")
    return out


def solve_point(job) -> dict:
    label, rho0, kind, s, n = job
    res = gmn.genuine_negativity(apply_local_channel(rho0, kind, s, n), n)
    return {"label": label, "E": res.value, "E_lo": res.e_lo, "E_hi": res.e_hi,
            "iterations": res.solver.iterations, "status": res.solver.status.value,
            "message": res.solver.message}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output path, one JSON record per line")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    jobs = points()
    with ProcessPoolExecutor(args.workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        records = list(pool.map(solve_point, jobs))
    args.out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    print(f"{len(records)} points written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
