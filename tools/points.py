"""Solve a fixed set of points, print a summary per group, and write one JSON record per point.

    python tools/points.py {bench,hard} [--workers 2] [--out PATH]

Run from a source checkout, with the genneg under ``src`` next to this
script.  Points are solved by ``genneg.analysis``'s point function and worker
pool, as in ``genneg sweep`` and ``genneg ensemble`` (``--workers 1`` solves
in this process).  The sets, in groups:

* ``bench``, the 254 points the workloads of ``perfbench/bench.py`` solve:
  ``solve-n4`` (4 single solves), ``sweep-n3`` (150: each sweep's default
  grid) and ``ensemble-n3`` (100: member i seeded with
  ``states.derive_seed(seed, i)``), built as ``genneg`` builds them;
* ``hard``, 198 near-pure 4-qubit points, where brackets are hardest to
  close: ``named`` (ghz4, w4, d24, singlet4, cluster4, chi4 under ad, pd
  and dp at s = 0.01, 0.03, 0.05; 54 points), and ``random77001`` and
  ``random93001`` (six Haar-random and six weighted-graph states, member i
  seeded with ``states.derive_seed(base, i)``, under ad, pd and dp at
  s = 0.02, 0.05; 72 points each).

One JSON line is printed per group, then one for all points: the point
count, the summed iteration count (Schur systems factored), the largest of
one point (``sdp.MAX_ITERATIONS`` must stay above it), and every unusable
point (bracket open or certificate failed) with its bracket width.
``--out PATH`` writes a line per point: its label and the record of
``analysis._evaluate_point``, with floats in shortest round-trip form, so
checkouts whose solves agree bit for bit write files that ``cmp`` equates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from bench import WORKLOADS, Ensemble, Solve, Sweep  # noqa: E402
from genneg import analysis, states  # noqa: E402
from genneg.channels import ChannelKind  # noqa: E402

BENCH_WORKLOADS = ("solve-n4", "sweep-n3", "ensemble-n3")
CHANNELS = ("ad", "pd", "dp")
HARD_NAMED = ("ghz4", "w4", "d24", "singlet4", "cluster4", "chi4")
HARD_NAMED_S = (0.01, 0.03, 0.05)
HARD_BASES = (77001, 93001)
HARD_MEMBERS = 6
HARD_RANDOM_S = (0.02, 0.05)


def bench_points() -> dict:
    """Workload name -> [(label, job)], a job being ``analysis``'s (ρ0, channel, s, nqubits)."""
    groups = {}
    for name in BENCH_WORKLOADS:
        workload = WORKLOADS[name]
        n = workload.nqubits
        out = groups[name] = []
        for item in workload.items:
            kind = ChannelKind.parse(item.channel)
            if isinstance(item, Solve):
                out.append((item.key, (item.initial(n), kind, item.s, n)))
            elif isinstance(item, Sweep):
                rho0 = states.to_density(states.named_state(item.state))
                out += [(f"{item.key}/s={s:.6g}", (rho0, kind, float(s), n))
                        for s in analysis.default_grid(kind, steps=item.steps)]
            elif isinstance(item, Ensemble):
                grid = analysis.default_grid(kind, smax=item.smax, steps=item.steps)
                for i in range(item.count):
                    rho0 = item.member_density(i, n)
                    out += [(f"{item.key}/r{i:03d}/s={s:.6g}", (rho0, kind, float(s), n))
                            for s in grid]
            else:
                raise TypeError(f"unknown benchmark item {item!r}")
    return groups


def hard_points() -> dict:
    """Group name -> [(label, job)] of the hard 4-qubit points."""
    def points(members, grid):
        return [(f"{label}/{ch}/{s:g}", (states.to_density(psi), ChannelKind.parse(ch), s, 4))
                for label, psi in members for ch in CHANNELS for s in grid]

    groups = {"named": points([(name, states.named_state(name)) for name in HARD_NAMED],
                              HARD_NAMED_S)}
    for base in HARD_BASES:
        members = []
        for i in range(HARD_MEMBERS):
            seed = states.derive_seed(base, i)
            members += [(f"haar{base}/{i}", states.haar_random_state(4, seed)),
                        (f"wgs{base}/{i}", states.weighted_graph_state(
                            states.random_weighted_graph(4, seed)))]
        groups[f"random{base}"] = points(members, HARD_RANDOM_S)
    return groups


def summary(group: str, records: list) -> dict:
    iterations = [r["iterations"] for r in records]
    return {"group": group, "points": len(records), "iterations": sum(iterations),
            "most_iterations": max(iterations),
            "failures": {r["label"]: float(f"{r['E_hi'] - r['E_lo']:.3g}")
                         for r in records if not r["ok"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set", choices=("bench", "hard"))
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", type=Path, help="write one JSON record per point here")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    t0 = time.perf_counter()
    groups = (bench_points if args.set == "bench" else hard_points)()
    points = [point for group in groups.values() for point in group]
    records = [{"label": label, **record} for (label, _), record in
               zip(points, analysis._run_jobs([job for _, job in points], args.workers))]
    start = 0
    for name, group in groups.items():
        print(json.dumps(summary(name, records[start:start + len(group)])))
        start += len(group)
    print(json.dumps({**summary("all", records),
                      "seconds": round(time.perf_counter() - t0, 1)}))
    if args.out is not None:
        args.out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
