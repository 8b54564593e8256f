"""Solve the hard 4-qubit point sets and print one JSON line: failures and iterations.

    python tools/hard_points.py [--workers 2] [--points PATH]

Run from a source checkout; the genneg under ``src`` next to this script is
the one solved with.  Three sets, 198 solves:

* ``named``: the six named 4-qubit states (ghz4, w4, d24, singlet4, cluster4,
  chi4) under ad, pd and dp noise at s = 0.01, 0.03 and 0.05 (54 points);
* ``random77001`` and ``random93001``: six Haar-random and six weighted-graph
  4-qubit states, member i seeded with ``states.derive_seed(base, i)``,
  under ad, pd and dp noise at s = 0.02 and 0.05 (72 points each).

Near-pure 4-qubit states are where brackets fail to close, so a solver
change compares these sets before and after.  The printed line holds, per
set, the point count, the summed iteration count (Schur systems factored),
the largest iteration count of one point (``sdp.MAX_ITERATIONS`` must stay
above it), and every point whose bracket did not close or whose certificate
failed, with its bracket width.  ``--points PATH`` writes every point's E, bracket
and iteration count to PATH as JSON, to diff two checkouts point by point.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from genneg import gmn, states  # noqa: E402
from genneg.channels import ChannelKind, apply_local_channel  # noqa: E402

NAMED = ("ghz4", "w4", "d24", "singlet4", "cluster4", "chi4")
NAMED_S = (0.01, 0.03, 0.05)
RANDOM_BASES = (77001, 93001)
RANDOM_MEMBERS = 6
RANDOM_S = (0.02, 0.05)
CHANNELS = ("ad", "pd", "dp")


def point_sets() -> dict:
    """Set name -> list of (label, state vector, channel, s)."""
    sets = {"named": [(f"{name}/{ch}/{s:g}", states.named_state(name), ch, s)
                      for name in NAMED for ch in CHANNELS for s in NAMED_S]}
    for base in RANDOM_BASES:
        members = []
        for i in range(RANDOM_MEMBERS):
            seed = states.derive_seed(base, i)
            members.append((f"haar{base}/{i}", states.haar_random_state(4, seed)))
            members.append((f"wgs{base}/{i}", states.weighted_graph_state(
                states.random_weighted_graph(4, seed))))
        sets[f"random{base}"] = [(f"{label}/{ch}/{s:g}", psi, ch, s)
                               for label, psi in members for ch in CHANNELS for s in RANDOM_S]
    return sets


def solve_point(job) -> dict:
    label, psi, channel, s = job
    rho = apply_local_channel(states.to_density(psi), ChannelKind.parse(channel), s, 4)
    res = gmn.genuine_negativity(rho, 4)
    return {"label": label, "E": res.value, "e_lo": res.e_lo, "e_hi": res.e_hi,
            "iterations": res.solver.iterations,
            "ok": bool(res.solved and res.certificate_ok)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--points", type=Path, help="write every point's record here (JSON)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    t0 = time.perf_counter()
    sets = point_sets()
    jobs = [job for points in sets.values() for job in points]
    with ProcessPoolExecutor(args.workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        records = list(pool.map(solve_point, jobs))
    summary, start = {}, 0
    for name, points in sets.items():
        mine = records[start:start + len(points)]
        start += len(points)
        summary[name] = {
            "points": len(mine),
            "iterations": sum(r["iterations"] for r in mine),
            "most_iterations": max(r["iterations"] for r in mine),
            "failures": {r["label"]: float(f"{r['e_hi'] - r['e_lo']:.3g}")
                         for r in mine if not r["ok"]}}
    if args.points is not None:
        args.points.write_text(json.dumps(records, indent=0) + "\n", encoding="utf-8")
    print(json.dumps({"sets": summary,
                      "failures": sum(len(v["failures"]) for v in summary.values()),
                      "iterations": sum(v["iterations"] for v in summary.values()),
                      "seconds": round(time.perf_counter() - t0, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
