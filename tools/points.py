"""Solve a fixed set of points, print a summary per group, and write one JSON record per point.

    python tools/points.py {bench,hard,oracle} [--workers 2] [--out PATH]

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
  s = 0.02, 0.05; 72 points each);
* ``oracle``, 60 4-qubit GHZ-diagonal points, whose E is known in closed
  form (:func:`ghz_diagonal_negativity`): ``rotated`` (20 states turned by
  Haar-random local unitaries, without noise) and ``noisy`` (10 states under
  pd and dp at s = 0.05, 0.2; these Pauli channels keep a state
  GHZ-diagonal), member i seeded with ``states.derive_seed(ORACLE_BASE, i)``.

One JSON line is printed per group, then one for all points: the point
count, the summed iteration count (Schur systems factored), the largest of
one point (``sdp.MAX_ITERATIONS`` must stay above it), and every unusable
point (bracket open or certificate failed) with its bracket width.  For the
``oracle`` set it also gives the worst |E - closed form| as a fraction of the
point's bracket width, and that point's label.
``--out PATH`` writes a line per point: its label and the record of
``analysis._evaluate_point``, with floats in shortest round-trip form, so
checkouts whose solves agree bit for bit write files that ``cmp`` equates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import reduce
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from bench import WORKLOADS, Ensemble, Solve, Sweep  # noqa: E402
from genneg import analysis, states  # noqa: E402
from genneg.channels import ChannelKind, apply_local_channel  # noqa: E402

BENCH_WORKLOADS = ("solve-n4", "sweep-n3", "ensemble-n3")
CHANNELS = ("ad", "pd", "dp")
HARD_NAMED = ("ghz4", "w4", "d24", "singlet4", "cluster4", "chi4")
HARD_NAMED_S = (0.01, 0.03, 0.05)
HARD_BASES = (77001, 93001)
HARD_MEMBERS = 6
HARD_RANDOM_S = (0.02, 0.05)
ORACLE_BASE = 48001
ORACLE_ROTATED = 20
ORACLE_NOISY = 10
ORACLE_CHANNELS = ("pd", "dp")
ORACLE_S = (0.05, 0.2)


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
        seeds = [states.derive_seed(base, i) for i in range(HARD_MEMBERS)]
        members = [(f"{generator.value}{base}/{i}", states.random_state(generator, 4, seed))
                   for i, seed in enumerate(seeds) for generator in states.GeneratorKind]
        groups[f"random{base}"] = points(members, HARD_RANDOM_S)
    return groups


def ghz_basis(nqubits: int) -> np.ndarray:
    """The 2^N GHZ states (|0k> + |1k'>)/√2 and (|0k> - |1k'>)/√2 as columns, k' the complement of k."""
    d = 2**nqubits
    basis = np.zeros((d, d))
    for k in range(d // 2):
        basis[[k, d - 1 - k], 2 * k] = 2**-0.5
        basis[[k, d - 1 - k], 2 * k + 1] = 2**-0.5, -(2**-0.5)
    return basis


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random 2 x 2 unitary: the Q of a complex Gaussian matrix, with R's phases."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def ghz_diagonal_state(nqubits: int, seed: int, rotated: bool = False) -> np.ndarray:
    """A seeded full-rank density matrix that is diagonal in the GHZ basis.

    One basis state, at random, gets a weight of 0.3-0.9 and a flat
    Dirichlet draw spreads the rest over all of them, so E is positive for
    most states but not all.  ``rotated`` turns the state by a Haar-random
    local unitary U_1 ⊗ ... ⊗ U_N, which leaves E unchanged.
    """
    rng = states.seeded_rng(seed)
    d = 2**nqubits
    top = rng.uniform(0.3, 0.9)
    weights = (1 - top) * rng.dirichlet(np.ones(d))
    weights[rng.integers(d)] += top
    basis = ghz_basis(nqubits)
    rho = ((basis * weights) @ basis.T).astype(complex)
    if rotated:
        u = reduce(np.kron, [haar_unitary(rng) for _ in range(nqubits)])
        rho = u @ rho @ u.conj().T
    return (rho + rho.conj().T) / 2


def ghz_diagonal_negativity(rho: np.ndarray) -> float:
    """E = max(0, λ_max - 1/2) of a state that local unitaries turn GHZ-diagonal.

    Its largest eigenvalue is the largest GHZ weight; such a state is
    genuinely multipartite entangled iff that exceeds 1/2 (Gühne-Seevinck,
    New J. Phys. 12, 053002 (2010)).  For any other state the value means
    nothing.
    """
    return max(0.0, float(np.linalg.eigvalsh(rho)[-1]) - 0.5)


def oracle_points() -> dict:
    """Group name -> [(label, job)] of the 4-qubit GHZ-diagonal points."""
    seeds = [states.derive_seed(ORACLE_BASE, i) for i in range(ORACLE_ROTATED + ORACLE_NOISY)]
    pd = ChannelKind.PHASE_DAMPING
    rotated = [(f"ghzdiag{ORACLE_BASE}/{i}/rotated",
                (ghz_diagonal_state(4, seed, rotated=True), pd, 0.0, 4))
               for i, seed in enumerate(seeds[:ORACLE_ROTATED])]
    noisy = [(f"ghzdiag{ORACLE_BASE}/{i}/{ch}/{s:g}",
              (ghz_diagonal_state(4, seed), ChannelKind.parse(ch), s, 4))
             for i, seed in enumerate(seeds[ORACLE_ROTATED:], ORACLE_ROTATED)
             for ch in ORACLE_CHANNELS for s in ORACLE_S]
    return {"rotated": rotated, "noisy": noisy}


def oracle_error(record: dict, job) -> float:
    """|E - closed form| over the bracket width of one oracle point (0 when both are 0)."""
    rho0, kind, s, n = job
    error = abs(record["E"] - ghz_diagonal_negativity(apply_local_channel(rho0, kind, s, n)))
    width = record["E_hi"] - record["E_lo"]
    return error / width if width > 0 else (0.0 if error == 0 else float("inf"))


def summary(group: str, records: list, jobs: list | None = None) -> dict:
    """A group's counts and unusable points; given the jobs of oracle points, also the worst error."""
    iterations = [r["iterations"] for r in records]
    out = {"group": group, "points": len(records), "iterations": sum(iterations),
           "most_iterations": max(iterations),
           "failures": {r["label"]: float(f"{r['E_hi'] - r['E_lo']:.3g}")
                        for r in records if not r["ok"]}}
    if jobs is not None:
        errors = [(oracle_error(r, job), r["label"]) for r, job in zip(records, jobs) if r["ok"]]
        worst, label = max(errors, default=(0.0, None))
        out.update(worst_error_per_width=float(f"{worst:.4g}"), worst_point=label)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set", choices=("bench", "hard", "oracle"))
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", type=Path, help="write one JSON record per point here")
    args = parser.parse_args(argv)
    try:
        analysis.resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.perf_counter()
    groups = {"bench": bench_points, "hard": hard_points, "oracle": oracle_points}[args.set]()
    points = [point for group in groups.values() for point in group]
    jobs = [job for _, job in points]
    records = [{"label": label, **record} for (label, _), record in
               zip(points, analysis._run_jobs(jobs, args.workers))]
    oracle = args.set == "oracle"
    start = 0
    for name, group in groups.items():
        end = start + len(group)
        print(json.dumps(summary(name, records[start:end], jobs[start:end] if oracle else None)))
        start = end
    print(json.dumps({**summary("all", records, jobs if oracle else None),
                      "seconds": round(time.perf_counter() - t0, 1)}))
    if args.out is not None:
        args.out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
