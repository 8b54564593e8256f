"""Workloads, correctness checks and measured passes of the genneg benchmark.

The benchmark drives ``genneg`` from outside, through its public functions and
``genneg.cli.main`` only.  Each workload is a list of *items*, one user call
each: a single ``gmn.genuine_negativity`` solve, a ``genneg sweep`` or a
``genneg ensemble`` command.  A pass runs every item once, in an order drawn
from the run's seed.  The states themselves are fixed, so that every E value
can be checked against a closed form, an independent bound, or a reference
(``reference.json``, recorded from the commit that introduced the benchmark),
and so that the spread between runs measures the machine, not the choice of
states.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the benchmark measures the source tree of its own checkout
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import genneg  # noqa: E402
from genneg import analysis, channels, cli, gmn, sdp, states  # noqa: E402

from tracing import Tracer, per_span_cost, summarize, to_records  # noqa: E402

E_TOL = 1e-6           # |E - oracle or reference|
ETA_TOL = 2e-3         # |eta - closed-form rate| for the GHZ dephasing laws
BOUND_TOL = 1e-7       # E <= min_M N_M(rho) + this
HAAR4_SEED = 1310      # the one Haar-4 state of solve-n4
OUT_DIR = ROOT / ".perfbench"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def pool_workers() -> int:
    """Two workers, as in the paper-scale runs, but never more than the cores."""
    return max(1, min(2, os.cpu_count() or 1))


# -- oracles ------------------------------------------------------------------

_DECAY_RATE = {("ghz3", "pd"): -1.5, ("ghz4", "pd"): -2.0}  # E = exp(rate*s)/2


def evolved(rho0, channel: str, s: float, nqubits: int) -> np.ndarray:
    return channels.apply_local_channel(rho0, channels.ChannelKind.parse(channel), s, nqubits)


def exact_value(state: str, channel: str, s: float, rho_s, nqubits: int):
    """Closed-form or eigendecomposition value of E, or None when there is none."""
    rate = _DECAY_RATE.get((state, channel))
    if rate is not None:
        return 0.5 * math.exp(rate * s)
    if nqubits == 2:  # E is the partial-transpose negativity for two qubits
        return gmn.bipartite_negativity(rho_s, (0,), 2)
    return None


def point_problems(label: str, value, exact, reference, rho_s=None, nqubits=0) -> list:
    """Why one E value is wrong (empty when it passes every applicable check)."""
    if value is None or not math.isfinite(value):
        return [f"{label}: no finite E"]
    out = []
    if exact is not None:
        if abs(value - exact) > E_TOL:
            out.append(f"{label}: E={value:.9g} differs from oracle {exact:.9g}")
    elif reference is None:
        out.append(f"{label}: no reference value")
    elif abs(value - reference) > E_TOL:
        out.append(f"{label}: E={value:.9g} differs from reference {reference:.9g}")
    if nqubits == 4:
        bound = min(gmn.bipartite_negativity(rho_s, part.members, 4)
                    for part in gmn.bipartitions(4))
        if value > bound + BOUND_TOL:
            out.append(f"{label}: E={value:.9g} exceeds min_M N_M = {bound:.9g}")
    return out


def _named_density(state: str) -> np.ndarray:
    return states.to_density(states.named_state(state))


def _read_csv(path) -> list:
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for col in ("s", "E", "eta"):
            row[col] = float(row[col]) if row[col] else None
    return rows


def _same_grid(grid, ref_grid) -> bool:
    """True when no reference grid is recorded or ``grid`` matches it."""
    return ref_grid is None or (len(grid) == len(ref_grid) and all(
        abs(a - b) <= 1e-9 for a, b in zip(grid, ref_grid)))


def _call_cli(argv) -> tuple:
    """Run ``genneg.cli.main`` in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


# -- items --------------------------------------------------------------------


@dataclass(frozen=True)
class Solve:
    """One in-process ``gmn.genuine_negativity`` call on a noisy state."""

    state: str        # a named state, or "haar" for the Haar state HAAR4_SEED
    channel: str
    s: float

    @property
    def key(self) -> str:
        return f"solve/{self.state}/{self.channel}/s={self.s:g}"

    def initial(self, nqubits: int) -> np.ndarray:
        if self.state == "haar":
            return states.to_density(states.haar_random_state(nqubits, HAAR4_SEED))
        return _named_density(self.state)

    def run(self, nqubits: int, workers: int, out_dir) -> dict:
        rho_s = evolved(self.initial(nqubits), self.channel, self.s, nqubits)
        t0 = time.perf_counter()
        result = gmn.genuine_negativity(rho_s, nqubits)
        elapsed = time.perf_counter() - t0
        return {"key": self.key, "elapsed": elapsed, "E": result.value,
                "ok": bool(result.solved and result.certificate_ok),
                "status": result.solver.status.value, "message": result.solver.message,
                "iterations": result.solver.iterations}

    def check(self, out: dict, reference: dict, nqubits: int) -> tuple:
        if not out["ok"]:
            return 1, 1, [f"{self.key}: unsolved or uncertified ({out['status']}: {out['message']})"]
        rho_s = evolved(self.initial(nqubits), self.channel, self.s, nqubits)
        exact = exact_value(self.state, self.channel, self.s, rho_s, nqubits)
        ref = reference.get(self.key, {}).get("E")
        problems = point_problems(self.key, out["E"], exact, ref, rho_s, nqubits)
        return 1, int(bool(problems)), problems

    def record(self, out: dict) -> dict:
        return {"E": out["E"]}


@dataclass(frozen=True)
class Sweep:
    """One ``genneg sweep`` command on the default 50-point grid unless ``steps`` is set."""

    state: str
    channel: str
    steps: int = 50

    @property
    def key(self) -> str:
        return f"sweep/{self.state}/{self.channel}/steps={self.steps}"

    def run(self, nqubits: int, workers: int, out_dir) -> dict:
        path = Path(out_dir) / f"sweep-{self.state}-{self.channel}.csv"
        argv = ["sweep", "--state", self.state, "--channel", self.channel,
                "--steps", str(self.steps), "--workers", str(workers), "--out", str(path)]
        t0 = time.perf_counter()
        rc, err = _call_cli(argv)
        elapsed = time.perf_counter() - t0
        rows = _read_csv(path) if rc == 0 else []
        return {"key": self.key, "elapsed": elapsed, "rc": rc, "stderr": err[-300:],
                "s": [r["s"] for r in rows], "E": [r["E"] for r in rows],
                "eta": [r["eta"] for r in rows]}

    def check(self, out: dict, reference: dict, nqubits: int) -> tuple:
        if out["rc"] != 0:
            return self.steps, self.steps, [f"{self.key}: exit code {out['rc']}: {out['stderr']}"]
        ref = reference.get(self.key, {})
        if not _same_grid(out["s"], ref.get("s")):
            return self.steps, self.steps, [f"{self.key}: grid differs from the reference grid"]
        ref_e = ref.get("E", [None] * len(out["E"]))
        rate = _DECAY_RATE.get((self.state, self.channel))
        rho0 = _named_density(self.state)
        problems = []
        failed = 0
        if len(out["E"]) != self.steps:
            problems.append(f"{self.key}: {len(out['E'])} rows, expected {self.steps}")
        for k, (s, e, eta) in enumerate(zip(out["s"], out["E"], out["eta"])):
            label = f"{self.key}@s={s:g}"
            rho_s = evolved(rho0, self.channel, s, nqubits)
            exact = exact_value(self.state, self.channel, s, rho_s, nqubits)
            mine = point_problems(label, e, exact, ref_e[k] if k < len(ref_e) else None,
                                  rho_s, nqubits)
            if rate is not None and eta is not None and abs(eta - rate) > ETA_TOL:
                mine.append(f"{label}: eta={eta:.6g} differs from {rate:g}")
            failed += bool(mine)
            problems += mine
        failed += max(0, self.steps - len(out["E"]))
        return self.steps, min(failed, self.steps), problems

    def record(self, out: dict) -> dict:
        return {"s": out["s"], "E": out["E"]}


@dataclass(frozen=True)
class Ensemble:
    """One ``genneg ensemble --members`` command."""

    generator: str    # haar or wgs
    channel: str
    seed: int
    count: int
    steps: int
    smax: float

    @property
    def key(self) -> str:
        return (f"ensemble/{self.generator}/{self.channel}/seed={self.seed}/"
                f"count={self.count}/steps={self.steps}/smax={self.smax:g}")

    def run(self, nqubits: int, workers: int, out_dir) -> dict:
        path = Path(out_dir) / f"ensemble-{self.generator}-{self.channel}.csv"
        argv = ["ensemble", "--generator", self.generator, "--n", str(nqubits),
                "--count", str(self.count), "--steps", str(self.steps),
                "--smax", str(self.smax), "--seed", str(self.seed),
                "--channel", self.channel, "--workers", str(workers), "--members",
                "--out", str(path)]
        t0 = time.perf_counter()
        rc, err = _call_cli(argv)
        elapsed = time.perf_counter() - t0
        members = {}
        grid = []
        if rc == 0:
            for row in _read_csv(path):
                if row["label"].endswith("-mean"):
                    grid.append(row["s"])
                else:
                    members.setdefault(row["label"], []).append(row["E"])
        return {"key": self.key, "elapsed": elapsed, "rc": rc, "stderr": err[-300:],
                "s": grid, "members": members, "excluded": self.count - len(members)}

    def member_density(self, index: int, nqubits: int) -> np.ndarray:
        seed = states.derive_seed(self.seed, index)
        if self.generator == "haar":
            return states.to_density(states.haar_random_state(nqubits, seed))
        return states.to_density(states.weighted_graph_state(
            states.random_weighted_graph(nqubits, seed)))

    def check(self, out: dict, reference: dict, nqubits: int) -> tuple:
        points = self.count * self.steps
        if out["rc"] != 0:
            return points, points, [f"{self.key}: exit code {out['rc']}: {out['stderr']}"]
        ref = reference.get(self.key, {})
        if out["excluded"] != ref.get("excluded"):
            return points, points, [f"{self.key}: {out['excluded']} exclusions, "
                                    f"reference {ref.get('excluded')}"]
        if not _same_grid(out["s"], ref.get("s")):
            return points, points, [f"{self.key}: grid differs from the reference grid"]
        ref_members = ref.get("members", {})
        problems = []
        failed = 0
        for label, values in out["members"].items():
            index = int(label.rsplit("-r", 1)[1])
            rho0 = self.member_density(index, nqubits)
            ref_e = ref_members.get(label, [None] * len(values))
            if len(values) != len(out["s"]):
                problems.append(f"{self.key}/{label}: {len(values)} rows for {len(out['s'])} points")
                failed += len(out["s"])
                continue
            for k, (s, e) in enumerate(zip(out["s"], values)):
                rho_s = evolved(rho0, self.channel, s, nqubits)
                exact = exact_value(self.generator, self.channel, s, rho_s, nqubits)
                mine = point_problems(f"{self.key}/{label}@s={s:g}", e, exact,
                                      ref_e[k] if k < len(ref_e) else None, rho_s, nqubits)
                failed += bool(mine)
                problems += mine
        return points, min(failed, points), problems

    def record(self, out: dict) -> dict:
        return {"s": out["s"], "excluded": out["excluded"], "members": out["members"]}


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    nqubits: int
    pooled: bool      # sweeps and ensembles use the spawn pool; solves run in-process
    items: tuple


WORKLOADS = {w.name: w for w in (
    # the paper's core size: dense 2048^2 Schur assembly and Cholesky dominate
    Workload("solve-n4", 4, False, (
        Solve("ghz4", "pd", 0.2), Solve("w4", "ad", 0.2),
        Solve("cluster4", "dp", 0.1), Solve("haar", "ad", 0.2))),
    # the CLI's main use: many ~0.1 s solves, pool dispatch and CSV writing
    Workload("sweep-n3", 3, True, (
        Sweep("ghz3", "pd"), Sweep("w3", "ad"), Sweep("w3b", "dp"))),
    # generic states without strictly complementary optima: most points stall
    Workload("ensemble-n3", 3, True, (
        Ensemble("haar", "pd", seed=7, count=10, steps=5, smax=0.5),
        Ensemble("wgs", "ad", seed=7, count=10, steps=5, smax=0.3))),
    # a seconds-long configuration for the benchmark's own tests (every item kind, N=2)
    Workload("smoke-n2", 2, True, (
        Solve("ghz2", "pd", 0.2), Sweep("ghz2", "ad", steps=5),
        Ensemble("haar", "pd", seed=3, count=3, steps=4, smax=0.3))),
)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload: Workload) -> dict:
    """Cold program build for the workload's size, then the pool spawn if it uses one."""
    n = workload.nqubits
    t0 = time.perf_counter()
    gmn.build_program(np.eye(2**n) / 2**n, n).prep()
    build_s = time.perf_counter() - t0
    pool_start_s = 0.0
    workers = 1
    if workload.pooled:
        workers = pool_workers()
        kind = channels.ChannelKind.PHASE_DAMPING
        t0 = time.perf_counter()
        analysis.sweep(_named_density("ghz2"), kind, analysis.default_grid(kind, steps=3), 2,
                       workers=workers)
        pool_start_s = time.perf_counter() - t0
    return {"build_s": build_s, "pool_start_s": pool_start_s, "workers": workers}


def run_pass(workload: Workload, order, workers: int) -> tuple:
    """Run every item once; returns (wall seconds, outcomes in run order)."""
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        outcomes = [(item, item.run(workload.nqubits, workers, out_dir)) for item in order]
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return wall, outcomes


def check_pass(workload: Workload, outcomes, reference: dict) -> tuple:
    """(points attempted, points failed, problems) over one pass's outcomes."""
    attempted = failed = 0
    problems = []
    for item, out in outcomes:
        a, f, p = item.check(out, reference, workload.nqubits)
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems


# -- tracing --------------------------------------------------------------------


def _describe_solution(sol) -> dict:
    stalled = sol.status is not sdp.SdpStatus.OPTIMAL and "stalled" in sol.message
    return {"status": sol.status.value, "iterations": sol.iterations, "stalled": stalled}


def trace_targets() -> list:
    """The module attributes the layers call through, with their span names."""
    generators = ("haar_random_state", "random_weighted_graph", "weighted_graph_state",
                  "to_density")
    return ([(cli, "main", "cli", None),
             (analysis, "sweep", "analysis", None),
             (analysis, "ensemble_study", "analysis", None),
             (analysis, "write_csv", "analysis.csv", None),
             (gmn, "genuine_negativity", "gmn", None),
             (analysis, "genuine_negativity", "gmn", None),
             (gmn, "verify_certificate", "gmn.verify", None),
             (sdp, "solve", "sdp", _describe_solution),
             (channels, "apply_local_channel", "channels", None),
             (analysis, "apply_local_channel", "channels", None)]
            + [(states, g, "states", None) for g in generators]
            + [(analysis, g, "states", None) for g in generators])


def layer_metrics(spans, setup_info: dict, traced_wall: float, pool_wall: float | None,
                  workers: int, span_cost: float) -> dict:
    """Per-layer metrics from one traced pass (see DESIGN.md for what each should move).

    ``pool_wall`` is the untraced pass with the pool; without a pool the
    pool efficiency is 1 by definition.
    """
    table = summarize(spans)

    def col(name, key):
        return table.get(name, {}).get(key, 0.0)

    solves = [s.attrs for s in spans if s.name == "sdp"]
    n_solves = max(1, len(solves))
    iters = sum(a["iterations"] for a in solves)
    optimal = sum(a["status"] == "optimal" for a in solves)
    stalled = sum(a["stalled"] for a in solves)
    solve_s = col("sdp", "total_s")
    return {
        "sdp.solve_s": (solve_s, "s"),
        "sdp.iters": (iters, "count"),
        "sdp.iter_s": (solve_s / max(1, iters), "s"),
        "sdp.optimal_frac": (optimal / n_solves, "frac"),
        "sdp.stall_frac": (stalled / n_solves, "frac"),
        "sdp.fail": (len(solves) - optimal - stalled, "count"),
        "gmn.self_s": (col("gmn", "self_s"), "s"),
        "gmn.verify_s": (col("gmn.verify", "total_s"), "s"),
        "gmn.build_s": (setup_info["build_s"], "s"),
        "channels.apply_s": (col("channels", "total_s"), "s"),
        "channels.calls": (int(col("channels", "count")), "count"),
        "states.gen_s": (col("states", "total_s"), "s"),
        "analysis.pool_start_s": (setup_info["pool_start_s"], "s"),
        "analysis.self_s": (col("analysis", "self_s"), "s"),
        "analysis.csv_s": (col("analysis.csv", "total_s"), "s"),
        "analysis.pool_eff": (traced_wall / (workers * pool_wall) if pool_wall else 1.0,
                              "ratio"),
        "cli.self_s": (col("cli", "self_s"), "s"),
        "trace.overhead_frac": (span_cost * len(spans) / traced_wall, "frac"),
    }


def traced_pass(workload: Workload, order) -> tuple:
    """One in-process, single-worker pass with every layer boundary traced."""
    tracer = Tracer()
    with tracer.patched(trace_targets()):
        wall, outcomes = run_pass(workload, order, 1)
    return wall, outcomes, tracer.spans


def write_spans(spans, workload: Workload, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_records(spans), fh)
    return path


# -- host -------------------------------------------------------------------------


def host_info() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {v: os.environ.get(v, "unset") for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "genneg": genneg.__version__,
            "numba": genneg._kernels.skron_into is not None,
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": threads}


def shuffled(items, rng: random.Random) -> list:
    order = list(items)
    rng.shuffle(order)
    return order
