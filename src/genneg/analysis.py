"""Decay sweeps, the logarithmic decay rate η, and ensemble statistics.

For a state ρ0 and a noise model, a sweep evaluates E(s) on a grid of the
dimensionless time s = Γt (each point evolved directly from ρ0, which is
exact for these semigroup channels) and differentiates ln E numerically:

    η(s) = d ln E(s) / ds

η is reported only where E stays above a floor of 1e-5; the finite-difference
quotient is ill-conditioned near entanglement death, and the study
deliberately avoids those timescales.  Ensembles of random states report the
per-grid-point mean μ and population variance δ of η over the included
realizations, with the band CI = μ ± sqrt(δ) (an error estimate, not a
confidence interval in the statistical sense).  Realizations whose E falls
below 1e-4 anywhere on the grid are excluded and counted.  Members are solved
and read in member order, and the study stops at the first member that ends
it: one with a failed point, or the exclusion that takes the count above 5%
of the ensemble (the expected rate is below 1%).  Later members are never
solved, so the first such cause in member order is the one reported.

CSV output columns: label,channel,s,E,eta,eta_lo,eta_hi with 12 significant
digits; eta_lo/eta_hi are blank for single states and carry the CI bounds for
ensemble rows.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .channels import ChannelKind, apply_local_channel
from .gmn import genuine_negativity
from .states import GeneratorKind, derive_seed, random_state, to_density
# unused here; perfbench's trace_targets patches them by name
from .states import haar_random_state, random_weighted_graph, weighted_graph_state  # noqa: F401

ETA_FLOOR = 1e-5         # E below this leaves eta undefined at that point
LIFETIME_FLOOR = 1e-4    # ensemble members dipping below this are excluded
MAX_EXCLUDED_FRACTION = 0.05
KINK_FACTOR = 10.0       # a kink's slope jump exceeds 10*h and 10x the jumps 2 points away


def default_grid(kind: ChannelKind, smin: float = 0.02, smax: float | None = None,
                 steps: int = 50) -> np.ndarray:
    """Uniform sweep grid; depolarizing uses a shorter range (faster death)."""
    if smax is None:
        smax = 0.5 if kind is ChannelKind.DEPOLARIZING else 1.0
    if not (math.isfinite(smin) and math.isfinite(smax)):
        raise ValueError(f"grid ends must be finite, got [{smin}, {smax}]")
    if not smin < smax:
        raise ValueError(f"need smin < smax, got [{smin}, {smax}]")
    if steps < 3:
        raise ValueError(f"need at least 3 grid points, got {steps}")
    return _check_grid(np.linspace(smin, smax, steps))


def _check_grid(grid: np.ndarray) -> np.ndarray:
    """The grid as floats, or ``ValueError`` unless η can be taken on it.

    Sweeps and ensembles check their grid here before any solve.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be a 1-D array with at least 3 points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid values must be finite")
    h = np.diff(grid)
    if np.any(h <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 0:
        raise ValueError("grid values must be nonnegative")
    if np.max(np.abs(h - h[0])) > 1e-9 * h[0]:
        raise ValueError("the finite-difference eta requires a uniformly spaced grid")
    return grid


def log_derivative(grid, values) -> np.ndarray:
    """Finite-difference d ln(values)/ds: central interiorly, one-sided at the ends.

    Points where ``values`` is below ``ETA_FLOOR`` (or not finite) yield NaN.  For
    exactly exponential input the central differences are exact; in general
    the interior error is O(h^2).
    """
    grid = _check_grid(grid)
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    h = float(grid[1] - grid[0])
    lnv = _log_above_floor(values)
    eta = np.full_like(values, np.nan)
    eta[1:-1] = (lnv[2:] - lnv[:-2]) / (2 * h)
    eta[0] = (lnv[1] - lnv[0]) / h
    eta[-1] = (lnv[-1] - lnv[-2]) / h
    eta[np.isnan(lnv)] = np.nan  # the undefined marker applies to the position itself
    return eta


def _log_above_floor(values: np.ndarray) -> np.ndarray:
    """ln(values) where they are finite and at least ``ETA_FLOOR``, NaN elsewhere."""
    lnv = np.full(values.shape, np.nan)
    ok = np.isfinite(values) & (values >= ETA_FLOOR)
    lnv[ok] = np.log(values[ok])
    return lnv


@dataclass
class SweepSeries:
    """E(s) and η(s) for one initial state under one channel."""

    label: str
    channel: ChannelKind
    grid: np.ndarray
    values: np.ndarray
    eta: np.ndarray
    kinks: list = field(default_factory=list)     # (s, left slope, right slope)
    failures: list = field(default_factory=list)  # (s, solver note)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class EnsembleSummary:
    """Pointwise η statistics over an ensemble of random states."""

    generator: GeneratorKind
    nqubits: int
    channel: ChannelKind
    count: int
    seed: int
    grid: np.ndarray
    mean_values: np.ndarray
    mean_eta: np.ndarray
    variance_eta: np.ndarray
    excluded: int
    members: list  # the SweepSeries of every included member, in member order

    @property
    def label(self) -> str:
        return f"{self.generator.value}{self.nqubits}-mean"

    @property
    def ci_low(self) -> np.ndarray:
        return self.mean_eta - np.sqrt(self.variance_eta)

    @property
    def ci_high(self) -> np.ndarray:
        return self.mean_eta + np.sqrt(self.variance_eta)


def _evaluate_point(job) -> dict:
    """The record of one job (ρ0, channel, s, nqubits): E of ρ0 evolved to s, and how it ended.

    ``E_lo``/``E_hi`` are the certified bracket, ``iterations``, ``status``
    and ``message`` the solver's stop.  ``ok`` holds when the bracket closed
    and its certificate was verified; otherwise ``E`` is NaN and ``note``
    says why.
    """
    rho0, kind, s, nqubits = job
    result = genuine_negativity(apply_local_channel(rho0, kind, s, nqubits), nqubits)
    if not result.solved:
        note = f"solver status {result.failure()}"
    elif not result.certificate_ok:
        note = "witness certificate failed verification"
    else:
        note = ""
    return {"E": math.nan if note else result.value, "E_lo": result.e_lo, "E_hi": result.e_hi,
            "iterations": result.solver.iterations, "status": result.solver.status.value,
            "message": result.solver.message, "ok": not note, "note": note}


_EXECUTORS: dict = {}

# Linux forks the pool's workers from this process, which has numpy, scipy and
# genneg loaded: on a 2-vCPU Xeon a pool of two started in 16-30 ms, against
# 0.47-0.88 s for interpreters that import them.  macOS and Windows have no
# safe fork and spawn.
_POOL_START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"


def resolve_workers(workers: int | None) -> int:
    """The worker count: ``workers``, else 1.

    A count below 1 raises ``ValueError``.
    """
    if workers is None:
        return 1
    count = int(workers)
    if count < 1:
        raise ValueError(f"--workers/workers must be at least 1, got {count}")
    return count


def _get_executor(workers: int) -> ProcessPoolExecutor:
    ex = _EXECUTORS.get(workers)
    if ex is None:
        import multiprocessing
        saved = {}
        # every worker runs one BLAS thread, so the processes do not
        # oversubscribe the cores and a pooled solve rounds as an in-process
        # one: the initializer holds sdp's one-thread policy for the worker's
        # lifetime, and a spawned worker also starts with single-threaded BLAS
        # (where there is no /proc, the policy finds no library to lower)
        if _POOL_START_METHOD == "spawn":
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                saved[var] = os.environ.get(var)
                os.environ[var] = "1"
        try:
            ex = ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context(_POOL_START_METHOD),
                                     initializer=_hold_one_blas_thread)
            list(ex.map(_warmup, range(workers)))  # start the workers now
        finally:
            for var, old in saved.items():
                if old is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = old
        _EXECUTORS[workers] = ex
    return ex


def _hold_one_blas_thread():
    """Pool initializer: the worker stays inside ``sdp``'s one-BLAS-thread policy."""
    sdp._ONE_BLAS_THREAD.__enter__()


def _warmup(_):
    return None


def _run_jobs(jobs, workers: int | None):
    """Yield every job's record (see ``_evaluate_point``) in job order.

    The jobs run in the calling process or in the cached pool.  Closing the
    generator early cancels the pool's chunks that no worker has started;
    the chunks already running finish and their records are dropped.
    A pool whose worker died (killed, or out of memory) is broken for good,
    so it is shut down and dropped from the cache before the
    ``BrokenProcessPool`` propagates; the next call starts a fresh pool.
    """
    nworkers = resolve_workers(workers)
    if nworkers <= 1 or len(jobs) <= 1:
        yield from map(_evaluate_point, jobs)
        return
    ex = _get_executor(nworkers)
    chunk = max(1, len(jobs) // (nworkers * 8))
    try:
        yield from ex.map(_evaluate_point, jobs, chunksize=chunk)
    except BrokenProcessPool:
        ex.shutdown(wait=False, cancel_futures=True)
        _EXECUTORS.pop(nworkers, None)
        raise


def _one_sided_kinks(grid, values) -> list:
    """(s, left slope, right slope) of ln E at each interior point that looks like a corner.

    The jump between the one-sided slopes at s_k is |(ln E)''| h for a smooth
    curve, so an absolute threshold flags every point where ln E bends hard,
    as it does near entanglement death.  A jump marks a kink only when it
    exceeds both ``KINK_FACTOR * h`` and ``KINK_FACTOR`` times the jumps two
    grid points away, which a corner (at or between grid points) disturbs
    only at the one or two points next to it.
    """
    h = float(grid[1] - grid[0])
    slopes = np.diff(_log_above_floor(values)) / h
    jumps = np.full(len(values), np.nan)
    jumps[1:-1] = np.abs(np.diff(slopes))
    kinks = []
    for k in range(1, len(grid) - 1):
        near = [jumps[j] for j in (k - 2, k + 2) if 0 <= j < len(jumps) and np.isfinite(jumps[j])]
        if jumps[k] > KINK_FACTOR * max([h] + near):
            kinks.append((float(grid[k]), float(slopes[k - 1]), float(slopes[k])))
    return kinks


def _series(label: str, kind: ChannelKind, grid: np.ndarray, records: list) -> SweepSeries:
    """The series of one state's point records on ``grid``: E, η, kinks and failed points."""
    values = np.array([r["E"] for r in records])
    failures = [(float(s), r["note"]) for s, r in zip(grid, records) if not r["ok"]]
    return SweepSeries(label=label, channel=kind, grid=grid, values=values,
                       eta=log_derivative(grid, values), kinks=_one_sided_kinks(grid, values),
                       failures=failures)


def sweep(rho0: np.ndarray, kind: ChannelKind, grid, nqubits: int,
          label: str = "", workers: int | None = None) -> SweepSeries:
    """Evaluate E and η along a grid of elapsed noise values.

    Solver failures are flagged on the returned series (NaN at the failing
    point), never dropped.  Where the two one-sided difference quotients of
    ln E disagree strongly the location is recorded in ``kinks``; no smoothing
    is applied.
    """
    grid = _check_grid(grid)
    label = _check_label(label or "state")
    jobs = [(rho0, kind, float(s), nqubits) for s in grid]
    return _series(label, kind, grid, list(_run_jobs(jobs, workers)))


def ensemble_from_densities(rhos, generator: GeneratorKind, kind: ChannelKind,
                            grid, nqubits: int, seed: int = 0,
                            workers: int | None = None,
                            member_labels: list | None = None) -> EnsembleSummary:
    """Ensemble statistics over explicitly provided density matrices.

    Each member's series is built as a sweep's is, in member order, and the
    study stops at the first member that ends it: a failed point raises
    "solver failure for ensemble member i", and the exclusion that takes the
    excluded count above ``MAX_EXCLUDED_FRACTION`` of the ensemble raises
    "fell below".  The first cause in member order wins, since no later
    member is solved; within one member a failed point outranks its
    exclusion.  ``member_labels`` (default ``member-000``, ...) must give one
    label per member.
    """
    grid = _check_grid(grid)
    count = len(rhos)
    if count < 2:
        raise ValueError(f"ensemble needs at least 2 members, got {count}")
    labels = member_labels if member_labels is not None else [
        f"member-{i:03d}" for i in range(count)]
    if len(labels) != count:
        raise ValueError(f"{len(labels)} member labels for {count} ensemble members")
    for mlabel in labels:
        _check_label(mlabel)
    jobs = [(rho, kind, float(s), nqubits) for rho in rhos for s in grid]
    members = []
    excluded = 0
    with contextlib.closing(_run_jobs(jobs, workers)) as records:
        for i, mlabel in enumerate(labels):
            member = _series(mlabel, kind, grid, list(itertools.islice(records, len(grid))))
            if member.failures:
                s, note = member.failures[0]
                raise RuntimeError(f"solver failure for ensemble member {i} at s={s:g}: {note}")
            if not np.any(member.values < LIFETIME_FLOOR):
                members.append(member)
                continue
            excluded += 1
            if excluded > MAX_EXCLUDED_FRACTION * count:
                raise RuntimeError(
                    f"{excluded} of the first {i + 1} of {count} ensemble members fell below "
                    f"E = {LIFETIME_FLOOR:g} on the grid (more than "
                    f"{MAX_EXCLUDED_FRACTION:.0%} of {count}); "
                    "shorten the grid or inspect the generator")
    eta = np.array([m.eta for m in members])
    return EnsembleSummary(
        generator=generator, nqubits=nqubits, channel=kind, count=count, seed=seed,
        grid=grid, mean_values=np.array([m.values for m in members]).mean(axis=0),
        mean_eta=eta.mean(axis=0), variance_eta=eta.var(axis=0),  # population variance
        excluded=excluded, members=members)


def ensemble_study(generator, count: int, kind: ChannelKind, grid, seed: int,
                   nqubits: int, workers: int | None = None) -> EnsembleSummary:
    """Random-state ensemble study; deterministic for a fixed (seed, count, grid).

    Member i uses the derived seed ``derive_seed(seed, i)``, so a single base
    seed reproduces the whole ensemble bit for bit.
    """
    generator = GeneratorKind.parse(generator)
    rhos = [to_density(random_state(generator, nqubits, derive_seed(seed, i)))
            for i in range(count)]
    labels = [f"{generator.value}{nqubits}-r{i:03d}" for i in range(count)]
    return ensemble_from_densities(rhos, generator, kind, grid, nqubits, seed=seed,
                                   workers=workers, member_labels=labels)


# -- ranking -----------------------------------------------------------------


@dataclass
class RobustnessReport:
    """Per-grid-point ranking of states by η (larger = slower relative decay)."""

    channel: ChannelKind
    grid: np.ndarray
    labels: list
    eta_rows: np.ndarray  # len(labels) x len(grid)

    def eta_of(self, label: str) -> np.ndarray:
        return self.eta_rows[self.labels.index(label)]

    def rankings(self) -> list:
        out = []
        for k in range(len(self.grid)):
            col = self.eta_rows[:, k]
            order = np.argsort(-np.where(np.isfinite(col), col, -np.inf))
            out.append([self.labels[i] for i in order])
        return out

    def winners(self) -> list:
        return [ranked[0] for ranked in self.rankings()]

    def _points(self, interior: bool):
        return slice(1, -1) if interior else slice(None)

    def always_leads(self, label: str, others=None, tol: float = 0.0,
                     interior: bool = True) -> bool:
        """True if ``label`` has the largest η (within ``tol``) at every point."""
        mine = self.eta_of(label)[self._points(interior)]
        for other in (others or [l for l in self.labels if l != label]):
            theirs = self.eta_of(other)[self._points(interior)]
            if not np.all(mine >= theirs - tol):
                return False
        return True

    def always_above(self, label: str, other: str, margin: float = 0.0,
                     interior: bool = True) -> bool:
        pts = self._points(interior)
        return bool(np.all(self.eta_of(label)[pts] > self.eta_of(other)[pts] + margin))

    def to_text(self) -> str:
        lines = [f"robustness ranking under {self.channel.value} "
                 f"(most robust first; eta in parentheses)"]
        by_label = {l: self.eta_rows[i] for i, l in enumerate(self.labels)}
        for k, ranked in enumerate(self.rankings()):
            cells = ", ".join(f"{l} ({by_label[l][k]:+.4f})" for l in ranked)
            lines.append(f"s = {self.grid[k]:.4f}: {cells}")
        return "\n".join(lines)


def robustness_report(series: list, summaries: list | None = None) -> RobustnessReport:
    """Rank sweep series (and ensemble means) by η on their common grid."""
    if not series and not summaries:
        raise ValueError("nothing to rank")
    entries = [(s.label, s.channel, s.grid, s.eta) for s in series]
    entries += [(m.label, m.channel, m.grid, m.mean_eta) for m in (summaries or [])]
    label0, channel0, grid0, _ = entries[0]
    rows = []
    labels = []
    for label, channel, grid, eta in entries:
        if channel is not channel0:
            raise ValueError(f"series {label!r} uses channel {channel.value}, "
                             f"expected {channel0.value}")
        if grid.shape != grid0.shape or not np.allclose(grid, grid0, rtol=0, atol=1e-12):
            raise ValueError(f"series {label!r} grid does not match the common grid")
        if label in labels:
            raise ValueError(f"duplicate label {label!r}")
        labels.append(label)
        rows.append(eta)
    return RobustnessReport(channel=channel0, grid=grid0, labels=labels,
                            eta_rows=np.array(rows))


# -- CSV ----------------------------------------------------------------------

CSV_HEADER = "label,channel,s,E,eta,eta_lo,eta_hi"


def _check_label(label: str) -> str:
    """The label, unless it holds what would break its CSV field.

    The rows are written unquoted, in ASCII: a comma, a quote or a line break
    would split or merge fields, and a non-ASCII character fails the write
    after every solve has run.
    """
    if not label.isascii() or any(ch in label for ch in ',"\r\n'):
        raise ValueError(f"label {label!r} cannot be a CSV field: it holds a comma, "
                         "a quote, a line break or a non-ASCII character")
    return label


def _fmt(x: float) -> str:
    if x is None or not np.isfinite(x):
        return ""
    return f"{x:.12g}"


def series_csv_rows(series: SweepSeries) -> list:
    rows = []
    for s, e, eta in zip(series.grid, series.values, series.eta):
        rows.append(f"{series.label},{series.channel.value},{_fmt(s)},{_fmt(e)},{_fmt(eta)},,")
    return rows


def summary_csv_rows(summary: EnsembleSummary) -> list:
    """The mean rows, with the CI band in eta_lo/eta_hi."""
    ch = summary.channel.value
    ci_low, ci_high = summary.ci_low, summary.ci_high
    return [f"{summary.label},{ch},{_fmt(s)},{_fmt(summary.mean_values[k])},"
            f"{_fmt(summary.mean_eta[k])},{_fmt(ci_low[k])},{_fmt(ci_high[k])}"
            for k, s in enumerate(summary.grid)]


def write_csv(path, rows: list) -> None:
    """Write header + rows atomically (temp file then rename)."""
    text = "\n".join([CSV_HEADER] + list(rows)) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
