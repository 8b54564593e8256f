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
below 1e-4 anywhere on the grid are excluded and counted; more than 5%
exclusions aborts the study, since the expected rate is below 1%.

CSV output columns: label,channel,s,E,eta,eta_lo,eta_hi with 12 significant
digits; eta_lo/eta_hi are blank for single states and carry the CI bounds for
ensemble rows.
"""

from __future__ import annotations

import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channels import ChannelKind, apply_local_channel
from .gmn import genuine_negativity
from .sdp import SdpOptions
from .states import (derive_seed, haar_random_state, random_weighted_graph,
                     to_density, weighted_graph_state)

ETA_FLOOR = 1e-5         # E below this leaves eta undefined at that point
LIFETIME_FLOOR = 1e-4    # ensemble members dipping below this are excluded
MAX_EXCLUDED_FRACTION = 0.05
KINK_FACTOR = 10.0       # one-sided slopes differing by > 10*h mark a kink

WORKERS_ENV = "GENNEG_WORKERS"


class GeneratorKind(Enum):
    HAAR_RANDOM = "haar"
    WEIGHTED_GRAPH = "wgs"

    @classmethod
    def parse(cls, text: str) -> "GeneratorKind":
        key = str(text).strip().lower()
        for kind in cls:
            if key in (kind.value, kind.name.lower()):
                return kind
        raise ValueError(f"unknown generator {text!r} (expected 'haar' or 'wgs')")


def default_grid(kind: ChannelKind, smin: float = 0.02, smax: float | None = None,
                 steps: int = 50) -> np.ndarray:
    """Uniform sweep grid; depolarizing uses a shorter range (faster death)."""
    if smax is None:
        smax = 0.5 if kind is ChannelKind.DEPOLARIZING else 1.0
    if not smin < smax:
        raise ValueError(f"need smin < smax, got [{smin}, {smax}]")
    if smin < 0:
        raise ValueError(f"grid start must be nonnegative, got {smin}")
    if steps < 3:
        raise ValueError(f"need at least 3 grid points, got {steps}")
    return np.linspace(smin, smax, steps)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be a 1-D array with at least 3 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 0:
        raise ValueError("grid values must be nonnegative")
    return grid


def log_derivative(grid, values, floor: float = ETA_FLOOR) -> np.ndarray:
    """Finite-difference d ln(values)/ds: central interiorly, one-sided at the ends.

    Points where ``values`` is below ``floor`` (or not finite) yield NaN.  For
    exactly exponential input the central differences are exact; in general
    the interior error is O(h^2).
    """
    grid = _check_grid(grid)
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    h = np.diff(grid)
    if np.max(np.abs(h - h[0])) > 1e-9 * h[0]:
        raise ValueError("log_derivative requires a uniformly spaced grid")
    h = float(h[0])
    lnv = np.full_like(values, np.nan)
    ok = np.isfinite(values) & (values >= floor)
    lnv[ok] = np.log(values[ok])
    eta = np.full_like(values, np.nan)
    eta[1:-1] = (lnv[2:] - lnv[:-2]) / (2 * h)
    eta[0] = (lnv[1] - lnv[0]) / h
    eta[-1] = (lnv[-1] - lnv[-2]) / h
    eta[~ok] = np.nan  # the undefined marker applies to the position itself
    return eta


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
    ci_low: np.ndarray
    ci_high: np.ndarray
    excluded: int
    members: list | None = None

    @property
    def label(self) -> str:
        return f"{self.generator.value}{self.nqubits}-mean"


def _evaluate_point(job):
    """E(ρ(s)) for one grid point; returns (value, ok, note)."""
    rho0, kind, s, nqubits, options = job
    rho_s = apply_local_channel(rho0, kind, s, nqubits)
    result = genuine_negativity(rho_s, nqubits, options)
    if not result.solved:
        return math.nan, False, f"solver status {result.solver.status.value}: {result.solver.message}"
    if not result.certificate_ok:
        return math.nan, False, "witness certificate failed verification"
    return result.value, True, ""


_EXECUTORS: dict = {}


def resolve_workers(workers: int | None) -> int:
    """The worker count: ``workers``, else ``GENNEG_WORKERS``, else 1.

    A count below 1 raises ``ValueError`` naming where it came from.
    """
    if workers is not None:
        count, source = int(workers), "--workers/workers"
    else:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return 1
        try:
            count, source = int(env), WORKERS_ENV
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if count < 1:
        raise ValueError(f"{source} must be at least 1, got {count}")
    return count


def _get_executor(workers: int) -> ProcessPoolExecutor:
    ex = _EXECUTORS.get(workers)
    if ex is None:
        import multiprocessing
        saved = {}
        # the spawn-time half of the one-BLAS-thread policy (sdp.solve holds
        # the other): workers start with single-threaded BLAS, so they never
        # create BLAS threads and the processes do not oversubscribe the cores
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            saved[var] = os.environ.get(var)
            os.environ[var] = "1"
        try:
            ex = ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context("spawn"))
            list(ex.map(_warmup, range(workers)))  # force worker spawn under this env
        finally:
            for var, old in saved.items():
                if old is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = old
        _EXECUTORS[workers] = ex
    return ex


def _warmup(_):
    return None


def _run_jobs(jobs, workers: int | None):
    nworkers = resolve_workers(workers)
    if nworkers <= 1 or len(jobs) <= 1:
        return [_evaluate_point(job) for job in jobs]
    ex = _get_executor(nworkers)
    chunk = max(1, len(jobs) // (nworkers * 8))
    return list(ex.map(_evaluate_point, jobs, chunksize=chunk))


def _one_sided_kinks(grid, values) -> list:
    h = float(grid[1] - grid[0])
    lnv = np.full(len(values), np.nan)
    ok = np.isfinite(values) & (values >= ETA_FLOOR)
    lnv[ok] = np.log(values[ok])
    kinks = []
    for k in range(1, len(grid) - 1):
        left = (lnv[k] - lnv[k - 1]) / h
        right = (lnv[k + 1] - lnv[k]) / h
        if np.isfinite(left) and np.isfinite(right) and abs(right - left) > KINK_FACTOR * h:
            kinks.append((float(grid[k]), float(left), float(right)))
    return kinks


def sweep(rho0: np.ndarray, kind: ChannelKind, grid, nqubits: int,
          label: str = "", options: SdpOptions | None = None,
          workers: int | None = None) -> SweepSeries:
    """Evaluate E and η along a grid of elapsed noise values.

    Solver failures are flagged on the returned series (NaN at the failing
    point), never dropped.  Where the two one-sided difference quotients of
    ln E disagree strongly the location is recorded in ``kinks``; no smoothing
    is applied.
    """
    grid = _check_grid(grid)
    jobs = [(rho0, kind, float(s), nqubits, options) for s in grid]
    outcomes = _run_jobs(jobs, workers)
    values = np.array([v for v, _, _ in outcomes])
    failures = [(float(s), note) for s, (_, ok, note) in zip(grid, outcomes) if not ok]
    eta = log_derivative(grid, values)
    return SweepSeries(label=label or "state", channel=kind, grid=grid, values=values,
                       eta=eta, kinks=_one_sided_kinks(grid, values),
                       failures=failures)


def ensemble_from_densities(rhos, generator: GeneratorKind, kind: ChannelKind,
                            grid, nqubits: int, seed: int = 0,
                            options: SdpOptions | None = None,
                            workers: int | None = None,
                            keep_members: bool = False,
                            member_labels: list | None = None) -> EnsembleSummary:
    """Ensemble statistics over explicitly provided density matrices."""
    grid = _check_grid(grid)
    count = len(rhos)
    if count < 2:
        raise ValueError(f"ensemble needs at least 2 members, got {count}")
    jobs = [(rho, kind, float(s), nqubits, options) for rho in rhos for s in grid]
    outcomes = _run_jobs(jobs, workers)
    npts = len(grid)
    values = np.empty((count, npts))
    for i in range(count):
        for k in range(npts):
            v, ok, note = outcomes[i * npts + k]
            if not ok:
                raise RuntimeError(f"solver failure for ensemble member {i} "
                                   f"at s={grid[k]:g}: {note}")
            values[i, k] = v

    included = ~np.any(values < LIFETIME_FLOOR, axis=1)
    excluded = int(np.count_nonzero(~included))
    if excluded > MAX_EXCLUDED_FRACTION * count:
        raise RuntimeError(
            f"{excluded} of {count} ensemble members fell below E = {LIFETIME_FLOOR:g} "
            f"on the grid (more than {MAX_EXCLUDED_FRACTION:.0%}); "
            "shorten the grid or inspect the generator")

    eta = np.array([log_derivative(grid, values[i]) for i in range(count)])
    eta_in = eta[included]
    mean_eta = eta_in.mean(axis=0)
    variance_eta = eta_in.var(axis=0)  # population variance
    width = np.sqrt(variance_eta)
    members = None
    if keep_members:
        members = []
        for i in np.nonzero(included)[0]:
            mlabel = member_labels[i] if member_labels else f"member-{i:03d}"
            members.append(SweepSeries(label=mlabel, channel=kind, grid=grid,
                                       values=values[i], eta=eta[i],
                                       kinks=_one_sided_kinks(grid, values[i])))
    return EnsembleSummary(
        generator=generator, nqubits=nqubits, channel=kind, count=count, seed=seed,
        grid=grid, mean_values=values[included].mean(axis=0), mean_eta=mean_eta,
        variance_eta=variance_eta, ci_low=mean_eta - width, ci_high=mean_eta + width,
        excluded=excluded, members=members)


def ensemble_study(generator, count: int, kind: ChannelKind, grid, seed: int,
                   nqubits: int, options: SdpOptions | None = None,
                   workers: int | None = None,
                   keep_members: bool = False) -> EnsembleSummary:
    """Random-state ensemble study; deterministic for a fixed (seed, count, grid).

    Member i uses the derived seed ``derive_seed(seed, i)``, so a single base
    seed reproduces the whole ensemble bit for bit.
    """
    generator = generator if isinstance(generator, GeneratorKind) else GeneratorKind.parse(generator)
    if count < 2:
        raise ValueError(f"ensemble needs at least 2 members, got {count}")
    rhos = []
    labels = []
    for i in range(count):
        member_seed = derive_seed(seed, i)
        if generator is GeneratorKind.HAAR_RANDOM:
            psi = haar_random_state(nqubits, member_seed)
        else:
            psi = weighted_graph_state(random_weighted_graph(nqubits, member_seed))
        rhos.append(to_density(psi))
        labels.append(f"{generator.value}{nqubits}-r{i:03d}")
    summary = ensemble_from_densities(rhos, generator, kind, grid, nqubits, seed=seed,
                                      options=options, workers=workers,
                                      keep_members=keep_members, member_labels=labels)
    return summary


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


def _fmt(x: float) -> str:
    if x is None or not np.isfinite(x):
        return ""
    return f"{x:.12g}"


def series_csv_rows(series: SweepSeries) -> list:
    rows = []
    for s, e, eta in zip(series.grid, series.values, series.eta):
        rows.append(f"{series.label},{series.channel.value},{_fmt(s)},{_fmt(e)},{_fmt(eta)},,")
    return rows


def summary_csv_rows(summary: EnsembleSummary, include_members: bool = False) -> list:
    rows = []
    if include_members and summary.members:
        for member in summary.members:
            rows.extend(series_csv_rows(member))
    ch = summary.channel.value
    for k, s in enumerate(summary.grid):
        rows.append(f"{summary.label},{ch},{_fmt(s)},{_fmt(summary.mean_values[k])},"
                    f"{_fmt(summary.mean_eta[k])},{_fmt(summary.ci_low[k])},"
                    f"{_fmt(summary.ci_high[k])}")
    return rows


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
