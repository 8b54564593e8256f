"""Command-line front end.

Subcommands:

* ``monotone``  - print E, the objective Tr(W'rho) of the certified witness,
  the bracket [E_lo, E_hi], the certificate status and the solver's
  iteration count for one state.
* ``sweep``     - evaluate E and eta on a grid of elapsed noise values and
  write the analysis CSV.
* ``ensemble``  - random-state ensemble statistics (mean eta, CI band) as CSV.
* ``genstate``  - write the state file of a pure state: a named, Haar-random
  or weighted graph state.

State selectors (``--state``): ghz2 ghz3 ghz4 ghz3b w2 w3 w4 w3b d24 singlet4
cluster4 chi4, ``haar:N``, ``wgs:N`` (the latter two use ``--seed``) and,
except for ``genstate``, ``file:PATH``.
Channels: ``ad`` (amplitude damping), ``pd`` (phase damping), ``dp``
(depolarizing).  Times are the dimensionless s = Γt.  All randomness derives
from ``--seed``.  ``sweep`` and ``ensemble`` run in one process unless
``--workers`` sets the number of worker processes.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, gmn, states
from .channels import ChannelKind


def _resolve_state(selector: str, seed: int):
    """Map a CLI state selector to (label, density matrix, nqubits)."""
    sel = selector.strip()
    if sel.lower().startswith("file:"):
        path = sel[5:]
        rho = states.read_state_file(path)
        return os.path.basename(path), rho, rho.shape[0].bit_length() - 1
    label, psi = _pure_state(sel, seed)
    return label, states.to_density(psi), states.nqubits_of_state(psi)


def _pure_state(selector: str, seed: int):
    """Map a named, ``haar:N`` or ``wgs:N`` selector to (label, amplitude vector)."""
    low = selector.strip().lower()
    for generator in states.GeneratorKind:
        prefix = f"{generator.value}:"
        if low.startswith(prefix):
            n = _parse_qubits(low[len(prefix):], selector)
            return f"{generator.value}{n}(seed={seed})", states.random_state(generator, n, seed)
    return low, states.named_state(low)


def _parse_qubits(text: str, selector: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad qubit count in selector {selector!r}") from None


def _grid(args) -> np.ndarray:
    kind = ChannelKind.parse(args.channel)
    try:
        return analysis.default_grid(kind, args.smin, args.smax, args.steps)
    except ValueError as exc:
        raise ValueError(f"invalid grid: {exc}") from None


def _cmd_monotone(args) -> int:
    label, rho, n = _resolve_state(args.state, args.seed)
    result = gmn.genuine_negativity(rho, n)
    if not result.solved:
        print(f"genneg: solver failed for {label}: {result.failure()}", file=sys.stderr)
        return 3
    print(f"E = {result.value:.6f}")
    print(f"objective = {result.objective:.9f}")
    print(f"bracket = [{result.e_lo:.9f}, {result.e_hi:.9f}]")
    print(f"certificate = {'ok' if result.certificate_ok else 'FAILED'}")
    print(f"iterations = {result.solver.iterations}")
    if not result.certificate_ok:
        for line in gmn.certificate_diagnostics(result, rho):
            print(f"  {line}", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(args) -> int:
    label, rho, n = _resolve_state(args.state, args.seed)
    kind = ChannelKind.parse(args.channel)
    grid = _grid(args)
    series = analysis.sweep(rho, kind, grid, n, label=args.label or label,
                            workers=args.workers)
    if series.failures:
        s0, note = series.failures[0]
        print(f"genneg: solver failure at s = {s0:g}: {note} "
              f"({len(series.failures)} failing grid point(s))", file=sys.stderr)
        return 3
    for s, left, right in series.kinks:
        print(f"genneg: note: eta one-sided slopes disagree at s = {s:g} "
              f"(left {left:+.4f}, right {right:+.4f}); possible kink", file=sys.stderr)
    analysis.write_csv(args.out, analysis.series_csv_rows(series))
    return 0


def _cmd_ensemble(args) -> int:
    kind = ChannelKind.parse(args.channel)
    generator = analysis.GeneratorKind.parse(args.generator)
    grid = _grid(args)
    summary = analysis.ensemble_study(generator, args.count, kind, grid, args.seed,
                                      args.n, workers=args.workers)
    if summary.excluded:
        print(f"genneg: note: excluded {summary.excluded} of {summary.count} "
              f"realizations (E fell below {analysis.LIFETIME_FLOOR:g})", file=sys.stderr)
    rows = [r for m in summary.members for r in analysis.series_csv_rows(m)] if args.members else []
    analysis.write_csv(args.out, rows + analysis.summary_csv_rows(summary))
    return 0


def _cmd_genstate(args) -> int:
    if args.state.strip().lower().startswith("file:"):
        raise ValueError(f"genstate writes pure states; {args.state!r} is a state file")
    _, psi = _pure_state(args.state, args.seed)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(states.format_pure_state(psi))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base seed for any randomness")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel", required=True, help="ad, pd or dp")
    parser.add_argument("--smin", type=float, default=0.02)
    parser.add_argument("--smax", type=float, default=None,
                        help="default 1.0 (0.5 for the depolarizing channel)")
    parser.add_argument("--steps", type=int, default=50, help="number of grid points")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: 1)")
    parser.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genneg",
        description="Genuine multiparticle negativity under local decoherence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monotone", help="compute E for one state")
    p.add_argument("--state", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_monotone)

    p = sub.add_parser("sweep", help="E and eta along a noise grid, as CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--label", default=None, help="CSV label (default: state selector)")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("ensemble", help="random-state ensemble statistics, as CSV")
    p.add_argument("--generator", required=True, help="haar or wgs")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--members", action="store_true",
                   help="also write one row group per included realization")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(fn=_cmd_ensemble)

    p = sub.add_parser("genstate", help="write a pure state's file")
    p.add_argument("--state", required=True, help="named, haar:N or wgs:N selector")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_genstate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"genneg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
