"""Command-line front end.

Subcommands:

* ``monotone``  - print E, the raw SDP objective and the certificate status
  for one state.
* ``sweep``     - evaluate E and eta on a grid of elapsed noise values and
  write the analysis CSV.
* ``ensemble``  - random-state ensemble statistics (mean eta, CI band) as CSV.
* ``genstate``  - write a state file for a named, Haar-random or weighted
  graph state.

State selectors: ghz2 ghz3 ghz4 ghz3b w2 w3 w4 w3b d24 singlet4 cluster4 chi4,
``file:PATH``, ``haar:N``, ``wgs:N`` (the latter two use ``--seed``).
Channels: ``ad`` (amplitude damping), ``pd`` (phase damping), ``dp``
(depolarizing).  Times are the dimensionless s = Γt.  All randomness derives
from ``--seed``; the ``GENNEG_WORKERS`` environment variable caps parallel
workers.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, gmn, states
from .channels import ChannelKind
from .sdp import SdpOptions
from .states import StateFileError


def _resolve_state(selector: str, seed: int):
    """Map a CLI state selector to (label, density matrix, nqubits)."""
    sel = selector.strip()
    low = sel.lower()
    if low.startswith("file:"):
        path = sel[5:]
        rho = states.read_state_file(path)
        n = rho.shape[0].bit_length() - 1
        return os.path.basename(path), rho, n
    if low.startswith("haar:"):
        n = _parse_qubits(low[5:], selector)
        return f"haar{n}(seed={seed})", states.to_density(states.haar_random_state(n, seed)), n
    if low.startswith("wgs:"):
        n = _parse_qubits(low[4:], selector)
        graph = states.random_weighted_graph(n, seed)
        return f"wgs{n}(seed={seed})", states.to_density(states.weighted_graph_state(graph)), n
    psi = states.named_state(low)
    n = states.nqubits_of_state(psi)
    return low, states.to_density(psi), n


def _parse_qubits(text: str, selector: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"bad qubit count in selector {selector!r}") from None
    if n not in (2, 3, 4):
        raise ValueError(f"selector {selector!r}: qubit count must be 2, 3 or 4")
    return n


def _sdp_options(args) -> SdpOptions:
    return SdpOptions(gap_tol=args.gap_tol, feas_tol=args.feas_tol,
                      max_iterations=args.max_iterations)


def _grid(args) -> np.ndarray:
    kind = ChannelKind.parse(args.channel)
    try:
        return analysis.default_grid(kind, args.smin, args.smax, args.steps)
    except ValueError as exc:
        raise ValueError(f"invalid grid: {exc}") from None


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get(analysis.WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _cmd_monotone(args) -> int:
    label, rho, n = _resolve_state(args.state, args.seed)
    result = gmn.genuine_negativity(rho, n, _sdp_options(args))
    if not result.solved:
        print(f"genneg: solver failed for {label}: {result.solver.status.value} "
              f"({result.solver.message})", file=sys.stderr)
        return 3
    print(f"E = {result.value:.6f}")
    print(f"objective = {result.objective:.9f}")
    print(f"certificate = {'ok' if result.certificate_ok else 'FAILED'}")
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
                            options=_sdp_options(args), workers=_workers(args))
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
    if args.count < 2:
        raise ValueError(f"ensemble count must be at least 2, got {args.count}")
    summary = analysis.ensemble_study(generator, args.count, kind, grid, args.seed,
                                      args.n, options=_sdp_options(args),
                                      workers=_workers(args),
                                      keep_members=args.members)
    if summary.excluded:
        print(f"genneg: note: excluded {summary.excluded} of {summary.count} "
              f"realizations (E fell below {analysis.LIFETIME_FLOOR:g})", file=sys.stderr)
    analysis.write_csv(args.out, analysis.summary_csv_rows(summary, include_members=args.members))
    return 0


def _cmd_genstate(args) -> int:
    if args.kind == "named":
        if not args.state:
            raise ValueError("genstate --kind named requires --state")
        psi = states.named_state(args.state)
    elif args.kind == "haar":
        psi = states.haar_random_state(args.n, args.seed)
    else:
        psi = states.weighted_graph_state(states.random_weighted_graph(args.n, args.seed))
    text = states.format_pure_state(psi)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base seed for any randomness")
    parser.add_argument("--gap-tol", type=float, default=1e-8)
    parser.add_argument("--feas-tol", type=float, default=1e-8)
    parser.add_argument("--max-iterations", type=int, default=200)


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel", required=True, help="ad, pd or dp")
    parser.add_argument("--smin", type=float, default=0.02)
    parser.add_argument("--smax", type=float, default=None,
                        help="default 1.0 (0.5 for the depolarizing channel)")
    parser.add_argument("--steps", type=int, default=50, help="number of grid points")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: GENNEG_WORKERS or all cores)")
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
    p.add_argument("--n", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--members", action="store_true",
                   help="also write one row group per included realization")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(fn=_cmd_ensemble)

    p = sub.add_parser("genstate", help="write a state file")
    p.add_argument("--kind", required=True, choices=("named", "haar", "wgs"))
    p.add_argument("--state", default=None, help="named-state selector for --kind named")
    p.add_argument("--n", type=int, default=3, choices=(2, 3, 4))
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_genstate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StateFileError as exc:
        print(f"genneg: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"genneg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
