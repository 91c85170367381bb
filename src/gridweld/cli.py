"""Command-line entry point.

Exit codes: 0 converged, 1 input error (bad flag, missing file, invalid
combination), 2 solver did not converge (the report is still written).
Set ``GRIDWELD_LOG`` to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import admm, gjn
from .ecf import NORMS, SOURCE_KINDS
from .netmodel import CaseError, load_case, load_partition
from .pdip import SolverOptions, solve_centralized
from .report import export_heatmap, localize_weak_nodes, write_report

log = logging.getLogger("gridweld.cli")

MODES = ("central", "dpdip", "admm", "compare")


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="gridweld", add_help=True)
    sub = parser.add_subparsers(dest="command")
    sv = sub.add_parser("solve", help="run an infeasibility analysis")
    sv.add_argument("--case", required=True, help="case JSON file")
    sv.add_argument("--partition", help="partition JSON (dpdip/admm/compare)")
    sv.add_argument("--mode", choices=MODES, default="central")
    sv.add_argument("--norm", choices=NORMS, default="l2")
    sv.add_argument("--source", choices=SOURCE_KINDS, default="current")
    sv.add_argument("--q-only", action="store_true",
                    help="reactive-only power sources (compensation studies)")
    sv.add_argument("--tol-kkt", type=float, default=1e-8)
    sv.add_argument("--tol-gauss", type=float, default=1e-6)
    sv.add_argument("--max-epochs", type=int, default=200,
                    help="epoch budget of dpdip and of compare's D-PDIP row; "
                         "ADMM keeps its 2000-iteration budget")
    sv.add_argument("--inner-cap", type=int, default=50)
    sv.add_argument("--workers", type=int, default=1)
    sv.add_argument("--trace", nargs="?", const="trace.jsonl", default=None,
                    help="write per-epoch/iteration records (optional path)")
    sv.add_argument("--out", default=".", help="output directory")
    return parser


def _config(ns: argparse.Namespace) -> argparse.Namespace:
    """``ns`` of the ``solve`` subcommand, once its flags are consistent."""
    if ns.q_only and ns.source != "power":
        raise _ArgumentError("--q-only is only valid with --source power")
    if ns.trace is not None and ns.mode == "compare":
        raise _ArgumentError("--trace is not valid with --mode compare")
    for flag in ("tol_kkt", "tol_gauss", "max_epochs", "inner_cap", "workers"):
        if not 0 < getattr(ns, flag) < float("inf"):
            raise _ArgumentError(f"--{flag.replace('_', '-')} must be positive and finite")
    return ns


def run(cfg: argparse.Namespace) -> int:
    """One ``solve`` run of the parsed and checked flags; the exit code."""
    if not os.path.exists(cfg.case):
        print(f"error: case file not found: {cfg.case}", file=sys.stderr)
        return 1
    try:
        nets, couplings = load_case(cfg.case)
        partition = None
        if cfg.partition:
            if not os.path.exists(cfg.partition):
                print(f"error: partition file not found: {cfg.partition}",
                      file=sys.stderr)
                return 1
            partition = load_partition(cfg.partition, nets, couplings)
    except CaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.mode == "central" and cfg.partition:
        log.info("mode=central ignores the partition file")
    opts = SolverOptions(kkt_tolerance=cfg.tol_kkt, inner_cap=cfg.inner_cap)
    os.makedirs(cfg.out, exist_ok=True)
    trace_path = (cfg.trace if cfg.trace is None or os.path.isabs(cfg.trace)
                  or os.sep in cfg.trace else os.path.join(cfg.out, cfg.trace))

    kw = dict(source_kind=cfg.source, norm=cfg.norm, q_only=cfg.q_only, opts=opts)
    if cfg.mode == "compare":
        case_name = os.path.splitext(os.path.basename(cfg.case))[0]
        rows = gjn.compare_modes(nets, couplings, partition, gauss_tol=cfg.tol_gauss,
                                 admm_tol=cfg.tol_gauss, max_epochs=cfg.max_epochs,
                                 workers=cfg.workers, **kw)
        print(gjn.format_comparison(rows, case_name))
        return 0 if rows[0]["objective"] is not None else 2

    kw["trace_path"] = trace_path
    if cfg.mode == "central":
        rep = solve_centralized(nets, couplings, **kw)
    elif cfg.mode == "dpdip":
        rep = gjn.run(nets, couplings, partition, gauss_tol=cfg.tol_gauss,
                      max_epochs=cfg.max_epochs, workers=cfg.workers, **kw)
    else:
        rep = admm.admm_solve(nets, couplings, partition, tol=cfg.tol_gauss,
                              workers=cfg.workers, **kw)

    write_report(rep, os.path.join(cfg.out, "report.json"))
    export_heatmap(rep, os.path.join(cfg.out, "heatmap.csv"))
    print(f"status: {rep.status}")
    print(f"objective (pu): {rep.objective:.9g}")
    print(f"nonzero sources (> {rep.threshold:g} pu): {rep.nonzero_count}")
    ranked = localize_weak_nodes(rep)
    if ranked:
        print("weak nodes (bus, phase, magnitude):")
        for bus, ph, mag in ranked[:10]:
            print(f"  {bus:12s} {ph}  {mag:.6g}")
    return 0 if rep.converged else 2


def main(argv=None) -> int:
    level = os.environ.get("GRIDWELD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command != "solve":
            raise _ArgumentError("expected the 'solve' subcommand")
        cfg = _config(ns)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
