"""The benchmark's three workloads: operations and checks.

An operation is one call a user of gridweld makes: a ``gridweld solve``
run in-process through ``cli.main`` (or the library calls that command
makes, where the run needs an option the command does not offer), one
``Coordinator.spectral_radius`` diagnostic, or one ``compare_modes``
table.  Every operation writes its report into the work directory.

All gridweld functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
import ladder

TOL_KKT, TOL_GAUSS = 1e-8, 1e-6        # the command's default tolerances
KINDS = ("current", "power", "admittance")
NORMS = ("l1", "l2")

SHIPPED = {                            # case -> shipped partition
    "case_2bus_mismatch": None,
    "case_micro_td": "micro_default",
    "case_micro_td_stressed": "micro_default",
    "case_tline_stressed": "micro_default",
    "case_micro_qstress": "micro_default",
    "case_micro_flowcap": "micro_default",
    "case_twofeeder_td": "twofeeder",
    "case_twofeeder_stressed": "twofeeder",
    "case_threefeeder_td": "threefeeder",
    "case_feeder210": "feeder210",
    "case_feeder210_stressed": "feeder210",
}
FEASIBLE = {"case_micro_td", "case_twofeeder_td", "case_threefeeder_td",
            "case_feeder210"}
# dpdip runs kept out of the sweep: L1 on micro_flowcap never converges
# (cell t0 stalls at eps 1e-9 for 200 epochs), and admittance sources on
# micro_td_stressed make the raw exchange non-contractive; the documented
# damping=0.5 L2 run takes the place of the latter.  L2 on micro_flowcap
# converges only through cold restarts (700-970 inner steps, 4-5 s each);
# the current-source run keeps that path in the sweep, and the power and
# admittance runs are left out to keep a run inside its time budget.
SKIP_DPDIP = {("case_micro_flowcap", k, "l1") for k in KINDS} | \
    {("case_micro_flowcap", k, "l2") for k in ("power", "admittance")} | \
    {("case_micro_td_stressed", "admittance", n) for n in NORMS}
DAMPED = ("case_micro_td_stressed", "admittance", "l2", 0.5, 300)
# dpdip runs whose Coordinator is kept for the spectral-radius operations
# (library path: the command does not expose the Coordinator)
RADIUS_RUNS = {("case_micro_td", "current", "l2"),
               ("case_micro_td_stressed", "current", "l2"),
               ("case_feeder210_stressed", "current", "l2")}

COMPARE_CASES = ("case_micro_td", "case_micro_td_stressed",
                 "case_tline_stressed", "case_twofeeder_td",
                 "case_threefeeder_td", "case_micro_qstress",
                 "case_feeder210", "case_feeder210_stressed")

LADDER_SIZES = {"small": 4, "large": 21}     # feeders: ~0.94k, ~4.9k nodes
# Timed ladder runs use one worker: on a shared 2-core machine a second
# worker thread competes with other tenants for the second core, and the
# same dpdip run took 8.3-12.3 s at two workers against 12.4 s +-1% at one.
# The pool still runs, untimed, in the byte-identity check.
LADDER_WORKERS, CHECK_WORKERS = 1, 2


@dataclass
class Op:
    name: str
    run: Callable[[], dict]


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[dict], list]          # results by op name -> failures
    final: Callable[[dict], list] = lambda results: []


class Context:
    """Paths and the state operations hand to later operations."""

    def __init__(self, root):
        self.root = root
        self.cases = os.path.join(root, "cases")
        self.work = os.path.join(root, "perfbench", "_work")
        self.coordinators: dict = {}
        shipped = [self.case(c) for c in SHIPPED] + \
            [self.partition(p) for p in set(SHIPPED.values()) if p]
        if not all(os.path.exists(path) for path in shipped):
            # a checkout without the case files: the generator that wrote
            # them writes the same bytes again
            self.cases = os.path.join(self.work, "cases")
            _gw().casegen.write_all(self.cases)

    def case(self, name):
        return os.path.join(self.cases, f"{name}.json")

    def partition(self, name):
        return None if name is None else \
            os.path.join(self.cases, "partitions", f"{name}.json")

    def out(self, workload, op_name):
        path = os.path.join(self.work, "out", workload,
                            op_name.replace("/", "_"))
        os.makedirs(path, exist_ok=True)
        return path


def _gw():
    import gridweld.admm
    import gridweld.casegen
    import gridweld.cli
    import gridweld.coupling
    import gridweld.ecf
    import gridweld.gjn
    import gridweld.netmodel
    import gridweld.pdip
    import gridweld.report
    return gridweld


def _options():
    gw = _gw()
    return gw.pdip.SolverOptions(kkt_tolerance=TOL_KKT, inner_cap=50)


# -- operation builders ------------------------------------------------------


def cli_op(name, case, partition, mode, kind, norm, out, workers=1):
    argv = ["solve", "--case", case, "--mode", mode, "--norm", norm,
            "--source", kind, "--tol-kkt", repr(TOL_KKT),
            "--tol-gauss", repr(TOL_GAUSS), "--workers", str(workers),
            "--out", out]
    if partition and mode != "central":
        argv += ["--partition", partition]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = _gw().cli.main(argv)
        return {"rc": rc, "report": os.path.join(out, "report.json")}

    return Op(name, run)


def coordinator_op(ctx, name, case, partition, kind, norm, out, damping=1.0,
                   max_epochs=200):
    """The library calls ``gridweld solve --mode dpdip`` makes, keeping the
    Coordinator (and allowing a damped exchange)."""

    def run():
        gw = _gw()
        nets, coups = gw.netmodel.load_case(case)
        part = gw.netmodel.load_partition(partition, nets, coups)
        co = gw.gjn.Coordinator(nets, coups, part, source_kind=kind,
                                norm=norm, opts=_options(),
                                gauss_tol=TOL_GAUSS, max_epochs=max_epochs,
                                damping=damping)
        rep = co.run()
        path = os.path.join(out, "report.json")
        gw.report.write_report(rep, path)
        gw.report.export_heatmap(rep, os.path.join(out, "heatmap.csv"))
        ctx.coordinators[name] = co
        return {"rc": 0 if rep.converged else 2, "report": path}

    return Op(name, run)


def radius_op(ctx, name, source, damped):
    """Spectral radius of a converged run: raw, and with the relaxation
    ``damped`` (None: only the raw radius)."""

    def run():
        co = ctx.coordinators.get(source)
        if co is None:
            return {"rc": 1, "error": f"no coordinator from {source}"}
        raw = co.spectral_radius(damping=1.0)
        rho = None if damped is None else co.spectral_radius(damping=damped)
        return {"rc": 0, "raw": raw, "damped": rho}

    return Op(name, run)


def compare_op(ctx, name, case, partition, out):
    case_name = os.path.splitext(os.path.basename(case))[0]

    def run():
        gw = _gw()
        nets, coups = gw.netmodel.load_case(case)
        part = gw.netmodel.load_partition(partition, nets, coups)
        rows = gw.gjn.compare_modes(nets, coups, part, source_kind="current",
                                    norm="l2", opts=_options(),
                                    gauss_tol=TOL_GAUSS, admm_tol=TOL_GAUSS)
        tracer = ctx.tracer
        with tracer.span("report.write"):
            with open(os.path.join(out, "compare.txt"), "w") as fh:
                fh.write(gw.gjn.format_comparison(rows, case_name) + "\n")
        return {"rc": 0, "rows": rows}

    return Op(name, run)


def _report(result):
    with open(result["report"]) as fh:
        return json.load(fh)


def _report_checks(results, ops):
    """Status and recomputed sums for every operation with a report."""
    fails, reports = [], {}
    for op in ops:
        res = results[op.name]
        if "report" not in res:
            if res["rc"] != 0:
                fails.append((op.name, f"status: {res.get('error')}"))
            continue
        try:
            rep = _report(res)
        except (OSError, ValueError) as exc:
            what = "status" if res["rc"] != 0 else "report unreadable"
            fails.append((op.name, f"{what}: exit code {res['rc']}, {exc}"))
            continue
        reports[op.name] = rep
        fails += checks.check_status(op.name, rep, res["rc"])
        fails += checks.check_report_sums(op.name, rep)
    return fails, reports


def _cross_norm_and_match(reports, key_of):
    """Cross-norm optimality per (case, kind, mode) and dpdip against the
    central run of the same case, kind and norm."""
    fails = []
    by_key = {key_of(name): name for name in reports}
    for (case, kind, norm, mode), name in sorted(by_key.items()):
        if norm == "l1" and (case, kind, "l2", mode) in by_key:
            other = by_key[(case, kind, "l2", mode)]
            fails += checks.check_cross_norm(name, reports[name], other,
                                             reports[other])
        if mode != "central":
            cen = by_key.get((case, kind, norm, "central"))
            if cen is not None:
                fails += checks.check_mode_match(
                    name, reports[name]["objective_pu"],
                    reports[cen]["objective_pu"])
    return fails


# -- workloads ---------------------------------------------------------------


def shipped_sweep(ctx, seed) -> Workload:
    solves, meta = [], {}
    for case, part in SHIPPED.items():
        for kind in KINDS:
            for norm in NORMS:
                for mode in ("central", "dpdip"):
                    if mode == "dpdip" and (case, kind, norm) in SKIP_DPDIP:
                        continue
                    name = f"{mode}/{case}/{kind}/{norm}"
                    out = ctx.out("shipped_sweep", name)
                    if mode == "dpdip" and (case, kind, norm) in RADIUS_RUNS:
                        op = coordinator_op(ctx, name, ctx.case(case),
                                            ctx.partition(part), kind, norm,
                                            out)
                    else:
                        op = cli_op(name, ctx.case(case), ctx.partition(part),
                                    mode, kind, norm, out)
                    solves.append(op)
                    meta[name] = (case, kind, norm, mode)
    case, kind, norm, gamma, epochs = DAMPED
    damped = f"dpdip-damped/{case}/{kind}/{norm}"
    solves.append(coordinator_op(ctx, damped, ctx.case(case),
                                 ctx.partition(SHIPPED[case]), kind, norm,
                                 ctx.out("shipped_sweep", damped),
                                 damping=gamma, max_epochs=epochs))
    meta[damped] = (case, kind, norm, "dpdip-damped")
    random.Random(seed).shuffle(solves)
    radii = [radius_op(ctx, f"radius/{case}/{kind}/{norm}",
                       f"dpdip/{case}/{kind}/{norm}",
                       0.5 if case == "case_micro_td" else None)
             for case, kind, norm in sorted(RADIUS_RUNS)]
    radii.append(radius_op(ctx, f"radius/{damped}", damped, gamma))
    ops = solves + radii

    def check(results):
        fails, reports = _report_checks(results, ops)
        fails += _cross_norm_and_match(reports, lambda n: meta[n])
        for name, rep in reports.items():
            case, kind, norm, _ = meta[name]
            if case == "case_2bus_mismatch":
                fails += checks.check_closed_form(name, rep, kind, norm)
            if case in FEASIBLE:
                fails += checks.check_feasible_zero(name, rep["objective_pu"])
        for op in radii:
            res = results[op.name]
            if res["rc"] != 0:
                fails.append((op.name, f"status: {res.get('error')}"))
                continue
            undamped = op.name != f"radius/{damped}"
            fails += checks.check_radius(op.name, res["raw"], res["damped"],
                                         0.5 if res["damped"] is not None
                                         else None, undamped)
        return fails

    return Workload(ops, check)


def ladder_workload(ctx, seed) -> Workload:
    gen = os.path.join(ctx.work, "ladder")
    ops, meta, small_dpdip = [], {}, None
    for size, feeders in LADDER_SIZES.items():
        case, part = ladder.write_ladder(gen, feeders, seed)
        runs = [("central", "l2"), ("central", "l1"), ("dpdip", "l2")]
        if size == "small":
            runs.append(("dpdip", "l1"))
        for mode, norm in runs:
            name = f"{mode}/ladder_{size}/current/{norm}"
            op = cli_op(name, case, part, mode, "current", norm,
                        ctx.out("ladder", name), workers=LADDER_WORKERS)
            ops.append(op)
            meta[name] = (f"ladder_{size}", "current", norm, mode)
            if size == "small" and (mode, norm) == ("dpdip", "l2"):
                small_dpdip = (name, case, part)

    def check(results):
        fails, reports = _report_checks(results, ops)
        return fails + _cross_norm_and_match(reports, lambda n: meta[n])

    def final(results):
        """The smallest dpdip run again on the worker pool: same bytes."""
        name, case, part = small_dpdip
        if "report" not in results[name]:
            return []                   # the timed run already failed
        out = ctx.out("ladder", f"{name}-workers{CHECK_WORKERS}")
        rerun = cli_op(name, case, part, "dpdip", "current", "l2", out,
                       workers=CHECK_WORKERS).run()
        with open(results[name]["report"], "rb") as a, \
                open(rerun["report"], "rb") as b:
            return checks.check_identical(
                name, a.read(), b.read(), f"reports at --workers "
                f"{LADDER_WORKERS} and {CHECK_WORKERS}")

    return Workload(ops, check, final)


def compare_workload(ctx, seed) -> Workload:
    ops = [compare_op(ctx, f"compare/{case}", ctx.case(case),
                      ctx.partition(SHIPPED[case]),
                      ctx.out("compare", f"compare/{case}"))
           for case in COMPARE_CASES]
    random.Random(seed).shuffle(ops)

    def check(results):
        fails = []
        for op in ops:
            res = results[op.name]
            if "rows" not in res:
                fails.append((op.name, f"status: {res.get('error')}"))
                continue
            case = op.name.split("/", 1)[1]
            fails += checks.check_compare_rows(op.name, res["rows"],
                                               case in FEASIBLE)
        return fails

    return Workload(ops, check)


WORKLOADS = {"shipped_sweep": shipped_sweep, "ladder": ladder_workload,
             "compare": compare_workload}


def warm_up(ctx):
    """One small solve before timing, so lazy imports are not timed."""
    gw = _gw()
    nets, coups = gw.netmodel.load_case(ctx.case("case_micro_td"))
    gw.pdip.solve_centralized(nets, coups, opts=_options())
