"""Tracing changes no output: traced and untraced runs write the same
reports, traced runs repeat their counts, and the patches come off."""

import os

import gridweld
import layers
import run
import workloads
from tracer import Tracer

from conftest import ROOT


def _workload(ctx):
    c = ctx.case
    p = ctx.partition("micro_default")
    ops = [
        workloads.cli_op("central", c("case_micro_td_stressed"), None,
                         "central", "current", "l1", ctx.out("t", "central")),
        workloads.cli_op("dpdip", c("case_micro_td_stressed"), p, "dpdip",
                         "power", "l2", ctx.out("t", "dpdip")),
        workloads.coordinator_op(ctx, "coord", c("case_micro_td"), p,
                                 "current", "l2", ctx.out("t", "coord")),
        workloads.radius_op(ctx, "radius", "coord", 0.5),
        workloads.compare_op(ctx, "compare", c("case_tline_stressed"), p,
                             ctx.out("t", "compare")),
    ]
    return workloads.Workload(ops, lambda results: [])


def _run(tmp_path, sub, paired):
    ctx = workloads.Context(ROOT)
    ctx.work = str(tmp_path / sub)
    wl = _workload(ctx)
    tracer = Tracer()
    ctx.tracer = tracer
    with tracer:
        if paired:
            traced, plain = run.run_paired(wl, tracer)
        else:
            traced, plain = run.run_round(wl, tracer), None
    outputs = {}
    for root, _, files in os.walk(ctx.work):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                outputs[os.path.relpath(path, ctx.work)] = fh.read()
    return tracer, traced, plain, outputs


def test_traced_and_untraced_runs_agree(tmp_path):
    original = gridweld.pdip.solve_nlp
    _, (plain_results, _), _, plain = _run(tmp_path, "plain", False)
    tracer, (results, timing), (_, untraced), traced = \
        _run(tmp_path, "traced", True)
    tracer2, (_, timing2), (_, untraced2), _ = _run(tmp_path, "traced2", True)
    # the comparison table carries wall times; everything else is bytes
    table = os.path.join("out", "t", "compare", "compare.txt")
    assert len(plain) == 7 and plain.pop(table) and traced.pop(table)
    assert plain == traced

    def untimed(res, name):
        res = dict(res[name])
        if "rows" in res:
            res["rows"] = [{k: v for k, v in r.items() if k != "time_s"}
                           for r in res["rows"]]
        return res

    for name in ("radius", "compare"):
        assert untimed(plain_results, name) == untimed(results, name)
    # the program is back as it was
    assert gridweld.pdip.solve_nlp is original
    assert not hasattr(gridweld.ecf.CircuitProblem.jac_eq, "__wrapped__")

    m1, _, d1 = layers.per_layer(tracer, timing, untraced)
    m2, _, d2 = layers.per_layer(tracer2, timing2, untraced2)
    for name in layers.COUNTS:
        assert m1[name] == m2[name], name
    for name in ("pdip.newton_steps", "pdip.factor.calls", "gjn.epochs",
                 "admm.iterations", "ecf.jac_eq.calls"):
        assert m1[name] > 0, name
    # the traced self times account for the untraced wall time of the
    # same operations.  A pass here lasts about 1.5 s, on which a shared
    # host's noise reaches 20%, so the closer of the two runs is held to
    # 10%: a time the spans lose, or an overhead of 10% or more, fails it.
    overhead = [d1["trace_overhead"], d2["trace_overhead"]]
    assert min(abs(o) for o in overhead) < 0.1, overhead
    assert set(d1["self_s_by_layer"]) >= {"cli", "netmodel", "ecf", "pdip",
                                          "gjn", "admm", "coupling", "report"}


def test_worker_thread_spans_hang_under_their_epoch():
    from gridweld import gjn, load_case, load_partition
    nets, coups = load_case(os.path.join(ROOT, "cases",
                                         "case_twofeeder_td.json"))
    part = load_partition(os.path.join(ROOT, "cases", "partitions",
                                       "twofeeder.json"), nets, coups)
    with Tracer() as tracer, tracer.layers():
        rep = gjn.run(nets, coups, part, workers=2)
    assert rep.converged
    by_key = {s[3]: s for s in tracer.spans}
    cells = [s for s in tracer.spans if s[0] == "gjn.cell_solve"]
    assert len(cells) == 3 * rep.epochs
    assert all(by_key[s[4]][0] == "gjn.epoch" for s in cells)
    # cells of one epoch may overlap in time; self time never goes negative
    summary = tracer.summary(tracer.spans)
    assert all(rec[2] >= 0.0 for rec in summary.values())
