"""gridweld benchmark: one workload, closed loop, one operation at a time.

    python3 perfbench/run.py --workload shipped_sweep --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  A run is one whole round: every operation
of the workload once, back to back, in this process.  A round lasts
19-37 s on a 2-vCPU host, whatever ``--seconds`` says; ``run_seconds`` in
``BENCHMARK.json`` gives that length.  Every operation's output is checked
after the round (outside the timed region).

``--trace 0`` prints the end-to-end metrics: ``study_s`` (summed operation
wall time), ``solve_s_gmean`` (geometric mean over operations of the solve
time), ``setup_s`` (summed case load and problem/cell/agent build inside
the operations) and ``peak_rss_mb``.
``--trace 1`` prints the per-layer metrics instead.  It runs every
operation twice, once with every layer boundary wrapped and once without,
in alternating order, so the traced self times can be held against the
untraced wall time of the same operations.  The last line of standard
output is one JSON object; details (per-operation times, layer summaries,
comparison rows) go to ``perfbench/_work/<workload>-<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {"study_s": "s", "solve_s_gmean": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _prepare_imports():
    # One BLAS thread: a second one would compete with other tenants for
    # the second core of a shared machine, and SuperLU's dense kernels would
    # run at whatever speed that core has.  Set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gridweld", "__init__.py")):
        _fail(f"no gridweld sources under {src}; run from a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def run_op(op, tracer):
    """One operation in a ``bench.op`` span: (result, timing)."""
    mark = tracer.mark()
    with tracer.span("bench.op"):
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:               # counted as a failed operation
            result = {"rc": 1, "error": traceback.format_exc()}
        wall = time.perf_counter() - t0
    setup, write = tracer.op_split(mark)
    return result, {"wall": wall, "setup": setup, "write": write,
                    "solve": wall - setup - write,
                    "spans": (mark, tracer.mark())}


def run_round(workload, tracer):
    """Every operation once; results and timings by operation name."""
    results, timing = {}, {}
    for op in workload.ops:
        results[op.name], timing[op.name] = run_op(op, tracer)
    return results, timing


def run_paired(workload, tracer):
    """Every operation once untraced and once with the layers wrapped, the
    order alternating from one operation to the next so both runs see the
    same host speed.  Returns the traced results and timings, and the
    untraced results and timings."""
    traced, plain = ({}, {}), ({}, {})
    for i, op in enumerate(workload.ops):
        for layered in ((False, True) if i % 2 == 0 else (True, False)):
            results, timing = traced if layered else plain
            with tracer.layers() if layered else contextlib.nullcontext():
                results[op.name], timing[op.name] = run_op(op, tracer)
    return traced, plain


def end_to_end(timing):
    solve = [o["solve"] for o in timing.values()]
    return {
        "study_s": sum(o["wall"] for o in timing.values()),
        "solve_s_gmean": math.exp(sum(math.log(max(s, 1e-9)) for s in solve)
                                  / len(solve)),
        "setup_s": sum(o["setup"] for o in timing.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="gridweld benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    _prepare_imports()
    import layers
    import workloads
    from tracer import Tracer
    if ns.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {ns.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")
    warnings.simplefilter("ignore")     # partition-shape notices, per call

    ctx = workloads.Context(ROOT)
    workload = workloads.WORKLOADS[ns.workload](ctx, ns.seed)
    tracer = Tracer()
    ctx.tracer = tracer
    with tracer:
        workloads.warm_up(ctx)
        plain_results, plain = {}, {}
        if ns.trace:
            (results, timing), (plain_results, plain) = \
                run_paired(workload, tracer)
        else:
            results, timing = run_round(workload, tracer)
        failures = workload.check(results) + workload.final(results)

    failures += [(name, f"status: untraced run, {res.get('error')}")
                 for name, res in plain_results.items()
                 if res.get("rc", 0) != 0]
    failed_ops = {name for name, _ in failures} | \
        {name for name, res in results.items() if res.get("rc", 0) != 0}
    wrong = [f for f in failures if not f[1].startswith("status")]
    for op, msg in failures:
        print(f"check failed: {op}: {msg}", file=sys.stderr)

    if ns.trace:
        values, units, details = layers.per_layer(tracer, timing, plain)
        details["untraced_ops"] = plain
    else:
        values = end_to_end(timing)
        units = END_TO_END_UNITS
        details = {}
    details.update({
        "workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
        "metrics": values, "ops": timing, "failures": failures,
        "compare_rows": {n: res["rows"] for n, res in results.items()
                         if "rows" in res},
        "radii": {n: {"raw": res["raw"], "damped": res["damped"]}
                  for n, res in results.items() if "raw" in res},
    })
    os.makedirs(ctx.work, exist_ok=True)
    with open(os.path.join(ctx.work, f"{ns.workload}-{ns.seed}-trace"
                           f"{ns.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": not wrong, "attempted": len(workload.ops),
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
