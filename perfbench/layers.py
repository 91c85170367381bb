"""Per-layer metrics from a traced run (``--trace 1``).

``<span>.s`` is the summed duration of the outermost spans of that name
(inclusive of what they call), ``<span>.self_s`` the summed self time and
``<span>.calls`` the number of spans, all over the traced pass of the
round.  ``trace.self_sum_s`` adds up every self time of that pass, and
``trace.untraced_s`` is the wall time of the untraced pass over the same
operations.  Which end-to-end metric each one should move, on which
workload, is in README.md.
"""

from __future__ import annotations

ECF_EVALS = ("residual_eq", "jac_eq", "residual_in", "jac_in",
             "hess_lagrangian", "grad_objective", "param_lagrangian_grad")

# (metric, unit, better)
PER_LAYER = [
    ("netmodel.load_case.s", "s", "lower"),
    ("ecf.build_problem.s", "s", "lower"),
    ("gjn.build_subproblems.s", "s", "lower"),
    ("admm.build_agents.s", "s", "lower"),
    *[(f"ecf.{m}.{k}", u, "lower") for m in ECF_EVALS
      for k, u in (("calls", "count"), ("s", "s"))],
    ("ecf.jac_eq_per_step", "ratio", "lower"),
    ("pdip.newton_steps", "count", "lower"),
    ("pdip.solve_nlp.calls", "count", "lower"),
    ("pdip.solve_nlp.self_s", "s", "lower"),
    ("pdip.assemble_kkt.calls", "count", "lower"),
    ("pdip.assemble_kkt.s", "s", "lower"),
    ("pdip.newton_build.s", "s", "lower"),
    ("pdip.kkt_matrix.calls", "count", "lower"),
    ("pdip.kkt_matrix.s", "s", "lower"),
    ("pdip.inertia_retries", "count", "lower"),
    ("pdip.newton_step.self_s", "s", "lower"),
    ("pdip.factor.calls", "count", "lower"),
    ("pdip.factor.s", "s", "lower"),
    ("pdip.factor.lu_nnz", "count", "lower"),
    ("gjn.epochs", "count", "lower"),
    ("gjn.cell_solves", "count", "lower"),
    ("gjn.cold_restarts", "count", "lower"),
    ("gjn.exchange.s", "s", "lower"),
    ("gjn.epoch.s", "s", "lower"),
    ("gjn.cell_solve.s", "s", "lower"),
    ("gjn.spectral_radius.s", "s", "lower"),
    ("gjn.parallel_eff", "ratio", "higher"),
    ("admm.iterations", "count", "lower"),
    ("admm.x_updates", "count", "lower"),
    ("admm.inner_steps", "count", "lower"),
    ("admm.solve.s", "s", "lower"),
    ("report.build_report.s", "s", "lower"),
    ("report.write.s", "s", "lower"),
    ("cli.run.s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def per_layer(tracer, timing, plain) -> tuple[dict, dict, dict]:
    """Metrics of the traced pass (``timing``: per-operation timings with
    their span ranges), their units, and the self time by module (layer).
    ``plain`` holds the untraced timings of the same operations."""
    summary = tracer.summary([s for o in timing.values()
                              for s in tracer.spans[slice(*o["spans"])]])
    counts = tracer.counts

    def calls(n):
        return summary.get(n, (0, 0.0, 0.0))[0]

    def incl(n):
        return summary.get(n, (0, 0.0, 0.0))[1]

    def self_s(n):
        return summary.get(n, (0, 0.0, 0.0))[2]

    steps = counts.get("pdip.newton_steps", 0)
    factors = calls("pdip.factor")
    worker_s = counts.get("gjn.worker_s", 0.0)
    v = {
        "netmodel.load_case.s": incl("netmodel.load_case"),
        "ecf.build_problem.s": incl("ecf.build_problem"),
        "gjn.build_subproblems.s": incl("gjn.build_subproblems"),
        "admm.build_agents.s": incl("admm.build_agents"),
        "ecf.jac_eq_per_step": calls("ecf.jac_eq") / steps if steps else 0.0,
        "pdip.newton_steps": steps,
        "pdip.solve_nlp.calls": calls("pdip.solve_nlp"),
        "pdip.solve_nlp.self_s": self_s("pdip.solve_nlp"),
        "pdip.assemble_kkt.calls": calls("pdip.assemble_kkt"),
        "pdip.assemble_kkt.s": incl("pdip.assemble_kkt"),
        "pdip.newton_build.s": incl("pdip.newton_build"),
        "pdip.kkt_matrix.calls": calls("pdip.kkt_matrix"),
        "pdip.kkt_matrix.s": incl("pdip.kkt_matrix"),
        "pdip.inertia_retries": counts.get("pdip.inertia_retries", 0),
        "pdip.newton_step.self_s": self_s("pdip.newton_step"),
        "pdip.factor.calls": factors,
        "pdip.factor.s": incl("pdip.factor"),
        "pdip.factor.lu_nnz": (counts.get("pdip.factor.lu_nnz_total", 0)
                               / factors if factors else 0.0),
        "gjn.epochs": calls("gjn.epoch"),
        "gjn.cell_solves": calls("gjn.cell_solve"),
        "gjn.cold_restarts": (calls("pdip.solve_subproblem")
                              - calls("gjn.cell_solve")),
        "gjn.exchange.s": incl("gjn.exchange"),
        "gjn.epoch.s": incl("gjn.epoch"),
        "gjn.cell_solve.s": incl("gjn.cell_solve"),
        "gjn.spectral_radius.s": incl("gjn.spectral_radius"),
        "gjn.parallel_eff": (incl("gjn.cell_solve") / worker_s
                             if worker_s else 0.0),
        "admm.iterations": counts.get("admm.iterations", 0),
        "admm.x_updates": counts.get("admm.x_updates", 0),
        "admm.inner_steps": counts.get("admm.inner_steps", 0),
        "admm.solve.s": incl("admm.solve"),
        "report.build_report.s": incl("report.build_report"),
        "report.write.s": incl("report.write"),
        "cli.run.s": incl("cli.run"),
        "trace.self_sum_s": sum(rec[2] for rec in summary.values()),
        "trace.untraced_s": sum(o["wall"] for o in plain.values()),
    }
    for m in ECF_EVALS:
        v[f"ecf.{m}.calls"] = calls(f"ecf.{m}")
        v[f"ecf.{m}.s"] = incl(f"ecf.{m}")
    by_module: dict[str, float] = {}
    for name, rec in summary.items():
        mod = name.split(".", 1)[0]
        by_module[mod] = by_module.get(mod, 0.0) + rec[2]
    return v, UNITS, {
        "self_s_by_layer": by_module,
        "trace_overhead": v["trace.self_sum_s"] / v["trace.untraced_s"] - 1.0,
        "spans": {n: {"calls": r[0], "s": r[1], "self_s": r[2]}
                  for n, r in sorted(summary.items())}}
