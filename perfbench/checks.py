"""Correctness checks the benchmark runs on every workload's outputs.

Each check compares a result against something the solver did not
produce: a closed form, a second solution path (another mode, another
norm, another worker count), or a property the method must have.  None
compares against a stored copy of earlier output.  Every check returns a
list of ``(operation, message)`` failures; an empty list means it passed.
A message that starts with ``status`` says the operation did not finish
(it did not converge); any other message says an output is wrong.
"""

from __future__ import annotations

import math

FEASIBLE_OBJECTIVE = 1e-8     # a feasible case must give (near) zero sources
MODE_MATCH = 1e-4             # dpdip / ADMM objective against central

# Closed-form optimum of case_2bus_mismatch: slack V1 = 1, a unit
# conductance line, load P = 0.5 at bus 2 (more than the 0.25 the line can
# deliver).  With a real bus-2 voltage V the source must make up
#   current:    I(V) = 0.5/V - (1 - V)      min at V = 1/sqrt(2): sqrt(2) - 1
#   power:      P(V) = 0.5 - V (1 - V)      min at V = 1/2:       1/4
#   admittance: g(V) = 0.5/V^2 - 1/V + 1    min at V = 1:         1/2
# and the L2 objective is half the square of the same magnitude.
_TWO_BUS = {"current": math.sqrt(2.0) - 1.0, "power": 0.25,
            "admittance": 0.5}
TWO_BUS_OPTIMUM = {(kind, norm): (v if norm == "l1" else 0.5 * v * v)
                   for kind, v in _TWO_BUS.items() for norm in ("l1", "l2")}


def _components(report):
    return [v for e in report["per_node"] for v in e["components"].values()]


def l1_norm(report) -> float:
    return sum(abs(v) for v in _components(report))


def half_sq_norm(report) -> float:
    return 0.5 * sum(v * v for v in _components(report))


def check_status(op, report, rc=0):
    if rc != 0 or report.get("status") != "converged":
        return [(op, f"status {report.get('status')!r}, exit code {rc}")]
    return []


def check_closed_form(op, report, kind, norm, tol=1e-6):
    want = TWO_BUS_OPTIMUM[(kind, norm)]
    got = report["objective_pu"]
    if not abs(got - want) <= tol:
        return [(op, f"2-bus {kind}/{norm} objective {got!r}, closed form "
                     f"{want!r}")]
    return []


def check_cross_norm(op_l1, rep_l1, op_l2, rep_l2, rel=1e-6, abs_tol=1e-8):
    """Each norm's solution is optimal for its own norm: the L1 solution's
    sum |s| cannot exceed the L2 solution's, and the reverse for 1/2 |s|^2."""
    out = []
    a, b = l1_norm(rep_l1), l1_norm(rep_l2)
    if a > b * (1 + rel) + abs_tol:
        out.append((op_l1, f"L1 solution has |s|_1 {a!r} > L2 solution's {b!r}"))
    a, b = half_sq_norm(rep_l2), half_sq_norm(rep_l1)
    if a > b * (1 + rel) + abs_tol:
        out.append((op_l2, f"L2 solution has |s|^2/2 {a!r} > L1 solution's "
                           f"{b!r}"))
    return out


def check_feasible_zero(op, objective):
    if objective is None or not objective < FEASIBLE_OBJECTIVE:
        return [(op, f"feasible case objective {objective!r} "
                     f">= {FEASIBLE_OBJECTIVE}")]
    return []


def check_mode_match(op, objective, central_objective):
    if objective is None or not abs(objective - central_objective) <= MODE_MATCH:
        return [(op, f"objective {objective!r} differs from central "
                     f"{central_objective!r} by more than {MODE_MATCH}")]
    return []


def check_report_sums(op, report, rel=1e-9, abs_tol=1e-12):
    """``totals``, ``objective_pu``, magnitudes and ``nonzero_count`` are
    recomputed from the ``per_node`` components."""
    out = []

    def close(a, b):
        return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))

    totals = {"magnitude": 0.0}
    nonzero = 0
    for e in report["per_node"]:
        comps = e["components"]
        mag = math.sqrt(sum(v * v for v in comps.values()))
        if not close(mag, e["magnitude"]):
            out.append((op, f"{e['bus']}/{e['phase']}: magnitude "
                            f"{e['magnitude']!r} != |components| {mag!r}"))
        totals["magnitude"] += abs(e["magnitude"])
        for c, v in comps.items():
            totals[c] = totals.get(c, 0.0) + abs(v)
        nonzero += e["magnitude"] > report["threshold"]
    if set(totals) != set(report["totals"]):
        out.append((op, f"totals keys {sorted(report['totals'])} != "
                        f"{sorted(totals)}"))
    for c, v in totals.items():
        if c in report["totals"] and not close(v, report["totals"][c]):
            out.append((op, f"totals[{c}] {report['totals'][c]!r} != {v!r}"))
    obj = l1_norm(report) if report["norm"] == "l1" else half_sq_norm(report)
    if not close(obj, report["objective_pu"]):
        out.append((op, f"objective_pu {report['objective_pu']!r} != {obj!r}"))
    if nonzero != report["nonzero_count"]:
        out.append((op, f"nonzero_count {report['nonzero_count']} != "
                        f"{nonzero}"))
    return out


def check_radius(op, raw, damped=None, gamma=None, converged_undamped=True):
    """An undamped run that converged has a contracting exchange (raw < 1);
    relaxation by gamma maps each eigenvalue toward one, so the damped
    radius is at most (1 - gamma) + gamma * raw, and below one."""
    out = []
    if converged_undamped and not raw < 1.0:
        out.append((op, f"raw spectral radius {raw!r} >= 1 on a converged "
                        f"undamped run"))
    if damped is not None:
        bound = (1.0 - gamma) + gamma * raw
        if not damped <= bound + 1e-9:
            out.append((op, f"damped radius {damped!r} > (1-g) + g*raw = "
                            f"{bound!r}"))
        if not damped < 1.0:
            out.append((op, f"damped radius {damped!r} >= 1"))
    return out


def check_identical(op, blob_a, blob_b, what):
    if blob_a != blob_b:
        return [(op, f"{what} differ")]
    return []


def check_compare_rows(op, rows, feasible):
    """All three algorithms converge and agree with C-PDIP."""
    out = []
    by_alg = {r["algorithm"]: r for r in rows}
    for name in ("C-PDIP", "D-PDIP", "ADMM"):
        r = by_alg.get(name)
        if r is None or r["status"] != "converged" or r["objective"] is None:
            out.append((op, f"status {None if r is None else r['status']!r}"
                            f" from {name}"))
    if out:
        return out
    central = by_alg["C-PDIP"]["objective"]
    for name in ("D-PDIP", "ADMM"):
        out += check_mode_match(op, by_alg[name]["objective"], central)
    if feasible:
        for name in ("C-PDIP", "D-PDIP", "ADMM"):
            out += check_feasible_zero(op, by_alg[name]["objective"])
    return out
