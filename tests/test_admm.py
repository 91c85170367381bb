import numpy as np
import pytest

from gridweld import PortBuild, admm, build_problem, gjn, pdip
from gridweld.coupling import distribute_voltage_t_to_d
from gridweld.netmodel import load_partition
from gridweld.pdip import solve_centralized

from conftest import load, partition_path


def test_single_subproblem_reduces_to_centralized():
    nets, coups = load("case_micro_td")
    with pytest.warns(UserWarning, match="degenerate"):
        part = load_partition(partition_path("micro_single"), nets, coups)
    rep = admm.admm_solve(nets, coups, part, source_kind="current", norm="l2")
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    assert rep.status == "converged"
    assert rep.epochs == 1
    assert abs(rep.objective - cen.objective) < 1e-8


@pytest.mark.parametrize("kind,norm", [("current", "l2"), ("power", "l1"),
                                       ("admittance", "l2")])
def test_phasor_cell_is_head_cell_with_head_voltages_kept(rng, kind, norm):
    """A 'd_phasor' feeder cell poses the 'd_head' cell's problem: with the
    head voltages at the balanced expansion of the phasor, both cells have
    the same inequality rows, every shared row takes the same value and the
    six tie rows vanish."""
    nets, coups = load("case_micro_td_stressed")
    dnet = next(n for n in nets if n.side == "distribution")
    spec = coups[0]
    head, phasor = (build_problem([dnet], [PortBuild(spec, mode)],
                                  source_kind=kind, norm=norm)
                    for mode in ("d_head", "d_phasor"))
    x = phasor.x0() + 0.05 * rng.standard_normal(phasor.nvar)
    expansion = distribute_voltage_t_to_d(spec, *x[phasor.maps.poi_v[spec.key]])
    x[phasor.maps.head_v[spec.key]] = expansion
    head.params[head.param_slots[f"headv:{spec.key}"]] = expansion
    at = {label: i for i, label in enumerate(phasor.var_label)}
    x_head = x[[at[label] for label in head.var_label]]

    c_head, c_phasor = head.residual_eq(x_head), phasor.residual_eq(x)
    eq_at = {label: i for i, label in enumerate(phasor.eq_label)}
    for i, label in enumerate(head.eq_label):
        assert c_phasor[eq_at.pop(label)] == pytest.approx(c_head[i], abs=1e-12)
    assert sorted(eq_at) == sorted(f"c2{part}:{spec.key}:{ph}"
                                   for part in "ri" for ph in "abc")
    assert np.max(np.abs(c_phasor[list(eq_at.values())])) < 1e-15

    g_head, g_phasor = head.residual_in(x_head), phasor.residual_in(x)
    in_at = {label: i for i, label in enumerate(head.in_label)}
    assert sorted(phasor.in_label) == sorted(in_at)    # no head voltage bounds
    for i, label in enumerate(phasor.in_label):
        assert g_phasor[i] == g_head[in_at[label]]


def test_feasible_case_converges_to_zero():
    nets, coups = load("case_micro_td")
    rep = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                          tol=1e-6)
    assert rep.status == "converged"
    assert rep.objective < 1e-8


def test_infeasible_micro_matches_centralized():
    nets, coups = load("case_micro_td_stressed")
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    rep = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                          tol=1e-6, rho=200.0, adapt=False,
                          max_iterations=1500)
    assert rep.status == "converged"
    assert abs(rep.objective - cen.objective) < 1e-3


def test_more_outer_iterations_than_distributed_and_gap_widens():
    nets, coups = load("case_micro_td_stressed")
    outer = {}
    for tol in (1e-6, 1e-8):
        a = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                            tol=tol, rho=200.0, adapt=False,
                            max_iterations=3000)
        d = gjn.run(nets, coups, source_kind="current", norm="l2",
                    gauss_tol=tol)
        assert a.status == "converged" and d.status == "converged"
        assert a.epochs > d.epochs
        outer[tol] = (a.epochs, d.epochs)
    gap_loose = outer[1e-6][0] - outer[1e-6][1]
    gap_tight = outer[1e-8][0] - outer[1e-8][1]
    assert gap_tight > gap_loose


def test_primal_residual_trends_down_on_mild_case(tmp_path):
    import json
    path = tmp_path / "admm.jsonl"
    nets, coups = load("case_micro_td")
    rep = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                          tol=1e-8, trace_path=str(path))
    assert rep.status == "converged"
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    r = [row["r"] for row in rows]
    assert len(r) >= 12
    window = 10
    means = [np.mean(r[i:i + window]) for i in range(0, len(r) - window)]
    drops = sum(1 for a, b in zip(means, means[1:]) if b <= a + 1e-12)
    assert drops >= 0.7 * (len(means) - 1)
    assert {"r", "s", "rho", "delta_steps"} <= set(rows[-1])
    assert all(isinstance(row["delta_steps"], int) and row["delta_steps"] >= 0
               for row in rows)


def test_budget_exhaustion_reported_as_dash_in_comparison():
    nets, coups = load("case_micro_td_stressed")
    rep = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                          tol=1e-10, max_iterations=3, rho=10.0)
    assert rep.status == "budget-exhausted"
    row = gjn._mode_row("ADMM", rep, rep.epochs)
    assert row["objective"] is None
    table = gjn.format_comparison([row], "case")
    assert "—" in table


def _failing_warm_solves(monkeypatch, fail_cold):
    """Make the first warm x-update raise; with ``fail_cold`` every later
    call raises too.  Returns the list of calls as (warm given, raised) and
    the Newton steps of each solve that returned."""
    original = pdip.solve_nlp
    calls, steps = [], []

    def flaky(problem, opts=None, warm=None, **kw):
        failed_before = any(r for _, r in calls)
        raised = ((warm is not None and not failed_before)
                  or (fail_cold and failed_before))
        calls.append((warm is not None, raised))
        if raised:
            raise pdip.SolveFailure("forced")
        start = warm.iterations if warm is not None else 0
        state, status = original(problem, opts, warm=warm, **kw)
        steps.append(state.iterations - start)
        return state, status
    monkeypatch.setattr(pdip, "solve_nlp", flaky)
    return calls, steps


def test_failed_warm_x_update_restarts_cold(monkeypatch):
    calls, steps = _failing_warm_solves(monkeypatch, fail_cold=False)
    nets, coups = load("case_micro_td")
    rep = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                          tol=1e-6)
    first = calls.index((True, True))
    assert calls[first + 1] == (False, False)      # the cold restart
    assert rep.status == "converged"
    assert rep.objective < 1e-8
    # the x-updates before the cold restart still count
    assert rep.inner_iterations == sum(steps)


def test_failed_cold_restart_ends_run_with_report(monkeypatch):
    _failing_warm_solves(monkeypatch, fail_cold=True)
    nets, coups = load("case_micro_td")
    rep = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                          tol=1e-6)
    assert rep.status == "failed"
    assert rep.epochs == 2
    row = gjn._mode_row("ADMM", rep, rep.epochs)
    assert row["objective"] is None
