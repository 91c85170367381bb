import numpy as np
import pytest

from gridweld import admm, gjn, pdip
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
    assert {"r", "s", "rho"} <= set(rows[-1])


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
    call raises too.  Returns the list of calls as (warm given, raised)."""
    original = pdip.solve_nlp
    calls = []

    def flaky(problem, opts=None, warm=None, **kw):
        failed_before = any(r for _, r in calls)
        raised = ((warm is not None and not failed_before)
                  or (fail_cold and failed_before))
        calls.append((warm is not None, raised))
        if raised:
            raise pdip.SolveFailure("forced")
        return original(problem, opts, warm=warm, **kw)
    monkeypatch.setattr(pdip, "solve_nlp", flaky)
    return calls


def test_failed_warm_x_update_restarts_cold(monkeypatch):
    calls = _failing_warm_solves(monkeypatch, fail_cold=False)
    nets, coups = load("case_micro_td")
    rep = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                          tol=1e-6)
    first = calls.index((True, True))
    assert calls[first + 1] == (False, False)      # the cold restart
    assert rep.status == "converged"
    assert rep.objective < 1e-8


def test_failed_cold_restart_ends_run_with_report(monkeypatch):
    _failing_warm_solves(monkeypatch, fail_cold=True)
    nets, coups = load("case_micro_td")
    rep = admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                          tol=1e-6)
    assert rep.status == "failed"
    assert rep.epochs == 2
    row = gjn._mode_row("ADMM", rep, rep.epochs)
    assert row["objective"] is None
