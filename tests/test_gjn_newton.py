"""The Newton step on the Gauss-Jacobi boundary and the re-centering of
blocked warm starts: runs that the plain exchange jams or never finishes
converge, and the plain exchange stays as the fallback."""

import numpy as np
import pytest

from gridweld import gjn, pdip
from gridweld.netmodel import load_partition
from gridweld.pdip import solve_centralized

from conftest import load, partition_path


def coordinator(case, kind, norm, **kw):
    nets, coups = load(case)
    part = load_partition(partition_path("micro_default"), nets, coups)
    return gjn.Coordinator(nets, coups, part, source_kind=kind, norm=norm, **kw)


def test_flowcap_l1_converges_to_central():
    """Fault (a): the plain exchange runs out 200 epochs here, its cell T
    capped at the inner budget in every epoch from the second."""
    nets, coups = load("case_micro_flowcap")
    cen = solve_centralized(nets, coups, source_kind="current", norm="l1")
    rep = coordinator("case_micro_flowcap", "current", "l1", max_epochs=10).run()
    assert cen.converged and rep.status == "converged"
    assert abs(rep.objective - cen.objective) < 1e-6
    assert rep.nonzero_count == cen.nonzero_count


def test_flowcap_l2_cells_are_never_capped():
    """Warm starts whose boundary moved re-center instead of crawling along
    their bounds for the whole inner budget."""
    co = coordinator("case_micro_flowcap", "current", "l2")
    assert co.run().converged
    capped = [(r.epoch, name) for r in co.epochs
              for name, (status, _) in r.inner.items()
              if status == "iteration-capped"]
    assert capped == []


def test_singular_newton_system_falls_back_to_plain_steps(monkeypatch):
    """With ``I - BA`` singular every epoch takes the plain exchange, and the
    run reaches the same answer."""
    newton = coordinator("case_micro_td_stressed", "current", "l2")
    want = newton.run()
    # the last epoch met the tolerance and took no step of its own
    steps = [r.step for r in newton.epochs]
    assert want.converged and steps == ["newton"] * (len(steps) - 1) + ["plain"]

    monkeypatch.setattr(gjn.Coordinator, "epoch_map",
                        lambda self: np.eye(self.boundary.size))
    plain = coordinator("case_micro_td_stressed", "current", "l2")
    rep = plain.run()
    assert rep.converged
    assert {r.step for r in plain.epochs} == {"plain"}
    assert rep.epochs > want.epochs
    assert rep.nonzero_count == want.nonzero_count
    assert abs(rep.objective - want.objective) < 1e-6


def test_recentering_raises_eps_within_its_cap_and_ends_at_the_floor():
    """A warm start after a boundary move: eps rises only by re-centering,
    never past ``RECENTER_CAP``, and a converged solve ends at the floor."""
    co = coordinator("case_micro_flowcap", "current", "l2", max_epochs=1)
    co.run()                        # one epoch, then its exchange
    sub = co.by_name["T"]
    co._load(sub)
    steps = []
    state, status = pdip.solve_subproblem(sub.problem, warm=sub.state,
                                          capped=True, trace=steps)
    rises = [(a.eps, b.eps) for a, b in zip(steps, steps[1:]) if b.eps > a.eps]
    assert status == "converged"
    assert rises and all(hi <= pdip.RECENTER_CAP for _, hi in rises)
    assert state.eps == pytest.approx(pdip.SolverOptions().barrier_floor)
