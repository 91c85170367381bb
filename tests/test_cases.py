"""Shipped-case hygiene: feasible cases truly solve inside their bands,
stressed variants truly violate or lack a solution, and a feasible case
needs no infeasibility source."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridweld import casegen, solve_centralized
from gridweld.ecf import NORMS, SOURCE_KINDS
from gridweld.netmodel import case_from_dict

from conftest import load
from oracles import solve_power_flow, within_bounds

FEASIBLE = ("case_micro_td", "case_twofeeder_td", "case_threefeeder_td",
            "case_feeder210")
STRESSED_BY_BOUNDS = ("case_micro_qstress", "case_feeder210_stressed")
STRESSED_BY_DELIVERABILITY = ("case_micro_td_stressed", "case_tline_stressed",
                              "case_twofeeder_stressed", "case_2bus_mismatch")


@pytest.mark.parametrize("case", FEASIBLE)
def test_feasible_cases_have_in_band_power_flow(case):
    nets, coups = load(case)
    pf = solve_power_flow(nets, coups)
    assert pf.success, f"{case}: power flow did not solve ({pf.mismatch:.2e})"
    ok, worst = within_bounds(nets, pf)
    assert ok, f"{case}: bound violated at {worst}"


@pytest.mark.parametrize("case", STRESSED_BY_BOUNDS)
def test_band_stressed_cases_violate_their_bands(case):
    nets, coups = load(case)
    pf = solve_power_flow(nets, coups)
    assert pf.success
    ok, worst = within_bounds(nets, pf)
    assert not ok, f"{case}: expected a voltage-band violation"


@pytest.mark.parametrize("case", STRESSED_BY_DELIVERABILITY)
def test_deliverability_cases_have_no_network_solution(case):
    nets, coups = load(case)
    pf = solve_power_flow(nets, coups)
    assert not pf.success, \
        f"{case}: expected no plain network solution, mismatch {pf.mismatch:.2e}"


def test_flowcap_case_violates_its_caps_at_the_network_solution():
    from oracles import net_ybus
    nets, coups = load("case_micro_flowcap")
    pf = solve_power_flow(nets, coups)
    assert pf.success           # solvable, but only outside the flow caps
    worst = 0.0
    for net in nets:
        nodes, idx, Y = net_ybus(net)
        for br in net.branches:
            if br.flow_limit is None:
                continue
            for oi, phi in enumerate(br.phases):
                cur = 0j
                for oj, phj in enumerate(br.phases):
                    y = br.g[oi][oj] + 1j * br.b[oi][oj]
                    cur += y * (pf.volts[(net.name, br.from_bus, phj)]
                                - pf.volts[(net.name, br.to_bus, phj)])
                worst = max(worst, abs(cur) - br.flow_limit)
    assert worst > 0.01


def test_feeder_case_is_at_least_two_hundred_phase_nodes():
    nets, _ = load("case_feeder210_stressed")
    d = next(n for n in nets if n.side == "distribution")
    assert sum(len(b.phases) for b in d.buses) >= 200


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(case=st.sampled_from([casegen.case_micro_td, casegen.case_twofeeder_td,
                             casegen.case_feeder210]),
       scale=st.floats(0.0, 1.0), kind=st.sampled_from(SOURCE_KINDS),
       norm=st.sampled_from(NORMS))
def test_feasible_case_gives_zero(case, scale, kind, norm):
    """A generator's case with its load scaled into [0, 1] is feasible, so
    the central solve converges with no nonzero source."""
    nets, coups = case_from_dict(case(scale))
    rep = solve_centralized(nets, coups, source_kind=kind, norm=norm)
    assert rep.status == "converged"
    assert rep.nonzero_count == 0 and rep.objective < 1e-8
