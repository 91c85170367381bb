"""Topology variants the bundled cases do not cover: a hub POI serving two
feeders, and a three-phase voltage-controlled bus inside a feeder."""

import numpy as np
import pytest

from gridweld import gjn
from gridweld.netmodel import case_from_dict
from gridweld.pdip import solve_centralized

from conftest import raw_case, source_values
from oracles import solve_power_flow, within_bounds


def hub_case():
    """The two-feeder case's JSON object with both feeders moved onto one
    POI bus."""
    case = raw_case("case_twofeeder_td")
    for c in case["couplings"]:
        c["t_bus"] = "t2"
    return case


def test_hub_poi_with_two_ports_feasible():
    nets, coups = case_from_dict(hub_case())
    assert {c.t_bus for c in coups} == {"t2"}
    pf = solve_power_flow(nets, coups)
    assert pf.success and within_bounds(nets, pf)[0]
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    assert cen.converged and cen.objective < 1e-8
    dis = gjn.run(nets, coups, source_kind="current", norm="l2")
    assert dis.converged and dis.objective < 1e-8


def test_hub_poi_with_two_ports_stressed_agrees():
    case = hub_case()
    for net in case["networks"]:
        if net["name"] == "dB":
            for ld in net["loads"]:
                ld["p"] = {k: 10.0 * v for k, v in ld["p"].items()}
                ld["q"] = {k: 10.0 * v for k, v in ld["q"].items()}
        for b in net["buses"]:
            b["v_min"], b["v_max"] = 0.4, 1.6
    nets, coups = case_from_dict(case)
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    dis = gjn.run(nets, coups, source_kind="current", norm="l2")
    assert cen.converged and dis.converged
    assert cen.objective > 1e-3
    assert abs(cen.objective - dis.objective) < 1e-4


def feeder_pv_case():
    """Micro case with a voltage-controlled three-phase machine at d3."""
    case = raw_case("case_micro_td")
    d = case["networks"][1]
    for b in d["buses"]:
        if b["id"] == "d3":
            b["kind"] = "pv"
            b["v_set"] = 1.0
    d["generators"].append({"bus": "d3", "mode": "pv",
                            "p": {ph: 0.1 for ph in "abc"},
                            "q_min": -0.8, "q_max": 0.8})
    return case_from_dict(case)


def test_three_phase_pv_bus_holds_magnitude():
    nets, coups = feeder_pv_case()
    from gridweld.ecf import PortBuild, build_problem
    from gridweld.pdip import solve_nlp
    ports = [PortBuild(c, "internal") for c in coups]
    prob = build_problem(nets, ports, source_kind="current", norm="l2")
    state, status = solve_nlp(prob)
    assert status == "converged"
    s = source_values(prob, state.x)
    assert 0.5 * float(s @ s) < 1e-8
    dnet = next(n for n in nets if n.side == "distribution")
    at = {label: i for i, label in enumerate(prob.var_label)}
    for ph in "abc":
        iu, iv = at[f"vr:d3:{ph}"], at[f"vi:d3:{ph}"]
        assert np.hypot(state.x[iu], state.x[iv]) == pytest.approx(1.0,
                                                                   abs=1e-7)
        assert f"q:d3:{ph}" in at


def test_three_phase_pv_bus_distributed():
    nets, coups = feeder_pv_case()
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    dis = gjn.run(nets, coups, source_kind="current", norm="l2")
    assert cen.converged and dis.converged
    assert abs(cen.objective - dis.objective) < 1e-6
