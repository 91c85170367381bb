import copy
import dataclasses
import json

import numpy as np
import pytest

from gridweld import gjn
from gridweld.coupling import (distribute_dual_t_to_d, poi_voltage_price,
                               port_dual_prices)
from gridweld.netmodel import load_partition
from gridweld.pdip import assemble_kkt, solve_centralized, solve_subproblem

from conftest import load, partition_path


def coordinator(case, partition=None, **kw):
    nets, coups = load(case)
    part = (load_partition(partition_path(partition), nets, coups)
            if partition else None)
    kw.setdefault("source_kind", "current")
    kw.setdefault("norm", "l2")
    return gjn.Coordinator(nets, coups, part, **kw)


def test_single_subproblem_equals_centralized_bit_for_bit():
    nets, coups = load("case_micro_td")
    with pytest.warns(UserWarning, match="degenerate"):
        part = load_partition(partition_path("micro_single"), nets, coups)
    co = gjn.Coordinator(nets, coups, part, source_kind="current", norm="l2")
    rep = co.run()
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    assert rep.epochs == 1
    assert rep.status == "converged"
    assert rep.objective == cen.objective
    a = {(e.net, e.bus, e.phase): e.magnitude for e in rep.per_node}
    b = {(e.net, e.bus, e.phase): e.magnitude for e in cen.per_node}
    assert a == b


def test_feasible_distributed_zero_objective():
    co = coordinator("case_micro_td")
    rep = co.run()
    assert rep.status == "converged"
    assert rep.objective < 1e-8


@pytest.mark.parametrize("case", ["case_micro_td_stressed",
                                  "case_tline_stressed",
                                  "case_twofeeder_stressed"])
def test_distributed_matches_centralized_on_infeasible_cases(case):
    nets, coups = load(case)
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    rep = gjn.run(nets, coups, source_kind="current", norm="l2")
    assert cen.converged and rep.converged
    assert abs(rep.objective - cen.objective) < 1e-4


def test_gauss_update_is_pure_function_of_snapshots():
    co = coordinator("case_micro_td_stressed")
    rep = co.run()
    assert rep.converged
    first, m1, _ = gjn.gauss_boundary_update(co.torn, co.boundary, co.by_name)
    again, m2, _ = gjn.gauss_boundary_update(co.torn, first, co.by_name)
    assert np.array_equal(first, again)
    assert m2 == 0.0


def test_jacobi_trajectory_identical_for_any_worker_count(tmp_path):
    """Each trace line holds the epoch's metric and step kind, each cell's
    status and step counts, and every port's payload: the traces of 1, 2
    and 8 workers agree byte for byte."""
    runs = []
    for workers in (1, 2, 8):
        path = tmp_path / f"trace{workers}.jsonl"
        co = coordinator("case_twofeeder_stressed", partition="twofeeder",
                         workers=workers, trace_path=path)
        rep = co.run()
        assert rep.converged
        runs.append((rep.objective, path.read_bytes()))
    assert len(runs[0][1].splitlines()) == rep.epochs
    assert runs[0] == runs[1] == runs[2]


def test_decomposed_kkt_coincides_with_centralized_at_its_solution():
    """With boundary values fixed at the combined optimum, each cell's
    first-order conditions are satisfied by the combined solution."""
    from gridweld.coupling import distribute_voltage_t_to_d
    from gridweld.ecf import PortBuild, build_problem
    from gridweld.pdip import KktState, solve_nlp

    nets, coups = load("case_micro_td_stressed")
    ports = [PortBuild(c, "internal") for c in coups]
    central = build_problem(nets, ports, source_kind="current", norm="l2")
    cstate, cstatus = solve_nlp(central)
    assert cstatus == "converged"

    co = coordinator("case_micro_td_stressed")
    cvar = {lbl: i for i, lbl in enumerate(central.var_label)}
    ceq = {lbl: i for i, lbl in enumerate(central.eq_label)}
    cin = {lbl: i for i, lbl in enumerate(central.in_label)}

    def mapped_state(sub):
        x = np.zeros(sub.problem.nvar)
        for i, lbl in enumerate(sub.problem.var_label):
            x[i] = cstate.x[cvar[lbl]]
        lam = np.array([cstate.lam[ceq[lbl]] for lbl in sub.problem.eq_label])
        mu = np.array([cstate.mu[cin[lbl]] for lbl in sub.problem.in_label])
        return KktState(x=x, lam=lam, mu=mu, eps=cstate.eps)

    spec = coups[0].t_bus, coups[0].d_bus
    key = f"{spec[0]}:{spec[1]}"
    port = coups[0]
    tsub = co.by_name[co.torn[0].t_cell]
    dsub = co.by_name[co.torn[0].d_cell]
    # boundary values read off the combined solution
    draw = np.array([cstate.x[cvar[f"itr:{key}"]], cstate.x[cvar[f"iti:{key}"]]])
    vt = np.array([cstate.x[cvar[f"vr:{spec[0]}:1"]],
                   cstate.x[cvar[f"vi:{spec[0]}:1"]]])
    lam_t = np.array([cstate.lam[ceq[f"kclr:{spec[0]}:1"]],
                      cstate.lam[ceq[f"kcli:{spec[0]}:1"]]])
    d_state = mapped_state(dsub)
    dprob, tprob = dsub.problem, tsub.problem
    dprob.params[dprob.param_slots[f"headv:{key}"]] = distribute_voltage_t_to_d(port, *vt)
    dprob.params[dprob.param_slots[f"price:{key}"]] = port_dual_prices(port, *lam_t)
    d_res = assemble_kkt(dsub.problem, d_state)
    assert d_res.stationarity < 1e-7
    assert d_res.feasibility < 1e-7

    head_sens = dsub.problem.param_lagrangian_grad(
        d_state.x, d_state.lam, d_state.mu, f"headv:{key}")
    t_state = mapped_state(tsub)
    tprob.params[tprob.param_slots[f"draw:{key}"]] = draw
    tprob.params[tprob.param_slots[f"vprice:{key}"]] = poi_voltage_price(port, head_sens)
    t_res = assemble_kkt(tsub.problem, t_state)
    assert t_res.stationarity < 1e-7
    assert t_res.feasibility < 1e-7


def test_dual_relationship_holds_at_convergence():
    gauss_tol = 1e-6
    co = coordinator("case_micro_td_stressed", gauss_tol=gauss_tol)
    rep = co.run()
    assert rep.converged
    for p in co.torn:
        key, spec = p.key, p.spec
        tsub, dsub = co.by_name[p.t_cell], co.by_name[p.d_cell]
        lam_t = tsub.state.lam[tsub.problem.maps.poi_row[key]]
        lam_d = dsub.state.lam[[dsub.problem.eq_label.index(f"kcl{c}:{spec.d_bus}:{ph}")
                                for ph in "abc" for c in "ri"]]
        want = port_dual_prices(spec, *lam_t)
        assert np.max(np.abs(lam_d - want)) < 10 * gauss_tol
        # equivalently, the stated rotation form scaled by the aggregation's 1/3
        stated = np.asarray(distribute_dual_t_to_d(spec, *lam_t)) / 3.0
        assert np.max(np.abs(lam_d - stated)) < 10 * gauss_tol


def test_boundary_payload_contains_no_internal_state():
    co = coordinator("case_micro_td_stressed")
    rep = co.run()
    allowed = {"port", "draw", "head_voltage", "price", "v_price",
               "t_voltage", "t_dual", "d_current"}
    for key in (p.key for p in co.torn):
        payload = co.payload(key)
        assert set(payload) == allowed
        blob = json.dumps(payload)
        for internal_bus in ("t1", "t2", "t3", "d2", "d3"):
            assert f'"{internal_bus}' not in blob and internal_bus + ":" not in blob
        # boundary buses are the only identifiers that may appear
        assert payload["port"] == key


def test_epoch_budget_exhaustion_reported():
    co = coordinator("case_micro_td_stressed", max_epochs=2)
    rep = co.run()
    assert rep.status == "epoch-budget-exhausted"
    assert rep.epochs == 2


def test_divergence_detector():
    assert not gjn._diverging([1.0, 2.0, 3.0])
    assert not gjn._diverging([1, 1, 1, 5, 5, 5])
    assert gjn._diverging([.1, .1, .1, 2.0, 2.0, 2.0])
    assert gjn._diverging([1, 1, 1, 20, 30, 40])


def test_ext_int_ratio_reported_and_warned():
    with pytest.warns(UserWarning, match="boundary dimension"):
        co = coordinator("case_micro_td")
    rep = co.run()
    ratios = rep.diagnostics["ext_int_ratio"]
    assert set(ratios) == {"t0", "d0"}
    assert all(r > 0 for r in ratios.values())
    # every boundary value a cell reads counts: draw and v-price on the
    # transmission side, head voltages and prices on the feeder side
    for sub in co.subs:
        assert ratios[sub.name] == sub.problem.n_param / sub.problem.nvar


def test_spectral_radius_toy_examples():
    # no coupling: the splitting leaves nothing off-diagonal
    Y = np.diag([2.0, 3.0, 4.0])
    assert gjn.spectral_radius_split(Y, [np.arange(3)]) == 0.0
    Y = np.array([[2.0, -1.0, 0.0, 0.0],
                  [-1.0, 2.0, 0.0, 0.0],
                  [0.0, 0.0, 5.0, 1.0],
                  [0.0, 0.0, 1.0, 5.0]])
    assert gjn.spectral_radius_split(Y, [[0, 1], [2, 3]]) == 0.0
    # the classical point-Jacobi example
    Y = np.array([[2.0, -1.0], [-1.0, 2.0]])
    r = gjn.spectral_radius_split(Y, [[0], [1]])
    assert abs(r - 0.5) < 1e-12


# the radius at the run's final states, which sit within the exchange
# tolerance of the fixed point; frozen at gauss_tol=1e-10, where Jacobi and
# Newton exchanges end within 1.1e-11 of each other here
FROZEN_MICRO_RHO = 0.15796282004350212
# the micro_flowcap run passes through cold restarts at a binding head flow
# cap, so rounding-level changes move its radius by up to a few 1e-9: with
# SuperLU's default panel size and relaxation, with each of the two set to
# one alone and with both, each with and without stored zeros dropped before
# the first factorization, it ranged over 0.1527415988-0.1527416016
# (spread 2.8e-9) while the other radii moved by < 1e-14.  It also moves
# with the boundary at which the states are read: the cap's slack is about
# 1e-9, and a 1e-12 move of the boundary moves the radius by 2e-8.  At
# gauss_tol=1e-10 the Jacobi exchange ends at 0.1527415935 and the Newton
# exchange at 0.1527415811; the frozen value is their midpoint
FLOWCAP_RHO_TOL = 1e-8
FROZEN_FLOWCAP_RHO = 0.15274158728330622


# frozen radii, measured on the dense global block-Jacobi matrix; the
# micro_flowcap radius (a head load and a capped head branch, so the head
# parameters enter rows nonlinearly) agrees with a central-difference
# Jacobian of one exact epoch (h = 1e-7), sqrt(rho) = 0.1527419, to 3e-7
@pytest.mark.parametrize("case,partition,damping,want,tol", [
    pytest.param("case_micro_td", None, 1.0, FROZEN_MICRO_RHO, 1e-9, id="micro_td-raw"),
    pytest.param("case_twofeeder_stressed", None, 1.0, 0.38560390036451886, 1e-9,
                 id="twofeeder_stressed-raw"),
    pytest.param("case_threefeeder_td", None, 0.5, 0.5231061030638654, 1e-9,
                 id="threefeeder_td-0.5"),
    pytest.param("case_feeder210_stressed", None, 1.0, 0.2924736090232543, 1e-9,
                 id="feeder210_stressed-raw"),
    pytest.param("case_micro_flowcap", None, 1.0, FROZEN_FLOWCAP_RHO,
                 FLOWCAP_RHO_TOL, id="micro_flowcap-raw"),
    # one cell, no torn port: nothing to exchange
    pytest.param("case_micro_td", "micro_single", 1.0, 0.0, 1e-9, id="micro_single-raw"),
    pytest.param("case_micro_td", "micro_single", 0.5, 0.0, 1e-9, id="micro_single-0.5"),
])
@pytest.mark.filterwarnings("ignore:coupling .*degenerate tearing:UserWarning")
def test_spectral_radius_frozen(case, partition, damping, want, tol):
    co = coordinator(case, partition=partition)
    assert co.run().converged
    assert co.spectral_radius(damping=damping) == pytest.approx(want, abs=tol)


# micro_flowcap is left out: its warm start turns non-interior at the
# binding flow cap under any perturbation tried
@pytest.mark.parametrize("case", ["case_micro_td_stressed",
                                  "case_twofeeder_stressed"])
def test_epoch_map_matches_central_differences_of_exact_epochs(case):
    """``epoch_map`` against ``(F(b + h e_j) - F(b - h e_j)) / 2h``, where F
    is one undamped epoch whose cells re-solve to convergence from their
    converged states."""
    co = coordinator(case)
    assert co.run().converged
    BA = co.epoch_map()

    def epoch(b):
        subs = {}
        for sub in co.subs:
            sub.problem.params[:] = b[sub.cols]
            state, status = solve_subproblem(sub.problem,
                                             warm=copy.deepcopy(sub.state))
            assert status == "converged"
            subs[sub.name] = dataclasses.replace(sub, state=state)
        return gjn.gauss_boundary_update(co.torn, b, subs)[0]

    b, h = co.boundary, 1e-6
    fd = np.column_stack([(epoch(b + h * e) - epoch(b - h * e)) / (2 * h)
                          for e in np.eye(b.size)])
    assert BA.shape == fd.shape == (b.size, b.size)
    assert np.max(np.abs(fd - BA)) < 1e-6


def test_spectral_radius_without_state_names_the_cell():
    co = coordinator("case_micro_td")
    with pytest.raises(ValueError, match="'t0'"):
        co.spectral_radius()
    co.run()
    co.by_name["d0"].state = None
    with pytest.raises(ValueError, match="'d0'"):
        co.spectral_radius()


def test_spectral_radius_below_one_on_converged_cases():
    for case in ("case_micro_td", "case_micro_td_stressed",
                 "case_twofeeder_stressed"):
        co = coordinator(case)
        rep = co.run()
        assert rep.converged, case
        assert co.spectral_radius() < 1.0, case


def test_coupling_equalities_hold_at_boundary():
    gauss_tol = 1e-6
    co = coordinator("case_micro_td_stressed", gauss_tol=gauss_tol)
    rep = co.run()
    assert rep.converged
    from gridweld.coupling import (aggregate_current_d_to_t,
                                   distribute_voltage_t_to_d)
    for p in co.torn:
        key, spec = p.key, p.spec
        bs = co.payload(key)
        tsub = co.by_name[p.t_cell]
        ext_draw = tsub.problem.params[tsub.problem.param_slots[f"draw:{key}"]]
        want = aggregate_current_d_to_t(spec, bs["d_current"])
        assert np.max(np.abs(want - ext_draw)) <= 2 * gauss_tol
        dsub = co.by_name[p.d_cell]
        head = dsub.problem.params[dsub.problem.param_slots[f"headv:{key}"]]
        want_v = distribute_voltage_t_to_d(spec, *bs["t_voltage"])
        assert np.max(np.abs(want_v - head)) <= 2 * gauss_tol


def test_qonly_study_agrees_distributed():
    nets, coups = load("case_micro_qstress")
    cen = solve_centralized(nets, coups, source_kind="power", norm="l2",
                            q_only=True)
    dis = gjn.run(nets, coups, source_kind="power", norm="l2", q_only=True)
    assert cen.converged and dis.converged
    assert abs(cen.objective - dis.objective) < 1e-6


def test_large_feeder_distributed_agrees():
    nets, coups = load("case_feeder210_stressed")
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    dis = gjn.run(nets, coups, source_kind="current", norm="l2")
    assert cen.converged and dis.converged
    assert abs(cen.objective - dis.objective) < 1e-6


def test_partition_variables_plus_boundary_cover_centralized_set():
    from gridweld.ecf import PortBuild, build_problem
    nets, coups = load("case_micro_td")
    ports = [PortBuild(c, "internal") for c in coups]
    central = build_problem(nets, ports, source_kind="current", norm="l2")
    co = coordinator("case_micro_td")
    cell_labels = set()
    for sub in co.subs:
        overlap = cell_labels & set(sub.problem.var_label)
        assert not overlap
        cell_labels |= set(sub.problem.var_label)
    key = f"{coups[0].t_bus}:{coups[0].d_bus}"
    boundary_labels = {f"itr:{key}", f"iti:{key}"} | {
        f"v{c}:{coups[0].d_bus}:{ph}" for c in "ri" for ph in "abc"}
    assert set(central.var_label) == cell_labels | boundary_labels


def test_trace_file_records_epochs(tmp_path):
    path = tmp_path / "trace.jsonl"
    co = coordinator("case_micro_td", trace_path=str(path))
    rep = co.run()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == rep.epochs
    assert all(l["type"] == "epoch" for l in lines)
    assert "metric" in lines[-1] and "ports" in lines[-1]


@pytest.mark.parametrize("case,kind,norm,key", [
    # 3 of the run's 41 accepted steps take delta != 0, all in cell T
    ("case_micro_qstress", "admittance", "l1", "delta_steps"),
    # converges only through a cold restart of cell D
    ("case_micro_flowcap", "current", "l2", "cold_restart"),
    # cell T's warm start in epoch 2 re-centers once
    ("case_micro_flowcap", "current", "l2", "recentered"),
])
def test_epoch_trace_records_delta_steps_and_cold_restarts(tmp_path, case, kind,
                                                           norm, key):
    """A cell's entry in an epoch line counts its accepted steps with
    ``delta != 0``, tells whether its solve was a cold restart and counts
    its re-centerings; the line gives the step kind and the metric it was
    chosen against.  The trace leaves the run and its report as they are
    without one."""
    path = tmp_path / "trace.jsonl"
    runs = [coordinator(case, "micro_default", source_kind=kind, norm=norm,
                        trace_path=trace) for trace in (str(path), None)]
    reports = [json.dumps(co.run().to_json_dict(), sort_keys=True) for co in runs]
    assert reports[0] == reports[1]
    assert all(not r.solves for r in runs[1].epochs)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    cells = [c for l in lines for c in l["inner"].values()]
    assert len(lines) == len(runs[0].epochs) and len(cells) == 2 * len(lines)
    for c in cells:
        assert set(c) == {"status", "iterations", "delta_steps", "cold_restart",
                          "recentered"}
        assert 0 <= c["delta_steps"] <= c["iterations"]
        assert isinstance(c["cold_restart"], bool)
        assert 0 <= c["recentered"] <= c["iterations"]
    assert all(l["step"] in ("newton", "plain") for l in lines)
    assert ([l["last_metric"] for l in lines]
            == [None] + [l["metric"] for l in lines[:-1]])
    assert sum(c[key] for c in cells) >= 1
