import json

import numpy as np
import pytest

from gridweld import gjn
from gridweld.coupling import (CouplingPort, _AGG, distribute_dual_t_to_d,
                               port_dual_prices)
from gridweld.netmodel import load_partition
from gridweld.pdip import assemble_kkt, solve_centralized

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
    first, m1 = gjn.gauss_boundary_update(co.torn, co.boundary, co.by_name)
    again, m2 = gjn.gauss_boundary_update(co.torn, first, co.by_name)
    for key in first:
        assert np.array_equal(first[key].stacked(), again[key].stacked())
    assert m2 == 0.0


def test_jacobi_trajectory_identical_for_any_worker_count():
    runs = []
    for workers in (1, 2, 8):
        co = coordinator("case_twofeeder_stressed", partition="twofeeder",
                         workers=workers)
        rep = co.run()
        assert rep.converged
        runs.append((rep.objective,
                     [(r.epoch, r.metric, json.dumps(r.boundary_after,
                                                     sort_keys=True))
                      for r in co.epochs]))
    assert runs[0] == runs[1] == runs[2]


def test_decomposed_kkt_coincides_with_centralized_at_its_solution():
    """With boundary values fixed at the combined optimum, each cell's
    first-order conditions are satisfied by the combined solution."""
    from gridweld.coupling import distribute_voltage_t_to_d
    from gridweld.ecf import PortBuild, build_problem
    from gridweld.pdip import KktState, solve_nlp

    nets, coups = load("case_micro_td_stressed")
    ports = [PortBuild(CouplingPort(c), "internal") for c in coups]
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
    port = CouplingPort(coups[0])
    tsub = co.by_name[co.partition.owner_of("t0")]
    dsub = co.by_name[co.partition.owner_of("d0")]
    # boundary values read off the combined solution
    draw = np.array([cstate.x[cvar[f"itr:{key}"]], cstate.x[cvar[f"iti:{key}"]]])
    vt = np.array([cstate.x[cvar[f"vr:{spec[0]}:1"]],
                   cstate.x[cvar[f"vi:{spec[0]}:1"]]])
    lam_t = np.array([cstate.lam[ceq[f"kclr:{spec[0]}:1"]],
                      cstate.lam[ceq[f"kcli:{spec[0]}:1"]]])
    d_state = mapped_state(dsub)
    dsub.problem.set_params(f"headv:{key}",
                            distribute_voltage_t_to_d(port, vt[0], vt[1]))
    dsub.problem.set_params(f"price:{key}", port_dual_prices(port, *lam_t))
    d_res = assemble_kkt(dsub.problem, d_state)
    assert d_res.stationarity < 1e-7
    assert d_res.feasibility < 1e-7

    head_sens = dsub.problem.param_lagrangian_grad(
        d_state.x, d_state.lam, d_state.mu, f"headv:{key}")
    t_state = mapped_state(tsub)
    tsub.problem.set_params(f"draw:{key}", draw)
    tsub.problem.set_params(f"vprice:{key}", _AGG @ head_sens)
    t_res = assemble_kkt(tsub.problem, t_state)
    assert t_res.stationarity < 1e-7
    assert t_res.feasibility < 1e-7


def test_dual_relationship_holds_at_convergence():
    gauss_tol = 1e-6
    co = coordinator("case_micro_td_stressed", gauss_tol=gauss_tol)
    rep = co.run()
    assert rep.converged
    for key, port, t_sub, d_sub in co.torn:
        tsub, dsub = co.by_name[t_sub], co.by_name[d_sub]
        spec = port.spec
        tnet = next(n.name for n in tsub.nets if n.has_bus(spec.t_bus))
        rr, ri = tsub.problem.maps.kcl_row[(tnet, spec.t_bus, "1")]
        lam_t = (tsub.state.lam[rr], tsub.state.lam[ri])
        dnet = next(n.name for n in dsub.nets if n.has_bus(spec.d_bus))
        lam_d = np.array([dsub.state.lam[dsub.problem.maps.kcl_row[
            (dnet, spec.d_bus, ph)][c]] for ph in "abc" for c in (0, 1)])
        want = port_dual_prices(port, *lam_t)
        assert np.max(np.abs(lam_d - want)) < 10 * gauss_tol
        # equivalently, the stated rotation form scaled by the aggregation's 1/3
        stated = np.asarray(distribute_dual_t_to_d(port, *lam_t)) / 3.0
        assert np.max(np.abs(lam_d - stated)) < 10 * gauss_tol


def test_boundary_payload_contains_no_internal_state():
    co = coordinator("case_micro_td_stressed")
    rep = co.run()
    allowed = {"port", "draw", "head_voltage", "price", "v_price",
               "t_voltage", "t_dual", "d_current"}
    for key, bs in co.boundary.items():
        payload = bs.payload(key)
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


FROZEN_MICRO_RHO = 0.15796278906192782


# frozen radii, measured on the dense global block-Jacobi matrix; the
# micro_flowcap radius (a head load and a capped head branch, so the head
# parameters enter rows nonlinearly) agrees with a central-difference
# Jacobian of one exact epoch (h = 1e-7), sqrt(rho) = 0.1527419, to 3e-7
@pytest.mark.parametrize("case,partition,damping,want", [
    pytest.param("case_micro_td", None, 1.0, FROZEN_MICRO_RHO, id="micro_td-raw"),
    pytest.param("case_twofeeder_stressed", None, 1.0, 0.38560390036451886,
                 id="twofeeder_stressed-raw"),
    pytest.param("case_threefeeder_td", None, 0.5, 0.5231060954714792,
                 id="threefeeder_td-0.5"),
    pytest.param("case_feeder210_stressed", None, 1.0, 0.2924736090232543,
                 id="feeder210_stressed-raw"),
    pytest.param("case_micro_flowcap", None, 1.0, 0.15274159949223337,
                 id="micro_flowcap-raw"),
    # one cell, no torn port: nothing to exchange
    pytest.param("case_micro_td", "micro_single", 1.0, 0.0, id="micro_single-raw"),
    pytest.param("case_micro_td", "micro_single", 0.5, 0.0, id="micro_single-0.5"),
])
@pytest.mark.filterwarnings("ignore:coupling .*degenerate tearing:UserWarning")
def test_spectral_radius_frozen(case, partition, damping, want):
    co = coordinator(case, partition=partition)
    assert co.run().converged
    assert co.spectral_radius(damping=damping) == pytest.approx(want, abs=1e-9)


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
    for key, port, t_sub, d_sub in co.torn:
        bs = co.boundary[key]
        tsub = co.by_name[t_sub]
        ext_draw = tsub.problem.get_params(f"draw:{key}")
        want = aggregate_current_d_to_t(port, bs.d_current)
        assert np.max(np.abs(np.asarray(want) - ext_draw)) <= 2 * gauss_tol
        dsub = co.by_name[d_sub]
        head = dsub.problem.get_params(f"headv:{key}")
        want_v = distribute_voltage_t_to_d(port, *bs.t_voltage)
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
    ports = [PortBuild(CouplingPort(c), "internal") for c in coups]
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
