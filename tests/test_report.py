import csv
import json

import pytest

from gridweld import admm, gjn, pdip
from gridweld.netmodel import case_from_dict, load_partition
from gridweld.pdip import KktState, SolveFailure, assemble_kkt, solve_centralized
from gridweld.report import (SCHEMA_VERSION, build_report, export_heatmap,
                             localize_weak_nodes, write_report)

from conftest import centralized_problem, load, partition_path, raw_case


def read_heatmap(path):
    """The rows of a heatmap CSV below its header, as ``csv.reader`` reads
    them."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.fixture(scope="module")
def stressed_report():
    nets, coups = load("case_micro_td_stressed")
    return solve_centralized(nets, coups, source_kind="current", norm="l2")


def test_totals_equal_sum_of_per_node_values(stressed_report):
    rep = stressed_report
    by_comp = {}
    mag = 0.0
    for e in rep.per_node:
        mag += abs(e.magnitude)
        for c, v in e.components.items():
            by_comp[c] = by_comp.get(c, 0.0) + abs(v)
    assert rep.totals["magnitude"] == pytest.approx(mag, abs=1e-12)
    for c, v in by_comp.items():
        assert rep.totals[c] == pytest.approx(v, abs=1e-12)


def test_localize_empty_for_feasible_case():
    nets, coups = load("case_micro_td")
    rep = solve_centralized(nets, coups, source_kind="current", norm="l2")
    assert localize_weak_nodes(rep) == []


def test_localize_single_forced_bus():
    nets, coups = load("case_2bus_mismatch")
    rep = solve_centralized(nets, coups, source_kind="current", norm="l2")
    ranked = localize_weak_nodes(rep)
    assert [r[0] for r in ranked] == ["t2"]


def test_localize_ranked_descending_with_bus_tiebreak(stressed_report):
    ranked = localize_weak_nodes(stressed_report)
    mags = [m for _, _, m in ranked]
    assert mags == sorted(mags, reverse=True)
    for (b1, p1, m1), (b2, p2, m2) in zip(ranked, ranked[1:]):
        if m1 == m2:
            assert (b1, p1) < (b2, p2)


def test_l1_localizes_fewer_nodes_than_l2():
    nets, coups = load("case_micro_td_stressed")
    counts = {}
    for norm in ("l1", "l2"):
        rep = solve_centralized(nets, coups, source_kind="current", norm=norm)
        counts[norm] = len(localize_weak_nodes(rep))
    assert counts["l1"] < counts["l2"]


def test_heatmap_row_count_and_round_trip(tmp_path, stressed_report):
    nets, _ = load("case_micro_td_stressed")
    n_phase_nodes = sum(len(b.phases) for net in nets for b in net.buses)
    path = tmp_path / "heatmap.csv"
    export_heatmap(stressed_report, path)
    rows = read_heatmap(path)
    assert len(rows) == n_phase_nodes
    by_key = {(e.bus, e.phase): e for e in stressed_report.per_node}
    for bus, ph, x, y, mag in rows:
        e = by_key[(bus, ph)]
        assert float(mag) == e.magnitude
        assert (None if x == "" else float(x)) == e.x


def test_heatmap_round_trips_a_bus_id_with_a_comma_and_a_quote(tmp_path):
    """A case may name a bus with any string: the CSV quotes such an id."""
    from gridweld.report import NodeEntry, SolveReport
    nodes = [NodeEntry(net="d", bus='d2,"x', phase="a", components={"ir": 0.25},
                       magnitude=0.25, x=1.5, y=-2.0),
             NodeEntry(net="d", bus="d3", phase="b", components={},
                       magnitude=0.0)]
    rep = SolveReport(status="converged", mode="central", norm="l2",
                      source_kind="current", q_only=False, objective=0.03125,
                      per_node=nodes, totals={"magnitude": 0.25},
                      nonzero_count=1, threshold=1e-6, kkt={}, epochs=1,
                      inner_iterations=0)
    path = tmp_path / "h.csv"
    export_heatmap(rep, path)
    assert path.read_text().splitlines()[1] == '"d2,""x",a,1.5,-2.0,0.25'
    assert read_heatmap(path) == [['d2,"x', "a", "1.5", "-2.0", "0.25"],
                                  ["d3", "b", "", "", "0.0"]]


def test_heatmap_header_only_for_empty_report(tmp_path):
    from gridweld.report import SolveReport
    rep = SolveReport(status="converged", mode="central", norm="l2",
                      source_kind="current", q_only=False, objective=0.0,
                      per_node=[], totals={"magnitude": 0.0}, nonzero_count=0,
                      threshold=1e-6, kkt={}, epochs=1, inner_iterations=0)
    path = tmp_path / "h.csv"
    export_heatmap(rep, path)
    assert path.read_text() == "bus,phase,x,y,magnitude\n"


def test_report_json_schema_and_volatile_exclusion(tmp_path, stressed_report):
    path = tmp_path / "report.json"
    write_report(stressed_report, path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    expected_keys = {"schema_version", "status", "mode", "norm", "source_kind",
                     "q_only", "objective_pu", "totals", "nonzero_count",
                     "threshold", "kkt", "epochs", "inner_iterations",
                     "diagnostics", "per_node"}
    assert set(doc) == expected_keys
    assert "wall_time" not in json.dumps(doc)
    assert doc["per_node"] == sorted(
        doc["per_node"], key=lambda e: (e["net"], e["bus"], e["phase"]))


def test_totals_invariant_under_bus_relabeling():
    nets, coups = load("case_micro_td_stressed")
    base = solve_centralized(nets, coups, source_kind="current", norm="l2")
    case = raw_case("case_micro_td_stressed")
    relabeled = json.loads(json.dumps(case).replace('"d2"', '"zz_d2"')
                           .replace('"t3"', '"aa_t3"'))
    nets2, coups2 = case_from_dict(relabeled)
    rep2 = solve_centralized(nets2, coups2, source_kind="current", norm="l2")
    for key, val in base.totals.items():
        assert rep2.totals[key] == pytest.approx(val, abs=1e-10)
    assert rep2.nonzero_count == base.nonzero_count


def test_golden_report_structure(tmp_path):
    """Schema pin: field names and value kinds of the serialized report."""
    nets, coups = load("case_micro_td")
    rep = solve_centralized(nets, coups, source_kind="current", norm="l2")
    doc = rep.to_json_dict()
    assert doc["status"] == "converged"
    assert isinstance(doc["objective_pu"], float)
    assert isinstance(doc["kkt"]["stationarity"], float)
    node = doc["per_node"][0]
    assert {"net", "bus", "phase", "components", "magnitude"} <= set(node)
    assert doc["objective_pu"] < 1e-8


def test_failed_central_report_keeps_requested_labels(monkeypatch):
    def fail(*args, **kwargs):
        raise SolveFailure("forced")
    monkeypatch.setattr(pdip, "solve_nlp", fail)
    nets, coups = load("case_micro_td_stressed")
    rep = solve_centralized(nets, coups, source_kind="power", norm="l1",
                            q_only=True)
    assert rep.status == "failed"
    assert rep.norm == "l1"
    assert rep.source_kind == "power"
    assert rep.q_only is True
    assert rep.kkt == {}
    assert all(e.magnitude == 0.0 for e in rep.per_node)


@pytest.fixture(scope="module")
def micro_cells():
    """The two cells of a converged distributed run on the stressed case."""
    nets, coups = load("case_micro_td_stressed")
    part = load_partition(partition_path("micro_default"), nets, coups)
    co = gjn.Coordinator(nets, coups, part, source_kind="current", norm="l2")
    assert co.run().converged
    parts = [(sub.problem, sub.state) for sub in co.subs]
    assert len(parts) == 2
    return nets, parts


def _assert_sources_reported(rep, problem, state):
    by_node = {(e.net, e.bus, e.phase): e for e in rep.per_node}
    for node, cols in zip(problem.source_nodes, problem.source_cols):
        entry = by_node[node]
        assert entry.components == {c: float(state.x[i]) for c, i in
                                    zip(problem.source_components, cols)}


def test_build_report_takes_worst_kkt_over_parts(micro_cells):
    nets, parts = micro_cells
    rep = build_report(parts, "converged", mode="dpdip", nets=nets)
    res = [assemble_kkt(problem, state) for problem, state in parts]
    assert rep.kkt == {
        "stationarity": max(r.stationarity for r in res),
        "feasibility": max(r.feasibility for r in res),
        "complementarity": max(r.complementarity_raw for r in res),
        "mu_min": min(r.mu_min for r in res),
        "g_max": max(r.g_max for r in res)}
    for problem, state in parts:
        _assert_sources_reported(rep, problem, state)
    n_nodes = sum(len(b.phases) for n in nets for b in n.buses)
    assert len(rep.per_node) == n_nodes
    assert len({(e.net, e.bus, e.phase) for e in rep.per_node}) == n_nodes


def test_each_solve_keeps_the_certificate_it_measured(micro_cells, monkeypatch):
    """A returned state carries the KKT residuals of its point: equal, as a
    dataclass, to assembling them again, for the central problem, both
    ``dpdip`` cells and both ADMM agents.  The report reads them and makes
    no ``assemble_kkt`` call of its own."""
    _, _, central = centralized_problem("case_micro_td_stressed")
    state, status = pdip.solve_nlp(central)
    assert status == "converged"
    nets, cells = micro_cells
    a_nets, a_coups = load("case_micro_td_stressed")
    part = load_partition(partition_path("micro_default"), a_nets, a_coups)
    co = admm.Consensus(a_nets, a_coups, part, source_kind="current", norm="l2")
    assert co.run().converged
    parts = [(central, state), *cells, *[(s.problem, s.state) for s in co.subs]]
    assert len(parts) == 5
    for problem, state in parts:
        assert isinstance(state.kkt, pdip.KktResiduals)
        assert state.kkt == assemble_kkt(problem, state)
    calls = []
    monkeypatch.setattr(pdip, "assemble_kkt", lambda *a, **k: calls.append(a))
    rep = build_report(cells, "converged", mode="dpdip", nets=nets)
    assert calls == [] and rep.kkt["stationarity"] == max(
        s.kkt.stationarity for _, s in cells)


def test_build_report_keeps_sources_of_part_failing_kkt(micro_cells):
    nets, parts = micro_cells
    bad_at = next(i for i, (p, _) in enumerate(parts) if p.n_in)
    problem, state = parts[bad_at]
    # doubled voltages break every upper band row; sources keep their values
    x = state.x.copy()
    volt = [i for i, label in enumerate(problem.var_label)
            if label.startswith(("vr:", "vi:"))]
    x[volt] *= 2.0
    bad = KktState(x=x, lam=state.lam, mu=state.mu, eps=state.eps)
    with pytest.raises(SolveFailure):
        assemble_kkt(problem, bad)
    mixed = list(parts)
    mixed[bad_at] = (problem, bad)
    rep = build_report(mixed, "failed", mode="dpdip", nets=nets)
    (good_problem, good_state), = [p for i, p in enumerate(parts)
                                   if i != bad_at]
    res = assemble_kkt(good_problem, good_state)
    assert rep.kkt == {"stationarity": res.stationarity,
                       "feasibility": res.feasibility,
                       "complementarity": res.complementarity_raw,
                       "mu_min": res.mu_min, "g_max": res.g_max}
    _assert_sources_reported(rep, problem, bad)
    _assert_sources_reported(rep, good_problem, good_state)
