import json
import warnings

import pytest

from gridweld.netmodel import (CaseError, case_from_dict, default_partition,
                               load_partition, partition_from_dict)

from conftest import CASES, PARTITIONS, load, partition_path, raw_case


def minimal_two_bus():
    return {
        "base_mva": 100.0,
        "networks": [{
            "name": "t0", "side": "transmission",
            "buses": [
                {"id": "b1", "kind": "slack", "phases": "1", "v_set": 1.0,
                 "v_min": 0.9, "v_max": 1.1, "infeasibility_eligible": False},
                {"id": "b2", "kind": "pq", "phases": "1",
                 "v_min": 0.9, "v_max": 1.1, "infeasibility_eligible": True},
            ],
            "branches": [{"from": "b1", "to": "b2", "G": [[1.0]], "B": [[0.0]]}],
            "loads": [{"bus": "b2", "p": {"1": 0.2}, "q": {"1": 0.05}}],
            "generators": [],
        }],
        "couplings": [],
    }


def test_minimal_two_bus_case():
    nets, coups = case_from_dict(minimal_two_bus())
    assert len(nets) == 1 and not coups
    net = nets[0]
    assert [b.kind for b in net.buses] == ["slack", "pq"]
    assert len(net.branches) == 1


def test_dangling_branch_reference_names_the_bus():
    case = minimal_two_bus()
    case["networks"][0]["branches"].append(
        {"from": "b1", "to": "b99", "G": [[1.0]], "B": [[0.0]]})
    with pytest.raises(CaseError, match="b99"):
        case_from_dict(case)


def test_duplicate_bus_ids_rejected():
    case = minimal_two_bus()
    buses = case["networks"][0]["buses"]
    buses += [dict(buses[1]), dict(buses[1]), dict(buses[0], kind="pq", v_set=None)]
    with pytest.raises(CaseError, match=r"duplicate bus ids \['b1', 'b2'\]$"):
        case_from_dict(case)


def _set(path, value):
    """A mutation of ``minimal_two_bus()`` setting the field at ``path``
    (keys and list positions from the case root); ``value`` None deletes
    it."""
    def mutate(case):
        *parents, last = path
        for key in parents:
            case = case[key]
        if value is None:
            del case[last]
        else:
            case[last] = value
    return mutate


_NET = ("networks", 0)
_BUS = (*_NET, "buses", 1)
_BRANCH = (*_NET, "branches", 0)
_LOAD = (*_NET, "loads", 0)
_PV_GEN = {"bus": "b2", "mode": "pv", "p": {"1": 0.1}, "q_min": -0.5, "q_max": 0.5}


def _distribution_branch(case):
    """The branch's two buses on distribution phases that do not meet."""
    net = case["networks"][0]
    net["side"] = "distribution"
    net["buses"][0].update(kind="pq", phases="a", v_set=None)
    net["buses"][1]["phases"] = "b"
    del net["buses"][0]["v_set"]


def _with_generator(**fields):
    def mutate(case):
        case["networks"][0]["generators"].append({**_PV_GEN, **fields})
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set((*_BUS, "v_max"), None), "network 't0' bus 'b2': missing field 'v_max'"),
    (_set((*_BUS, "kind"), "slackish"),
     "network 't0' bus 'b2': kind must be one of \\('slack', 'pv', 'pq'\\), got 'slackish'"),
    (_set((*_BUS, "phases"), 1), "network 't0' bus 'b2': 'phases' must be a string or list"),
    (_set((*_BUS, "phases"), "ax"), "network 't0' bus 'b2': unknown phase\\(s\\) \\['x'\\]"),
    (_set((*_NET, "buses", 0, "v_set"), -1.0), "network 't0' bus 'b1': 'v_set' must be positive"),
    (_set((*_BRANCH, "B"), None), "network 't0' branch b1-b2: missing field 'B'"),
    (_set((*_BRANCH, "G"), [[1.0], [0.0]]),
     "network 't0' branch b1-b2: 'G' must be a 1x1 matrix over the shared phase set"),
    (_set((*_BRANCH, "B"), [[]]), "network 't0' branch b1-b2: 'B' row length != 1"),
    (_set((*_BRANCH, "G"), [[float("nan")]]), "network 't0' branch b1-b2: 'G' must be finite"),
    (_distribution_branch, "network 't0' branch b1-b2: endpoints share no phase"),
    (_set((*_BRANCH, "flow_limit"), 0.0),
     "network 't0' branch b1-b2: 'flow_limit' must be positive"),
    (_set((*_LOAD, "bus"), None), "network 't0' load at '\\?': missing field 'bus'"),
    (_set((*_LOAD, "bus"), "b9"), "network 't0' load at 'b9': references unknown bus id 'b9'"),
    (_set((*_LOAD, "p"), {"a": 0.2}),
     "network 't0' load at 'b2': phase 'a' not connected at bus 'b2'"),
    (_set((*_LOAD, "q"), [0.05]), "network 't0' load at 'b2': 'q' must map phase -> value"),
    (_with_generator(), "network 't0' generator at 'b2': pv-mode generator requires a pv bus"),
    (_with_generator(mode="pz"), "network 't0' generator at 'b2': mode must be 'pq' or 'pv'"),
    (_with_generator(mode="pq", q_min=0.6),
     "network 't0' generator at 'b2': q_min must be <= q_max"),
    (_with_generator(mode="pq", p={"b": 0.1}),
     "network 't0' generator at 'b2': phase 'b' not connected at bus 'b2'"),
    (_set((*_BUS, "v_min"), "low"), "network 't0' bus 'b2': 'v_min' must be a number, got 'low'"),
    (lambda case: case["networks"][0]["buses"][1].update(v_min=None),
     "network 't0' bus 'b2': 'v_min' must be a number, got None"),
    (_set((*_BUS, "infeasibility_eligible"), "false"),
     "network 't0' bus 'b2': 'infeasibility_eligible' must be true or false, got 'false'"),
    (_set((*_BRANCH, "G"), [["x"]]),
     "network 't0' branch b1-b2: 'G' must hold numbers, got \\['x'\\]"),
    (_set((*_LOAD, "p"), {"1": "big"}),
     "network 't0' load at 'b2': 'p' must map phase -> number, got {'1': 'big'}"),
    (_set((*_BUS, "v_min"), True), "network 't0' bus 'b2': 'v_min' must be a number, got True"),
    (_set((*_LOAD, "p"), {"1": True}),
     "network 't0' load at 'b2': 'p' must map phase -> number, got {'1': True}"),
    (_set((*_BRANCH, "G"), [[True]]),
     "network 't0' branch b1-b2: 'G' must hold numbers, got \\[True\\]"),
    (_set((*_BUS, "v_min"), "0.93"),
     "network 't0' bus 'b2': 'v_min' must be a number, got '0.93'"),
    (_set((*_LOAD, "p"), {"1": "0.2"}),
     "network 't0' load at 'b2': 'p' must map phase -> number, got {'1': '0.2'}"),
    (_set((*_BRANCH, "G"), [["1.0"]]),
     "network 't0' branch b1-b2: 'G' must hold numbers, got \\['1.0'\\]"),
    (lambda case: case["networks"].append(5), "case: 'networks'\\[1\\] must be an object, got int"),
    (_set((*_NET, "buses"), {"b1": {}}), "network 't0': 'buses' must be a list, got dict"),
    (_set((*_BUS, "v_max"), 10 ** 400), "network 't0' bus 'b2': 'v_max' must be finite, got inf"),
    (_set((*_LOAD, "p"), {"1": -10 ** 400}), "network 't0' load at 'b2': 'p' must be finite"),
    (_set((*_BRANCH, "G"), [[10 ** 400]]), "network 't0' branch b1-b2: 'G' must be finite"),
], ids=["bus-missing-field", "bus-kind", "bus-phases-type", "bus-phase-unknown",
        "bus-v_set-positive", "branch-missing-field", "matrix-shape", "matrix-short-row",
        "matrix-non-finite", "branch-no-shared-phase", "branch-flow-limit", "load-missing-bus",
        "load-unknown-bus", "load-phase", "phase-map-type", "generator-pv-on-pq",
        "generator-mode", "generator-q-box", "generator-phase", "number-string",
        "number-null", "eligible-string", "matrix-string", "phase-map-string",
        "number-bool", "phase-map-bool", "matrix-bool", "number-numeric-string",
        "phase-map-numeric-string", "matrix-numeric-string", "network-not-object",
        "buses-not-list", "number-huge-int", "phase-map-huge-int", "matrix-huge-int"])
def test_each_rejection_names_the_element_and_the_fault(mutate, message):
    """Every message is formatted only when its check fails, so each one is
    run here: one field of ``minimal_two_bus()`` changed at a time."""
    case = minimal_two_bus()
    mutate(case)
    with pytest.raises(CaseError, match=f"^{message}"):
        case_from_dict(case)


@pytest.mark.parametrize("path, value, field", [
    (("base_mva",), float("inf"), "base_mva"),
    ((*_BUS, "v_min"), float("nan"), "v_min"),
    ((*_BUS, "v_max"), float("inf"), "v_max"),
    ((*_NET, "buses", 0, "v_set"), float("inf"), "v_set"),
    ((*_BUS, "x"), float("nan"), "x"),
    ((*_BUS, "y"), float("-inf"), "y"),
    ((*_BRANCH, "flow_limit"), float("inf"), "flow_limit"),
    ((*_LOAD, "p"), {"1": float("nan")}, "p"),
    ((*_LOAD, "q"), {"1": float("inf")}, "q"),
], ids=["base_mva", "v_min", "v_max", "v_set", "x", "y", "flow_limit", "load-p", "load-q"])
def test_non_finite_numbers_rejected(path, value, field):
    case = minimal_two_bus()
    _set(path, value)(case)
    with pytest.raises(CaseError, match=f"'{field}' must be finite"):
        case_from_dict(case)


def test_generator_box_may_be_infinite_but_not_nan():
    """``q_min``/``q_max`` default to -inf/+inf, so only NaN is rejected.
    An integer too large for a float reads as infinite, as ``1e400`` does."""
    for lo, hi in ((float("-inf"), float("inf")), (-10 ** 400, 10 ** 400)):
        case = minimal_two_bus()
        _with_generator(mode="pq", q_min=lo, q_max=hi)(case)
        (net,), _ = case_from_dict(case)
        gen = net.generators[0]
        assert (gen.q_min, gen.q_max) == (float("-inf"), float("inf"))
    for key in ("q_min", "q_max"):
        case = minimal_two_bus()
        _with_generator(mode="pq", **{key: float("nan")})(case)
        with pytest.raises(CaseError, match=f"generator at 'b2': '{key}' must be finite, got nan"):
            case_from_dict(case)


def test_coupling_bases_must_be_finite():
    for key in ("s_base", "v_base"):
        case = raw_case("case_micro_td")
        case["couplings"][0][key] = float("inf")
        with pytest.raises(CaseError, match=f"coupling\\[0\\]: '{key}' must be finite"):
            case_from_dict(case)


def test_nonpositive_base_rejected():
    case = minimal_two_bus()
    case["base_mva"] = 0.0
    with pytest.raises(CaseError, match="base_mva"):
        case_from_dict(case)


def test_slack_must_not_be_eligible():
    case = minimal_two_bus()
    case["networks"][0]["buses"][0]["infeasibility_eligible"] = True
    with pytest.raises(CaseError, match="slack"):
        case_from_dict(case)


def test_v_set_requirements():
    case = minimal_two_bus()
    del case["networks"][0]["buses"][0]["v_set"]
    with pytest.raises(CaseError, match="v_set"):
        case_from_dict(case)
    case = minimal_two_bus()
    case["networks"][0]["buses"][1]["v_set"] = 1.0
    with pytest.raises(CaseError, match="v_set"):
        case_from_dict(case)


def test_voltage_band_ordering_checked():
    case = minimal_two_bus()
    case["networks"][0]["buses"][1]["v_min"] = 1.2
    with pytest.raises(CaseError, match="v_min"):
        case_from_dict(case)


def test_disconnected_network_rejected():
    case = minimal_two_bus()
    case["networks"][0]["buses"].append(
        {"id": "b3", "kind": "pq", "phases": "1", "v_min": 0.9, "v_max": 1.1,
         "infeasibility_eligible": True})
    with pytest.raises(CaseError, match="disconnected"):
        case_from_dict(case)


def test_micro_case_counts():
    nets, coups = load("case_micro_td")
    t = [n for n in nets if n.side == "transmission"]
    d = [n for n in nets if n.side == "distribution"]
    assert len(t) == 1 and len(d) == 1 and len(coups) == 1
    assert len(t[0].buses) == 4
    assert len(d[0].buses) == 3
    assert all(b.phases == ("a", "b", "c") for b in d[0].buses)
    assert coups[0].kappa == pytest.approx(5e5 / 7500.0)


def test_coupling_node_must_be_pq_and_unique():
    case = raw_case("case_micro_td")
    case["couplings"].append(dict(case["couplings"][0]))
    with pytest.raises(CaseError, match="already has a port"):
        case_from_dict(case)
    case = raw_case("case_micro_td")
    for b in case["networks"][1]["buses"]:
        if b["id"] == "d1":
            b["kind"] = "pv"
            b["v_set"] = 1.0
    with pytest.raises(CaseError, match="pq bus"):
        case_from_dict(case)


def test_distribution_needs_coupling():
    case = minimal_two_bus()
    case["networks"].append({
        "name": "d0", "side": "distribution",
        "buses": [{"id": "d1", "kind": "pq", "phases": "abc", "v_min": 0.9,
                   "v_max": 1.1, "infeasibility_eligible": False}],
        "branches": [], "loads": [], "generators": []})
    with pytest.raises(CaseError, match="coupling"):
        case_from_dict(case)


def test_default_partition_micro():
    nets, coups = load("case_micro_td")
    part = default_partition(nets, coups)
    assert [c.name for c in part.cells] == ["t0", "d0"]
    assert part.external_couplings == [0]
    assert part.internal_couplings == []


def test_partition_file_micro_default():
    nets, coups = load("case_micro_td")
    part = load_partition(partition_path("micro_default"), nets, coups)
    assert len(part.cells) == 2
    assert len(part.external_couplings) == 1


def test_partition_file_needs_the_couplings():
    """Without the case's couplings a partition would have no ports, and a
    distributed run would solve its cells uncoupled."""
    nets, _ = load("case_micro_td")
    with pytest.raises(TypeError, match="couplings"):
        load_partition(partition_path("micro_default"), nets)


def test_degenerate_single_subproblem_warns():
    nets, coups = load("case_micro_td")
    with pytest.warns(UserWarning, match="degenerate"):
        part = load_partition(partition_path("micro_single"), nets, coups)
    assert len(part.cells) == 1
    assert part.internal_couplings == [0]
    assert part.external_couplings == []


def test_threefeeder_partition_shape():
    nets, coups = load("case_threefeeder_td")
    part = load_partition(partition_path("threefeeder"), nets, coups)
    assert len(part.cells) == 4
    assert len(part.external_couplings) == 3


def test_partition_validates_assignment():
    nets, coups = load("case_micro_td")
    with pytest.raises(CaseError, match="assigned to both"):
        partition_from_dict({"subproblems": [
            {"name": "a", "networks": ["t0", "d0"]},
            {"name": "b", "networks": ["d0"]}]}, nets, coups)
    with pytest.raises(CaseError, match="not assigned"):
        partition_from_dict({"subproblems": [
            {"name": "a", "networks": ["t0"]}]}, nets, coups)
    with pytest.raises(CaseError, match="unknown network"):
        partition_from_dict({"subproblems": [
            {"name": "a", "networks": ["t0", "dX"]}]}, nets, coups)
    with pytest.raises(CaseError, match="^partition: duplicate subproblem name 'a'$"):
        partition_from_dict({"subproblems": [
            {"name": "a", "networks": ["t0"]},
            {"name": "a", "networks": ["d0"]}]}, nets, coups)


def test_partition_covers_variables_once():
    nets, coups = load("case_threefeeder_td")
    part = load_partition(partition_path("threefeeder"), nets, coups)
    seen = [m.name for c in part.cells for m in c.networks]
    assert sorted(seen) == sorted(n.name for n in nets)
    assert len(seen) == len(set(seen))


def _shipped_partitions():
    """Each shipped partition file with every shipped case it assigns all
    the networks of."""
    pairs = []
    for part in sorted(PARTITIONS.glob("*.json")):
        members = {m for s in json.loads(part.read_text())["subproblems"]
                   for m in s["networks"]}
        for case in sorted(CASES.glob("case_*.json")):
            if {n["name"] for n in json.loads(case.read_text())["networks"]} == members:
                pairs.append((case.stem, part.stem))
    return pairs


def test_every_shipped_partition_has_a_case():
    assert ({part for _, part in _shipped_partitions()}
            == {p.stem for p in PARTITIONS.glob("*.json")})


@pytest.mark.parametrize("case, part_name", _shipped_partitions())
def test_shipped_partition_resolves_into_cells(case, part_name):
    """Each network is in exactly one cell; each coupling is internal to the
    cell holding both its sides or torn between the cell of its T bus and
    the cell of its D bus; a cell's ports run internal first, then torn, each
    in coupling order; only an internal coupling warns."""
    nets, coups = load(case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        part = load_partition(partition_path(part_name), nets, coups)
    owner = {}
    for cell in part.cells:
        for net in cell.networks:
            assert net.name not in owner
            owner[net.name] = cell.name
    assert sorted(owner) == sorted(n.name for n in nets)
    cell_of = {b.id: owner[n.name] for n in nets for b in n.buses}
    internal = {c.name: [] for c in part.cells}
    torn = {c.name: [] for c in part.cells}
    for i, spec in enumerate(coups):
        t_cell, d_cell = cell_of[spec.t_bus], cell_of[spec.d_bus]
        assert (i in part.internal_couplings) == (t_cell == d_cell)
        assert (i in part.external_couplings) == (t_cell != d_cell)
        if t_cell == d_cell:
            internal[t_cell].append(spec)
        else:
            torn[t_cell].append(spec)
            torn[d_cell].append(spec)
    assert [p.spec for p in part.torn] == [coups[i] for i in part.external_couplings]
    for cell in part.cells:
        assert [p.spec for p in cell.ports] == internal[cell.name] + torn[cell.name]
        for p in cell.ports:
            assert (p.t_cell, p.d_cell) == (cell_of[p.spec.t_bus], cell_of[p.spec.d_bus])
    degenerate = [w for w in caught if "degenerate" in str(w.message)]
    assert len(degenerate) == len(part.internal_couplings)
    assert bool(degenerate) == (part_name == "micro_single")
