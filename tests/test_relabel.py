"""Bus relabeling: renaming every bus changes no assembled array and no
reported value, since bus ids are names and the case order fixes the
layout."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gridweld import PortBuild, build_problem, gjn, pdip
from gridweld.netmodel import case_from_dict, load_partition

from conftest import load, partition_path, problem_digest, raw_case

CASES = {"case_micro_td": "micro_default", "case_micro_flowcap": "micro_default",
         "case_threefeeder_td": "threefeeder"}


def _relabel(case, seed):
    """The case with every bus id renamed through a seeded injective map,
    in the networks and in the couplings; returns ``(nets, coups, names)``."""
    raw = raw_case(case)
    ids = [b["id"] for n in raw["networks"] for b in n["buses"]]
    fresh = [f"n{k}" for k in range(len(ids))]
    random.Random(seed).shuffle(fresh)
    names = dict(zip(ids, fresh))
    for n in raw["networks"]:
        for b in n["buses"]:
            b["id"] = names[b["id"]]
        for br in n["branches"]:
            br["from"], br["to"] = names[br["from"]], names[br["to"]]
        for dev in n["loads"] + n["generators"]:
            dev["bus"] = names[dev["bus"]]
    for c in raw["couplings"]:
        c["t_bus"], c["d_bus"] = names[c["t_bus"]], names[c["d_bus"]]
    return (*case_from_dict(raw), names)


def _renamed(label, names):
    """``label`` with each bus id in it renamed: the ``:``-separated fields,
    and the ends of a flow label's ``from-to``."""
    return ":".join("-".join(names.get(end, end) for end in part.split("-"))
                    for part in label.split(":"))


def _problems(nets, coups, part, kind, norm):
    subs = gjn.build_subproblems(part, source_kind=kind, norm=norm)
    ports = [PortBuild(c, "internal") for c in coups]
    return [build_problem(nets, ports, source_kind=kind, norm=norm)] + [s.problem for s in subs]


@settings(max_examples=6, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["current", "power", "admittance"]),
       norm=st.sampled_from(["l1", "l2"]))
def test_relabeling_buses_changes_no_array_and_no_reported_value(case, seed, kind, norm):
    nets, coups = load(case)
    renamed, rcoups, names = _relabel(case, seed)
    part = load_partition(partition_path(CASES[case]), nets, coups)
    rpart = load_partition(partition_path(CASES[case]), renamed, rcoups)
    before = _problems(nets, coups, part, kind, norm)
    after = _problems(renamed, rcoups, rpart, kind, norm)
    assert [problem_digest(p, names=False) for p in before] == \
        [problem_digest(p, names=False) for p in after]
    for p, q in zip(before, after):
        for labels in ("var_label", "eq_label", "in_label"):
            assert [_renamed(lbl, names) for lbl in getattr(p, labels)] == getattr(q, labels)
        assert [(nm, names[bus], ph) for nm, bus, ph in p.source_nodes] == q.source_nodes

    def per_node(report, rename):
        return {(e.net, rename(e.bus), e.phase): (e.components, e.magnitude, e.x, e.y)
                for e in report.per_node}
    opts = pdip.SolverOptions(kkt_tolerance=1e-8)
    a = pdip.solve_centralized(nets, coups, source_kind=kind, norm=norm, opts=opts)
    b = pdip.solve_centralized(renamed, rcoups, source_kind=kind, norm=norm, opts=opts)
    assert (a.status, a.objective, a.nonzero_count) == (b.status, b.objective, b.nonzero_count)
    assert per_node(a, names.get) == per_node(b, lambda bus: bus)
