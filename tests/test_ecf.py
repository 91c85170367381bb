import dataclasses
import gc
import itertools
import pickle
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gridweld import PortBuild, build_problem
from gridweld.ecf import CircuitProblem, IndexMaps, _Builder, port_builds
from gridweld.netmodel import Branch, Bus, Network, case_from_dict, load_partition

from conftest import (centralized_problem, interior_point, load, oracle_state,
                      partition_path)
from oracles import fd_jacobian, solve_power_flow
from test_netmodel import minimal_two_bus


# -- element rows of the two-bus case against complex arithmetic -------------


def _two_bus_problem(case=None, **kw):
    nets, _ = case_from_dict(case or minimal_two_bus())
    return build_problem(nets, **kw)


def _at_voltages(prob, volts):
    """Flat start with the given complex bus voltages written in."""
    x = prob.x0()
    for bus, v in volts.items():
        x[prob.var_label.index(f"vr:{bus}:1")] = v.real
        x[prob.var_label.index(f"vi:{bus}:1")] = v.imag
    return x


def test_inequality_rows_examples():
    prob = _two_bus_problem()
    rows = {label: i for i, label in enumerate(prob.in_label)}
    # the slack bus carries no band rows
    assert sorted(rows) == ["vhi:b2:1", "vlo:b2:1"]
    for v2 in (1.0 + 0.0j, 1.1 + 0.0j, 0.6 + 0.8j, 0.93 - 0.07j):
        g = prob.residual_in(_at_voltages(prob, {"b1": 1.0 + 0.0j, "b2": v2}))
        assert g[rows["vlo:b2:1"]] == pytest.approx(0.9 ** 2 - abs(v2) ** 2,
                                                    abs=1e-15)
        assert g[rows["vhi:b2:1"]] == pytest.approx(abs(v2) ** 2 - 1.1 ** 2,
                                                    abs=1e-15)


def test_branch_flow_row_matches_complex_oracle():
    case = minimal_two_bus()
    case["networks"][0]["branches"][0]["G"] = [[1.2]]
    case["networks"][0]["branches"][0]["B"] = [[-3.4]]
    case["networks"][0]["branches"][0]["flow_limit"] = 0.8
    prob = _two_bus_problem(case)
    row = prob.in_label.index("flow:0:b1-b2:1")
    v1, v2 = (1.01 + 0.02j), (0.93 - 0.07j)
    g = prob.residual_in(_at_voltages(prob, {"b1": v1, "b2": v2}))
    want = abs((1.2 - 3.4j) * (v1 - v2)) ** 2 - 0.8 ** 2
    assert g[row] == pytest.approx(want, rel=1e-13)


def test_power_source_equals_current_source_through_complex_product(rng):
    """A power source S at V enters the balance as the current conj(S / V)."""
    cur = _two_bus_problem(source_kind="current")
    pwr = _two_bus_problem(source_kind="power")
    (src_c,), (src_p,) = cur.source_cols.tolist(), pwr.source_cols.tolist()
    assert src_c == src_p
    assert pwr.var_label[:src_p[0]] == cur.var_label[:src_c[0]]
    for _ in range(25):
        v1, v2 = (complex(*(rng.uniform(0.5, 1.3, 2) * rng.choice([-1, 1], 2)))
                  for _ in range(2))
        x = _at_voltages(cur, {"b1": v1, "b2": v2})
        others = [i for i in range(cur.nvar)
                  if i not in src_c and cur.var_label[i][0] != "v"]
        x[others] += rng.standard_normal(len(others))
        i_src = complex(*rng.standard_normal(2))
        x[src_c] = i_src.real, i_src.imag
        s = v2 * np.conj(i_src)
        y = x.copy()
        y[src_p] = s.real, s.imag
        assert np.allclose(pwr.residual_eq(y), cur.residual_eq(x),
                           rtol=1e-12, atol=1e-12)


# -- assembled problem ---------------------------------------------------------


@pytest.mark.parametrize("kind", ["current", "power", "admittance"])
def test_assembled_jacobians_match_fd(kind, rng):
    nets, coups, prob = centralized_problem("case_micro_td", source_kind=kind)
    for _ in range(5):
        x = interior_point(prob, rng)
        J = prob.jac_eq(x).toarray()
        Jfd = fd_jacobian(prob.residual_eq, x)
        scale = max(1.0, np.max(np.abs(J)))
        assert np.max(np.abs(J - Jfd)) < 1e-5 * scale
        G = prob.jac_in(x).toarray()
        Gfd = fd_jacobian(prob.residual_in, x)
        assert np.max(np.abs(G - Gfd)) < 1e-5 * max(1.0, np.max(np.abs(G)))


@pytest.mark.parametrize("kind,norm", [("current", "l2"), ("power", "l2"),
                                       ("admittance", "l2"), ("current", "l1")])
def test_hessian_matches_fd_of_gradient(kind, norm, rng):
    nets, coups, prob = centralized_problem("case_micro_td", source_kind=kind,
                                            norm=norm)
    for _ in range(3):
        x = interior_point(prob, rng)
        lam = rng.standard_normal(prob.n_eq)
        mu = np.abs(rng.standard_normal(prob.n_in))

        def grad_lag(z):
            g = prob.grad_objective(z) + prob.jac_eq(z).transpose_times(lam)
            if prob.n_in:
                g = g + prob.jac_in(z).transpose_times(mu)
            return g
        W = prob.hess_lagrangian(x, lam, mu).toarray()
        Wfd = fd_jacobian(grad_lag, x)
        assert np.max(np.abs(W - Wfd)) < 2e-5 * max(1.0, np.max(np.abs(W)))


def test_hessian_exactly_symmetric(rng):
    for kind in ("current", "power", "admittance"):
        nets, coups, prob = centralized_problem("case_micro_td",
                                                source_kind=kind)
        x = interior_point(prob, rng)
        lam = rng.standard_normal(prob.n_eq)
        mu = np.abs(rng.standard_normal(prob.n_in))
        W = prob.hess_lagrangian(x, lam, mu).tocsr()
        assert (W != W.T).nnz == 0


def test_zero_sources_reduce_to_plain_power_flow_rows(rng):
    nets, coups, prob = centralized_problem("case_micro_td",
                                            source_kind="current")
    _, _, plain = centralized_problem("case_micro_td", source_kind=None)
    x = prob.x0() + 0.03 * rng.standard_normal(prob.nvar)
    x[prob.source_cols] = 0.0
    r = prob.residual_eq(x)
    r_plain = plain.residual_eq(x[:plain.nvar])
    assert np.array_equal(r, r_plain)


def test_variable_ordering_documented_layout():
    """Voltages lead, bus by bus and phase by phase; every source column
    comes after every port-variable column and, under L1, before every
    epigraph column: on the central build and on each cell build of both
    port-mode pairs."""
    nets, coups, prob = centralized_problem("case_micro_td")
    labels = prob.var_label
    assert labels[0].startswith("vr:t1") and labels[1].startswith("vi:t1")
    first_d = labels.index("vr:d1:a")
    assert labels[first_d + 1] == "vi:d1:a"
    assert labels[first_d + 2] == "vr:d1:b"
    part = load_partition(partition_path("micro_default"), nets, coups)
    builds = [(nets, [PortBuild(c, "internal") for c in coups])]
    for modes in (("t_draw", "d_head"), ("t_free", "d_phasor")):
        builds += [(cell.networks, port_builds(cell, *modes)) for cell in part.cells]
    for (build_nets, ports), norm in itertools.product(builds, ("l1", "l2")):
        prob = build_problem(build_nets, ports, source_kind="current", norm=norm)
        m = prob.maps
        port_cols = [c for cols in [*m.port_tvar.values(), *m.port_dvar.values()]
                     for c in cols]
        port_cols += [c for pb in ports if pb.mode == "d_phasor"
                      for c in m.poi_v[pb.spec.key]]
        epigraph = [i for i, lbl in enumerate(prob.var_label) if lbl.startswith("t:")]
        src = prob.source_cols.ravel()
        assert src.size and bool(epigraph) == (norm == "l1")
        assert src.min() > max(port_cols, default=-1)
        assert src.max() < min(epigraph, default=prob.nvar)


def test_assembled_rows_vanish_at_oracle_power_flow_point():
    nets, coups, prob = centralized_problem("case_micro_td", source_kind=None)
    pf = solve_power_flow(nets, coups)
    assert pf.success
    res = prob.residual_eq(oracle_state(prob, nets, pf))
    assert np.max(np.abs(res)) < 1e-10


_PORT_CASES = {"case_micro_td": "micro_default", "case_threefeeder_td": "threefeeder",
               "case_micro_flowcap": "micro_default"}


@pytest.mark.parametrize("case", sorted(_PORT_CASES))
@pytest.mark.parametrize("kind, q_only", [("current", False), ("power", True),
                                          ("admittance", False)])
def test_port_maps_and_sources_agree_with_the_labels(case, kind, q_only):
    """Every port mode's index maps and every source's columns name the
    columns and rows whose labels say so, and the maps are keyed by port."""
    nets, coups = load(case)
    part = load_partition(partition_path(_PORT_CASES[case]), nets, coups)
    builds = [(nets, [PortBuild(c, "internal") for c in coups])]
    for modes in (("t_draw", "d_head"), ("t_free", "d_phasor")):
        builds += [(cell.networks, port_builds(cell, *modes)) for cell in part.cells]
    assert [f.name for f in dataclasses.fields(IndexMaps)] == [
        "port_tvar", "port_dvar", "poi_v", "poi_row", "head_v"]
    seen = set()
    for build_nets, ports in builds:
        prob = build_problem(build_nets, ports, source_kind=kind, norm="l1", q_only=q_only)
        var, eq, m = prob.var_label, prob.eq_label, prob.maps
        for pb in ports:
            spec, key, mode = pb.spec, pb.spec.key, pb.mode
            seen.add(mode)
            if mode in ("internal", "t_draw", "t_free"):
                assert [var[c] for c in m.poi_v[key]] == [f"v{c}:{spec.t_bus}:1" for c in "ri"]
                assert [eq[r] for r in m.poi_row[key]] == [f"kcl{c}:{spec.t_bus}:1"
                                                           for c in "ri"]
            if mode in ("internal", "t_free"):
                assert [var[c] for c in m.port_tvar[key]] == [f"it{c}:{key}" for c in "ri"]
            if mode == "d_phasor":
                assert [var[c] for c in m.poi_v[key]] == [f"vp{c}:{key}" for c in "ri"]
            if mode in ("internal", "d_phasor"):
                assert [var[c] for c in m.head_v[key]] == [
                    f"v{c}:{spec.d_bus}:{ph}" for ph in "abc" for c in "ri"]
            if mode == "d_head":
                sl = prob.param_slots[f"headv:{key}"]
                assert m.head_v[key] == list(range(prob.nvar + sl.start, prob.nvar + sl.stop))
            if mode in ("internal", "d_head", "d_phasor"):
                assert [var[c] for c in m.port_dvar[key]] == [
                    f"id{ph}{c}:{key}" for ph in "abc" for c in "ri"]
        keys = {pb.spec.key for pb in ports}
        assert all(set(getattr(m, f.name)) <= keys for f in dataclasses.fields(m))
        assert prob.source_nodes == [(n.name, b.id, ph) for n in build_nets for b in n.buses
                                     if b.infeasibility_eligible for ph in b.phases]
        assert [[var[c] for c in cols] for cols in prob.source_cols] == [
            [f"s{c}:{bus}:{ph}" for c in prob.source_components]
            for _, bus, ph in prob.source_nodes]
    assert seen == {"internal", "t_draw", "t_free", "d_head", "d_phasor"}
    plain = build_problem(nets, builds[0][1], source_kind=None)
    assert (plain.source_nodes, plain.source_components) == ([], ())
    assert plain.source_cols.shape == (0, 0)


@st.composite
def _matrix_and_operands(draw):
    """A sparse matrix (empty rows and zero-size shapes included) with a
    1-D and a 2-D operand for ``A @ x`` and for ``A.T @ y``."""
    m, n, k = (draw(st.integers(0, hi)) for hi in (6, 6, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.4)
    dense[rng.random(m) < 0.3] = 0.0
    A = sp.csr_matrix(dense)
    if A.nnz and draw(st.booleans()):       # a stored zero
        A.data[0] = 0.0
    return A, [rng.standard_normal(s) for s in (n, (n, k), m, (m, k))]


@settings(max_examples=60, deadline=None)
@given(case=_matrix_and_operands())
def test_fixed_matrix_products_match_scipy_bit_for_bit(case):
    from gridweld.ecf import FixedMatrix
    A, (x, X, y, Y) = case
    M = FixedMatrix.of(A)
    for v in (x, X):
        got = M @ v
        assert got.shape == (A @ v).shape and np.array_equal(got, A @ v)
    for v in (y, Y):
        got = M.transpose_times(v)
        assert got.shape == (A.T @ v).shape and np.array_equal(got, A.T @ v)
    assert np.array_equal(M.toarray(), A.toarray())


# -- branch entries sum in branch order --------------------------------------


def test_branch_entries_sum_in_branch_order():
    """A bus's own-voltage entry in its KCL rows sums one term per incident
    branch, in branch order.  Here single-phase laterals (+1 and -1) come
    before and after a three-phase branch with a tiny self-conductance, so
    summing the single-phase branches first would give the tiny term, not
    the branch-order 0.0.  The reference is the per-branch loop."""
    def bus(bid, phases):
        return Bus(bid, "pq", phases, None, 0.9, 1.1, False)

    def branch(f, t, phases, g):
        k = len(phases)
        return Branch(f, t, phases, tuple(tuple(g if i == j else 0.0 for j in range(k))
                                          for i in range(k)), ((0.0,) * k,) * k)

    abc = ("a", "b", "c")
    net = Network("d", "distribution", [bus("x", abc), bus("p", abc), bus("l1", ("a",)),
                                        bus("l2", ("a",))],
                  [branch("x", "l1", ("a",), 1.0), branch("p", "x", abc, 1e-17),
                   branch("x", "l2", ("a",), -1.0)], [], [], 100.0)
    prob = build_problem([net], source_kind=None)
    row_at = {label: i for i, label in enumerate(prob.eq_label)}
    col_at = {label: i for i, label in enumerate(prob.var_label)}
    want: dict = {}
    for br in net.branches:
        for i, ph in enumerate(br.phases):
            for end, sign in ((br.from_bus, 1.0), (br.to_bus, -1.0)):
                row = row_at[f"kclr:{end}:{ph}"]
                for j, qh in enumerate(br.phases):
                    for other, s in ((br.from_bus, 1.0), (br.to_bus, -1.0)):
                        col = col_at[f"vr:{other}:{qh}"]
                        want[row, col] = want.get((row, col), 0.0) + sign * s * br.g[i][j]
    J = prob.jac_eq(prob.x0()).toarray()
    got = {rc: J[rc] for rc in want}
    assert got == want
    x_a = (row_at["kclr:x:a"], col_at["vr:x:a"])
    assert got[x_a] == 0.0 != (1.0 + -1.0) + 1e-17


def test_problem_pickles_and_does_not_keep_its_builder():
    """Labels are formatted when first read, from recipes the problem keeps;
    they pickle, give the labels the problem gives, and hold no reference
    to the builder."""
    nets, coups = load("case_micro_flowcap")
    builder = _Builder(nets, [PortBuild(c, "internal") for c in coups],
                       "power", "l1", False)
    prob, ref = CircuitProblem(builder), weakref.ref(builder)
    del builder
    gc.collect()
    assert ref() is None
    copy = pickle.loads(pickle.dumps(prob))
    for name in ("var_label", "eq_label", "in_label"):
        assert getattr(copy, name) == getattr(prob, name)
    x = prob.x0()
    assert np.array_equal(copy.residual_eq(x), prob.residual_eq(x))
