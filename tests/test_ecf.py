import gc
import pickle
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gridweld import PortBuild, build_problem
from gridweld.ecf import CircuitProblem, _Builder
from gridweld.netmodel import Branch, Bus, Network, case_from_dict

from conftest import centralized_problem, interior_point, load
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
        iu, iv = prob.maps.v_slot[("t0", bus, "1")]
        x[iu], x[iv] = v.real, v.imag
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
    (src_c,), (src_p,) = cur.sources, pwr.sources
    assert src_c.var_index == src_p.var_index
    assert pwr.var_label[:src_p.var_index[0]] == \
        cur.var_label[:src_c.var_index[0]]
    for _ in range(25):
        v1, v2 = (complex(*(rng.uniform(0.5, 1.3, 2) * rng.choice([-1, 1], 2)))
                  for _ in range(2))
        x = _at_voltages(cur, {"b1": v1, "b2": v2})
        others = [i for i in range(cur.nvar)
                  if i not in src_c.var_index and cur.var_label[i][0] != "v"]
        x[others] += rng.standard_normal(len(others))
        i_src = complex(*rng.standard_normal(2))
        x[list(src_c.var_index)] = i_src.real, i_src.imag
        s = v2 * np.conj(i_src)
        y = x.copy()
        y[list(src_p.var_index)] = s.real, s.imag
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
    src = [i for s in prob.sources for i in s.var_index]
    x[src] = 0.0
    r = prob.residual_eq(x)
    r_plain = plain.residual_eq(x[:plain.nvar])
    assert np.array_equal(r, r_plain)


def test_variable_ordering_documented_layout():
    nets, coups, prob = centralized_problem("case_micro_td")
    labels = prob.var_label
    assert labels[0].startswith("vr:t1") and labels[1].startswith("vi:t1")
    first_d = labels.index("vr:d1:a")
    assert labels[first_d + 1] == "vi:d1:a"
    assert labels[first_d + 2] == "vr:d1:b"
    src_start = min(i for s in prob.sources for i in s.var_index)
    assert all(i >= src_start for s in prob.sources for i in s.var_index)


def test_assembled_rows_vanish_at_oracle_power_flow_point():
    nets, coups, prob = centralized_problem("case_micro_td", source_kind=None)
    pf = solve_power_flow(nets, coups)
    assert pf.success
    x = np.zeros(prob.nvar)
    for (nm, bus, ph), (iu, iv) in prob.maps.v_slot.items():
        v = pf.volts[(nm, bus, ph)]
        x[iu], x[iv] = v.real, v.imag
    for (nm, bus, ph), qi in prob.maps.pv_qvar.items():
        x[qi] = pf.q_pv[(nm, bus, ph)]
    # injection currents from the constant-power relation
    for key, (ir, ii) in prob.maps.inj_var.items():
        nm, bus, ph = key
        if ph.endswith("!slack"):
            continue
        net = next(n for n in nets if n.name == nm)
        p = sum(ld.p.get(ph, 0.0) for ld in net.loads if ld.bus == bus)
        q = sum(ld.q.get(ph, 0.0) for ld in net.loads if ld.bus == bus)
        for g in net.generators:
            if g.bus == bus:
                p -= g.p.get(ph, 0.0)
                if g.mode == "pq":
                    q -= g.q.get(ph, 0.0)
        if (nm, bus, ph) in prob.maps.pv_qvar:
            q = pf.q_pv[(nm, bus, ph)]
        v = pf.volts[(nm, bus, ph)]
        inj = np.conj((p + 1j * q) / v)
        x[ir], x[ii] = inj.real, inj.imag
    # free balance currents: slack and port injections from their rows
    r = prob.residual_eq(x)
    A = prob.jac_eq(x).tocsr()
    free = []
    for key, (ir, ii) in prob.maps.inj_var.items():
        if key[2].endswith("!slack"):
            free += [ir, ii]
    for key in prob.maps.port_tvar:
        free += list(prob.maps.port_tvar[key])
    for key in prob.maps.port_dvar:
        free += list(prob.maps.port_dvar[key])
    free = np.array(free)
    x[free] = np.linalg.lstsq(A[:, free].toarray(), -r + A[:, free] @ x[free],
                              rcond=None)[0]
    res = prob.residual_eq(x)
    assert np.max(np.abs(res)) < 1e-10


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
    want: dict = {}
    for br in net.branches:
        for i, ph in enumerate(br.phases):
            for end, sign in ((br.from_bus, 1.0), (br.to_bus, -1.0)):
                row = prob.maps.kcl_row[("d", end, ph)][0]
                for j, qh in enumerate(br.phases):
                    for other, s in ((br.from_bus, 1.0), (br.to_bus, -1.0)):
                        col = prob.maps.v_slot[("d", other, qh)][0]
                        want[row, col] = want.get((row, col), 0.0) + sign * s * br.g[i][j]
    J = prob.jac_eq(prob.x0()).toarray()
    got = {rc: J[rc] for rc in want}
    assert got == want
    x_a = (prob.maps.kcl_row[("d", "x", "a")][0], prob.maps.v_slot[("d", "x", "a")][0])
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
