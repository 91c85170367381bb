"""Branch-flow limits end to end, including limits on a torn feeder's head
section where the flow rows involve exchange parameters."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridweld import admm, gjn, load_case
from gridweld.ecf import SOURCE_KINDS, PortBuild, build_problem
from gridweld.pdip import solve_centralized, solve_nlp

from conftest import CASES, head_cell, interior_point, load
from oracles import fd_gradient, fd_jacobian


@pytest.fixture(scope="module")
def flowcap():
    return load("case_micro_flowcap")


def test_limits_bind_at_the_optimum(flowcap):
    nets, coups = flowcap
    ports = [PortBuild(c, "internal") for c in coups]
    prob = build_problem(nets, ports, source_kind="current", norm="l2")
    state, status = solve_nlp(prob)
    assert status == "converged"
    g = prob.residual_in(state.x)
    flows = {lbl: (g[i], state.mu[i]) for i, lbl in enumerate(prob.in_label)
             if lbl.startswith("flow")}
    binding = {lbl for lbl, (gv, mv) in flows.items() if gv > -1e-6}
    assert any("t1-t3" in lbl for lbl in binding)
    assert sum("d1-d2" in lbl for lbl in binding) == 3
    for lbl in binding:
        gv, mv = flows[lbl]
        assert gv <= 0.0 and mv > 1e-4, lbl


def test_distributed_matches_centralized_with_binding_flows(flowcap):
    nets, coups = flowcap
    cen = solve_centralized(nets, coups, source_kind="current", norm="l2")
    dis = gjn.run(nets, coups, source_kind="current", norm="l2")
    assert cen.converged and dis.converged
    assert abs(cen.objective - dis.objective) < 1e-4
    assert cen.objective > 1e-4


def test_parameterized_flow_rows_match_fd(rng):
    prob, key = head_cell("case_micro_flowcap")
    for _ in range(5):
        x = interior_point(prob, rng, scale=0.02)
        G = prob.jac_in(x).toarray()
        Gfd = fd_jacobian(prob.residual_in, x)
        assert np.max(np.abs(G - Gfd)) < 1e-5 * max(1.0, np.max(np.abs(G)))
        J = prob.jac_eq(x).toarray()
        Jfd = fd_jacobian(prob.residual_eq, x)
        assert np.max(np.abs(J - Jfd)) < 1e-5 * max(1.0, np.max(np.abs(J)))
        lam = rng.standard_normal(prob.n_eq)
        mu = np.abs(rng.standard_normal(prob.n_in))
        v = rng.standard_normal(prob.nvar)
        Wv = prob.hess_lagrangian(x, lam, mu) @ v

        def grad_lag(z):
            return (prob.grad_objective(z) + prob.jac_eq(z).transpose_times(lam)
                    + prob.jac_in(z).transpose_times(mu))
        h = 1e-6
        Wv_fd = (grad_lag(x + h * v) - grad_lag(x - h * v)) / (2 * h)
        assert np.max(np.abs(Wv - Wv_fd)) < 2e-5 * max(1.0, np.max(np.abs(Wv)))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=557)          # its power-source draw needs more than 200 tries
def test_head_sensitivity_gradient_matches_fd(seed):
    """The parameter blocks of ``param_derivatives`` and the boundary
    feedback dL/dp against central differences in the parameters, for every
    source kind, with head loads (current-injection rows) and a capped head
    branch (flow rows) on the head voltages."""
    rng = np.random.default_rng(seed)
    for kind in SOURCE_KINDS:
        prob, _ = head_cell("case_micro_flowcap", kind)
        x = interior_point(prob, rng, scale=0.02)
        lam = rng.standard_normal(prob.n_eq)
        mu = np.abs(rng.standard_normal(prob.n_in))
        p0 = prob.params.copy()

        def of_params(fun):
            def at(p):
                prob.params[:] = p
                try:
                    return fun()
                finally:
                    prob.params[:] = p0
            return at

        def grad_x():
            return (prob.grad_objective(x) + prob.jac_eq(x).transpose_times(lam)
                    + prob.jac_in(x).transpose_times(mu))

        def grad_p():
            return prob.param_lagrangian_grad(x, lam, mu)

        def lagrangian():
            return (prob.objective(x) + lam @ prob.residual_eq(x)
                    + mu @ prob.residual_in(x))
        W_xp, W_pp, Jc_p, Jg_p = prob.param_derivatives(x, lam, mu)
        for label, got, fun in (("W_xp", W_xp, grad_x), ("W_pp", W_pp, grad_p),
                                ("Jc_p", Jc_p, lambda: prob.residual_eq(x)),
                                ("Jg_p", Jg_p, lambda: prob.residual_in(x))):
            got = got.toarray()
            want = fd_jacobian(of_params(fun), p0)
            assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want))), \
                (kind, label)
        assert np.any(W_pp.toarray()), "head rows should be nonlinear in the head"
        got = grad_p()
        want = fd_gradient(of_params(lagrangian), p0)
        assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want))), kind


def test_head_load_supported_in_distributed_mode(flowcap):
    nets, coups = flowcap
    dnet = next(n for n in nets if n.side == "distribution")
    assert any(ld.bus == coups[0].d_bus for ld in dnet.loads)
    rep = gjn.run(nets, coups, source_kind="current", norm="l2")
    assert rep.converged


def test_consensus_mode_rejects_head_nonlinearities(flowcap):
    from gridweld import admm
    nets, coups = flowcap
    with pytest.raises(ValueError, match="coupling node"):
        admm.admm_solve(nets, coups, source_kind="current", norm="l2",
                        max_iterations=2)


def test_consensus_mode_rejects_a_head_source(tmp_path):
    """An admittance source at the feeder head enters the head rows
    bilinearly, so its head phasor columns are not constant."""
    doc = json.loads((CASES / "case_micro_td_stressed.json").read_text())
    for net in doc["networks"]:
        for bus in net["buses"]:
            if bus["id"] == "d1":
                bus["infeasibility_eligible"] = True
    path = tmp_path / "case_micro_td_head_source.json"
    path.write_text(json.dumps(doc))
    nets, coups = load_case(str(path))
    with pytest.raises(ValueError, match="coupling node"):
        admm.admm_solve(nets, coups, source_kind="admittance", norm="l2",
                        max_iterations=2)
