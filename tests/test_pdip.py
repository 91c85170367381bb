import numpy as np
import pytest
import scipy.sparse as sp

from gridweld.ecf import FixedMatrix, PortBuild, build_problem
from gridweld.pdip import (KktState, NewtonSystem, SolveFailure, SolverOptions,
                           assemble_kkt, newton_step, solve_centralized,
                           solve_nlp, solve_subproblem)

from conftest import centralized_problem, load, oracle_state, source_values
from oracles import (brute_force_two_bus, net_demand, net_ybus,
                     reduced_least_squares_objective, solve_power_flow)


class ToyProblem:
    """Tiny dense NLP wrapper for exercising the solver in isolation; its
    matrices are given as scipy matrices and returned as FixedMatrix."""

    def __init__(self, n, f, grad, hess, c=None, jc=None, g=None, jg=None,
                 x_start=None):
        self.nvar = n
        self._f, self._grad, self._hess = f, grad, hess
        self._c = c or (lambda x: np.zeros(0))
        self._jc = jc or (lambda x: sp.csr_matrix((0, n)))
        self._g = g or (lambda x: np.zeros(0))
        self._jg = jg or (lambda x: sp.csr_matrix((0, n)))
        self.n_eq = self._c(np.zeros(n)).size
        self.n_in = self._g(np.zeros(n)).size
        self._x0 = np.zeros(n) if x_start is None else np.asarray(x_start,
                                                                  dtype=float)

    def x0(self):
        return self._x0.copy()

    def objective(self, x):
        return self._f(x)

    def grad_objective(self, x):
        return self._grad(x)

    def residual_eq(self, x):
        return self._c(x)

    def jac_eq(self, x):
        return FixedMatrix.of(self._jc(x))

    def residual_in(self, x):
        return self._g(x)

    def jac_in(self, x):
        return FixedMatrix.of(self._jg(x))

    def hess_lagrangian(self, x, lam, mu):
        return FixedMatrix.of(self._hess(x, lam, mu))

    def interior_ok(self, x):
        return True


def qp_x_ge_1():
    # min x^2  s.t.  x >= 1; optimum x = 1, multiplier 2
    return ToyProblem(
        1, lambda x: float(x[0] ** 2), lambda x: 2 * x,
        lambda x, lam, mu: sp.csr_matrix(np.array([[2.0]])),
        g=lambda x: np.array([1.0 - x[0]]),
        jg=lambda x: sp.csr_matrix(np.array([[-1.0]])),
        x_start=[3.0])


def test_assemble_kkt_at_analytic_solution():
    prob = qp_x_ge_1()
    state = KktState(x=np.array([1.0 + 1e-9]), lam=np.zeros(0),
                     mu=np.array([2.0]), eps=1e-12)
    res = assemble_kkt(prob, state)
    assert res.stationarity < 1e-8
    assert res.feasibility == 0.0
    assert res.complementarity_raw < 1e-8
    assert res.mu_min == 2.0


def test_assemble_kkt_rejects_non_interior():
    prob = qp_x_ge_1()
    with pytest.raises(SolveFailure, match="non-interior"):
        assemble_kkt(prob, KktState(x=np.array([0.5]), lam=np.zeros(0),
                                    mu=np.array([1.0]), eps=1e-6))


def test_solve_toy_qp_converges_to_known_point():
    prob = qp_x_ge_1()
    state, status = solve_nlp(prob)
    assert status == "converged"
    assert state.x[0] == pytest.approx(1.0, abs=1e-7)
    assert state.mu[0] == pytest.approx(2.0, abs=1e-6)


def test_newton_step_unconstrained_quadratic_is_exact():
    prob = ToyProblem(1, lambda x: 0.5 * float(x[0] ** 2), lambda x: x.copy(),
                      lambda x, lam, mu: sp.csr_matrix(np.array([[1.0]])),
                      x_start=[3.0])
    state = KktState(x=prob.x0(), lam=np.zeros(0), mu=np.zeros(0), eps=1e-9)
    system = NewtonSystem.build(prob, state)
    dx, dlam, dmu, Jg_dx = newton_step(system)
    assert dx[0] == pytest.approx(-3.0, abs=1e-14)
    assert Jg_dx.shape == (0,)
    state, status = solve_nlp(prob)
    assert status == "converged" and abs(state.x[0]) < 1e-10


def test_equality_without_inequalities_takes_the_general_path():
    """min x0^2 + x1^2 s.t. x0 + x1 = 1: no inequality block, so the solve
    runs on empty g and mu arrays; optimum (0.5, 0.5), multiplier -1."""
    prob = ToyProblem(
        2, lambda x: float(x @ x), lambda x: 2 * x,
        lambda x, lam, mu: sp.csr_matrix(2 * np.eye(2)),
        c=lambda x: np.array([x[0] + x[1] - 1.0]),
        jc=lambda x: sp.csr_matrix(np.ones((1, 2))),
        x_start=[2.0, -3.0])
    assert (prob.n_eq, prob.n_in) == (1, 0)
    state, status = solve_nlp(prob)
    assert status == "converged"
    assert state.x == pytest.approx([0.5, 0.5], abs=1e-12)
    assert state.lam == pytest.approx([-1.0], abs=1e-12)
    assert state.mu.shape == (0,)
    res = assemble_kkt(prob, state)
    assert (res.complementarity, res.complementarity_raw, res.mu_min, res.g_max) == \
        (0.0, 0.0, 0.0, -np.inf)
    assert res.stationarity < 1e-12 and res.feasibility < 1e-12


def test_toy_qp_kkt_residual_contracts_fast():
    prob = qp_x_ge_1()
    trace = []
    state, status = solve_nlp(prob, trace=trace)
    kkts = [r.kkt for r in trace]
    assert status == "converged"
    # locally better-than-linear: tail residuals collapse by large factors
    tail = [k for k in kkts if k < 1e-2]
    assert len(tail) >= 2
    assert tail[-1] < 0.2 * tail[0]


class _Owner:
    """The problem a hand-built system's KKT patterns are kept for."""


def _random_system(rng, me, mi, n=12, k=None):
    """A random Newton system and its unreduced dense matrix, built here
    from W, Jc, Jg, g and mu independently of ``NewtonSystem.matrix``;
    ``k`` right-hand-side columns (None: one 1-D right-hand side)."""
    A = rng.standard_normal((n, n))
    W = A @ A.T + n * np.eye(n)
    Jc = rng.standard_normal((me, n))
    Jg = rng.standard_normal((mi, n))
    g = -np.abs(rng.standard_normal(mi)) - 0.1
    mu = np.abs(rng.standard_normal(mi)) + 0.1
    shape = (n + me + mi,) if k is None else (n + me + mi, k)
    rhs = rng.standard_normal(shape)
    system = NewtonSystem(W=FixedMatrix.of(W), Jc=FixedMatrix.of(Jc),
                          Jg=FixedMatrix.of(Jg), g=g, mu=mu, rhs=rhs,
                          problem=_Owner())
    return system, lambda delta: _dense_unreduced(system, delta)


def _dense_unreduced(system, delta):
    """The unreduced Newton matrix of a system, dense."""
    n, me, mi = system.n, system.me, system.mi
    Y = np.zeros((n + me + mi,) * 2)
    Y[:n, :n] = system.W.toarray() + delta * np.eye(n)
    Jc, Jg = system.Jc.toarray(), system.Jg.toarray()
    Y[:n, n:n + me] = Jc.T
    Y[:n, n + me:] = Jg.T
    Y[n:n + me, :n] = Jc
    Y[n + me:, :n] = -system.mu[:, None] * Jg
    Y[n + me:, n + me:] = -np.diag(system.g)
    return Y


BLOCKS = pytest.mark.parametrize("me, mi", [(5, 6), (0, 6), (5, 0), (0, 0)])


@BLOCKS
@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_newton_step_matches_dense_oracle(rng, me, mi, delta):
    system, dense = _random_system(rng, me, mi)
    dx, dlam, dmu, Jg_dx = newton_step(system, delta)
    assert (dx.shape, dlam.shape, dmu.shape) == ((system.n,), (me,), (mi,))
    assert np.array_equal(Jg_dx, system.Jg @ dx)
    v = np.concatenate([dx, dlam, dmu])
    Y = dense(delta)
    assert np.max(np.abs(Y @ v - system.rhs)) < 1e-10
    v_dense = np.linalg.solve(Y, system.rhs)
    assert np.max(np.abs(v - v_dense)) < 1e-8


@BLOCKS
def test_block_solve_with_many_right_hand_sides_matches_dense_oracle(rng, me, mi):
    system, dense = _random_system(rng, me, mi, k=4)
    n, b = system.n, system.rhs
    *blocks, Jg_dx = system.factor()(b[:n], b[n:n + me], b[n + me:])
    assert [x.shape for x in blocks] == [(n, 4), (me, 4), (mi, 4)]
    assert np.array_equal(Jg_dx, system.Jg @ blocks[0])
    v = np.vstack(blocks)
    Y = dense(0.0)
    assert np.max(np.abs(Y @ v - b)) < 1e-10
    assert np.max(np.abs(v - np.linalg.solve(Y, b))) < 1e-8


@pytest.mark.filterwarnings("ignore:subproblem")
def test_block_solve_equals_column_solves_bit_for_bit_on_real_cells():
    """On both cells of a converged ``dpdip`` L1 run, one factor's solve of
    the epoch map's right-hand sides (one column per boundary parameter)
    as a 2-D block equals its 1-D solves of the columns one at a time, bit
    for bit, in each of ``dx``, ``dlam``, ``dmu`` and ``Jg_dx``: several
    solves can share a factor and give what separate solves give."""
    from gridweld import gjn
    from gridweld.netmodel import load_partition
    from conftest import partition_path
    nets, coups = load("case_feeder210_stressed")
    part = load_partition(partition_path("feeder210"), nets, coups)
    co = gjn.Coordinator(nets, coups, part, source_kind="current", norm="l1")
    assert co.run().converged and len(co.subs) == 2
    for sub in co.subs:
        prob, st = sub.problem, sub.state
        assert prob.n_param > 1 and prob.n_in > 0
        W_xp, _, Jc_p, Jg_p = prob.param_derivatives(st.x, st.lam, st.mu)
        b = (-W_xp.toarray(), -Jc_p.toarray(), st.mu[:, None] * Jg_p.toarray())
        solve = NewtonSystem.build(prob, st).factor()
        block = solve(*b)
        for k in range(prob.n_param):
            for whole, column in zip(block, solve(*(a[:, k] for a in b))):
                assert np.array_equal(whole[:, k], column), (sub.name, k)


def test_column_order_taken_once_per_problem_and_reused(monkeypatch):
    """One COLAMD ordering per problem, on its first factorization; every
    later factorization, warm solves included, reuses it unpermuted.  Every
    factorization takes ``pdip``'s panel size and relaxation."""
    import scipy.sparse.linalg as spla
    import gridweld.pdip as pdip
    original, specs, settings = spla.splu, [], []

    def recorded(A, *args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        settings.append((kwargs.get("panel_size"), kwargs.get("relax")))
        return original(A, *args, **kwargs)
    monkeypatch.setattr(spla, "splu", recorded)
    nets, coups, prob = centralized_problem("case_feeder210_stressed")
    state, status = solve_nlp(prob, newton_budget=5)
    assert status == "iteration-capped"
    state, status = solve_nlp(prob, warm=state)
    assert status == "converged"
    assert len(specs) >= state.iterations > 5
    assert specs == ["COLAMD"] + ["NATURAL"] * (len(specs) - 1)
    assert (pdip.SPLU_PANEL_SIZE, pdip.SPLU_RELAX) == (1, 1)
    assert settings == [(pdip.SPLU_PANEL_SIZE, pdip.SPLU_RELAX)] * len(specs)

    # on a new problem: the first factor is a fresh COLAMD one, the second
    # reuses its order on the same matrix, with a bit-identical step
    nets, coups, fresh = centralized_problem("case_feeder210_stressed")
    x0 = fresh.x0()
    g = fresh.residual_in(x0)
    system = NewtonSystem.build(fresh, KktState(x=x0, lam=np.zeros(fresh.n_eq),
                                                mu=0.1 / -g, eps=0.1))
    specs.clear()
    settings.clear()
    first, second = newton_step(system), newton_step(system)
    assert specs == ["COLAMD", "NATURAL"]
    assert settings == [(pdip.SPLU_PANEL_SIZE, pdip.SPLU_RELAX)] * 2
    assert pdip._PATTERNS[fresh].order.size == fresh.nvar + fresh.n_eq
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_changed_hessian_pattern_raises(rng):
    """A system whose W pattern differs from the problem's kept KKT pattern
    raises ``ValueError``, for ``delta`` 0 and not, and leaves the kept
    pattern as it was: the same object with its column order and arrays.
    The toy's W gains its off-diagonal entries after the first step."""
    import gridweld.pdip as pdip
    n = 6
    A = rng.standard_normal((n, n))
    dense = A @ A.T + n * np.eye(n)
    Jg = rng.standard_normal((2, n))
    Jg[:, :3] = 0.0

    def hess(x, lam, mu):
        return sp.csr_matrix(np.diag(np.diag(dense)) if x[0] == 0.0 else dense)
    prob = ToyProblem(n, lambda x: 0.0, lambda x: np.zeros(n), hess,
                      g=lambda x: Jg @ x - 1.0, jg=lambda x: sp.csr_matrix(Jg))
    x1 = np.full(n, 0.01)
    states = [KktState(x=x, lam=np.zeros(0), mu=np.ones(2), eps=1e-3)
              for x in (prob.x0(), x1)]
    first, later = (NewtonSystem.build(prob, st) for st in states)
    assert later.W.nnz > first.W.nnz
    assert newton_step(first) is not None
    kept = pdip._PATTERNS[prob]
    order, indices, indptr = kept.order, kept.indices.copy(), kept.indptr.copy()
    for delta in (0.0, 1e-8):
        with pytest.raises(ValueError, match="pattern"):
            newton_step(later, delta)
    assert pdip._PATTERNS[prob] is kept and kept.order is order
    assert np.array_equal(kept.indices, indices)
    assert np.array_equal(kept.indptr, indptr)
    assert newton_step(first) is not None


def test_one_pattern_serves_every_delta_in_the_kept_order(monkeypatch, rng):
    """A problem keeps one KKT pattern, built on its first matrix, which
    holds the full diagonal: every ``delta`` fills it, one COLAMD call
    orders it, and later steps of any ``delta`` build nothing and leave it
    as the first factorization reordered it.  At ``delta = 0`` the fill
    drops the diagonal slots with no W or Jg entry, so the first matrix is
    the one scipy's sums give (``_assert_fill_matches_sparse_algebra``)."""
    import scipy.sparse.linalg as spla
    import gridweld.pdip as pdip
    original, specs, built = spla.splu, [], []

    def recorded(A, *args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return original(A, *args, **kwargs)
    init = pdip._KktPattern.__init__

    def counted(self, W, Jc, Jg):
        built.append(W)
        init(self, W, Jc, Jg)
    monkeypatch.setattr(spla, "splu", recorded)
    monkeypatch.setattr(pdip._KktPattern, "__init__", counted)
    prob = centralized_problem("case_micro_td", source_kind="power", norm="l1")[2]
    flat, (x, lam, mu) = _states(prob, rng)
    system = NewtonSystem.build(prob, flat)
    _assert_fill_matches_sparse_algebra(system, 0.0)
    assert newton_step(system) is not None
    kept = pdip._PATTERNS[prob]
    arrays = {a: getattr(kept, a).copy() for a in ("indices", "indptr", "slot", "hessian")}
    order = kept.order
    # the diagonal group follows the pair products and W: natural column j's
    # diagonal slot holds row j, in the column the kept order moved j to
    diag = kept.slot[len(kept.pair_a) + system.W.nnz:][:prob.nvar]
    assert np.array_equal(kept.indices[diag], np.arange(prob.nvar))
    assert np.array_equal(np.searchsorted(kept.indptr, diag, side="right") - 1,
                          np.argsort(order)[:prob.nvar])
    assert newton_step(system, 1e-8) is not None
    later = NewtonSystem.build(prob, KktState(x=x, lam=lam, mu=mu, eps=1e-3))
    for delta in (1e-6, 0.0, 1e-4):
        assert newton_step(later, delta) is not None
    assert specs == ["COLAMD"] + ["NATURAL"] * 4
    assert len(built) == 1
    assert pdip._PATTERNS[prob] is kept and kept.order is order
    for a, want in arrays.items():
        assert np.array_equal(getattr(kept, a), want), a
    for delta in (0.0, 1e-4):
        _assert_fill_matches_sparse_algebra(later, delta)


def test_consensus_agent_keeps_one_kkt_pattern(monkeypatch):
    """A consensus agent's Hessian ``W + rho * P`` lies on one fixed union
    pattern, so its KKT pattern is built once across all its x-updates."""
    from gridweld import admm
    from gridweld.netmodel import load_partition
    from conftest import partition_path
    import gridweld.pdip as pdip
    built = []
    original = pdip._KktPattern.__init__

    def counted(self, W, Jc, Jg):
        built.append(W)
        original(self, W, Jc, Jg)
    monkeypatch.setattr(pdip._KktPattern, "__init__", counted)
    nets, coups = load("case_micro_td")
    part = load_partition(partition_path("micro_default"), nets, coups)
    run = admm.Consensus(nets, coups, part)
    rep = run.run()
    assert rep.converged and len(run.epochs) > 2
    assert len(built) == len(run.subs)


def _consensus_agent(name):
    from gridweld import admm
    from gridweld.netmodel import load_partition
    from conftest import partition_path
    nets, coups = load("case_micro_td")
    part = load_partition(partition_path("micro_default"), nets, coups)
    subs = admm.build_agents(part, source_kind="current", norm="l2", q_only=False)
    return next(s.problem for s in subs if s.name == name)


def _states(prob, rng):
    """The flat start with zero multipliers, and a random interior state."""
    from conftest import interior_point
    x0 = prob.x0()
    flat = KktState(x=x0, lam=np.zeros(prob.n_eq),
                    mu=0.1 / -prob.residual_in(x0), eps=0.1)
    x = interior_point(prob, rng, scale=0.02)
    return flat, (x, rng.standard_normal(prob.n_eq),
                  np.abs(rng.standard_normal(prob.n_in)) + 0.01)


def _sparse_algebra_kkt(system, delta):
    """The condensed matrix as scipy's sparse algebra builds it, with no
    stored zero in the Hessian block (a sum drops them)."""
    H, Jc, Jg = (M.tocsr() for M in (system.W, system.Jc, system.Jg))
    if system.mi:
        H = H + Jg.T @ (sp.diags(system.mu / -system.g) @ Jg)
    if delta:
        H = H + delta * sp.identity(system.n, format="csr")
    if not system.mi and not delta:
        H = H.copy()
        H.eliminate_zeros()
    if not system.me:
        return H.tocsc()
    return sp.bmat([[H, Jc.T], [Jc, None]], format="csc")


def _assert_fill_matches_sparse_algebra(system, delta):
    import gridweld.pdip as pdip
    K = system.matrix(delta)
    order = pdip._PATTERNS[system.problem].order
    if order is not None:
        K = K[:, np.argsort(order)]
    want = _sparse_algebra_kkt(system, delta)
    for a in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(K, a), getattr(want, a)), a


@pytest.mark.parametrize("delta", [0.0, 1e-8])
@pytest.mark.parametrize("which", ["micro_td L1 power", "feeder210_stressed L1",
                                   "consensus agent"])
def test_fill_matches_sparse_algebra_bit_for_bit(rng, which, delta):
    """The scatter into the fixed pattern stores the entries, and sums them
    in the order, that ``W + Jg^T diag(mu/s) Jg``, ``+ delta*I`` and
    ``sp.bmat`` do: the flat start's zero multipliers leave exact zeros in W
    that the sums drop.  Checked in natural order and in the kept one."""
    import gridweld.pdip as pdip
    if which == "consensus agent":
        prob = _consensus_agent("D")
    else:
        case, kind = {"micro_td L1 power": ("case_micro_td", "power"),
                      "feeder210_stressed L1": ("case_feeder210_stressed",
                                                "current")}[which]
        prob = centralized_problem(case, source_kind=kind, norm="l1")[2]
    flat, (x, lam, mu) = _states(prob, rng)
    system = NewtonSystem.build(prob, flat)
    _assert_fill_matches_sparse_algebra(system, delta)
    assert pdip._PATTERNS[prob].order is None
    assert newton_step(system, delta) is not None
    assert pdip._PATTERNS[prob].order is not None
    for state in (flat, KktState(x=x, lam=lam, mu=mu, eps=1e-3)):
        _assert_fill_matches_sparse_algebra(NewtonSystem.build(prob, state), delta)


@pytest.mark.parametrize("me, mi", [(0, 0), (5, 0), (0, 6)])
@pytest.mark.parametrize("delta", [0.0, 1e-8])
def test_fill_of_random_system_matches_sparse_algebra(rng, me, mi, delta):
    system, _ = _random_system(rng, me, mi)
    _assert_fill_matches_sparse_algebra(system, delta)


def test_fill_stores_no_hessian_zero_without_a_sum(rng):
    """With no Jg term and no ``delta`` the fill still leaves out W's stored
    zeros, as the scipy sum of a consensus agent's ``W + rho * P`` did;
    stored Jc zeros stay."""
    system, _ = _random_system(rng, 3, 0)
    W, Jc = system.W.tocsr(), system.Jc.tocsr()
    W.data[::4] = 0.0
    Jc.data[::5] = 0.0
    system = NewtonSystem(W=FixedMatrix.of(W), Jc=FixedMatrix.of(Jc),
                          Jg=system.Jg, g=system.g, mu=system.mu,
                          rhs=system.rhs, problem=_Owner())
    K = system.matrix()
    assert K.nnz == W.nnz - len(W.data[::4]) + 2 * Jc.nnz
    _assert_fill_matches_sparse_algebra(system, 0.0)


def test_fill_sums_pair_products_then_w_then_delta():
    """A Hessian slot sums its Jg pair products, then W, then ``delta``, as
    scipy's ``W + Jg^T diag(d) Jg`` and then ``+ delta*I`` do.  In slot
    (0, 0) a pair product of 1e16 and a W entry of -1e16 cancel, and
    ``delta = 1`` leaves 1.0; adding ``delta`` before W would round it
    away, and the slot would drop.  Checked in natural order and in the
    kept one."""
    import gridweld.pdip as pdip
    system = NewtonSystem(W=FixedMatrix.of(np.diag([-1e16, 1.0])),
                          Jc=FixedMatrix.of(np.array([[1.0, 1.0]])),
                          Jg=FixedMatrix.of(np.array([[1e8, 0.0]])),
                          g=np.array([-1.0]), mu=np.array([1.0]),
                          rhs=np.zeros(4), problem=_Owner())
    for _ in range(2):
        K = system.matrix(1.0)
        order = pdip._PATTERNS[system.problem].order
        if order is not None:
            K = K[:, np.argsort(order)]
        assert K[0, 0] == 1.0
        _assert_fill_matches_sparse_algebra(system, 1.0)
        assert newton_step(system, 1.0) is not None
    assert order is not None


@pytest.mark.parametrize("case", ["case_micro_td", "case_feeder210_stressed",
                                  "case_twofeeder_stressed"])
def test_transpose_product_matches_scipy_bit_for_bit(rng, case):
    from conftest import interior_point
    prob = centralized_problem(case, norm="l1")[2]
    x = interior_point(prob, rng, scale=0.02)
    for J in (prob.jac_eq(x), prob.jac_in(x)):
        A = J.tocsr()
        y = rng.standard_normal(J.shape[0])
        assert np.array_equal(J.transpose_times(y), A.T @ y)
        Y = rng.standard_normal((J.shape[0], 3))
        assert np.array_equal(J.transpose_times(Y), A.T @ Y)
        v = rng.standard_normal(J.shape[1])
        assert np.array_equal(J @ v, A @ v)


def test_non_descent_direction_retries_with_larger_delta():
    # min -x^2/2 + x^4/4 from x = 0.3: W < 0 there, so the plain Newton step
    # heads for the maximum at 0; a larger delta turns it into descent
    prob = ToyProblem(
        1, lambda x: float(-x[0] ** 2 / 2 + x[0] ** 4 / 4),
        lambda x: -x + x ** 3,
        lambda x, lam, mu: sp.csr_matrix(np.array([[3 * x[0] ** 2 - 1]])),
        x_start=[0.3])
    state, status = solve_nlp(prob)
    assert status == "converged"
    assert abs(state.x[0]) == pytest.approx(1.0, abs=1e-8)


def test_singular_kkt_matrix_retries_with_larger_delta(monkeypatch):
    # min x0 s.t. x0 >= 1; x1 appears nowhere, so its KKT column is zero
    import gridweld.pdip as pdip
    original, singular = pdip.newton_step, []
    splu, specs = pdip.spla.splu, []

    def counted(system, delta=0.0):
        step = original(system, delta)
        singular.append(step is None)
        return step

    def recorded(A, *args, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(A, *args, **kwargs)
    monkeypatch.setattr(pdip, "newton_step", counted)
    monkeypatch.setattr(pdip.spla, "splu", recorded)
    prob = ToyProblem(
        2, lambda x: float(x[0]), lambda x: np.array([1.0, 0.0]),
        lambda x, lam, mu: sp.csr_matrix((2, 2)),
        g=lambda x: np.array([1.0 - x[0]]),
        jg=lambda x: sp.csr_matrix(np.array([[-1.0, 0.0]])),
        x_start=[3.0, 0.0])
    state, status = solve_nlp(prob)
    assert status == "converged"
    assert state.x == pytest.approx([1.0, 0.0], abs=1e-7)
    assert any(singular)
    # a singular factor leaves the pattern unordered; the first factor that
    # worked, at delta != 0, took the one COLAMD order
    first = singular.index(False)
    assert first > 0
    assert specs == ["COLAMD"] * (first + 1) + ["NATURAL"] * (len(specs) - first - 1)
    assert pdip._PATTERNS[prob].order is not None


def test_kkt_residuals_match_fd_of_lagrangian_at_random_point(rng):
    from conftest import interior_point
    from oracles import fd_gradient
    nets, coups, prob = centralized_problem("case_micro_td")
    x = interior_point(prob, rng)
    lam = rng.standard_normal(prob.n_eq)
    mu = np.abs(rng.standard_normal(prob.n_in)) + 0.01
    state = KktState(x=x, lam=lam, mu=mu, eps=1e-4)
    from gridweld.pdip import _Point
    r_x, c, g, r_m = _Point(prob, x).residuals(state)

    def lagrangian(z):
        val = prob.objective(z) + lam @ prob.residual_eq(z)
        return val + mu @ prob.residual_in(z)
    grad_fd = fd_gradient(lagrangian, x)
    assert np.max(np.abs(r_x - grad_fd)) < 1e-7 * max(1.0, np.max(np.abs(r_x)))
    assert np.array_equal(c, prob.residual_eq(x))
    assert np.allclose(r_m, -mu * prob.residual_in(x) - 1e-4, atol=0)


def test_feasible_point_with_zero_duals_has_eps_complementarity():
    nets, coups, prob = centralized_problem("case_micro_td")
    pf = solve_power_flow(nets, coups)
    x = oracle_state(prob, nets, pf)
    eps = 1e-3
    state = KktState(x=x, lam=np.zeros(prob.n_eq), mu=np.zeros(prob.n_in),
                     eps=eps)
    res = assemble_kkt(prob, state)
    assert res.stationarity < 1e-10
    assert res.feasibility < 1e-10
    assert res.complementarity == pytest.approx(eps, abs=1e-12)


def test_iterates_stay_strictly_interior():
    nets, coups, prob = centralized_problem("case_micro_td_stressed")
    trace = []
    state, status = solve_nlp(prob, trace=trace)
    assert status == "converged"
    g = prob.residual_in(state.x)
    assert np.max(g) < 0.0
    assert np.min(state.mu) > 0.0


def test_merit_never_increases_within_barrier_phase():
    nets, coups, prob = centralized_problem("case_micro_td_stressed")
    trace = []
    state, status = solve_nlp(prob, trace=trace)
    assert status == "converged"
    by_eps = {}
    for r in trace:
        by_eps.setdefault(r.eps, []).append(r.merit)
    for eps, merits in by_eps.items():
        for a, b in zip(merits, merits[1:]):
            assert b <= a + 1e-8 * (1.0 + abs(a))


@pytest.mark.parametrize("case, norm", [("case_micro_td_stressed", "l1"),
                                        ("case_micro_td_stressed", "l2"),
                                        ("case_feeder210_stressed", "l1")])
def test_jacobians_evaluated_once_per_iterate(monkeypatch, case, norm):
    from gridweld.ecf import CircuitProblem
    calls = {"jac_eq": 0, "jac_in": 0}
    for name in calls:
        original = getattr(CircuitProblem, name)

        def counted(self, x, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, x)
        monkeypatch.setattr(CircuitProblem, name, counted)
    nets, coups, prob = centralized_problem(case, norm=norm)
    state, status = solve_nlp(prob)
    assert status == "converged"
    assert calls["jac_eq"] <= state.iterations + 1
    assert calls["jac_in"] <= state.iterations + 1


def test_feasible_t_subproblem_with_oracle_boundary_draw():
    nets, coups = load("case_micro_td")
    pf = solve_power_flow(nets, coups)
    tnet = next(n for n in nets if n.side == "transmission")
    dnet = next(n for n in nets if n.side == "distribution")
    spec = coups[0]
    # distribution draw aggregated from the oracle head balances
    nodes, idx, Y = net_ybus(dnet)
    vvec = np.array([pf.volts[(dnet.name,) + key] for key in nodes])
    kcl = Y @ vvec
    alpha = np.exp(2j * np.pi / 3)
    i1 = sum(coeff * kcl[idx[(spec.d_bus, ph)]]
             for ph, coeff in (("a", 1), ("b", alpha), ("c", alpha ** 2)))
    i1 /= 3.0 * spec.kappa
    prob = build_problem([tnet], [PortBuild(spec, "t_draw")],
                         source_kind="current", norm="l2")
    prob.params[prob.param_slots[f"draw:{spec.t_bus}:{spec.d_bus}"]] = [i1.real, i1.imag]
    prob.params[prob.param_slots[f"vprice:{spec.t_bus}:{spec.d_bus}"]] = [0.0, 0.0]
    state, status = solve_subproblem(prob)
    assert status == "converged"
    s = source_values(prob, state.x)
    assert 0.5 * float(s @ s) < 1e-8
    assert np.max(np.abs(s)) < 1e-8
    iu, iv = prob.maps.poi_v[spec.key]
    want = pf.volts[(tnet.name, spec.t_bus, "1")]
    assert state.x[iu] == pytest.approx(want.real, abs=1e-7)
    assert state.x[iv] == pytest.approx(want.imag, abs=1e-7)


def test_overloaded_d_subproblem_positive_objective():
    nets, coups = load("case_micro_qstress")
    dnet = next(n for n in nets if n.side == "distribution")
    spec = coups[0]
    prob = build_problem([dnet], [PortBuild(spec, "d_head")],
                         source_kind="power", norm="l2", q_only=True)
    key = f"{spec.t_bus}:{spec.d_bus}"
    head = np.array([1.0, 0.0])
    from gridweld.coupling import distribute_voltage_t_to_d
    prob.params[prob.param_slots[f"headv:{key}"]] = distribute_voltage_t_to_d(spec, 1.0, 0.0)
    prob.params[prob.param_slots[f"price:{key}"]] = np.zeros(6)
    state, status = solve_subproblem(prob)
    assert status == "converged"
    s = source_values(prob, state.x)
    assert 0.5 * float(s @ s) > 1e-4


def test_two_bus_mismatch_matches_brute_force_grid():
    nets, coups = load("case_2bus_mismatch")
    rep = solve_centralized(nets, coups, source_kind="current", norm="l2")
    want, v_at_min = brute_force_two_bus(1.0, 0.0, 0.5, 0.0, 1.0)
    assert rep.converged
    assert abs(rep.objective - want) < 1e-4
    # closed form for this instance: f* = (sqrt(2)-1)^2 / 2
    assert rep.objective == pytest.approx(0.5 * (np.sqrt(2) - 1) ** 2,
                                          abs=1e-9)


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("kind", ["current", "power", "admittance"])
def test_feasible_case_zero_objective_all_kinds(norm, kind):
    nets, coups = load("case_micro_td")
    rep = solve_centralized(nets, coups, source_kind=kind, norm=norm)
    assert rep.converged
    assert rep.objective < 1e-8


# frozen at build time; verified against the independent reduced
# least-squares oracle (agreement ~1e-9)
FROZEN_MICRO_STRESSED_L2 = 0.096074081


def test_infeasible_micro_l2_objective_frozen_and_cross_checked():
    nets, coups = load("case_micro_td_stressed")
    rep = solve_centralized(nets, coups, source_kind="current", norm="l2")
    assert rep.converged
    assert rep.objective == pytest.approx(FROZEN_MICRO_STRESSED_L2, abs=2e-6)
    oracle = reduced_least_squares_objective(nets, coups)
    assert rep.objective == pytest.approx(oracle, abs=1e-6)
    mags = [e.magnitude for e in rep.per_node if e.magnitude > 0]
    assert len(mags) > 0


def test_l1_no_more_spread_than_l2_on_shipped_infeasible_cases():
    for case in ("case_micro_td_stressed", "case_tline_stressed",
                 "case_twofeeder_stressed", "case_feeder210_stressed"):
        nets, coups = load(case)
        nz = {}
        for norm in ("l1", "l2"):
            rep = solve_centralized(nets, coups, source_kind="current",
                                    norm=norm)
            assert rep.converged, case
            nz[norm] = rep.nonzero_count
        assert nz["l1"] <= nz["l2"], case


def test_l1_gives_strictly_fewer_nonzero_buses_than_l2():
    nets, coups = load("case_micro_td_stressed")
    counts = {}
    for norm in ("l1", "l2"):
        rep = solve_centralized(nets, coups, source_kind="current", norm=norm)
        counts[norm] = rep.nonzero_count
    assert counts["l1"] < counts["l2"]


def test_solver_options_validated():
    with pytest.raises(ValueError):
        SolverOptions(kkt_tolerance=-1.0)


@pytest.mark.parametrize("mode", ["central", "admm"])
def test_one_scipy_matrix_per_newton_step(monkeypatch, mode):
    """Inside ``solve_nlp`` the only scipy sparse matrix a solve makes is
    the CSC matrix each factorization is handed, and a solve that takes no
    step makes none."""
    import scipy.sparse._base as spbase
    import scipy.sparse.linalg as spla
    import gridweld.pdip as pdip
    made = {"sparse": 0, "splu": 0}
    calls = []
    init, splu, solve = spbase._spbase.__init__, spla.splu, pdip.solve_nlp

    def counted_init(self, *args, **kwargs):
        made["sparse"] += 1
        init(self, *args, **kwargs)

    def counted_splu(*args, **kwargs):
        made["splu"] += 1
        return splu(*args, **kwargs)

    def counted_solve(problem, opts=None, warm=None, **kwargs):
        before = dict(made), warm.iterations if warm is not None else 0
        state, status = solve(problem, opts, warm, **kwargs)
        calls.append((made["sparse"] - before[0]["sparse"],
                      made["splu"] - before[0]["splu"], state.iterations - before[1]))
        return state, status
    monkeypatch.setattr(spbase._spbase, "__init__", counted_init)
    monkeypatch.setattr(spla, "splu", counted_splu)
    monkeypatch.setattr(pdip, "solve_nlp", counted_solve)
    nets, coups = load("case_micro_td_stressed")
    if mode == "central":
        rep = solve_centralized(nets, coups, source_kind="current", norm="l2")
    else:
        from gridweld.admm import admm_solve
        rep = admm_solve(nets, coups, source_kind="current", norm="l2")
    assert rep.converged and calls
    for sparse, factors, steps in calls:
        assert sparse == factors <= steps


def test_central_trace_records_a_kkt_contraction_acceptance():
    """Every step records how it was accepted; the central current L2 solve
    of ``case_micro_td_stressed`` takes one step on plain KKT-residual
    contraction, the rest on the Armijo test."""
    nets, coups, prob = centralized_problem("case_micro_td_stressed")
    trace = []
    state, status = solve_nlp(prob, trace=trace)
    assert status == "converged" and len(trace) == state.iterations
    accepts = [r.accept for r in trace]
    assert set(accepts) <= {"armijo", "dual_only", "kkt_contraction"}
    assert "kkt_contraction" in accepts and "armijo" in accepts


def test_warm_start_reuses_the_kept_constraint_evaluation(monkeypatch):
    """A warm start from a returned state at the same ``x`` object and equal
    ``params`` evaluates no constraint or Jacobian at its first point, and
    ends bit for bit where a fresh evaluation would; changed ``params``
    evaluate them again."""
    from conftest import head_cell
    from gridweld.ecf import CircuitProblem
    calls = []
    for name in ("residual_eq", "residual_in", "jac_eq", "jac_in"):
        original = getattr(CircuitProblem, name)

        def counted(self, x, _name=name, _original=original):
            calls.append(_name)
            return _original(self, x)
        monkeypatch.setattr(CircuitProblem, name, counted)
    prob, key = head_cell("case_micro_td")
    state, status = solve_nlp(prob)
    assert status == "converged"
    calls.clear()
    again, status = solve_nlp(prob, warm=state)
    assert status == "converged" and again is state and calls == []
    # new multipliers at the same x: steps again, from the kept evaluation
    x, lam, mu = state.x, 1.5 * state.lam, 0.5 * state.mu
    state.lam, state.mu, state.eps = lam, mu, 1e-4
    fresh = KktState(x=x.copy(), lam=lam, mu=mu, eps=1e-4)
    counts = []
    for warm in (state, fresh):
        calls.clear()
        solve_nlp(prob, warm=warm)
        counts.append(calls.count("jac_eq"))
    assert state.iterations > 0 and counts[0] == counts[1] - 1
    for a in ("x", "lam", "mu"):
        assert np.array_equal(getattr(state, a), getattr(fresh, a))
    calls.clear()
    prob.params[0] += 1e-3
    solve_nlp(prob, warm=state)
    assert "jac_eq" in calls and "residual_eq" in calls
