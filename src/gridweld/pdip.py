"""Perturbed primal-dual interior-point solver.

Solves ``min f(x)  s.t.  c(x) = 0,  g(x) <= 0`` for any problem object
exposing the :class:`~gridweld.ecf.CircuitProblem` evaluation surface
(``objective/grad_objective``, ``residual_eq/jac_eq``,
``residual_in/jac_in``, ``hess_lagrangian``, ``interior_ok``, ``x0``).
Complementarity is relaxed to ``mu * (-g) = eps`` and the perturbation is
driven to a floor on a monotone schedule.  Each step solves the Newton
system of the perturbed conditions

    [ W + delta*I  Jc^T   Jg^T   ] [dx  ]     [ r_x ]
    [ Jc           0      0      ] [dlam] = - [ r_c ]
    [ -M Jg        0      -G     ] [dmu ]     [ r_m ]

in condensed form, as MATPOWER's MIPS does: with ``s = -g`` the last block
row gives ``dmu = (r_m - mu * (Jg dx)) / g``, and substituting it leaves

    [ W + Jg^T diag(mu/s) Jg + delta*I   Jc^T ] [dx  ]     [ r_x - Jg^T (r_m/s) ]
    [ Jc                                 0    ] [dlam] = - [ r_c                ]

which is factored by sparse LU; ``dmu`` is then recovered from ``dx``.  The
column order of that factorization (SuperLU's COLAMD) is taken on a
problem's first factorization and kept for the problem, weakly referenced;
every later step, epoch and exchange sensitivity of the problem factors the
matrix with its columns in that order and no reordering.  The order comes
from the sparsest pattern the matrix has: a first step starts from zero
equality multipliers, so W's constraint entries are exact zeros that drop
out of ``W + Jg^T diag(mu/s) Jg`` (``ladder_f4`` L1 power: 94,136 entries
at the first step, 105,856 later).  Later matrices fill about as little in
that order as in a fresh COLAMD one (21-feeder ladder, central L1: 1.27M
against 1.35M LU entries with power sources, 1.15M against 1.14M with
current ones).  Steps have fraction-to-boundary caps and an Armijo
backtracking line search on an L1-penalty merit function.  One loop picks
``delta``: 0, then 1e-8 growing tenfold to 1e4, moving on while the factor
is singular or not finite or the step is no descent direction of the merit;
past 1e4 the solve fails.  Each iterate's ``f``, ``c``, ``g``, gradient and
Jacobians are evaluated once and every use reads them from there: on small
cells the Jacobian builds are the main per-step cost besides the KKT matrix
and its factorization, so a step builds each Jacobian once rather than once
for each use.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

log = logging.getLogger("gridweld.pdip")

TAU_BOUNDARY = 0.995       # fraction-to-boundary
MAX_BACKTRACKS = 40
DELTA_FIRST = 1e-8         # first nonzero regularization delta on W
DELTA_MAX = 1e4

# problem -> column order of its condensed KKT matrix (see NewtonSystem.solve)
_COLUMN_ORDERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass
class SolverOptions:
    kkt_tolerance: float = 1e-8
    max_iterations: int = 500
    barrier_initial: float = 0.1
    barrier_decrease: float = 0.1
    barrier_floor: float = 1e-9
    inner_cap: int = 50                # per-epoch Newton cap in distributed mode
    barrier_progress: float = 10.0     # decrease eps once residual <= this * eps

    def __post_init__(self):
        for name in ("kkt_tolerance", "max_iterations", "barrier_initial",
                     "barrier_decrease", "barrier_floor", "inner_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class KktState:
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    eps: float
    iterations: int = 0


@dataclass
class KktResiduals:
    stationarity: float
    feasibility: float
    complementarity: float        # |mu * (-g) - eps| at the current perturbation
    complementarity_raw: float    # |mu * (-g)| unperturbed
    mu_min: float
    g_max: float

    def converged(self, opts: SolverOptions) -> bool:
        return (self.stationarity <= opts.kkt_tolerance
                and self.feasibility <= opts.kkt_tolerance
                and self.complementarity_raw <= 10.0 * opts.barrier_floor
                and self.mu_min >= 0.0
                and self.g_max <= opts.kkt_tolerance)


@dataclass
class IterRecord:
    iteration: int
    eps: float
    kkt: float
    alpha: float
    objective: float
    merit: float
    delta: float          # regularization on W that gave the accepted step
    backtracks: int       # step halvings before acceptance


class SolveFailure(RuntimeError):
    pass


class _Point:
    """Every x-dependent value the iteration reads at one ``x``.

    ``f``, ``c`` and ``g`` are evaluated at once (every line-search trial
    needs them), the gradient and Jacobians on first use.  A point is never
    kept beyond the call that made it, since exchange parameters change
    between calls, and its arrays are never written in place.
    """

    def __init__(self, problem, x):
        self.problem, self.x = problem, x
        self.f = problem.objective(x)
        self.c = problem.residual_eq(x)
        self.g = problem.residual_in(x)
        self.c_norm = float(np.sum(np.abs(self.c)))

    @cached_property
    def grad(self) -> np.ndarray:
        return self.problem.grad_objective(self.x)

    @cached_property
    def Jc(self):
        if not self.c.size:
            return sp.csr_matrix((0, self.problem.nvar))
        return self.problem.jac_eq(self.x)

    @cached_property
    def Jg(self):
        if not self.g.size:
            return sp.csr_matrix((0, self.problem.nvar))
        return self.problem.jac_in(self.x)

    def residuals(self, state: KktState):
        """(r_x, r_c, g, r_m) of the perturbed KKT conditions at ``state``."""
        r_x = self.grad
        if self.c.size:
            r_x = r_x + self.Jc.T @ state.lam
        if self.g.size:
            r_x = r_x + self.Jg.T @ state.mu
        r_m = -state.mu * self.g - state.eps if self.g.size else np.zeros(0)
        return r_x, self.c, self.g, r_m

    def merit(self, eps: float, nu: float) -> float:
        """L1-penalty barrier merit; infinite off the strict interior."""
        g = self.g
        if g.size and np.max(g) >= 0.0:
            return np.inf
        barrier = -eps * float(np.sum(np.log(-g))) if g.size else 0.0
        return self.f + barrier + nu * self.c_norm


def assemble_kkt(problem, state: KktState,
                 point: _Point | None = None) -> KktResiduals:
    """Residuals of the perturbed first-order conditions at a state.

    ``point`` holds the evaluations at ``state.x`` if the caller has them.
    Rejects non-interior points: every inequality must hold strictly so the
    barrier is well defined.
    """
    point = point or _Point(problem, state.x)
    r_x, c, g, r_m = point.residuals(state)
    if g.size and np.max(g) >= 0.0:
        raise SolveFailure(f"non-interior point: max g = {np.max(g):.3e}")
    return KktResiduals(
        stationarity=float(np.max(np.abs(r_x))) if r_x.size else 0.0,
        feasibility=float(np.max(np.abs(c))) if c.size else 0.0,
        complementarity=float(np.max(np.abs(r_m))) if r_m.size else 0.0,
        complementarity_raw=float(np.max(np.abs(state.mu * g))) if g.size else 0.0,
        mu_min=float(np.min(state.mu)) if g.size else 0.0,
        g_max=float(np.max(g)) if g.size else -np.inf)


@dataclass
class NewtonSystem:
    """One linearized perturbed-KKT system, solved in condensed form.

    :meth:`matrix` is the condensed matrix
    ``[[W + Jg^T diag(mu/s) Jg + delta*I, Jc^T], [Jc, 0]]`` with ``s = -g``;
    :meth:`solve` solves the unreduced three-block system through it.  The
    column order of the factorization is kept for ``problem`` (when given)
    from its first factorization on.
    """
    W: sp.csr_matrix
    Jc: sp.csr_matrix
    Jg: sp.csr_matrix
    g: np.ndarray
    mu: np.ndarray
    rhs: np.ndarray       # -(r_x, r_c, r_m) stacked
    n: int
    me: int
    mi: int
    problem: object = None

    @classmethod
    def build(cls, problem, state: KktState,
              point: _Point | None = None) -> "NewtonSystem":
        point = point or _Point(problem, state.x)
        r_x, c, g, r_m = point.residuals(state)
        W = problem.hess_lagrangian(state.x, state.lam, state.mu)
        rhs = -np.concatenate([r_x, c, r_m])
        return cls(W=W.tocsr(), Jc=point.Jc.tocsr(), Jg=point.Jg.tocsr(),
                   g=g, mu=state.mu, rhs=rhs, n=problem.nvar, me=c.size,
                   mi=g.size, problem=problem)

    def matrix(self, delta: float = 0.0) -> sp.csc_matrix:
        """The condensed KKT matrix, ``delta*I`` added to its Hessian block."""
        H = self.W
        if self.mi:
            H = H + self.Jg.T @ (sp.diags(self.mu / -self.g) @ self.Jg)
        if delta:
            H = H + delta * sp.identity(self.n, format="csr")
        if not self.me:
            return H.tocsc()
        return sp.bmat([[H, self.Jc.T], [self.Jc, None]], format="csc")

    def solve(self, b_x, b_c, b_m, delta: float = 0.0):
        """(dx, dlam, dmu) with the unreduced matrix times them equal to
        ``(b_x, b_c, b_m)``; each block may be 1-D or 2-D (one column per
        right-hand side).  Raises ``RuntimeError`` when the factor is
        singular."""
        inv_s = 1.0 / -self.g
        if self.mi:
            b_x = b_x - self.Jg.T @ _scale_rows(inv_s, b_m)
        K = self.matrix(delta)
        rhs = np.concatenate([b_x, b_c])
        order = _COLUMN_ORDERS.get(self.problem) if self.problem is not None else None
        if order is None:
            lu = spla.splu(K)
            if self.problem is not None:
                _COLUMN_ORDERS[self.problem] = np.argsort(lu.perm_c)
            v = lu.solve(rhs)
        else:
            v = np.empty_like(rhs)
            v[order] = spla.splu(K[:, order], permc_spec="NATURAL").solve(rhs)
        dx, dlam = v[:self.n], v[self.n:]
        dmu = _scale_rows(inv_s, b_m + _scale_rows(self.mu, self.Jg @ dx))
        return dx, dlam, dmu


def _scale_rows(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``diag(w) @ a`` for a 1-D or 2-D array ``a``."""
    return (w * a.T).T


def newton_step(system: NewtonSystem, delta: float = 0.0):
    """One factorization and solve of the Newton system with ``delta*I`` on W.

    Returns (dx, dlam, dmu), or None when the matrix is singular or the
    solution is not finite.
    """
    n, me, rhs = system.n, system.me, system.rhs
    try:
        step = system.solve(rhs[:n], rhs[n:n + me], rhs[n + me:], delta)
    except RuntimeError:
        return None
    return step if all(np.all(np.isfinite(v)) for v in step) else None


def solve_nlp(problem, opts: SolverOptions | None = None,
              warm: KktState | None = None, newton_budget: int | None = None,
              trace: list | None = None) -> tuple[KktState, str]:
    """Run the interior-point iteration to convergence or a Newton budget.

    Returns (state, status) with status in {'converged', 'iteration-capped',
    'failed'}.  ``warm`` resumes from a previous state, keeping its barrier;
    ``trace`` (a list) collects one :class:`IterRecord` per accepted step.
    """
    opts = opts or SolverOptions()
    budget = newton_budget if newton_budget is not None else opts.max_iterations

    point = _Point(problem, problem.x0() if warm is None else warm.x)
    state = warm
    if state is None:
        g = point.g
        if g.size and np.max(g) >= 0.0:
            raise SolveFailure(f"initial point not strictly interior: "
                               f"max g = {np.max(g):.3e}")
        eps = opts.barrier_initial if g.size else opts.barrier_floor
        mu = eps / (-g) if g.size else np.zeros(0)
        state = KktState(x=point.x, lam=np.zeros(problem.n_eq), mu=mu, eps=eps)

    nu = 1.0
    for it in range(budget + 1):
        res = assemble_kkt(problem, state, point)
        if res.converged(opts) and state.eps <= opts.barrier_floor * (1 + 1e-9):
            state.iterations += it
            return state, "converged"
        if it == budget:
            state.iterations += it
            return state, "iteration-capped"
        # barrier update once the current perturbed system is solved well enough
        current = max(res.stationarity, res.feasibility, res.complementarity)
        while (state.eps > opts.barrier_floor
               and current <= opts.barrier_progress * state.eps):
            state.eps = max(opts.barrier_floor, opts.barrier_decrease * state.eps)
            res = assemble_kkt(problem, state, point)
            current = max(res.stationarity, res.feasibility, res.complementarity)

        system = NewtonSystem.build(problem, state, point)
        # merit slope along dx: grad_barrier @ dx - nu * |c|_1
        grad_barrier = point.grad
        if system.mi:
            grad_barrier = grad_barrier + state.eps * (system.Jg.T @ (1.0 / (-system.g)))
        flat = 1e-10 * (1.0 + abs(point.f))
        delta = 0.0
        while True:
            step = newton_step(system, delta)
            if step is not None:
                dx, dlam, dmu = step
                nu = max(nu, 1.1 * float(np.max(np.abs(state.lam + dlam), initial=0.0)) + 0.1)
                dphi = float(grad_barrier @ dx) - nu * point.c_norm
                if dphi <= flat:
                    break
            # singular or non-finite factor, or no descent: regularize W more
            delta = DELTA_FIRST if delta == 0.0 else delta * 10.0
            if delta > DELTA_MAX:
                state.iterations += it
                return state, "failed"
        alpha_max = alpha_mu = 1.0
        if system.mi:
            s = -system.g
            ds = -(system.Jg @ dx)
            shrink = ds < 0.0
            if shrink.any():
                alpha_max = min(1.0, float(np.min(
                    TAU_BOUNDARY * s[shrink] / (-ds[shrink]))))
            dmu_neg = dmu < 0.0
            if dmu_neg.any():
                alpha_mu = min(1.0, float(np.min(
                    TAU_BOUNDARY * state.mu[dmu_neg] / (-dmu[dmu_neg]))))

        phi0 = point.merit(state.eps, nu)
        kkt0 = max(res.stationarity, res.feasibility, res.complementarity)
        dual_only = float(np.max(np.abs(dx), initial=0.0)) <= \
            1e-12 * (1.0 + float(np.max(np.abs(state.x))))
        alpha = alpha_max
        accepted = False
        for backtracks in range(MAX_BACKTRACKS):
            x_new = state.x + alpha * dx
            if problem.interior_ok(x_new):
                trial = _Point(problem, x_new)
                phi = trial.merit(state.eps, nu)
                if dual_only or phi <= phi0 + 1e-4 * alpha * dphi:
                    accepted = True
                    break
                if np.isfinite(phi):
                    # merit is flat near a solution when the step is mostly in
                    # the duals; accept on plain KKT-residual contraction
                    tstate = KktState(x=x_new, lam=state.lam + alpha * dlam,
                                      mu=(np.maximum(state.mu + min(alpha_mu, alpha) * dmu,
                                                     1e-300) if system.mi
                                          else state.mu),
                                      eps=state.eps)
                    tres = assemble_kkt(problem, tstate, trial)
                    if max(tres.stationarity, tres.feasibility,
                           tres.complementarity) <= 0.9 * kkt0:
                        accepted = True
                        alpha_mu = min(alpha_mu, alpha)
                        break
            alpha *= 0.5
        if not accepted:
            state.iterations += it
            return state, "failed"

        point = trial
        state.x = x_new
        state.lam = state.lam + alpha * dlam
        if system.mi:
            state.mu = np.maximum(state.mu + alpha_mu * dmu, 1e-300)
        if trace is not None:
            trace.append(IterRecord(iteration=it, eps=state.eps,
                                    kkt=kkt0, alpha=alpha,
                                    objective=point.f, merit=phi,
                                    delta=delta, backtracks=backtracks))


def solve_centralized(nets, couplings, *, source_kind="current", norm="l2",
                      q_only=False, opts: SolverOptions | None = None,
                      trace_path=None):
    """Monolithic solve of the combined problem, coupling rows included.

    This is the oracle the distributed modes are compared against.  Returns
    a :class:`~gridweld.report.SolveReport`.  With ``trace_path`` one JSON
    line per accepted Newton step is written there.
    """
    import json
    import time

    from .coupling import CouplingPort
    from .ecf import PortBuild, build_problem
    from .report import build_report

    opts = opts or SolverOptions()
    ports = [PortBuild(CouplingPort(c), "internal") for c in couplings]
    problem = build_problem(nets, ports, source_kind=source_kind, norm=norm,
                            q_only=q_only)
    trace = [] if trace_path else None
    t0 = time.perf_counter()
    try:
        state, status = solve_nlp(problem, opts, trace=trace)
    except SolveFailure as exc:
        log.error("centralized solve failed: %s", exc)
        state, status = None, "failed"
    wall = time.perf_counter() - t0
    if trace_path:
        with open(trace_path, "w") as fh:
            for r in trace:
                rec = {"type": "iter", **asdict(r)}
                del rec["merit"]
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return build_report([(problem, state)], status, mode="central", nets=nets,
                        inner_iterations=state.iterations if state else 0,
                        wall_time=wall)


def solve_subproblem(problem, opts: SolverOptions | None = None,
                     warm: KktState | None = None,
                     capped: bool = False) -> tuple[KktState, str]:
    """Solve one subproblem with its exchange parameters held fixed.

    The parameters are whatever ``problem.params`` holds (the coordinator
    sets them from the boundary vector); they stay constant for the whole
    solve.  With ``capped`` the Newton budget is the distributed-mode inner
    cap.
    """
    opts = opts or SolverOptions()
    budget = opts.inner_cap if capped else None
    return solve_nlp(problem, opts, warm=warm, newton_budget=budget)
