"""Perturbed primal-dual interior-point solver.

Solves ``min f(x)  s.t.  c(x) = 0,  g(x) <= 0`` for any problem object
exposing the :class:`~gridweld.ecf.CircuitProblem` evaluation surface
(``objective/grad_objective``, ``residual_eq/jac_eq``,
``residual_in/jac_in``, ``hess_lagrangian``, ``interior_ok``, ``x0``).
Complementarity is relaxed to ``mu * (-g) = eps`` and the perturbation is
driven to a floor on a monotone schedule.  Beside it, a blocked iteration
re-centers: after ``RECENTER_STEPS`` accepted steps in a row shorter than
``RECENTER_ALPHA``, ``eps`` rises to ``min(RECENTER_CAP, RECENTER_FACTOR *
r)``, ``r`` the KKT residual, and the schedule brings it down again.  This
unjams a warm start that sits at the floor near its bounds when its
parameters move; convergence still requires the floor.  Each step solves
the Newton system of the perturbed conditions

    [ W + delta*I  Jc^T   Jg^T   ] [dx  ]     [ r_x ]
    [ Jc           0      0      ] [dlam] = - [ r_c ]
    [ -M Jg        0      -G     ] [dmu ]     [ r_m ]

in condensed form, as MATPOWER's MIPS does: with ``s = -g`` the last block
row gives ``dmu = (r_m - mu * (Jg dx)) / g``, and substituting it leaves

    [ W + Jg^T diag(mu/s) Jg + delta*I   Jc^T ] [dx  ]     [ r_x - Jg^T (r_m/s) ]
    [ Jc                                 0    ] [dlam] = - [ r_c                ]

which is factored by sparse LU (:meth:`NewtonSystem.factor`, the one
factorization site); ``dmu`` is then recovered from ``dx``.  W, Jc and Jg
are :class:`~gridweld.ecf.FixedMatrix` arrays on patterns fixed by the
problem's build.  A problem has one CSC pattern of the condensed matrix,
which holds the full diagonal, so ``delta`` is only a value filled into
it; the pattern is built on the problem's first matrix and kept for the
problem, weakly referenced, and a step whose W, Jc or Jg pattern differs
raises ``ValueError`` (see :class:`NewtonSystem`).  Its entries are
placed by :func:`~gridweld.ecf.place_entries`, as every circuit matrix's
are, and a step fills it with one ``np.bincount`` over a slot per entry
(see :class:`_KktPattern`); the products ``Jc^T lam``, ``Jg^T mu``,
``Jg^T (1/s)`` and ``Jg dx`` are bincounts over the stored entries, so a
step does no sparse algebra and makes one scipy object, the CSC matrix it
factors.  The fill stores no Hessian entry that comes to exactly zero, as
scipy's sparse sums with a Jg term, ``delta`` or a consensus penalty did:
stored zeros would change SuperLU's elimination postorder, and with it
every step's trailing digits.  So at ``delta = 0`` a diagonal slot with
no W or Jg entry drops out, and the matrix is the one a pattern without
the diagonal would give.  The pattern has its columns in the order of the
problem's first factorization (SuperLU's COLAMD on the natural-order
matrix); every later step, epoch and exchange sensitivity factors in that
order.  The order comes from the sparsest pattern the matrix has: a first
step starts from zero equality multipliers, so W's constraint entries are
exact zeros that drop out of ``W + Jg^T diag(mu/s) Jg`` (``ladder_f4`` L1
power: 94,136 entries at the first step, 105,856 later).  Later matrices
fill about as little in that order as in a fresh COLAMD one (21-feeder
ladder, central L1: 1.27M against 1.35M LU entries with power sources,
1.15M against 1.14M with current ones).  Every factorization passes ``panel_size=SPLU_PANEL_SIZE``
and ``relax=SPLU_RELAX``, both 1: one-column panels and no relaxed
supernodes.  SuperLU's panels and relaxed supernodes (Demmel, Eisenstat,
Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20, 1999) pay off on factors
with dense supernodes; this factor fills 2.3-2.7x, and SuperLU's defaults
run it at 0.18-0.22 GFlop/s (16 Mflop in 70-90 ms for the 21-feeder ladder's
central L1 matrix), so its cost is bookkeeping.  The panel width is what
matters; the measured ``splu`` times, 2.7k to 230k columns, are in the
README's "Numerical notes".  Steps have fraction-to-boundary caps and an
Armijo backtracking line search on an L1-penalty merit function.  One loop picks
``delta``: 0, then 1e-8 growing tenfold to 1e4, moving on while the factor
is singular or not finite or the step is no descent direction of the merit;
past 1e4 the solve fails.  Each iterate's ``f``, ``c``, ``g``, gradient and
Jacobians are evaluated once and every use reads them from there, and the
stationarity residual is computed once per multiplier pair.  A returned
state keeps the residuals the solve measured at its last point (``kkt``,
the certificate a report reads) and that point's constraint evaluation
(``c``, ``g``, ``Jc``, ``Jg``): a warm start from it reuses that
evaluation while the state's ``x`` is the same object and the problem's
``params`` are equal to those it was made under, so a state's arrays
must never be written in place.  ``f`` and its gradient are evaluated anew at every start, since
ADMM's penalty centers and weight change them between calls.
"""

from __future__ import annotations

import json
import logging
import time
import weakref
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .ecf import FixedMatrix, PortBuild, build_problem, place_entries
from .report import build_report

log = logging.getLogger("gridweld.pdip")

TAU_BOUNDARY = 0.995       # fraction-to-boundary
MAX_BACKTRACKS = 40
MAX_ITERATIONS = 500       # Newton budget of an uncapped solve
BARRIER_INITIAL = 0.1      # eps at a cold start
BARRIER_DECREASE = 0.1     # eps factor per barrier update
BARRIER_PROGRESS = 10.0    # decrease eps once residual <= this * eps
# Re-centering a blocked iteration: after RECENTER_STEPS accepted steps in a
# row shorter than RECENTER_ALPHA, eps rises to min(RECENTER_CAP,
# RECENTER_FACTOR * r), r the KKT residual; it never falls here.  A warm
# start at the 1e-9 floor whose parameters moved otherwise crawls along its
# bounds: in epoch 2 of dpdip L1 on the 4-feeder ladder (current sources,
# seed 1) every feeder cell takes steps of 7e-7 to 0.15 for its whole
# 50-step budget, its KKT residual staying at 1.8-3.0.  The cap keeps the
# re-centered point in the optimum's basin: at 0.1, admittance dpdip L1 on
# feeder210_stressed ended at another KKT point (objective 2.34509 and 36
# weak nodes against central's 2.34462 and 33); at 1e-2 it matches central.
RECENTER_STEPS = 3
RECENTER_ALPHA = 0.05
RECENTER_FACTOR = 0.1
RECENTER_CAP = 1e-2
DELTA_FIRST = 1e-8         # first nonzero regularization delta on W
DELTA_MAX = 1e4
# SuperLU's panel width and relaxed-supernode size, for every factorization.
# Panels and relaxed supernodes pay off on factors with dense supernodes; the
# condensed KKT factor fills only 2.3-2.7x and is factored at about 0.2
# GFlop/s, so they cost more bookkeeping than they save.  One-column panels
# without relaxation factor 11-37% faster from 2.7k to 230k columns; the
# panel width is the part that matters (README, "Numerical notes", has the
# measured table).
SPLU_PANEL_SIZE = 1
SPLU_RELAX = 1

# problem -> its condensed KKT pattern
_PATTERNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass
class SolverOptions:
    kkt_tolerance: float = 1e-8
    barrier_floor: float = 1e-9
    inner_cap: int = 50                # per-epoch Newton cap in distributed mode

    def __post_init__(self):
        for name in ("kkt_tolerance", "barrier_floor", "inner_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class KktState:
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    eps: float
    iterations: int = 0
    # (x, params, {"c", "g", "Jc", "Jg" evaluated at x}) of the last point
    # of the solve that returned this state; see _Point.at
    constraints: tuple | None = field(default=None, repr=False, compare=False)
    # the KktResiduals of the returned point, as that solve measured them
    kkt: KktResiduals | None = field(default=None, repr=False, compare=False)


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
    accept: str           # "armijo", "dual_only" or "kkt_contraction"


class SolveFailure(RuntimeError):
    pass


class _Point:
    """Every x-dependent value the iteration reads at one ``x``.

    ``f``, ``c`` and ``g`` are evaluated at once (every line-search trial
    needs them), the gradient and Jacobians on first use; ``kept`` gives
    some of them already evaluated (see :meth:`at`).  Its arrays are never
    written in place.
    """

    def __init__(self, problem, x, kept=None):
        self.problem, self.x = problem, x
        self.f = problem.objective(x)
        if kept:
            self.__dict__.update(kept)
        else:
            self.c = problem.residual_eq(x)
            self.g = problem.residual_in(x)
        self.c_norm = float(np.sum(np.abs(self.c)))
        self.g_max = float(self.g.max(initial=-np.inf))
        self._r_x = (None, None, None)     # (lam, mu, r_x) of the last residuals

    @classmethod
    def at(cls, problem, state: KktState) -> "_Point":
        """The point at ``state.x``, reusing the constraint evaluation the
        state kept if it was made at this ``x`` object under equal
        ``problem.params``."""
        kept = state.constraints
        if (kept is not None and kept[0] is state.x
                and np.array_equal(kept[1], _params(problem))):
            return cls(problem, state.x, kept[2])
        return cls(problem, state.x)

    def keep(self, state: KktState):
        """Let ``state`` carry this point's constraint evaluation."""
        state.constraints = (self.x, _params(self.problem),
                             {k: self.__dict__[k] for k in ("c", "g", "Jc", "Jg")
                              if k in self.__dict__})

    @cached_property
    def grad(self) -> np.ndarray:
        return self.problem.grad_objective(self.x)

    @cached_property
    def c_max(self) -> float:
        return float(np.abs(self.c).max(initial=0.0))

    @cached_property
    def log_barrier(self) -> float:
        """``sum(log(-g))``, the barrier term of the merit without ``-eps``."""
        return float(np.sum(np.log(-self.g)))

    @cached_property
    def Jc(self) -> FixedMatrix:
        return self.problem.jac_eq(self.x)

    @cached_property
    def Jg(self) -> FixedMatrix:
        return self.problem.jac_in(self.x)

    def residuals(self, state: KktState):
        """(r_x, r_c, g, r_m) of the perturbed KKT conditions at ``state``.
        ``r_x`` is computed once for each pair of multiplier arrays."""
        lam, mu, r_x = self._r_x
        if lam is not state.lam or mu is not state.mu:
            r_x = (self.grad + self.Jc.transpose_times(state.lam)
                   + self.Jg.transpose_times(state.mu))
            self._r_x = (state.lam, state.mu, r_x)
        r_m = -state.mu * self.g - state.eps
        return r_x, self.c, self.g, r_m

    def merit(self, eps: float, nu: float) -> float:
        """L1-penalty barrier merit; infinite off the strict interior."""
        if self.g_max >= 0.0:
            return np.inf
        return self.f - eps * self.log_barrier + nu * self.c_norm


def assemble_kkt(problem, state: KktState,
                 point: _Point | None = None) -> KktResiduals:
    """Residuals of the perturbed first-order conditions at a state.

    ``point`` holds the evaluations at ``state.x`` if the caller has them.
    Rejects non-interior points: every inequality must hold strictly so the
    barrier is well defined.
    """
    point = point or _Point.at(problem, state)
    r_x, c, g, r_m = point.residuals(state)
    if point.g_max >= 0.0:
        raise SolveFailure(f"non-interior point: max g = {point.g_max:.3e}")
    return KktResiduals(
        stationarity=float(np.abs(r_x).max(initial=0.0)),
        feasibility=point.c_max,
        complementarity=float(np.abs(r_m).max(initial=0.0)),
        complementarity_raw=float(np.abs(state.mu * g).max(initial=0.0)),
        mu_min=float(state.mu.min()) if g.size else 0.0,
        g_max=point.g_max)


class _KktPattern:
    """The CSC pattern of the condensed matrix ``[[H, Jc^T], [Jc, 0]]``,
    ``H = W + Jg^T diag(d) Jg + delta*I``, for one set of W, Jc and Jg
    patterns, with its columns in natural order until :meth:`reorder`
    (``order`` is None until then).  It holds every diagonal entry of H, so
    any ``delta`` fills it.

    A CSC matrix is the CSR form of its transpose, so the first ``n``
    columns are placed by :func:`~gridweld.ecf.place_entries`, the one
    placement of a fixed pattern, with K's columns as its rows.  It places
    four groups of entries: the pair products ``Jg[r,i] * (d[r] *
    Jg[r,j])`` of slot ``(i, j)`` by ascending Jg row ``r``, then W, then
    the diagonal, then Jc below H.  The Jc^T columns are Jc's own CSR
    arrays, appended.  ``slot`` maps each entry of the groups, and then of
    Jc^T, to its position, so :meth:`fill` is one ``np.bincount`` that sums
    each Hessian slot in the order scipy's ``Jg.T @ (diag(d) @ Jg)``, then
    ``W + P``, then ``+ delta*I`` do.  W, Jc and Jg are
    :class:`~gridweld.ecf.FixedMatrix` arrays; their index arrays are held,
    not copied, to tell a pattern change.
    """

    def __init__(self, W, Jc, Jg):
        n, me = W.shape[0], Jc.shape[0]
        self.sources = tuple(a for M in (W, Jc, Jg) for a in (M.indptr, M.indices))
        self.shape = (n + me,) * 2
        # the pairs (a, b) of Jg entries in one row, by ascending row
        k = np.diff(Jg.indptr).astype(np.int64)
        sq = k * k
        first = np.repeat(Jg.indptr[:-1], sq)
        t = np.arange(int(sq.sum())) - np.repeat(np.cumsum(sq) - sq, sq)
        width = np.repeat(k, sq)
        self.pair_a = (first + t // width).astype(np.int32)
        self.pair_b = (first + t % width).astype(np.int32)
        del first, t, width
        diag = np.arange(n, dtype=np.int32)
        slot, _, indices, indptr = place_entries(
            np.concatenate([Jg.indices[self.pair_b], W.indices, diag, Jc.indices]),
            np.concatenate([Jg.indices[self.pair_a], W.rows, diag, n + Jc.rows]),
            (n, n + me))
        placed = len(indices)
        self.slot = np.concatenate([slot, placed + np.arange(Jc.nnz)])
        self.indices = np.concatenate([indices, Jc.indices]).astype(np.int32, copy=False)
        self.indptr = np.concatenate([indptr, placed + Jc.indptr[1:]]).astype(np.int32,
                                                                             copy=False)
        self.order = None
        # the Hessian slots, of which the fill drops those that come to 0
        self.hessian = np.ones(len(self.indices), dtype=bool)
        self.hessian[self.slot[len(self.slot) - 2 * Jc.nnz:]] = False

    def fits(self, W, Jc, Jg) -> bool:
        """Whether W, Jc and Jg have the patterns this was built from."""
        arrays = (a for M in (W, Jc, Jg) for a in (M.indptr, M.indices))
        return all(a is b or np.array_equal(a, b) for a, b in zip(arrays, self.sources))

    def reorder(self, order):
        """Put the natural-order columns in ``order`` (column ``k`` is
        natural column ``order[k]``) by moving each position, rows kept.
        ``slot`` and ``hessian`` are rewritten in place; ``indices`` and
        ``indptr``, which matrices share, are new arrays."""
        counts = np.diff(self.indptr)
        indptr = np.concatenate([[0], np.cumsum(counts[order])]).astype(np.int32)
        start = np.empty(len(order), dtype=np.int64)
        start[order] = indptr[:-1]
        shift = start - self.indptr[:-1]
        moved = (np.arange(len(self.indices)) + np.repeat(shift, counts)).astype(np.int32)
        self.slot[:] = moved[self.slot]
        indices = np.empty_like(self.indices)
        indices[moved] = self.indices
        self.hessian[moved] = self.hessian.copy()
        self.indices, self.indptr, self.order = indices, indptr, order

    def fill(self, W, Jc, Jg, d, delta) -> sp.csc_matrix:
        """The matrix with ``diag(d)`` and ``delta``.

        It stores no Hessian entry that comes to exactly 0, as scipy's sums
        with a Jg term, ``delta`` or a consensus penalty would not, so at
        ``delta = 0`` a diagonal slot with nothing else drops out; Jc zeros
        are kept."""
        products = Jg.data[self.pair_a]
        products *= (d[Jg.rows] * Jg.data)[self.pair_b]
        data = np.bincount(self.slot, np.concatenate(
            [products, W.data, np.full(W.shape[0], delta), Jc.data, Jc.data]),
            len(self.indices))
        del products
        indices, indptr = self.indices, self.indptr
        zero = data == 0.0
        zero &= self.hessian
        dropped = np.flatnonzero(zero)
        if len(dropped):
            indptr = (indptr - np.searchsorted(dropped, indptr)).astype(np.int32)
            keep = ~zero
            data, indices = data[keep], indices[keep]
        return sp.csc_matrix((data, indices, indptr), shape=self.shape)


@dataclass(frozen=True)
class NewtonSystem:
    """One linearized perturbed-KKT system of ``problem``, solved in
    condensed form.

    :meth:`matrix` is the condensed matrix
    ``[[W + Jg^T diag(mu/s) Jg + delta*I, Jc^T], [Jc, 0]]`` with ``s = -g``,
    filled into the problem's one :class:`_KktPattern`, which holds the
    diagonal, so ``delta`` is only a value.  The pattern is built on the
    problem's first matrix and kept for the problem, weakly referenced; a
    system whose W, Jc or Jg pattern differs from the kept one raises
    ``ValueError``.  :meth:`factor` is the module's one factorization: it
    factors the matrix for one ``delta`` and returns a solve of the
    unreduced three-block system over 1-D or 2-D right-hand sides, so every
    solve at a point reads one factor.  The problem's first factorization
    fixes the pattern's column order (COLAMD on the natural-order matrix).
    W, Jc and Jg are :class:`~gridweld.ecf.FixedMatrix` arrays.  A system is
    not changed after it is built.
    """
    W: FixedMatrix
    Jc: FixedMatrix
    Jg: FixedMatrix
    g: np.ndarray
    mu: np.ndarray
    rhs: np.ndarray       # -(r_x, r_c, r_m) stacked
    problem: object       # the key of the kept pattern

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def me(self) -> int:
        return self.Jc.shape[0]

    @property
    def mi(self) -> int:
        return self.g.size

    @classmethod
    def build(cls, problem, state: KktState,
              point: _Point | None = None) -> "NewtonSystem":
        point = point or _Point.at(problem, state)
        r_x, c, g, r_m = point.residuals(state)
        W = problem.hess_lagrangian(state.x, state.lam, state.mu)
        rhs = -np.concatenate([r_x, c, r_m])
        return cls(W=W, Jc=point.Jc, Jg=point.Jg, g=g, mu=state.mu, rhs=rhs,
                   problem=problem)

    def matrix(self, delta: float = 0.0) -> sp.csc_matrix:
        """The condensed KKT matrix, ``delta*I`` added to its Hessian block,
        with its columns in the kept pattern's order."""
        pattern = _PATTERNS.get(self.problem)
        if pattern is None:
            pattern = _PATTERNS[self.problem] = _KktPattern(self.W, self.Jc, self.Jg)
        elif not pattern.fits(self.W, self.Jc, self.Jg):
            raise ValueError("W, Jc or Jg has a pattern other than the "
                             "problem's kept one")
        return pattern.fill(self.W, self.Jc, self.Jg, self.mu / -self.g, delta)

    def factor(self, delta: float = 0.0):
        """Factor the condensed matrix with ``delta*I`` on W; return
        ``solve(b_x, b_c, b_m) -> (dx, dlam, dmu, Jg_dx)``, the solution of
        the unreduced system with right-hand side ``(b_x, b_c, b_m)`` and
        ``Jg @ dx``.  Each block may be 1-D or 2-D (one column per
        right-hand side).  The problem's first factorization takes COLAMD's
        order and reorders the kept pattern to it; later ones keep that
        order.  Raises ``RuntimeError`` when the matrix is singular."""
        K = self.matrix(delta)
        pattern = _PATTERNS[self.problem]
        order = pattern.order
        lu = spla.splu(K, permc_spec="COLAMD" if order is None else "NATURAL",
                       panel_size=SPLU_PANEL_SIZE, relax=SPLU_RELAX)
        del K
        if order is None:
            pattern.reorder(np.argsort(lu.perm_c))
        inv_s = 1.0 / -self.g

        def solve(b_x, b_c, b_m):
            rhs = np.concatenate([b_x - self.Jg.transpose_times(_scale_rows(inv_s, b_m)),
                                  b_c])
            if order is None:       # the factor permutes its columns itself
                v = lu.solve(rhs)
            else:
                v = np.empty_like(rhs)
                v[order] = lu.solve(rhs)
            dx, dlam = v[:self.n], v[self.n:]
            Jg_dx = self.Jg @ dx
            dmu = _scale_rows(inv_s, b_m + _scale_rows(self.mu, Jg_dx))
            return dx, dlam, dmu, Jg_dx
        return solve


def _params(problem) -> np.ndarray:
    """A copy of the problem's exchange parameters (empty without any)."""
    return np.array(getattr(problem, "params", ()), dtype=float)


def _scale_rows(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``diag(w) @ a`` for a 1-D or 2-D array ``a``."""
    return (w * a.T).T


def newton_step(system: NewtonSystem, delta: float = 0.0):
    """One factorization and solve of the Newton system with ``delta*I`` on W.

    Returns (dx, dlam, dmu, Jg_dx), or None when the matrix is singular or
    the solution is not finite.
    """
    n, me, rhs = system.n, system.me, system.rhs
    try:
        step = system.factor(delta)(rhs[:n], rhs[n:n + me], rhs[n + me:])
    except RuntimeError:
        return None
    return step if all(np.isfinite(v).all() for v in step) else None


def solve_nlp(problem, opts: SolverOptions | None = None,
              warm: KktState | None = None, newton_budget: int | None = None,
              trace: list | None = None) -> tuple[KktState, str]:
    """Run the interior-point iteration to convergence or a Newton budget.

    Returns (state, status) with status in {'converged', 'iteration-capped',
    'failed'}.  ``warm`` resumes from a previous state, keeping its barrier;
    ``trace`` (a list) collects one :class:`IterRecord` per accepted step.
    Within a solve ``eps`` rises only by a re-centering (module docstring).
    """
    opts = opts or SolverOptions()
    budget = newton_budget if newton_budget is not None else MAX_ITERATIONS

    point = _Point(problem, problem.x0()) if warm is None else _Point.at(problem, warm)
    state = warm
    if state is None:
        g = point.g
        if point.g_max >= 0.0:
            raise SolveFailure(f"initial point not strictly interior: "
                               f"max g = {point.g_max:.3e}")
        eps = BARRIER_INITIAL if g.size else opts.barrier_floor
        mu = eps / (-g)
        state = KktState(x=point.x, lam=np.zeros(problem.n_eq), mu=mu, eps=eps)

    nu = 1.0
    blocked = 0           # accepted steps in a row shorter than RECENTER_ALPHA
    for it in range(budget + 1):
        res = assemble_kkt(problem, state, point)
        if res.converged(opts) and state.eps <= opts.barrier_floor * (1 + 1e-9):
            return _finish(state, point, res, it, "converged")
        if it == budget:
            return _finish(state, point, res, it, "iteration-capped")
        # barrier update once the current perturbed system is solved well enough
        current = max(res.stationarity, res.feasibility, res.complementarity)
        while (state.eps > opts.barrier_floor
               and current <= BARRIER_PROGRESS * state.eps):
            state.eps = max(opts.barrier_floor, BARRIER_DECREASE * state.eps)
            res = assemble_kkt(problem, state, point)
            current = max(res.stationarity, res.feasibility, res.complementarity)
        if blocked >= RECENTER_STEPS:
            blocked = 0
            raised = min(RECENTER_CAP, RECENTER_FACTOR * current)
            if raised > state.eps:
                state.eps = raised
                res = assemble_kkt(problem, state, point)

        system = NewtonSystem.build(problem, state, point)
        # merit slope along dx: grad_barrier @ dx - nu * |c|_1
        grad_barrier = point.grad + state.eps * system.Jg.transpose_times(1.0 / (-system.g))
        flat = 1e-10 * (1.0 + abs(point.f))
        delta = 0.0
        while True:
            step = newton_step(system, delta)
            if step is not None:
                dx, dlam, dmu, Jg_dx = step
                nu = max(nu, 1.1 * float(np.abs(state.lam + dlam).max(initial=0.0)) + 0.1)
                dphi = float(grad_barrier @ dx) - nu * point.c_norm
                if dphi <= flat:
                    break
            # singular or non-finite factor, or no descent: regularize W more
            delta = DELTA_FIRST if delta == 0.0 else delta * 10.0
            if delta > DELTA_MAX:
                return _finish(state, point, res, it, "failed")
        # fraction-to-boundary caps on the slacks s = -g and on mu
        shrink = Jg_dx > 0.0
        alpha_max = float((TAU_BOUNDARY * -system.g[shrink] / Jg_dx[shrink]).min(initial=1.0))
        dmu_neg = dmu < 0.0
        alpha_mu = float((TAU_BOUNDARY * state.mu[dmu_neg] / -dmu[dmu_neg]).min(initial=1.0))

        phi0 = point.merit(state.eps, nu)
        kkt0 = max(res.stationarity, res.feasibility, res.complementarity)
        dual_only = float(np.abs(dx).max(initial=0.0)) <= \
            1e-12 * (1.0 + float(np.abs(state.x).max()))
        alpha = alpha_max
        accepted = None
        for backtracks in range(MAX_BACKTRACKS):
            x_new = state.x + alpha * dx
            if problem.interior_ok(x_new):
                trial = _Point(problem, x_new)
                phi = trial.merit(state.eps, nu)
                if dual_only or phi <= phi0 + 1e-4 * alpha * dphi:
                    accepted = "dual_only" if dual_only else "armijo"
                    break
                if np.isfinite(phi):
                    # merit is flat near a solution when the step is mostly in
                    # the duals; accept on plain KKT-residual contraction
                    tstate = KktState(x=x_new, lam=state.lam + alpha * dlam,
                                      mu=state.mu + min(alpha_mu, alpha) * dmu,
                                      eps=state.eps)
                    tres = assemble_kkt(problem, tstate, trial)
                    if max(tres.stationarity, tres.feasibility,
                           tres.complementarity) <= 0.9 * kkt0:
                        accepted = "kkt_contraction"
                        break
            alpha *= 0.5
        if accepted is None:
            return _finish(state, point, res, it, "failed")

        blocked = blocked + 1 if alpha < RECENTER_ALPHA else 0
        point = trial
        state.x = x_new
        if accepted == "kkt_contraction":
            # the trial state's multipliers, whose residuals trial holds
            state.lam, state.mu = tstate.lam, tstate.mu
        else:
            state.lam = state.lam + alpha * dlam
            state.mu = state.mu + alpha_mu * dmu
        if trace is not None:
            trace.append(IterRecord(iteration=it, eps=state.eps,
                                    kkt=kkt0, alpha=alpha,
                                    objective=point.f, merit=phi,
                                    delta=delta, backtracks=backtracks,
                                    accept=accepted))


def _finish(state: KktState, point: _Point, res: KktResiduals, steps: int,
            status: str):
    """Count a solve's steps; keep its last point's constraint evaluation
    and residuals."""
    state.iterations += steps
    state.kkt = res
    point.keep(state)
    return state, status


def solve_centralized(nets, couplings, *, source_kind="current", norm="l2",
                      q_only=False, opts: SolverOptions | None = None,
                      trace_path=None):
    """Monolithic solve of the combined problem, coupling rows included.

    This is the oracle the distributed modes are compared against.  Returns
    a :class:`~gridweld.report.SolveReport`.  With ``trace_path`` one JSON
    line per accepted Newton step is written there.
    """
    opts = opts or SolverOptions()
    ports = [PortBuild(c, "internal") for c in couplings]
    problem = build_problem(nets, ports, source_kind=source_kind, norm=norm,
                            q_only=q_only)
    trace = []
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
                     warm: KktState | None = None, capped: bool = False,
                     trace: list | None = None) -> tuple[KktState, str]:
    """Solve one subproblem with its exchange parameters held fixed.

    The parameters are whatever ``problem.params`` holds (the coordinator
    sets them from the boundary vector); they stay constant for the whole
    solve.  With ``capped`` the Newton budget is the distributed-mode inner
    cap; ``trace`` is as for :func:`solve_nlp`.
    """
    opts = opts or SolverOptions()
    budget = opts.inner_cap if capped else None
    return solve_nlp(problem, opts, warm=warm, newton_budget=budget,
                     trace=trace)
