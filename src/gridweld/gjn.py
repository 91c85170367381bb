"""Distributed Gauss-Jacobi-Newton coordinator.

Each epoch solves every subproblem's perturbed KKT system in parallel with
its boundary values frozen (Gauss-Jacobi), then evaluates the exchange
across the coupling ports: distribution port currents aggregate into
transmission-side draws, the transmission POI voltage distributes onto
feeder heads, and the POI balance duals distribute into distribution-side
port-current prices.  The boundary then takes a Newton step on the fixed
point of that exchange, ``b + (I - BA)^-1 (F(b) - b)`` with ``BA`` the
:meth:`Coordinator.epoch_map` (the cells' sensitivities at their epoch-end
states), once every cell converged and the exchange metric did not grow
but has not met the tolerance; otherwise it takes the plain exchange,
relaxed by ``damping``.  So the
boundary converges in a few epochs also where the plain exchange is slow
or not a contraction.  Everything reads only the epoch's finished
snapshots, so the trajectory is identical for any worker count.

The payload that crosses subproblem boundaries is restricted to per-port
boundary primal/dual values; internal states never leave their owner.
Those values form one boundary vector, 16 per torn port (``PORT_LAYOUT``);
each cell reads its parameters from it through its ``cols``, and one
function, :func:`_exchange`, writes a port's values from its cells' states
(each epoch) or from their sensitivities (the epoch map).
"""

from __future__ import annotations

import contextlib
import json
import logging
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import pdip
from .coupling import _AGG, _DIST, distribute_voltage_t_to_d
from .ecf import build_problem, partition_cells
from .netmodel import Network, Partition, default_partition
from .report import build_report

log = logging.getLogger("gridweld.gjn")

#: Torn port k owns entries PORT_DIM*k onwards of the boundary vector; each
#: parameter-slot kind starts at its offset there: the draw (2) and head
#: voltages (6) are the primal exchange, the port-current prices (6) and the
#: POI-voltage price (2) the dual one
PORT_DIM = 16
PORT_LAYOUT = {"draw": 0, "headv": 2, "price": 8, "vprice": 14}


@dataclass
class Subproblem:
    """One partition cell with its own problem and state; ``cols`` is the
    boundary-vector index of each of its exchange parameters."""
    name: str
    nets: list[Network]
    problem: object
    cols: np.ndarray
    state: pdip.KktState | None = None
    status: str = "pending"
    inner_iterations: int = 0


@dataclass
class EpochRecord:
    epoch: int
    metric: float
    boundary_after: list[float]
    inner: dict[str, tuple[str, int]]
    # cell -> {"delta_steps", "cold_restart", "recentered"}; only with a
    # trace path
    solves: dict[str, dict] = field(default_factory=dict)
    step: str | None = None      # "newton" or "plain"; None without an update


def build_subproblems(nets, couplings, partition: Partition, *, source_kind,
                      norm, q_only=False):
    """Instantiate per-cell problems plus the port list torn by the partition."""
    cells, torn = partition_cells(nets, couplings, partition, "t_draw", "d_head")
    at = {key: PORT_DIM * k for k, (key, _, _, _) in enumerate(torn)}
    subs = []
    for cell in cells:
        prob = build_problem(cell.nets, cell.port_builds, source_kind=source_kind,
                             norm=norm, q_only=q_only)
        cols = np.empty(prob.n_param, dtype=int)
        for name, sl in prob.param_slots.items():
            kind, key = name.split(":", 1)
            cols[sl] = at[key] + PORT_LAYOUT[kind] + np.arange(sl.stop - sl.start)
        if prob.n_param > 0.2 * prob.nvar:
            warnings.warn(f"subproblem '{cell.name}': boundary dimension "
                          f"{prob.n_param} exceeds 20% of internal "
                          f"dimension {prob.nvar}")
        subs.append(Subproblem(cell.name, cell.nets, prob, cols))
    return subs, torn


def _exchange(port, i_d, v_t, lam_t, head):
    """A torn port's PORT_DIM new boundary values from what its cells hold.

    ``i_d`` are the feeder's six port currents, ``v_t`` and ``lam_t`` the
    transmission POI voltage and balance duals, and ``head`` the gradient of
    the feeder's Lagrangian in its head voltages.  Distribution currents
    aggregate into the draw, the POI voltage distributes onto the head, the
    POI duals become the port-current prices and the head gradient the POI
    voltage price.  The map is linear: given blocks of sensitivity rows
    (2-D, a column per boundary value) instead of values, it returns the
    rows of the linearized exchange.
    """
    k3 = 3.0 * port.kappa
    return np.concatenate([_AGG @ i_d / k3, _DIST @ v_t, _AGG.T @ lam_t / k3,
                           _AGG @ head])


def gauss_boundary_update(torn, boundary, subs_by_name, damping=1.0):
    """Pure-Jacobi exchange: the new boundary vector from epoch-end snapshots.

    Reads only the finished subproblem states, so the result is independent
    of solve completion order.  Returns ``(new_boundary, metric, readings)``;
    row k of ``readings`` holds what the exchange read at port k: the POI
    voltage (2), the POI balance duals (2) and the feeder port currents (6).
    """
    new = np.empty((len(torn), PORT_DIM))
    readings = np.empty((len(torn), 10))
    for k, (key, port, t_sub, d_sub) in enumerate(torn):
        t, d = subs_by_name[t_sub], subs_by_name[d_sub]
        v_t = t.state.x[t.problem.maps.poi_v[key]]
        lam_t = t.state.lam[t.problem.maps.poi_row[key]]
        i_d = d.state.x[d.problem.maps.port_dvar[key]]
        head = d.problem.param_lagrangian_grad(d.state.x, d.state.lam,
                                               d.state.mu, f"headv:{key}")
        new[k] = _exchange(port, i_d, v_t, lam_t, head)
        readings[k] = np.concatenate([v_t, lam_t, i_d])
    new = new.ravel()
    if damping != 1.0:
        new = (1 - damping) * boundary + damping * new
    return new, float(np.max(np.abs(new - boundary), initial=0.0)), readings


class Coordinator:
    """Owns the epoch loop of both distributed modes; subproblem solves may
    run on worker threads.  The Gauss-Jacobi-Newton exchange sits in the
    methods :class:`gridweld.admm.Consensus` replaces: ``_cells``, ``_load``,
    ``_update``, ``_trace``, ``_after_epoch`` and ``_diagnostics``."""
    mode = "dpdip"
    out_of_budget = "epoch-budget-exhausted"

    def __init__(self, nets, couplings, partition=None, *, source_kind="current",
                 norm="l2", q_only=False, opts=None, gauss_tol=1e-6,
                 max_epochs=200, damping=1.0, workers=1, trace_path=None):
        self.nets = list(nets)
        self.couplings = list(couplings)
        self.partition = partition or default_partition(self.nets, self.couplings)
        self.opts = opts or pdip.SolverOptions()
        self.gauss_tol = gauss_tol
        self.max_epochs = max_epochs
        self.damping = damping
        self.workers = max(1, workers)
        self.trace_path = trace_path
        self.subs, self.torn, self.boundary = self._cells(source_kind, norm, q_only)
        self.by_name = {s.name: s for s in self.subs}
        self.readings = np.zeros((len(self.torn), 10))   # see gauss_boundary_update
        self.epochs: list[EpochRecord] = []

    def _cells(self, source_kind, norm, q_only):
        """The cells, the torn ports and the flat-start boundary: zero draws
        and prices, balanced 1 pu head voltages."""
        subs, torn = build_subproblems(self.nets, self.couplings, self.partition,
                                       source_kind=source_kind, norm=norm,
                                       q_only=q_only)
        boundary = np.zeros(PORT_DIM * len(torn))
        for k, (_, port, _, _) in enumerate(torn):
            head = PORT_DIM * k + PORT_LAYOUT["headv"]
            boundary[head:head + 6] = distribute_voltage_t_to_d(port, 1.0, 0.0)
        return subs, torn, boundary

    def payload(self, key: str) -> dict:
        """What crossed torn port ``key`` in the last exchange."""
        k = [t[0] for t in self.torn].index(key)
        mine = self.boundary[PORT_DIM * k:PORT_DIM * (k + 1)]
        draw, head_v, price, v_price = np.split(mine, list(PORT_LAYOUT.values())[1:])
        t_voltage, t_dual, d_current = np.split(self.readings[k], [2, 4])
        return {"port": key, "draw": draw.tolist(),
                "head_voltage": head_v.tolist(), "price": price.tolist(),
                "v_price": v_price.tolist(), "t_voltage": t_voltage.tolist(),
                "t_dual": t_dual.tolist(), "d_current": d_current.tolist()}

    # -- one epoch ------------------------------------------------------------

    def _load(self, sub: Subproblem):
        """Set what ``sub`` reads before its solve: its boundary parameters."""
        sub.problem.params[:] = self.boundary[sub.cols]

    def _solve_one(self, sub: Subproblem):
        """Solve a cell warm, restarted cold (from ``x0``) once if that fails;
        a :class:`pdip.SolveFailure` reads as ``(None, 'failed')``.  ``used``
        counts the Newton steps of the last attempt.  With a trace path,
        ``solve`` gives that attempt's accepted steps with ``delta != 0``,
        whether it was a cold restart and its re-centerings (within a solve
        ``eps`` rises only by one); without, it is None."""
        self._load(sub)
        label = f"subproblem '{sub.name}'"
        for warm in (sub.state, None):
            # solve_nlp advances a warm state's step count in place
            start = warm.iterations if warm is not None else 0
            steps = [] if self.trace_path else None
            try:
                state, status = pdip.solve_subproblem(
                    sub.problem, self.opts, warm=warm, capped=bool(self.torn),
                    trace=steps)
            except pdip.SolveFailure as exc:
                log.error("%s: %s", label, exc)
                state, status = None, "failed"
            if status != "failed" or warm is None:
                break
            log.warning("%s: warm start failed, restarting cold", label)
        used = state.iterations - start if state is not None else 0
        solve = None if steps is None else {
            "delta_steps": sum(r.delta != 0.0 for r in steps),
            "cold_restart": warm is None and sub.state is not None,
            "recentered": sum(b.eps > a.eps for a, b in zip(steps, steps[1:]))}
        return sub.name, state, status, used, solve

    def run_epoch(self, epoch: int, pool=None) -> EpochRecord:
        """One epoch; with ``pool`` (an executor) the cells solve on it."""
        if pool is None:
            results = [self._solve_one(s) for s in self.subs]
        else:
            results = list(pool.map(self._solve_one, self.subs))
        inner, solves = {}, {}
        for name, state, status, used, solve in sorted(results, key=lambda r: r[0]):
            sub = self.by_name[name]
            if state is not None:
                sub.state = state
            sub.status = status
            sub.inner_iterations += used
            inner[name] = (status, used)
            if solve is not None:
                solves[name] = solve
        metric, step = (self._update() if all(s.state is not None for s in self.subs)
                        else (float("nan"), None))
        rec = EpochRecord(epoch=epoch, metric=metric,
                          boundary_after=self.boundary.tolist(),
                          inner=inner, solves=solves, step=step)
        self.epochs.append(rec)
        return rec

    def _update(self) -> tuple[float, str]:
        """The boundary update on the cells' states; returns the exchange
        metric and the kind of step taken.

        With ``F`` the exchange and ``BA`` its :meth:`epoch_map` at this
        epoch's states and ``b``, the relaxed exchange is
        ``G(b) = (1 - damping) b + damping F(b)``, and the Newton step on
        ``G(b) = b``, ``b + (damping (I - BA))^-1 (G(b) - b)``, is
        ``b + (I - BA)^-1 (F(b) - b)`` for any ``damping``.  It is taken
        when every cell's kept solve converged and the metric did not grow
        from the last epoch; otherwise, or when ``I - BA`` is singular or
        the step is not finite, ``G(b)`` is.  An epoch whose metric met
        ``gauss_tol`` with every cell converged ends the run, so it takes
        ``G(b)`` and builds no ``BA``.
        """
        new, metric, self.readings = gauss_boundary_update(
            self.torn, self.boundary, self.by_name, self.damping)
        step = "plain"
        last = self.epochs[-1].metric if self.epochs else np.inf
        if (self.gauss_tol < metric <= last
                and all(s.status == "converged" for s in self.subs)):
            try:
                move = np.linalg.solve(
                    self.damping * (np.eye(self.boundary.size) - self.epoch_map()),
                    new - self.boundary)
            except (np.linalg.LinAlgError, RuntimeError) as exc:
                log.warning("boundary Newton step failed (%s); plain step", exc)
            else:
                if np.isfinite(move).all():
                    new, step = self.boundary + move, "newton"
        self.boundary = new
        return metric, step

    def _trace(self, rec: EpochRecord) -> dict | None:
        """The epoch's line; ``last_metric``, the metric of the epoch before
        (None for the first), is what the step kind was chosen against."""
        last = self.epochs[-2].metric if len(self.epochs) > 1 else None
        return {"type": "epoch", "epoch": rec.epoch, "metric": rec.metric,
                "step": rec.step, "last_metric": last,
                "inner": {k: {"status": v[0], "iterations": v[1],
                              **rec.solves.get(k, {})}
                          for k, v in rec.inner.items()},
                "ports": {key: self.payload(key) for key, _, _, _ in self.torn}}

    def _after_epoch(self, epoch: int) -> str | None:
        """A stop status after an epoch that neither failed nor converged."""
        if _diverging([r.metric for r in self.epochs]):
            log.error("boundary exchange diverging; stopping")
            return "diverged"

    # -- full run ----------------------------------------------------------------

    def run(self):
        t0 = time.perf_counter()
        status = self.out_of_budget
        with contextlib.ExitStack() as stack:
            trace_fh = (stack.enter_context(open(self.trace_path, "w"))
                        if self.trace_path else None)
            pool = (stack.enter_context(ThreadPoolExecutor(self.workers))
                    if self.workers > 1 and len(self.subs) > 1 else None)
            for epoch in range(1, self.max_epochs + 1):
                rec = self.run_epoch(epoch, pool)
                line = self._trace(rec) if trace_fh else None
                if line is not None:
                    trace_fh.write(json.dumps(line, sort_keys=True) + "\n")
                if any(s.status == "failed" for s in self.subs):
                    status = "failed"
                    break
                if ((not self.torn or rec.metric <= self.gauss_tol)
                        and all(s.status == "converged" for s in self.subs)):
                    status = "converged"
                    break
                stop = self._after_epoch(epoch)
                if stop:
                    status = stop
                    break
        wall = time.perf_counter() - t0
        return self._report(status, wall)

    def _report(self, status, wall):
        return build_report([(s.problem, s.state) for s in self.subs], status,
                            mode=self.mode, nets=self.nets,
                            epochs=len(self.epochs),
                            inner_iterations=sum(s.inner_iterations
                                                 for s in self.subs),
                            diagnostics=self._diagnostics(), wall_time=wall)

    def _diagnostics(self) -> dict:
        return {"gauss_metric": self.epochs[-1].metric if self.epochs else 0.0,
                "ext_int_ratio": {s.name: s.problem.n_param / s.problem.nvar
                                  for s in self.subs}}

    # -- diagnostics ----------------------------------------------------------------

    def epoch_map(self) -> np.ndarray:
        """``BA``: the Jacobian of one undamped epoch on the boundary vector.

        Evaluated at the cells' states with the current boundary as their
        parameters.  Each cell contributes the sensitivity of its KKT point
        to its parameters: one :meth:`pdip.NewtonSystem.factor` of the
        cell's condensed KKT matrix at ``delta = 0``, in the pattern and
        column order the cell's Newton steps use, and one solve of that
        factor with a right-hand-side column per parameter (dense copies of
        the ``FixedMatrix`` blocks from ``param_derivatives``), which
        recovers the inequality multipliers' block from ``dx`` as a Newton
        step does.  The derivative of the feeder's head gradient along it
        (the v-price rows) is three ``transpose_times`` plus ``W_pp``, so
        the map does no scipy algebra.
        The sensitivity stays in the cell's own parameter columns; only the
        rows :func:`_exchange` reads are widened to the whole boundary before
        the exchange maps them onto the new boundary values.  The map is
        exact also where head parameters enter rows nonlinearly (head loads,
        head flow limits).  Its cost grows with the number of ports, not
        with the cells' size cubed.
        """
        for sub in self.subs:
            if sub.state is None:
                raise ValueError(f"subproblem '{sub.name}' has no state; "
                                 "the epoch map needs a finished run")
        sens = {}
        for sub in self.subs:
            prob, st = sub.problem, sub.state
            if not prob.n_param:
                continue
            prob.params[:] = self.boundary[sub.cols]
            W_xp, W_pp, Jc_p, Jg_p = prob.param_derivatives(st.x, st.lam, st.mu)
            # implicit-function sensitivity of the cell's KKT point: the Newton
            # system with the boundary parameters' derivatives of its rows
            # (stationarity, equalities, complementarity -mu * g) moved right
            dx, dlam, dmu, _ = pdip.NewtonSystem.build(prob, st).factor()(
                -W_xp.toarray(), -Jc_p.toarray(), st.mu[:, None] * Jg_p.toarray())
            # and the derivative of the parameter gradient of the Lagrangian (the
            # v-price source) along it: d(grad_p L) = G^T d(x, lam, mu) + W_pp dp
            sens[sub.name] = (np.vstack([dx, dlam, dmu]),
                              W_xp.transpose_times(dx) + Jc_p.transpose_times(dlam)
                              + Jg_p.transpose_times(dmu) + W_pp.toarray())

        def wide(sub, rows):
            out = np.zeros((rows.shape[0], self.boundary.size))
            out[:, sub.cols] = rows
            return out

        BA = np.empty((self.boundary.size,) * 2)
        for k, (key, port, t_sub, d_sub) in enumerate(self.torn):
            t, d = self.by_name[t_sub], self.by_name[d_sub]
            St = sens[t_sub][0]
            Sd, dgrad = sens[d_sub]
            hsl = d.problem.param_slots[f"headv:{key}"]
            BA[PORT_DIM * k:PORT_DIM * (k + 1)] = _exchange(
                port, wide(d, Sd[d.problem.maps.port_dvar[key]]),
                wide(t, St[t.problem.maps.poi_v[key]]),
                wide(t, St[t.problem.nvar + np.asarray(t.problem.maps.poi_row[key])]),
                wide(d, dgrad[hsl]))
        return BA

    def spectral_radius(self, damping: float | None = None) -> float:
        """Gauss-Jacobi contraction factor of the linearized exchange.

        The block-Jacobi matrix of the converged system is bipartite: cells
        read only boundary values and the exchange reads only cell states.
        So its spectral radius is ``sqrt(rho(BA))``, ``BA`` being the
        16p x 16p :meth:`epoch_map` of the p torn ports.  With damping
        ``g`` every eigenvalue ``t`` of ``BA`` gives the rates ``l`` solving
        ``l^2 - (1-g) l - g t = 0``.
        ``damping=1`` rates the raw Jacobi iteration; values below one rate
        the relaxed one.  They rate the plain exchange, which the boundary
        takes only where a Newton step is not taken (:meth:`_update`).
        """
        gamma = self.damping if damping is None else damping
        theta = np.linalg.eigvals(self.epoch_map()).astype(complex)
        root = np.sqrt((1.0 - gamma) ** 2 + 4.0 * gamma * theta)
        rates = np.abs(np.concatenate([1.0 - gamma + root, 1.0 - gamma - root]))
        return float(np.max(rates, initial=0.0) / 2.0)


def _diverging(history, factor=10.0, span=3) -> bool:
    """True when the exchange metric grew by `factor` over `span` epochs, thrice."""
    if len(history) < span + 3:
        return False
    return all(history[-i] > factor * history[-i - span] for i in (1, 2, 3))


def spectral_radius_split(Y, blocks) -> float:
    """rho(M^-1 N) for the block-Jacobi splitting M (diagonal blocks), N = M - Y."""
    Y = np.asarray(Y, dtype=float)
    M = np.zeros_like(Y)
    for idx in blocks:
        idx = np.asarray(idx, dtype=int)
        M[np.ix_(idx, idx)] = Y[np.ix_(idx, idx)]
    T = np.linalg.solve(M, M - Y)
    return float(np.max(np.abs(np.linalg.eigvals(T))))


def run(nets, couplings, partition=None, *, source_kind="current", norm="l2",
        q_only=False, opts=None, gauss_tol=1e-6, max_epochs=200, damping=1.0,
        workers=1, trace_path=None):
    """One-call distributed solve; see :class:`Coordinator`."""
    return Coordinator(nets, couplings, partition, source_kind=source_kind,
                       norm=norm, q_only=q_only, opts=opts, gauss_tol=gauss_tol,
                       max_epochs=max_epochs, damping=damping, workers=workers,
                       trace_path=trace_path).run()


def compare_modes(nets, couplings, partition=None, *, source_kind="current",
                  norm="l2", q_only=False, opts=None, gauss_tol=1e-6,
                  admm_tol=1e-6, max_epochs=200, workers=1):
    """Run centralized, distributed and consensus baselines side by side.

    Returns a list of row dicts in the comparison-table layout; per-mode
    failures are reported as '—' entries rather than raised.
    """
    from . import admm as admm_mod
    rows = []
    t0 = time.perf_counter()
    central = pdip.solve_centralized(nets, couplings, source_kind=source_kind,
                                     norm=norm, q_only=q_only, opts=opts)
    rows.append(_mode_row("C-PDIP", central, central.inner_iterations))
    dist = run(nets, couplings, partition, source_kind=source_kind, norm=norm,
               q_only=q_only, opts=opts, gauss_tol=gauss_tol,
               max_epochs=max_epochs, workers=workers)
    rows.append(_mode_row("D-PDIP", dist, dist.epochs))
    adm = admm_mod.admm_solve(nets, couplings, partition,
                              source_kind=source_kind, norm=norm,
                              q_only=q_only, opts=opts, tol=admm_tol,
                              workers=workers)
    rows.append(_mode_row("ADMM", adm, adm.epochs))
    log.info("compare_modes finished in %.2fs", time.perf_counter() - t0)
    return rows


def _mode_row(name, rep, iters):
    ok = rep.converged
    return {"algorithm": name,
            "objective": rep.objective if ok else None,
            "iterations": iters if ok else None,
            "time_s": rep.wall_time,
            "status": rep.status}


def format_comparison(rows, case_name="case") -> str:
    out = [f"{'Algorithm':10s} {'Network':18s} {'OF (p.u)':>12s} {'Iter.':>6s} "
           f"{'Time(s)':>8s}"]
    for r in rows:
        of = "—" if r["objective"] is None else f"{r['objective']:.6f}"
        it = "—" if r["iterations"] is None else str(r["iterations"])
        out.append(f"{r['algorithm']:10s} {case_name:18s} {of:>12s} {it:>6s} "
                   f"{r['time_s']:8.2f}")
    return "\n".join(out)
