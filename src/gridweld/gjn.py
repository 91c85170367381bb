"""Distributed Gauss-Jacobi-Newton coordinator.

Each epoch solves every subproblem's perturbed KKT system in parallel with
its boundary values frozen (Gauss-Jacobi), then evaluates the exchange
across the coupling ports: distribution port currents aggregate into
transmission-side draws, the transmission POI voltage distributes onto
feeder heads, and the POI balance duals distribute into distribution-side
port-current prices.  The boundary then takes a Newton step on the fixed
point of that exchange, ``b + (I - BA)^-1 (F(b) - b)`` with ``BA`` the
:meth:`Coordinator.epoch_map`, once every cell converged and the exchange
metric did not grow but has not met the tolerance; otherwise it takes the
plain exchange, relaxed by ``damping``.  So the boundary converges in a few
epochs also where the plain exchange is slow or not a contraction.
Everything reads only the epoch's finished snapshots, so the trajectory is
identical for any worker count.

Only per-port boundary values cross between cells; internal states never
leave their owner, a :class:`Subproblem`, which hands over its
:meth:`~Subproblem.readings` or their :meth:`~Subproblem.sensitivity`.  The
boundary vector holds 16 values per torn port (``PORT_LAYOUT``); each cell
reads its parameters from it through its ``cols``, and :func:`_exchange`
writes a port's values from what its two cells hand over.
"""

from __future__ import annotations

import contextlib
import json
import logging
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import pdip
from .coupling import (aggregate_current_d_to_t, distribute_voltage_t_to_d,
                       poi_voltage_price, port_dual_prices)
from .ecf import build_problem, port_builds
from .netmodel import Partition, default_partition
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
    """One partition cell as built: its problem, the torn ports it holds a
    side of and its run state, which only the cell reads; ``cols`` is the
    boundary-vector index of each of its exchange parameters."""
    name: str
    problem: object
    cols: np.ndarray
    ports: list
    state: pdip.KktState | None = None

    def _read(self, z, grad_p) -> dict:
        """Per port key, the blocks of the stacked point ``z = (x, lam, mu)``
        and of the Lagrangian's parameter gradient ``grad_p``, as values or
        as rows, that cross it: the POI voltage and balance duals on the
        transmission side, the port currents and head gradient on the
        distribution side."""
        prob, maps = self.problem, self.problem.maps
        return {p.key: (z[maps.poi_v[p.key]], z[prob.nvar + np.asarray(maps.poi_row[p.key])])
                if p.t_cell == self.name else
                (z[maps.port_dvar[p.key]], grad_p[prob.param_slots[f"headv:{p.key}"]])
                for p in self.ports}

    def readings(self) -> dict:
        """Per torn port, what :func:`_exchange` reads of this cell's state;
        only a cell that holds a feeder head evaluates the gradient."""
        st = self.state
        return self._read(np.concatenate([st.x, st.lam, st.mu]),
                          self.problem.param_lagrangian_grad(st.x, st.lam, st.mu)
                          if any(p.d_cell == self.name for p in self.ports) else None)

    def sensitivity(self, boundary) -> dict:
        """The entries of :meth:`readings` as rows along ``boundary``: their
        derivatives in the boundary values, with ``boundary`` loaded.

        One :meth:`pdip.NewtonSystem.factor` of the cell's condensed KKT
        matrix at ``delta = 0`` (the pattern its Newton steps use) and one
        solve with a column per parameter give its KKT point's sensitivity,
        exact also where head parameters enter rows nonlinearly; the head
        gradient's follows by ``transpose_times``, with no scipy algebra,
        and only the port entries are widened to the boundary's columns.
        """
        prob, st = self.problem, self.state
        if st is None:
            raise ValueError(f"subproblem '{self.name}' has no state; "
                             "the epoch map needs a finished run")
        if not self.ports:
            return {}
        prob.params[:] = boundary[self.cols]
        W_xp, W_pp, Jc_p, Jg_p = prob.param_derivatives(st.x, st.lam, st.mu)
        # the Newton system with the parameters' derivatives of its rows
        # (stationarity, equalities, complementarity -mu * g) moved right
        dx, dlam, dmu, _ = pdip.NewtonSystem.build(prob, st).factor()(
            -W_xp.toarray(), -Jc_p.toarray(), st.mu[:, None] * Jg_p.toarray())
        # d(grad_p L) = G^T d(x, lam, mu) + W_pp dp
        dgrad = (W_xp.transpose_times(dx) + Jc_p.transpose_times(dlam)
                 + Jg_p.transpose_times(dmu) + W_pp.toarray())

        def wide(rows):
            out = np.zeros((rows.shape[0], boundary.size))
            out[:, self.cols] = rows
            return out
        return {key: (wide(a), wide(b)) for key, (a, b)
                in self._read(np.vstack([dx, dlam, dmu]), dgrad).items()}


@dataclass
class EpochRecord:
    epoch: int
    metric: float
    # cell -> {"status", "iterations", "delta_steps", "cold_restart",
    # "recentered"} of its solve (see Coordinator._solve_one)
    inner: dict[str, dict]
    step: str | None = None      # "newton" or "plain"; None without an update


def build_subproblems(partition: Partition, *, source_kind, norm, q_only=False):
    """One built cell per partition cell, its torn ports in 't_draw' and
    'd_head' mode."""
    at = {p.key: PORT_DIM * k for k, p in enumerate(partition.torn)}
    subs = []
    for cell in partition.cells:
        prob = build_problem(cell.networks, port_builds(cell, "t_draw", "d_head"),
                             source_kind=source_kind, norm=norm, q_only=q_only)
        cols = np.empty(prob.n_param, dtype=int)
        for name, sl in prob.param_slots.items():
            kind, key = name.split(":", 1)
            cols[sl] = at[key] + PORT_LAYOUT[kind] + np.arange(sl.stop - sl.start)
        if prob.n_param > 0.2 * prob.nvar:
            warnings.warn(f"subproblem '{cell.name}': boundary dimension "
                          f"{prob.n_param} exceeds 20% of internal "
                          f"dimension {prob.nvar}")
        subs.append(Subproblem(cell.name, prob, cols, [p for p in cell.ports if p.torn]))
    return subs


def _exchange(spec, v_t, lam_t, i_d, head):
    """A torn port's PORT_DIM new boundary values from what its two cells
    hand over (:meth:`Subproblem.readings`): the feeder's port currents
    aggregate into the draw, the POI voltage distributes onto the head, the
    POI duals become the port-current prices and the head gradient the POI
    voltage price.  The map is linear: given sensitivity rows (2-D, a column
    per boundary value) instead of values, it returns the rows of the
    linearized exchange."""
    return np.concatenate([aggregate_current_d_to_t(spec, i_d),
                           distribute_voltage_t_to_d(spec, *v_t),
                           port_dual_prices(spec, *lam_t),
                           poi_voltage_price(spec, head)])


def _exchanged(torn, read, shape):
    """Every torn port's exchange, stacked in port order into ``shape``, from
    the cells' per-port readings or sensitivity rows ``read[cell][key]``."""
    return np.reshape([_exchange(p.spec, *read[p.t_cell][p.key], *read[p.d_cell][p.key])
                       for p in torn], shape)


def gauss_boundary_update(torn, boundary, subs_by_name, damping=1.0):
    """Pure-Jacobi exchange: the new boundary vector from epoch-end snapshots.

    Reads only the finished cells' :meth:`Subproblem.readings`, so the
    result is independent of solve completion order.  Returns
    ``(new_boundary, metric, read)``, ``read`` giving each cell's readings.
    """
    read = {name: sub.readings() for name, sub in subs_by_name.items()}
    new = _exchanged(torn, read, boundary.shape)
    if damping != 1.0:
        new = (1 - damping) * boundary + damping * new
    return new, float(np.max(np.abs(new - boundary), initial=0.0)), read


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
        self.partition = partition or default_partition(self.nets, couplings)
        self.opts = opts or pdip.SolverOptions()
        self.gauss_tol = gauss_tol
        self.max_epochs = max_epochs
        self.damping = damping
        self.workers = max(1, workers)
        self.trace_path = trace_path
        self.torn = self.partition.torn
        self.subs, self.boundary = self._cells(source_kind, norm, q_only)
        self.by_name = {s.name: s for s in self.subs}
        self.read: dict = {}        # the cells' readings at the last exchange
        self.epochs: list[EpochRecord] = []

    def _cells(self, source_kind, norm, q_only):
        """The built cells and the flat-start boundary: zero draws and
        prices, balanced 1 pu head voltages."""
        subs = build_subproblems(self.partition, source_kind=source_kind,
                                 norm=norm, q_only=q_only)
        boundary = np.zeros(PORT_DIM * len(self.torn))
        for k, port in enumerate(self.torn):
            head = PORT_DIM * k + PORT_LAYOUT["headv"]
            boundary[head:head + 6] = distribute_voltage_t_to_d(port.spec, 1.0, 0.0)
        return subs, boundary

    def payload(self, key: str) -> dict:
        """What crossed torn port ``key`` in the last exchange (the readings
        are zeros before the first)."""
        k = [p.key for p in self.torn].index(key)
        t, d = self.torn[k].t_cell, self.torn[k].d_cell
        mine = self.boundary[PORT_DIM * k:PORT_DIM * (k + 1)]
        draw, head_v, price, v_price = np.split(mine, list(PORT_LAYOUT.values())[1:])
        t_voltage, t_dual, d_current = np.split(
            np.concatenate([*self.read[t][key], self.read[d][key][0]])
            if self.read else np.zeros(10), [2, 4])
        return {"port": key, "draw": draw.tolist(),
                "head_voltage": head_v.tolist(), "price": price.tolist(),
                "v_price": v_price.tolist(), "t_voltage": t_voltage.tolist(),
                "t_dual": t_dual.tolist(), "d_current": d_current.tolist()}

    # -- one epoch ------------------------------------------------------------

    def _load(self, sub: Subproblem):
        """Set what ``sub`` reads before its solve: its boundary parameters."""
        sub.problem.params[:] = self.boundary[sub.cols]

    def _solve_one(self, sub: Subproblem) -> dict:
        """Solve a cell warm, restarted cold (from ``x0``) once if that
        fails, and keep its new state on ``sub``; a :class:`pdip.SolveFailure`
        reads as status 'failed' and keeps the previous state.  Returns the
        cell's entry of the epoch record: the status, the Newton steps of
        the last attempt, its accepted steps with ``delta != 0``, whether it
        was a cold restart and its re-centerings (within a solve ``eps``
        rises only by one)."""
        self._load(sub)
        label = f"subproblem '{sub.name}'"
        for warm in (sub.state, None):
            # solve_nlp advances a warm state's step count in place
            start = warm.iterations if warm is not None else 0
            steps = []
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
        cold_restart = warm is None and sub.state is not None
        if state is not None:
            sub.state = state
        return {"status": status,
                "iterations": state.iterations - start if state is not None else 0,
                "delta_steps": sum(r.delta != 0.0 for r in steps),
                "cold_restart": cold_restart,
                "recentered": sum(b.eps > a.eps for a, b in zip(steps, steps[1:]))}

    def run_epoch(self, epoch: int, pool=None) -> EpochRecord:
        """One epoch; with ``pool`` (an executor) the cells solve on it, each
        thread writing only its own cell."""
        solves = (pool.map if pool else map)(self._solve_one, self.subs)
        inner = dict(zip([s.name for s in self.subs], solves))
        metric, step = (self._update(inner) if all(s.state is not None for s in self.subs)
                        else (float("nan"), None))
        rec = EpochRecord(epoch=epoch, metric=metric, inner=inner, step=step)
        self.epochs.append(rec)
        return rec

    def _update(self, inner) -> tuple[float, str]:
        """The boundary update on the cells' readings and their epoch entries
        ``inner``; returns the exchange metric and the kind of step taken.

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
        new, metric, self.read = gauss_boundary_update(
            self.torn, self.boundary, self.by_name, self.damping)
        step = "plain"
        last = self.epochs[-1].metric if self.epochs else np.inf
        if (self.gauss_tol < metric <= last
                and all(c["status"] == "converged" for c in inner.values())):
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
                "step": rec.step, "last_metric": last, "inner": rec.inner,
                "ports": {p.key: self.payload(p.key) for p in self.torn}}

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
                if any(c["status"] == "failed" for c in rec.inner.values()):
                    status = "failed"
                    break
                if ((not self.torn or rec.metric <= self.gauss_tol)
                        and all(c["status"] == "converged" for c in rec.inner.values())):
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
                            inner_iterations=sum(c["iterations"]
                                                 for r in self.epochs
                                                 for c in r.inner.values()),
                            diagnostics=self._diagnostics(), wall_time=wall)

    def _diagnostics(self) -> dict:
        return {"gauss_metric": self.epochs[-1].metric if self.epochs else 0.0,
                "ext_int_ratio": {s.name: s.problem.n_param / s.problem.nvar
                                  for s in self.subs}}

    # -- diagnostics ----------------------------------------------------------------

    def epoch_map(self) -> np.ndarray:
        """``BA``: the Jacobian of one undamped epoch on the boundary vector.

        Evaluated at the cells' states with the current boundary as their
        parameters: each cell's :meth:`Subproblem.sensitivity` gives the
        rows of what it hands over, and :func:`_exchange` maps them onto the
        new boundary values as it maps the readings.  Its cost grows with
        the number of ports, not with the cells' size cubed.
        """
        rows = {sub.name: sub.sensitivity(self.boundary) for sub in self.subs}
        return _exchanged(self.torn, rows, (self.boundary.size,) * 2)

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
        q_only=False, opts=None, gauss_tol=1e-6, max_epochs=200, workers=1,
        trace_path=None):
    """One-call distributed solve; see :class:`Coordinator`."""
    return Coordinator(nets, couplings, partition, source_kind=source_kind,
                       norm=norm, q_only=q_only, opts=opts, gauss_tol=gauss_tol,
                       max_epochs=max_epochs, workers=workers,
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
