"""Distributed Gauss-Jacobi-Newton coordinator.

Each epoch solves every subproblem's perturbed KKT system in parallel with
its boundary values frozen, then performs one Jacobi exchange across the
coupling ports: distribution port currents aggregate into transmission-side
draws, the transmission POI voltage distributes onto feeder heads, and the
POI balance duals distribute into distribution-side port-current prices.
The exchange reads only the epoch's finished snapshots, so the trajectory
is identical for any worker count.

The payload that crosses subproblem boundaries is restricted to per-port
boundary primal/dual values; internal states never leave their owner.
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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import pdip
from .coupling import (_AGG, _DIST, CouplingPort, aggregate_current_d_to_t,
                       distribute_voltage_t_to_d, port_dual_prices)
from .ecf import build_problem, partition_cells
from .netmodel import Network, Partition, default_partition
from .report import build_report

log = logging.getLogger("gridweld.gjn")


@dataclass
class Subproblem:
    """One partition cell with its own problem, state and boundary ports."""
    name: str
    nets: list[Network]
    problem: object
    ports_t: list[CouplingPort]       # this cell owns the transmission side
    ports_d: list[CouplingPort]       # this cell owns the distribution side
    state: pdip.KktState | None = None
    status: str = "pending"
    inner_iterations: int = 0

    @property
    def external_dim(self) -> int:
        """Boundary values the cell reads: its exchange parameters."""
        return self.problem.n_param

    @property
    def internal_dim(self) -> int:
        return self.problem.nvar


@dataclass
class BoundaryState:
    """Exchange values for one coupling port (the only shared payload).

    ``draw`` and ``head_v`` are the primal exchange; ``price`` carries the
    transmission balance duals into the feeder's port-current rows, and
    ``v_price`` carries the feeder's marginal head-voltage sensitivity back
    into the POI voltage rows, so the union of cell conditions matches the
    combined first-order system at the fixed point.
    """
    draw: np.ndarray          # (2,) positive-sequence draw at the POI
    head_v: np.ndarray        # (6,) feeder-head phase voltages
    price: np.ndarray         # (6,) port-current prices (distribution duals)
    v_price: np.ndarray       # (2,) POI-voltage price (feeder sensitivity)
    t_voltage: np.ndarray = field(default_factory=lambda: np.zeros(2))
    t_dual: np.ndarray = field(default_factory=lambda: np.zeros(2))
    d_current: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.draw, self.head_v, self.price, self.v_price])

    def payload(self, key: str) -> dict:
        return {"port": key,
                "draw": self.draw.tolist(),
                "head_voltage": self.head_v.tolist(),
                "price": self.price.tolist(),
                "v_price": self.v_price.tolist(),
                "t_voltage": self.t_voltage.tolist(),
                "t_dual": self.t_dual.tolist(),
                "d_current": self.d_current.tolist()}


@dataclass
class EpochRecord:
    epoch: int
    metric: float
    boundary_after: dict[str, list]
    inner: dict[str, tuple[str, int]]


def _initial_boundary(port: CouplingPort) -> BoundaryState:
    return BoundaryState(draw=np.zeros(2),
                         head_v=distribute_voltage_t_to_d(port, 1.0, 0.0),
                         price=np.zeros(6), v_price=np.zeros(2))


def build_subproblems(nets, couplings, partition: Partition, *, source_kind,
                      norm, q_only=False):
    """Instantiate per-cell problems plus the port list torn by the partition."""
    cells, torn = partition_cells(nets, couplings, partition, "t_draw", "d_head")
    subs = [Subproblem(name=cell.name, nets=cell.nets,
                       problem=build_problem(cell.nets, cell.port_builds,
                                             source_kind=source_kind,
                                             norm=norm, q_only=q_only),
                       ports_t=cell.ports_t, ports_d=cell.ports_d)
            for cell in cells]
    for sub in subs:
        if sub.external_dim and sub.external_dim > 0.2 * sub.internal_dim:
            warnings.warn(f"subproblem '{sub.name}': boundary dimension "
                          f"{sub.external_dim} exceeds 20% of internal "
                          f"dimension {sub.internal_dim}")
    return subs, torn


def gauss_boundary_update(torn, boundary, subs_by_name, damping=1.0):
    """Pure-Jacobi exchange: new boundary values from epoch-end snapshots.

    Reads only the finished subproblem states, so the result is independent
    of solve completion order.  Returns (new_boundary, metric).
    """
    new = {}
    metric = 0.0
    for key, port, t_sub, d_sub in torn:
        old = boundary[key]
        tsub = subs_by_name[t_sub]
        dsub = subs_by_name[d_sub]
        v_t = tsub.state.x[tsub.problem.maps.poi_v[key]]
        lam_t = tsub.state.lam[tsub.problem.maps.poi_row[key]]
        i_d = dsub.state.x[np.array(dsub.problem.maps.port_dvar[key])]
        head_sens = dsub.problem.param_lagrangian_grad(
            dsub.state.x, dsub.state.lam, dsub.state.mu, f"headv:{key}")
        bs = BoundaryState(
            draw=np.asarray(aggregate_current_d_to_t(port, i_d)),
            head_v=distribute_voltage_t_to_d(port, v_t[0], v_t[1]),
            price=port_dual_prices(port, lam_t[0], lam_t[1]),
            v_price=_AGG @ head_sens,
            t_voltage=v_t, t_dual=lam_t, d_current=np.asarray(i_d))
        if damping != 1.0:
            for attr in ("draw", "head_v", "price", "v_price"):
                setattr(bs, attr, (1 - damping) * getattr(old, attr)
                        + damping * getattr(bs, attr))
        metric = max(metric, float(np.max(np.abs(bs.stacked() - old.stacked()),
                                          initial=0.0)))
        new[key] = bs
    return new, metric


class Coordinator:
    """Owns the epoch loop; subproblem solves may run on worker threads."""

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
        self.subs, self.torn = build_subproblems(
            self.nets, self.couplings, self.partition, source_kind=source_kind,
            norm=norm, q_only=q_only)
        self.by_name = {s.name: s for s in self.subs}
        self.boundary = {key: _initial_boundary(port)
                         for key, port, _, _ in self.torn}
        self.epochs: list[EpochRecord] = []

    # -- one epoch ------------------------------------------------------------

    def _external_of(self, sub: Subproblem) -> dict:
        ext = {}
        for port in sub.ports_t:
            ext[f"draw:{port.key}"] = self.boundary[port.key].draw
            ext[f"vprice:{port.key}"] = self.boundary[port.key].v_price
        for port in sub.ports_d:
            ext[f"headv:{port.key}"] = self.boundary[port.key].head_v
            ext[f"price:{port.key}"] = self.boundary[port.key].price
        return ext

    def _solve_one(self, sub: Subproblem):
        state, status, used = pdip.solve_warm_or_cold(
            lambda warm: pdip.solve_subproblem(
                sub.problem, self._external_of(sub), self.opts, warm=warm,
                capped=bool(self.torn)),
            sub.state, f"subproblem '{sub.name}'")
        return sub.name, state, status, used

    def run_epoch(self, epoch: int, pool=None) -> EpochRecord:
        """One epoch; with ``pool`` (an executor) the cells solve on it."""
        if pool is None:
            results = [self._solve_one(s) for s in self.subs]
        else:
            results = list(pool.map(self._solve_one, self.subs))
        inner = {}
        for name, state, status, used in sorted(results, key=lambda r: r[0]):
            sub = self.by_name[name]
            if state is not None:
                sub.state = state
            sub.status = status
            sub.inner_iterations += used
            inner[name] = (status, used)
        if all(sub.state is not None for sub in self.subs):
            new_boundary, metric = gauss_boundary_update(
                self.torn, self.boundary, self.by_name, self.damping)
            self.boundary = new_boundary
        else:
            metric = float("nan")
        rec = EpochRecord(epoch=epoch, metric=metric,
                          boundary_after={k: b.stacked().tolist()
                                          for k, b in self.boundary.items()},
                          inner=inner)
        self.epochs.append(rec)
        return rec

    # -- full run ----------------------------------------------------------------

    def run(self):
        t0 = time.perf_counter()
        status = "epoch-budget-exhausted"
        with contextlib.ExitStack() as stack:
            trace_fh = (stack.enter_context(open(self.trace_path, "w"))
                        if self.trace_path else None)
            pool = (stack.enter_context(ThreadPoolExecutor(self.workers))
                    if self.workers > 1 and len(self.subs) > 1 else None)
            for epoch in range(1, self.max_epochs + 1):
                rec = self.run_epoch(epoch, pool)
                if trace_fh:
                    trace_fh.write(json.dumps(
                        {"type": "epoch", "epoch": epoch, "metric": rec.metric,
                         "inner": {k: {"status": v[0], "iterations": v[1]}
                                   for k, v in rec.inner.items()},
                         "ports": {k: self.boundary[k].payload(k)
                                   for k in sorted(self.boundary)}},
                        sort_keys=True) + "\n")
                all_inner = all(s.status == "converged" for s in self.subs)
                if any(s.status == "failed" for s in self.subs):
                    status = "failed"
                    break
                if (not self.torn or rec.metric <= self.gauss_tol) and all_inner:
                    status = "converged"
                    break
                if _diverging([r.metric for r in self.epochs]):
                    log.error("boundary exchange diverging; stopping")
                    status = "diverged"
                    break
        wall = time.perf_counter() - t0
        return self._report(status, wall)

    def _report(self, status, wall):
        diagnostics = {
            "gauss_metric": self.epochs[-1].metric if self.epochs else 0.0,
            "ext_int_ratio": {s.name: (s.external_dim / s.internal_dim)
                              for s in self.subs},
        }
        return build_report([(s.problem, s.state) for s in self.subs], status,
                            mode="dpdip", nets=self.nets,
                            epochs=len(self.epochs),
                            inner_iterations=sum(s.inner_iterations
                                                 for s in self.subs),
                            diagnostics=diagnostics, wall_time=wall)

    # -- diagnostics ----------------------------------------------------------------

    def spectral_radius(self, damping: float | None = None) -> float:
        """Gauss-Jacobi contraction factor of the linearized exchange.

        The block-Jacobi matrix of the converged system is bipartite: cells
        read only boundary values and the exchange reads only cell states.
        So its spectral radius is ``sqrt(rho(BA))``, where ``BA`` is the
        16p x 16p linearized epoch map on the stacked boundary values of the
        p torn ports.  Each cell contributes the sensitivity of its KKT point
        to its boundary parameters (one sparse factorization of its KKT
        matrix, one solve per parameter, with every parameter block from
        ``param_derivatives``); the exchange maps those onto the new
        boundary values.  The map is exact also where head parameters enter
        rows nonlinearly (head loads, head flow limits).  With damping
        ``g`` every eigenvalue ``t`` of ``BA`` gives the rates ``l`` solving
        ``l^2 - (1-g) l - g t = 0``.
        ``damping=1`` (the default exchange) rates the raw iteration; values
        below one rate the relaxed update actually configured.  The cost
        grows with the number of ports, not with the cells' size cubed.
        """
        for sub in self.subs:
            if sub.state is None:
                raise ValueError(f"subproblem '{sub.name}' has no state; "
                                 "spectral_radius needs a finished run")
        gamma = self.damping if damping is None else damping
        at = {key: 16 * k for k, (key, _, _, _) in enumerate(self.torn)}
        first = {"draw": 0, "headv": 2, "price": 8, "vprice": 14}
        BA = np.zeros((16 * len(self.torn),) * 2)
        sens = {}
        for sub in self.subs:
            prob = sub.problem
            if not prob.n_param:
                continue
            for name, values in self._external_of(sub).items():
                prob.set_params(name, values)
            st = sub.state
            K = pdip.NewtonSystem.build(prob, st).matrix(0.0)
            W_xp, W_pp, Jc_p, Jg_p = prob.param_derivatives(st.x, st.lam, st.mu)
            # boundary parameters into the linearized KKT rows: stationarity,
            # equalities and complementarity (-mu * g)
            C = sp.vstack([W_xp, Jc_p, -sp.diags(st.mu) @ Jg_p]).toarray()
            cols = np.empty(prob.n_param, dtype=int)
            for name, sl in prob.param_slots.items():
                kind, key = name.split(":", 1)
                cols[sl] = at[key] + first[kind] + np.arange(sl.stop - sl.start)
            # implicit-function sensitivity of the cell's KKT point, and the
            # derivative of the parameter gradient of the Lagrangian (the
            # v-price source) along it: d(grad_p L) = G^T d(x, lam, mu) + W_pp dp
            G = sp.vstack([W_xp, Jc_p, Jg_p]).tocsc()
            sens[sub.name] = (-spla.splu(K).solve(C), cols, prob, G, W_pp)
        for key, port, t_sub, d_sub in self.torn:
            yo, k3 = at[key], 3.0 * port.kappa
            St, tcols, tprob, _, _ = sens[t_sub]
            Sd, dcols, dprob, Gd, Wd = sens[d_sub]
            lam_t = St[tprob.nvar + np.asarray(tprob.maps.poi_row[key])]
            BA[yo:yo + 2, dcols] = _AGG @ Sd[dprob.maps.port_dvar[key]] / k3
            BA[yo + 2:yo + 8, tcols] = _DIST @ St[tprob.maps.poi_v[key]]
            BA[yo + 8:yo + 14, tcols] = _AGG.T @ lam_t / k3
            hsl = dprob.param_slots[f"headv:{key}"]
            BA[yo + 14:yo + 16, dcols] = _AGG @ (Gd[:, hsl].T @ Sd + Wd[hsl].toarray())
        theta = np.linalg.eigvals(BA).astype(complex)
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
