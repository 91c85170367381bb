"""Consensus ADMM baseline over the coupling-port boundary.

Each torn port gets one consensus variable in the transmission-side
positive-sequence representation: a voltage pair and a current pair.  Both
local copies are ordinary variables of the cell problems.  The transmission
cell's copy is its POI voltage and a free port-current pair (a 't_free'
port); the distribution cell's copy is a local positive-sequence head
phasor, tied to the head voltages by the balanced-expansion rows of a
'd_phasor' port, and the aggregated port current.  x-updates solve each
cell's NLP with the scaled quadratic penalty through the interior-point
core; the z-update is the plain consensus average and the dual update is
first order, with residual-balancing adaptation of the penalty weight.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from . import pdip
from .coupling import _AGG
from .ecf import build_problem, partition_cells
from .netmodel import default_partition
from .report import build_report


@dataclass
class AdmmState:
    rho: float
    z: dict[str, np.ndarray]                      # port key -> (4,)
    u: dict[tuple[str, str], np.ndarray]          # (agent, key) -> (4,)
    primal_residual: float = np.inf
    dual_residual: float = np.inf
    history: list = field(default_factory=list)   # (r, s, rho) per iteration


class ConsensusAgent:
    """One cell's problem plus the scaled consensus penalty on its copies.

    The cell builds its torn feeder heads as 'd_phasor' ports and its torn
    transmission sides as 't_free' ports, so every local copy is a set of
    ordinary variables: ``head_ports`` copy the head phasor and the
    aggregated port current, ``free_ports`` the POI voltage and the free
    port current.  The agent adds the penalty to the objective and its
    derivatives; every other value is the cell problem's own.
    """

    def __init__(self, name, base, head_ports, free_ports):
        self.name = name
        self.base = base
        self.copy_map: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.rho = 1.0
        maps = base.maps
        for port in head_ports:
            # a head voltage that enters a row nonlinearly (a load, a flow
            # limit or a power- or admittance-kind source at the coupling
            # node) is rejected: without this check, L2 ADMM on
            # case_micro_flowcap had not finished after 10 minutes
            head = [c for (_, bus, _), slot in maps.v_slot.items()
                    if bus == port.spec.d_bus for c in slot]
            if np.isin(head, base.nonlinear_cols).any():
                raise ValueError("feeder-head nonlinearities (loads, flow "
                                 "limits or sources at the coupling node) "
                                 "are not supported in consensus mode")
            self.copy_map[port.key] = (
                np.concatenate([maps.poi_v[port.key], maps.port_dvar[port.key]]),
                block_diag(np.eye(2), _AGG / (3.0 * port.kappa)))
        for port in free_ports:
            self.copy_map[port.key] = (
                np.concatenate([maps.poi_v[port.key], maps.port_tvar[port.key]]),
                np.eye(4))
        self.centers = {key: np.array([1.0, 0.0, 0.0, 0.0]) for key in self.copy_map}
        # penalty Hessian pattern: constant, so built once; only rho scales it
        blocks = list(self.copy_map.values())
        self._pen_rows = [np.repeat(idx, len(idx)) for idx, _ in blocks]
        self._pen_cols = [np.tile(idx, len(idx)) for idx, _ in blocks]
        self._pen_blocks = [(C.T @ C).ravel() for _, C in blocks]

    def __getattr__(self, name):
        """Sizes, sources, x0, residuals, Jacobians: the cell problem's."""
        return getattr(self.base, name)

    def objective(self, x):
        f = self.base.objective(x)
        for key, (cols, C) in self.copy_map.items():
            d = C @ x[cols] - self.centers[key]
            f += 0.5 * self.rho * float(d @ d)
        return f

    def grad_objective(self, x):
        g = self.base.grad_objective(x)
        for key, (cols, C) in self.copy_map.items():
            d = C @ x[cols] - self.centers[key]
            np.add.at(g, cols, self.rho * (C.T @ d))
        return g

    def hess_lagrangian(self, x, lam, mu):
        W = sp.coo_matrix(self.base.hess_lagrangian(x, lam, mu))
        v = [W.data] + [self.rho * blk for blk in self._pen_blocks]
        return sp.csr_matrix((np.concatenate(v),
                              (np.concatenate([W.row] + self._pen_rows),
                               np.concatenate([W.col] + self._pen_cols))),
                             shape=(self.nvar, self.nvar))

    def local_copy(self, x, key):
        cols, C = self.copy_map[key]
        return C @ x[cols]


def build_agents(nets, couplings, partition, *, source_kind, norm, q_only):
    cells, torn = partition_cells(nets, couplings, partition, "t_free", "d_phasor")
    agents = [ConsensusAgent(cell.name,
                             build_problem(cell.nets, cell.port_builds,
                                           source_kind=source_kind, norm=norm,
                                           q_only=q_only),
                             cell.ports_d, cell.ports_t)
              for cell in cells]
    return agents, [(key, t_cell, d_cell) for key, _, t_cell, d_cell in torn]


def admm_solve(nets, couplings, partition=None, *, source_kind="current",
               norm="l2", q_only=False, opts=None, rho=10.0, tol=1e-6,
               max_iterations=2000, adapt=True, workers=1, trace_path=None):
    """Consensus ADMM run; returns a report in the common layout.

    With a single subproblem this reduces to the centralized solve in one
    outer iteration.  A run that exhausts the budget reports status
    'budget-exhausted' (rendered as an em-dash in comparison tables).
    """
    import json
    nets = list(nets)
    partition = partition or default_partition(nets, couplings)
    opts = opts or pdip.SolverOptions()
    agents, torn = build_agents(nets, couplings, partition,
                                source_kind=source_kind, norm=norm,
                                q_only=q_only)
    by_name = {a.name: a for a in agents}
    adm = AdmmState(rho=rho,
                    z={key: np.array([1.0, 0.0, 0.0, 0.0]) for key, _, _ in torn},
                    u={(a, key): np.zeros(4) for key, t, d in torn
                       for a in (t, d)})
    states: dict[str, pdip.KktState | None] = {a.name: None for a in agents}
    statuses = {a.name: "pending" for a in agents}
    participating = {a.name: [key for key, t, d in torn if a.name in (t, d)]
                     for a in agents}
    budget = opts.inner_cap if torn else None

    def x_update(agent):
        for key in participating[agent.name]:
            agent.centers[key] = adm.z[key] - adm.u[(agent.name, key)]
        agent.rho = adm.rho
        state, status, _ = pdip.solve_warm_or_cold(
            lambda warm: pdip.solve_nlp(agent, opts, warm=warm,
                                        newton_budget=budget),
            states[agent.name], f"agent '{agent.name}'")
        return agent.name, state, status

    status = "budget-exhausted"
    iters = 0
    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        trace_fh = (stack.enter_context(open(trace_path, "w"))
                    if trace_path else None)
        pool = (stack.enter_context(ThreadPoolExecutor(workers))
                if workers > 1 and len(agents) > 1 else None)
        for it in range(1, max_iterations + 1):
            iters = it
            results = (list(pool.map(x_update, agents)) if pool
                       else [x_update(a) for a in agents])
            for name, state, st in results:
                statuses[name] = st
                if state is not None:
                    states[name] = state
            if any(state is None for _, state, _ in results):
                status = "failed"
                break
            if not torn:
                status = ("converged"
                          if all(s == "converged" for s in statuses.values())
                          else "failed")
                break
            copies = {(a.name, key): a.local_copy(states[a.name].x, key)
                      for a in agents for key in participating[a.name]}
            z_old = {k: v.copy() for k, v in adm.z.items()}
            for key, t_sub, d_sub in torn:
                adm.z[key] = 0.5 * (
                    copies[(t_sub, key)] + adm.u[(t_sub, key)]
                    + copies[(d_sub, key)] + adm.u[(d_sub, key)])
            r = 0.0
            for (name, key), y in copies.items():
                adm.u[(name, key)] += y - adm.z[key]
                r = max(r, float(np.max(np.abs(y - adm.z[key]))))
            s = adm.rho * max(float(np.max(np.abs(adm.z[k] - z_old[k])))
                              for k in adm.z)
            adm.primal_residual, adm.dual_residual = r, s
            adm.history.append((r, s, adm.rho))
            if trace_fh:
                trace_fh.write(json.dumps(
                    {"type": "admm", "iteration": it, "r": r, "s": s,
                     "rho": adm.rho}, sort_keys=True) + "\n")
            if max(r, s) <= tol and all(st == "converged"
                                        for st in statuses.values()):
                status = "converged"
                break
            if adapt and it % 5 == 0:
                if r > 10.0 * s:
                    adm.rho *= 2.0
                    for k in adm.u:
                        adm.u[k] /= 2.0
                elif s > 10.0 * r:
                    adm.rho /= 2.0
                    for k in adm.u:
                        adm.u[k] *= 2.0
    wall = time.perf_counter() - t0

    diagnostics = {"rho": adm.rho, "primal_residual": adm.primal_residual
                   if torn else 0.0,
                   "dual_residual": adm.dual_residual if torn else 0.0}
    return build_report([(a, states[a.name]) for a in agents], status,
                        mode="admm", nets=nets, epochs=iters,
                        inner_iterations=sum(st.iterations
                                             for st in states.values()
                                             if st is not None),
                        diagnostics=diagnostics, wall_time=wall)
