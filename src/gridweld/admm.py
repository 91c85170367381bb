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
The iterations run on :class:`gridweld.gjn.Coordinator`'s epoch loop.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from .coupling import aggregate_current_d_to_t
from .ecf import _FixedCSR, build_problem, port_builds
from .gjn import Coordinator, Subproblem


class ConsensusAgent:
    """One cell's problem plus the scaled consensus penalty on its copies.

    The cell builds its torn feeder heads as 'd_phasor' ports and its torn
    transmission sides as 't_free' ports, so every local copy is a set of
    ordinary variables: a 'd_phasor' port of ``port_builds`` copies the
    head phasor and the aggregated port current, a 't_free' port the POI
    voltage and the free port current.  The agent adds the penalty to the
    objective and its derivatives; every other value is the cell problem's own.  Its Hessian
    ``W + rho * P`` lies on one pattern, the union of the cell's W pattern
    and the constant penalty pattern ``P``, fixed here.
    """

    def __init__(self, base, port_builds):
        self.base = base
        self.copy_map: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.rho = 1.0
        maps = base.maps
        # head copies first, then free ones: the penalty sums in this order
        for spec in [pb.spec for pb in port_builds if pb.mode == "d_phasor"]:
            # a head voltage that enters a row nonlinearly (a load, a flow
            # limit or a power- or admittance-kind source at the coupling
            # node) is rejected: without this check, L2 ADMM on
            # case_micro_flowcap had not finished after 10 minutes
            if np.isin(maps.head_v[spec.key], base.nonlinear_cols).any():
                raise ValueError("feeder-head nonlinearities (loads, flow "
                                 "limits or sources at the coupling node) "
                                 "are not supported in consensus mode")
            self.copy_map[spec.key] = (
                np.concatenate([maps.poi_v[spec.key], maps.port_dvar[spec.key]]),
                block_diag(np.eye(2), aggregate_current_d_to_t(spec, np.eye(6))))
        for spec in [pb.spec for pb in port_builds if pb.mode == "t_free"]:
            self.copy_map[spec.key] = (
                np.concatenate([maps.poi_v[spec.key], maps.port_tvar[spec.key]]),
                np.eye(4))
        self.centers = {key: np.array([1.0, 0.0, 0.0, 0.0]) for key in self.copy_map}
        # the penalty Hessian is rho * P with P constant
        P = sp.csr_matrix((base.nvar, base.nvar))
        for cols, C in self.copy_map.values():
            k = len(cols)
            P += sp.csr_matrix(((C.T @ C).ravel(), (np.repeat(cols, k),
                                                     np.tile(cols, k))),
                               shape=P.shape)
        # W's entries, then P's, summed into their union from 0.0: the sum
        # of each shared entry is W + rho * P as scipy's sum would give it
        W = base.hess_lagrangian(base.x0(), np.zeros(base.n_eq), np.zeros(base.n_in))
        rows = np.concatenate([W.rows, np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))])
        cols = np.concatenate([W.indices, P.indices])
        self._hess = _FixedCSR(np.arange(len(rows)), rows, cols, P.shape)
        self._p_data = P.data

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
        W = self.base.hess_lagrangian(x, lam, mu)
        return self._hess(np.concatenate([W.data, self.rho * self._p_data]))

    def local_copy(self, x, key):
        cols, C = self.copy_map[key]
        return C @ x[cols]


def build_agents(partition, *, source_kind, norm, q_only):
    """One built cell per partition cell, its problem a
    :class:`ConsensusAgent`, its torn ports in 't_free' and 'd_phasor'
    mode."""
    subs = []
    for cell in partition.cells:
        ports = port_builds(cell, "t_free", "d_phasor")
        prob = build_problem(cell.networks, ports, source_kind=source_kind,
                             norm=norm, q_only=q_only)
        subs.append(Subproblem(cell.name, ConsensusAgent(prob, ports),
                               np.empty(0, dtype=int)))
    return subs


class Consensus(Coordinator):
    """Consensus ADMM on the coordinator's epoch loop: an epoch is one
    x-update of every cell, then the z- and dual updates.  ``boundary`` holds
    z (p x 4) and ``u`` the scaled duals (p x 2 x 4: T side, D side), by
    torn-port position; ``r`` and ``s`` are the primal and dual residuals."""
    mode = "admm"
    out_of_budget = "budget-exhausted"

    def __init__(self, nets, couplings, partition=None, *, source_kind="current",
                 norm="l2", q_only=False, opts=None, rho=10.0, tol=1e-6,
                 max_iterations=2000, adapt=True, workers=1, trace_path=None):
        super().__init__(nets, couplings, partition, source_kind=source_kind,
                         norm=norm, q_only=q_only, opts=opts, gauss_tol=tol,
                         max_epochs=max_iterations, workers=workers,
                         trace_path=trace_path)
        self.rho, self.adapt = rho, adapt
        self.u = np.zeros((len(self.torn), 2, 4))
        self.r = self.s = np.inf if self.torn else 0.0

    def _cells(self, source_kind, norm, q_only):
        subs = build_agents(self.partition, source_kind=source_kind, norm=norm,
                            q_only=q_only)
        return subs, np.tile([1.0, 0.0, 0.0, 0.0], (len(self.torn), 1))

    def _load(self, sub):
        """The agent's penalty centers z - u of its copies, and rho."""
        for k, port in enumerate(self.torn):
            for side, name in enumerate((port.t_cell, port.d_cell)):
                if name == sub.name:
                    sub.problem.centers[port.key] = self.boundary[k] - self.u[k, side]
        sub.problem.rho = self.rho

    def _update(self):
        """Consensus average and first-order dual step; returns max(r, s)
        and no step kind."""
        if not self.torn:
            return float("nan"), None
        y = np.array([[self.by_name[name].problem.local_copy(
            self.by_name[name].state.x, p.key) for name in (p.t_cell, p.d_cell)]
            for p in self.torn])
        z_old, u = self.boundary, self.u
        self.boundary = 0.5 * (y[:, 0] + u[:, 0] + y[:, 1] + u[:, 1])
        self.u += y - self.boundary[:, None]
        self.r = float(np.max(np.abs(y - self.boundary[:, None])))
        self.s = self.rho * float(np.max(np.abs(self.boundary - z_old)))
        return max(self.r, self.s), None

    def _trace(self, rec):
        """No line for an epoch without a consensus update."""
        if np.isnan(rec.metric):
            return None
        return {"type": "admm", "iteration": rec.epoch, "r": self.r,
                "s": self.s, "rho": self.rho,
                "delta_steps": sum(v["delta_steps"] for v in rec.solves.values())}

    def _after_epoch(self, epoch):
        """Residual balancing of rho every fifth iteration; never a stop."""
        if self.adapt and epoch % 5 == 0:
            if self.r > 10.0 * self.s:
                self.rho *= 2.0
                self.u /= 2.0
            elif self.s > 10.0 * self.r:
                self.rho /= 2.0
                self.u *= 2.0

    def _diagnostics(self):
        return {"rho": self.rho, "primal_residual": self.r,
                "dual_residual": self.s}


def admm_solve(nets, couplings, partition=None, *, source_kind="current",
               norm="l2", q_only=False, opts=None, rho=10.0, tol=1e-6,
               max_iterations=2000, adapt=True, workers=1, trace_path=None):
    """Consensus ADMM run; returns a report in the common layout.

    With a single subproblem this reduces to the centralized solve in one
    outer iteration.  A run that exhausts the budget reports status
    'budget-exhausted' (rendered as an em-dash in comparison tables).
    """
    return Consensus(nets, couplings, partition, source_kind=source_kind,
                     norm=norm, q_only=q_only, opts=opts, rho=rho, tol=tol,
                     max_iterations=max_iterations, adapt=adapt,
                     workers=workers, trace_path=trace_path).run()
