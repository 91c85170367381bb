"""Equivalent-circuit residuals and derivatives for combined networks.

Every network element is a current-voltage relation in rectangular
coordinates; node balance (KCL) rows form the equality constraints.
:func:`build_problem` walks one or more networks plus their coupling ports
and emits a :class:`CircuitProblem` with vectorized residual / Jacobian /
Lagrangian-Hessian evaluators for the solver; :func:`partition_cells` gives
the per-cell network and port lists a partition's distributed solves build
their problems from.

State vector ordering (fixed, relied on by tests and warm starts):

1. per network, per bus in case order, per connected phase in canonical
   order: ``V_R`` then ``V_I`` (buses whose voltage is an exchange
   parameter are skipped);
2. per network: injection currents ``I_R, I_I`` per (bus, phase) carrying
   load or generation;
3. per network: slack source currents, two per slack bus phase;
4. per network: net reactive demand, one variable per PV (bus, phase);
5. per coupling port: transmission-side port current pair, then
   distribution-side per-phase port currents (six), as the port mode
   provides;
6. infeasibility source components per eligible (bus, phase);
7. epigraph auxiliaries, one per source component (L1 objective only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .coupling import _AGG, _DIST, CouplingPort
from .netmodel import Network, Partition

#: voltage-magnitude-squared guard for current-injection denominators (pu^2)
DELTA_V = 1e-4

SOURCE_KINDS = ("current", "power", "admittance")
_SOURCE_COMPONENTS = {"current": ("ir", "ii"), "power": ("p", "q"),
                      "admittance": ("g", "b")}


# ---------------------------------------------------------------------------
# assembled problem


@dataclass(frozen=True)
class InfeasibilitySource:
    net: str
    bus: str
    phase: str
    kind: str
    components: tuple[str, ...]   # variable labels, e.g. ("ir", "ii") or ("q",)
    var_index: tuple[int, ...]


@dataclass
class PortBuild:
    """How one coupling port participates in a build.

    mode 'internal': both sides present, full coupling rows.
    mode 't_draw':   transmission side only; the distribution draw enters the
                     POI balance as an exchange parameter.
    mode 't_free':   transmission side only; the draw is a free variable with
                     no tie row (consensus penalties pin it).
    mode 'd_head':   distribution side only; head voltages and port-current
                     prices are exchange parameters.
    """
    port: CouplingPort
    mode: str

    @property
    def key(self) -> str:
        return self.port.key


@dataclass
class Cell:
    """One partition cell: its member networks and how its ports build."""
    name: str
    nets: list[Network]
    port_builds: list[PortBuild]
    ports_t: list[CouplingPort]       # torn ports whose transmission side is here
    ports_d: list[CouplingPort]       # torn ports whose distribution side is here


def partition_cells(nets, couplings, partition: Partition, t_mode: str):
    """Walk a partition into per-cell builds plus the ports it tears.

    A cell's internal couplings enter in full; a torn port enters its
    transmission cell in ``t_mode`` ('t_draw' or 't_free') and its
    distribution cell as 'd_head'.  Within a cell the internal ports come
    first, then the torn ports in coupling order (the variable layout
    depends on it).  Returns ``(cells, torn)`` with ``torn`` a list of
    ``(key, port, t_cell, d_cell)`` in coupling order.
    """
    by_name = {n.name: n for n in nets}
    net_of_bus = {b.id: n.name for n in nets for b in n.buses}
    owner = {m: s.name for s in partition.subproblems for m in s.networks}
    torn = []
    for idx in partition.external_couplings:
        spec = couplings[idx]
        port = CouplingPort(spec)
        torn.append((port.key, port, owner[net_of_bus[spec.t_bus]],
                     owner[net_of_bus[spec.d_bus]]))
    cells = []
    for sub in partition.subproblems:
        cell = Cell(name=sub.name, nets=[by_name[m] for m in sub.networks],
                    port_builds=[], ports_t=[], ports_d=[])
        for idx in partition.internal_couplings:
            spec = couplings[idx]
            if net_of_bus[spec.t_bus] in sub.networks:
                cell.port_builds.append(PortBuild(CouplingPort(spec), "internal"))
        for _, port, t_cell, d_cell in torn:
            if t_cell == sub.name:
                cell.port_builds.append(PortBuild(port, t_mode))
                cell.ports_t.append(port)
            if d_cell == sub.name:
                cell.port_builds.append(PortBuild(port, "d_head"))
                cell.ports_d.append(port)
        cells.append(cell)
    return cells, torn


def _slot_is_param(slot: int) -> bool:
    return slot < 0


def _param_index(slot: int) -> int:
    return -slot - 1


class CircuitProblem:
    """Residuals, Jacobians and Lagrangian Hessian of one assembled problem.

    Equality residuals have the form ``A_eq x + B_eq p + b_eq + nl(x, p)``
    with ``p`` the exchange-parameter vector; inequalities follow the same
    split.  The Jacobian sparsity pattern is fixed after assembly.
    """

    def __init__(self, builder: "_Builder"):
        b = builder
        self.nvar = b.nvar
        self.n_eq = b.n_eq
        self.n_in = b.n_in
        self.nets = b.nets
        self.norm = b.norm
        self.source_kind = b.source_kind
        self.q_only = b.q_only
        self.sources: list[InfeasibilitySource] = b.sources
        self.var_owner = b.var_owner
        self.eq_owner = b.eq_owner
        self.in_owner = b.in_owner
        self.var_label = b.var_label
        self.eq_label = b.eq_label
        self.in_label = b.in_label
        self.param_slots: dict[str, slice] = b.param_slots
        self.n_param = b.n_param
        self.params = np.zeros(b.n_param)
        self.maps = b.maps

        self._A_eq = sp.csr_matrix(
            (b.eq_vals, (b.eq_rows, b.eq_cols)), shape=(self.n_eq, self.nvar))
        self._B_eq = sp.csr_matrix(
            (b.eqp_vals, (b.eqp_rows, b.eqp_cols)), shape=(self.n_eq, max(b.n_param, 1)))
        self._b_eq = np.zeros(self.n_eq)
        np.add.at(self._b_eq, b.eqc_rows, b.eqc_vals)
        self._A_in = sp.csr_matrix(
            (b.in_vals, (b.in_rows, b.in_cols)), shape=(self.n_in, self.nvar))
        self._b_in = np.zeros(self.n_in)
        np.add.at(self._b_in, b.inc_rows, b.inc_vals)

        # h-family instances (current-injection style nonlinearities)
        self._h = {k: np.asarray(v) for k, v in b.h_arrays().items()}
        self._pv = {k: np.asarray(v) for k, v in b.pv_arrays().items()}
        self._vmag = {k: np.asarray(v) for k, v in b.vmag_arrays().items()}
        self._adm = {k: np.asarray(v) for k, v in b.adm_arrays().items()}
        self._flows = b.flow_rows
        self._src_idx = np.array([i for s in self.sources for i in s.var_index],
                                 dtype=int)
        self._epi_idx = np.asarray(b.epi_idx, dtype=int)
        self._price_pairs = np.asarray(b.price_pairs, dtype=int).reshape(-1, 2)
        self._x0 = np.asarray(b.x0_vals)
        self._guard_uv = np.asarray(b.guard_uv, dtype=int).reshape(-1, 2)

    # -- parameter handling ------------------------------------------------

    def set_params(self, name: str, values):
        self.params[self.param_slots[name]] = np.asarray(values, dtype=float)

    def get_params(self, name: str):
        return self.params[self.param_slots[name]].copy()

    def x0(self) -> np.ndarray:
        x = self._x0.copy()
        if len(self._epi_idx):
            x[self._epi_idx] = 0.1
        return x

    # -- gather helpers ----------------------------------------------------

    def _gather(self, x, slots):
        slots = np.asarray(slots, dtype=int)
        out = np.empty(len(slots))
        var = slots >= 0
        out[var] = x[slots[var]]
        out[~var] = self.params[-slots[~var] - 1]
        return out

    def interior_ok(self, x) -> bool:
        """Voltage-magnitude guard for all current-injection denominators."""
        if not len(self._guard_uv):
            return True
        u = self._gather(x, self._guard_uv[:, 0])
        v = self._gather(x, self._guard_uv[:, 1])
        return bool(np.min(u * u + v * v) >= DELTA_V)

    # -- objective ----------------------------------------------------------

    def objective(self, x) -> float:
        f = 0.0
        if self.norm == "l2" and len(self._src_idx):
            s = x[self._src_idx]
            f += 0.5 * float(s @ s)
        elif self.norm == "l1" and len(self._epi_idx):
            f += float(x[self._epi_idx].sum())
        if len(self._price_pairs):
            f += float(self.params[self._price_pairs[:, 1]] @ x[self._price_pairs[:, 0]])
        return f

    def grad_objective(self, x) -> np.ndarray:
        g = np.zeros(self.nvar)
        if self.norm == "l2" and len(self._src_idx):
            g[self._src_idx] = x[self._src_idx]
        elif self.norm == "l1" and len(self._epi_idx):
            g[self._epi_idx] = 1.0
        if len(self._price_pairs):
            np.add.at(g, self._price_pairs[:, 0], self.params[self._price_pairs[:, 1]])
        return g

    def source_values(self, x) -> np.ndarray:
        return x[self._src_idx] if len(self._src_idx) else np.zeros(0)

    def source_norm_objective(self, x) -> float:
        """Reported objective: the source norm itself (no auxiliaries)."""
        s = self.source_values(x)
        if self.norm == "l2":
            return 0.5 * float(s @ s)
        return float(np.abs(s).sum())

    # -- equalities ----------------------------------------------------------

    def _h_parts(self, x):
        h = self._h
        if not len(h["row"]):
            return None
        u = self._gather(x, h["iu"])
        v = self._gather(x, h["iv"])
        a = h["a0"].copy()
        mask = h["ia"] >= 0
        a[mask] += h["sa"][mask] * x[h["ia"][mask]]
        bb = h["b0"].copy()
        maskb = h["ib"] >= 0
        bb[maskb] += h["sb"][maskb] * x[h["ib"][maskb]]
        d = u * u + v * v
        g = a * u + bb * v
        return u, v, a, bb, d, g

    def residual_eq(self, x) -> np.ndarray:
        r = self._A_eq @ x + self._b_eq
        if self.n_param:
            r += self._B_eq @ self.params
        parts = self._h_parts(x)
        if parts is not None:
            u, v, a, bb, d, g = parts
            np.add.at(r, self._h["row"], self._h["sigma"] * g / d)
        if len(self._pv["row"]):
            u = self._gather(x, self._pv["iu"])
            v = self._gather(x, self._pv["iv"])
            np.add.at(r, self._pv["row"], u * u + v * v + self._pv["const"])
        if len(self._adm["row_r"]):
            u = self._gather(x, self._adm["iu"])
            v = self._gather(x, self._adm["iv"])
            gs, bs = x[self._adm["ig"]], x[self._adm["ib"]]
            np.add.at(r, self._adm["row_r"], -(gs * u - bs * v))
            np.add.at(r, self._adm["row_i"], -(gs * v + bs * u))
        return r

    def jac_eq(self, x) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        parts = self._h_parts(x)
        if parts is not None:
            u, v, a, bb, d, g = parts
            h = self._h
            sig = h["sigma"]
            hu = sig * (a / d - 2 * u * g / d ** 2)
            hv = sig * (bb / d - 2 * v * g / d ** 2)
            for slot, val in (("iu", hu), ("iv", hv)):
                mask = h[slot] >= 0
                rows.append(h["row"][mask])
                cols.append(h[slot][mask])
                vals.append(val[mask])
            for slot, sgn, comp in (("ia", h["sa"], u), ("ib", h["sb"], v)):
                mask = h[slot] >= 0
                rows.append(h["row"][mask])
                cols.append(h[slot][mask])
                vals.append(sig[mask] * sgn[mask] * comp[mask] / d[mask])
        if len(self._pv["row"]):
            pv = self._pv
            u = self._gather(x, pv["iu"])
            v = self._gather(x, pv["iv"])
            for slot, val in (("iu", 2 * u), ("iv", 2 * v)):
                mask = pv[slot] >= 0
                rows.append(pv["row"][mask])
                cols.append(pv[slot][mask])
                vals.append(val[mask])
        if len(self._adm["row_r"]):
            ad = self._adm
            u = self._gather(x, ad["iu"])
            v = self._gather(x, ad["iv"])
            gs, bs = x[ad["ig"]], x[ad["ib"]]
            mask_u = ad["iu"] >= 0
            mask_v = ad["iv"] >= 0
            # rows carry -(G u - B v) and -(G v + B u)
            entries = [
                (ad["row_r"], ad["ig"], -u),
                (ad["row_r"], ad["ib"], v),
                (ad["row_i"], ad["ig"], -v),
                (ad["row_i"], ad["ib"], -u),
                (ad["row_r"][mask_u], ad["iu"][mask_u], -gs[mask_u]),
                (ad["row_i"][mask_u], ad["iu"][mask_u], -bs[mask_u]),
                (ad["row_r"][mask_v], ad["iv"][mask_v], bs[mask_v]),
                (ad["row_i"][mask_v], ad["iv"][mask_v], -gs[mask_v]),
            ]
            for rr, cc, vv in entries:
                rows.append(rr)
                cols.append(cc)
                vals.append(vv)
        if rows:
            extra = sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(self.n_eq, self.nvar))
            return (self._A_eq + extra).tocsr()
        return self._A_eq.copy()

    # -- inequalities ---------------------------------------------------------

    def residual_in(self, x) -> np.ndarray:
        r = self._A_in @ x + self._b_in
        if len(self._vmag["row"]):
            vm = self._vmag
            u = self._gather(x, vm["iu"])
            v = self._gather(x, vm["iv"])
            np.add.at(r, vm["row"], vm["sign"] * (u * u + v * v) + vm["const"])
        for fr in self._flows:
            cur_r = fr["cR"] @ self._gather(x, fr["slots"]) + fr["dR"]
            cur_i = fr["cI"] @ self._gather(x, fr["slots"]) + fr["dI"]
            r[fr["row"]] += cur_r * cur_r + cur_i * cur_i + fr["const"]
        return r

    def jac_in(self, x) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        if len(self._vmag["row"]):
            vm = self._vmag
            u = self._gather(x, vm["iu"])
            v = self._gather(x, vm["iv"])
            for slot, val in (("iu", 2 * u), ("iv", 2 * v)):
                mask = vm[slot] >= 0
                rows.append(vm["row"][mask])
                cols.append(vm[slot][mask])
                vals.append((vm["sign"] * val)[mask])
        for fr in self._flows:
            xs = self._gather(x, fr["slots"])
            cur_r = fr["cR"] @ xs + fr["dR"]
            cur_i = fr["cI"] @ xs + fr["dI"]
            grad = 2 * cur_r * fr["cR"] + 2 * cur_i * fr["cI"]
            mask = fr["slots"] >= 0
            rows.append(np.full(mask.sum(), fr["row"]))
            cols.append(fr["slots"][mask])
            vals.append(grad[mask])
        if rows:
            extra = sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(self.n_in, self.nvar))
            return (self._A_in + extra).tocsr()
        return self._A_in.copy()

    def param_lagrangian_grad(self, x, lam, mu, name: str) -> np.ndarray:
        """Gradient of the Lagrangian with respect to one parameter block.

        This is the marginal value of an exchange parameter (e.g. the fixed
        head voltages of a torn feeder) to this cell's optimum, used by the
        coordinator to price boundary quantities on the other side.
        """
        sl = self.param_slots[name]
        out = np.asarray((self._B_eq[:, sl].T @ lam)).ravel().copy()
        parts = self._h_parts(x)
        if parts is not None:
            u, v, a, bb, d, g = parts
            h = self._h
            w = h["sigma"] * lam[h["row"]]
            hu = w * (a / d - 2 * u * g / d ** 2)
            hv = w * (bb / d - 2 * v * g / d ** 2)
            for slot, val in (("iu", hu), ("iv", hv)):
                s_ = h[slot]
                mask = s_ < 0
                if mask.any():
                    pidx = -s_[mask] - 1
                    inside = (pidx >= sl.start) & (pidx < sl.stop)
                    np.add.at(out, pidx[inside] - sl.start, val[mask][inside])
        for fr in self._flows:
            w = mu[fr["row"]]
            if w == 0.0 or not (fr["slots"] < 0).any():
                continue
            xs = self._gather(x, fr["slots"])
            cur_r = fr["cR"] @ xs + fr["dR"]
            cur_i = fr["cI"] @ xs + fr["dI"]
            grad = w * (2 * cur_r * fr["cR"] + 2 * cur_i * fr["cI"])
            mask = fr["slots"] < 0
            pidx = -fr["slots"][mask] - 1
            inside = (pidx >= sl.start) & (pidx < sl.stop)
            np.add.at(out, pidx[inside] - sl.start, grad[mask][inside])
        if len(self._adm["row_r"]):
            ad = self._adm
            for uvslot in ("iu", "iv"):
                s_ = ad[uvslot]
                mask = s_ < 0
                if not mask.any():
                    continue
                gs, bs = x[ad["ig"][mask]], x[ad["ib"][mask]]
                wr = lam[ad["row_r"][mask]]
                wi = lam[ad["row_i"][mask]]
                val = (-gs * wr - bs * wi) if uvslot == "iu" else (bs * wr - gs * wi)
                pidx = -s_[mask] - 1
                inside = (pidx >= sl.start) & (pidx < sl.stop)
                np.add.at(out, pidx[inside] - sl.start, val[inside])
        return out

    # -- Lagrangian Hessian ----------------------------------------------------

    def hess_lagrangian(self, x, lam, mu) -> sp.csr_matrix:
        """W = obj Hessian + sum lam_i H(eq_i) + sum mu_j H(in_j), exactly symmetric."""
        rows, cols, vals = [], [], []

        def add_sym(i, j, v):
            mask = np.asarray(v) != 0.0
            i, j, v = np.asarray(i)[mask], np.asarray(j)[mask], np.asarray(v)[mask]
            rows.append(i)
            cols.append(j)
            vals.append(v)
            off = i != j
            rows.append(j[off])
            cols.append(i[off])
            vals.append(v[off])

        if self.norm == "l2" and len(self._src_idx):
            add_sym(self._src_idx, self._src_idx, np.ones(len(self._src_idx)))

        parts = self._h_parts(x)
        if parts is not None:
            u, v, a, bb, d, g = parts
            h = self._h
            w = h["sigma"] * lam[h["row"]]
            d2, d3 = d ** 2, d ** 3
            huu = -4 * a * u / d2 - 2 * g / d2 + 8 * u * u * g / d3
            hvv = -4 * bb * v / d2 - 2 * g / d2 + 8 * v * v * g / d3
            huv = -2 * (a * v + bb * u) / d2 + 8 * u * v * g / d3
            hua = 1 / d - 2 * u * u / d2
            hub = -2 * u * v / d2
            hvb = 1 / d - 2 * v * v / d2
            iu, iv, ia, ib = h["iu"], h["iv"], h["ia"], h["ib"]
            vu = (iu >= 0)
            vv_ = (iv >= 0)
            va = ia >= 0
            vb = ib >= 0
            pairs = [
                (vu, iu, iu, w * huu), (vu & vv_, iu, iv, w * huv),
                (vv_, iv, iv, w * hvv),
                (vu & va, iu, ia, w * h["sa"] * hua),
                (vu & vb, iu, ib, w * h["sb"] * hub),
                (vv_ & va, iv, ia, w * h["sa"] * hub),
                (vv_ & vb, iv, ib, w * h["sb"] * hvb),
            ]
            for mask, ii, jj, ww in pairs:
                if mask.any():
                    add_sym(ii[mask], jj[mask], ww[mask])

        if len(self._pv["row"]):
            pv = self._pv
            w = lam[pv["row"]]
            for slot in ("iu", "iv"):
                mask = pv[slot] >= 0
                add_sym(pv[slot][mask], pv[slot][mask], 2 * w[mask])

        if len(self._adm["row_r"]):
            ad = self._adm
            wr = lam[ad["row_r"]]
            wi = lam[ad["row_i"]]
            for uvslot, gw, bw in (("iu", -wr, -wi), ("iv", wr, -wi)):
                mask = ad[uvslot] >= 0
                if uvslot == "iu":
                    add_sym(ad["iu"][mask], ad["ig"][mask], gw[mask])
                    add_sym(ad["iu"][mask], ad["ib"][mask], bw[mask])
                else:
                    add_sym(ad["iv"][mask], ad["ib"][mask], gw[mask])
                    add_sym(ad["iv"][mask], ad["ig"][mask], bw[mask])

        if len(self._vmag["row"]):
            vm = self._vmag
            w = mu[vm["row"]] * vm["sign"]
            for slot in ("iu", "iv"):
                mask = vm[slot] >= 0
                add_sym(vm[slot][mask], vm[slot][mask], 2 * w[mask])

        for fr in self._flows:
            w = mu[fr["row"]]
            if w == 0.0:
                continue
            mask = fr["slots"] >= 0
            idx = fr["slots"][mask]
            blk = 2 * w * (np.outer(fr["cR"][mask], fr["cR"][mask])
                           + np.outer(fr["cI"][mask], fr["cI"][mask]))
            ii, jj = np.meshgrid(idx, idx, indexing="ij")
            upper = np.triu(np.ones_like(blk, dtype=bool))
            add_sym(ii[upper], jj[upper], blk[upper])

        if not rows:
            return sp.csr_matrix((self.nvar, self.nvar))
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.nvar, self.nvar))


# ---------------------------------------------------------------------------
# builder


@dataclass
class IndexMaps:
    """Lookup tables produced during assembly (variable/row bookkeeping)."""
    v_slot: dict = field(default_factory=dict)       # (net,bus,ph) -> (iu_slot, iv_slot)
    kcl_row: dict = field(default_factory=dict)      # (net,bus,ph) -> (rowR, rowI)
    port_tvar: dict = field(default_factory=dict)    # port key -> (2,) indices
    port_dvar: dict = field(default_factory=dict)    # port key -> (6,) indices
    poi_v: dict = field(default_factory=dict)        # port key -> POI voltage [iu, iv] slots
    poi_row: dict = field(default_factory=dict)      # port key -> POI balance [rowR, rowI]
    source_of: dict = field(default_factory=dict)    # (net,bus,ph) -> InfeasibilitySource
    pv_qvar: dict = field(default_factory=dict)      # (net,bus,ph) -> q index
    inj_var: dict = field(default_factory=dict)      # (net,bus,ph) -> (ir, ii)


class _Builder:
    def __init__(self, nets, ports, source_kind, norm, q_only):
        if norm not in ("l1", "l2"):
            raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
        if source_kind is not None and source_kind not in SOURCE_KINDS:
            raise ValueError(f"source kind must be one of {SOURCE_KINDS}")
        if q_only and source_kind != "power":
            raise ValueError("q_only is only meaningful with power-kind sources")
        self.nets = {n.name: n for n in nets}
        self.net_list = list(nets)
        self.ports: list[PortBuild] = ports
        self.source_kind = source_kind
        self.norm = norm
        self.q_only = q_only

        self.nvar = 0
        self.n_eq = 0
        self.n_in = 0
        self.n_param = 0
        self.var_owner: list[str] = []
        self.eq_owner: list[str] = []
        self.in_owner: list[str] = []
        self.var_label: list[str] = []
        self.eq_label: list[str] = []
        self.in_label: list[str] = []
        self.param_slots: dict[str, slice] = {}
        self.x0_vals: list[float] = []
        self.maps = IndexMaps()
        self.sources: list[InfeasibilitySource] = []

        self.eq_rows, self.eq_cols, self.eq_vals = [], [], []
        self.eqp_rows, self.eqp_cols, self.eqp_vals = [], [], []
        self.eqc_rows, self.eqc_vals = [], []
        self.in_rows, self.in_cols, self.in_vals = [], [], []
        self.inc_rows, self.inc_vals = [], []
        self._h_list = []
        self._pv_list = []
        self._vmag_list = []
        self._adm_list = []
        self.flow_rows = []
        self.epi_idx: list[int] = []
        self.price_pairs: list[tuple[int, int]] = []
        self.guard_uv: list[tuple[int, int]] = []

        self._head_param_buses = {}   # (net,bus) -> port key, distribution heads
        for pb in self.ports:
            spec = pb.port.spec
            if pb.mode == "d_head":
                dnet = self._net_of_bus(spec.d_bus)
                self._head_param_buses[(dnet, spec.d_bus)] = pb.key
        self._build()

    # -- small allocation helpers -------------------------------------------

    def _net_of_bus(self, bus_id):
        for net in self.net_list:
            if net.has_bus(bus_id):
                return net.name
        raise KeyError(bus_id)

    def _new_var(self, owner, label, x0):
        self.var_owner.append(owner)
        self.var_label.append(label)
        self.x0_vals.append(x0)
        self.nvar += 1
        return self.nvar - 1

    def _new_eq(self, owner, label=""):
        self.eq_owner.append(owner)
        self.eq_label.append(label)
        self.n_eq += 1
        return self.n_eq - 1

    def _new_in(self, owner, label=""):
        self.in_owner.append(owner)
        self.in_label.append(label)
        self.n_in += 1
        return self.n_in - 1

    def _new_params(self, name, count):
        self.param_slots[name] = slice(self.n_param, self.n_param + count)
        self.n_param += count
        return self.param_slots[name]

    def _stamp_eq(self, row, slot, val):
        """Stamp a coefficient on a variable or exchange-parameter slot."""
        if val == 0.0:
            return
        if _slot_is_param(slot):
            self.eqp_rows.append(row)
            self.eqp_cols.append(_param_index(slot))
            self.eqp_vals.append(val)
        else:
            self.eq_rows.append(row)
            self.eq_cols.append(slot)
            self.eq_vals.append(val)

    # -- assembly ------------------------------------------------------------

    def _build(self):
        for net in self.net_list:
            self._alloc_voltages(net)
        for net in self.net_list:
            self._alloc_injections(net)
        for net in self.net_list:
            self._alloc_slack_and_pv(net)
        self._alloc_ports()
        self._alloc_sources()
        for net in self.net_list:
            self._rows_network(net)
        self._rows_ports()
        self._rows_inequalities()

    def _alloc_voltages(self, net):
        for bus in net.buses:
            head_key = self._head_param_buses.get((net.name, bus.id))
            for ph in bus.phases:
                if head_key is not None:
                    name = f"headv:{head_key}"
                    if name not in self.param_slots:
                        self._new_params(name, 6)
                    base = self.param_slots[name].start
                    off = 2 * "abc".index(ph)
                    self.maps.v_slot[(net.name, bus.id, ph)] = (
                        -(base + off) - 1, -(base + off + 1) - 1)
                else:
                    # flat start: unit magnitude everywhere (balanced
                    # rotations on feeders), so branch flows begin at zero
                    ang = {"a": 0.0, "b": -2 * np.pi / 3, "c": 2 * np.pi / 3,
                           "1": 0.0}[ph]
                    iu = self._new_var(net.name, f"vr:{bus.id}:{ph}", np.cos(ang))
                    iv = self._new_var(net.name, f"vi:{bus.id}:{ph}", np.sin(ang))
                    self.maps.v_slot[(net.name, bus.id, ph)] = (iu, iv)

    def _net_injection(self, net, bus, ph):
        """(P_const, Q_const, has_any, pv_box or None) at one (bus, phase)."""
        p = q = 0.0
        has = False
        for ld in net.loads:
            if ld.bus == bus.id:
                p += ld.p.get(ph, 0.0)
                q += ld.q.get(ph, 0.0)
                has = has or ph in ld.p or ph in ld.q
        box = None
        for g in net.generators:
            if g.bus != bus.id:
                continue
            p -= g.p.get(ph, 0.0)
            has = has or ph in g.p or ph in g.q
            if g.mode == "pq":
                q -= g.q.get(ph, 0.0)
            else:
                lo, hi = box if box else (0.0, 0.0)
                box = (lo + g.q_min, hi + g.q_max)
        return p, q, has, box

    def _alloc_injections(self, net):
        for bus in net.buses:
            for ph in bus.phases:
                p, q, has, box = self._net_injection(net, bus, ph)
                if not has and box is None and bus.kind != "pv":
                    continue
                ir = self._new_var(net.name, f"ir:{bus.id}:{ph}", 0.0)
                ii = self._new_var(net.name, f"ii:{bus.id}:{ph}", 0.0)
                self.maps.inj_var[(net.name, bus.id, ph)] = (ir, ii)

    def _alloc_slack_and_pv(self, net):
        for bus in net.buses:
            if bus.kind == "slack":
                for ph in bus.phases:
                    self.maps.inj_var.setdefault((net.name, bus.id, ph + "!slack"), (
                        self._new_var(net.name, f"isr:{bus.id}:{ph}", 0.0),
                        self._new_var(net.name, f"isi:{bus.id}:{ph}", 0.0)))
            elif bus.kind == "pv":
                for ph in bus.phases:
                    p, q, has, box = self._net_injection(net, bus, ph)
                    if box is None:
                        raise ValueError(
                            f"pv bus '{bus.id}' phase {ph}: needs a pv-mode generator")
                    qg0 = 0.0
                    if np.isfinite(box[0]) and np.isfinite(box[1]):
                        if box[0] >= box[1]:
                            raise ValueError(
                                f"pv bus '{bus.id}': reactive box must have q_min < q_max")
                        qg0 = 0.5 * (box[0] + box[1])
                    self.maps.pv_qvar[(net.name, bus.id, ph)] = self._new_var(
                        net.name, f"q:{bus.id}:{ph}", q - qg0)

    def _alloc_ports(self):
        for pb in self.ports:
            spec = pb.port.spec
            if pb.mode in ("internal", "t_free", "t_draw"):
                tnet = self._net_of_bus(spec.t_bus)
                self.maps.poi_v[pb.key] = list(
                    self.maps.v_slot[(tnet, spec.t_bus, "1")])
            if pb.mode in ("internal", "t_free"):
                owner = f"port:{pb.key}" if pb.mode == "internal" else tnet
                self.maps.port_tvar[pb.key] = [
                    self._new_var(owner, f"itr:{pb.key}", 0.0),
                    self._new_var(owner, f"iti:{pb.key}", 0.0)]
            if pb.mode in ("internal", "d_head"):
                dnet = self._net_of_bus(spec.d_bus)
                owner = f"port:{pb.key}" if pb.mode == "internal" else dnet
                self.maps.port_dvar[pb.key] = [
                    self._new_var(owner, f"id{ph}{c}:{pb.key}", 0.0)
                    for ph in "abc" for c in ("r", "i")]
            if pb.mode == "t_draw":
                self._new_params(f"draw:{pb.key}", 2)
                # POI-voltage price fed back from the distribution cell
                sl = self._new_params(f"vprice:{pb.key}", 2)
                tu, tv = self.maps.poi_v[pb.key]
                self.price_pairs.append((tu, sl.start))
                self.price_pairs.append((tv, sl.start + 1))
            if pb.mode == "d_head":
                # head voltage params were allocated with the voltages; the
                # port-current prices from the transmission dual come here
                sl = self._new_params(f"price:{pb.key}", 6)
                for off, var in enumerate(self.maps.port_dvar[pb.key]):
                    self.price_pairs.append((var, sl.start + off))

    def _alloc_sources(self):
        if self.source_kind is None:
            return
        comps = _SOURCE_COMPONENTS[self.source_kind]
        if self.q_only:
            comps = ("q",)
        for net in self.net_list:
            for bus in net.buses:
                if not bus.infeasibility_eligible:
                    continue
                for ph in bus.phases:
                    idx = tuple(self._new_var(net.name, f"s{c}:{bus.id}:{ph}", 0.0)
                                for c in comps)
                    src = InfeasibilitySource(net.name, bus.id, ph,
                                              self.source_kind, comps, idx)
                    self.sources.append(src)
                    self.maps.source_of[(net.name, bus.id, ph)] = src
        if self.norm == "l1":
            for src in self.sources:
                for c, vi in zip(src.components, src.var_index):
                    self.epi_idx.append(self._new_var(
                        self.var_owner[vi], f"t:{self.var_label[vi]}", 0.1))

    # -- equality rows ---------------------------------------------------------

    def _rows_network(self, net):
        nm = net.name
        for bus in net.buses:
            for ph in bus.phases:
                rr = self._new_eq(nm, f"kclr:{bus.id}:{ph}")
                ri = self._new_eq(nm, f"kcli:{bus.id}:{ph}")
                self.maps.kcl_row[(nm, bus.id, ph)] = (rr, ri)
        for br in net.branches:
            for oi, ph_i in enumerate(br.phases):
                rfr, rfi = self.maps.kcl_row[(nm, br.from_bus, ph_i)]
                rtr, rti = self.maps.kcl_row[(nm, br.to_bus, ph_i)]
                for oj, ph_j in enumerate(br.phases):
                    g, b = br.g[oi][oj], br.b[oi][oj]
                    fu, fv = self.maps.v_slot[(nm, br.from_bus, ph_j)]
                    tu, tv = self.maps.v_slot[(nm, br.to_bus, ph_j)]
                    for row, sgn in ((rfr, 1.0), (rtr, -1.0)):
                        self._stamp_eq(row, fu, sgn * g)
                        self._stamp_eq(row, fv, -sgn * b)
                        self._stamp_eq(row, tu, -sgn * g)
                        self._stamp_eq(row, tv, sgn * b)
                    for row, sgn in ((rfi, 1.0), (rti, -1.0)):
                        self._stamp_eq(row, fv, sgn * g)
                        self._stamp_eq(row, fu, sgn * b)
                        self._stamp_eq(row, tv, -sgn * g)
                        self._stamp_eq(row, tu, -sgn * b)

        for bus in net.buses:
            for ph in bus.phases:
                rr, ri = self.maps.kcl_row[(nm, bus.id, ph)]
                iu, iv = self.maps.v_slot[(nm, bus.id, ph)]
                inj = self.maps.inj_var.get((nm, bus.id, ph))
                p, q, has, box = self._net_injection(net, bus, ph)
                if inj is not None:
                    # balance picks up the device current ...
                    self.eq_rows += [rr, ri]
                    self.eq_cols += [inj[0], inj[1]]
                    self.eq_vals += [1.0, 1.0]
                    # ... defined by the constant-power relation
                    dr = self._new_eq(nm, f"defr:{bus.id}:{ph}")
                    di = self._new_eq(nm, f"defi:{bus.id}:{ph}")
                    self.eq_rows += [dr, di]
                    self.eq_cols += [inj[0], inj[1]]
                    self.eq_vals += [1.0, 1.0]
                    qvar = self.maps.pv_qvar.get((nm, bus.id, ph), -1)
                    ang = {"a": 0.0, "b": -2 * np.pi / 3, "c": 2 * np.pi / 3,
                           "1": 0.0}[ph]
                    x0r = self.x0_vals[iu] if iu >= 0 else np.cos(ang)
                    x0i = self.x0_vals[iv] if iv >= 0 else np.sin(ang)
                    self._h_list.append(dict(row=dr, iu=iu, iv=iv, a0=p, ia=-1, sa=1.0,
                                             b0=q if qvar < 0 else 0.0,
                                             ib=qvar, sb=1.0, sigma=-1.0))
                    self._h_list.append(dict(row=di, iu=iu, iv=iv,
                                             a0=-q if qvar < 0 else 0.0,
                                             ia=qvar, sa=-1.0, b0=p, ib=-1, sb=1.0,
                                             sigma=-1.0))
                    self.guard_uv.append((iu, iv))
                    # start injection currents consistent with the flat voltages
                    d0 = x0r * x0r + x0i * x0i
                    q0 = q if qvar < 0 else self.x0_vals[qvar]
                    self.x0_vals[inj[0]] = (p * x0r + q0 * x0i) / d0
                    self.x0_vals[inj[1]] = (p * x0i - q0 * x0r) / d0
                if bus.kind == "slack":
                    isr, isi = self.maps.inj_var[(nm, bus.id, ph + "!slack")]
                    self.eq_rows += [rr, ri]
                    self.eq_cols += [isr, isi]
                    self.eq_vals += [1.0, 1.0]
                    for part, (slot, target) in zip(
                            "ri", ((iu, bus.v_set), (iv, 0.0))):
                        row = self._new_eq(nm, f"slack{part}:{bus.id}:{ph}")
                        self._stamp_eq(row, slot, 1.0)
                        self.eqc_rows.append(row)
                        self.eqc_vals.append(-target)
                elif bus.kind == "pv":
                    row = self._new_eq(nm, f"pvmag:{bus.id}:{ph}")
                    self._pv_list.append(dict(row=row, iu=iu, iv=iv,
                                              const=-bus.v_set ** 2))

        if self.source_kind == "current":
            for src in self.sources:
                if src.net != nm:
                    continue
                rr, ri = self.maps.kcl_row[(nm, src.bus, src.phase)]
                self.eq_rows += [rr, ri]
                self.eq_cols += [src.var_index[0], src.var_index[1]]
                self.eq_vals += [-1.0, -1.0]
        elif self.source_kind == "power":
            for src in self.sources:
                if src.net != nm:
                    continue
                rr, ri = self.maps.kcl_row[(nm, src.bus, src.phase)]
                iu, iv = self.maps.v_slot[(nm, src.bus, src.phase)]
                if self.q_only:
                    ip, iq = -1, src.var_index[0]
                else:
                    ip, iq = src.var_index
                self._h_list.append(dict(row=rr, iu=iu, iv=iv, a0=0.0, ia=ip, sa=1.0,
                                         b0=0.0, ib=iq, sb=1.0, sigma=-1.0))
                self._h_list.append(dict(row=ri, iu=iu, iv=iv, a0=0.0, ia=iq, sa=-1.0,
                                         b0=0.0, ib=ip, sb=1.0, sigma=-1.0))
                self.guard_uv.append((iu, iv))
        elif self.source_kind == "admittance":
            for src in self.sources:
                if src.net != nm:
                    continue
                rr, ri = self.maps.kcl_row[(nm, src.bus, src.phase)]
                iu, iv = self.maps.v_slot[(nm, src.bus, src.phase)]
                self._adm_list.append(dict(row_r=rr, row_i=ri, iu=iu, iv=iv,
                                           ig=src.var_index[0], ib=src.var_index[1]))

    def _rows_ports(self):
        for pb in self.ports:
            spec = pb.port.spec
            kappa = pb.port.kappa
            if pb.mode in ("internal", "t_free", "t_draw"):
                tnet = self._net_of_bus(spec.t_bus)
                rr, ri = self.maps.kcl_row[(tnet, spec.t_bus, "1")]
                self.maps.poi_row[pb.key] = [rr, ri]
                if pb.mode == "t_draw":
                    sl = self.param_slots[f"draw:{pb.key}"]
                    self._stamp_eq(rr, -(sl.start) - 1, 1.0)
                    self._stamp_eq(ri, -(sl.start + 1) - 1, 1.0)
                else:
                    it = self.maps.port_tvar[pb.key]
                    self.eq_rows += [rr, ri]
                    self.eq_cols += [it[0], it[1]]
                    self.eq_vals += [1.0, 1.0]
            if pb.mode in ("internal", "d_head"):
                dnet = self._net_of_bus(spec.d_bus)
                idv = self.maps.port_dvar[pb.key]
                for k, ph in enumerate("abc"):
                    rr, ri = self.maps.kcl_row[(dnet, spec.d_bus, ph)]
                    self.eq_rows += [rr, ri]
                    self.eq_cols += [idv[2 * k], idv[2 * k + 1]]
                    self.eq_vals += [-1.0, -1.0]
            if pb.mode == "internal":
                it = self.maps.port_tvar[pb.key]
                idv = self.maps.port_dvar[pb.key]
                owner = f"port:{pb.key}"
                for r, part in enumerate("ri"):
                    row = self._new_eq(owner, f"c1{part}:{pb.key}")
                    self._stamp_eq(row, it[r], 1.0)
                    for cidx in range(6):
                        self._stamp_eq(row, idv[cidx], -_AGG[r, cidx] / (3 * kappa))
                dnet = self._net_of_bus(spec.d_bus)
                tu, tv = self.maps.poi_v[pb.key]
                for k, ph in enumerate("abc"):
                    du, dv = self.maps.v_slot[(dnet, spec.d_bus, ph)]
                    for c, slot in ((0, du), (1, dv)):
                        row = self._new_eq(owner, f"c2{'ri'[c]}:{pb.key}:{ph}")
                        self._stamp_eq(row, slot, 1.0)
                        self._stamp_eq(row, tu, -_DIST[2 * k + c, 0])
                        self._stamp_eq(row, tv, -_DIST[2 * k + c, 1])

    # -- inequality rows --------------------------------------------------------

    def _rows_inequalities(self):
        for net in self.net_list:
            nm = net.name
            for bus in net.buses:
                if bus.kind == "slack" or (nm, bus.id) in self._head_param_buses:
                    continue
                for ph in bus.phases:
                    iu, iv = self.maps.v_slot[(nm, bus.id, ph)]
                    row = self._new_in(nm, f"vlo:{bus.id}:{ph}")
                    self._vmag_list.append(dict(row=row, iu=iu, iv=iv, sign=-1.0,
                                                const=bus.v_min ** 2))
                    row = self._new_in(nm, f"vhi:{bus.id}:{ph}")
                    self._vmag_list.append(dict(row=row, iu=iu, iv=iv, sign=1.0,
                                                const=-bus.v_max ** 2))
            for bidx, br in enumerate(net.branches):
                if br.flow_limit is None:
                    continue
                for oi in range(len(br.phases)):
                    row = self._new_in(
                        nm, f"flow:{bidx}:{br.from_bus}-{br.to_bus}:{br.phases[oi]}")
                    slots, c_r, c_i = [], [], []
                    for oj, ph_j in enumerate(br.phases):
                        g, b = br.g[oi][oj], br.b[oi][oj]
                        fu, fv = self.maps.v_slot[(nm, br.from_bus, ph_j)]
                        tu, tv = self.maps.v_slot[(nm, br.to_bus, ph_j)]
                        slots += [fu, fv, tu, tv]
                        c_r += [g, -b, -g, b]
                        c_i += [b, g, -b, -g]
                    self.flow_rows.append(dict(
                        row=row, slots=np.array(slots, dtype=int),
                        cR=np.array(c_r), cI=np.array(c_i), dR=0.0, dI=0.0,
                        const=-br.flow_limit ** 2))
            for (onet, obus, ph), qvar in self.maps.pv_qvar.items():
                if onet != nm:
                    continue
                bus = net.bus(obus)
                p, q, has, box = self._net_injection(net, bus, ph)
                lo, hi = box
                if np.isfinite(hi):          # q_net >= q_load - q_max
                    row = self._new_in(nm, f"qlo:{obus}:{ph}")
                    self.in_rows.append(row)
                    self.in_cols.append(qvar)
                    self.in_vals.append(-1.0)
                    self.inc_rows.append(row)
                    self.inc_vals.append(q - hi)
                if np.isfinite(lo):          # q_net <= q_load - q_min
                    row = self._new_in(nm, f"qhi:{obus}:{ph}")
                    self.in_rows.append(row)
                    self.in_cols.append(qvar)
                    self.in_vals.append(1.0)
                    self.inc_rows.append(row)
                    self.inc_vals.append(-(q - lo))
        if self.norm == "l1":
            flat = [vi for s in self.sources for vi in s.var_index]
            for svar, tvar in zip(flat, self.epi_idx):
                owner = self.var_owner[svar]
                tag = self.var_label[svar]
                row = self._new_in(owner, f"epi+:{tag}")   # s - t <= 0
                self.in_rows += [row, row]
                self.in_cols += [svar, tvar]
                self.in_vals += [1.0, -1.0]
                row = self._new_in(owner, f"epi-:{tag}")   # -s - t <= 0
                self.in_rows += [row, row]
                self.in_cols += [svar, tvar]
                self.in_vals += [-1.0, -1.0]
                row = self._new_in(owner, f"epi0:{tag}")   # -t <= 0
                self.in_rows.append(row)
                self.in_cols.append(tvar)
                self.in_vals.append(-1.0)

    # -- array exports -----------------------------------------------------------

    def _export(self, lst, fields, int_fields):
        out = {}
        for f_ in fields:
            arr = [d[f_] for d in lst]
            out[f_] = np.array(arr, dtype=int if f_ in int_fields else float)
        return out

    def h_arrays(self):
        return self._export(self._h_list,
                            ("row", "iu", "iv", "a0", "ia", "sa", "b0", "ib", "sb",
                             "sigma"), {"row", "iu", "iv", "ia", "ib"})

    def pv_arrays(self):
        return self._export(self._pv_list, ("row", "iu", "iv", "const"),
                            {"row", "iu", "iv"})

    def vmag_arrays(self):
        return self._export(self._vmag_list, ("row", "iu", "iv", "sign", "const"),
                            {"row", "iu", "iv"})

    def adm_arrays(self):
        return self._export(self._adm_list, ("row_r", "row_i", "iu", "iv", "ig", "ib"),
                            {"row_r", "row_i", "iu", "iv", "ig", "ib"})


def build_problem(nets, ports=(), *, source_kind="current", norm="l2",
                  q_only=False) -> CircuitProblem:
    """Assemble one solvable problem over the given networks and port modes."""
    return CircuitProblem(_Builder(list(nets), list(ports), source_kind, norm, q_only))
