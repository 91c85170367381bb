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
5. per coupling port: transmission-side port current pair, then the
   local head phasor pair of a 'd_phasor' port, then distribution-side
   per-phase port currents (six), as the port mode provides;
6. infeasibility source components per eligible (bus, phase);
7. epigraph auxiliaries, one per source component (L1 objective only).

Every row is evaluated over ``z = [x; params; 0]``: exchange parameter
``j`` is column ``nvar + j`` and an absent slot points at the trailing zero.
A row is a linear part, stamped once on z columns, plus at most one
nonlinear element of three types: current injections (constant-power
devices and power-kind sources), squared magnitudes (PV pins, voltage
bounds, branch-flow limits) and bilinear admittance sources.  Each type
gives its values, Jacobian entries and Hessian entries over z with index
arrays fixed at build time; the x columns feed the solver and the
parameter columns feed :meth:`CircuitProblem.param_derivatives`.
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
#: flat-start voltage angle per phase
_FLAT = {"a": 0.0, "b": -2 * np.pi / 3, "c": 2 * np.pi / 3, "1": 0.0}
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
    mode 'd_phasor': distribution side only; a local positive-sequence head
                     phasor stands in for the POI voltage, tied to the head
                     voltages by the 'internal' port's voltage rows.
    Neither distribution-only mode bounds the head voltages.
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


def partition_cells(nets, couplings, partition: Partition, t_mode: str,
                    d_mode: str):
    """Walk a partition into per-cell builds plus the ports it tears.

    A cell's internal couplings enter in full; a torn port enters its
    transmission cell in ``t_mode`` ('t_draw' or 't_free') and its
    distribution cell in ``d_mode`` ('d_head' or 'd_phasor').  Within a
    cell the internal ports come first, then the torn ports in coupling
    order (the variable layout depends on it).  Returns ``(cells, torn)``
    with ``torn`` a list of ``(key, port, t_cell, d_cell)`` in coupling
    order.
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
                cell.port_builds.append(PortBuild(port, d_mode))
                cell.ports_d.append(port)
        cells.append(cell)
    return cells, torn


# ---------------------------------------------------------------------------
# nonlinear element types


class _Injection:
    """Current-injection rows ``-(a*u + b*v)/(u^2 + v^2)``.

    ``(u, v)`` is a bus voltage; ``a = a0 + sa*z[ia]`` and ``b = b0 + z[ib]``
    are the active and reactive power of a constant-power device or of a
    power-kind source.  One spec per row: ``(row, iu, iv, ia, ib, a0, sa,
    b0)``.
    """

    def __init__(self, specs):
        s = np.array(specs, dtype=float).reshape(-1, 8)
        self.rows, iu, iv, ia, ib = s[:, :5].T.astype(int)
        self.iu, self.iv, self.ia, self.ib = iu, iv, ia, ib
        self.a0, self.sa, self.b0 = s[:, 5:].T
        self.jac_rows = np.concatenate([self.rows] * 4)
        self.jac_cols = np.concatenate([iu, iv, ia, ib])
        self.pairs = [(iu, iu), (iu, iv), (iv, iv), (iu, ia), (iu, ib),
                      (iv, ia), (iv, ib)]

    def _parts(self, z):
        u, v = z[self.iu], z[self.iv]
        a = self.a0 + self.sa * z[self.ia]
        b = self.b0 + z[self.ib]
        return u, v, a, b, u * u + v * v, a * u + b * v

    def values(self, z):
        u, v, a, b, d, g = self._parts(z)
        return -g / d

    def jac_values(self, z):
        u, v, a, b, d, g = self._parts(z)
        return np.concatenate([-(a / d - 2 * u * g / d ** 2),
                               -(b / d - 2 * v * g / d ** 2),
                               -self.sa * u / d, -v / d])

    def hess_values(self, z, lam):
        u, v, a, b, d, g = self._parts(z)
        w = -lam[self.rows]
        d2, d3 = d ** 2, d ** 3
        hub = -2 * u * v / d2
        return np.concatenate([
            w * (-4 * a * u / d2 - 2 * g / d2 + 8 * u * u * g / d3),
            w * (-2 * (a * v + b * u) / d2 + 8 * u * v * g / d3),
            w * (-4 * b * v / d2 - 2 * g / d2 + 8 * v * v * g / d3),
            w * self.sa * (1 / d - 2 * u * u / d2), w * hub,
            w * self.sa * hub, w * (1 / d - 2 * v * v / d2)])


class _SquaredMagnitude:
    """Rows ``sign*((cR.z)^2 + (cI.z)^2) + const``.

    A voltage-magnitude pin or bound is such a row over ``(u, v)`` with
    ``cR = (1, 0)`` and ``cI = (0, 1)``; a branch-flow limit takes the real
    and imaginary parts of the branch current.  Rows come in blocks
    ``(rows, sign, const, cols, cR, cI)`` with ``(m, k)`` coefficient
    arrays.  Within a block the terms and the Hessian pairs run position by
    position over its rows, and the block is one Hessian group; pairs whose
    coefficient ``cR_a cR_b + cI_a cI_b`` is zero are left out.
    """

    def __init__(self, blocks):
        self.rows, self.sign, self.const = (
            np.concatenate([blk[i] for blk in blocks]) for i in range(3))
        self.jac_cols, self._c_r, self._c_i = (
            np.concatenate([blk[i].T.ravel() for blk in blocks]) for i in range(3, 6))
        of, p_of, coef, self.pairs = [], [], [], []
        n = 0
        for _, _, _, bcols, b_r, b_i in blocks:
            m, k = bcols.shape
            of.append(n + np.arange(m * k) % m)
            a, b = np.array([(i, j) for i in range(k) for j in range(i, k)]).T
            c = (b_r[:, a] * b_r[:, b] + b_i[:, a] * b_i[:, b]).T
            pk, rk = np.nonzero(c)
            self.pairs.append((bcols[rk, a[pk]], bcols[rk, b[pk]]))
            p_of.append(n + rk)
            coef.append(c[pk, rk])
            n += m
        self._of, self._p_of, self._coef = (np.concatenate(a) for a in (of, p_of, coef))
        self.jac_rows = self.rows[self._of]

    def _components(self, z):
        zt = z[self.jac_cols]
        n = len(self.rows)
        return (np.bincount(self._of, self._c_r * zt, n),
                np.bincount(self._of, self._c_i * zt, n))

    def values(self, z):
        cr, ci = self._components(z)
        return self.sign * (cr * cr + ci * ci) + self.const

    def jac_values(self, z):
        cr, ci = self._components(z)
        t = self._of
        return self.sign[t] * (2 * cr[t] * self._c_r + 2 * ci[t] * self._c_i)

    def hess_values(self, z, mult):
        w = mult[self.rows] * self.sign
        return 2 * w[self._p_of] * self._coef


class _Admittance:
    """Row pairs ``-(G u - B v)`` and ``-(G v + B u)``: an admittance-kind
    source ``(G, B) = (z[ig], z[ib])`` drawing current at ``(u, v)``.  One
    spec per source: ``(row_r, row_i, iu, iv, ig, ib)``."""

    def __init__(self, specs):
        rr, ri, iu, iv, ig, ib = np.array(specs, dtype=int).reshape(-1, 6).T
        self.row_r, self.row_i, self.iu, self.iv, self.ig, self.ib = rr, ri, iu, iv, ig, ib
        self.rows = np.concatenate([rr, ri])
        self.jac_rows = np.concatenate([rr, rr, ri, ri, rr, ri, rr, ri])
        self.jac_cols = np.concatenate([ig, ib, ig, ib, iu, iu, iv, iv])
        self.pairs = [(iu, ig), (iu, ib), (iv, ib), (iv, ig)]

    def _parts(self, z):
        return z[self.iu], z[self.iv], z[self.ig], z[self.ib]

    def values(self, z):
        u, v, gs, bs = self._parts(z)
        return np.concatenate([-(gs * u - bs * v), -(gs * v + bs * u)])

    def jac_values(self, z):
        u, v, gs, bs = self._parts(z)
        return np.concatenate([-u, v, -v, -u, -gs, -bs, bs, -gs])

    def hess_values(self, z, lam):
        wr, wi = lam[self.row_r], lam[self.row_i]
        return np.concatenate([-wr, -wi, wr, -wi])


def _voltage_block(specs):
    """``|V|^2`` rows ``(row, iu, iv, sign, const)`` as one squared-magnitude block."""
    s = np.array(specs, dtype=float).reshape(-1, 5)
    m = len(s)
    return (s[:, 0].astype(int), s[:, 3], s[:, 4], s[:, 1:3].astype(int),
            np.zeros((m, 2)) + (1.0, 0.0), np.zeros((m, 2)) + (0.0, 1.0))


def _select(src, rows, cols, keep, row0=0, col0=0):
    """The ``keep`` entries of a fixed scatter ``vals[src] -> (rows, cols)``."""
    keep = np.flatnonzero(keep)
    return src[keep], rows[keep] - row0, cols[keep] - col0


class _FixedCSR:
    """A CSR pattern fixed at build time from the entries ``vals[src] ->
    (rows, cols)``; each call scatters new values into it, keeping every
    entry (duplicates included), so the pattern depends on the build only."""

    def __init__(self, src, rows, cols, shape):
        order = np.lexsort((cols, rows))
        # int32, the index type scipy picks at these sizes, spares its
        # per-call scan of the index arrays
        self.src, self.indices = src[order], cols[order].astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=shape[0]))]).astype(np.int32)
        self.shape = shape

    def __call__(self, vals):
        return sp.csr_matrix((vals[self.src], self.indices, self.indptr), shape=self.shape)


# ---------------------------------------------------------------------------
# assembled problem


class CircuitProblem:
    """Residuals, Jacobians and Lagrangian Hessian of one assembled problem.

    Every row is evaluated over ``z = [x; params; 0]``: a linear part
    stamped on z columns plus the nonlinear element rows.  ``residual_*``,
    ``jac_*`` and ``hess_lagrangian`` read the x columns,
    :meth:`param_derivatives` the parameter columns.  The sparsity
    patterns are fixed after assembly.
    """

    def __init__(self, builder: "_Builder"):
        b = builder
        self.nvar = nx = b.nvar
        self.n_eq = b.n_eq
        self.n_in = b.n_in
        self.nets = b.nets
        self.norm = b.norm
        self.source_kind = b.source_kind
        self.q_only = b.q_only
        self.sources: list[InfeasibilitySource] = b.sources
        self.var_label = b.var_label
        self.eq_label = b.eq_label
        self.in_label = b.in_label
        self.param_slots: dict[str, slice] = b.param_slots
        self.n_param = npar = b.n_param
        self.params = np.zeros(b.n_param)
        self.maps = b.maps

        # linear equality part [A | B] over z, split by column
        rows, cols = (np.asarray(a, dtype=int) for a in (b.eq_rows, b.eq_cols))
        vals = np.asarray(b.eq_vals, dtype=float)
        on_x = cols < nx
        self._A_eq = sp.csr_matrix((vals[on_x], (rows[on_x], cols[on_x])),
                                   shape=(self.n_eq, nx))
        self._B_eq = sp.csr_matrix((vals[~on_x], (rows[~on_x], cols[~on_x] - nx)),
                                   shape=(self.n_eq, npar))
        self._b_eq = np.zeros(self.n_eq)
        np.add.at(self._b_eq, b.eqc_rows, b.eqc_vals)
        self._A_in = sp.csr_matrix(
            (b.in_vals, (b.in_rows, b.in_cols)), shape=(self.n_in, nx))
        self._b_in = np.zeros(self.n_in)
        np.add.at(self._b_in, b.inc_rows, b.inc_vals)

        self._inj = _Injection(b.inj)
        self._eq = [self._inj] + (
            [_SquaredMagnitude([_voltage_block(b.pv)])] if b.pv else []) + (
            [_Admittance(b.adm)] if b.adm else [])
        self._in = [_SquaredMagnitude([_voltage_block(b.vmag)] + b.flows)]
        self._src_idx = np.array([i for s in self.sources for i in s.var_index],
                                 dtype=int)
        self._epi_idx = np.asarray(b.epi_idx, dtype=int)
        self._price_pairs = np.asarray(b.price_pairs, dtype=int).reshape(-1, 2)
        self._x0 = np.asarray(b.x0_vals)

        def on_p(c):
            return (c >= nx) & (c < nx + npar)

        # Jacobian entries, split into x and parameter columns
        def jac_entries(elems, n_rows, b_rows, b_cols):
            """x entries, and the fixed parameter block that also holds the
            linear entries at ``(b_rows, b_cols)`` (their values follow the
            element values)."""
            rows, cols = (np.concatenate([getattr(e, k) for e in elems])
                          for k in ("jac_rows", "jac_cols"))
            src = np.arange(len(rows) + len(b_rows))
            src_p, rows_p, cols_p = _select(src, rows, cols, on_p(cols), col0=nx)
            return (_select(src, rows, cols, cols < nx), _FixedCSR(
                np.concatenate([src[len(rows):], src_p]), np.concatenate([b_rows, rows_p]),
                np.concatenate([b_cols, cols_p]), (n_rows, npar)))
        B = self._B_eq
        self._jac_eq = jac_entries(self._eq, self.n_eq, np.repeat(
            np.arange(self.n_eq), np.diff(B.indptr)), B.indices)
        self._jac_in = jac_entries(self._in, self.n_in, *np.zeros((2, 0), int))

        # Lagrangian Hessian pairs in emission order: the objective (L2
        # squares, then the bilinear price terms), then each element group.
        # A group emits its pairs, then the mirror images of its off-diagonal
        # pairs.  The order fixes how duplicate entries sum, and so the
        # rounding of W; W drops exact zeros, the parameter blocks keep them.
        groups = [(self._src_idx, self._src_idx)] if self.norm == "l2" else []
        groups.append((self._price_pairs[:, 0], nx + self._price_pairs[:, 1]))
        self._obj_hess = np.ones(sum(len(i) for i, _ in groups))
        groups += [g for e in self._eq + self._in for g in e.pairs]
        pi, pj = (np.concatenate([g[k] for g in groups]) for k in (0, 1))
        #: z columns that some row holds nonlinearly (in a Hessian pair)
        self.nonlinear_cols = np.union1d(pi[len(self._obj_hess):],
                                         pj[len(self._obj_hess):])
        gid = np.repeat(np.arange(len(groups)), [len(i) for i, _ in groups])
        src = np.concatenate([np.arange(len(pi)), np.flatnonzero(pi != pj)])
        mirror = np.arange(len(src)) >= len(pi)
        order = np.lexsort((mirror, gid[src]))
        src, mirror = src[order], mirror[order]
        rows = np.where(mirror, pj[src], pi[src])
        cols = np.where(mirror, pi[src], pj[src])
        self._hess_xx = _select(src, rows, cols, (rows < nx) & (cols < nx))
        self._hess_xp = _FixedCSR(*_select(src, rows, cols, (rows < nx) & on_p(cols),
                                           col0=nx), (nx, npar))
        self._hess_pp = _FixedCSR(*_select(src, rows, cols, on_p(rows) & on_p(cols),
                                           nx, nx), (npar, npar))

    # -- parameter handling ------------------------------------------------

    def set_params(self, name: str, values):
        self.params[self.param_slots[name]] = np.asarray(values, dtype=float)

    def get_params(self, name: str):
        return self.params[self.param_slots[name]].copy()

    def x0(self) -> np.ndarray:
        return self._x0.copy()

    # -- evaluation over z ---------------------------------------------------

    def _z(self, x):
        return np.concatenate([x, self.params, [0.0]])

    def _jac_values(self, elems, z):
        return np.concatenate([e.jac_values(z) for e in elems])

    def _hess_values(self, z, lam, mu):
        return np.concatenate([self._obj_hess]
                              + [e.hess_values(z, lam) for e in self._eq]
                              + [e.hess_values(z, mu) for e in self._in])

    def _residual(self, r, elems, x):
        z = self._z(x)
        for e in elems:
            np.add.at(r, e.rows, e.values(z))
        return r

    def _jacobian(self, A, elems, entries, x):
        src, rows, cols = entries
        vals = self._jac_values(elems, self._z(x))[src]
        return A + sp.csr_matrix((vals, (rows, cols)), shape=A.shape)

    def interior_ok(self, x) -> bool:
        """Voltage-magnitude guard for all current-injection denominators."""
        z = self._z(x)
        u, v = z[self._inj.iu], z[self._inj.iv]
        return bool(np.min(u * u + v * v, initial=np.inf) >= DELTA_V)

    # -- objective ----------------------------------------------------------

    def objective(self, x) -> float:
        f = 0.0
        if self.norm == "l2" and len(self._src_idx):
            s = x[self._src_idx]
            f += 0.5 * float(s @ s)
        elif self.norm == "l1" and len(self._epi_idx):
            f += float(x[self._epi_idx].sum())
        return f + float(self.params[self._price_pairs[:, 1]] @ x[self._price_pairs[:, 0]])

    def grad_objective(self, x) -> np.ndarray:
        g = np.zeros(self.nvar)
        if self.norm == "l2" and len(self._src_idx):
            g[self._src_idx] = x[self._src_idx]
        elif self.norm == "l1" and len(self._epi_idx):
            g[self._epi_idx] = 1.0
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

    # -- constraints ---------------------------------------------------------

    def residual_eq(self, x) -> np.ndarray:
        r = self._A_eq @ x + self._b_eq
        if self.n_param:
            r += self._B_eq @ self.params
        return self._residual(r, self._eq, x)

    def jac_eq(self, x) -> sp.csr_matrix:
        return self._jacobian(self._A_eq, self._eq, self._jac_eq[0], x)

    def residual_in(self, x) -> np.ndarray:
        return self._residual(self._A_in @ x + self._b_in, self._in, x)

    def jac_in(self, x) -> sp.csr_matrix:
        return self._jacobian(self._A_in, self._in, self._jac_in[0], x)

    # -- Lagrangian derivatives ------------------------------------------------

    def hess_lagrangian(self, x, lam, mu) -> sp.csr_matrix:
        """W = obj Hessian + sum lam_i H(eq_i) + sum mu_j H(in_j), exactly symmetric."""
        src, rows, cols = self._hess_xx
        v = self._hess_values(self._z(x), lam, mu)[src]
        keep = v != 0.0
        return sp.csr_matrix((v[keep], (rows[keep], cols[keep])),
                             shape=(self.nvar, self.nvar))

    def param_derivatives(self, x, lam, mu):
        """Parameter blocks of the KKT derivatives at ``(x, lam, mu)``.

        Returns ``(W_xp, W_pp, Jc_p, Jg_p)``: the mixed and the pure
        parameter blocks of the Lagrangian Hessian and the parameter columns
        of the equality and inequality Jacobians.  Every pattern is fixed by
        the build (no entry is dropped for being zero), so ``W_xp`` or
        ``W_pp`` has an entry in a parameter's column exactly when that
        parameter prices the objective or enters a row nonlinearly.
        """
        z = self._z(x)
        h = self._hess_values(z, lam, mu)
        return (self._hess_xp(h), self._hess_pp(h), *self._param_jacobians(z))

    def _param_jacobians(self, z):
        """Parameter columns ``(Jc_p, Jg_p)`` of the two Jacobians at ``z``."""
        return (self._jac_eq[1](np.concatenate([self._jac_values(self._eq, z),
                                                self._B_eq.data])),
                self._jac_in[1](self._jac_values(self._in, z)))

    def param_lagrangian_grad(self, x, lam, mu, name: str) -> np.ndarray:
        """Gradient of the Lagrangian with respect to one parameter block.

        This is the marginal value of an exchange parameter (e.g. the fixed
        head voltages of a torn feeder) to this cell's optimum, used by the
        coordinator to price boundary quantities on the other side.
        """
        Jc_p, Jg_p = self._param_jacobians(self._z(x))
        grad = Jc_p.T @ lam + Jg_p.T @ mu
        np.add.at(grad, self._price_pairs[:, 1], x[self._price_pairs[:, 0]])
        return grad[self.param_slots[name]]


# ---------------------------------------------------------------------------
# builder


@dataclass
class IndexMaps:
    """Lookup tables produced during assembly (variable/row bookkeeping)."""
    v_slot: dict = field(default_factory=dict)       # (net,bus,ph) -> (iu, iv) z columns
    kcl_row: dict = field(default_factory=dict)      # (net,bus,ph) -> (rowR, rowI)
    port_tvar: dict = field(default_factory=dict)    # port key -> (2,) indices
    port_dvar: dict = field(default_factory=dict)    # port key -> (6,) indices
    # port key -> POI voltage [iu, iv] slots; a 'd_phasor' port's head phasor
    poi_v: dict = field(default_factory=dict)
    poi_row: dict = field(default_factory=dict)      # port key -> POI balance [rowR, rowI]
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
        self.var_label: list[str] = []
        self.eq_label: list[str] = []
        self.in_label: list[str] = []
        self.param_slots: dict[str, slice] = {}
        self.x0_vals: list[float] = []
        self.maps = IndexMaps()
        self.sources: list[InfeasibilitySource] = []

        self.eq_rows, self.eq_cols, self.eq_vals = [], [], []
        self.eqc_rows, self.eqc_vals = [], []
        self.in_rows, self.in_cols, self.in_vals = [], [], []
        self.inc_rows, self.inc_vals = [], []
        # nonlinear element specs (see the element types)
        self.inj, self.pv, self.adm, self.vmag, self.flows = [], [], [], [], []
        self.epi_idx: list[int] = []
        self.price_pairs: list[tuple[int, int]] = []

        # torn feeder heads (net, bus) -> port build: their voltages are not
        # bounded, and those of a 'd_head' port are exchange parameters
        self._heads = {(self._net_of_bus(pb.port.spec.d_bus), pb.port.spec.d_bus): pb
                       for pb in self.ports if pb.mode in ("d_head", "d_phasor")}
        self._head_param_buses = {nb: pb.key for nb, pb in self._heads.items()
                                  if pb.mode == "d_head"}
        self._build()

    # -- small allocation helpers -------------------------------------------

    def _net_of_bus(self, bus_id):
        for net in self.net_list:
            if net.has_bus(bus_id):
                return net.name
        raise KeyError(bus_id)

    def _new_var(self, label, x0):
        self.var_label.append(label)
        self.x0_vals.append(x0)
        self.nvar += 1
        return self.nvar - 1

    def _new_eq(self, label=""):
        self.eq_label.append(label)
        self.n_eq += 1
        return self.n_eq - 1

    def _new_in(self, label=""):
        self.in_label.append(label)
        self.n_in += 1
        return self.n_in - 1

    def _new_params(self, name, count):
        self.param_slots[name] = slice(self.n_param, self.n_param + count)
        self.n_param += count
        return self.param_slots[name]

    def _stamp_eq(self, row, col, val):
        """Stamp a linear coefficient on a z column (variable or parameter)."""
        if val != 0.0:
            self.eq_rows.append(row)
            self.eq_cols.append(col)
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
        self._alloc_params()
        for net in self.net_list:
            self._rows_network(net)
        self._rows_ports()
        self._rows_inequalities()

    def _alloc_voltages(self, net):
        for bus in net.buses:
            if (net.name, bus.id) in self._head_param_buses:
                continue            # exchange parameters (_alloc_params)
            for ph in bus.phases:
                # flat start: unit magnitude everywhere (balanced
                # rotations on feeders), so branch flows begin at zero
                iu = self._new_var(f"vr:{bus.id}:{ph}", np.cos(_FLAT[ph]))
                iv = self._new_var(f"vi:{bus.id}:{ph}", np.sin(_FLAT[ph]))
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
                ir = self._new_var(f"ir:{bus.id}:{ph}", 0.0)
                ii = self._new_var(f"ii:{bus.id}:{ph}", 0.0)
                self.maps.inj_var[(net.name, bus.id, ph)] = (ir, ii)

    def _alloc_slack_and_pv(self, net):
        for bus in net.buses:
            if bus.kind == "slack":
                for ph in bus.phases:
                    self.maps.inj_var.setdefault((net.name, bus.id, ph + "!slack"), (
                        self._new_var(f"isr:{bus.id}:{ph}", 0.0),
                        self._new_var(f"isi:{bus.id}:{ph}", 0.0)))
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
                        f"q:{bus.id}:{ph}", q - qg0)

    def _alloc_ports(self):
        for pb in self.ports:
            spec = pb.port.spec
            if pb.mode in ("internal", "t_free", "t_draw"):
                tnet = self._net_of_bus(spec.t_bus)
                self.maps.poi_v[pb.key] = list(
                    self.maps.v_slot[(tnet, spec.t_bus, "1")])
            if pb.mode in ("internal", "t_free"):
                self.maps.port_tvar[pb.key] = [self._new_var(f"itr:{pb.key}", 0.0),
                                               self._new_var(f"iti:{pb.key}", 0.0)]
            if pb.mode == "d_phasor":      # flat start: the unit phasor
                self.maps.poi_v[pb.key] = [self._new_var(f"vpr:{pb.key}", 1.0),
                                           self._new_var(f"vpi:{pb.key}", 0.0)]
            if pb.mode in ("internal", "d_head", "d_phasor"):
                self.maps.port_dvar[pb.key] = [
                    self._new_var(f"id{ph}{c}:{pb.key}", 0.0)
                    for ph in "abc" for c in ("r", "i")]

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
                    idx = tuple(self._new_var(f"s{c}:{bus.id}:{ph}", 0.0)
                                for c in comps)
                    src = InfeasibilitySource(net.name, bus.id, ph,
                                              self.source_kind, comps, idx)
                    self.sources.append(src)
        if self.norm == "l1":
            for src in self.sources:
                for c, vi in zip(src.components, src.var_index):
                    self.epi_idx.append(self._new_var(f"t:{self.var_label[vi]}", 0.1))

    def _alloc_params(self):
        """Exchange parameters, after every variable: parameter j is z column
        nvar + j, and column nvar + n_param holds the constant zero."""
        for net in self.net_list:
            for bus in net.buses:
                key = self._head_param_buses.get((net.name, bus.id))
                if key is None:
                    continue
                base = self.nvar + self._new_params(f"headv:{key}", 6).start
                for ph in bus.phases:
                    off = base + 2 * "abc".index(ph)
                    self.maps.v_slot[(net.name, bus.id, ph)] = (off, off + 1)
        for pb in self.ports:
            if pb.mode == "t_draw":
                self._new_params(f"draw:{pb.key}", 2)
                # POI-voltage price fed back from the distribution cell
                sl = self._new_params(f"vprice:{pb.key}", 2)
                tu, tv = self.maps.poi_v[pb.key]
                self.price_pairs += [(tu, sl.start), (tv, sl.start + 1)]
            if pb.mode == "d_head":
                # port-current prices from the transmission dual
                sl = self._new_params(f"price:{pb.key}", 6)
                for off, var in enumerate(self.maps.port_dvar[pb.key]):
                    self.price_pairs.append((var, sl.start + off))
        self.zero = self.nvar + self.n_param

    # -- equality rows ---------------------------------------------------------

    def _rows_network(self, net):
        nm = net.name
        for bus in net.buses:
            for ph in bus.phases:
                rr = self._new_eq(f"kclr:{bus.id}:{ph}")
                ri = self._new_eq(f"kcli:{bus.id}:{ph}")
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
                    self._stamp_eq(rr, inj[0], 1.0)
                    self._stamp_eq(ri, inj[1], 1.0)
                    # ... defined by the constant-power relation
                    dr = self._new_eq(f"defr:{bus.id}:{ph}")
                    di = self._new_eq(f"defi:{bus.id}:{ph}")
                    self._stamp_eq(dr, inj[0], 1.0)
                    self._stamp_eq(di, inj[1], 1.0)
                    qvar = self.maps.pv_qvar.get((nm, bus.id, ph))
                    x0r, x0i = np.cos(_FLAT[ph]), np.sin(_FLAT[ph])   # flat start
                    # a PV bus's net reactive demand is a variable
                    qcol, qr, qi = ((self.zero, q, -q) if qvar is None
                                    else (qvar, 0.0, 0.0))
                    self.inj += [(dr, iu, iv, self.zero, qcol, p, 1.0, qr),
                                 (di, iu, iv, qcol, self.zero, qi, -1.0, p)]
                    # start injection currents consistent with the flat voltages
                    d0 = x0r * x0r + x0i * x0i
                    q0 = q if qvar is None else self.x0_vals[qvar]
                    self.x0_vals[inj[0]] = (p * x0r + q0 * x0i) / d0
                    self.x0_vals[inj[1]] = (p * x0i - q0 * x0r) / d0
                if bus.kind == "slack":
                    isr, isi = self.maps.inj_var[(nm, bus.id, ph + "!slack")]
                    self._stamp_eq(rr, isr, 1.0)
                    self._stamp_eq(ri, isi, 1.0)
                    for part, (slot, target) in zip(
                            "ri", ((iu, bus.v_set), (iv, 0.0))):
                        row = self._new_eq(f"slack{part}:{bus.id}:{ph}")
                        self._stamp_eq(row, slot, 1.0)
                        self.eqc_rows.append(row)
                        self.eqc_vals.append(-target)
                elif bus.kind == "pv":
                    row = self._new_eq(f"pvmag:{bus.id}:{ph}")
                    self.pv.append((row, iu, iv, 1.0, -bus.v_set ** 2))

        if self.source_kind == "current":
            for src in self.sources:
                if src.net != nm:
                    continue
                rr, ri = self.maps.kcl_row[(nm, src.bus, src.phase)]
                self._stamp_eq(rr, src.var_index[0], -1.0)
                self._stamp_eq(ri, src.var_index[1], -1.0)
        elif self.source_kind == "power":
            for src in self.sources:
                if src.net != nm:
                    continue
                rr, ri = self.maps.kcl_row[(nm, src.bus, src.phase)]
                iu, iv = self.maps.v_slot[(nm, src.bus, src.phase)]
                if self.q_only:
                    ip, iq = self.zero, src.var_index[0]
                else:
                    ip, iq = src.var_index
                self.inj += [(rr, iu, iv, ip, iq, 0.0, 1.0, 0.0),
                             (ri, iu, iv, iq, ip, 0.0, -1.0, 0.0)]
        elif self.source_kind == "admittance":
            for src in self.sources:
                if src.net != nm:
                    continue
                rr, ri = self.maps.kcl_row[(nm, src.bus, src.phase)]
                iu, iv = self.maps.v_slot[(nm, src.bus, src.phase)]
                self.adm.append((rr, ri, iu, iv, *src.var_index))

    def _rows_ports(self):
        for pb in self.ports:
            spec = pb.port.spec
            kappa = pb.port.kappa
            if pb.mode in ("internal", "t_free", "t_draw"):
                tnet = self._net_of_bus(spec.t_bus)
                rr, ri = self.maps.kcl_row[(tnet, spec.t_bus, "1")]
                self.maps.poi_row[pb.key] = [rr, ri]
                if pb.mode == "t_draw":      # the draw is an exchange parameter
                    col = self.nvar + self.param_slots[f"draw:{pb.key}"].start
                    it = (col, col + 1)
                else:
                    it = self.maps.port_tvar[pb.key]
                self._stamp_eq(rr, it[0], 1.0)
                self._stamp_eq(ri, it[1], 1.0)
            if pb.mode in ("internal", "d_head", "d_phasor"):
                dnet = self._net_of_bus(spec.d_bus)
                idv = self.maps.port_dvar[pb.key]
                for k, ph in enumerate("abc"):
                    rr, ri = self.maps.kcl_row[(dnet, spec.d_bus, ph)]
                    self._stamp_eq(rr, idv[2 * k], -1.0)
                    self._stamp_eq(ri, idv[2 * k + 1], -1.0)
            if pb.mode == "internal":
                it = self.maps.port_tvar[pb.key]
                idv = self.maps.port_dvar[pb.key]
                for r, part in enumerate("ri"):
                    row = self._new_eq(f"c1{part}:{pb.key}")
                    self._stamp_eq(row, it[r], 1.0)
                    for cidx in range(6):
                        self._stamp_eq(row, idv[cidx], -_AGG[r, cidx] / (3 * kappa))
            if pb.mode in ("internal", "d_phasor"):
                # the head voltages are the balanced expansion of the POI
                # voltage, or of a 'd_phasor' port's local phasor
                dnet = self._net_of_bus(spec.d_bus)
                tu, tv = self.maps.poi_v[pb.key]
                for k, ph in enumerate("abc"):
                    du, dv = self.maps.v_slot[(dnet, spec.d_bus, ph)]
                    for c, slot in ((0, du), (1, dv)):
                        row = self._new_eq(f"c2{'ri'[c]}:{pb.key}:{ph}")
                        self._stamp_eq(row, slot, 1.0)
                        self._stamp_eq(row, tu, -_DIST[2 * k + c, 0])
                        self._stamp_eq(row, tv, -_DIST[2 * k + c, 1])

    # -- inequality rows --------------------------------------------------------

    def _rows_inequalities(self):
        for net in self.net_list:
            nm = net.name
            for bus in net.buses:
                if bus.kind == "slack" or (nm, bus.id) in self._heads:
                    continue
                for ph in bus.phases:
                    iu, iv = self.maps.v_slot[(nm, bus.id, ph)]
                    row = self._new_in(f"vlo:{bus.id}:{ph}")
                    self.vmag.append((row, iu, iv, -1.0, bus.v_min ** 2))
                    row = self._new_in(f"vhi:{bus.id}:{ph}")
                    self.vmag.append((row, iu, iv, 1.0, -bus.v_max ** 2))
            for bidx, br in enumerate(net.branches):
                if br.flow_limit is None:
                    continue
                for oi in range(len(br.phases)):
                    row = self._new_in(
                        f"flow:{bidx}:{br.from_bus}-{br.to_bus}:{br.phases[oi]}")
                    slots, c_r, c_i = [], [], []
                    for oj, ph_j in enumerate(br.phases):
                        g, b = br.g[oi][oj], br.b[oi][oj]
                        fu, fv = self.maps.v_slot[(nm, br.from_bus, ph_j)]
                        tu, tv = self.maps.v_slot[(nm, br.to_bus, ph_j)]
                        slots += [fu, fv, tu, tv]
                        c_r += [g, -b, -g, b]
                        c_i += [b, g, -b, -g]
                    self.flows.append((np.array([row]), np.ones(1),
                                       np.array([-br.flow_limit ** 2]),
                                       np.array([slots]), np.array([c_r]),
                                       np.array([c_i])))
            for (onet, obus, ph), qvar in self.maps.pv_qvar.items():
                if onet != nm:
                    continue
                bus = net.bus(obus)
                p, q, has, box = self._net_injection(net, bus, ph)
                lo, hi = box
                if np.isfinite(hi):          # q_net >= q_load - q_max
                    row = self._new_in(f"qlo:{obus}:{ph}")
                    self.in_rows.append(row)
                    self.in_cols.append(qvar)
                    self.in_vals.append(-1.0)
                    self.inc_rows.append(row)
                    self.inc_vals.append(q - hi)
                if np.isfinite(lo):          # q_net <= q_load - q_min
                    row = self._new_in(f"qhi:{obus}:{ph}")
                    self.in_rows.append(row)
                    self.in_cols.append(qvar)
                    self.in_vals.append(1.0)
                    self.inc_rows.append(row)
                    self.inc_vals.append(-(q - lo))
        if self.norm == "l1":
            flat = [vi for s in self.sources for vi in s.var_index]
            for svar, tvar in zip(flat, self.epi_idx):
                tag = self.var_label[svar]
                row = self._new_in(f"epi+:{tag}")   # s - t <= 0
                self.in_rows += [row, row]
                self.in_cols += [svar, tvar]
                self.in_vals += [1.0, -1.0]
                row = self._new_in(f"epi-:{tag}")   # -s - t <= 0
                self.in_rows += [row, row]
                self.in_cols += [svar, tvar]
                self.in_vals += [-1.0, -1.0]
                row = self._new_in(f"epi0:{tag}")   # -t <= 0
                self.in_rows.append(row)
                self.in_cols.append(tvar)
                self.in_vals.append(-1.0)


def build_problem(nets, ports=(), *, source_kind="current", norm="l2",
                  q_only=False) -> CircuitProblem:
    """Assemble one solvable problem over the given networks and port modes."""
    return CircuitProblem(_Builder(list(nets), list(ports), source_kind, norm, q_only))
