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


class FixedMatrix:
    """A sparse matrix on a CSR pattern fixed at build time: its ``data``,
    plus the pattern's ``indices``, ``indptr`` and ``rows`` (the row of each
    entry), int32 arrays that every matrix of the pattern shares.

    ``A @ x`` and :meth:`transpose_times` take a 1-D or 2-D operand (a
    column per product) and are bincounts over the stored entries: each
    output entry is summed in entry order from 0.0, as scipy's CSR and
    transposed products sum it, so both agree with scipy's bit for bit.
    :meth:`tocsr` (sharing the arrays) and :meth:`toarray` give scipy and
    dense forms for tests and diagnostics; the solver never needs them.
    """
    __slots__ = ("data", "indices", "indptr", "rows", "shape")

    def __init__(self, data, indices, indptr, rows, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.rows, self.shape = rows, shape

    @classmethod
    def of(cls, M) -> "FixedMatrix":
        """``M`` itself, or the entries of another matrix as scipy's CSR
        form of it stores them."""
        if isinstance(M, cls):
            return M
        M = sp.csr_matrix(M)
        rows = np.repeat(np.arange(M.shape[0], dtype=np.int32), np.diff(M.indptr))
        return cls(M.data, M.indices, M.indptr, rows, M.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __matmul__(self, x) -> np.ndarray:
        return _sum_products(self.rows, self.data, x[self.indices], self.shape[0])

    def transpose_times(self, y) -> np.ndarray:
        """``A.T @ y`` without a transposed matrix."""
        return _sum_products(self.indices, self.data, y[self.rows], self.shape[1])

    def tocsr(self) -> sp.csr_matrix:
        """A scipy CSR matrix sharing this matrix's arrays."""
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def toarray(self) -> np.ndarray:
        return self.tocsr().toarray()


def _sum_products(bins, data, vals, n):
    """``out[b] = sum of data[k] * vals[k] over the entries k in bin b``, in
    entry order from 0.0; ``vals`` 1-D, or 2-D with a column per product."""
    if vals.ndim == 1:
        return np.bincount(bins, data * vals, n)
    terms = data[:, None] * vals
    out = np.empty((n, vals.shape[1]))
    for k in range(vals.shape[1]):
        out[:, k] = np.bincount(bins, terms[:, k], n)
    return out


class _FixedCSR:
    """A CSR pattern fixed at build time from the entries ``vals[src] ->
    (rows, cols)``.  Each call sums new values into it with one
    ``np.bincount``, duplicates in entry order, and keeps zero sums, so the
    pattern depends on the build only; it returns a :class:`FixedMatrix`."""

    def __init__(self, src, rows, cols, shape):
        n_rows, n_cols = shape
        pos, slot = np.unique(np.asarray(rows, dtype=np.int64) * n_cols + cols,
                              return_inverse=True)
        # int32, the index type scipy picks at these sizes, keeps the maps
        # small and lets scipy take the index arrays without a scan
        self.src, self.slot = src.astype(np.int32), slot.astype(np.int32)
        self.rows, self.indices = (a.astype(np.int32) for a in np.divmod(pos, n_cols))
        self.indptr = np.searchsorted(pos, np.arange(n_rows + 1) * n_cols).astype(np.int32)
        self.shape = shape

    def __call__(self, vals) -> FixedMatrix:
        data = np.bincount(self.slot, vals[self.src], len(self.indices))
        return FixedMatrix(data, self.indices, self.indptr, self.rows, self.shape)


def _empty(shape) -> FixedMatrix:
    """A matrix of ``shape`` with no entries."""
    none = np.zeros(0, dtype=np.int32)
    return FixedMatrix(np.zeros(0), none, np.zeros(shape[0] + 1, dtype=np.int32),
                       none, shape)


# ---------------------------------------------------------------------------
# assembled problem


class CircuitProblem:
    """Residuals, Jacobians and Lagrangian Hessian of one assembled problem.

    Every row is evaluated over ``z = [x; params; 0]``: a linear part
    stamped on z columns plus the nonlinear element rows.  ``residual_*``,
    ``jac_*`` and ``hess_lagrangian`` read the x columns,
    :meth:`param_derivatives` the parameter columns.  Every matrix is a
    :class:`FixedMatrix` on a :class:`_FixedCSR` pattern, so its sparsity
    pattern is fixed by the build.  A problem without exchange parameters
    builds no parameter-column pattern.
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

        def on_p(c):
            return (c >= nx) & (c < nx + npar)

        # linear parts over z: the equalities' [A | B] (the branch blocks,
        # then the scalar stamps), the inequalities' A, and their constants
        (eq_stamps, self._b_eq), (in_stamps, self._b_in) = b.table("eq"), b.table("in")
        rows, cols, vals = (np.concatenate(a) for a in zip(*b.eq_blocks, eq_stamps))
        src = np.arange(len(rows))
        self._A_eq = _FixedCSR(*_select(src, rows, cols, cols < nx),
                               (self.n_eq, nx))(vals)
        self._B_eq = (_FixedCSR(*_select(src, rows, cols, on_p(cols), col0=nx),
                                (self.n_eq, npar))(vals) if npar else None)
        rows, cols, vals = in_stamps
        self._A_in = _FixedCSR(np.arange(len(rows)), rows, cols, (self.n_in, nx))(vals)

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

        def jacobian(elems, linear):
            """x and parameter blocks (None without parameters) over the
            entries of the linear parts (``(matrix, first z column)``
            pairs, valued by their ``data``), then the elements' (see
            :meth:`_jac_values`)."""
            rows = np.concatenate([M.rows for M, _ in linear]
                                  + [e.jac_rows for e in elems])
            cols = np.concatenate([M.indices + c0 for M, c0 in linear]
                                  + [e.jac_cols for e in elems])
            src, n_rows = np.arange(len(rows)), linear[0][0].shape[0]
            return (_FixedCSR(*_select(src, rows, cols, cols < nx), (n_rows, nx)),
                    _FixedCSR(*_select(src, rows, cols, on_p(cols), col0=nx),
                              (n_rows, npar)) if npar else None)
        eq_linear = [(self._A_eq, 0)] + ([(self._B_eq, nx)] if npar else [])
        self._jac_eq = jacobian(self._eq, eq_linear)
        self._jac_in = jacobian(self._in, [(self._A_in, 0)])
        self._eq_lin = np.concatenate([M.data for M, _ in eq_linear])

        # Lagrangian Hessian pairs in emission order: the objective (L2
        # squares, then the bilinear price terms), then each element group.
        # A group emits its pairs, then the mirror images of its off-diagonal
        # pairs.  The order fixes how duplicate entries sum, and so the
        # rounding of W.
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
        self._hess_xx = _FixedCSR(*_select(src, rows, cols, (rows < nx) & (cols < nx)),
                                  (nx, nx))
        if npar:
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

    def _jac_values(self, lin, elems, z):
        return np.concatenate([lin] + [e.jac_values(z) for e in elems])

    def _hess_values(self, z, lam, mu):
        return np.concatenate([self._obj_hess]
                              + [e.hess_values(z, lam) for e in self._eq]
                              + [e.hess_values(z, mu) for e in self._in])

    def _residual(self, r, elems, x):
        z = self._z(x)
        for e in elems:
            np.add.at(r, e.rows, e.values(z))
        return r

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

    # -- constraints ---------------------------------------------------------

    def residual_eq(self, x) -> np.ndarray:
        r = self._A_eq @ x + self._b_eq
        if self.n_param:
            r += self._B_eq @ self.params
        return self._residual(r, self._eq, x)

    def jac_eq(self, x) -> FixedMatrix:
        return self._jac_eq[0](self._jac_values(self._eq_lin, self._eq, self._z(x)))

    def residual_in(self, x) -> np.ndarray:
        return self._residual(self._A_in @ x + self._b_in, self._in, x)

    def jac_in(self, x) -> FixedMatrix:
        return self._jac_in[0](self._jac_values(self._A_in.data, self._in, self._z(x)))

    # -- Lagrangian derivatives ------------------------------------------------

    def hess_lagrangian(self, x, lam, mu) -> FixedMatrix:
        """W = obj Hessian + sum lam_i H(eq_i) + sum mu_j H(in_j), exactly symmetric."""
        return self._hess_xx(self._hess_values(self._z(x), lam, mu))

    def param_derivatives(self, x, lam, mu):
        """Parameter blocks of the KKT derivatives at ``(x, lam, mu)``.

        Returns ``(W_xp, W_pp, Jc_p, Jg_p)`` as :class:`FixedMatrix`, like
        every other evaluator: the mixed and the pure parameter blocks of
        the Lagrangian Hessian and the parameter columns of the equality
        and inequality Jacobians.  Every pattern is fixed by the build (no
        entry is dropped for being zero), so ``W_xp`` or ``W_pp`` has an
        entry in a parameter's column exactly when that parameter prices
        the objective or enters a row nonlinearly.  Without parameters
        every block is empty.
        """
        if not self.n_param:
            return (_empty((self.nvar, 0)), _empty((0, 0)),
                    _empty((self.n_eq, 0)), _empty((self.n_in, 0)))
        z = self._z(x)
        h = self._hess_values(z, lam, mu)
        return (self._hess_xp(h), self._hess_pp(h), *self._param_jacobians(z))

    def _param_jacobians(self, z):
        """Parameter columns ``(Jc_p, Jg_p)`` of the two Jacobians at ``z``."""
        return (self._jac_eq[1](self._jac_values(self._eq_lin, self._eq, z)),
                self._jac_in[1](self._jac_values(self._A_in.data, self._in, z)))

    def param_lagrangian_grad(self, x, lam, mu, name: str) -> np.ndarray:
        """Gradient of the Lagrangian with respect to one parameter block.

        This is the marginal value of an exchange parameter (e.g. the fixed
        head voltages of a torn feeder) to this cell's optimum, used by the
        coordinator to price boundary quantities on the other side.
        """
        Jc_p, Jg_p = self._param_jacobians(self._z(x))
        grad = Jc_p.transpose_times(lam) + Jg_p.transpose_times(mu)
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


def _injection_table(net):
    """``(bus, phase) -> [P_const, Q_const, has_any, pv_box or None]``,
    summed over the loads in case order, then the generators."""
    table = {(bus.id, ph): [0.0, 0.0, False, None]
             for bus in net.buses for ph in bus.phases}
    for ld in net.loads:
        for ph in ld.p.keys() | ld.q.keys():
            t = table.get((ld.bus, ph))
            if t is not None:
                t[0] += ld.p.get(ph, 0.0)
                t[1] += ld.q.get(ph, 0.0)
                t[2] = True
    for g in net.generators:
        for ph in net.bus(g.bus).phases:
            t = table[(g.bus, ph)]
            t[0] -= g.p.get(ph, 0.0)
            t[2] = t[2] or ph in g.p or ph in g.q
            if g.mode == "pq":
                t[1] -= g.q.get(ph, 0.0)
            else:
                lo, hi = t[3] or (0.0, 0.0)
                t[3] = (lo + g.q_min, hi + g.q_max)
    return table


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
        self.sources_by_net: dict[str, list[InfeasibilitySource]] = {}

        self.eq_blocks = []      # vectorized linear equality (rows, cols, vals)
        # per kind of row, "eq" or "in": the scalar linear entries as flat
        # (row, z column, value) triples and the constants as flat (row,
        # value) pairs, in stamp order
        self.linear = {"eq": [], "in": []}
        self.const = {"eq": [], "in": []}
        # nonlinear element specs (see the element types)
        self.inj, self.pv, self.adm, self.vmag, self.flows = [], [], [], [], []
        self.epi_idx: list[int] = []
        self.injection = {n.name: _injection_table(n) for n in self.net_list}
        self.price_pairs: list[tuple[int, int]] = []

        self._net_of_bus = {b.id: n.name for n in self.net_list for b in n.buses}
        # torn feeder heads (net, bus) -> port build: their voltages are not
        # bounded, and those of a 'd_head' port are exchange parameters
        self._heads = {(self._net_of_bus[pb.port.spec.d_bus], pb.port.spec.d_bus): pb
                       for pb in self.ports if pb.mode in ("d_head", "d_phasor")}
        self._head_param_buses = {nb: pb.key for nb, pb in self._heads.items()
                                  if pb.mode == "d_head"}
        self._build()

    # -- small allocation helpers -------------------------------------------

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

    def _stamp(self, kind, row, col, val, const=None):
        """Stamp a linear coefficient of a ``kind`` ("eq" or "in") row on a z
        column (variable or parameter), and the row's constant if given."""
        if val != 0.0:
            self.linear[kind] += (row, col, val)
        if const is not None:
            self.const[kind] += (row, const)

    def table(self, kind):
        """The scalar stamps of ``kind`` as ``(rows, cols, vals)`` arrays and
        the rows' constants as a dense vector."""
        n = self.n_eq if kind == "eq" else self.n_in
        rows, cols, vals = np.array(self.linear[kind], dtype=float).reshape(-1, 3).T
        c_rows, c_vals = np.array(self.const[kind], dtype=float).reshape(-1, 2).T
        const = np.zeros(n)
        np.add.at(const, c_rows.astype(int), c_vals)
        return (rows.astype(int), cols.astype(int), vals), const

    def _branch_current(self, nm, br):
        """Each phase's from-end current ``Y (V_from - V_to)`` over z columns.

        Returns ``(cols, c_r, c_i)``: the ``4k`` columns ``(fu, fv, tu, tv)``
        of each of the branch's ``k`` phases, and the ``(k, 4k)``
        coefficients of the real and imaginary parts of the current.
        """
        v = self.maps.v_slot
        cols = np.array([(*v[(nm, br.from_bus, ph)], *v[(nm, br.to_bus, ph)])
                         for ph in br.phases]).ravel()
        g, b = np.array(br.g), np.array(br.b)
        c_r, c_i = np.array([[g, -b, -g, b], [b, g, -b, -g]]).transpose(
            0, 2, 3, 1).reshape(2, len(br.phases), len(cols))
        return cols, c_r, c_i

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


    def _alloc_injections(self, net):
        for bus in net.buses:
            for ph in bus.phases:
                has, box = self.injection[net.name][(bus.id, ph)][2:]
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
                    # load_case checks the box: a pv-mode generator, q_min < q_max
                    q, box = self.injection[net.name][(bus.id, ph)][1::2]
                    qg0 = (0.5 * (box[0] + box[1])
                           if np.isfinite(box[0]) and np.isfinite(box[1]) else 0.0)
                    self.maps.pv_qvar[(net.name, bus.id, ph)] = self._new_var(
                        f"q:{bus.id}:{ph}", q - qg0)

    def _alloc_ports(self):
        for pb in self.ports:
            spec = pb.port.spec
            if pb.mode in ("internal", "t_free", "t_draw"):
                tnet = self._net_of_bus[spec.t_bus]
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
                    self.sources_by_net.setdefault(net.name, []).append(src)
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
        # the from-end current leaves the from bus and enters the to bus;
        # entries run over (bus, real/imaginary row, phase, column)
        rows, cols, vals = [], [], []
        for br in net.branches:
            bcols, c_r, c_i = self._branch_current(nm, br)
            kcl = np.array([[self.maps.kcl_row[(nm, bus, ph)] for ph in br.phases]
                            for bus in (br.from_bus, br.to_bus)])
            rows.append(np.repeat(kcl.transpose(0, 2, 1).ravel(), len(bcols)))
            cols.append(np.tile(bcols, 4 * len(br.phases)))
            vals.append(np.array([c_r, c_i, -c_r, -c_i]).ravel())
        if vals:
            rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
            keep = vals != 0.0
            self.eq_blocks.append((rows[keep], cols[keep], vals[keep]))

        for bus in net.buses:
            for ph in bus.phases:
                rr, ri = self.maps.kcl_row[(nm, bus.id, ph)]
                iu, iv = self.maps.v_slot[(nm, bus.id, ph)]
                inj = self.maps.inj_var.get((nm, bus.id, ph))
                p, q = self.injection[nm][(bus.id, ph)][:2]
                if inj is not None:
                    # balance picks up the device current ...
                    self._stamp("eq", rr, inj[0], 1.0)
                    self._stamp("eq", ri, inj[1], 1.0)
                    # ... defined by the constant-power relation
                    dr = self._new_eq(f"defr:{bus.id}:{ph}")
                    di = self._new_eq(f"defi:{bus.id}:{ph}")
                    self._stamp("eq", dr, inj[0], 1.0)
                    self._stamp("eq", di, inj[1], 1.0)
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
                    self._stamp("eq", rr, isr, 1.0)
                    self._stamp("eq", ri, isi, 1.0)
                    for part, (slot, target) in zip(
                            "ri", ((iu, bus.v_set), (iv, 0.0))):
                        row = self._new_eq(f"slack{part}:{bus.id}:{ph}")
                        self._stamp("eq", row, slot, 1.0, -target)
                elif bus.kind == "pv":
                    row = self._new_eq(f"pvmag:{bus.id}:{ph}")
                    self.pv.append((row, iu, iv, 1.0, -bus.v_set ** 2))

        for src in self.sources_by_net.get(nm, ()):
            rr, ri = self.maps.kcl_row[(nm, src.bus, src.phase)]
            iu, iv = self.maps.v_slot[(nm, src.bus, src.phase)]
            if self.source_kind == "current":
                self._stamp("eq", rr, src.var_index[0], -1.0)
                self._stamp("eq", ri, src.var_index[1], -1.0)
            elif self.source_kind == "power":
                ip, iq = (self.zero, *src.var_index) if self.q_only else src.var_index
                self.inj += [(rr, iu, iv, ip, iq, 0.0, 1.0, 0.0),
                             (ri, iu, iv, iq, ip, 0.0, -1.0, 0.0)]
            else:
                self.adm.append((rr, ri, iu, iv, *src.var_index))

    def _rows_ports(self):
        for pb in self.ports:
            spec = pb.port.spec
            kappa = pb.port.kappa
            if pb.mode in ("internal", "t_free", "t_draw"):
                tnet = self._net_of_bus[spec.t_bus]
                rr, ri = self.maps.kcl_row[(tnet, spec.t_bus, "1")]
                self.maps.poi_row[pb.key] = [rr, ri]
                if pb.mode == "t_draw":      # the draw is an exchange parameter
                    col = self.nvar + self.param_slots[f"draw:{pb.key}"].start
                    it = (col, col + 1)
                else:
                    it = self.maps.port_tvar[pb.key]
                self._stamp("eq", rr, it[0], 1.0)
                self._stamp("eq", ri, it[1], 1.0)
            if pb.mode in ("internal", "d_head", "d_phasor"):
                dnet = self._net_of_bus[spec.d_bus]
                idv = self.maps.port_dvar[pb.key]
                for k, ph in enumerate("abc"):
                    rr, ri = self.maps.kcl_row[(dnet, spec.d_bus, ph)]
                    self._stamp("eq", rr, idv[2 * k], -1.0)
                    self._stamp("eq", ri, idv[2 * k + 1], -1.0)
            if pb.mode == "internal":
                it = self.maps.port_tvar[pb.key]
                idv = self.maps.port_dvar[pb.key]
                for r, part in enumerate("ri"):
                    row = self._new_eq(f"c1{part}:{pb.key}")
                    self._stamp("eq", row, it[r], 1.0)
                    for cidx in range(6):
                        self._stamp("eq", row, idv[cidx], -_AGG[r, cidx] / (3 * kappa))
            if pb.mode in ("internal", "d_phasor"):
                # the head voltages are the balanced expansion of the POI
                # voltage, or of a 'd_phasor' port's local phasor
                dnet = self._net_of_bus[spec.d_bus]
                tu, tv = self.maps.poi_v[pb.key]
                for k, ph in enumerate("abc"):
                    du, dv = self.maps.v_slot[(dnet, spec.d_bus, ph)]
                    for c, slot in ((0, du), (1, dv)):
                        row = self._new_eq(f"c2{'ri'[c]}:{pb.key}:{ph}")
                        self._stamp("eq", row, slot, 1.0)
                        self._stamp("eq", row, tu, -_DIST[2 * k + c, 0])
                        self._stamp("eq", row, tv, -_DIST[2 * k + c, 1])

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
                k = len(br.phases)
                rows = np.array([self._new_in(f"flow:{bidx}:{br.from_bus}-{br.to_bus}:{ph}")
                                 for ph in br.phases])
                cols, c_r, c_i = self._branch_current(nm, br)
                self.flows.append((rows, np.ones(k), np.full(k, -br.flow_limit ** 2),
                                   np.tile(cols, (k, 1)), c_r, c_i))
            for (onet, obus, ph), qvar in self.maps.pv_qvar.items():
                if onet != nm:
                    continue
                q, (lo, hi) = self.injection[nm][(obus, ph)][1::2]
                if np.isfinite(hi):          # q_net >= q_load - q_max
                    self._stamp("in", self._new_in(f"qlo:{obus}:{ph}"), qvar, -1.0, q - hi)
                if np.isfinite(lo):          # q_net <= q_load - q_min
                    self._stamp("in", self._new_in(f"qhi:{obus}:{ph}"), qvar, 1.0, -(q - lo))
        if self.norm == "l1":
            # the epigraph rows s - t <= 0, -s - t <= 0 and -t <= 0 of each
            # source component, stamped in bulk
            flat = [vi for s in self.sources for vi in s.var_index]
            for svar, tvar in zip(flat, self.epi_idx):
                tag, r = self.var_label[svar], self.n_in
                self.in_label += [f"epi+:{tag}", f"epi-:{tag}", f"epi0:{tag}"]
                self.n_in += 3
                self.linear["in"] += (r, svar, 1.0, r, tvar, -1.0, r + 1, svar, -1.0,
                                      r + 1, tvar, -1.0, r + 2, tvar, -1.0)


def build_problem(nets, ports=(), *, source_kind="current", norm="l2",
                  q_only=False) -> CircuitProblem:
    """Assemble one solvable problem over the given networks and port modes."""
    return CircuitProblem(_Builder(list(nets), list(ports), source_kind, norm, q_only))
