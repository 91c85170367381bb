"""Equivalent-circuit residuals and derivatives for combined networks.

Every network element is a current-voltage relation in rectangular
coordinates; node balance (KCL) rows form the equality constraints.
:func:`build_problem` walks one or more networks plus their coupling ports
and emits a :class:`CircuitProblem` with vectorized residual / Jacobian /
Lagrangian-Hessian evaluators for the solver; a partition's distributed
solves build one per :class:`~gridweld.netmodel.Cell`, from its networks and
its :func:`port_builds`.

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

The builder works in array passes, one per network and kind of row: each
network's branch currents, its KCL, injection, slack and PV rows, its
sources, its voltage bounds, and the L1 epigraph rows emit their entries as
arrays through one stamp (``_Builder._stamp``).  Entry order is part of the
result: a fixed pattern sums duplicate entries in the order they are
emitted, constants are added in that order, and Hessian pairs sum in spec
order, so each pass emits in the order of the case (branches grouped by
phase count go back to branch order) and a float sum of three or more terms
rounds as it always has.  Labels are formatted when first read, and they
are how a caller finds a node's columns and rows (``vr:bus:phase``,
``kclr:bus:phase``, ...); only coupling ports keep index maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import compress

import numpy as np
import scipy.sparse as sp

from .coupling import aggregate_current_d_to_t, distribute_voltage_t_to_d
from .netmodel import Cell, CouplingSpec

#: voltage-magnitude-squared guard for current-injection denominators (pu^2)
DELTA_V = 1e-4

SOURCE_KINDS = ("current", "power", "admittance")
#: flat-start voltage angle per phase
_FLAT = {"a": 0.0, "b": -2 * np.pi / 3, "c": 2 * np.pi / 3, "1": 0.0}
_PHASE_CODE = {ph: i for i, ph in enumerate(_FLAT)}
_KIND_CODE = {"slack": 0, "pv": 1, "pq": 2}
_NONE = np.zeros(0, dtype=int)
_PORT_CURRENTS = tuple(f"id{ph}{c}" for ph in "abc" for c in "ri")
#: a branch's from-end current over its columns (fu, fv, tu, tv): the real
#: part takes (G, -B, -G, B), the imaginary part (B, G, -B, -G), given as
#: which of (G, B) and a sign
_CURRENT_OF = np.array([[0, 1, 0, 1], [1, 0, 1, 0]])
_CURRENT_SIGN = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])
#: the flat-start voltage ``(cos, sin)`` per phase code, from one scalar
#: ``np.cos``/``np.sin`` call each (a vectorized one may round differently)
_FLAT_X0 = np.array([(np.cos(a), np.sin(a)) for a in _FLAT.values()])
_SOURCE_COMPONENTS = {"current": ("ir", "ii"), "power": ("p", "q"),
                      "admittance": ("g", "b")}


# ---------------------------------------------------------------------------
# assembled problem


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
    spec: CouplingSpec
    mode: str


def port_builds(cell: Cell, t_mode: str, d_mode: str) -> list[PortBuild]:
    """A partition cell's ports as it builds them, in its port order: an
    internal one in full, a torn one in ``t_mode`` ('t_draw' or 't_free') on
    its transmission side and in ``d_mode`` ('d_head' or 'd_phasor') on its
    distribution side."""
    return [PortBuild(p.spec, "internal" if not p.torn
                      else t_mode if p.t_cell == cell.name else d_mode)
            for p in cell.ports]


# ---------------------------------------------------------------------------
# nonlinear element types


class _Injection:
    """Current-injection rows ``-(a*u + b*v)/(u^2 + v^2)``.

    ``(u, v)`` is a bus voltage; ``a = a0 + sa*z[ia]`` and ``b = b0 + z[ib]``
    are the active and reactive power of a constant-power device or of a
    power-kind source.  One spec per row, ``(row, iu, iv, ia, ib, a0, sa,
    b0)``, given as a list of ``(m, 8)`` arrays.
    """

    def __init__(self, specs):
        s = np.concatenate([np.zeros((0, 8))] + specs)
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
    spec per source, ``(row_r, row_i, iu, iv, ig, ib)``, given as a list of
    ``(m, 6)`` arrays."""

    def __init__(self, specs):
        rr, ri, iu, iv, ig, ib = np.concatenate([np.zeros((0, 6))] + specs).T.astype(int)
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
    """``|V|^2`` rows ``(row, iu, iv, sign, const)``, given as a list of
    ``(m, 5)`` arrays, as one squared-magnitude block."""
    s = np.concatenate([np.zeros((0, 5))] + specs)
    m = len(s)
    return (s[:, 0].astype(int), s[:, 3], s[:, 4], s[:, 1:3].astype(int),
            np.zeros((m, 2)) + (1.0, 0.0), np.zeros((m, 2)) + (0.0, 1.0))


def _select(src, rows, cols, keep, row0=0, col0=0):
    """The ``keep`` entries of a fixed scatter ``vals[src] -> (rows, cols)``."""
    keep = keep.nonzero()[0]
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
    dense forms; the Newton loop never needs them, but the Gauss-Jacobi
    epoch map (:meth:`~gridweld.gjn.Coordinator.epoch_map`) solves against
    the dense parameter blocks.
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


def place_entries(rows, cols, shape):
    """The CSR pattern of the entries ``(rows, cols)`` of a ``shape``
    matrix: ``(slot, rows, indices, indptr)``, with ``slot[k]`` the stored
    position of entry ``k`` and ``rows`` the row of each stored position,
    all int32.  ``np.bincount(slot, vals, len(indices))`` then sums the
    entries' values into the pattern, duplicates in entry order from 0.0.
    The one placement of a fixed pattern: every circuit matrix and the
    condensed KKT pattern (:class:`~gridweld.pdip._KktPattern`) use it."""
    n_rows, n_cols = shape
    # the distinct positions in order and each entry's slot among them:
    # np.unique(key, return_inverse=True) without its per-call overhead and
    # its copies of the keys; a stable sort, as entries come in sorted runs
    # (any sort gives the same pattern and slots)
    key = np.multiply(rows, n_cols, dtype=np.int64)
    key += cols
    order = key.argsort(kind="stable")
    key.sort()
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    pos = key[new]
    del key
    # int32, the index type scipy picks at these sizes, keeps the maps
    # small and lets scipy take the index arrays without a scan
    slot = np.empty(len(new), dtype=np.int32)
    slot[order] = new.cumsum(dtype=np.int32) - 1
    del order, new
    rows = pos // n_cols
    indices = (pos - rows * n_cols).astype(np.int32)
    indptr = rows.searchsorted(np.arange(n_rows + 1)).astype(np.int32)
    return slot, rows.astype(np.int32), indices, indptr


class _FixedCSR:
    """A CSR pattern fixed at build time from the entries ``vals[src] ->
    (rows, cols)`` by :func:`place_entries`.  Each call sums new values
    into it with one ``np.bincount``, duplicates in entry order, and keeps
    zero sums, so the pattern depends on the build only; it returns a
    :class:`FixedMatrix`, float also without entries."""

    def __init__(self, src, rows, cols, shape):
        self.slot, self.rows, self.indices, self.indptr = place_entries(rows, cols, shape)
        self.src = src.astype(np.int32)
        self.shape = shape

    def __call__(self, vals) -> FixedMatrix:
        # bincount sums into integer zeros when there is nothing to sum
        data = np.bincount(self.slot, vals[self.src], len(self.indices)).astype(float, copy=False)
        return FixedMatrix(data, self.indices, self.indptr, self.rows, self.shape)


# ---------------------------------------------------------------------------
# assembled problem


class CircuitProblem:
    """Residuals, Jacobians and Lagrangian Hessian of one assembled problem.

    Every row is evaluated over ``z = [x; params; 0]``: a linear part
    stamped on z columns plus the nonlinear element rows.  ``residual_*``,
    ``jac_*`` and ``hess_lagrangian`` read the x columns,
    :meth:`param_derivatives` the parameter columns.  Every matrix is a
    :class:`FixedMatrix` on a :class:`_FixedCSR` pattern, so its sparsity
    pattern is fixed by the build; without exchange parameters the
    parameter-column patterns are empty.
    """

    def __init__(self, builder: "_Builder"):
        b = builder
        self.nvar = nx = b.nvar
        self.n_eq = b.n_eq
        self.n_in = b.n_in
        self.norm = b.norm
        self.source_kind = b.source_kind
        self.q_only = b.q_only
        #: one (net, bus, phase) per infeasibility source and the component names,
        #: e.g. ("ir", "ii"); source_cols[i, c] is the variable of component c of source i
        self.source_nodes: list[tuple[str, str, str]] = b.source_nodes
        self.source_components: tuple[str, ...] = b.source_components
        self.source_cols = b.src_idx.reshape(len(b.source_nodes), len(b.source_components))
        self._label_recipes, self._label_lists = b.labels, {}
        self.param_slots: dict[str, slice] = b.param_slots
        self.n_param = npar = b.n_param
        self.params = np.zeros(b.n_param)
        self.maps = b.maps

        def on_p(c):
            return (c >= nx) & (c < nx + npar)

        # linear parts over z: the equalities' [A | B], the inequalities' A,
        # and their constants
        ((rows, cols, vals), self._b_eq), (in_stamps, self._b_in) = b.table("eq"), b.table("in")
        src = np.arange(len(rows))
        self._A_eq = _FixedCSR(*_select(src, rows, cols, cols < nx),
                               (self.n_eq, nx))(vals)
        self._B_eq = _FixedCSR(*_select(src, rows, cols, on_p(cols), col0=nx),
                               (self.n_eq, npar))(vals)
        rows, cols, vals = in_stamps
        self._A_in = _FixedCSR(np.arange(len(rows)), rows, cols, (self.n_in, nx))(vals)

        self._inj = _Injection(b.inj)
        self._eq = [self._inj] + (
            [_SquaredMagnitude([_voltage_block(b.pv)])] if b.pv else []) + (
            [_Admittance(b.adm)] if b.adm else [])
        self._in = [_SquaredMagnitude([_voltage_block(b.vmag)] + b.flows)]
        self._src_idx = b.src_idx
        self._epi_idx = b.epi_idx
        self._price_pairs = np.asarray(b.price_pairs, dtype=int).reshape(-1, 2)
        self._x0 = np.concatenate(b.x0)

        def jacobian(elems, linear):
            """x and parameter blocks over the entries of the linear parts
            (``(matrix, first z column)`` pairs, valued by their ``data``),
            then the elements' (see :meth:`_jac_values`)."""
            rows = np.concatenate([M.rows for M, _ in linear]
                                  + [e.jac_rows for e in elems])
            cols = np.concatenate([M.indices + c0 for M, c0 in linear]
                                  + [e.jac_cols for e in elems])
            src, n_rows = np.arange(len(rows)), linear[0][0].shape[0]
            return (_FixedCSR(*_select(src, rows, cols, cols < nx), (n_rows, nx)),
                    _FixedCSR(*_select(src, rows, cols, on_p(cols), col0=nx),
                              (n_rows, npar)))
        eq_linear = [(self._A_eq, 0), (self._B_eq, nx)]
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
        self._hess_xp = _FixedCSR(*_select(src, rows, cols, (rows < nx) & on_p(cols),
                                           col0=nx), (nx, npar))
        self._hess_pp = _FixedCSR(*_select(src, rows, cols, on_p(rows) & on_p(cols),
                                           nx, nx), (npar, npar))

    # -- labels ----------------------------------------------------------------

    def _labels(self, what):
        got = self._label_lists.get(what)
        if got is None:
            got = self._label_lists[what] = [
                lbl for recipe in self._label_recipes[what] for lbl in recipe()]
        return got

    @property
    def var_label(self) -> list[str]:
        """One label per variable, e.g. ``vr:bus:phase``, formatted when
        first read."""
        return self._labels("var")

    @property
    def eq_label(self) -> list[str]:
        """One label per equality row, formatted when first read."""
        return self._labels("eq")

    @property
    def in_label(self) -> list[str]:
        """One label per inequality row, formatted when first read."""
        return self._labels("in")

    # -- start point -------------------------------------------------------

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
        if self.norm == "l2":
            s = x[self._src_idx]
            f += 0.5 * float(s @ s)
        else:
            f += float(x[self._epi_idx].sum())
        return f + float(self.params[self._price_pairs[:, 1]] @ x[self._price_pairs[:, 0]])

    def grad_objective(self, x) -> np.ndarray:
        g = np.zeros(self.nvar)
        if self.norm == "l2":
            g[self._src_idx] = x[self._src_idx]
        else:
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
    """Each coupling port's columns and rows, by port key (a node's are found by label)."""
    port_tvar: dict = field(default_factory=dict)    # port key -> (2,) indices
    port_dvar: dict = field(default_factory=dict)    # port key -> (6,) indices
    # port key -> POI voltage [iu, iv] slots; a 'd_phasor' port's head phasor
    poi_v: dict = field(default_factory=dict)
    poi_row: dict = field(default_factory=dict)      # port key -> POI balance [rowR, rowI]
    # port key -> six head-voltage z columns [iu_a, iv_a, ..., iv_c] ('d_head': parameters)
    head_v: dict = field(default_factory=dict)


def _filled(vals, n):
    """``vals`` as a float array, one value repeated ``n`` times."""
    vals = np.asarray(vals, dtype=float)
    return np.full(n, vals) if vals.ndim == 0 else vals


def _interleaved(*specs):
    """Spec rows from specs given as lists of equal-length columns: the
    first row of each spec in turn, then the second row of each, ..."""
    width = len(specs[0])
    cols = np.concatenate([c for spec in specs for c in spec], dtype=float)
    return cols.reshape(len(specs), width, -1).transpose(2, 0, 1).reshape(-1, width)


# Label recipes are partials of the functions below, so that a problem
# holding them still pickles.


def _node_labels(prefixes, nodes):
    """``prefix:bus:phase`` for each ``(bus, phase)`` node, each of the
    prefixes in turn (also ``prefix:port:phase`` for ``(port, phase)``)."""
    return [f"{p}:{b}:{ph}" for b, ph in nodes for p in prefixes]


def _tagged_labels(entries):
    """``tag:bus:phase`` for each ``(tag, bus, phase, ...)`` entry."""
    return [f"{tag}:{b}:{ph}" for tag, b, ph, *_ in entries]


def _port_labels(names, key):
    """``name:port`` for each name."""
    return [f"{name}:{key}" for name in names]


def _own_row_labels(pairs, is_inj, is_slack, is_pv):
    """The labels of each node's own equality rows, in node order."""
    out = []
    for (b, ph), i, s, v in zip(pairs, is_inj, is_slack, is_pv):
        if i:
            out += (f"defr:{b}:{ph}", f"defi:{b}:{ph}")
        if s:
            out += (f"slackr:{b}:{ph}", f"slacki:{b}:{ph}")
        elif v:
            out.append(f"pvmag:{b}:{ph}")
    return out


def _flow_labels(limited):
    """``flow:index:from-to:phase`` for each ``(index, branch)``, per phase."""
    return [f"flow:{i}:{br.from_bus}-{br.to_bus}:{ph}" for i, br in limited for ph in br.phases]


def _epigraph_var_labels(sources):
    """``t:`` and the label of each source component (a recipe)."""
    return [f"t:{lbl}" for lbl in sources()]


def _epigraph_row_labels(sources):
    """The three epigraph rows of each source component (a recipe)."""
    return [f"epi{c}:{lbl}" for lbl in sources() for c in "+-0"]


class _Nodes:
    """One network's phase nodes in ``Network.phase_nodes`` order, with the
    per-node arrays the builder's passes read: phase codes, bus-kind masks,
    the constant injections and pv boxes summed over the loads (in case
    order) and then the generators, and the z columns of each node's
    voltage, filled in as the builder allocates them.  The ``n_*`` counts
    let a pass skip what a network does not have."""

    def __init__(self, net, heads, head_params):
        self.net = net
        self.buses = [b for b in net.buses for _ in b.phases]
        self.pairs = [(b.id, ph) for b in net.buses for ph in b.phases]
        n = self.n = len(self.pairs)
        self.index = dict(zip(self.pairs, range(n)))
        attrs = np.array([(_PHASE_CODE[ph], _KIND_CODE[b.kind], b.infeasibility_eligible,
                           b.id in heads, b.id in head_params)
                          for b in net.buses for ph in b.phases], dtype=int).reshape(n, 5)
        self.phase = attrs[:, 0]
        self.slack, self.pv = attrs[:, 1] == _KIND_CODE["slack"], attrs[:, 1] == _KIND_CODE["pv"]
        self.eligible, self.head, self.param = attrs[:, 2:].T == 1
        p, q, has, lo, hi = [0.0] * n, [0.0] * n, [False] * n, [0.0] * n, [0.0] * n
        for ld in net.loads:
            for ph in ld.p.keys() | ld.q.keys():
                i = self.index.get((ld.bus, ph))
                if i is not None:
                    p[i] += ld.p.get(ph, 0.0)
                    q[i] += ld.q.get(ph, 0.0)
                    has[i] = True
        pv_nodes = []
        for g in net.generators:
            for ph in net.bus(g.bus).phases:
                i = self.index[(g.bus, ph)]
                p[i] -= g.p.get(ph, 0.0)
                has[i] = has[i] or ph in g.p or ph in g.q
                if g.mode == "pq":
                    q[i] -= g.q.get(ph, 0.0)
                else:                   # load_case puts these on pv buses only
                    lo[i] += g.q_min
                    hi[i] += g.q_max
                    pv_nodes.append(i)
        # a pv node's net reactive demand starts at q - qg0, qg0 the middle
        # of a finite box (load_case checks the box: q_min < q_max)
        q0 = list(q)
        for i in pv_nodes:
            q0[i] = q[i] - (0.5 * (lo[i] + hi[i])
                            if math.isfinite(lo[i]) and math.isfinite(hi[i]) else 0.0)
        self.p, self.q, self.q0 = np.array([p, q, q0]).reshape(3, n)
        self.lo, self.hi = lo, hi
        # a node carries an injection current if a device sits on it or it
        # is a pv node (whose net reactive demand is a variable)
        self.inj = np.array(has, dtype=bool) | self.pv
        self.n_inj, self.n_slack, self.n_pv = (
            int(np.count_nonzero(m)) for m in (self.inj, self.slack, self.pv))
        #: the slack and pv nodes, in node order
        self.slack_pv = (attrs[:, 1] < _KIND_CODE["pq"]).nonzero()[0].tolist()
        self.uv = np.zeros((2, n), dtype=int)
        self.iu, self.iv = self.uv
        self.ir = self.isr = self.qvar = _NONE
        self.src = _NONE.reshape(0, 0)

    def pick(self, mask, items):
        """The entries of the per-node list ``items`` where ``mask`` holds."""
        return list(compress(items, mask.tolist()))


class _Builder:
    """Allocates one problem's variables and rows and stamps its entries,
    in array passes over each network's phase nodes and branches.

    Variables and rows come in blocks (:meth:`_new_vars`,
    :meth:`_new_rows`), each with a label recipe that
    :class:`CircuitProblem` formats when its labels are first read.  Every
    linear entry goes through :meth:`_stamp` as arrays, and each nonlinear
    element type gets its specs as arrays of rows.
    """

    def __init__(self, nets, ports, source_kind, norm, q_only):
        if norm not in ("l1", "l2"):
            raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
        if source_kind is not None and source_kind not in SOURCE_KINDS:
            raise ValueError(f"source kind must be one of {SOURCE_KINDS}")
        if q_only and source_kind != "power":
            raise ValueError("q_only is only meaningful with power-kind sources")
        self.ports: list[PortBuild] = ports
        self.source_kind = source_kind
        self.norm = norm
        self.q_only = q_only

        self.nvar = 0
        self.n_eq = 0
        self.n_in = 0
        self.n_param = 0
        self.x0: list[np.ndarray] = []
        # label recipes of the variables and of each kind of row, in
        # allocation order
        self.labels = {"var": [], "eq": [], "in": []}
        self.param_slots: dict[str, slice] = {}
        self.maps = IndexMaps()
        self.source_nodes: list[tuple[str, str, str]] = []
        self.source_components: tuple[str, ...] = (
            () if source_kind is None else ("q",) if q_only else _SOURCE_COMPONENTS[source_kind])
        # per kind of row, "eq" or "in": the linear entries as (rows, z
        # columns, values) arrays and the constants as (rows, values)
        # arrays, in stamp order
        self.linear = {"eq": [], "in": []}
        self.const = {"eq": [], "in": []}
        # nonlinear element specs, in chunks (see the element types)
        self.inj, self.pv, self.adm, self.vmag, self.flows = [], [], [], [], []
        self.src_idx = self.epi_idx = _NONE
        self.price_pairs: list[tuple[int, int]] = []

        # torn feeder head buses: their voltages are not bounded, and those
        # of a 'd_head' port (bus -> port key) are exchange parameters
        heads = {pb.spec.d_bus for pb in ports if pb.mode in ("d_head", "d_phasor")}
        self._head_param_buses = {pb.spec.d_bus: pb.spec.key for pb in ports if pb.mode == "d_head"}
        self._nodes = [_Nodes(n, heads, self._head_param_buses) for n in nets]
        self._nodes_of_bus = {b.id: nd for nd in self._nodes for b in nd.net.buses}
        self._build()

    def _node(self, bus, ph):
        """The :class:`_Nodes` holding phase node ``(bus, ph)``, and its position there."""
        nd = self._nodes_of_bus[bus]
        return nd, nd.index[(bus, ph)]

    # -- allocation and the one stamp -----------------------------------------

    def _new_vars(self, count, x0, labels):
        """``count`` new variables starting at ``x0`` (an array or one
        value) with the label recipe ``labels``; returns the first index."""
        self.x0.append(_filled(x0, count))
        self.labels["var"].append(labels)
        self.nvar += count
        return self.nvar - count

    def _new_rows(self, kind, count, labels):
        """``count`` new ``kind`` ("eq" or "in") rows with the label recipe
        ``labels``; returns the first index."""
        self.labels[kind].append(labels)
        if kind == "eq":
            self.n_eq += count
            return self.n_eq - count
        self.n_in += count
        return self.n_in - count

    def _new_params(self, name, count):
        self.param_slots[name] = slice(self.n_param, self.n_param + count)
        self.n_param += count
        return self.param_slots[name]

    def _stamp(self, kind, rows, cols, vals, const=None):
        """Stamp the linear coefficients ``vals`` (an array or one value) of
        ``kind`` ("eq" or "in") rows on z columns (variables or
        parameters), and the rows' constants ``const`` if given."""
        rows = np.asarray(rows, dtype=int)
        self.linear[kind].append((rows, np.asarray(cols, dtype=int), _filled(vals, len(rows))))
        if const is not None:
            self.const[kind].append((rows, np.asarray(const, dtype=float)))

    def table(self, kind):
        """The nonzero linear entries of ``kind`` as ``(rows, cols, vals)``
        arrays in stamp order, and the rows' constants as a dense vector."""
        none = np.zeros(0, dtype=int)
        rows, cols, vals = (np.concatenate(a) for a in
                            zip((none, none, np.zeros(0)), *self.linear[kind]))
        c_rows, c_vals = (np.concatenate(a) for a in zip((none, np.zeros(0)),
                                                          *self.const[kind]))
        const = np.zeros(self.n_eq if kind == "eq" else self.n_in)
        np.add.at(const, c_rows, c_vals)
        keep = vals != 0.0
        return (rows[keep], cols[keep], vals[keep]), const

    def _branch_currents(self, nd, branches):
        """Each phase's from-end current ``Y (V_from - V_to)`` over z columns,
        for the branches grouped by phase count ``k``.

        Yields per group ``(idx, ends, cols, c)``: the group's positions in
        ``branches``, the ``(nb, k, 2)`` from and to nodes of its phases,
        the ``(nb, 4k)`` columns ``(fu, fv, tu, tv)`` of each phase, and the
        ``(nb, 2, k, 4k)`` coefficients of the real and imaginary parts of
        the current.
        """
        groups: dict[int, list[int]] = {}
        for i, br in enumerate(branches):
            groups.setdefault(len(br.phases), []).append(i)
        at = nd.index
        for k, idx in groups.items():
            brs = [branches[i] for i in idx]
            nb = len(idx)
            ends = np.array([(at[(br.from_bus, ph)], at[(br.to_bus, ph)])
                             for br in brs for ph in br.phases], dtype=int).reshape(nb, k, 2)
            cols = nd.uv[:, ends].transpose(1, 2, 3, 0).reshape(nb, 4 * k)
            gb = np.array([(br.g, br.b) for br in brs])
            c = (gb[:, _CURRENT_OF] * _CURRENT_SIGN[:, :, None, None]).transpose(
                0, 1, 3, 4, 2).reshape(nb, 2, k, 4 * k)
            yield idx, ends, cols, c

    # -- assembly ------------------------------------------------------------

    def _build(self):
        for nd in self._nodes:
            self._alloc_voltages(nd)
        for nd in self._nodes:
            self._alloc_injections(nd)
        for nd in self._nodes:
            self._alloc_slack_and_pv(nd)
        self._alloc_ports()
        self._alloc_sources()
        self._alloc_params()
        for nd in self._nodes:
            self._rows_network(nd)
        self._rows_ports()
        for nd in self._nodes:
            self._rows_inequalities(nd)
        if self.norm == "l1" and len(self.src_idx):
            self._rows_epigraph()

    def _alloc_voltages(self, nd):
        own = ~nd.param                 # the rest are exchange parameters
        pairs = nd.pick(own, nd.pairs)
        m = len(pairs)
        # flat start: unit magnitude everywhere (balanced rotations on
        # feeders), so branch flows begin at zero
        start = self._new_vars(2 * m, _FLAT_X0[nd.phase[own]].ravel(),
                               partial(_node_labels, ("vr", "vi"), pairs))
        nd.iu[own] = np.arange(start, start + 2 * m, 2)
        nd.iv[own] = nd.iu[own] + 1

    def _alloc_injections(self, nd):
        if not nd.n_inj:
            return
        inj, m = nd.inj, nd.n_inj
        xr, xi = _FLAT_X0[nd.phase[inj]].T
        p, q0 = nd.p[inj], nd.q0[inj]
        # start injection currents consistent with the flat voltages
        d0 = xr * xr + xi * xi
        x0 = np.array([(p * xr + q0 * xi) / d0, (p * xi - q0 * xr) / d0]).T.ravel()
        start = self._new_vars(2 * m, x0,
                               partial(_node_labels, ("ir", "ii"), nd.pick(inj, nd.pairs)))
        nd.ir = np.arange(start, start + 2 * m, 2)

    def _alloc_slack_and_pv(self, nd):
        """Two source currents per slack node and one net reactive demand
        per pv node, in node order (a network has few of either)."""
        if not nd.slack_pv:
            return
        x0, labels, isr, qvar = [], [], [], []
        for i in nd.slack_pv:
            (b, ph), col = nd.pairs[i], self.nvar + len(x0)
            if nd.slack[i]:
                isr.append(col)
                x0 += (0.0, 0.0)
                labels += (("isr", b, ph), ("isi", b, ph))
            else:
                qvar.append(col)
                x0.append(nd.q0[i])
                labels.append(("q", b, ph))
        self._new_vars(len(x0), x0, partial(_tagged_labels, labels))
        nd.isr, nd.qvar = np.array(isr, dtype=int), np.array(qvar, dtype=int)

    def _alloc_ports(self):
        for pb in self.ports:
            spec, key = pb.spec, pb.spec.key
            if pb.mode in ("internal", "t_free", "t_draw"):
                nd, i = self._node(spec.t_bus, "1")
                self.maps.poi_v[key] = nd.uv[:, i].tolist()
            if pb.mode in ("internal", "t_free"):
                start = self._new_vars(2, 0.0, partial(_port_labels, ("itr", "iti"), key))
                self.maps.port_tvar[key] = [start, start + 1]
            if pb.mode == "d_phasor":      # flat start: the unit phasor
                start = self._new_vars(2, (1.0, 0.0), partial(_port_labels, ("vpr", "vpi"), key))
                self.maps.poi_v[key] = [start, start + 1]
            if pb.mode in ("internal", "d_head", "d_phasor"):
                start = self._new_vars(6, 0.0, partial(_port_labels, _PORT_CURRENTS, key))
                self.maps.port_dvar[key] = list(range(start, start + 6))

    def _alloc_sources(self):
        """One block of source components, source by source, the sources in
        node order."""
        if self.source_kind is None:
            return
        k, pairs = len(self.source_components), []
        for nd in self._nodes:
            mine = nd.pick(nd.eligible, nd.pairs)
            nd.src = self.nvar + k * len(pairs) + np.arange(k * len(mine)).reshape(-1, k)
            self.source_nodes += [(nd.net.name, b, ph) for b, ph in mine]
            pairs += mine
        self._src_labels = partial(
            _node_labels, tuple(f"s{c}" for c in self.source_components), pairs)
        n = k * len(pairs)
        self.src_idx = self._new_vars(n, 0.0, self._src_labels) + np.arange(n)
        if self.norm == "l1":
            self.epi_idx = self._new_vars(
                n, 0.1, partial(_epigraph_var_labels, self._src_labels)) + np.arange(n)

    def _alloc_params(self):
        """Exchange parameters, after every variable: parameter j is z column
        nvar + j, and column nvar + n_param holds the constant zero."""
        for nd in self._nodes:
            for bus in nd.net.buses:
                key = self._head_param_buses.get(bus.id)
                if key is not None:
                    base = self.nvar + self._new_params(f"headv:{key}", 6).start
                    for k, ph in enumerate("abc"):
                        i = nd.index[(bus.id, ph)]
                        nd.iu[i], nd.iv[i] = base + 2 * k, base + 2 * k + 1
        for pb in self.ports:
            key = pb.spec.key
            if pb.mode == "t_draw":
                self._new_params(f"draw:{key}", 2)
                # POI-voltage price fed back from the distribution cell
                sl = self._new_params(f"vprice:{key}", 2)
                tu, tv = self.maps.poi_v[key]
                self.price_pairs += [(tu, sl.start), (tv, sl.start + 1)]
            if pb.mode == "d_head":
                # port-current prices from the transmission dual
                sl = self._new_params(f"price:{key}", 6)
                for off, var in enumerate(self.maps.port_dvar[key]):
                    self.price_pairs.append((var, sl.start + off))
        self.zero = self.nvar + self.n_param

    # -- equality rows ---------------------------------------------------------

    def _rows_network(self, nd):
        n, inj, slack, pv = nd.n, nd.inj, nd.slack, nd.pv
        r0 = self._new_rows("eq", 2 * n, partial(_node_labels, ("kclr", "kcli"), nd.pairs))
        nd.kcl = np.arange(r0, r0 + 2 * n).reshape(n, 2).T
        nd.rr, nd.ri = nd.kcl
        self._stamp_branches(nd)

        # each node's own rows, in node order: the device-current
        # definitions, then the slack pins or the pv magnitude pin
        is_inj, is_slack = inj.tolist(), slack.tolist()
        count = 2 * inj + 2 * slack + pv
        first = self._new_rows("eq", 2 * (nd.n_inj + nd.n_slack) + nd.n_pv, partial(
            _own_row_labels, nd.pairs, is_inj, is_slack, pv.tolist())) + count.cumsum() - count
        zero = self.zero
        if nd.n_inj:
            m, ir, dr = nd.n_inj, nd.ir, first[inj]
            # the balance picks up the device current, defined by the
            # constant-power relation
            self._stamp("eq", np.concatenate([nd.kcl[:, inj].ravel(), dr, dr + 1]),
                        np.concatenate([ir, ir + 1, ir, ir + 1]), 1.0)
            p, q, qcol = nd.p[inj], nd.q[inj], np.full(m, zero)
            qr, qi = q, -q
            if nd.n_pv:                 # a pv node's net reactive demand is a variable
                on_pv = pv[inj]
                qcol[on_pv] = nd.qvar
                qr, qi = np.where(on_pv, 0.0, qr), np.where(on_pv, 0.0, qi)
            iu, iv, z, one = nd.iu[inj], nd.iv[inj], np.full(m, zero), np.ones(m)
            self.inj.append(_interleaved([dr, iu, iv, z, qcol, p, one, qr],
                                         [dr + 1, iu, iv, qcol, z, qi, -one, p]))
        if nd.slack_pv:
            # the slack sources in the balance and the slack and pv pins
            kcl, pins, pin_const, pv_pins = [], [], [], []
            isr = iter(nd.isr.tolist())
            for i in nd.slack_pv:
                bus, row = nd.buses[i], int(first[i]) + 2 * is_inj[i]
                iu, iv = int(nd.iu[i]), int(nd.iv[i])
                if is_slack[i]:
                    col = next(isr)
                    kcl += ((int(nd.rr[i]), col), (int(nd.ri[i]), col + 1))
                    pins += ((row, iu), (row + 1, iv))
                    pin_const += (-bus.v_set, 0.0)
                else:
                    pv_pins.append((row, iu, iv, 1.0, -bus.v_set ** 2))
            for entries, const in ((kcl, None), (pins, pin_const)):
                if entries:
                    rows, cols = zip(*entries)
                    self._stamp("eq", rows, cols, 1.0, const)
            if pv_pins:
                self.pv.append(np.array(pv_pins))

        k, s = nd.eligible, nd.src
        if not len(s):
            return
        rr, ri, iu, iv = nd.rr[k], nd.ri[k], nd.iu[k], nd.iv[k]
        if self.source_kind == "current":
            self._stamp("eq", np.concatenate([rr, ri]), np.concatenate([s[:, 0], s[:, 1]]), -1.0)
        elif self.source_kind == "power":
            ip, iq = (np.full(len(s), zero), s[:, 0]) if self.q_only else (s[:, 0], s[:, 1])
            z, one = np.zeros(len(s)), np.ones(len(s))
            self.inj.append(_interleaved([rr, iu, iv, ip, iq, z, one, z],
                                         [ri, iu, iv, iq, ip, z, -one, z]))
        else:
            self.adm.append(_interleaved([rr, ri, iu, iv, s[:, 0], s[:, 1]]))

    def _stamp_branches(self, nd):
        """The from-end current of each branch leaves the KCL rows of its
        from bus and enters those of its to bus.  Entries run over (branch,
        bus, real/imaginary row, phase, column) in branch order, since
        entries on one slot (a bus's own voltage in its KCL rows) are
        summed in stamp order."""
        parts = []
        for idx, ends, cols, c in self._branch_currents(nd, nd.net.branches):
            nb, _, k, width = c.shape
            kcl = nd.kcl[:, ends].transpose(1, 3, 0, 2).reshape(nb, 4 * k)
            parts.append((idx, kcl.repeat(width, 1).ravel(),
                          cols[:, None].repeat(4 * k, 1).ravel(),
                          np.concatenate([c, -c], 1).ravel()))
        if parts:       # the groups back in branch order; a stable sort keeps one group's
            key = np.concatenate([np.repeat(idx, len(rows) // len(idx))
                                  for idx, rows, _, _ in parts])
            order = key.argsort(kind="stable")
            rows, cols, vals = (np.concatenate([part[j] for part in parts])[order]
                                for j in (1, 2, 3))
            self._stamp("eq", rows, cols, vals)

    def _rows_ports(self):
        rows, cols, vals = [], [], []

        def stamp(row, col, val):
            rows.append(row)
            cols.append(col)
            vals.append(val)
        for pb in self.ports:
            spec, key = pb.spec, pb.spec.key
            if pb.mode in ("internal", "t_free", "t_draw"):
                nd, i = self._node(spec.t_bus, "1")
                rr, ri = self.maps.poi_row[key] = nd.kcl[:, i].tolist()
                if pb.mode == "t_draw":      # the draw is an exchange parameter
                    col = self.nvar + self.param_slots[f"draw:{key}"].start
                    it = (col, col + 1)
                else:
                    it = self.maps.port_tvar[key]
                stamp(rr, it[0], 1.0)
                stamp(ri, it[1], 1.0)
            if pb.mode in ("internal", "d_head", "d_phasor"):
                nd, _ = self._node(spec.d_bus, "a")
                at = [nd.index[(spec.d_bus, ph)] for ph in "abc"]
                self.maps.head_v[key] = nd.uv[:, at].T.ravel().tolist()
                idv = self.maps.port_dvar[key]
                for k, (rr, ri) in enumerate(nd.kcl[:, at].T.tolist()):
                    stamp(rr, idv[2 * k], -1.0)
                    stamp(ri, idv[2 * k + 1], -1.0)
            if pb.mode == "internal":     # it and idv are this port's, as above
                agg = aggregate_current_d_to_t(spec, np.eye(6))
                first = self._new_rows("eq", 2, partial(_port_labels, ("c1r", "c1i"), key))
                for r in range(2):
                    stamp(first + r, it[r], 1.0)
                    for cidx in range(6):
                        stamp(first + r, idv[cidx], -agg[r, cidx])
            if pb.mode in ("internal", "d_phasor"):
                # the head voltages are the balanced expansion of the POI
                # voltage, or of a 'd_phasor' port's local phasor
                tu, tv = self.maps.poi_v[key]
                dist = distribute_voltage_t_to_d(spec, *np.eye(2))
                row = self._new_rows("eq", 6, partial(
                    _node_labels, ("c2r", "c2i"), [(key, ph) for ph in "abc"]))
                for j, slot in enumerate(self.maps.head_v[key]):
                    stamp(row + j, slot, 1.0)
                    stamp(row + j, tu, -dist[j, 0])
                    stamp(row + j, tv, -dist[j, 1])
        self._stamp("eq", rows, cols, vals)

    # -- inequality rows --------------------------------------------------------

    def _rows_inequalities(self, nd):
        # magnitude bounds on every node but the slack and torn feeder heads
        bounded = ~(nd.slack | nd.head)
        pairs, buses = nd.pick(bounded, nd.pairs), nd.pick(bounded, nd.buses)
        if pairs:
            m = len(pairs)
            row = self._new_rows("in", 2 * m, partial(_node_labels, ("vlo", "vhi"), pairs))
            rows = np.arange(row, row + 2 * m, 2)
            iu, iv, one = nd.iu[bounded], nd.iv[bounded], np.ones(m)
            self.vmag.append(_interleaved(
                [rows, iu, iv, -one, [b.v_min ** 2 for b in buses]],
                [rows + 1, iu, iv, one, [-b.v_max ** 2 for b in buses]]))
        limited = [(i, br) for i, br in enumerate(nd.net.branches) if br.flow_limit is not None]
        if limited:
            brs = [br for _, br in limited]
            current = {}
            for idx, _, cols, c in self._branch_currents(nd, brs):
                current.update(zip(idx, zip(cols, c)))
            row = self._new_rows("in", sum(len(br.phases) for br in brs),
                                 partial(_flow_labels, limited))
            for j, br in enumerate(brs):
                (cols, (c_r, c_i)), k = current[j], len(br.phases)
                self.flows.append((row + np.arange(k), np.ones(k),
                                   np.full(k, -br.flow_limit ** 2), np.tile(cols, (k, 1)),
                                   c_r, c_i))
                row += k
        if nd.n_pv:
            # q_net >= q_load - q_max and q_net <= q_load - q_min, where finite
            box = []                    # (label, bus, phase, q column, coefficient, constant)
            for i, (b, ph), qvar in zip(nd.pv.nonzero()[0].tolist(), nd.pick(nd.pv, nd.pairs),
                                        nd.qvar.tolist()):
                q, lo, hi = nd.q[i], nd.lo[i], nd.hi[i]
                if math.isfinite(hi):
                    box.append(("qlo", b, ph, qvar, -1.0, q - hi))
                if math.isfinite(lo):
                    box.append(("qhi", b, ph, qvar, 1.0, -(q - lo)))
            first = self._new_rows("in", len(box), partial(_tagged_labels, box))
            if box:
                _, _, _, cols, vals, const = zip(*box)
                self._stamp("in", np.arange(first, first + len(box)), cols, vals, const)

    def _rows_epigraph(self):
        """The rows s - t <= 0, -s - t <= 0 and -t <= 0 of each source
        component s and its epigraph auxiliary t (L1 objective)."""
        s, t = self.src_idx, self.epi_idx
        n = len(s)
        row = self._new_rows("in", 3 * n, partial(_epigraph_row_labels, self._src_labels)) + \
            3 * np.arange(n)
        self._stamp("in", np.concatenate([row, row, row + 1, row + 1, row + 2]),
                    np.concatenate([s, t, s, t, t]), np.repeat([1.0, -1.0, -1.0, -1.0, -1.0], n))


def build_problem(nets, ports=(), *, source_kind="current", norm="l2",
                  q_only=False) -> CircuitProblem:
    """Assemble one solvable problem over the given networks and port modes."""
    return CircuitProblem(_Builder(list(nets), list(ports), source_kind, norm, q_only))
