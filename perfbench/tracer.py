"""In-memory span recorder that wraps gridweld's public functions.

The benchmark measures the program without changing it: a :class:`Tracer`
replaces functions and methods of the ``gridweld`` modules with wrappers
that record one span (name, start, end, parent) per call, and puts the
originals back when it closes.  A wrapped function is replaced under every
name a ``gridweld`` module holds it by (``from .ecf import build_problem``
binds a second name), so calls through either name are seen.

Two patch sets exist.  ``SETUP_PATCHES`` (on while the tracer is open)
covers only case loading, problem building and report writing: a handful
of calls per operation, enough to split an operation's wall time into
set-up, solve and write.  ``LAYER_PATCHES`` (on inside ``Tracer.layers()``,
``--trace 1``) adds every layer boundary, including the per-iterate
evaluations, so it costs a few microseconds per call; end-to-end metrics
are never taken from a traced run.

A name that the program no longer has is skipped, so the tracer keeps
working while the program is refactored; the layer then reads zero.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from collections import Counter

# (module, attribute path, span name).  Spans named in SETUP_SPANS are
# set-up work; WRITE_SPANS are the report files an operation writes.
SETUP_PATCHES = [
    ("gridweld.netmodel", "load_case", "netmodel.load_case"),
    ("gridweld.netmodel", "load_partition", "netmodel.load_partition"),
    ("gridweld.ecf", "build_problem", "ecf.build_problem"),
    ("gridweld.gjn", "build_subproblems", "gjn.build_subproblems"),
    ("gridweld.admm", "build_agents", "admm.build_agents"),
    ("gridweld.report", "write_report", "report.write"),
    ("gridweld.report", "export_heatmap", "report.write"),
]
SETUP_SPANS = ("netmodel.load_case", "netmodel.load_partition",
               "ecf.build_problem", "gjn.build_subproblems",
               "admm.build_agents")
WRITE_SPANS = ("report.write",)

ECF_METHODS = ("residual_eq", "jac_eq", "residual_in", "jac_in",
               "hess_lagrangian", "grad_objective", "param_lagrangian_grad",
               "objective", "interior_ok")

LAYER_PATCHES = [
    ("gridweld.cli", "main", "cli.main"),
    ("gridweld.cli", "run", "cli.run"),
    ("gridweld.netmodel", "default_partition", "netmodel.default_partition"),
    *[("gridweld.ecf", f"CircuitProblem.{m}", f"ecf.{m}") for m in ECF_METHODS],
    ("gridweld.pdip", "solve_centralized", "pdip.solve_centralized"),
    ("gridweld.pdip", "solve_subproblem", "pdip.solve_subproblem"),
    ("gridweld.pdip", "solve_nlp", "pdip.solve_nlp"),
    ("gridweld.pdip", "assemble_kkt", "pdip.assemble_kkt"),
    ("gridweld.pdip", "NewtonSystem.build", "pdip.newton_build"),
    ("gridweld.pdip", "NewtonSystem.matrix", "pdip.kkt_matrix"),
    ("gridweld.pdip", "newton_step", "pdip.newton_step"),
    ("scipy.sparse.linalg", "splu", "pdip.factor"),
    ("gridweld.gjn", "run", "gjn.run"),
    ("gridweld.gjn", "Coordinator.__init__", "gjn.coordinator_init"),
    ("gridweld.gjn", "Coordinator.run", "gjn.coordinator_run"),
    ("gridweld.gjn", "Coordinator.run_epoch", "gjn.epoch"),
    ("gridweld.gjn", "Coordinator._solve_one", "gjn.cell_solve"),
    ("gridweld.gjn", "Coordinator._report", "gjn.report"),
    ("gridweld.gjn", "Coordinator.spectral_radius", "gjn.spectral_radius"),
    ("gridweld.gjn", "gauss_boundary_update", "gjn.exchange"),
    ("gridweld.gjn", "compare_modes", "gjn.compare_modes"),
    ("gridweld.gjn", "format_comparison", "gjn.format_comparison"),
    ("gridweld.coupling", "aggregate_current_d_to_t", "coupling.port_algebra"),
    ("gridweld.coupling", "distribute_voltage_t_to_d", "coupling.port_algebra"),
    ("gridweld.coupling", "port_dual_prices", "coupling.port_algebra"),
    ("gridweld.admm", "admm_solve", "admm.solve"),
    *[("gridweld.admm", f"ConsensusAgent.{m}", "admm.agent_eval")
      for m in ECF_METHODS],
    ("gridweld.report", "build_report", "report.build_report"),
]


def _resolve(mod_name, attr):
    """Return (owner, attribute name, raw attribute) or None if missing."""
    mod = sys.modules.get(mod_name)
    if mod is None:
        try:
            __import__(mod_name)
        except ImportError:
            return None
        mod = sys.modules[mod_name]
    owner = mod
    *parents, last = attr.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(last)
    else:
        raw = getattr(owner, last, None)
    return None if raw is None else (owner, last, raw)


class Tracer:
    """Records spans for the calls it wraps while it is open.

    A finished span is a ``(name, start, end, key, parent key)`` tuple
    kept in memory, in the order the spans close.  Tuples of numbers and
    strings drop out of the garbage collector's tracking, so a run's
    hundreds of thousands of spans do not slow the collector's full passes
    down for the program being measured.  Each thread keeps its own stack
    of open spans; a span opened on a worker thread with an empty stack
    takes the main thread's innermost open span as its parent (the call
    that handed the work to the pool).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._keys = itertools.count()
        self._local = threading.local()
        self._main_stack: list = []
        self._main = threading.get_ident()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            parent = self._main_stack[-1][0] if self._main_stack else None
        span = [next(self._keys), name, parent, 0.0]
        stack.append(span)
        span[3] = time.perf_counter()
        return span

    def close(self, span):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span[1], span[3], end, span[0], span[2]))

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                after(tracer, args, token, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        self._apply(SETUP_PATCHES)
        return self

    @contextlib.contextmanager
    def layers(self):
        """Wrap every layer boundary as well, for the enclosed block."""
        depth = len(self._patches)
        self._apply(LAYER_PATCHES)
        try:
            yield self
        finally:
            self._restore(depth)

    def _apply(self, patch_list):
        for mod_name, attr, name in patch_list:
            found = _resolve(mod_name, attr)
            if found is None:
                continue
            owner, last, raw = found
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._set(owner, last, new)
            if not isinstance(owner, type):
                # every other module-level name bound to the same function
                for mod in _gridweld_modules():
                    for key, val in list(vars(mod).items()):
                        if val is raw and (mod, key) != (owner, last):
                            self._set(mod, key, new)

    def _set(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def _restore(self, depth):
        while len(self._patches) > depth:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __exit__(self, *exc):
        self._restore(0)
        return False

    # -- analysis ----------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def summary(self, spans):
        """Per-name totals over ``spans`` (whole span trees).

        Returns ``{name: [calls, inclusive_s, self_s]}``.  Inclusive time
        counts only the outermost span of a name (no double counting when a
        name nests in itself); self time is the duration minus the part of
        it that child spans cover.
        """
        by_key = {s[3]: s for s in spans}
        children: dict[int, list] = {}
        for s in spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append(s)
        out: dict[str, list] = {}
        for s in spans:
            name, t0, t1 = s[0], s[1], s[2]
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            if all(p[0] != name for p in _ancestors(s, by_key)):
                rec[1] += t1 - t0
            rec[2] += (t1 - t0) - _covered(t0, t1, children.get(s[3], ()))
        return out

    def op_split(self, start, end=None):
        """(setup_s, write_s) of the outermost set-up and write spans."""
        spans = self.spans[start:end]
        by_key = {s[3]: s for s in spans}
        marked = SETUP_SPANS + WRITE_SPANS
        setup = write = 0.0
        for s in spans:
            if s[0] not in marked or \
                    any(p[0] in marked for p in _ancestors(s, by_key)):
                continue
            if s[0] in SETUP_SPANS:
                setup += s[2] - s[1]
            else:
                write += s[2] - s[1]
        return setup, write


def _ancestors(span, by_key):
    p = by_key.get(span[4])
    while p is not None:
        yield p
        p = by_key.get(p[4])


def _covered(t0, t1, kids) -> float:
    """Length of the union of the child intervals, clipped to [t0, t1]."""
    total, cur_s, cur_e = 0.0, None, None
    for k in sorted(kids, key=lambda s: s[1]):
        a, b = max(k[1], t0), min(k[2], t1)
        if b <= a:
            continue
        if cur_e is None or a > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = a, b
        else:
            cur_e = max(cur_e, b)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _gridweld_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "gridweld" or n.startswith("gridweld."))]


# -- counters that a span alone does not give ------------------------------
# name -> (before(args, kwargs) -> token, after(tracer, args, token, out))


def _warm_iterations(args, kwargs):
    """``solve_nlp`` resumes a warm state's iteration counter."""
    warm = kwargs.get("warm", args[2] if len(args) > 2 else None)
    return warm.iterations if warm is not None else 0


def _count_newton_steps(tracer, args, token, out):
    steps = out[0].iterations - token
    tracer.counts["pdip.newton_steps"] += steps
    if type(args[0]).__name__ == "ConsensusAgent":
        tracer.counts["admm.x_updates"] += 1
        tracer.counts["admm.inner_steps"] += steps


def _delta(args, kwargs):
    return kwargs.get("delta", args[1] if len(args) > 1 else 0.0)


def _count_inertia_retry(tracer, args, token, out):
    """A KKT matrix with ``delta > 0`` is an inertia-correction retry."""
    if token:
        tracer.counts["pdip.inertia_retries"] += 1


def _count_fill(tracer, args, token, out):
    """Fill of each factorization: the entries SuperLU stores for L and U
    (supernodal storage).  ``out.L``/``out.U`` would copy the factors out,
    which on the large ladder costs more than the span it measures."""
    tracer.counts["pdip.factor.lu_nnz_total"] += out.nnz


def _count_worker_seconds(tracer, args, token, out):
    """Worker-seconds offered to an epoch, the base of parallel efficiency."""
    co = args[0]
    workers = max(1, min(co.workers, len(co.subs)))
    tracer.counts["gjn.worker_s"] += workers * (time.perf_counter() - token)


def _count_admm_iterations(tracer, args, token, out):
    tracer.counts["admm.iterations"] += out.epochs


def _none(args, kwargs):
    return None


def _now(args, kwargs):
    return time.perf_counter()


_HOOKS = {"pdip.solve_nlp": (_warm_iterations, _count_newton_steps),
          "pdip.kkt_matrix": (_delta, _count_inertia_retry),
          "pdip.factor": (_none, _count_fill),
          "gjn.epoch": (_now, _count_worker_seconds),
          "admm.solve": (_none, _count_admm_iterations)}
