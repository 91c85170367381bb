import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CASES = ROOT / "cases"
PARTITIONS = CASES / "partitions"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from gridweld import PortBuild, build_problem, load_case  # noqa: E402
from gridweld.coupling import distribute_voltage_t_to_d  # noqa: E402
from oracles import net_demand  # noqa: E402


def case_path(name: str) -> str:
    return str(CASES / f"{name}.json")


def partition_path(name: str) -> str:
    return str(PARTITIONS / f"{name}.json")


def load(name: str):
    return load_case(case_path(name))


def raw_case(name: str) -> dict:
    """The case file ``name`` as its JSON object, for a test that edits a
    case and loads it with ``case_from_dict``."""
    with open(case_path(name)) as fh:
        return json.load(fh)


def centralized_problem(name: str, **kw):
    nets, coups = load(name)
    ports = [PortBuild(c, "internal") for c in coups]
    kw.setdefault("source_kind", "current")
    kw.setdefault("norm", "l2")
    return nets, coups, build_problem(nets, ports, **kw)


def head_cell(name: str, kind="current"):
    """The distribution cell of a one-port case built on its own, with the
    head voltages at 1.01 pu / 0.02 rad and nonzero port-current prices."""
    nets, coups = load(name)
    dnet = next(n for n in nets if n.side == "distribution")
    spec = coups[0]
    prob = build_problem([dnet], [PortBuild(spec, "d_head")],
                         source_kind=kind, norm="l2")
    at = prob.param_slots
    prob.params[at[f"headv:{spec.key}"]] = distribute_voltage_t_to_d(spec, 1.01, 0.02)
    prob.params[at[f"price:{spec.key}"]] = 0.1 * np.arange(6)
    return prob, spec.key


def problem_digest(problem, seed=0, rho=1.7, names=True):
    """SHA-256 hex digest of everything a build fixes and every array the
    problem evaluates.

    It hashes the labels, the parameter slots, the sources and the port
    maps (``repr``, so key order and Python-int values count), ``x0`` and
    ``nonlinear_cols``, then, at ``x0 + 0.01 N(0, 1)`` with multipliers in
    [0, 1) and parameters ``1 + 0.05 N(0, 1)`` drawn from ``seed``, both
    residuals, both Jacobians, the Lagrangian Hessian and the four
    parameter blocks (each matrix as data, indices, indptr and shape).  A
    consensus agent (an object with a ``base`` problem) is evaluated at
    penalty weight ``rho``, so its Hessian is ``W + rho P``.  Two builds
    with the same digest give the same arrays bit for bit.  With ``names``
    false, the bus and port names are left out: the labels, the source
    nodes, and the keys of the port maps and parameter slots (their values
    stay, in key order).
    """
    base = getattr(problem, "base", problem)
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()

    def put(*items):
        for item in items:
            if isinstance(item, np.ndarray):
                h.update(repr((item.dtype.str, item.shape)).encode())
                h.update(np.ascontiguousarray(item).tobytes())
            elif hasattr(item, "indptr"):
                put(item.data, item.indices, item.indptr, item.shape)
            else:
                h.update(repr(item).encode())

    if names:
        put(list(base.var_label), list(base.eq_label), list(base.in_label),
            base.param_slots, base.source_nodes, base.maps)
    else:
        put(list(base.param_slots.values()),
            [list(m.values()) for m in vars(base.maps).values()])
    put(base.source_components, base.source_cols)
    put(base.x0(), base.nonlinear_cols)
    x = base.x0() + 0.01 * rng.standard_normal(base.nvar)
    lam, mu = rng.random(base.n_eq), rng.random(base.n_in)
    base.params[:] = 1.0 + 0.05 * rng.standard_normal(base.n_param)
    if base is not problem:
        problem.rho = rho
    put(problem.residual_eq(x), problem.residual_in(x), problem.jac_eq(x),
        problem.jac_in(x), problem.hess_lagrangian(x, lam, mu),
        *base.param_derivatives(x, lam, mu))
    return h.hexdigest()


def source_values(problem, x):
    """The infeasibility source components of ``problem`` at ``x``, in
    source order."""
    return x[problem.source_cols.ravel()]


#: the balance currents no constant-power relation fixes: slack sources and
#: port currents
_FREE_CURRENTS = {"isr", "isi", "itr", "iti"} | {f"id{ph}{c}" for ph in "abc" for c in "ri"}


def oracle_state(prob, nets, pf):
    """``prob``'s state at the oracle power flow ``pf``: voltages, pv net
    reactive demands and constant-power injection currents written in by
    label, then the free balance currents fitted to the linear rows."""
    at = {label: i for i, label in enumerate(prob.var_label)}
    x = np.zeros(prob.nvar)
    for net in nets:
        demand = net_demand(net)
        for bus in net.buses:
            for ph in bus.phases:
                node, tail = (net.name, bus.id, ph), f"{bus.id}:{ph}"
                v = pf.volts[node]
                x[at[f"vr:{tail}"]], x[at[f"vi:{tail}"]] = v.real, v.imag
                p, q = demand.get((bus.id, ph), (0.0, 0.0))
                if node in pf.q_pv:
                    q = x[at[f"q:{tail}"]] = pf.q_pv[node]
                if f"ir:{tail}" in at:
                    inj = np.conj((p + 1j * q) / v)
                    x[at[f"ir:{tail}"]], x[at[f"ii:{tail}"]] = inj.real, inj.imag
    r = prob.residual_eq(x)
    A = prob.jac_eq(x).tocsr()
    free = np.array([i for label, i in at.items() if label.split(":")[0] in _FREE_CURRENTS])
    x[free] = np.linalg.lstsq(A[:, free].toarray(), -(r - A[:, free] @ x[free]),
                              rcond=None)[0]
    return x


def interior_point(problem, rng, scale=0.05):
    """Random strictly-interior perturbation of the flat start.

    The draw bound is sized for the sparsest cell drawn from: on the
    ``case_micro_flowcap`` head cell at scale 0.02, 3.5% of draws are
    interior (4000 measured), so 2000 draws all miss with probability
    about 1e-31.  A draw that succeeds takes the same ``rng`` values
    whatever the bound."""
    for _ in range(2000):
        x = problem.x0() + scale * rng.standard_normal(problem.nvar)
        g = problem.residual_in(x)
        if problem.interior_ok(x) and (g.size == 0 or np.max(g) < -1e-6):
            return x
    raise RuntimeError("could not draw an interior point")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def micro():
    return load("case_micro_td")


@pytest.fixture(scope="session")
def micro_stressed():
    return load("case_micro_td_stressed")
