import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CASES = ROOT / "cases"
PARTITIONS = CASES / "partitions"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from gridweld import CouplingPort, PortBuild, build_problem, load_case  # noqa: E402
from gridweld.coupling import distribute_voltage_t_to_d  # noqa: E402


def case_path(name: str) -> str:
    return str(CASES / f"{name}.json")


def partition_path(name: str) -> str:
    return str(PARTITIONS / f"{name}.json")


def load(name: str):
    return load_case(case_path(name))


def centralized_problem(name: str, **kw):
    nets, coups = load(name)
    ports = [PortBuild(CouplingPort(c), "internal") for c in coups]
    kw.setdefault("source_kind", "current")
    kw.setdefault("norm", "l2")
    return nets, coups, build_problem(nets, ports, **kw)


def head_cell(name: str, kind="current"):
    """The distribution cell of a one-port case built on its own, with the
    head voltages at 1.01 pu / 0.02 rad and nonzero port-current prices."""
    nets, coups = load(name)
    dnet = next(n for n in nets if n.side == "distribution")
    port = CouplingPort(coups[0])
    prob = build_problem([dnet], [PortBuild(port, "d_head")],
                         source_kind=kind, norm="l2")
    prob.set_params(f"headv:{port.key}", distribute_voltage_t_to_d(port, 1.01, 0.02))
    prob.set_params(f"price:{port.key}", 0.1 * np.arange(6))
    return prob, port.key


def source_values(problem, x):
    """The infeasibility source components of ``problem`` at ``x``, in
    source order."""
    return x[[i for src in problem.sources for i in src.var_index]]


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
