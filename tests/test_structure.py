"""Structural contracts: assembled system shape and shipped-file provenance."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridweld import casegen
from gridweld.ecf import SOURCE_KINDS

from conftest import CASES, ROOT, centralized_problem, head_cell, interior_point


def test_shipped_cases_match_their_generators(tmp_path):
    """Guards against edits to the generators without regenerated files."""
    casegen.write_all(tmp_path)
    for name in casegen.CASES:
        shipped = (CASES / f"{name}.json").read_bytes()
        fresh = (tmp_path / f"{name}.json").read_bytes()
        assert shipped == fresh, f"{name}: regenerate with gridweld.casegen"
    for name in casegen.PARTITIONS:
        shipped = (CASES / "partitions" / f"{name}.json").read_bytes()
        fresh = (tmp_path / "partitions" / f"{name}.json").read_bytes()
        assert shipped == fresh, name


def test_equality_row_count_identity():
    """Rows = node balances + injection definitions + slack pins + magnitude
    rows + eight coupling rows per internal port."""
    nets, coups, prob = centralized_problem("case_micro_td")
    n_phase = sum(len(b.phases) for n in nets for b in n.buses)
    n_inj = sum(1 for label in prob.var_label if label.startswith("ir:"))
    n_slack_ph = sum(len(b.phases) for n in nets for b in n.buses
                     if b.kind == "slack")
    n_pv = sum(1 for label in prob.var_label if label.startswith("q:"))
    want = 2 * n_phase + 2 * n_inj + 2 * n_slack_ph + n_pv + 8 * len(coups)
    assert prob.n_eq == want


def _same_pattern(a, b):
    a, b = a.tocsr().sorted_indices(), b.tocsr().sorted_indices()
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_jacobian_sparsity_pattern_stable_across_states(rng, kind):
    nets, coups, prob = centralized_problem("case_micro_td", source_kind=kind)
    x1 = interior_point(prob, rng)
    x2 = interior_point(prob, rng)
    assert _same_pattern(prob.jac_eq(x1), prob.jac_eq(x2))
    assert _same_pattern(prob.jac_in(x1), prob.jac_in(x2))
    # the flat start with zero multipliers, where many entries are zero
    x0, lam0, mu0 = prob.x0(), np.zeros(prob.n_eq), np.zeros(prob.n_in)
    assert _same_pattern(prob.jac_eq(x0), prob.jac_eq(x1))
    assert _same_pattern(prob.jac_in(x0), prob.jac_in(x1))
    W1 = prob.hess_lagrangian(x1, rng.standard_normal(prob.n_eq), rng.random(prob.n_in))
    assert _same_pattern(prob.hess_lagrangian(x0, lam0, mu0), W1)
    # parameter columns, with head loads and a capped head branch on them
    cell, _ = head_cell("case_micro_flowcap", kind)
    x1 = interior_point(cell, rng, scale=0.02)
    x2 = interior_point(cell, rng, scale=0.02)
    d1 = cell.param_derivatives(x1, rng.standard_normal(cell.n_eq),
                                rng.random(cell.n_in))
    d2 = cell.param_derivatives(x2, rng.standard_normal(cell.n_eq),
                                rng.random(cell.n_in))
    for a, b in zip(d1, d2):
        assert a.nnz and _same_pattern(a, b)


def test_case_files_are_valid_json_with_sorted_keys():
    for path in sorted(Path(CASES).glob("*.json")):
        doc = json.loads(path.read_text())
        assert "base_mva" in doc and "networks" in doc


def test_demo_and_readme_imports_resolve():
    """Every gridweld name the demos and the README's Library block import
    exists.  Demos 05 and 06 also run end to end below; the others take
    seconds each, so only their imports are checked."""
    texts = {p.name: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    texts["README.md"] = readme.split("## Library", 1)[1] \
        .split("```python", 1)[1].split("```", 1)[0]
    checked = 0
    for name, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names if a.name.startswith("gridweld")]
                for mod in mods:
                    importlib.import_module(mod)
                    checked += 1
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "gridweld":
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name), \
                        f"{name}: {node.module} has no {alias.name}"
                    checked += 1
    assert len(texts) > 1 and checked > 0


def _run_demo(name):
    """The demo's standard output; it must exit cleanly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, f"demos/{name}"], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_convergence_diagnostics_demo_runs():
    """The spectral-radius demo runs end to end and prints both radii."""
    out = _run_demo("06_convergence_diagnostics.py")
    assert "raw radius" in out
    assert "relaxed (0.5)" in out


def test_coupling_port_algebra_demo_runs():
    """The port-algebra demo runs end to end, so a changed signature or
    return type of a port map shows here, not only in its imports."""
    out = _run_demo("05_coupling_port_algebra.py")
    assert "port poi:head" in out
    assert "aggregate = 0.015000" in out


def test_one_factorization_site():
    """Every KKT factorization goes through ``pdip.NewtonSystem.factor``, so
    one matrix form and one kept pattern serve every solver path: ``pdip``
    is the only module that names ``splu``, and it makes one ``spla.splu``
    call, inside ``factor``.  A ``NewtonSystem`` is not written after it is
    built: no method of it assigns to an attribute of ``self``."""
    src = ROOT / "src" / "gridweld"
    users = sorted(p.name for p in src.glob("*.py") if "splu" in p.read_text())
    assert users == ["pdip.py"]
    tree = ast.parse((src / "pdip.py").read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute) and n.func.attr == "splu"]
    assert len(calls) == 1
    assert ast.unparse(calls[0].func) == "spla.splu"
    (system,) = [n for n in tree.body
                 if isinstance(n, ast.ClassDef) and n.name == "NewtonSystem"]
    (factor,) = [n for n in system.body
                 if isinstance(n, ast.FunctionDef) and n.name == "factor"]
    assert id(calls[0]) in {id(n) for n in ast.walk(factor)}

    def on_self(t):
        """Whether ``t`` is ``self.a``, or an item or attribute of it."""
        while isinstance(t, (ast.Attribute, ast.Subscript)):
            if isinstance(t.value, ast.Name) and t.value.id == "self":
                return isinstance(t, ast.Attribute)
            t = t.value
        return False
    targets = [n for n in ast.walk(system) if isinstance(n, (ast.Attribute, ast.Subscript))
               and isinstance(n.ctx, (ast.Store, ast.Del))]
    assert [ast.unparse(t) for t in targets if on_self(t)] == []
    assert not [n for n in ast.walk(system) if isinstance(n, ast.Call)
                and ast.unparse(n.func) in ("setattr", "object.__setattr__")]


def test_newton_system_does_no_sparse_algebra():
    """``pdip._Point`` and ``pdip.NewtonSystem`` work on fixed-pattern
    arrays: they fill the KKT matrix into its fixed pattern and take every
    product by ``np.bincount``.  They call nothing of ``scipy.sparse``, take
    no ``.T`` and make no scipy copy (``tocsr``, ``tocsc``, ``toarray``);
    the one scipy matrix in ``pdip`` is made by ``_KktPattern.fill``, so no
    per-step sparse algebra creeps back.  ``_KktPattern`` and
    ``NewtonSystem`` neither insert into a filled matrix (``np.insert``) nor
    wrap one (``FixedMatrix.of``): one fixed pattern holds the diagonal for
    every ``delta``, and problems return fixed-pattern arrays."""
    tree = ast.parse((ROOT / "src" / "gridweld" / "pdip.py").read_text())
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)
               and n.name in ("_Point", "NewtonSystem")]
    assert len(classes) == 2
    nodes = [n for cls in classes for n in ast.walk(cls)]
    assert not [n for n in nodes if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and isinstance(n.func.value, ast.Name) and n.func.value.id == "sp"]
    assert not [n for n in nodes if isinstance(n, ast.Attribute)
                and n.attr in ("T", "tocsr", "tocsc", "toarray")]
    (fill,) = [fn for cls in tree.body if isinstance(cls, ast.ClassDef)
               and cls.name == "_KktPattern" for fn in cls.body
               if getattr(fn, "name", None) == "fill"]
    inside = {id(n) for n in ast.walk(fill)}
    makers = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute)
              and isinstance(n.func.value, ast.Name) and n.func.value.id == "sp"]
    assert len(makers) == 1 and id(makers[0]) in inside
    fixed = [n for cls in tree.body if isinstance(cls, ast.ClassDef)
             and cls.name in ("_KktPattern", "NewtonSystem") for n in ast.walk(cls)]
    assert not [n for n in fixed if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and (n.value.id, n.attr) in {("np", "insert"), ("FixedMatrix", "of")}]


def test_exchange_written_once():
    """``coupling`` is the one home of the port maps and ``CouplingSpec``
    the one port type.  In ``src`` only ``coupling`` names the map matrices
    ``_AGG``/``_DIST``, and no module imports a private name from it; no
    ``CouplingPort`` is left in ``src``, ``tests`` or ``demos``; and in
    ``gjn`` the maps are called only inside ``_exchange``, which the epoch
    loop and the epoch map share, and in the flat start of ``_cells``."""
    src = ROOT / "src" / "gridweld"
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert [name for name, tree in trees.items()
            if any(isinstance(n, ast.Name) and n.id in ("_AGG", "_DIST")
                   for n in ast.walk(tree))] == ["coupling.py"]
    assert [f"{name}: {a.name}" for name, tree in trees.items()
            for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and (n.module or "").split(".")[-1] == "coupling"
            for a in n.names if a.name.startswith("_")] == []
    files = [*src.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "demos").glob("*.py")]
    assert [p.name for p in files if p.resolve() != Path(__file__).resolve()
            and "CouplingPort" in p.read_text()] == []
    maps = {"aggregate_current_d_to_t", "distribute_voltage_t_to_d",
            "port_dual_prices", "poi_voltage_price"}
    called = {}
    for fn in ast.walk(trees["gjn.py"]):
        if isinstance(fn, ast.FunctionDef):
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) in maps:
                    called.setdefault(fn.name, []).append(n.func.id)
    assert sorted(called) == ["_cells", "_exchange"]
    assert len([n for n in ast.walk(trees["gjn.py"]) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) in maps]) == 5
    assert sorted(called["_exchange"]) == sorted(maps)
    assert called["_cells"] == ["distribute_voltage_t_to_d"]


def test_epoch_loop_written_once():
    """Both distributed modes run on ``gjn.Coordinator``'s epoch loop: only
    ``gjn`` builds a thread pool, and ``admm`` neither solves a cell nor
    builds a report itself."""
    src = ROOT / "src" / "gridweld"
    assert [p.name for p in sorted(src.glob("*.py"))
            if "ThreadPoolExecutor" in p.read_text()] == ["gjn.py"]
    tree = ast.parse((src / "admm.py").read_text())
    called = {getattr(n.func, "attr", getattr(n.func, "id", None))
              for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert not called & {"solve_nlp", "solve_subproblem", "build_report"}


def test_circuit_matrices_built_one_way(rng):
    """In ``ecf``, every circuit matrix is a ``FixedMatrix`` on a pattern
    fixed at build time: only ``_FixedCSR.__call__`` makes one, the empty
    parameter blocks of a problem without parameters included, and scipy
    matrices are made only inside ``FixedMatrix`` (its copies and its
    wrapping of a foreign matrix).  Every evaluator hands one out, the
    parameter blocks included, so ``gjn``'s epoch map needs nothing of
    ``scipy.sparse``."""
    tree = ast.parse((ROOT / "src" / "gridweld" / "ecf.py").read_text())
    fixed, allowed = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "FixedMatrix":
            allowed |= {id(n) for n in ast.walk(node)}
        if isinstance(node, ast.ClassDef) and node.name == "_FixedCSR":
            for fn in node.body:
                if getattr(fn, "name", None) == "__call__":
                    fixed |= {id(n) for n in ast.walk(fn)}
    makers = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute)
              and isinstance(n.func.value, ast.Name) and n.func.value.id == "sp"]
    assert makers and all(id(n) in allowed for n in makers)
    made = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == "FixedMatrix"]
    assert made and all(id(n) in fixed for n in made)
    from gridweld.ecf import FixedMatrix
    nets, coups, prob = centralized_problem("case_micro_td")
    x = interior_point(prob, rng)
    lam, mu = rng.standard_normal(prob.n_eq), rng.random(prob.n_in)
    for M in (prob.jac_eq(x), prob.jac_in(x), prob.hess_lagrangian(x, lam, mu)):
        assert isinstance(M, FixedMatrix)
    cell, _ = head_cell("case_micro_td")
    x = interior_point(cell, rng)
    blocks = cell.param_derivatives(x, rng.standard_normal(cell.n_eq),
                                    rng.random(cell.n_in))
    assert len(blocks) == 4 and all(isinstance(M, FixedMatrix) for M in blocks)
    x = interior_point(prob, rng)
    blocks = prob.param_derivatives(x, lam, mu)
    assert [M.shape for M in blocks] == [(prob.nvar, 0), (0, 0), (prob.n_eq, 0),
                                         (prob.n_in, 0)]
    assert all(isinstance(M, FixedMatrix) and M.data.dtype == float for M in blocks)
    tree = ast.parse((ROOT / "src" / "gridweld" / "gjn.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names]
    imported += [f"{n.module}.{a.name}" for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.module for a in n.names]
    assert imported and not [m for m in imported if m.startswith("scipy.sparse")]


def test_one_placement_of_a_fixed_pattern():
    """One function places entries in a fixed sparse pattern: the one that
    ``ecf._FixedCSR.__init__`` calls, which ``pdip._KktPattern.__init__``
    calls too.  No module of ``src/gridweld`` calls ``np.unique``, the
    other way to give entries their slots."""
    src = ROOT / "src" / "gridweld"
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert [name for name, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "unique"
            and isinstance(n.value, ast.Name) and n.value.id == "np"] == []

    def called(module, cls):
        """The names ``cls.__init__`` of ``module`` calls."""
        (init,) = [fn for c in trees[module].body
                   if isinstance(c, ast.ClassDef) and c.name == cls
                   for fn in c.body if getattr(fn, "name", None) == "__init__"]
        return {n.func.id for n in ast.walk(init)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    defined = {fn.name for fn in trees["ecf.py"].body if isinstance(fn, ast.FunctionDef)}
    shared = called("ecf.py", "_FixedCSR") & called("pdip.py", "_KktPattern") & defined
    assert len(shared) == 1


def test_every_export_is_used_outside_the_tests():
    """Each name ``gridweld/__init__.py`` exports is read somewhere other
    than its own ``def``/``class`` line: in the package's other modules,
    the demos, the benchmark or the README.  An export only tests reach is
    code only tests reach."""
    init = ROOT / "src" / "gridweld" / "__init__.py"
    exports = [a.asname or a.name for n in ast.parse(init.read_text()).body
               if isinstance(n, ast.ImportFrom) for a in n.names]
    bench = ROOT / "perfbench"
    files = ([p for p in (ROOT / "src" / "gridweld").glob("*.py") if p != init]
             + sorted((ROOT / "demos").glob("*.py")) + sorted(bench.glob("*.py"))
             + sorted(bench.glob("tests/*.py")) + [bench / "README.md", ROOT / "README.md"])
    lines = [line for p in files for line in p.read_text().splitlines()]
    unused = [name for name in exports
              if not any(re.search(rf"\b{name}\b", line)
                         and not re.match(rf"\s*(def|class) {name}\b", line)
                         for line in lines)]
    assert len(exports) > 20 and unused == []
