"""Structural contracts: assembled system shape and shipped-file provenance."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gridweld import casegen

from conftest import CASES, ROOT, centralized_problem, interior_point


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
    n_inj = sum(1 for k in prob.maps.inj_var if not k[2].endswith("!slack"))
    n_slack_ph = sum(len(b.phases) for n in nets for b in n.buses
                     if b.kind == "slack")
    n_pv = len(prob.maps.pv_qvar)
    want = 2 * n_phase + 2 * n_inj + 2 * n_slack_ph + n_pv + 8 * len(coups)
    assert prob.n_eq == want


def test_jacobian_sparsity_pattern_stable_across_states(rng):
    nets, coups, prob = centralized_problem("case_micro_td",
                                            source_kind="power")
    x1 = interior_point(prob, rng)
    x2 = interior_point(prob, rng)
    a, b = prob.jac_eq(x1).sorted_indices(), prob.jac_eq(x2).sorted_indices()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    a, b = prob.jac_in(x1).sorted_indices(), prob.jac_in(x2).sorted_indices()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def test_case_files_are_valid_json_with_sorted_keys():
    for path in sorted(Path(CASES).glob("*.json")):
        doc = json.loads(path.read_text())
        assert "base_mva" in doc and "networks" in doc


def test_demo_and_readme_imports_resolve():
    """Every gridweld name the demos and the README's Library block import
    exists.  Only the imports are checked: running the demos takes seconds
    each."""
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


def test_convergence_diagnostics_demo_runs():
    """The spectral-radius demo runs end to end and prints both radii."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "demos/06_convergence_diagnostics.py"], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "raw radius" in done.stdout
    assert "relaxed (0.5)" in done.stdout
