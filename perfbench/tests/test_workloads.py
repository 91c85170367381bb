"""Workload make-up, and a checkout without its case files."""

import filecmp
import os

import workloads

from conftest import ROOT


def test_operation_counts(tmp_path):
    ctx = workloads.Context(ROOT)
    ctx.work = str(tmp_path)
    sizes = {name: len(build(ctx, 1).ops)
             for name, build in workloads.WORKLOADS.items()}
    assert sizes == {"shipped_sweep": 130, "ladder": 7, "compare": 8}


def test_missing_cases_are_written_again(tmp_path):
    ctx = workloads.Context(str(tmp_path))
    assert ctx.cases == os.path.join(str(tmp_path), "perfbench", "_work",
                                     "cases")
    shipped = os.path.join(ROOT, "cases")
    cmp = filecmp.dircmp(shipped, ctx.cases)
    assert not cmp.left_only and not cmp.diff_files
    parts = filecmp.dircmp(os.path.join(shipped, "partitions"),
                           os.path.join(ctx.cases, "partitions"))
    assert not parts.left_only and not parts.diff_files
