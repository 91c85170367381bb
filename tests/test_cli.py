import errno
import json
import os

import pytest

from gridweld import netmodel
from gridweld.cli import main

from conftest import case_path, partition_path


def run_cli(args):
    return main(["solve"] + args)


def test_missing_case_file_exits_one(tmp_path, capsys):
    code = run_cli(["--case", str(tmp_path / "missing.json")])
    assert code == 1
    assert "case file not found" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    code = main(["solve", "--case", "x.json", "--frobnicate"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_invalid_combination_q_only_without_power(capsys):
    code = run_cli(["--case", case_path("case_micro_td"), "--q-only",
                    "--source", "current"])
    assert code == 1
    assert "q-only" in capsys.readouterr().err


def test_invalid_combination_trace_with_compare(tmp_path, capsys):
    # compare mode writes no trace, so asking for one is an input error
    code = run_cli(["--case", case_path("case_micro_td"), "--mode", "compare",
                    "--trace", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--trace" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("edit", [
    pytest.param({"mode": "pq"}, id="pv-bus-without-pv-generator"),
    pytest.param({"q_min": 0.5, "q_max": 0.5}, id="pv-generator-empty-q-box")])
def test_malformed_pv_bus_exits_one(tmp_path, capsys, edit):
    """A pv bus needs a pv-mode generator with q_min < q_max; the case
    check says so, not a traceback from the problem build."""
    with open(case_path("case_micro_td")) as fh:
        raw = json.load(fh)
    (gen,) = [g for n in raw["networks"] for g in n.get("generators", [])
              if g.get("mode") == "pv"]
    gen.update(edit)
    bad = tmp_path / "case.json"
    bad.write_text(json.dumps(raw))
    code = run_cli(["--case", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pv bus 't2'" in err


def _net(raw, side):
    return next(n for n in raw["networks"] if n["side"] == side)


@pytest.mark.parametrize("edit, fault", [
    (lambda raw: _net(raw, "distribution")["loads"][0]["p"].update(a=float("nan")),
     "'p' must be finite"),
    (lambda raw: _net(raw, "distribution")["buses"][1].update(v_max=float("inf")),
     "'v_max' must be finite"),
    (lambda raw: _net(raw, "distribution")["branches"][0].update(flow_limit=float("inf")),
     "'flow_limit' must be finite"),
    (lambda raw: _net(raw, "distribution")["buses"][1].update(x=float("nan")),
     "'x' must be finite"),
    (lambda raw: [g.update(q_max=float("nan")) for g in _net(raw, "transmission")["generators"]
                  if g.get("mode") == "pv"], "'q_max' must be finite"),
    (lambda raw: _net(raw, "distribution")["buses"][1].update(v_min="low"),
     "'v_min' must be a number, got 'low'"),
    (lambda raw: _net(raw, "distribution")["buses"][1].update(v_min=None),
     "'v_min' must be a number, got None"),
    (lambda raw: _net(raw, "distribution")["branches"][0].update(G=[["x"] * 3] * 3),
     "'G' must hold numbers"),
    (lambda raw: _net(raw, "distribution")["loads"][0].update(p={"a": "big"}),
     "'p' must map phase -> number"),
    (lambda raw: raw["networks"].append(5), "'networks'[2] must be an object, got int"),
], ids=["load-p-nan", "v_max-inf", "flow_limit-inf", "x-nan", "q_max-nan", "v_min-string",
        "v_min-null", "G-string", "load-p-string", "network-int"])
def test_non_finite_number_exits_one_naming_the_field(tmp_path, capsys, edit, fault):
    """JSON readers accept NaN and Infinity; a case holding one, or holding
    something else where a number or an object belongs, is an input error
    (exit 1), not a failed solve (exit 2), a traceback or a report with NaN
    in it."""
    with open(case_path("case_micro_td")) as fh:
        raw = json.load(fh)
    edit(raw)
    bad = tmp_path / "case.json"
    bad.write_text(json.dumps(raw))
    code = run_cli(["--case", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fault in err


def test_malformed_case_or_partition_file_exits_one(tmp_path, capsys, monkeypatch):
    """A truncated or empty case file, a directory given as a case or a
    partition file, a case file that cannot be read, a partition whose
    subproblems are not objects and a number too large for a float are
    input errors naming the file or the field, not tracebacks."""
    text = open(case_path("case_micro_td")).read()
    locked = tmp_path / "locked.json"
    locked.write_text(text)

    def no_read(path, *args, **kw):
        """``open``, but reading ``locked`` is not permitted (the tests may
        run as a user who can read any file, so a mode bit cannot do it)."""
        if str(path) == str(locked):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return open(path, *args, **kw)
    monkeypatch.setattr(netmodel, "open", no_read, raising=False)
    case = tmp_path / "case.json"
    case.write_text(text[:len(text) // 2])
    raw = json.loads(text)
    _net(raw, "distribution")["buses"][1]["v_max"] = 10 ** 400
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(raw))
    empty = tmp_path / "empty.json"
    empty.write_text("")
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"subproblems": [5]}))
    dpdip = ["--case", case_path("case_micro_td"), "--mode", "dpdip", "--partition"]
    for args, fault in (
            (["--case", str(case)], f"{case}: not a valid JSON file"),
            (["--case", str(empty)], f"{empty}: not a valid JSON file"),
            (["--case", str(tmp_path)], f"{tmp_path}: cannot be read (Is a directory)"),
            (dpdip + [str(tmp_path)], f"{tmp_path}: cannot be read (Is a directory)"),
            (["--case", str(locked)], f"{locked}: cannot be read (Permission denied)"),
            (dpdip + [str(part)], "partition: 'subproblems'[0] must be an object, got int"),
            (["--case", str(huge)], "'v_max' must be finite, got inf")):
        assert run_cli(args + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fault in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--tol-kkt", "-1"),
                                         ("--tol-gauss", "0"),
                                         ("--max-epochs", "0"),
                                         ("--inner-cap", "0"),
                                         ("--workers", "-2"),
                                         ("--tol-gauss", "inf"),
                                         ("--tol-kkt", "inf")])
def test_non_positive_number_exits_one_naming_the_flag(tmp_path, capsys,
                                                       flag, value):
    """Each numeric flag must be positive and finite: an infinite
    tolerance would stop a run at once with a wrong answer (``--tol-gauss
    inf`` ends ``micro_td_stressed`` after one epoch as 'converged')."""
    code = run_cli(["--case", case_path("case_micro_td"), "--mode", "dpdip",
                    flag, value, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not (tmp_path / "report.json").exists()


def test_central_solve_writes_report_and_heatmap(tmp_path, capsys):
    code = run_cli(["--case", case_path("case_micro_td"), "--mode", "central",
                    "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: converged" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "heatmap.csv").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["mode"] == "central"


def test_qonly_reactive_study_reports_totals(tmp_path, capsys):
    code = run_cli(["--case", case_path("case_micro_qstress"),
                    "--mode", "central", "--norm", "l2", "--source", "power",
                    "--q-only", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["q_only"] is True
    assert doc["totals"]["q"] > 0.01
    assert "weak nodes" in capsys.readouterr().out


def test_nonconvergence_exit_two_with_report(tmp_path, capsys):
    code = run_cli(["--case", case_path("case_micro_td_stressed"),
                    "--mode", "dpdip", "--max-epochs", "2",
                    "--out", str(tmp_path)])
    assert code == 2
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "epoch-budget-exhausted"


def test_compare_mode_prints_table(tmp_path, capsys):
    code = run_cli(["--case", case_path("case_micro_td"), "--mode", "compare",
                    "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    for token in ("Algorithm", "C-PDIP", "D-PDIP", "ADMM", "OF (p.u)"):
        assert token in out


def test_trace_flag_writes_jsonl(tmp_path):
    code = run_cli(["--case", case_path("case_micro_td"), "--mode", "dpdip",
                    "--trace", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines and json.loads(lines[0])["type"] == "epoch"


def test_central_trace_records_solver_iterations(tmp_path):
    code = run_cli(["--case", case_path("case_micro_td"), "--mode", "central",
                    "--trace", "--out", str(tmp_path)])
    assert code == 0
    rows = [json.loads(l) for l in
            (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert rows and rows[0]["type"] == "iter"
    assert {"iteration", "eps", "kkt", "alpha", "objective", "delta",
            "backtracks"} <= set(rows[0])
    for row in rows:
        assert row["delta"] == 0.0 or 1e-8 <= row["delta"] <= 1e4
        assert isinstance(row["backtracks"], int) and row["backtracks"] >= 0
        assert row["alpha"] <= 0.5 ** row["backtracks"]


@pytest.mark.parametrize("mode, case", [("dpdip", "case_twofeeder_stressed"),
                                        ("admm", "case_twofeeder_td")])
def test_byte_identical_reports_across_worker_counts(tmp_path, mode, case):
    blobs = []
    for i, workers in enumerate((1, 2, 8)):
        out = tmp_path / f"w{workers}"
        code = run_cli(["--case", case_path(case),
                        "--mode", mode, "--partition",
                        partition_path("twofeeder"), "--workers", str(workers),
                        "--out", str(out)])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_repeated_runs_byte_identical(tmp_path):
    blobs = []
    for i in range(2):
        out = tmp_path / f"r{i}"
        run_cli(["--case", case_path("case_micro_td_stressed"),
                 "--mode", "central", "--out", str(out)])
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
