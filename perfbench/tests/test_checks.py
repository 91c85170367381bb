"""Every correctness check passes a right answer and fails a wrong one."""

import copy
import math

import checks
import pytest


def report(components, norm="l2", status="converged", threshold=1e-6):
    per_node, totals = [], {"magnitude": 0.0}
    for i, comps in enumerate(components):
        mag = math.sqrt(sum(v * v for v in comps.values()))
        per_node.append({"net": "d0", "bus": f"b{i}", "phase": "a",
                         "components": comps, "magnitude": mag})
        totals["magnitude"] += mag
        for c, v in comps.items():
            totals[c] = totals.get(c, 0.0) + abs(v)
    vals = [v for c in components for v in c.values()]
    obj = (sum(abs(v) for v in vals) if norm == "l1"
           else 0.5 * sum(v * v for v in vals))
    return {"status": status, "norm": norm, "objective_pu": obj,
            "totals": totals, "threshold": threshold, "per_node": per_node,
            "nonzero_count": sum(e["magnitude"] > threshold
                                 for e in per_node)}


@pytest.mark.parametrize("kind", ["current", "power", "admittance"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_closed_form(kind, norm):
    want = checks.TWO_BUS_OPTIMUM[(kind, norm)]
    assert checks.check_closed_form("op", {"objective_pu": want + 1e-9},
                                    kind, norm) == []
    assert checks.check_closed_form("op", {"objective_pu": want + 1e-3},
                                    kind, norm)


def test_closed_form_current_l1_is_sqrt2_minus_1():
    assert checks.TWO_BUS_OPTIMUM[("current", "l1")] == \
        pytest.approx(0.41421356, abs=1e-8)


def test_cross_norm():
    sparse = report([{"ir": 1.0}, {"ir": 0.0}], "l1")
    spread = report([{"ir": 0.5}, {"ir": 0.5}], "l2")
    assert checks.check_cross_norm("a", sparse, "b", spread) == []
    # an "L1 solution" with the larger 1-norm
    bad_l1 = report([{"ir": 0.6}, {"ir": 0.6}], "l1")
    assert [op for op, _ in checks.check_cross_norm("a", bad_l1, "b",
                                                    spread)] == ["a"]
    # an "L2 solution" with the larger squared norm
    assert [op for op, _ in checks.check_cross_norm("a", spread, "b",
                                                    sparse)] == ["b"]


def test_feasible_zero():
    assert checks.check_feasible_zero("op", 1e-12) == []
    assert checks.check_feasible_zero("op", 1e-6)
    assert checks.check_feasible_zero("op", None)


def test_mode_match():
    assert checks.check_mode_match("op", 1.00005, 1.0) == []
    assert checks.check_mode_match("op", 1.0002, 1.0)
    assert checks.check_mode_match("op", None, 1.0)


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_report_sums(norm):
    rep = report([{"ir": 0.3, "ii": -0.4}, {"ir": 0.0, "ii": 0.0},
                  {"ir": 1e-7, "ii": 0.0}], norm)
    assert checks.check_report_sums("op", rep) == []
    for tamper in (
            lambda r: r["totals"].__setitem__("ir", r["totals"]["ir"] + 1e-6),
            lambda r: r["totals"].pop("ii"),
            lambda r: r.__setitem__("objective_pu", r["objective_pu"] * 1.01),
            lambda r: r["per_node"][0].__setitem__("magnitude", 0.51),
            lambda r: r.__setitem__("nonzero_count", 3)):
        bad = copy.deepcopy(rep)
        tamper(bad)
        assert checks.check_report_sums("op", bad), tamper


def test_status():
    assert checks.check_status("op", {"status": "converged"}, 0) == []
    for rep, rc in (({"status": "converged"}, 2),
                    ({"status": "diverged"}, 0)):
        fails = checks.check_status("op", rep, rc)
        assert fails and fails[0][1].startswith("status")


def test_radius():
    assert checks.check_radius("op", 0.3) == []
    assert checks.check_radius("op", 1.02)
    assert checks.check_radius("op", 1.02, converged_undamped=False) == []
    assert checks.check_radius("op", 0.2, 0.55, 0.5) == []
    assert checks.check_radius("op", 0.2, 0.61, 0.5)       # above 0.5+0.5*0.2
    assert checks.check_radius("op", 1.5, 1.1, 0.5, False)  # bound holds, >= 1


def test_identical():
    assert checks.check_identical("op", b"x", b"x", "reports") == []
    assert checks.check_identical("op", b"x", b"y", "reports")


def _rows(central=0.5, dist=0.5, admm=0.50001, status="converged"):
    return [{"algorithm": "C-PDIP", "objective": central, "status": status},
            {"algorithm": "D-PDIP", "objective": dist, "status": "converged"},
            {"algorithm": "ADMM", "objective": admm, "status": "converged"}]


def test_compare_rows():
    assert checks.check_compare_rows("op", _rows(), feasible=False) == []
    wrong = checks.check_compare_rows("op", _rows(admm=0.501), False)
    assert wrong and not wrong[0][1].startswith("status")
    stalled = checks.check_compare_rows(
        "op", _rows(central=None, status="failed"), False)
    assert stalled and stalled[0][1].startswith("status")
    assert checks.check_compare_rows("op", _rows(0, 0, 0), True) == []
    assert checks.check_compare_rows("op", _rows(1e-6, 1e-6, 1e-6), True)
