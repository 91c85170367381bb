"""Planner-facing result assembly: weak-node lists, totals, exports.

The JSON report is deterministic for a fixed run configuration: volatile
quantities (wall time, worker count) are kept out of the serialized form so
byte-identical reports certify reproducible runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = "gridweld-report/1"
NONZERO_THRESHOLD = 1e-6


@dataclass
class NodeEntry:
    net: str
    bus: str
    phase: str
    components: dict[str, float]
    magnitude: float
    x: float | None = None
    y: float | None = None


@dataclass
class SolveReport:
    status: str
    mode: str
    norm: str
    source_kind: str | None
    q_only: bool
    objective: float
    per_node: list[NodeEntry]
    totals: dict[str, float]
    nonzero_count: int
    threshold: float
    kkt: dict[str, float]
    epochs: int
    inner_iterations: int
    diagnostics: dict = field(default_factory=dict)
    wall_time: float = 0.0           # excluded from the JSON form

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_json_dict(self) -> dict:
        nodes = sorted(self.per_node, key=lambda e: (e.net, e.bus, e.phase))
        return {
            "schema_version": SCHEMA_VERSION,
            "status": self.status,
            "mode": self.mode,
            "norm": self.norm,
            "source_kind": self.source_kind,
            "q_only": self.q_only,
            "objective_pu": self.objective,
            "totals": dict(sorted(self.totals.items())),
            "nonzero_count": self.nonzero_count,
            "threshold": self.threshold,
            "kkt": dict(sorted(self.kkt.items())),
            "epochs": self.epochs,
            "inner_iterations": self.inner_iterations,
            "diagnostics": dict(sorted(self.diagnostics.items())),
            "per_node": [
                {"net": e.net, "bus": e.bus, "phase": e.phase,
                 "components": dict(sorted(e.components.items())),
                 "magnitude": e.magnitude,
                 **({"x": e.x, "y": e.y} if e.x is not None else {})}
                for e in nodes],
        }


def build_report(parts, status, *, mode, nets, epochs=1, inner_iterations=0,
                 diagnostics=None, wall_time=0.0) -> SolveReport:
    """Assemble the report of one run from its solved parts.

    ``parts`` lists ``(problem, state)`` pairs in order: the combined
    problem of a centralized solve, or one pair per cell of a distributed or
    consensus run.  A ``None`` state (a solve that never produced one)
    contributes nothing.  Every other part contributes its sources' values,
    and the KKT residuals its solve measured at the point it returned
    (``state.kkt``) enter the worst case over the parts (max of
    stationarity, feasibility and unperturbed complementarity, min of the
    smallest multiplier, max of the largest inequality row); a state that
    carries none, one not returned by a solve, reports only its sources.
    The remaining phase nodes of ``nets`` follow with zero magnitude, in
    net/bus/phase order.  Norm, source kind and the Q-only flag are read
    from the first part's problem, which carries them even when the solve
    failed.
    """
    coords = {(net.name, bus.id): (bus.x, bus.y)
              for net in nets for bus in net.buses}
    entries: list[NodeEntry] = []
    kkt: dict[str, float] = {}
    for problem, state in parts:
        if state is None:
            continue
        res = state.kkt
        if res is not None:
            for name, val in (("stationarity", res.stationarity),
                              ("feasibility", res.feasibility),
                              ("complementarity", res.complementarity_raw)):
                kkt[name] = max(kkt.get(name, 0.0), val)
            kkt["mu_min"] = min(kkt.get("mu_min", np.inf), res.mu_min)
            kkt["g_max"] = max(kkt.get("g_max", -np.inf), res.g_max)
        for (net, bus, ph), vals in zip(problem.source_nodes,
                                        state.x[problem.source_cols].tolist()):
            comps = dict(zip(problem.source_components, vals))
            xy = coords.get((net, bus), (None, None))
            entries.append(NodeEntry(
                net=net, bus=bus, phase=ph, components=comps,
                magnitude=float(np.hypot.reduce(list(comps.values()))),
                x=xy[0], y=xy[1]))
    have = {(e.net, e.bus, e.phase) for e in entries}
    for net in nets:
        for bus in net.buses:
            for ph in bus.phases:
                if (net.name, bus.id, ph) not in have:
                    entries.append(NodeEntry(net=net.name, bus=bus.id, phase=ph,
                                             components={}, magnitude=0.0,
                                             x=bus.x, y=bus.y))
    totals: dict[str, float] = {"magnitude": 0.0}
    for e in entries:
        totals["magnitude"] += abs(e.magnitude)
        for c, v in e.components.items():
            totals[c] = totals.get(c, 0.0) + abs(v)
    first = parts[0][0]
    return SolveReport(
        status=status, mode=mode, norm=first.norm,
        source_kind=first.source_kind, q_only=first.q_only,
        objective=_merged_objective(entries, first.norm), per_node=entries,
        totals=totals,
        nonzero_count=sum(1 for e in entries
                          if e.magnitude > NONZERO_THRESHOLD),
        threshold=NONZERO_THRESHOLD, kkt=kkt, epochs=epochs,
        inner_iterations=inner_iterations, diagnostics=diagnostics or {},
        wall_time=wall_time)


def _merged_objective(entries, norm) -> float:
    vals = [v for e in entries for v in e.components.values()]
    if norm == "l2":
        return 0.5 * float(sum(v * v for v in vals))
    return float(sum(abs(v) for v in vals))


def localize_weak_nodes(report: SolveReport, threshold=NONZERO_THRESHOLD):
    """Ranked (bus, phase, magnitude) above threshold, largest first.

    Ties break on bus id, then phase, so rankings are reproducible.
    """
    picked = [(e.bus, e.phase, e.magnitude) for e in report.per_node
              if e.magnitude > threshold]
    return sorted(picked, key=lambda t: (-t[2], t[0], t[1]))


def export_heatmap(report: SolveReport, path):
    """Plot-ready CSV: one row per (bus, phase) with magnitude and coords."""
    nodes = sorted(report.per_node, key=lambda e: (e.net, e.bus, e.phase))
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["bus", "phase", "x", "y", "magnitude"])
        for e in nodes:
            x = "" if e.x is None else repr(float(e.x))
            y = "" if e.y is None else repr(float(e.y))
            out.writerow([e.bus, e.phase, x, y, repr(e.magnitude)])


def write_report(report: SolveReport, path):
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
