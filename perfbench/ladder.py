"""Seeded multi-feeder scale ladder for the benchmark.

Several copies of a trunk-and-lateral feeder (the layout of
``case_feeder210``: a three-phase trunk, each trunk bus past the head
spawning a lateral that carries the load) hang off one meshed transmission
ring.  Every feeder couples to its own ring bus, and the partition puts the
ring in one cell and each feeder in a cell of its own.

The seed perturbs each lateral load by a uniform factor in
``1 ± JITTER``; nothing else depends on it.  The jitter is small on
purpose: the benchmark compares timings across seeds, so a seed must not
change how many Newton steps or epochs a solve takes.

Run ``python3 perfbench/ladder.py --feeders 4 --seed 1 --out DIR`` to write
``ladder_f4.json`` and ``ladder_f4_partition.json`` into ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

S_BASE = 5e5          # VA per phase on every feeder (as in the shipped cases)
V_BASE = 7500.0       # volts line-to-neutral at every coupling node
BASE_MVA = 100.0
RING_BAND = (0.9, 1.1)      # voltage limits, pu
FEEDER_BAND = (0.95, 1.05)
JITTER = 0.005              # half-width of the seeded lateral-load factor


def _tline(r, x):
    y = 1.0 / complex(r, x)
    return [[y.real]], [[y.imag]]


def _dline(zs, zm, scale=1.0):
    z = np.full((3, 3), complex(*zm)) * scale
    np.fill_diagonal(z, complex(*zs) * scale)
    y = np.linalg.inv(z)
    return y.real.tolist(), y.imag.tolist()


def _bus(bid, kind, phases, band, eligible, x, y, v_set=None):
    b = {"id": bid, "kind": kind, "phases": phases, "v_min": band[0],
         "v_max": band[1], "infeasibility_eligible": eligible,
         "x": x, "y": y}
    if v_set is not None:
        b["v_set"] = v_set
    return b


def _ring(n_poi):
    """Slack ``t0`` plus ``n_poi`` coupling buses on a ring with chords."""
    n = n_poi + 1
    buses = [_bus("t0", "slack", "1", RING_BAND, False, 0.0, 0.0,
                  v_set=1.02)]
    for i in range(1, n):
        ang = 2.0 * np.pi * i / n
        buses.append(_bus(f"t{i}", "pq", "1", RING_BAND, False,
                          float(np.cos(ang)), float(np.sin(ang))))
    g, b = _tline(0.002, 0.02)
    branches = [{"from": f"t{i}", "to": f"t{(i + 1) % n}", "G": g, "B": b}
                for i in range(n)]
    gc, bc = _tline(0.004, 0.04)
    branches += [{"from": "t0", "to": f"t{i}", "G": gc, "B": bc}
                 for i in range(3, n - 1, 3)]        # chords mesh the ring
    return {"name": "ring", "side": "transmission", "buses": buses,
            "branches": branches, "loads": [], "generators": []}


def _feeder(k, trunk, laterals, load_scale, factors):
    """Feeder ``k``: ``trunk`` trunk buses, a ``laterals``-bus lateral per
    trunk bus past the head; weak sections 7-8 as in ``case_feeder210``."""
    p = f"f{k}"
    buses = [_bus(f"{p}t1", "pq", "abc", FEEDER_BAND, False, 0.0,
                  float(k))]
    branches, loads = [], []
    for t in range(2, trunk + 1):
        g, b = _dline((0.004, 0.009), (0.001, 0.003),
                      scale=2.6 if t in (7, 8) else 1.0)
        buses.append(_bus(f"{p}t{t}", "pq", "abc", FEEDER_BAND, True,
                          float(t - 1), float(k)))
        branches.append({"from": f"{p}t{t - 1}", "to": f"{p}t{t}",
                         "G": g, "B": b})
    g, b = _dline((0.006, 0.012), (0.0015, 0.004))
    it = iter(factors)
    for t in range(2, trunk + 1):
        for j in range(1, laterals + 1):
            bid = f"{p}t{t}l{j}"
            prev = f"{p}t{t}" if j == 1 else f"{p}t{t}l{j - 1}"
            buses.append(_bus(bid, "pq", "abc", FEEDER_BAND, True,
                              float(t - 1), k + 0.1 * j))
            branches.append({"from": prev, "to": bid, "G": g, "B": b})
            f = load_scale * next(it)
            loads.append({"bus": bid,
                          "p": {ph: 0.028 * f for ph in "abc"},
                          "q": {ph: 0.011 * f for ph in "abc"}})
    return {"name": p, "side": "distribution", "buses": buses,
            "branches": branches, "loads": loads, "generators": []}


def ladder_case(feeders, seed, *, trunk=12, laterals=6, load_scale=1.2):
    """Return ``(case, partition)`` dicts for one ladder rung."""
    rng = np.random.default_rng(seed)
    n_loads = (trunk - 1) * laterals
    nets = [_ring(feeders)]
    couplings = []
    for k in range(1, feeders + 1):
        factors = 1.0 + JITTER * rng.uniform(-1.0, 1.0, n_loads)
        nets.append(_feeder(k, trunk, laterals, load_scale, factors.tolist()))
        couplings.append({"t_bus": f"t{k}", "d_bus": f"f{k}t1",
                          "s_base": S_BASE, "v_base": V_BASE})
    case = {"base_mva": BASE_MVA, "networks": nets, "couplings": couplings}
    partition = {"subproblems": [{"name": n["name"].upper(),
                                  "networks": [n["name"]]} for n in nets]}
    return case, partition


def phase_nodes(case) -> int:
    return sum(len(b["phases"]) for n in case["networks"] for b in n["buses"])


def write_ladder(out_dir, feeders, seed, **kw):
    """Write the case and partition files; returns their paths."""
    case, partition = ladder_case(feeders, seed, **kw)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for suffix, doc in (("", case), ("_partition", partition)):
        path = os.path.join(out_dir, f"ladder_f{feeders}{suffix}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return tuple(paths)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--feeders", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trunk", type=int, default=12)
    ap.add_argument("--laterals", type=int, default=6)
    ap.add_argument("--load-scale", type=float, default=1.2)
    ns = ap.parse_args(argv)
    case_path, part_path = write_ladder(
        ns.out, ns.feeders, ns.seed, trunk=ns.trunk, laterals=ns.laterals,
        load_scale=ns.load_scale)
    print(case_path)
    print(part_path)


if __name__ == "__main__":
    main()
