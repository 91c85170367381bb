"""Independent reference computations used to pin expected values.

Everything here deliberately avoids the package's assembly/solver path:
complex phasor arithmetic, dense matrices, scipy's general-purpose root
finder, and plain grid search.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import root

ALPHA = np.exp(2j * np.pi / 3)
ROT = {"a": 1.0 + 0j, "b": ALPHA ** 2, "c": ALPHA, "1": 1.0 + 0j}


def fd_jacobian(fun, x, h=1e-6):
    """Central-difference Jacobian of fun: R^n -> R^m."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    J = np.zeros((f0.size, x.size))
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        J[:, k] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2 * h)
    return J


def fd_gradient(fun, x, h=1e-6):
    return fd_jacobian(lambda y: np.array([fun(y)]), x, h)[0]


def net_ybus(net):
    """Dense complex nodal admittance matrix of one network."""
    nodes = [(b.id, ph) for b in net.buses for ph in b.phases]
    idx = {k: i for i, k in enumerate(nodes)}
    Y = np.zeros((len(nodes), len(nodes)), dtype=complex)
    for br in net.branches:
        for i, pi in enumerate(br.phases):
            for j, pj in enumerate(br.phases):
                y = br.g[i][j] + 1j * br.b[i][j]
                Y[idx[(br.from_bus, pi)], idx[(br.from_bus, pj)]] += y
                Y[idx[(br.from_bus, pi)], idx[(br.to_bus, pj)]] -= y
                Y[idx[(br.to_bus, pi)], idx[(br.to_bus, pj)]] += y
                Y[idx[(br.to_bus, pi)], idx[(br.from_bus, pj)]] -= y
    return nodes, idx, Y


def net_demand(net):
    """(P, Q) net constant-power demand per (bus, phase), generators netted."""
    out = {}
    for ld in net.loads:
        for ph, val in ld.p.items():
            key = (ld.bus, ph)
            p, q = out.get(key, (0.0, 0.0))
            out[key] = (p + val, q)
        for ph, val in ld.q.items():
            key = (ld.bus, ph)
            p, q = out.get(key, (0.0, 0.0))
            out[key] = (p, q + val)
    for g in net.generators:
        for ph, val in g.p.items():
            key = (g.bus, ph)
            p, q = out.get(key, (0.0, 0.0))
            out[key] = (p - val, q)
        if g.mode == "pq":
            for ph, val in g.q.items():
                key = (g.bus, ph)
                p, q = out.get(key, (0.0, 0.0))
                out[key] = (p, q - val)
    return out


class PowerFlowSolution:
    def __init__(self, volts, q_pv, success, mismatch):
        self.volts = volts          # (net, bus, phase) -> complex V
        self.q_pv = q_pv            # (net, bus, phase) -> net reactive demand
        self.success = success
        self.mismatch = mismatch

    def magnitude(self, net, bus, ph):
        return abs(self.volts[(net, bus, ph)])


def solve_power_flow(nets, couplings, tol=1e-12) -> PowerFlowSolution:
    """Combined power flow by complex elimination + scipy root finding.

    Feeder-head voltages are eliminated through the balanced expansion of
    the POI voltage; head node balances define the port currents that load
    the POI.  No inequality handling: this is the plain network solution.
    """
    data = {}
    for net in nets:
        nodes, idx, Y = net_ybus(net)
        data[net.name] = (net, nodes, idx, Y, net_demand(net))
    head_of = {}
    for c in couplings:
        dnet = next(n.name for n in nets if n.has_bus(c.d_bus))
        tnet = next(n.name for n in nets if n.has_bus(c.t_bus))
        head_of[(dnet, c.d_bus)] = (tnet, c.t_bus, c.s_base / c.v_base)

    unknowns = []      # ("v", net, bus, ph) and ("q", net, bus, ph)
    for net in nets:
        for bus in net.buses:
            is_head = (net.name, bus.id) in head_of
            for ph in bus.phases:
                if bus.kind != "slack" and not is_head:
                    unknowns.append(("v", net.name, bus.id, ph))
            if bus.kind == "pv":
                for ph in bus.phases:
                    unknowns.append(("q", net.name, bus.id, ph))
    pos = {}
    k = 0
    for u in unknowns:
        width = 2 if u[0] == "v" else 1
        pos[u] = k
        k += width
    nx = k

    def fill(x):
        volts, qs = {}, {}
        for net in nets:
            for bus in net.buses:
                for ph in bus.phases:
                    key = ("v", net.name, bus.id, ph)
                    if bus.kind == "slack":
                        volts[(net.name, bus.id, ph)] = bus.v_set + 0j
                    elif key in pos:
                        p = pos[key]
                        volts[(net.name, bus.id, ph)] = x[p] + 1j * x[p + 1]
                if bus.kind == "pv":
                    for ph in bus.phases:
                        qs[(net.name, bus.id, ph)] = x[pos[("q", net.name,
                                                            bus.id, ph)]]
        for (dnet, dbus), (tnet, tbus, _k) in head_of.items():
            vt = volts[(tnet, tbus, "1")]
            for ph in "abc":
                volts[(dnet, dbus, ph)] = ROT[ph] * vt
        return volts, qs

    def injection(netname, bus, ph, volts, qs, demand):
        p, q = demand.get((bus, ph), (0.0, 0.0))
        if (netname, bus, ph) in qs:
            q = qs[(netname, bus, ph)]
        v = volts[(netname, bus, ph)]
        s = p + 1j * q
        return np.conj(s / v)

    def mismatch(x):
        volts, qs = fill(x)
        out = np.zeros(nx)
        draws = {}
        for (dnet, dbus), (tnet, tbus, kappa) in head_of.items():
            net, nodes, idx, Y, demand = data[dnet]
            i1 = 0j
            for ph, coeff in (("a", 1.0), ("b", ALPHA), ("c", ALPHA ** 2)):
                row = idx[(dbus, ph)]
                i_out = sum(Y[row, idx[key]] * volts[(dnet,) + key]
                            for key in nodes)
                if (dbus, ph) in demand:
                    i_out += injection(dnet, dbus, ph, volts, qs, demand)
                i1 += coeff * i_out
            draws[(tnet, tbus)] = draws.get((tnet, tbus), 0j) \
                + i1 / (3.0 * kappa)
        for net in nets:
            _, nodes, idx, Y, demand = data[net.name]
            volt_vec = np.array([volts[(net.name,) + key] for key in nodes])
            kcl = Y @ volt_vec
            for bus in net.buses:
                is_head = (net.name, bus.id) in head_of
                for ph in bus.phases:
                    key = ("v", net.name, bus.id, ph)
                    if key not in pos:
                        continue
                    mis = kcl[idx[(bus.id, ph)]]
                    if (bus.id, ph) in demand or (net.name, bus.id, ph) in qs:
                        mis += injection(net.name, bus.id, ph, volts, qs,
                                         demand)
                    mis += draws.get((net.name, bus.id), 0j) \
                        if ph == "1" else 0.0
                    p = pos[key]
                    out[p] = mis.real
                    out[p + 1] = mis.imag
                if bus.kind == "pv":
                    for ph in bus.phases:
                        v = volts[(net.name, bus.id, ph)]
                        out[pos[("q", net.name, bus.id, ph)]] = \
                            abs(v) ** 2 - bus.v_set ** 2
        return out

    x0 = np.zeros(nx)
    for u in unknowns:
        if u[0] == "v":
            _, netname, bus, ph = u
            net = data[netname][0]
            v0 = net.bus(bus).v_set if net.bus(bus).kind == "pv" else 1.0
            x0[pos[u]] = (ROT[ph] * v0).real
            x0[pos[u] + 1] = (ROT[ph] * v0).imag
        else:
            _, netname, bus, ph = u
            demand = data[netname][4]
            x0[pos[u]] = demand.get((bus, ph), (0.0, 0.0))[1]
    sol = root(mismatch, x0, method="hybr", tol=tol)
    volts, qs = fill(sol.x)
    mis = float(np.max(np.abs(mismatch(sol.x))))
    return PowerFlowSolution(volts, qs, sol.success and mis < 1e-8, mis)


def within_bounds(nets, pf: PowerFlowSolution, slacks_too=False):
    worst = None
    for net in nets:
        for bus in net.buses:
            if bus.kind == "slack" and not slacks_too:
                continue
            for ph in bus.phases:
                m = pf.magnitude(net.name, bus.id, ph)
                ok = bus.v_min <= m <= bus.v_max
                if not ok:
                    worst = (net.name, bus.id, ph, m)
    return worst is None, worst


def reduced_least_squares_objective(nets, couplings):
    """Minimal L2 source norm via an independent reduced formulation.

    Valid when sources are current-kind, every non-slack non-coupling bus is
    eligible, and voltage bounds are inactive at the optimum.  Buses with
    their own balance freedom (slack, coupling nodes) are eliminated; PV
    buses are parametrized on their voltage circle; the remaining balance
    mismatches are exactly the optimal sources, so the problem reduces to an
    unconstrained nonlinear least squares solved with scipy.
    """
    from scipy.optimize import least_squares

    head_of = {}
    poi = set()
    for c in couplings:
        dnet = next(n.name for n in nets if n.has_bus(c.d_bus))
        tnet = next(n.name for n in nets if n.has_bus(c.t_bus))
        head_of[(dnet, c.d_bus)] = (tnet, c.t_bus)
        poi.add((tnet, c.t_bus))
    data = {n.name: net_ybus(n) + (net_demand(n),) for n in nets}
    nets_by = {n.name: n for n in nets}

    unknowns = []
    for net in nets:
        for bus in net.buses:
            if bus.kind == "slack" or (net.name, bus.id) in head_of:
                continue
            if bus.kind == "pv":
                unknowns.append(("th", net.name, bus.id, "1", 1))
                unknowns.append(("q", net.name, bus.id, "1", 1))
            else:
                for ph in bus.phases:
                    unknowns.append(("v", net.name, bus.id, ph, 2))
    pos, k = {}, 0
    for u in unknowns:
        pos[u[:4]] = k
        k += u[4]

    def volts_of(z):
        volts, qs = {}, {}
        for net in nets:
            for bus in net.buses:
                if bus.kind == "slack":
                    volts[(net.name, bus.id, "1")] = bus.v_set + 0j
                elif bus.kind == "pv":
                    th = z[pos[("th", net.name, bus.id, "1")]]
                    volts[(net.name, bus.id, "1")] = bus.v_set * np.exp(1j * th)
                    qs[(net.name, bus.id, "1")] = z[pos[("q", net.name,
                                                         bus.id, "1")]]
                elif (net.name, bus.id) not in head_of:
                    for ph in bus.phases:
                        p = pos[("v", net.name, bus.id, ph)]
                        volts[(net.name, bus.id, ph)] = z[p] + 1j * z[p + 1]
        for (dnet, dbus), (tnet, tbus) in head_of.items():
            for ph in "abc":
                volts[(dnet, dbus, ph)] = ROT[ph] * volts[(tnet, tbus, "1")]
        return volts, qs

    hard_weight = 1e4

    def residuals(z):
        volts, qs = volts_of(z)
        out = []
        kcl_of = {}
        for net in nets:
            nodes, idx, Y, demand = data[net.name]
            vvec = np.array([volts[(net.name,) + key] for key in nodes])
            kcl = Y @ vvec
            kcl_of[net.name] = (nodes, idx, kcl, demand)
            for bus in net.buses:
                if bus.kind == "slack" or (net.name, bus.id) in head_of \
                        or (net.name, bus.id) in poi:
                    continue
                for ph in bus.phases:
                    mis = kcl[idx[(bus.id, ph)]]
                    p, q = demand.get((bus.id, ph), (0.0, 0.0))
                    if (net.name, bus.id, ph) in qs:
                        q = qs[(net.name, bus.id, ph)]
                    if p or q:
                        v = volts[(net.name, bus.id, ph)]
                        mis += np.conj((p + 1j * q) / v)
                    out += [mis.real, mis.imag]
        # port balance after eliminating the free port currents: the POI
        # mismatch plus the aggregated head mismatch must vanish exactly
        for c in couplings:
            dnet = next(n.name for n in nets if n.has_bus(c.d_bus))
            tnet = next(n.name for n in nets if n.has_bus(c.t_bus))
            kappa = c.s_base / c.v_base
            _, idx_t, kcl_t, demand_t = kcl_of[tnet]
            _, idx_d, kcl_d, demand_d = kcl_of[dnet]
            mis = kcl_t[idx_t[(c.t_bus, "1")]]
            p, q = demand_t.get((c.t_bus, "1"), (0.0, 0.0))
            if p or q:
                mis += np.conj((p + 1j * q) / volts[(tnet, c.t_bus, "1")])
            for ph, coeff in (("a", 1.0), ("b", ALPHA), ("c", ALPHA ** 2)):
                head = kcl_d[idx_d[(c.d_bus, ph)]]
                p, q = demand_d.get((c.d_bus, ph), (0.0, 0.0))
                if p or q:
                    head += np.conj((p + 1j * q) / volts[(dnet, c.d_bus, ph)])
                mis += coeff * head / (3.0 * kappa)
            out += [hard_weight * mis.real, hard_weight * mis.imag]
        return np.array(out)

    z0 = np.zeros(k)
    for u in unknowns:
        if u[0] == "v":
            _, nm, bus, ph, _ = u
            z0[pos[u[:4]]] = ROT[ph].real
            z0[pos[u[:4]] + 1] = ROT[ph].imag
    best = None
    for shrink in (1.0, 0.8, 0.6):
        sol = least_squares(residuals, z0 * shrink + (1 - shrink) * 0.1,
                            xtol=1e-14, ftol=1e-14, gtol=1e-14)
        if best is None or sol.cost < best.cost:
            best = sol
    return float(best.cost)       # least_squares cost is already 0.5*sum(r^2)


def brute_force_two_bus(g, b, p, q, v_slack, vr_range=(0.05, 1.5),
                        vi_range=(-0.75, 0.75), n=1501):
    """Grid search over the load-bus voltage of the 2-bus mismatch toy.

    The minimal squared-norm current sources must absorb the whole balance
    defect at the load bus, so the objective reduces to half the squared
    balance mismatch, scanned over a dense voltage grid.
    """
    vr = np.linspace(*vr_range, n)
    vi = np.linspace(*vi_range, n)
    VR, VI = np.meshgrid(vr, vi, indexing="ij")
    V2 = VR + 1j * VI
    y = g + 1j * b
    inj = np.conj((p + 1j * q) / V2)
    mis = y * (V2 - v_slack) + inj
    f = 0.5 * np.abs(mis) ** 2
    i, j = np.unravel_index(np.argmin(f), f.shape)
    return float(f[i, j]), complex(V2[i, j])
