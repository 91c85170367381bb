"""Typed data model for combined transmission / distribution networks.

A case file is a single self-describing JSON document holding one or more
networks (positive-sequence transmission, three-phase distribution), plus
the coupling specs that tie a transmission bus to a distribution feeder
head.  Everything numeric is per-unit on each side's own base: the
transmission side on ``base_mva``, each distribution side on the
``(s_base, v_base)`` pair of its coupling.  Loader output is immutable in
spirit: networks are plain dataclasses that downstream code treats as
read-only, so they are safe to share across worker threads.

Loading validates every field and raises :class:`CaseError` naming the
first one at fault, a non-finite number included (JSON readers accept
``NaN`` and ``Infinity``), or naming a file that is not JSON.  A message
is formatted only when its check fails, since a large case runs tens of
thousands of checks.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

TRANSMISSION_PHASE = "1"
DIST_PHASES = ("a", "b", "c")

BUS_KINDS = ("slack", "pv", "pq")


class CaseError(ValueError):
    """Raised when a case or partition file violates the schema."""


def _phase_tuple(raw, where) -> tuple[str, ...]:
    if isinstance(raw, str):
        items = list(raw)
    elif isinstance(raw, (list, tuple)):
        items = [str(p) for p in raw]
    else:
        raise CaseError(f"{where()}: 'phases' must be a string or list, got {raw!r}")
    if not items:
        raise CaseError(f"{where()}: 'phases' must be non-empty")
    if items == [TRANSMISSION_PHASE]:
        return (TRANSMISSION_PHASE,)
    bad = [p for p in items if p not in DIST_PHASES]
    if bad:
        raise CaseError(f"{where()}: unknown phase(s) {bad}; expected subset of 'abc' or '1'")
    if len(set(items)) != len(items):
        raise CaseError(f"{where()}: repeated phase in {items}")
    return tuple(p for p in DIST_PHASES if p in items)


@dataclass(frozen=True)
class Bus:
    id: str
    kind: str                      # slack | pv | pq
    phases: tuple[str, ...]
    v_set: float | None            # pu magnitude, set iff kind != pq
    v_min: float
    v_max: float
    infeasibility_eligible: bool
    x: float | None = None         # optional plot coordinates
    y: float | None = None


@dataclass(frozen=True)
class Branch:
    from_bus: str
    to_bus: str
    phases: tuple[str, ...]        # shared phase set the matrices are indexed by
    g: tuple[tuple[float, ...], ...]
    b: tuple[tuple[float, ...], ...]
    flow_limit: float | None = None


@dataclass(frozen=True)
class Load:
    bus: str
    p: dict[str, float]            # phase -> pu demand
    q: dict[str, float]


@dataclass(frozen=True)
class Generator:
    bus: str
    mode: str                      # pq | pv
    p: dict[str, float]            # phase -> pu injection
    q: dict[str, float]            # pq-mode fixed injection; ignored for pv
    q_min: float = float("-inf")   # pv-mode reactive box, per phase
    q_max: float = float("inf")


@dataclass(frozen=True)
class CouplingSpec:
    t_bus: str
    d_bus: str
    s_base: float                  # VA, per-phase power base of the D side
    v_base: float                  # volts, nominal line-to-neutral at the coupling node

    @property
    def kappa(self) -> float:
        return self.s_base / self.v_base

    @property
    def key(self) -> str:
        """Port name used for parameter slots, index maps and exchange data."""
        return f"{self.t_bus}:{self.d_bus}"


@dataclass
class Network:
    name: str
    side: str                      # transmission | distribution
    buses: list[Bus]
    branches: list[Branch]
    loads: list[Load]
    generators: list[Generator]
    base_mva: float
    _by_id: dict[str, Bus] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_id = {b.id: b for b in self.buses}

    def bus(self, bus_id: str) -> Bus:
        return self._by_id[bus_id]

    def has_bus(self, bus_id: str) -> bool:
        return bus_id in self._by_id

    def phase_nodes(self) -> list[tuple[str, str]]:
        """All (bus_id, phase) pairs in case-file order, phase-minor."""
        return [(b.id, ph) for b in self.buses for ph in b.phases]

    @property
    def slack_buses(self) -> list[Bus]:
        return [b for b in self.buses if b.kind == "slack"]


@dataclass(frozen=True)
class Port:
    """A coupling as a partition resolves it: its spec and the cells that
    hold its transmission and distribution sides.  It is torn when they
    differ."""
    spec: CouplingSpec
    t_cell: str
    d_cell: str

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def torn(self) -> bool:
        return self.t_cell != self.d_cell


@dataclass
class Cell:
    """One partition cell: its networks and its ports in build order, the
    couplings internal to it first, then the torn ports it holds a side of
    in coupling order (the variable layout depends on that order)."""
    name: str
    networks: list[Network]
    ports: list[Port] = field(default_factory=list)


@dataclass
class Partition:
    """A case's networks resolved into cells and its couplings into ports."""
    cells: list[Cell]
    torn: list[Port]                # in coupling order
    internal_couplings: list[int]   # indices into the case coupling list
    external_couplings: list[int]


# ---------------------------------------------------------------------------
# validation helpers: an element's location (``where``) is a function that
# formats it, called only when a check fails


def _read_json(path) -> dict:
    """The JSON object in the file ``path``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:              # a directory, or not readable
        raise CaseError(f"{path}: cannot be read ({exc.strerror})") from None
    except ValueError as exc:           # not JSON, or not text
        raise CaseError(f"{path}: not a valid JSON file ({exc})") from None
    if not isinstance(raw, dict):
        raise CaseError(f"{path}: must hold a JSON object, got {type(raw).__name__}")
    return raw


def _entries(raw: dict, key: str, where: str) -> list:
    """The list of objects ``raw[key]``, empty if absent."""
    items = raw.get(key, [])
    if not isinstance(items, list):
        raise CaseError(f"{where}: '{key}' must be a list, got {type(items).__name__}")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise CaseError(f"{where}: '{key}'[{i}] must be an object, got {type(item).__name__}")
    return items


def _numbers(vals, nan_only: bool = False) -> tuple[float, ...]:
    """The values of the sequence ``vals`` as floats, the one number reader
    of the loader.

    Raises ``TypeError`` if one is not a number; a JSON boolean or string
    is not one, though ``float(True)`` is 1.0 and ``float("0.93")`` 0.93.
    Raises ``ValueError`` holding the first non-finite value (JSON readers
    accept ``NaN`` and ``Infinity``), or with ``nan_only`` (for fields whose
    default is infinite) the first NaN.  An integer beyond the float range
    reads as infinite, as ``1e400`` does.
    """
    if not {bool, str}.isdisjoint(map(type, vals)):
        raise TypeError
    try:
        out = tuple(map(float, vals))
    except OverflowError:
        out = tuple(map(_float, vals))
    if all(map(math.isfinite, out)):
        return out
    for v in out:
        if v != v or not (nan_only or math.isfinite(v)):
            raise ValueError(v)
    return out


def _float(v) -> float:
    """``float(v)``, or an infinity of ``v``'s sign for an integer too large
    for a float."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _number(raw: dict, key: str, where, nan_only: bool = False) -> float:
    """``raw[key]`` as a float, or an error naming the field."""
    v = raw[key]
    if type(v) is float and math.isfinite(v):  # the common case, without the tuples
        return v
    try:
        return _numbers((v,), nan_only)[0]
    except TypeError:
        raise CaseError(f"{where()}: '{key}' must be a number, got {v!r}") from None
    except ValueError as exc:
        raise CaseError(f"{where()}: '{key}' must be finite, got {exc.args[0]}") from None


def _validate_bus(raw: dict, net_name: str) -> Bus:
    def where():
        return f"network '{net_name}' bus {raw.get('id', '<missing id>')!r}"
    for key in ("id", "kind", "phases", "v_min", "v_max", "infeasibility_eligible"):
        if key not in raw:
            raise CaseError(f"{where()}: missing field '{key}'")
    kind = str(raw["kind"]).lower()
    if kind not in BUS_KINDS:
        raise CaseError(f"{where()}: kind must be one of {BUS_KINDS}, got {raw['kind']!r}")
    phases = _phase_tuple(raw["phases"], where)
    v_min, v_max = _number(raw, "v_min", where), _number(raw, "v_max", where)
    if not 0.0 < v_min < v_max:
        raise CaseError(f"{where()}: need 0 < v_min < v_max, got ({v_min}, {v_max})")
    v_set = raw.get("v_set")
    if kind == "pq":
        if v_set is not None:
            raise CaseError(f"{where()}: 'v_set' only valid on slack/pv buses")
    elif v_set is None:
        raise CaseError(f"{where()}: kind '{kind}' requires 'v_set'")
    else:
        v_set = _number(raw, "v_set", where)
        if not v_set > 0:
            raise CaseError(f"{where()}: 'v_set' must be positive")
    eligible = raw["infeasibility_eligible"]
    if not isinstance(eligible, bool):
        raise CaseError(f"{where()}: 'infeasibility_eligible' must be true or false, "
                        f"got {eligible!r}")
    if kind == "slack" and eligible:
        raise CaseError(f"{where()}: slack buses must have infeasibility_eligible = false")
    return Bus(id=str(raw["id"]), kind=kind, phases=phases, v_set=v_set,
               v_min=v_min, v_max=v_max, infeasibility_eligible=eligible,
               x=None if raw.get("x") is None else _number(raw, "x", where),
               y=None if raw.get("y") is None else _number(raw, "y", where))


def _validate_matrix(raw, n: int, where, name: str) -> tuple[tuple[float, ...], ...]:
    if not (isinstance(raw, list) and len(raw) == n):
        raise CaseError(f"{where()}: '{name}' must be a {n}x{n} matrix over the shared "
                        f"phase set")
    rows = []
    for r in raw:
        if not (isinstance(r, list) and len(r) == n):
            raise CaseError(f"{where()}: '{name}' row length != {n}")
        try:
            rows.append(_numbers(r))
        except TypeError:
            raise CaseError(f"{where()}: '{name}' must hold numbers, got {r!r}") from None
        except ValueError:
            raise CaseError(f"{where()}: '{name}' must be finite") from None
    return tuple(rows)


def _validate_branch(raw: dict, net: Network) -> Branch:
    def where():
        return f"network '{net.name}' branch {raw.get('from', '?')}-{raw.get('to', '?')}"
    for key in ("from", "to", "G", "B"):
        if key not in raw:
            raise CaseError(f"{where()}: missing field '{key}'")
    f, t = str(raw["from"]), str(raw["to"])
    for bid in (f, t):
        if not net.has_bus(bid):
            raise CaseError(f"{where()}: references unknown bus id '{bid}'")
    to_phases = net.bus(t).phases
    shared = tuple(p for p in net.bus(f).phases if p in to_phases)
    if not shared:
        raise CaseError(f"{where()}: endpoints share no phase")
    g = _validate_matrix(raw["G"], len(shared), where, "G")
    b = _validate_matrix(raw["B"], len(shared), where, "B")
    lim = raw.get("flow_limit")
    if lim is not None:
        lim = _number(raw, "flow_limit", where)
        if not lim > 0:
            raise CaseError(f"{where()}: 'flow_limit' must be positive")
    return Branch(from_bus=f, to_bus=t, phases=shared, g=g, b=b, flow_limit=lim)


def _validate_phase_map(raw, bus: Bus, where, name: str) -> dict[str, float]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise CaseError(f"{where()}: '{name}' must map phase -> value")
    for ph in raw:
        if ph not in bus.phases:
            raise CaseError(f"{where()}: phase '{ph}' not connected at bus '{bus.id}'")
    try:
        return dict(zip(raw, _numbers(raw.values())))
    except TypeError:
        raise CaseError(f"{where()}: '{name}' must map phase -> number, got {raw!r}") from None
    except ValueError:
        raise CaseError(f"{where()}: '{name}' must be finite, got {raw}") from None


def _device_bus(raw: dict, net: Network, where) -> Bus:
    """The bus a load or generator names."""
    if "bus" not in raw:
        raise CaseError(f"{where()}: missing field 'bus'")
    bid = str(raw["bus"])
    if not net.has_bus(bid):
        raise CaseError(f"{where()}: references unknown bus id '{bid}'")
    return net.bus(bid)


def _validate_load(raw: dict, net: Network) -> Load:
    def where():
        return f"network '{net.name}' load at {raw.get('bus', '?')!r}"
    bus = _device_bus(raw, net, where)
    return Load(bus=bus.id, p=_validate_phase_map(raw.get("p"), bus, where, "p"),
                q=_validate_phase_map(raw.get("q"), bus, where, "q"))


def _validate_generator(raw: dict, net: Network) -> Generator:
    def where():
        return f"network '{net.name}' generator at {raw.get('bus', '?')!r}"
    bus = _device_bus(raw, net, where)
    mode = str(raw.get("mode", "pq")).lower()
    if mode not in ("pq", "pv"):
        raise CaseError(f"{where()}: mode must be 'pq' or 'pv'")
    if mode == "pv" and bus.kind != "pv":
        raise CaseError(f"{where()}: pv-mode generator requires a pv bus")
    q_min = _number(raw, "q_min", where, nan_only=True) if "q_min" in raw else -math.inf
    q_max = _number(raw, "q_max", where, nan_only=True) if "q_max" in raw else math.inf
    if not q_min <= q_max:
        raise CaseError(f"{where()}: q_min must be <= q_max")
    return Generator(bus=bus.id, mode=mode,
                     p=_validate_phase_map(raw.get("p"), bus, where, "p"),
                     q=_validate_phase_map(raw.get("q"), bus, where, "q"),
                     q_min=q_min, q_max=q_max)


def _check_connected(net: Network):
    if len(net.buses) <= 1:
        return
    adj: dict[str, set[str]] = {b.id: set() for b in net.buses}
    for br in net.branches:
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    seen = {net.buses[0].id}
    stack = [net.buses[0].id]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) < len(net.buses):
        missing = [b.id for b in net.buses if b.id not in seen]
        raise CaseError(f"network '{net.name}' is disconnected; unreachable buses {missing}")


def _validate_network(raw: dict, idx: int, base_mva: float) -> Network:
    side = str(raw.get("side", "")).lower()
    if side not in ("transmission", "distribution"):
        raise CaseError(f"network[{idx}]: 'side' must be transmission|distribution, "
                        f"got {raw.get('side')!r}")
    name = str(raw.get("name", f"{side[0]}{idx}"))
    where = f"network '{name}'"
    buses = [_validate_bus(b, name) for b in _entries(raw, "buses", where)]
    if not buses:
        raise CaseError(f"network '{name}': needs at least one bus")
    net = Network(name=name, side=side, buses=buses, branches=[], loads=[],
                  generators=[], base_mva=base_mva)
    if len(net._by_id) < len(buses):
        count = Counter(b.id for b in buses)
        dup = sorted(i for i, c in count.items() if c > 1)
        raise CaseError(f"network '{name}': duplicate bus ids {dup}")
    for b in buses:
        if side == "transmission" and b.phases != (TRANSMISSION_PHASE,):
            raise CaseError(f"network '{name}' bus '{b.id}': transmission buses carry "
                            f"phase '1' only")
        if side == "distribution" and TRANSMISSION_PHASE in b.phases:
            raise CaseError(f"network '{name}' bus '{b.id}': distribution buses carry "
                            f"phases from 'abc'")
    net.branches = [_validate_branch(br, net) for br in _entries(raw, "branches", where)]
    net.loads = [_validate_load(ld, net) for ld in _entries(raw, "loads", where)]
    net.generators = [_validate_generator(g, net) for g in _entries(raw, "generators", where)]
    n_slack = len(net.slack_buses)
    if side == "transmission" and n_slack != 1:
        raise CaseError(f"network '{name}': transmission networks need exactly one "
                        f"slack bus, found {n_slack}")
    if side == "distribution" and n_slack:
        raise CaseError(f"network '{name}': distribution networks take their reference "
                        f"from the coupling node, not an internal slack")
    _check_connected(net)
    return net


def load_case(path) -> tuple[list[Network], list[CouplingSpec]]:
    """Parse and validate a case file; returns per-unit in-memory networks."""
    return case_from_dict(_read_json(path))


def case_from_dict(raw: dict) -> tuple[list[Network], list[CouplingSpec]]:
    if "base_mva" not in raw:
        raise CaseError("case: missing field 'base_mva'")
    base_mva = _number(raw, "base_mva", lambda: "case")
    if not base_mva > 0:
        raise CaseError(f"case: 'base_mva' must be positive, got {base_mva}")
    nets = [_validate_network(n, i, base_mva)
            for i, n in enumerate(_entries(raw, "networks", "case"))]
    if not nets:
        raise CaseError("case: needs at least one network")
    names = [n.name for n in nets]
    if len(set(names)) != len(names):
        raise CaseError(f"case: duplicate network names {names}")
    all_ids: dict[str, str] = {}
    for net in nets:
        for b in net.buses:
            if b.id in all_ids:
                raise CaseError(f"bus id '{b.id}' appears in both '{all_ids[b.id]}' and "
                                f"'{net.name}'")
            all_ids[b.id] = net.name
    by_name = {n.name: n for n in nets}

    couplings = []
    ported = set()
    for i, c in enumerate(_entries(raw, "couplings", "case")):
        where = f"coupling[{i}]"
        for key in ("t_bus", "d_bus", "s_base", "v_base"):
            if key not in c:
                raise CaseError(f"{where}: missing field '{key}'")
        t_bus, d_bus = str(c["t_bus"]), str(c["d_bus"])
        for bid in (t_bus, d_bus):
            if bid not in all_ids:
                raise CaseError(f"{where}: references unknown bus id '{bid}'")
        t_net, d_net = by_name[all_ids[t_bus]], by_name[all_ids[d_bus]]
        if t_net.side != "transmission":
            raise CaseError(f"{where}: 't_bus' must sit in a transmission network")
        if d_net.side != "distribution":
            raise CaseError(f"{where}: 'd_bus' must sit in a distribution network")
        if d_net.bus(d_bus).phases != DIST_PHASES:
            raise CaseError(f"{where}: coupling node '{d_bus}' must carry all three phases")
        if d_net.bus(d_bus).kind != "pq":
            raise CaseError(f"{where}: coupling node '{d_bus}' must be a pq bus (its "
                            f"voltage is set by the transmission side)")
        if d_bus in ported:
            raise CaseError(f"{where}: coupling node '{d_bus}' already has a port")
        s_base = _number(c, "s_base", lambda: where)
        v_base = _number(c, "v_base", lambda: where)
        if not (s_base > 0 and v_base > 0):
            raise CaseError(f"{where}: 's_base' and 'v_base' must be positive")
        ported.add(d_bus)
        couplings.append(CouplingSpec(t_bus=t_bus, d_bus=d_bus, s_base=s_base,
                                      v_base=v_base))

    coupled = {all_ids[c.d_bus] for c in couplings}
    for net in nets:
        pv_gens: dict[str, list[Generator]] = {}
        for g in net.generators:
            if g.mode == "pv":
                pv_gens.setdefault(g.bus, []).append(g)
        for b in (b for b in net.buses if b.kind == "pv"):
            pv = pv_gens.get(b.id)
            if not pv:
                raise CaseError(f"network '{net.name}' pv bus '{b.id}': needs a pv-mode "
                                f"generator")
            lo, hi = sum(g.q_min for g in pv), sum(g.q_max for g in pv)
            if not (lo < hi or not math.isfinite(lo + hi)):
                raise CaseError(f"network '{net.name}' pv bus '{b.id}': reactive box must "
                                f"have q_min < q_max")
        if net.side == "distribution" and net.name not in coupled:
            raise CaseError(f"network '{net.name}': distribution network has no coupling "
                            f"node")
    return nets, couplings


# ---------------------------------------------------------------------------
# partitions


def default_partition(nets: list[Network], couplings: list[CouplingSpec]) -> Partition:
    """One cell per network, all coupling ports torn."""
    return _finish_partition([Cell(n.name, [n]) for n in nets], couplings)


def load_partition(path, nets: list[Network], couplings: list[CouplingSpec]) -> Partition:
    return partition_from_dict(_read_json(path), nets, couplings)


def partition_from_dict(raw: dict, nets: list[Network],
                        couplings: list[CouplingSpec]) -> Partition:
    if "subproblems" not in raw:
        raise CaseError("partition: missing field 'subproblems'")
    by_name = {n.name: n for n in nets}
    assigned: dict[str, str] = {}
    cells = []
    for i, s in enumerate(_entries(raw, "subproblems", "partition")):
        name = str(s.get("name", f"sub{i}"))
        members = s.get("networks", [])
        if not isinstance(members, list):
            raise CaseError(f"partition subproblem '{name}': 'networks' must be a list")
        members = [str(m) for m in members]
        if not members:
            raise CaseError(f"partition subproblem '{name}': empty network list")
        if any(c.name == name for c in cells):
            raise CaseError(f"partition: duplicate subproblem name '{name}'")
        for m in members:
            if m not in by_name:
                raise CaseError(f"partition subproblem '{name}': unknown network '{m}'")
            if m in assigned:
                raise CaseError(f"network '{m}' assigned to both '{assigned[m]}' and "
                                f"'{name}'")
            assigned[m] = name
        cells.append(Cell(name, [by_name[m] for m in members]))
    missing = sorted(set(by_name) - set(assigned))
    if missing:
        raise CaseError(f"partition: networks {missing} not assigned to any subproblem")
    return _finish_partition(cells, couplings)


def _finish_partition(cells: list[Cell], couplings: list[CouplingSpec]) -> Partition:
    """Resolve each coupling into a port of the cells holding its two sides,
    the one place that maps buses to their networks' cells."""
    by_name = {c.name: c for c in cells}
    cell_of_bus = {b.id: c.name for c in cells for n in c.networks for b in n.buses}
    ports = [Port(c, cell_of_bus[c.t_bus], cell_of_bus[c.d_bus]) for c in couplings]
    internal = [i for i, p in enumerate(ports) if not p.torn]
    external = [i for i, p in enumerate(ports) if p.torn]
    for i in internal:
        p = ports[i]
        warnings.warn(f"coupling {p.spec.t_bus}<->{p.spec.d_bus}: both sides in "
                      f"subproblem '{p.t_cell}' (degenerate tearing)")
        by_name[p.t_cell].ports.append(p)
    for i in external:
        by_name[ports[i].t_cell].ports.append(ports[i])
        by_name[ports[i].d_cell].ports.append(ports[i])
    return Partition(cells=cells, torn=[ports[i] for i in external],
                     internal_couplings=internal, external_couplings=external)
