"""Problem instances: physical topology, PoP set, demands, scenario knobs.

Everything here is immutable after construction; instances can be shared
freely between worker processes or threads evaluating different scenarios.
Link lengths and demand values are normalized to `Fraction`/`int` so that
downstream cost arithmetic stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, Mapping

MODE_OPTIMIZED = "optimized"
MODE_TRANSPARENT = "transparent-core"
MODES = (MODE_OPTIMIZED, MODE_TRANSPARENT)

DEFAULT_CHANNELS_PER_FIBER = 40
DEFAULT_MAX_PATH_KM = 750
DEFAULT_MAX_PATHS_PER_PAIR = 50


def as_fraction(value) -> Fraction:
    """Exact rational from int/str/Fraction, or the decimal reading of a float.

    Floats go through `str` so `0.3` becomes 3/10, not its binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


@dataclass(frozen=True)
class Node:
    id: str
    x: float | None = None
    y: float | None = None


@dataclass(frozen=True)
class Edge:
    """Undirected physical link with a positive length in km."""

    id: str
    u: str
    v: str
    length_km: Fraction

    def other(self, node: str) -> str:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node!r} not an endpoint of edge {self.id!r}")


class PhysicalGraph:
    """Undirected multigraph of WDM sites and fiber links.

    Parallel edges are allowed as long as their ids differ; self-loops are
    rejected. The adjacency index is built once at construction.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge]):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._node_by_id = {n.id: n for n in self.nodes}
        if len(self._node_by_id) != len(self.nodes):
            raise ValueError("duplicate node ids")
        self._edge_by_id = {e.id: e for e in self.edges}
        if len(self._edge_by_id) != len(self.edges):
            raise ValueError("duplicate edge ids")
        adj: dict[str, list[Edge]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            if e.u == e.v:
                raise ValueError(f"self-loop edge {e.id!r}")
            if e.u not in self._node_by_id or e.v not in self._node_by_id:
                raise ValueError(f"edge {e.id!r} references unknown node")
            if e.length_km <= 0:
                raise ValueError(f"edge {e.id!r} has non-positive length")
            adj[e.u].append(e)
            adj[e.v].append(e)
        self._adj = {n: tuple(es) for n, es in adj.items()}

    def __eq__(self, other):
        if not isinstance(other, PhysicalGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def node(self, node_id: str) -> Node:
        return self._node_by_id[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_by_id

    def edge(self, edge_id: str) -> Edge:
        return self._edge_by_id[edge_id]

    def incident(self, node_id: str) -> tuple[Edge, ...]:
        """Edges incident to a node, in construction order."""
        return self._adj[node_id]

    def component(self, start: str) -> set[str]:
        """Node ids reachable from `start`."""
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for e in self._adj[u]:
                w = e.other(u)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen


@dataclass(frozen=True, order=True)
class Demand:
    """Undirected demand between two PoPs, value in Gbps.

    Endpoints are stored in canonical (sorted) order; `value` is a positive
    integer after scaling.
    """

    u: str
    v: str
    value: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"demand endpoints coincide: {self.u!r}")
        if self.u > self.v:
            u, v = self.u, self.v
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)
        if not isinstance(self.value, int) or self.value < 1:
            raise ValueError(f"demand value must be a positive integer, got {self.value!r}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.u, self.v)


def merge_directed(entries: Mapping[tuple[str, str], float]) -> dict[tuple[str, str], Fraction]:
    """Collapse a possibly directed mapping onto unordered pairs by summation."""
    merged: dict[tuple[str, str], Fraction] = {}
    for (a, b), val in entries.items():
        if a == b:
            raise ValueError(f"demand endpoints coincide: {a!r}")
        key = (a, b) if a < b else (b, a)
        merged[key] = merged.get(key, Fraction(0)) + as_fraction(val)
    return merged


def scale_demand_matrix(raw: Mapping[tuple[str, str], float], target_total) -> list[Demand]:
    """Scale a raw demand matrix so its total reaches a target, in whole Gbps.

    Each positive entry becomes ceil(raw * target / sum(raw)); zero entries
    are dropped. The result total lands in [target, target + #entries).
    Directed duplicates (a,b)/(b,a) are merged by summation first.
    """
    target = as_fraction(target_total)
    if target <= 0:
        raise ValueError(f"target total must be positive, got {target_total}")
    merged = {k: v for k, v in merge_directed(raw).items() if v != 0}
    if any(v < 0 for v in merged.values()):
        raise ValueError("negative demand entry")
    total = sum(merged.values(), Fraction(0))
    if total == 0:
        raise ValueError("empty demand matrix")
    demands = [Demand(u, v, ceil(val * target / total))
               for (u, v), val in sorted(merged.items())]
    return demands


def synth_matrix(mode: str, pops: Iterable[str], weights: Mapping[str, float],
                 target_total, hub: str | None = None, hub_factor=1) -> list[Demand]:
    """Gravity-style synthetic demands over a PoP set.

    `decentralized` uses raw_ij = w_i * w_j directly; `centralized`
    additionally amplifies one hub node's weight by `hub_factor` before
    taking products, concentrating traffic on pairs touching the hub.
    """
    pops = list(pops)
    if len(pops) < 2:
        raise ValueError("need at least 2 PoPs")
    if mode not in ("centralized", "decentralized"):
        raise ValueError(f"unknown matrix mode {mode!r}")
    w = {}
    for p in pops:
        wp = as_fraction(weights[p])
        if wp <= 0:
            raise ValueError(f"weight of {p!r} must be positive")
        w[p] = wp
    if mode == "centralized":
        if hub is None:
            raise ValueError("centralized mode needs a hub node")
        if hub not in w:
            raise ValueError(f"hub {hub!r} not among the PoPs")
        factor = as_fraction(hub_factor)
        if factor < 1:
            raise ValueError(f"hub factor must be >= 1, got {hub_factor}")
        w[hub] *= factor
    raw = {}
    for i, a in enumerate(pops):
        for b in pops[i + 1:]:
            raw[(a, b)] = w[a] * w[b]
    return scale_demand_matrix(raw, target_total)


# scenario field of `Instance` -> the problem with a value, or None if it is fine
PARAM_RULES = {
    "speeds": lambda v: None if v and set(v) <= {10, 100}
    else f"speeds must be a non-empty subset of (10, 100), got {v}",
    "channels_per_fiber": lambda v: None if v >= 1 else "channels per fiber must be >= 1",
    "max_path_km": lambda v: None if v > 0 else "path bound must be positive",
    "max_paths_per_pair": lambda v: None if v >= 1 else "per-pair path limit must be positive",
    "transponder_scale": lambda v: None if v >= 1 else "transponder scale must be >= 1",
    "mode": lambda v: None if v in MODES else f"unknown mode {v!r}, expected one of {MODES}",
}


def check_param(name: str, value) -> None:
    """Raise ValueError if `value` breaks the rule of the `Instance` field
    `name`. `Instance` checks each scenario field here, and so does the
    instance reader at the `param` line that sets it."""
    problem = PARAM_RULES[name](value)
    if problem:
        raise ValueError(problem)


@dataclass(frozen=True)
class Instance:
    """One design problem: topology, PoPs, demands and scenario parameters."""

    graph: PhysicalGraph
    pops: tuple[str, ...]
    demands: tuple[Demand, ...]
    speeds: tuple[int, ...] = (10, 100)
    channels_per_fiber: int = DEFAULT_CHANNELS_PER_FIBER
    max_path_km: int = DEFAULT_MAX_PATH_KM
    max_paths_per_pair: int = DEFAULT_MAX_PATHS_PER_PAIR
    transponder_scale: Fraction = Fraction(1)
    mode: str = MODE_OPTIMIZED
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "pops", tuple(self.pops))
        object.__setattr__(self, "demands", tuple(self.demands))
        object.__setattr__(self, "speeds", tuple(sorted(set(self.speeds))))
        object.__setattr__(self, "transponder_scale", as_fraction(self.transponder_scale))
        for name in PARAM_RULES:
            check_param(name, getattr(self, name))
        unknown = [p for p in self.pops if not self.graph.has_node(p)]
        if unknown:
            raise ValueError(f"PoPs not in graph: {unknown}")
        if len(set(self.pops)) != len(self.pops):
            raise ValueError("duplicate PoPs")
        pop_set = set(self.pops)
        seen_pairs = set()
        for d in self.demands:
            if d.u not in pop_set or d.v not in pop_set:
                raise ValueError(f"demand {d.u}-{d.v} has endpoint outside the PoP set")
            if d.pair in seen_pairs:
                raise ValueError(f"duplicate demand pair {d.pair}; merge before construction")
            seen_pairs.add(d.pair)
        used = {n for d in self.demands for n in d.pair}
        if used:
            comp = self.graph.component(next(iter(sorted(used))))
            stranded = sorted(used - comp)
            if stranded:
                raise ValueError(f"demand endpoints not connected to the rest: {stranded}")

    def total_demand(self) -> int:
        return sum(d.value for d in self.demands)


def node_demand(instance: Instance) -> dict[str, int]:
    """Total demand terminating at each node; non-PoP sites get 0.

    Satisfies sum(d(i)) == 2 * total demand, since every demand is counted at
    both of its endpoints.
    """
    d = {n: 0 for n in instance.graph.node_ids()}
    for dem in instance.demands:
        d[dem.u] += dem.value
        d[dem.v] += dem.value
    return d

