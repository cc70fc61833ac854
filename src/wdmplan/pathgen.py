"""Admissible physical path catalogs.

For every unordered PoP pair we enumerate up to K shortest simple paths whose
length stays within the optical reach (default 750 km, no regeneration).
Enumeration is one best-first (A*) search over the partial simple paths
from one end, keyed `(length + rest, edge ids)`. `rest` is a lower bound
on the length still to go: the end node's whole-graph distance to the
target, which `_distances_to` computes once per target, or once certified
the exact shortest completion that avoids the partial path's nodes. A
prefix of a path keys no higher than the path's length, and its edge ids,
a proper prefix of the path's, compare lower; so some prefix of every
path is in the heap ahead of the path, whole paths pop in (length, edge
ids) order, and the search stops at the K-th. A partial path is extended
only at an exact key (see `_k_shortest`): without the certificate,
partial paths cut off from the target would survive on their low keys
and the search would grow without end.

Ordering contract: within a pair, paths are sorted by (length, edge-id
sequence); the lexicographic tiebreak makes catalogs reproducible across runs
and platforms. A partial path that no completion within the reach can
extend is dropped.

Lengths are exact `Fraction`s outside the search and scaled integers inside
it: every edge length and the reach are multiplied by the lcm of their
denominators. Scaling by a positive constant keeps every `<`, `==` and `>`
between lengths, so the search order, the tiebreak and the reach cut are
those of the Fractions; a path's `length_km` is its integer length over the
scale.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import IO

from .netmodel import Instance, PhysicalGraph, as_fraction


@dataclass(frozen=True)
class PhysPath:
    """Simple physical path between two PoPs, stored in canonical orientation
    (from the smaller endpoint id)."""

    edges: tuple[str, ...]
    nodes: tuple[str, ...]
    length_km: Fraction

    @property
    def ends(self) -> tuple[str, str]:
        return (self.nodes[0], self.nodes[-1])

    @property
    def interior(self) -> tuple[str, ...]:
        return self.nodes[1:-1]

    def __len__(self) -> int:
        return len(self.edges)


def _walk_nodes(graph: PhysicalGraph, start: str, edge_ids: tuple[str, ...]) -> tuple[str, ...]:
    nodes = [start]
    at = start
    for eid in edge_ids:
        at = graph.edge(eid).other(at)
        nodes.append(at)
    return tuple(nodes)


class _ScaledGraph:
    """A graph, and its edge lengths and a reach as ints, each times
    `scale`, the lcm of their denominators; built once per catalog (or
    `k_shortest_bounded`) call. Node `n` is bit `bit[n]` of a node set."""

    def __init__(self, graph: PhysicalGraph, bound: Fraction):
        self.graph = graph
        exact = {e.id: as_fraction(e.length_km) for e in graph.edges}
        self.scale = lcm(bound.denominator, *(x.denominator for x in exact.values()))
        self.reach = bound.numerator * (self.scale // bound.denominator)
        length = {eid: x.numerator * (self.scale // x.denominator)
                  for eid, x in exact.items()}
        self.bit = {n: 1 << idx for idx, n in enumerate(graph.node_ids())}
        # node -> ((edge id, neighbour, length, neighbour's bit), ...) in incident order
        self.adj = {n: tuple((e.id, e.other(n), length[e.id], self.bit[e.other(n)])
                             for e in graph.incident(n))
                    for n in graph.node_ids()}


def _distances_to(sg: _ScaledGraph, target: str) -> tuple[dict[str, int], dict[str, int]]:
    """Shortest distance from every node within the reach of `target`, on
    the whole graph: a lower bound on any path to `target` that avoids some
    nodes. And per node, the node set (see `_ScaledGraph`) of one shortest
    path from it to `target`, without itself: if that set avoids the banned
    nodes, the bound is exact."""
    dist: dict[str, int] = {}
    beyond: dict[str, int] = {}
    heap = [(0, target, 0)]
    while heap:
        d, u, below = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        beyond[u] = below
        below |= sg.bit[u]
        for _, w, length, _ in sg.adj[u]:
            nd = d + length
            if nd <= sg.reach and w not in dist:
                heapq.heappush(heap, (nd, w, below))
    return dist, beyond


def _dijkstra(sg: _ScaledGraph, source: str, target: str, to_target: dict[str, int],
              max_len: int, banned: int) -> int | None:
    """Length of the shortest source->target path that avoids the node set
    `banned` (see `_ScaledGraph`) and is no longer than `max_len`, or None:
    the certificate of `_k_shortest`.

    The search is goal-directed (A*): the heap is ordered by
    `length + to_target[node]`. `to_target` holds whole-graph distances, so
    on any subgraph left by the bans it is a consistent lower bound, and
    the first pop of a node has the node's shortest length; each settled
    node joins `banned`. A state whose length plus `to_target` exceeds
    `max_len` is dropped, as no completion of it fits.
    """
    h = to_target.get(source)
    if h is None or h > max_len:
        return None
    # (length + to_target, length, node)
    heap = [(h, 0, source)]
    while heap:
        _, dist, u = heapq.heappop(heap)
        if u == target:
            return dist
        if banned & sg.bit[u]:
            continue
        banned |= sg.bit[u]
        for _, w, length, bit in sg.adj[u]:
            if banned & bit:
                continue
            nd = dist + length
            h = to_target.get(w)
            if h is not None and nd + h <= max_len:
                heapq.heappush(heap, (nd + h, nd, w))
    return None


def _k_shortest(sg: _ScaledGraph, i: str, j: str, k: int, to_j: dict[str, int],
                beyond: dict[str, int]) -> list[PhysPath]:
    """The first `k` simple i-j paths within the reach in (length, edge ids)
    order, by the search of the module docstring; `to_j` and `beyond` are
    `_distances_to(sg, j)`.

    A heap entry holds a partial path's edge ids, its end node and its node
    set; a path that reaches j gets its nodes from `_walk_nodes`. A partial
    path's key is exact when `beyond` of its end avoids its nodes, or once
    certified: else one `_dijkstra` from its end, with its other nodes
    banned, either puts it back at its exact key or drops it, as no
    completion fits the reach.
    """
    if i not in to_j:
        return []
    found: list[PhysPath] = []
    # (key, edge ids, length, end node, node set, key certified); no two
    # entries share edge ids, so the later fields are never compared
    heap = [(to_j[i], (), 0, i, sg.bit[i], False)]
    while heap:
        _, eids, dist, u, nodes, certified = heapq.heappop(heap)
        if u == j:
            found.append(PhysPath(edges=eids, nodes=_walk_nodes(sg.graph, i, eids),
                                  length_km=Fraction(dist, sg.scale)))
            if len(found) == k:
                break
            continue
        if not certified and beyond[u] & nodes:
            rest = _dijkstra(sg, u, j, to_j, sg.reach - dist, nodes & ~sg.bit[u])
            if rest is not None:
                heapq.heappush(heap, (dist + rest, eids, dist, u, nodes, True))
            continue
        for eid, w, length, bit in sg.adj[u]:
            if nodes & bit:
                continue
            nd = dist + length
            h = to_j.get(w)
            if h is not None and nd + h <= sg.reach:
                heapq.heappush(heap, (nd + h, eids + (eid,), nd, w, nodes | bit, False))
    return found


def k_shortest_bounded(graph: PhysicalGraph, i: str, j: str, k: int,
                       max_len_km) -> list[PhysPath]:
    """Up to `k` shortest simple i-j paths no longer than `max_len_km`.

    Returns fewer than `k` paths only when no further bounded simple path
    exists. Output is ascending by (length, edge-id sequence).
    """
    if i == j:
        raise ValueError("path endpoints coincide")
    for n in (i, j):
        if not graph.has_node(n):
            raise ValueError(f"unknown node {n!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    sg = _ScaledGraph(graph, as_fraction(max_len_km))
    return _k_shortest(sg, i, j, k, *_distances_to(sg, j))


class PathCatalog:
    """All admissible paths of an instance plus the incidence indexes the
    model builder and the transit metrics need.

    `pair_paths[(i, j)]` is the ordered per-pair list (i < j); `paths` is the
    global union in pair order, and a path's position in it serves as its
    stable id for variable naming. `pair_ids[(i, j)]` is the range of the
    pair's ids, and the endpoint and edge indexes hold ids too.
    """

    def __init__(self, pair_paths: dict[tuple[str, str], tuple[PhysPath, ...]]):
        self.pair_paths = dict(sorted(pair_paths.items()))
        self.paths: tuple[PhysPath, ...] = tuple(
            p for plist in self.pair_paths.values() for p in plist)
        self.pair_ids: dict[tuple[str, str], range] = {}
        start = 0
        for pair, plist in self.pair_paths.items():
            self.pair_ids[pair] = range(start, start + len(plist))
            start += len(plist)
        endpoint: dict[str, list[int]] = {}
        on_edge: dict[str, list[int]] = {}
        for pid, p in enumerate(self.paths):
            for n in p.ends:
                endpoint.setdefault(n, []).append(pid)
            for e in p.edges:
                on_edge.setdefault(e, []).append(pid)
        self._endpoint = {n: tuple(ids) for n, ids in endpoint.items()}
        self._on_edge = {e: tuple(ids) for e, ids in on_edge.items()}

    def endpoint_ids(self, node: str) -> tuple[int, ...]:
        """Ids of the paths with an end node at `node` (the delta_P index)."""
        return self._endpoint.get(node, ())

    def ids_on_edge(self, edge_id: str) -> tuple[int, ...]:
        """Ids of the paths that use edge `edge_id`."""
        return self._on_edge.get(edge_id, ())

    def empty_pairs(self) -> tuple[tuple[str, str], ...]:
        """PoP pairs with no admissible path at all."""
        return tuple(pair for pair, plist in self.pair_paths.items() if not plist)

    def __len__(self) -> int:
        return len(self.paths)


def build_catalog(instance: Instance) -> PathCatalog:
    """Per-pair k-shortest catalogs over all unordered PoP pairs.

    Pairs without a bounded path get an empty entry; whether that is fatal
    depends on the architecture (the model builders decide).
    """
    sg = _ScaledGraph(instance.graph, as_fraction(instance.max_path_km))
    pops = sorted(instance.pops)
    pair_paths = {}
    for b_idx, b in enumerate(pops):
        to_b, beyond = _distances_to(sg, b)
        for a in pops[:b_idx]:
            pair_paths[(a, b)] = tuple(_k_shortest(sg, a, b, instance.max_paths_per_pair,
                                                   to_b, beyond))
    return PathCatalog(pair_paths)


def dump_paths(catalog: PathCatalog, out: IO[str]) -> None:
    """Write a catalog as text: `<i> <j> <length> <edge> <edge> ...` lines."""
    for (i, j), plist in catalog.pair_paths.items():
        if not plist:
            out.write(f"{i} {j} - EMPTY\n")
        for p in plist:
            out.write(f"{i} {j} {p.length_km} {' '.join(p.edges)}\n")


def load_paths(inp: IO[str], graph: PhysicalGraph) -> PathCatalog:
    """Inverse of dump_paths; lengths are recomputed and checked. A pair
    must come smaller id first (the solvers read a path's ends as its pair),
    its paths once each (a position is an id) in (length, edge ids) order
    (the solvers take a pair's first path as its shortest), and every path
    simple (the model counts each of its edges once), and a pair marked
    `EMPTY` lists no path, nor anything after the marker; a line that breaks
    a rule, lacks fields, names an unknown edge, or does not walk from i to j
    at its stored length raises `ValueError` naming the line."""
    pair_paths: dict[tuple[str, str], list[PhysPath]] = {}
    empty: set[tuple[str, str]] = set()
    for lineno, line in enumerate(inp, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 4:
            raise ValueError(f"line {lineno}: expected '<i> <j> <length> <edge> ...' "
                             "or '<i> <j> - EMPTY'")
        i, j = parts[0], parts[1]
        if i >= j:
            raise ValueError(f"line {lineno}: pair {i} {j} is not listed smaller id first")
        plist = pair_paths.setdefault((i, j), [])
        marked = parts[2] == "-" and parts[3] == "EMPTY"
        if (marked and plist) or (not marked and (i, j) in empty):
            raise ValueError(f"line {lineno}: pair {i} {j} is marked EMPTY and lists paths")
        if marked:
            if len(parts) > 4:
                raise ValueError(f"line {lineno}: text after the EMPTY marker of pair {i} {j}")
            empty.add((i, j))
            continue
        eids = tuple(parts[3:])
        try:
            stored = Fraction(parts[2])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: length {parts[2]!r} is not a number") from None
        try:
            nodes = _walk_nodes(graph, i, eids)
        except KeyError as exc:
            raise ValueError(f"line {lineno}: unknown edge {exc.args[0]}") from None
        except ValueError as exc:  # an edge that does not touch the walk
            raise ValueError(f"line {lineno}: {exc}") from None
        if nodes[-1] != j:
            raise ValueError(f"line {lineno}: edge walk of {i}-{j} path ends at {nodes[-1]}")
        if len(set(nodes)) < len(nodes):
            raise ValueError(f"line {lineno}: {i}-{j} path visits a node twice")
        length = sum((graph.edge(e).length_km for e in eids), Fraction(0))
        if length != stored:
            raise ValueError(f"line {lineno}: stored length {parts[2]} != recomputed {length}")
        if plist and (length, eids) <= (plist[-1].length_km, plist[-1].edges):
            # in order, a path listed twice would follow itself
            if eids == plist[-1].edges:
                raise ValueError(f"line {lineno}: duplicate {i}-{j} path")
            raise ValueError(f"line {lineno}: {i}-{j} path listed out of (length, edge ids) order")
        plist.append(PhysPath(edges=eids, nodes=nodes, length_km=length))
    return PathCatalog({k: tuple(v) for k, v in pair_paths.items()})
