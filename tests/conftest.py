"""Shared instance builders for the test suite."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from wdmplan.netmodel import Demand, Edge, Instance, Node, PhysicalGraph
from wdmplan.pathgen import build_catalog

ROOT = Path(__file__).resolve().parents[1]


# SNDlib text of a three-node ring, shared by the format and CLI tests
SND_FIXTURE = """\
?SNDlib native format; type: network; version: 1.0
# a three node ring
NODES (
  essen ( 7.01 51.45 )
  dortmund ( 7.48 51.51 )
  koeln ( 6.96 50.94 )
)
LINKS (
  l1 ( essen dortmund ) 0.00 0.00 36.00 40.00 ( 40.00 85.00 )
  l2 ( dortmund koeln ) 0.00 0.00 95.00 99.00 ( 40.00 85.00 )
  l3 ( essen koeln ) 0.00 0.00 58.00 61.00 ( 40.00 85.00 )
)
DEMANDS (
  d1 ( essen dortmund ) 1 22.00
  d2 ( koeln essen ) 1 14.00
  d3 ( essen koeln ) 1 3.00
)
"""


def perfbench_gen():
    """The benchmark's seeded instance generators (perfbench/gen.py)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def make_graph(edge_list, extra_nodes=()):
    """Graph from (id, u, v, length_km) tuples; nodes are inferred."""
    ids = []
    for _, u, v, _ in edge_list:
        for n in (u, v):
            if n not in ids:
                ids.append(n)
    for n in extra_nodes:
        if n not in ids:
            ids.append(n)
    nodes = tuple(Node(id=n) for n in ids)
    edges = tuple(Edge(id=e, u=u, v=v, length_km=Fraction(l))
                  for e, u, v, l in edge_list)
    return PhysicalGraph(nodes, edges)


def make_instance(edge_list, pops, demands, **kw):
    graph = make_graph(edge_list)
    dem = tuple(Demand(u, v, val) for u, v, val in demands)
    return Instance(graph=graph, pops=tuple(pops), demands=dem, **kw)


def triangle_instance(demands=((("a", "b", 25),)), **kw):
    return make_instance(
        [("e1", "a", "b", 100), ("e2", "b", "c", 100), ("e3", "a", "c", 300)],
        pops=("a", "b", "c"), demands=demands, **kw)


def random_connected_edges(rng, n_nodes, extra_edges, min_len=40, max_len=400):
    """Random connected multigraph edge list over nodes n0..n{k-1}."""
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        edges.append((f"e{len(edges)}", names[j], names[i],
                      rng.randint(min_len, max_len)))
    for _ in range(extra_edges):
        i, j = rng.sample(range(n_nodes), 2)
        edges.append((f"e{len(edges)}", names[i], names[j],
                      rng.randint(min_len, max_len)))
    return names, edges


def random_tiny_instance(rng: random.Random) -> Instance:
    """Instance small enough for exhaustive checking: <= 4 nodes, <= 3
    demands, <= 2 paths per pair, 10G circuits only, modest values."""
    n_nodes = rng.randint(2, 4)
    names, edges = random_connected_edges(rng, n_nodes, rng.randint(0, 2))
    n_pops = rng.randint(2, min(3, n_nodes))
    pops = rng.sample(names, n_pops)
    pairs = [(a, b) for i, a in enumerate(pops) for b in pops[i + 1:]]
    rng.shuffle(pairs)
    demands = [(min(a, b), max(a, b), rng.randint(1, 16))
               for a, b in pairs[:rng.randint(1, min(3, len(pairs)))]]
    return make_instance(edges, pops, demands, speeds=(10,),
                         max_paths_per_pair=2, max_path_km=900)


def random_midsize_instance(rng: random.Random) -> Instance:
    n_nodes = rng.randint(5, 9)
    names, edges = random_connected_edges(rng, n_nodes, rng.randint(1, 4))
    n_pops = rng.randint(3, min(5, n_nodes))
    pops = rng.sample(names, n_pops)
    pairs = [(a, b) for i, a in enumerate(pops) for b in pops[i + 1:]]
    rng.shuffle(pairs)
    n_dem = rng.randint(2, len(pairs))
    speeds = rng.choice([(10,), (100,), (10, 100)])
    demands = [(min(a, b), max(a, b), rng.randint(1, 260))
               for a, b in pairs[:n_dem]]
    return make_instance(edges, pops, demands, speeds=speeds,
                         max_paths_per_pair=rng.randint(2, 6), max_path_km=1200)


def routable_instance(maker, rng):
    """(instance, catalog) where every demand pair has an admissible path."""
    while True:
        inst = maker(rng)
        cat = build_catalog(inst)
        if all(cat.pair_paths.get(d.pair) for d in inst.demands):
            return inst, cat
