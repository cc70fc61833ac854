"""Seeded synthetic inputs for the benchmark.

`synthetic_network` stands in for the SNDlib germany50 topology, which is
not shipped: a random spanning tree plus about n/2 + 10 chords, links of
30-130 km, and a full-mesh demand matrix of 5-120 Gbps over a random PoP
subset. `small_network` is sized like the acceptance suite's mid-size
instances for the exact solver, and `tiny_network` like the ones it proves
at once. All three are pure functions of a `random.Random`, so one seed
always yields the same instance. `g50_network` and `mid_network` are the
inputs of the benchmark's g50-export and heur-mid workloads; run alone,
this file writes the first:

    PYTHONPATH=src python3 perfbench/gen.py --seed 7 --out g50.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import random

from wdmplan import Demand, Edge, Instance, Node, PhysicalGraph, write_instance

# the g50-export network: germany50's site and PoP counts, paths per pair,
# and the seed of its one topology
G50_SITES, G50_POPS, G50_K, G50_NETWORK_SEED = 50, 17, 8, 0
# the heur-mid network, one for every seed: the heuristic's work on a
# network drawn per seed varies by a quarter from seed to seed
MID_SITES, MID_POPS, MID_K, MID_NETWORK_SEED = 24, 7, 10, 0


def _tree_plus_chords(rng: random.Random, n_sites: int, n_chords: int,
                      min_km: int, max_km: int) -> PhysicalGraph:
    names = [f"s{i:02d}" for i in range(n_sites)]
    links = []
    for i in range(1, n_sites):
        links.append((names[rng.randrange(i)], names[i]))
    adjacent = {frozenset(link) for link in links}
    # a chord joins two sites that are not yet adjacent
    max_chords = n_sites * (n_sites - 1) // 2 - len(links)
    while len(links) < n_sites - 1 + min(n_chords, max_chords):
        a, b = rng.sample(names, 2)
        if frozenset((a, b)) not in adjacent:
            adjacent.add(frozenset((a, b)))
            links.append((a, b))
    edges = [Edge(id=f"e{i}", u=a, v=b, length_km=rng.randint(min_km, max_km))
             for i, (a, b) in enumerate(links)]
    return PhysicalGraph([Node(id=n) for n in names], edges)


def _full_mesh(rng: random.Random, pops: list[str], lo: int, hi: int) -> list[Demand]:
    return [Demand(a, b, rng.randint(lo, hi))
            for i, a in enumerate(pops) for b in pops[i + 1:]]


def synthetic_network(rng: random.Random, n_sites: int, n_pops: int, k: int,
                      max_km: int = 750, speeds=(10, 100),
                      name: str = "synthetic") -> Instance:
    """A germany50-like backbone: tree + n/2+10 chords, 30-130 km links."""
    graph = _tree_plus_chords(rng, n_sites, n_sites // 2 + 10, 30, 130)
    pops = sorted(rng.sample(graph.node_ids(), n_pops))
    return Instance(graph=graph, pops=tuple(pops),
                    demands=tuple(_full_mesh(rng, pops, 5, 120)),
                    speeds=speeds, max_path_km=max_km, max_paths_per_pair=k,
                    name=name)


def g50_network(seed: int) -> Instance:
    """The g50-export workload's network for `seed`. Like germany50 it has
    one topology and PoP set; the seed draws the demand volumes. (Path
    generation on a topology drawn per seed varies by a fifth from seed
    to seed.)"""
    inst = synthetic_network(random.Random(G50_NETWORK_SEED), G50_SITES, G50_POPS,
                             G50_K)
    demands = _full_mesh(random.Random(seed), list(inst.pops), 5, 120)
    return dataclasses.replace(inst, demands=tuple(demands), name=f"g50-{seed}")


def mid_network() -> Instance:
    """The heur-mid workload's network."""
    return synthetic_network(random.Random(MID_NETWORK_SEED), MID_SITES, MID_POPS,
                             MID_K, name="mid")


def small_network(rng: random.Random, name: str = "small") -> Instance:
    """An exact-solver sized instance: 7 sites, 4 PoPs, full-mesh demands
    of 1-260 Gbps, 3 paths per pair, 10G and 100G circuits."""
    graph = _tree_plus_chords(rng, 7, 3, 40, 150)
    pops = sorted(rng.sample(graph.node_ids(), 4))
    return Instance(graph=graph, pops=tuple(pops),
                    demands=tuple(_full_mesh(rng, pops, 1, 260)),
                    speeds=(10, 100), max_path_km=1200, max_paths_per_pair=3,
                    name=name)


def tiny_network(rng: random.Random, name: str = "tiny") -> Instance:
    """An instance the exact solver proves at once: 2-4 sites, 2-3 PoPs,
    1-3 demands of 1-16 Gbps, 2 paths per pair, 10G circuits only."""
    n_sites = rng.randint(2, 4)
    graph = _tree_plus_chords(rng, n_sites, rng.randint(0, 2), 40, 300)
    pops = sorted(rng.sample(graph.node_ids(), rng.randint(2, min(3, n_sites))))
    pairs = [(a, b) for i, a in enumerate(pops) for b in pops[i + 1:]]
    rng.shuffle(pairs)
    demands = [Demand(a, b, rng.randint(1, 16))
               for a, b in sorted(pairs[:rng.randint(1, min(3, len(pairs)))])]
    return Instance(graph=graph, pops=tuple(pops), demands=tuple(demands),
                    speeds=(10,), max_path_km=900, max_paths_per_pair=2,
                    name=name)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.out, "w") as f:
        write_instance(g50_network(args.seed), f)


if __name__ == "__main__":
    main()
