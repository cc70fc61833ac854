"""Compare the two core architectures on a small ring.

In the optimized architecture every PoP router may groom and forward transit
traffic; in the transparent one all transit stays in the optical layer, so
each demand needs enough point-to-point circuits on its own shortest path.
The script also shows the failure mode that makes transparent cores risky:
a hub whose add/drop demand exceeds the largest optical cross-connect.

    python3 demos/03_transparent_vs_optimized.py
"""

from wdmplan import (Demand, Edge, Instance, Node, PhysicalGraph,
                     build_catalog, build_cost_catalog, build_model,
                     build_transparent_variant, solve_exact)
from wdmplan.metrics import fmt_cost, fmt_opacity, report


def triangle():
    nodes = tuple(Node(n) for n in "abc")
    edges = (Edge("e1", "a", "b", 100), Edge("e2", "b", "c", 100),
             Edge("e3", "a", "c", 800))
    demands = (Demand("a", "b", 20), Demand("b", "c", 30), Demand("a", "c", 10))
    return Instance(name="ring3", graph=PhysicalGraph(nodes, edges),
                    pops=("a", "b", "c"), demands=demands, speeds=(10,))


def star(spokes=5, value=802):
    nodes = (Node("hub"),) + tuple(Node(f"s{i}") for i in range(1, spokes + 1))
    edges = tuple(Edge(f"e{i}", "hub", f"s{i}", 100)
                  for i in range(1, spokes + 1))
    demands = tuple(Demand("hub", f"s{i}", value)
                    for i in range(1, spokes + 1))
    return Instance(name="star", graph=PhysicalGraph(nodes, edges),
                    pops=tuple(n.id for n in nodes), demands=demands,
                    speeds=(10,))


def main():
    inst = triangle()
    catalog = build_catalog(inst)
    costs = build_cost_catalog(inst)

    optimized = build_model(inst, catalog, costs)
    transparent = build_transparent_variant(inst, catalog, costs)
    opt = solve_exact(optimized)
    tra = solve_exact(transparent)

    print(f"{inst.name}: demands are exact multiples of the 10G circuit,")
    print("so grooming buys nothing and the transparent core wins:")
    for label, model, rep in (("optimized", optimized, opt),
                              ("transparent", transparent, tra)):
        tr = report(model, rep.solution)
        print(f"  {label:>11}: status {rep.status}, total "
              f"{fmt_cost(tr.core_cost)}, opacity {fmt_opacity(tr.opacity)}")

    print()
    overload = star()
    t_star = build_transparent_variant(overload, build_catalog(overload),
                                       build_cost_catalog(overload))
    rep = solve_exact(t_star)
    need = sum(-(-d.value // 10) for d in overload.demands)
    print(f"star hub terminates {need} circuits but the largest optical "
          f"node offers 400 add/drop ports:")
    print(f"  exact solver: {rep.status}")


if __name__ == "__main__":
    main()
