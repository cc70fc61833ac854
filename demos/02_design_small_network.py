"""Design the shipped six-node network end to end.

Loads data/toy6.txt, builds the admissible path catalog, constructs the
design model and solves it with the constructive heuristic, then prints the
cost split and the electrical/optical transit profile per PoP.

    python3 demos/02_design_small_network.py
"""

from pathlib import Path

from wdmplan import (build_catalog, build_cost_catalog, build_model,
                     check_feasibility, read_instance, solve_heuristic)
from wdmplan.metrics import fmt_cost, fmt_opacity, report

ROOT = Path(__file__).resolve().parents[1]


def main():
    inst = read_instance((ROOT / "data" / "toy6.txt").read_text())
    print(f"instance {inst.name}: {len(inst.graph.nodes)} nodes, "
          f"{len(inst.graph.edges)} links, {len(inst.pops)} PoPs, "
          f"{int(inst.total_demand())} Gbit/s total demand")

    catalog = build_catalog(inst)
    print(f"admissible paths: {len(catalog.paths)} "
          f"(k <= {inst.max_paths_per_pair}, <= {inst.max_path_km} km)")

    model = build_model(inst, catalog, build_cost_catalog(inst))
    rep = solve_heuristic(model, seed=0)
    print(f"heuristic status: {rep.status}, "
          f"lower bound {fmt_cost(rep.bound)}")
    assert not check_feasibility(model, rep.solution)

    tr = report(model, rep.solution)
    print(f"core cost {fmt_cost(tr.core_cost)}, edge cost "
          f"{fmt_cost(tr.edge_cost)}, total {fmt_cost(tr.total_cost)}")
    print(f"{tr.lambda_count} lightpaths carry {tr.ip_path_count} IP paths; "
          f"network opacity {fmt_opacity(tr.opacity)}")

    print()
    print("per-PoP transit (electrically switched vs optically bypassed):")
    for pop in sorted(inst.pops):
        print(f"  {pop}: F_IP = {fmt_cost(tr.node_ip[pop])}, "
              f"F_WDM = {fmt_cost(tr.node_wdm[pop])}")


if __name__ == "__main__":
    main()
