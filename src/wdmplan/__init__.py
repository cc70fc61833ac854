"""Two-layer IP over WDM network design: cost model, MILP builder, solvers,
transit/opacity metrics and scenario tooling."""

from .costcat import (CostCatalog, LambdaType, PhysicalNodeModule,
                      VirtualNodeModule, build_cost_catalog,
                      enumerate_virtual_modules, fiber_link_cost, lambda_type,
                      physical_modules)
from .formats import read_instance, read_sndlib, write_instance
from .metrics import (TransitReport, count_ip_paths, disaggregate_flows,
                      edge_cost, node_transit, opacity, report)
from .milp import (Model, ModelError, Solution, build_model,
                   build_transparent_variant, evaluate_cost, export_model,
                   import_solution)
from .netmodel import (Demand, Edge, Instance, Node, PhysicalGraph,
                       node_demand, scale_demand_matrix, synth_matrix)
from .pathgen import PathCatalog, PhysPath, build_catalog, k_shortest_bounded
from .solve import (Limits, SolveReport, capacity_infeasible,
                    check_feasibility, solve_exact, solve_heuristic)

__version__ = "0.1.0"

__all__ = [
    "CostCatalog", "LambdaType", "PhysicalNodeModule", "VirtualNodeModule",
    "build_cost_catalog", "enumerate_virtual_modules", "fiber_link_cost",
    "lambda_type", "physical_modules",
    "read_instance", "read_sndlib", "write_instance",
    "TransitReport", "count_ip_paths", "disaggregate_flows", "edge_cost",
    "node_transit", "opacity", "report",
    "Model", "ModelError", "Solution", "build_model",
    "build_transparent_variant", "evaluate_cost", "export_model",
    "import_solution",
    "Demand", "Edge", "Instance", "Node", "PhysicalGraph", "node_demand",
    "scale_demand_matrix", "synth_matrix",
    "PathCatalog", "PhysPath", "build_catalog", "k_shortest_bounded",
    "Limits", "SolveReport", "capacity_infeasible", "check_feasibility",
    "solve_exact", "solve_heuristic",
    "__version__",
]
