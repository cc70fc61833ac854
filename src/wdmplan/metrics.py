"""Post-solution analysis.

Takes a solved design and answers: how much traffic does each light path
carry, how much flow does each PoP forward electrically (router transit)
versus optically (circuits passing through without termination), how opaque
is the network, and what do the edge-facing router interfaces cost.

Aggregated virtual flows do not pin down per-path values, so both the
disaggregation onto light paths and the decomposition into routing paths use
fixed deterministic tie-breaks (shortest first, then identifier order). Other
tie-breaks can give different per-node transit splits for the same design;
we guarantee reproducibility, not uniqueness.

`decompose` is the one split of a commodity's flow into origin-to-sink
paths (fewest hops first): the IP-path count reads it, and the exact
solver rebuilds its flows from it, so a flow it returns carries no cycle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .milp import Model, ModelError, Solution, evaluate_cost
from .netmodel import MODE_OPTIMIZED, MODE_TRANSPARENT, Instance, node_demand

TRANSIT_TOLERANCE = Fraction(1, 10**6)

# cost of one edge-router port, per speed, as a share of a Type2 linecard
EDGE_PORT_SHARE = {10: Fraction(19, 12), 100: Fraction(16)}


def _pair_flow(model: Model, values: dict) -> dict[tuple, Fraction]:
    """Total bidirectional virtual flow per PoP pair."""
    if model.transparent:  # each demand rides its own direct hop
        return {d.pair: Fraction(d.value) for d in model.instance.demands}
    totals: dict[tuple, Fraction] = {pair: Fraction(0) for pair in model.catalog.pair_paths}
    for (key, i, j), name in model.flow_vars.items():
        pair = (i, j) if i < j else (j, i)
        totals[pair] += values[name]
    return totals


def disaggregate_flows(model: Model, solution: Solution | dict) -> dict[int, Fraction]:
    """Assign each pair's virtual flow to its light paths: {path id: Gbps}.

    Paths are filled in catalog order (shortest first) up to their installed
    circuit capacity. The virtual-link capacity rows guarantee that a
    feasible solution leaves nothing unplaced; leftover flow means the input
    violates them and raises an error naming the pair.
    """
    values = solution.values if isinstance(solution, Solution) else solution
    cat = model.catalog
    lts = model.cost_catalog.lambda_types
    f_p: dict[int, Fraction] = {pid: Fraction(0) for pid in range(len(cat.paths))}
    for pair, total in sorted(_pair_flow(model, values).items()):
        remaining = total
        for pid in cat.pair_ids[pair]:
            if remaining <= 0:
                break
            capacity = sum((lt.routing_capacity * values[model.path_vars[(pid, lt.speed)]]
                            for lt in lts), Fraction(0))
            take = min(remaining, capacity)
            f_p[pid] = take
            remaining -= take
        if remaining > TRANSIT_TOLERANCE:
            raise ModelError(
                f"flow on pair {pair[0]}-{pair[1]} exceeds light path capacity "
                f"by {float(remaining)}")
    return f_p


def ip_transit(node: str, f_p: dict[int, Fraction], model: Model,
               d_i: Fraction) -> Fraction:
    """Electrically forwarded flow at a PoP.

    Half of what the node's terminating light paths carry beyond its own
    demand: (sum of f_p over paths ending at the node - d(i)) / 2.
    """
    terminated = sum((f_p[pid] for pid in model.catalog.endpoint_ids(node)), Fraction(0))
    value = (terminated - d_i) / 2
    if value < -TRANSIT_TOLERANCE:
        raise ModelError(
            f"node {node}: terminated flow {float(terminated)} below its own "
            f"demand {float(d_i)}")
    return max(value, Fraction(0))


def wdm_transit(node: str, f_p: dict[int, Fraction], model: Model) -> Fraction:
    """Optically switched flow at a node: carried through without termination.

    Sum of f_p over the paths whose interior holds the node.
    """
    return sum((f_p[pid] for pid, p in enumerate(model.catalog.paths)
                if node in p.interior), Fraction(0))


def opacity(f_ip: Fraction, f_wdm: Fraction) -> Fraction | None:
    """Share of transit handled electrically, in percent; None if no transit."""
    if f_ip == 0 and f_wdm == 0:
        return None
    return 100 * f_ip / (f_ip + f_wdm)


def edge_cost(instance: Instance) -> Fraction:
    """Cost of edge-facing and core-facing router interfaces per PoP.

    Each PoP needs ceil(d(i)/speed) access circuits, two ports each, at a
    fixed per-port linecard share per speed; every node picks its cheaper
    admissible speed. This per-port rule is a calibrated inference (see
    README), kept out of the design objective on purpose.
    """
    d_i = node_demand(instance)
    total = Fraction(0)
    for i in sorted(instance.pops):
        if d_i[i] <= 0:
            continue
        best = None
        for speed in instance.speeds:
            ports = 2 * -(-d_i[i] // speed)
            cost = ports * EDGE_PORT_SHARE[speed]
            if best is None or cost < best:
                best = cost
        total += best
    return total


def count_ip_paths(model: Model, solution: Solution | dict) -> int:
    """Number of routing paths carrying positive flow: the paths `decompose`
    splits each commodity's flow into. In the transparent variant every
    demand is its own direct hop."""
    values = solution.values if isinstance(solution, Solution) else solution
    if model.transparent:
        return len(model.instance.demands)
    count = 0
    for key, origin, sinks in model.commodities:
        arcs = {(i, j): values[n] for (k, i, j), n in model.flow_vars.items() if k == key}
        count += len(decompose(arcs, origin, sinks))
    return count


def decompose(arcs: dict, origin: str, sinks: dict) -> list[tuple[tuple, Fraction]]:
    """One commodity's flow {(i, j): Gbps} as origin-to-sink paths
    [(PoP sequence, Gbps)]: sinks in sorted order, each served by fewest-hop
    paths over the arcs with flow left, ties to the smallest sequence. Flow
    that no path takes, cycles included, is left out; each sequence comes
    once. A sink the flow cannot deliver raises `ModelError`."""
    residual = dict(arcs)
    paths = []
    for sink in sorted(sinks):
        remaining = Fraction(sinks[sink])
        while remaining > 0:
            seq = _fewest_hops(residual, origin, sink)
            if seq is None:
                raise ModelError(
                    f"flow for source {origin} cannot deliver "
                    f"{float(remaining)} Gbps to {sink}")
            hops = list(zip(seq, seq[1:]))
            amount = min([remaining] + [residual[hop] for hop in hops])
            for hop in hops:
                residual[hop] -= amount
            remaining -= amount
            paths.append((seq, amount))
    return paths


def _fewest_hops(residual: dict, origin: str, sink: str) -> tuple | None:
    """Fewest-hop path over the arcs of `residual` with flow left, ties by
    node sequence."""
    succ: dict[str, list] = {}
    for a, b in sorted(arc for arc, v in residual.items() if v > 0):
        succ.setdefault(a, []).append(b)
    heap = [(0, (origin,))]
    seen: set[str] = set()
    while heap:
        hops, seq = heapq.heappop(heap)
        at = seq[-1]
        if at == sink:
            return seq
        if at in seen:
            continue
        seen.add(at)
        for b in succ.get(at, ()):
            if b not in seq:
                heapq.heappush(heap, (hops + 1, seq + (b,)))
    return None


@dataclass
class TransitReport:
    """Everything the scenario tables need for one solved design."""

    name: str
    architecture: str
    status: str
    path_flow: dict[int, Fraction]
    node_ip: dict[str, Fraction]
    node_wdm: dict[str, Fraction]
    node_opacity: dict[str, Fraction | None]
    total_ip: Fraction
    total_wdm: Fraction
    opacity: Fraction | None
    lambda_count: int
    ip_path_count: int
    core_cost: Fraction
    edge_cost: Fraction
    total_cost: Fraction


def report(model: Model, solution: Solution, name: str = "",
           status: str = "feasible") -> TransitReport:
    """Full transit/opacity/cost report for a feasible solution."""
    values = solution.values
    f_p = disaggregate_flows(model, solution)
    d_i = node_demand(model.instance)
    node_ip: dict[str, Fraction] = {}
    node_wdm: dict[str, Fraction] = {}
    node_phi: dict[str, Fraction | None] = {}
    for i in sorted(model.instance.pops):
        node_ip[i] = ip_transit(i, f_p, model, d_i[i])
        node_wdm[i] = wdm_transit(i, f_p, model)
        node_phi[i] = opacity(node_ip[i], node_wdm[i])
    total_ip = sum(node_ip.values(), Fraction(0))
    total_wdm = sum(node_wdm.values(), Fraction(0))
    lambda_count = sum(int(values[name_]) for name_ in model.path_vars.values())
    core = evaluate_cost(model, solution, final_cost=True)
    edge = edge_cost(model.instance)
    return TransitReport(
        name=name,
        architecture=MODE_TRANSPARENT if model.transparent else MODE_OPTIMIZED,
        status=status,
        path_flow=f_p,
        node_ip=node_ip,
        node_wdm=node_wdm,
        node_opacity=node_phi,
        total_ip=total_ip,
        total_wdm=total_wdm,
        opacity=opacity(total_ip, total_wdm),
        lambda_count=lambda_count,
        ip_path_count=count_ip_paths(model, solution),
        core_cost=core,
        edge_cost=edge,
        total_cost=core + edge,
    )


def fmt_cost(x: Fraction | None) -> str:
    return "" if x is None else f"{float(x):.10g}"


def fmt_opacity(phi: Fraction | None) -> str:
    return "undefined" if phi is None else f"{float(phi):.1f}"


def report_json(tr: TransitReport) -> dict:
    """JSON-ready dict; costs as floats, opacity additionally at 1 decimal."""
    return {
        "name": tr.name,
        "architecture": tr.architecture,
        "status": tr.status,
        "path_flow": {str(pid): float(v) for pid, v in sorted(tr.path_flow.items()) if v},
        "node_transit": {
            i: {
                "ip": float(tr.node_ip[i]),
                "wdm": float(tr.node_wdm[i]),
                "opacity": None if tr.node_opacity[i] is None else float(tr.node_opacity[i]),
            }
            for i in sorted(tr.node_ip)
        },
        "total_ip": float(tr.total_ip),
        "total_wdm": float(tr.total_wdm),
        "opacity": None if tr.opacity is None else float(tr.opacity),
        "opacity_display": fmt_opacity(tr.opacity),
        "lambda_count": tr.lambda_count,
        "ip_path_count": tr.ip_path_count,
        "cost": {
            "core": float(tr.core_cost),
            "edge": float(tr.edge_cost),
            "total": float(tr.total_cost),
        },
    }


REPORT_COLUMNS = ["name", "architecture", "status", "core_cost", "edge_cost",
                  "total_cost", "f_ip", "f_wdm", "opacity", "lambdas", "ip_paths"]


def report_csv_row(tr: TransitReport) -> list[str]:
    return [tr.name, tr.architecture, tr.status,
            fmt_cost(tr.core_cost), fmt_cost(tr.edge_cost), fmt_cost(tr.total_cost),
            fmt_cost(tr.total_ip), fmt_cost(tr.total_wdm), fmt_opacity(tr.opacity),
            str(tr.lambda_count), str(tr.ip_path_count)]

