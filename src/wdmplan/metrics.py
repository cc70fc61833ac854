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

`report` holds a design's figures only: a table row is the cell's own
name, architecture and status followed by `REPORT_COLUMNS`.

`node_transit` walks the paths that carry flow once for every PoP's
transit. `routing_paths` is the one split of a solution's flows into
origin-to-sink paths (`decompose`, fewest hops first): the IP-path count
reads it, and the exact solver rebuilds its flows from it cycle-free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .milp import TOLERANCE, Model, ModelError, Solution, evaluate_cost, slot_surcharge
from .netmodel import Instance, node_demand

# cost of one edge-router port, per speed, as a share of a Type2 linecard
EDGE_PORT_SHARE = {10: Fraction(19, 12), 100: Fraction(16)}


def disaggregate_flows(model: Model, solution: Solution | dict) -> dict[int, Fraction]:
    """Assign each pair's virtual flow (in the transparent variant, its
    demand) to the light paths that carry it: {path id: Gbps}.

    Paths are filled in catalog order (shortest first) up to their installed
    circuit capacity. The virtual-link capacity rows guarantee that a
    feasible solution leaves nothing unplaced; leftover flow means the input
    violates them and raises an error naming the pair.
    """
    values = solution.values if isinstance(solution, Solution) else solution
    cat = model.catalog
    lts = model.cost_catalog.lambda_types
    if model.transparent:
        totals = {d.pair: Fraction(d.value) for d in model.instance.demands}
    else:
        totals = dict.fromkeys(cat.pair_paths, Fraction(0))
        for (_key, i, j), name in model.flow_vars.items():
            flow = values[name]
            if flow:
                totals[(i, j) if i < j else (j, i)] += flow
    f_p: dict[int, Fraction] = {}
    for pair, total in sorted(totals.items()):
        remaining = total
        for pid in cat.pair_ids[pair]:
            if remaining <= 0:
                break
            # a solution's circuit counts are ints (see `milp`), so this sum
            # does no `Fraction` arithmetic
            capacity = sum(lt.routing_capacity * values[model.path_vars[(pid, lt.speed)]]
                           for lt in lts)
            take = remaining if remaining <= capacity else Fraction(capacity)
            if take:
                f_p[pid] = take
            remaining -= take
        if remaining > TOLERANCE:
            raise ModelError(
                f"flow on pair {pair[0]}-{pair[1]} exceeds light path capacity "
                f"by {float(remaining)}")
    return f_p


def node_transit(model: Model, f_p: dict[int, Fraction]) -> tuple[dict, dict]:
    """IP (electrical) and WDM (optical) transit per PoP, as two {PoP: Gbps}
    maps, from one pass over the paths of `f_p`.

    WDM transit is the flow of the paths whose interior holds the PoP. IP
    transit is half of what the PoP's terminating paths carry beyond its own
    demand: (sum of f_p over paths ending at it - d(i)) / 2; a value below
    -TOLERANCE raises an error naming the PoP.
    """
    pops = sorted(model.instance.pops)
    terminated = dict.fromkeys(pops, Fraction(0))
    wdm = dict.fromkeys(pops, Fraction(0))
    paths = model.catalog.paths
    for pid, flow in f_p.items():
        p = paths[pid]
        for n in p.ends:
            terminated[n] += flow
        for n in p.interior:
            if n in wdm:  # only PoPs are reported
                wdm[n] += flow
    d_i = node_demand(model.instance)
    ip: dict[str, Fraction] = {}
    for i in pops:
        value = (terminated[i] - d_i[i]) / 2
        if value < -TOLERANCE:
            raise ModelError(
                f"node {i}: terminated flow {float(terminated[i])} below its own "
                f"demand {float(d_i[i])}")
        ip[i] = max(value, Fraction(0))
    return ip, wdm


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
    """Number of routing paths carrying positive flow: the paths of
    `routing_paths`. In the transparent variant every demand is its own
    direct hop."""
    if model.transparent:
        return len(model.instance.demands)
    values = solution.values if isinstance(solution, Solution) else solution
    return len(routing_paths(model, values))


def routing_paths(model: Model, flows: dict) -> list[tuple[str, tuple, Fraction]]:
    """`decompose` of each commodity of `flows` {flow variable name: Gbps}, a
    name it lacks carrying nothing: [(commodity key, PoP sequence, Gbps)]."""
    arcs: dict[str, dict] = {key: {} for key, _origin, _sinks in model.commodities}
    for (key, i, j), name in model.flow_vars.items():
        value = flows.get(name)
        if value:
            arcs[key][(i, j)] = value
    return [(key, seq, amount) for key, origin, sinks in model.commodities
            for seq, amount in decompose(arcs[key], origin, sinks)]


def decompose(arcs: dict, origin: str, sinks: dict) -> list[tuple[tuple, Fraction]]:
    """One commodity's flow {(i, j): Gbps} as origin-to-sink paths
    [(PoP sequence, Gbps)]: sinks in sorted order, each served by fewest-hop
    paths over the arcs with flow left, ties to the smallest sequence. Flow
    that no path takes, cycles included, is left out; each sequence comes
    once. A sink the flow misses by more than `TOLERANCE` (solver
    noise a feasibility check accepts) raises `ModelError`."""
    residual = dict(arcs)
    paths = []
    for sink in sorted(sinks):
        remaining = Fraction(sinks[sink])
        while remaining > 0:
            seq = _fewest_hops(residual, origin, sink)
            if seq is None:
                if remaining <= TOLERANCE:
                    break
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
    """The figures of one solved design; the cell keeps its name and status."""

    path_flow: dict[int, Fraction]  # the paths that carry flow only
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


def report(model: Model, solution: Solution) -> TransitReport:
    """Full transit/opacity/cost report for a feasible solution."""
    values = solution.values
    f_p = disaggregate_flows(model, solution)
    node_ip, node_wdm = node_transit(model, f_p)
    node_phi = {i: opacity(node_ip[i], node_wdm[i]) for i in node_ip}
    total_ip = sum(node_ip.values(), Fraction(0))
    total_wdm = sum(node_wdm.values(), Fraction(0))
    lambda_count = sum(int(values[name]) for name in model.path_vars.values())
    core = evaluate_cost(model, solution) + slot_surcharge(model, values)
    edge = edge_cost(model.instance)
    return TransitReport(
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
    """The design's figures as JSON; costs as floats, opacity also at 1 decimal."""
    return {
        "path_flow": {str(pid): float(v) for pid, v in sorted(tr.path_flow.items())},
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


# the design's columns of a scenario table, after the cell's own
REPORT_COLUMNS = ["core_cost", "edge_cost", "total_cost", "f_ip", "f_wdm", "opacity",
                  "lambdas", "ip_paths"]


def report_csv_row(tr: TransitReport | None) -> list[str]:
    """The design's figures under `REPORT_COLUMNS`; blanks without a design."""
    if tr is None:
        return [""] * len(REPORT_COLUMNS)
    return [fmt_cost(tr.core_cost), fmt_cost(tr.edge_cost), fmt_cost(tr.total_cost),
            fmt_cost(tr.total_ip), fmt_cost(tr.total_wdm), fmt_opacity(tr.opacity),
            str(tr.lambda_count), str(tr.ip_path_count)]

