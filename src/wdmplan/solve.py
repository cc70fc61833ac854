"""Solvers for the two-layer design model.

Three layers of machinery:

* `check_feasibility` verifies a full variable assignment row by row. It
  skips zero values, which are most of a design's variables: a zero is
  within every variable's bounds and adds nothing to a row.
* `solve_exact` returns `solve_heuristic`'s report when it is proven
  (`infeasible`, or `optimal` at the root bound); otherwise it runs
  depth-first branch-and-bound from that seed over the circuit counts
  y_(path, speed), as one loop over an explicit stack that adds one circuit
  per step, so the model's size sets no depth limit. Fibers and node
  modules are not branched: for fixed circuit counts each link's channels
  round up to whole fibers and each node gets its cheapest sufficient
  modules, so only circuits span the search tree. One `_OpticalLayer`
  applies this rule for the design and the transparent bound's shadow
  design, and prices it for the heuristic's path scan. Routability of the
  demands for a candidate capacity vector is decided by an exact phase-1
  simplex (rational arithmetic, Bland's rule) on the model's own flow rows:
  its flow-conservation rows, and its virtual-link-capacity rows with the
  candidate capacities as right-hand sides; memoized per capacity vector.
  The bound (`DesignState.lower_bound`) prices what every completion must
  still pay. Optimized: the cost of everything already forced (circuits,
  fibers, modules), plus the cheapest circuit cost per Gbps for every Gbps
  of demand still lacking virtual capacity. Transparent: the cost of a
  shadow design, which adds to each pair's one path the fewest circuits
  covering its shortfall, at the least circuit cost of any covering mix,
  with the fibers and optical modules that follow (on toy6 it is the
  optimum already at the root). The same function, taken on the empty
  design, is the bound both solvers report when they do not prove an
  optimum. The search itself compares integers only: the state keeps what
  the bound reads up to date as circuits come and go, in O(path length) a
  step, `DesignState.bound_key` is the bound times a fixed whole factor in
  O(1), and the incumbent's cost is kept scaled, so a prune and a leaf cost
  no `Fraction` arithmetic and visit the same nodes.
* `solve_heuristic` builds a solution demand by demand (largest first) on a
  grooming graph: routing over existing spare circuit capacity is free,
  opening new circuits pays circuit + fiber + module marginal cost. A local
  search then prunes idle circuits, swaps circuits to cheaper physical
  paths, re-optimizes the per-pair speed mix, and re-routes whole demands.
  All tie-breaks are ordered; the seed only shuffles equal-value demands.
  The route search prices only what can still win. A hop is priced only
  up to the cost that the cheapest route to the target pushed so far, or
  the caller's cutoff, leaves, as every marginal cost term is >= 0 and a
  dearer entry would never leave the heap first; each expansion prices
  the hop to the target first, so its price bounds its siblings'. A
  re-route is searched under the cost of the circuits it freed, less one.
  One path scan, `_Heuristic._scan`, prices every placement: a mix whose
  circuits alone cost more than the cutoff is skipped before it is priced,
  and a mix with no fewer circuits and no cheaper base than an earlier one
  is never priced, as the optical price never falls as circuits grow.
  Swaps and remixes are priced, not applied: with the circuits taken off,
  the scan prices each placement (circuit and router term, then the
  optical layer's `price`) under the cutoff "strictly cheaper", and the
  circuits go back once. Each kept move counts once. A
  route is priced as it will be applied, with its earlier hops' placements
  on the state (its hops share PoPs, and module prices are step
  functions), so it always applies, and a re-route is made only if it
  costs less than the circuits it freed. Routes and costs are those of the
  unbounded search.
  Every design the heuristic holds fits the catalog, so its cost is its
  `DesignState.spent`: `capacity_infeasible` turns away a model whose empty
  design does not fit, `_scan` offers only placements after which every
  module fits, and removing circuits only lowers requirements.

Results are exact: bounds and objectives are `Fraction`s. A design's values
are ints (circuits, fibers, modules, and the heuristic's flows, in whole
Gbps); only the exact solver's nonzero flows, read off the simplex, are
`Fraction`s. The model's rows are ints too, so the checker adds ints where
a design is whole. Only `_phase1_simplex` divides row numbers, and it makes
each a `Fraction` first. Inside, `DesignState` and the heuristic's marginal
costs count in scaled integers, every catalog price times the LCM of the
price denominators (see `ModelTables`), which compare and tie exactly as
the `Fraction` prices do.
What no circuit changes (prices, per-path edges, module pickers) is built
once per solve in a `ModelTables`; a `DesignState` holds only the circuit
counts and what follows from them. No external solver is involved.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cache, partial
from fractions import Fraction
from math import inf, lcm

from .costcat import PHYSICAL_MODULES, VIRTUAL_MODULES, LambdaType
from .metrics import routing_paths
from .milp import BINARY, CONTINUOUS, TOLERANCE, Model, Solution
from .netmodel import node_demand

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

IMPROVE_ROUNDS = 8  # passes of the heuristic's local search, at most


@dataclass
class Limits:
    """Resource guards; exceeding max_nodes yields status `unknown`."""

    max_nodes: int = 10_000_000


@dataclass
class SolveReport:
    status: str
    solution: Solution | None
    bound: Fraction
    nodes_explored: int = 0
    iterations: int = 0


def check_feasibility(model: Model, solution: Solution | dict) -> list[str]:
    """All constraint/bound/integrality violations of a full assignment.

    Rows containing continuous variables are checked with absolute tolerance
    1e-6; pure-integer rows are checked exactly.
    """
    values = solution.values if isinstance(solution, Solution) else solution
    violations = []
    for name, var in model.variables.items():
        if name not in values:
            violations.append(f"{name}: no value")
            continue
        v = values[name]
        if not v:  # zero is within every variable's bounds
            continue
        if var.integrality == CONTINUOUS:
            if v < -TOLERANCE:
                violations.append(f"{name}: negative value {float(v)}")
        else:
            if v != int(v) or v < 0:
                violations.append(f"{name}: not a non-negative integer: {v}")
            elif var.integrality == BINARY and v > 1:
                violations.append(f"{name}: binary variable set to {v}")
    if violations:
        return violations
    continuous = {name for name, var in model.variables.items()
                  if var.integrality == CONTINUOUS}
    for c in model.constraints:
        lhs = 0
        for var, coef in c.coeffs.items():
            x = values[var]
            if x:
                lhs += coef * x
        # a row with any continuous variable, zero or not, gets the tolerance
        tol = 0 if continuous.isdisjoint(c.coeffs) else TOLERANCE
        bad = ((c.sense == "<=" and lhs > c.rhs + tol)
               or (c.sense == ">=" and lhs < c.rhs - tol)
               or (c.sense == "=" and abs(lhs - c.rhs) > tol))
        if bad:
            violations.append(
                f"{c.name} ({c.kind}): {float(lhs)} {c.sense} {float(c.rhs)} violated")
    return violations


# --------------------------------------------------------------------------
# exact phase-1 simplex for virtual-layer routability


def _phase1_simplex(n_vars: int, eq_rows: list, ub_rows: list) -> dict[int, Fraction] | None:
    """Feasible point of {x >= 0, eq rows hold, ub rows hold} or None.

    Rows are (coeffs: dict col->number, rhs), with whole or `Fraction`
    numbers. Dense tableau, Bland's rule, exact rationals: this is the one
    place that divides row numbers, so each enters the tableau as a
    `Fraction` (an int quotient would be a float). A pivot updates only the
    pivot row's nonzero columns of each row, as `a - f * 0` is `a`. Sized
    for the virtual layer of desk-scale instances.
    """
    slacks = len(ub_rows)
    n_total = n_vars + slacks
    rows = []
    for coeffs, rhs in eq_rows:
        row = [Fraction(0)] * n_total
        for col, coef in coeffs.items():
            row[col] = Fraction(coef)
        rows.append((row, Fraction(rhs)))
    for k, (coeffs, rhs) in enumerate(ub_rows):
        row = [Fraction(0)] * n_total
        for col, coef in coeffs.items():
            row[col] = Fraction(coef)
        row[n_vars + k] = Fraction(1)
        rows.append((row, Fraction(rhs)))

    m = len(rows)
    width = n_total + m + 1
    tab = []
    basis = []
    for r, (row, rhs) in enumerate(rows):
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
        full = row + [Fraction(0)] * m + [rhs]
        full[n_total + r] = Fraction(1)
        tab.append(full)
        basis.append(n_total + r)
    # objective: minimize the sum of artificials; keep its reduced-cost row
    z = [Fraction(0)] * width
    for row in tab:
        for j in range(width):
            z[j] -= row[j]
    for r in range(m):
        z[n_total + r] = Fraction(0)

    while True:
        enter = -1
        for j in range(n_total):  # Bland: smallest improving index
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return None  # phase-1 is bounded; defensive only
        piv = tab[leave][enter]
        tab[leave] = [a / piv for a in tab[leave]]
        nonzero = [(c, b) for c, b in enumerate(tab[leave]) if b]
        for row in tab + [z]:
            f = row[enter]
            if f and row is not tab[leave]:
                for c, b in nonzero:
                    row[c] -= f * b
        basis[leave] = enter

    if -z[-1] != 0:  # artificial mass left: infeasible
        return None
    values: dict[int, Fraction] = {}
    for r, b in enumerate(basis):
        if b < n_vars:
            values[b] = tab[r][-1]
    return values


def route_flows(model: Model, pair_capacity: dict) -> dict[str, Fraction] | None:
    """Feasible virtual flows under per-pair capacities, or None.

    Returns {flow variable name: value} for the model's commodities. The
    simplex reads the model's rows: the `flow-conservation` rows as they
    are, and the flow terms of each `virtual-link-capacity` row with
    `pair_capacity` of its pair as right-hand side; columns follow
    `model.flow_vars`. Cheap necessary conditions (total capacity, per-node
    incident capacity) run before the simplex. Each commodity's flow is
    rebuilt from the paths `metrics.routing_paths` finds in the simplex point:
    the point less the cycles a basic point may carry, so it keeps every row.
    """
    if not model.commodities:
        return {}
    instance = model.instance
    total = instance.total_demand()
    if sum(pair_capacity.values()) < total:
        return None
    d_i = node_demand(instance)
    for i in sorted(instance.pops):
        incident = sum(cap for pair, cap in pair_capacity.items() if i in pair)
        if incident < d_i[i]:
            return None

    names = list(model.flow_vars.values())  # column -> flow variable name
    col = {name: n for n, name in enumerate(names)}
    arcs_of_col = list(model.flow_vars)  # column -> (commodity key, i, j)
    eq_rows = []
    ub_rows = []
    for c in model.constraints:
        if c.kind == "flow-conservation":
            eq_rows.append(({col[v]: coef for v, coef in c.coeffs.items()}, c.rhs))
        elif c.kind == "virtual-link-capacity":
            flow = [v for v in c.coeffs if v in col]
            _, i, j = arcs_of_col[col[flow[0]]]
            pair = (i, j) if i < j else (j, i)
            ub_rows.append(({col[v]: c.coeffs[v] for v in flow}, pair_capacity[pair]))

    point = _phase1_simplex(len(col), eq_rows, ub_rows)
    if point is None:
        return None
    return _flow_values(model, routing_paths(model, {names[n]: v for n, v in point.items()}))


def _flow_values(model: Model, paths) -> dict[str, Fraction | int]:
    """The value of every flow variable of `model` when each (commodity
    key, PoP sequence, Gbps) of `paths` carries its Gbps along its hops: an
    int where every amount is one (and for a variable no path uses)."""
    flows = dict.fromkeys(model.flow_vars.values(), 0)
    for key, seq, amount in paths:
        for i, j in zip(seq, seq[1:]):
            flows[model.flow_vars[(key, i, j)]] += amount
    return flows


# --------------------------------------------------------------------------
# design state: circuit placement with incrementally tracked derived costs


class ModelTables:
    """What the solvers read of one model that no circuit count changes,
    built once per solve and shared by every `DesignState` of it.

    Prices are in integer units of 1/`scale`: `scale` is the LCM of every
    price denominator, so each price times `scale` is whole. Capacities,
    slot units, fiber counts and demands are integers already, so sums and
    comparisons of scaled prices order exactly as the `Fraction` prices do.
    """

    def __init__(self, model: Model):
        cc = model.cost_catalog
        self.model = model
        self.instance = inst = model.instance
        self.catalog = cat = model.catalog
        self.transparent = model.transparent
        self.channels_per_fiber = inst.channels_per_fiber
        prices = ([lt.cost for lt in cc.lambda_types] + list(cc.fiber_cost.values())
                  + [vm.cost for vm in VIRTUAL_MODULES]
                  + [pm.cost for pm in PHYSICAL_MODULES])
        self.scale = lcm(*(price.denominator for price in prices))
        self.circuit_price = {lt.speed: self.of(lt.cost) for lt in cc.lambda_types}
        self.lt = {lt.speed: lt for lt in cc.lambda_types}
        self.lt_units = {lt.speed: lt.slot_units for lt in cc.lambda_types}
        # path id -> ((edge id, u, v, scaled fiber price), ...), and its ends
        edge = {e.id: (e.id, e.u, e.v, self.of(cc.fiber_cost[e.id])) for e in inst.graph.edges}
        self.path_edges = [tuple(edge[eid] for eid in p.edges) for p in cat.paths]
        self.ends = [p.ends for p in cat.paths]
        self.pops = tuple(sorted(inst.pops))  # the order the route search tries hops in
        # cheapest sufficient module per requirement (see `_cheapest`):
        # routers by (switching, slot units), priced as the model's objective
        # prices them (free in the transparent variant), optical nodes by
        # (fibers, add-drop ports)
        self.vmod_for = cache(partial(_cheapest, sorted(
            (0 if model.transparent else self.of(vm.cost), midx, vm.switching_capacity,
             vm.slot_capacity * LambdaType.SLOT_UNITS)
            for midx, vm in enumerate(VIRTUAL_MODULES))))
        self.pmod_for = cache(partial(_cheapest, sorted(
            (self.of(pm.cost), midx, pm.fiber_capacity, pm.add_drop_ports)
            for midx, pm in enumerate(PHYSICAL_MODULES))))
        self.d_i = node_demand(inst)
        self.pair_demand = {d.pair: d.value for d in inst.demands}
        # the cheapest scaled circuit price per Gbps, `gbps_num / gbps_den`
        per_gbps = min(Fraction(self.circuit_price[lt.speed], lt.routing_capacity)
                       for lt in cc.lambda_types)
        self.gbps_num, self.gbps_den = per_gbps.numerator, per_gbps.denominator
        self._mixes: dict[int, tuple[int, int, list]] = {}  # need -> `mix_table`

    def of(self, price) -> int:
        return price.numerator * self.scale // price.denominator

    def exact(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale)

    def mix_row(self, mix: dict[int, int]) -> tuple:
        """(mix, circuit count, scaled circuit cost, switching, slot units)
        of a circuit mix {speed: count}."""
        return (mix, sum(mix.values()),
                sum(self.circuit_price[s] * n for s, n in mix.items()),
                sum(self.lt[s].switching_capacity * n for s, n in mix.items()),
                sum(self.lt_units[s] * n for s, n in mix.items()))

    def mix_table(self, need: int) -> tuple[int, int, list]:
        """(floor, fewest, rows) of the mixes covering `need` Gbps, memoized:
        a row is a `mix_row`, the floor is the least circuit cost of any row
        and `fewest` the least circuit count of any row, possibly another."""
        table = self._mixes.get(need)
        if table is None:
            rows = [self.mix_row(mix)
                    for mix in _mix_options(need, self.model.cost_catalog.lambda_types)]
            table = self._mixes[need] = (min(row[2] for row in rows),
                                         min(row[1] for row in rows), rows)
        return table


def _cheapest(modules: list[tuple[int, int, int, int]], first: int,
              second: int) -> tuple | None:
    """(scaled cost, index) of the cheapest module whose capacity pair covers
    (first, second), the first of equals; (0, None) for a zero requirement,
    which needs no module; None if no module covers it. `modules` holds
    (scaled cost, index, capacity, capacity) in (cost, index) order, so the
    first that covers the requirement is the one."""
    if not (first or second):
        return 0, None
    for cost, midx, cap1, cap2 in modules:
        if cap1 >= first and cap2 >= second:
            return cost, midx
    return None


class _OpticalLayer:
    """The optical side of one design: channels per edge and, per node, its
    incident fibers, its drops (circuit ends) and its `ModelTables.pmod_for`
    pick, the cheapest optical module for both (None if none fits, which
    adds nothing to the cost). An edge's fibers are its channels rounded up.
    `add` changes the layer and `price` prices a change; every field but
    `tables` is one `add` writes."""

    def __init__(self, tables: ModelTables):
        self.tables = tables
        nodes = tables.instance.graph.node_ids()
        self.channels: dict[str, int] = {}  # edge id -> channels
        # every node from the start, so no key comes or goes
        self.fiber_count = dict.fromkeys(nodes, 0)  # incident fibers
        self.drops = dict.fromkeys(nodes, 0)        # circuit ends
        self.pmod = dict.fromkeys(nodes, (0, None))  # (scaled cost, module idx) or None

    def fibers(self, edge_id: str) -> int:
        return -(-self.channels.get(edge_id, 0) // self.tables.channels_per_fiber)

    def add(self, pid: int, count: int) -> tuple[int, int]:
        """Add (with negative `count`, remove) channels along path `pid` and
        drops at its ends: (scaled fiber and optical-module cost change,
        change in the number of nodes with no pick)."""
        if not count:
            return 0, 0
        t = self.tables
        cpf = t.channels_per_fiber
        channels, fiber_count = self.channels, self.fiber_count
        # the nodes whose pick may change: the ends and those of re-fibered edges
        ends = touched = t.ends[pid]
        cost = 0
        for eid, u, v, fiber_price in t.path_edges[pid]:
            ch = channels.get(eid, 0)
            if ch + count:
                channels[eid] = ch + count
            else:
                del channels[eid]
            delta = (ch + count + cpf - 1) // cpf - (ch + cpf - 1) // cpf
            if delta:
                cost += fiber_price * delta
                fiber_count[u] += delta
                fiber_count[v] += delta
                touched = {*touched, u, v}
        a, b = ends
        drops, pmod = self.drops, self.pmod
        drops[a] += count
        drops[b] += count
        broken = 0
        for n in touched:
            old = pmod[n]
            new = pmod[n] = t.pmod_for(fiber_count[n], drops[n])
            cost += (new[0] if new else 0) - (old[0] if old else 0)
            broken += (new is None) - (old is None)
        return cost, broken

    def price(self, pid: int, count: int, cost: int, cutoff: float = inf) -> int | None:
        """`cost` plus the scaled cost change `add(pid, count)` would make,
        `count` > 0, with nothing changed; None if a node breaks, or as soon
        as the sum exceeds `cutoff` (every term is >= 0: a larger requirement
        never gets a cheaper cheapest module). No present pick may be None."""
        t = self.tables
        cpf = t.channels_per_fiber
        channels = self.channels
        ends = t.ends[pid]
        extra_f = {ends[0]: 0, ends[1]: 0}  # node -> fibers added on incident edges
        for eid, u, v, fiber_price in t.path_edges[pid]:
            ch = channels.get(eid, 0)
            delta = (ch + count + cpf - 1) // cpf - (ch + cpf - 1) // cpf
            if delta:
                cost += fiber_price * delta
                if cost > cutoff:
                    return None
                extra_f[u] = extra_f.get(u, 0) + delta
                extra_f[v] = extra_f.get(v, 0) + delta
        fiber_count, drops, pmod = self.fiber_count, self.drops, self.pmod
        for node, df in extra_f.items():
            after = t.pmod_for(fiber_count[node] + df,
                               drops[node] + (count if node in ends else 0))
            if after is None:
                return None
            cost += after[0] - pmod[node][0]
            if cost > cutoff:
                return None
        return cost


class DesignState:
    """Mutable circuit placement on the `tables` of one model.

    Fibers and modules are derived, not chosen: the optical layer `optical`
    (see `_OpticalLayer`) holds the fibers and optical modules, and `vmod`
    each PoP's router, its `ModelTables.vmod_for` pick. Their cost, `spent`,
    and what `bound_key` reads (the demand still lacking virtual capacity,
    or in the transparent variant the cost of `lower_bound`'s shadow design,
    whose optical layer is `shadow`) are kept as scaled integers (see
    `ModelTables`), so a branch-and-bound step costs O(path length) and its
    bound O(1). `broken` counts the nodes whose requirement exceeds every
    catalog module (their pick is None and adds nothing to `spent`); only
    the exact search meets one, as requirements grow with circuits.

    Every field but `tables` is one `add_circuits` writes, a function of the
    circuit counts `y` alone, whatever steps led there, so putting back
    circuits taken off gives back every field. Any number of states may
    share one `tables`.
    """

    # 10 fields (11 in the transparent variant), per-model facts in
    # `tables`: CPython 3.11/3.12 inline at most 29
    def __init__(self, tables: ModelTables):
        self.tables = tables
        nodes = tables.instance.graph.node_ids()
        self.y: dict[tuple[int, int], int] = {}        # (path id, speed) -> count
        self.pair_capacity: dict[tuple, int] = {   # pair -> routing capacity
            pair: 0 for pair in tables.catalog.pair_paths}
        # node -> load; every node from the start, so no key comes or goes
        self.node_switch = dict.fromkeys(nodes, 0)       # terminating A' load
        self.node_slot_units = dict.fromkeys(nodes, 0)   # slot units
        self.optical = _OpticalLayer(tables)
        self.spent = 0  # scaled circuit + fiber + module cost, the model's objective
        # PoP -> (scaled cost, module idx) or None; every PoP from the start
        self.vmod = dict.fromkeys(tables.instance.pops, (0, None))
        self.broken = 0
        for i in tables.instance.pops:
            self._repick(i)
        # what `bound_key` reads, kept up to date by `add_circuits`
        if tables.transparent:
            # the shadow design of `lower_bound`: its optical layer and scaled cost
            self.shadow = _OpticalLayer(tables)
            self._shadow_cost = 0
            for pair, dv in tables.pair_demand.items():
                floor, fewest, _ = tables.mix_table(dv)
                self._shadow_cost += floor + self.shadow.add(
                    tables.catalog.pair_ids[pair][0], fewest)[0]
        else:
            # the total demand minus the total capacity, which goes below 0
            # once capacity exceeds demand
            self._uncovered = sum(tables.pair_demand.values())

    def _repick(self, node: str) -> None:
        """Re-pick the router of PoP `node` for its requirement, and update
        `spent` and `broken` by the change."""
        t = self.tables
        old = self.vmod[node]
        new = self.vmod[node] = t.vmod_for(t.d_i[node] + self.node_switch[node],
                                           self.node_slot_units[node])
        self.spent += (new[0] if new else 0) - (old[0] if old else 0)
        self.broken += (new is None) - (old is None)

    def add_circuits(self, pid: int, speed: int, count: int) -> None:
        """Add (or with negative `count`, remove) circuits on a path."""
        if count == 0:
            return
        key = (pid, speed)
        new_y = self.y.get(key, 0) + count
        if new_y < 0:
            raise ValueError("negative circuit count")
        if new_y:
            self.y[key] = new_y
        else:
            self.y.pop(key, None)
        t = self.tables
        cost, broken = self.optical.add(pid, count)
        self.spent += t.circuit_price[speed] * count + cost
        self.broken += broken
        ends = t.ends[pid]
        lt = t.lt[speed]
        old_cap = self.pair_capacity[ends]
        new_cap = old_cap + lt.routing_capacity * count
        self.pair_capacity[ends] = new_cap
        if t.transparent:
            # the shadow gets these circuits, and its circuits for the
            # pair's shortfall follow the new capacity
            dv = t.pair_demand.get(ends, 0)
            was_floor, was_fewest, _ = t.mix_table(max(0, dv - old_cap))
            floor, fewest, _ = t.mix_table(max(0, dv - new_cap))
            self._shadow_cost += (t.circuit_price[speed] * count + floor - was_floor
                                  + self.shadow.add(pid, count + fewest - was_fewest)[0])
        else:
            self._uncovered -= new_cap - old_cap
        switch, units = self.node_switch, self.node_slot_units
        for n in ends:
            switch[n] += lt.switching_capacity * count
            units[n] += t.lt_units[speed] * count
            self._repick(n)

    def bound_key(self) -> int:
        """`lower_bound` times `tables.scale` times `tables.gbps_den`, a
        whole number: in the transparent variant the shadow design's scaled
        cost times `gbps_den`; otherwise the scaled cost so far times
        `gbps_den`, plus `gbps_num` for each Gbps of demand not yet covered."""
        t = self.tables
        if t.transparent:
            return self._shadow_cost * t.gbps_den
        return self.spent * t.gbps_den + max(0, self._uncovered) * t.gbps_num

    def lower_bound(self) -> Fraction:
        """A lower bound on the cost of every design that adds circuits to
        this one; costs and requirements only grow with circuits.

        Optimized: the cost so far plus the cheapest circuit price per Gbps
        for each Gbps of the total demand not yet covered.

        Transparent: the cost of the shadow design. Each pair's demand rides
        its own one path, so a completion adds to that path circuits
        covering the pair's shortfall (its demand less its capacity): at
        least the fewest circuits of any covering mix, at no less than the
        least circuit cost of any covering mix (the two may come from
        different mixes). The shadow design has this state's circuits plus
        that many channels on each pair's path and drops at its ends, priced
        at that least cost; its fibers and optical modules follow as a
        design's do, and routers are free in this variant. A completion's
        channels, drops and fibers are at least the shadow's, and a larger
        requirement never gets a cheaper cheapest module.

        `broken` is not looked at: a broken state has no completion, so any
        number bounds it."""
        return Fraction(self.bound_key(), self.tables.scale * self.tables.gbps_den)

    def to_solution(self, flow_values: dict[str, Fraction | int]) -> Solution:
        """Full variable values of this design and `flow_values`, priced at
        `spent`; the design's values are ints. Neither solver builds a
        solution of a broken design."""
        if self.broken:
            raise AssertionError(f"a solution of a design with {self.broken} broken nodes")
        m = self.tables.model
        values = dict.fromkeys(m.variables, 0)
        for (pid, speed), count in self.y.items():
            values[m.path_vars[(pid, speed)]] = count
        for e in m.instance.graph.edges:
            values[m.fiber_vars[e.id]] = self.optical.fibers(e.id)
        for picks, names in ((self.vmod, m.vmod_vars), (self.optical.pmod, m.pmod_vars)):
            for node, (_cost, midx) in picks.items():
                if midx is not None:
                    values[names[(node, midx)]] = 1
        values.update(flow_values)
        return Solution(values, self.tables.exact(self.spent))


# --------------------------------------------------------------------------
# exact branch-and-bound


def solve_exact(model: Model, limits: Limits | None = None) -> SolveReport:
    """Optimal solution by depth-first search over circuit counts.

    The search is one loop over an explicit stack: `values[k]` circuits sit
    on the k-th branch variable. Each step adds one circuit to the deepest
    variable set, or enters the next variable at zero; backing up removes a
    variable's circuits in one call. Each value tried counts one node, and
    only `Limits.max_nodes` bounds the search, however many variables the
    model has.

    The per-variable ranges provably contain an optimum: a virtual link
    never needs more capacity than the total demand plus one circuit (any
    solution richer than that stays feasible after dropping a circuit, at
    lower cost), and in the transparent variant each pair needs exactly its
    own demand covered. Exhausting the search proves optimality or
    infeasibility; hitting the node limit returns `unknown` with the
    incumbent.

    The search starts from `solve_heuristic`'s design, and its report is
    returned as it is, with no node explored, when it is proven already:
    `infeasible` with `capacity_infeasible`'s proof, or `optimal` as its
    design meets the bound of the empty design, `DesignState.lower_bound`.
    Every exit but `optimal` reports that bound, the seed's.
    """
    limits = limits or Limits()
    seeded = solve_heuristic(model, seed=0)
    if seeded.status in (INFEASIBLE, OPTIMAL):
        return seeded
    tables = ModelTables(model)
    state = DesignState(tables)
    demand_by_pair = tables.pair_demand
    total = model.instance.total_demand()
    # branch order: pairs in catalog order, paths within pair, speeds ascending
    branch: list[tuple[tuple, int, int, int]] = []  # (pair, path id, speed, ub)
    for pair, pids in tables.catalog.pair_ids.items():
        for pid in pids:
            for speed, lt in tables.lt.items():
                need = demand_by_pair.get(pair, 0) if model.transparent else total
                ub = -(-need // lt.routing_capacity)
                if ub:
                    branch.append((pair, pid, speed, ub))

    # the incumbent's cost is kept scaled (see `ModelTables`), and a node is
    # pruned when its `bound_key` reaches it times the key's extra factor
    incumbent = seeded.solution
    best = None if incumbent is None else tables.of(incumbent.objective)
    den = tables.gbps_den

    flow_cache: dict[tuple, dict | None] = {}
    last_var_of_pair = {pair: idx for idx, (pair, _, _, _) in enumerate(branch)}
    values: list[int] = []  # values[k] circuits sit on branch[k]
    nodes = 0
    descend, prune_rest = True, False
    while True:
        if descend and len(values) < len(branch):
            values.append(0)  # the next variable, at value 0
        else:
            if descend:
                # every variable is set: a leaf. It is never broken, as the
                # search descends only from unbroken states and
                # `capacity_infeasible` turned away a broken root.
                cost = state.spent
                flows = {}
                if not model.transparent:
                    capkey = tuple(state.pair_capacity.values())
                    if capkey not in flow_cache:
                        flow_cache[capkey] = route_flows(model, state.pair_capacity)
                    flows = flow_cache[capkey]
                if flows is not None and (best is None or cost < best):
                    incumbent, best = state.to_solution(flows), cost
            # back up past pruned and exhausted variables
            while values and (prune_rest or values[-1] == branch[len(values) - 1][3]):
                _, pid, speed, _ = branch[len(values) - 1]
                state.add_circuits(pid, speed, -values.pop())
                prune_rest = False
            if not values:
                break
            values[-1] += 1
        nodes += 1
        if nodes > limits.max_nodes:
            return SolveReport(UNKNOWN, incumbent, seeded.bound, nodes_explored=nodes)
        idx = len(values) - 1
        pair, pid, speed, _ = branch[idx]
        if values[-1]:
            state.add_circuits(pid, speed, 1)
        # a rule that prunes the rest holds for every larger value too, as
        # requirements and costs only grow with circuits
        dominated = values[-1] > 0 and not model.transparent \
            and state.pair_capacity[pair] - tables.lt[speed].routing_capacity >= total
        short = model.transparent and idx == last_var_of_pair[pair] \
            and state.pair_capacity[pair] < demand_by_pair.get(pair, 0)
        # dominated: dropping one circuit keeps every flow feasible; short:
        # later values may still fix this pair
        prune_rest = bool(state.broken) or dominated or (
            not short and best is not None and state.bound_key() >= best * den)
        descend = not (prune_rest or short)

    if incumbent is None:
        return SolveReport(INFEASIBLE, None, seeded.bound, nodes_explored=nodes)
    return SolveReport(OPTIMAL, incumbent, incumbent.objective, nodes_explored=nodes)


# --------------------------------------------------------------------------
# constructive heuristic with local search


def _mix_options(demand: int, lambda_types: tuple[LambdaType, ...]) -> list[dict[int, int]]:
    """Candidate circuit-count mixes covering `demand` Gbps, each {speed:
    count} once, with no zero count."""
    candidates = [{lt.speed: -(-demand // lt.routing_capacity)} for lt in lambda_types]
    if len(lambda_types) == 2:
        lo, hi = lambda_types[0], lambda_types[-1]
        for n_hi in range(demand // hi.routing_capacity + 1):
            rest = demand - n_hi * hi.routing_capacity
            candidates.append({hi.speed: n_hi, lo.speed: -(-rest // lo.routing_capacity)})
    options = []
    for counts in candidates:
        mix = {speed: n for speed, n in counts.items() if n}
        if mix not in options:
            options.append(mix)
    return options


class _Heuristic:
    def __init__(self, model: Model, seed: int):
        self.tables = ModelTables(model)
        self.rng = random.Random(seed)
        self.state = DesignState(self.tables)
        self.pair_flow: dict[tuple, int] = {
            pair: 0 for pair in model.catalog.pair_paths}
        # demand index -> PoP sequence, in the order the demands were routed
        self.routes: dict[int, list[str]] = {}
        self.moves = 0

    # ---- marginal costs --------------------------------------------------
    #
    # In integer units of 1/`tables.scale` (see `ModelTables`), so they
    # order and tie exactly as `Fraction` costs would.

    def _mix_base(self, ends: tuple[str, str], cost: int, sw: int, units: int) -> int | None:
        """Scaled circuit cost `cost` of a mix plus its router cost change at
        the two ends, where it adds `sw` switching and `units` slot units
        (the part of the marginal cost every path of the pair shares); None
        if an end router would outgrow every module. An end's present pick
        is never None: the heuristic holds no broken design."""
        st, t = self.state, self.tables
        for node in ends:
            after = t.vmod_for(t.d_i[node] + st.node_switch[node] + sw,
                               st.node_slot_units[node] + units)
            if after is None:
                return None
            cost += after[0] - st.vmod[node][0]
        return cost

    def _scan(self, pair: tuple, rows: list, cutoff: float) -> tuple | None:
        """The first cheapest (scaled marginal cost, path id, mix) of a
        mix-table row of `rows` on a path of `pair`, or None if none costs at
        most `cutoff`.

        A mix is priced only if its base is at most `cutoff` and no earlier
        kept mix has no more circuits and no dearer base: the optical price
        never falls as the circuit count grows (fibers, drops and the
        cheapest covering module only grow), so such a mix costs at least
        its earlier one on every path, and never beats it or ties ahead. A
        mix whose circuits alone cost more than `cutoff` is not priced at
        all, as router, fiber and optical-module terms are >= 0."""
        options = []
        for mix, count, cost, sw, units in rows:
            if cost <= cutoff:  # a dearer one has a base above every later cutoff
                base = self._mix_base(pair, cost, sw, units)
                if base is not None and base <= cutoff and not any(
                        n <= count and b <= base for _, n, b in options):
                    options.append((mix, count, base))
        if not options:
            return None
        best = None
        price = self.state.optical.price
        # from here on `cutoff` is just below the best cost so far: as path
        # ids come in order, an equal candidate never wins. Catalog paths run
        # from the smaller end, so each path's ends are `pair`
        for pid in self.tables.catalog.pair_ids[pair]:
            for mix, count, base in options:
                if base <= cutoff:
                    c = price(pid, count, base, cutoff)
                    if c is not None:
                        best, cutoff = (c, pid, mix), c - 1
        return best

    # ---- construct ---------------------------------------------------------

    def hop(self, i: str, j: str, amount: int, cutoff: float = inf) -> tuple | None:
        """(scaled marginal cost, placements) of carrying `amount` more on
        the hop i-j: no placement where spare capacity covers it, else the
        cheapest (path id, mix) covering the rest; None if no placement
        fits, or none costs at most `cutoff`."""
        pair = (i, j) if i < j else (j, i)
        need = amount - (self.state.pair_capacity[pair] - self.pair_flow[pair])
        if need <= 0:
            return 0, ()
        placed = self._scan(pair, self.tables.mix_table(need)[2], cutoff)
        return None if placed is None else (placed[0], (placed[1:],))

    def route_demand(self, u: str, v: str, amount: int,
                     cutoff: float = inf) -> tuple | None:
        """(scaled cost, PoP sequence, placements) of the cheapest virtual
        route by best-first search, or None if none costs at most `cutoff`.

        A label carries its hops' placements: they are on the state while
        its expansions are priced, so a key is the exact increase of `spent`
        its route makes, and costs only grow with circuits. `ub` is
        `cutoff` or the smallest key pushed for `v`, if smaller. The first
        entry for `v` to pop has a key of at most `ub`, so an entry dearer
        than `ub` never pops (if one does, no route is within `cutoff`): its
        hop is not priced beyond `ub - cost`. The hop to `v` is priced
        before its siblings, so its key bounds theirs. An entry costing
        exactly `ub` is kept, as (cost, hops, seq) may rank it first; as
        that order is total, the push order changes nothing."""
        order = (v, *(w for w in self.tables.pops if w != v))
        heap = [(0, 0, (u,), ())]
        done = set()
        ub = cutoff
        while heap:
            cost, hops, seq, placed = heapq.heappop(heap)
            if cost > ub:
                return None
            at = seq[-1]
            if at == v:
                return cost, list(seq), placed
            if at in done:
                continue
            done.add(at)
            self.place(placed)
            for w in order:
                if w in seq or w in done:
                    continue
                priced = self.hop(at, w, amount, ub - cost)
                if priced is None:
                    continue
                if w == v:  # priced[0] <= ub - cost, so this lowers or keeps ub
                    ub = cost + priced[0]
                # no two entries share a seq, so placements are never compared
                heapq.heappush(heap, (cost + priced[0], hops + 1, seq + (w,),
                                      placed + priced[1]))
            self.place(placed, -1)
        return None

    def place(self, placements, sign: int = 1) -> None:
        """Add (with `sign` -1, remove) each (path id, circuit mix) of
        `placements`."""
        for pid, mix in placements:
            for speed, n in mix.items():
                self.state.add_circuits(pid, speed, sign * n)

    def apply_route(self, seq: list[str], amount: int, placements) -> None:
        """Make a route's `placements` and carry `amount` more (with a
        negative `amount`, less) on each of its hops."""
        self.place(placements)
        for i, j in zip(seq, seq[1:]):
            self.pair_flow[(i, j) if i < j else (j, i)] += amount

    def construct(self) -> bool:
        groups: dict[int, list] = {}
        for idx, d in enumerate(self.tables.instance.demands):
            groups.setdefault(d.value, []).append((idx, d))
        order = []
        for value in sorted(groups, reverse=True):
            block = groups[value]
            self.rng.shuffle(block)  # seed affects only equal-value ordering
            order.extend(block)
        for idx, d in order:
            found = self.route_demand(d.u, d.v, d.value)
            if found is None:  # a leaner design of the demands so far may leave room
                self.improve()
                found = self.route_demand(d.u, d.v, d.value)
            if found is None:
                return False
            _, self.routes[idx], placements = found
            self.apply_route(self.routes[idx], d.value, placements)
        return True

    # ---- improve -----------------------------------------------------------

    def prune_idle(self) -> list[tuple[int, int, int]]:
        """Drop circuits whose capacity is not needed by the pair flow, in
        one call per (path, speed), and return the (path id, speed, count)
        of each call."""
        freed = []
        st, t = self.state, self.tables
        for (pid, speed), count in sorted(st.y.items()):
            pair = t.ends[pid]
            idle = min(count, (st.pair_capacity[pair] - self.pair_flow[pair])
                       // t.lt[speed].routing_capacity)
            if idle > 0:
                st.add_circuits(pid, speed, -idle)
                freed.append((pid, speed, idle))
        return freed

    def swap_paths(self) -> int:
        """Move all circuits of one (path, speed) to a cheaper parallel path;
        the number of (path, speed)s moved.

        Priced, not applied: with the circuits off, `_scan` prices them on
        each path of the pair under the cutoff "strictly cheaper than now"
        (their own path prices at exactly that, so it is never taken)."""
        kept = 0
        st, t = self.state, self.tables
        for (pid, speed) in sorted(st.y):
            count = st.y[(pid, speed)]
            before = st.spent
            st.add_circuits(pid, speed, -count)
            best = self._scan(t.ends[pid], [t.mix_row({speed: count})],
                              before - st.spent - 1)
            if best is not None:
                kept += 1
                pid = best[1]
            st.add_circuits(pid, speed, count)
        return kept

    def remix_pairs(self) -> int:
        """Re-optimize the circuit mix of one pair from scratch, if that pays:
        with the pair's circuits off, `_scan` prices its flow under the
        cutoff "strictly cheaper than now"; if none is, they go back. The
        number of pairs remixed."""
        kept = 0
        st, t = self.state, self.tables
        speeds = sorted(t.lt)
        for pair, pids in t.catalog.pair_ids.items():  # in sorted pair order
            flow = self.pair_flow[pair]
            placed = [(pid, speed, st.y[(pid, speed)])
                      for pid in pids for speed in speeds if (pid, speed) in st.y]
            if not placed or flow == 0:
                continue
            before = st.spent
            for pid, speed, count in placed:
                st.add_circuits(pid, speed, -count)
            repl = self._scan(pair, t.mix_table(flow)[2], before - st.spent - 1)
            if repl is None:
                for pid, speed, count in placed:
                    st.add_circuits(pid, speed, count)
                continue
            self.place([repl[1:]])
            kept += 1
        return kept

    def reroute_demands(self) -> int:
        """Take a demand out and prune the circuits it leaves idle; re-route
        it if a route costs less than they did, else put them back. The
        route search runs under that saving less one, so it prices no hop
        beyond what a kept route may cost. A demand whose removal frees no
        circuit stays, as a route only adds circuits. A kept re-route is one
        move per freed circuit, plus one; returns the moves kept."""
        kept = 0
        st = self.state
        for idx in list(self.routes):
            d = self.tables.instance.demands[idx]
            route = self.routes[idx]
            self.apply_route(route, -d.value, ())
            before = st.spent
            freed = self.prune_idle()
            found = (self.route_demand(d.u, d.v, d.value, before - st.spent - 1)
                     if freed else None)
            if found is not None:
                _, self.routes[idx], placements = found
                self.apply_route(self.routes[idx], d.value, placements)
                kept += sum(count for _, _, count in freed) + 1
            else:
                for pid, speed, count in freed:
                    st.add_circuits(pid, speed, count)
                self.apply_route(route, d.value, ())
        return kept

    def improve(self) -> None:
        """Run the local search's phases until a round keeps no move, at
        most `IMPROVE_ROUNDS` rounds, and count the moves kept."""
        for _ in range(IMPROVE_ROUNDS):
            kept = sum(count for _, _, count in self.prune_idle())
            kept += self.swap_paths() + self.remix_pairs() + self.reroute_demands()
            self.moves += kept
            if not kept:
                break


def capacity_infeasible(model: Model, empty: DesignState | None = None) -> str | None:
    """A proof that no design can fit, if one is visible from node totals;
    `empty` is the empty design of `model`, built here if not given.

    Every design gives each node at least some fibers and drops, and none
    fits if no optical module takes a node's least pair. Optimized: at least
    ceil(d(i) / fastest circuit) circuits end at PoP i, each on a channel of
    an incident edge, so as many drops and ceil(that / channels per fiber)
    fibers. Transparent: the fibers and drops of the empty design's shadow
    design (see `DesignState.lower_bound`). PoP i also needs a router
    switching at least d(i), the Gbps of virtual flow it terminates.
    """
    if empty is None:
        empty = DesignState(ModelTables(model))
    t = empty.tables
    cc = model.cost_catalog
    if t.transparent:
        shadow = empty.shadow
        least = {n: (shadow.fiber_count[n], drops) for n, drops in shadow.drops.items()}
    else:
        fastest = max(lt.routing_capacity for lt in cc.lambda_types)
        ends = {n: -(-t.d_i[n] // fastest) for n in t.instance.pops}
        least = {n: (-(-k // t.channels_per_fiber), k) for n, k in ends.items()}
    for n in sorted(least):
        fibers, drops = least[n]
        if t.pmod_for(fibers, drops) is None:
            return (f"node {n} needs >= {fibers} fibers and {drops} add-drop "
                    f"ports, more than any optical node offers")
    for n in sorted(t.instance.pops):
        if t.vmod_for(t.d_i[n], 0) is None:
            max_switch = max(vm.switching_capacity for vm in VIRTUAL_MODULES)
            return (f"node {n} demand {t.d_i[n]} Gbps exceeds the largest "
                    f"router capacity {max_switch}")
    return None


def solve_heuristic(model: Model, seed: int = 0) -> SolveReport:
    """Construct + local search; deterministic for a fixed seed.

    The report's bound is `DesignState.lower_bound` of the empty design, so
    `optimal` is only claimed when the design meets it (e.g. zero demands,
    or a transparent design that costs its shadow design, as on toy6).
    Failure to construct a solution yields `unknown`; `infeasible` is only
    reported when `capacity_infeasible` proves it, for either architecture.
    """
    h = _Heuristic(model, seed)
    bound = h.state.lower_bound()
    if capacity_infeasible(model, h.state) is not None:
        return SolveReport(INFEASIBLE, None, bound)

    ok = True
    if model.transparent:
        # each demand rides its own direct hop
        for d in model.instance.demands:
            priced = h.hop(d.u, d.v, d.value)
            if priced is None:
                ok = False
                break
            h.apply_route([d.u, d.v], d.value, priced[1])
        if ok:
            h.moves += h.remix_pairs()
    else:
        ok = h.construct()
        if ok:
            h.improve()
    if not ok:
        return SolveReport(UNKNOWN, None, bound, iterations=h.moves)

    key_of = {origin: key for key, origin, _sinks in model.commodities}
    demands = model.instance.demands
    sol = h.state.to_solution(_flow_values(model, [
        (key_of[demands[idx].u], seq, demands[idx].value) for idx, seq in h.routes.items()]))
    violations = check_feasibility(model, sol)
    if violations:
        raise AssertionError(f"heuristic produced an infeasible design: {violations[:3]}")
    status = OPTIMAL if sol.objective == bound else FEASIBLE
    return SolveReport(status, sol, bound, iterations=h.moves)
