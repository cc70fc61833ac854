"""Solvers for the two-layer design model.

Three layers of machinery:

* `check_feasibility` verifies a full variable assignment row by row. It
  skips zero values, which are most of a design's variables: a zero is
  within every variable's bounds and adds nothing to a row.
* `solve_exact` runs depth-first branch-and-bound over the circuit counts
  y_(path, speed), as one loop over an explicit stack that adds one circuit
  per step, so the model's size sets no depth limit. Fibers and node
  modules are not branched: for fixed circuit counts the cheapest fiber
  counts are forced (channels per link, rounded up to whole fibers) and the
  cheapest sufficient modules follow per node, so only circuits span the
  search tree. Routability of the demands for a candidate capacity vector
  is decided by an exact phase-1 simplex (rational arithmetic, Bland's
  rule) on the model's own flow rows: its flow-conservation rows, and its
  virtual-link-capacity rows with the candidate capacities as right-hand
  sides; memoized per capacity vector.
  The bound (`DesignState.lower_bound`) adds the cost of everything already
  forced (circuits, fibers, modules) to a completion term: every Gbps of
  demand still lacking virtual capacity costs at least the cheapest circuit
  cost per Gbps. The same function, taken on the empty design, is the
  bound both solvers report when they do not prove an optimum. The search
  itself compares integers only: the state keeps the uncovered demand up to
  date as circuits come and go, `DesignState.bound_key` is the bound times
  a fixed whole factor, and the incumbent's cost is kept scaled, so a prune
  and a leaf cost no `Fraction` arithmetic and visit the same nodes.
* `solve_heuristic` builds a solution demand by demand (largest first) on a
  grooming graph: routing over existing spare circuit capacity is free,
  opening new circuits pays circuit + fiber + module marginal cost. A local
  search then prunes idle circuits, swaps circuits to cheaper physical
  paths, re-optimizes the per-pair speed mix, and re-routes whole demands.
  All tie-breaks are ordered; the seed only shuffles equal-value demands.
  The route search is bounded: once a route to the target is pushed, a hop
  is priced only up to the cost that route leaves, as every marginal cost
  term is >= 0 and a dearer entry would never leave the heap first; a hop
  whose cheapest mix costs more in circuits alone (the mix floor) is skipped
  before any mix is priced. Swaps are priced, not applied: with a (path,
  speed)'s circuits taken off, each parallel path costs the state's cost
  plus the mix's circuit and router term plus its fiber and optical-module
  marginal, and only the last path taken gets the circuits back. Routes,
  costs and move counts are those of the unbounded, applied search.

Results are exact: bounds, objectives and reports are `Fraction`s. Inside,
`DesignState` and the heuristic's marginal costs count in scaled integers,
every catalog price times the LCM of the price denominators (see
`ScaledPrices`), which compare and tie exactly as the `Fraction` prices do.
No external solver is involved.
"""

from __future__ import annotations

import copy
import heapq
import random
from dataclasses import dataclass
from functools import cache, partial
from fractions import Fraction
from math import ceil, inf, lcm

from .costcat import LambdaType
from .milp import BINARY, CONTINUOUS, Model, Solution
from .netmodel import node_demand

CONTINUOUS_TOLERANCE = Fraction(1, 10**6)

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
            if v < -CONTINUOUS_TOLERANCE:
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
        lhs = Fraction(0)
        for var, coef in c.coeffs.items():
            x = values[var]
            if x:
                lhs += coef * x
        # a row with any continuous variable, zero or not, gets the tolerance
        tol = Fraction(0) if continuous.isdisjoint(c.coeffs) else CONTINUOUS_TOLERANCE
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

    Rows are (coeffs: dict col->Fraction, rhs). Dense tableau, Bland's rule,
    exact rationals. Sized for the virtual layer of desk-scale instances.
    """
    slacks = len(ub_rows)
    n_total = n_vars + slacks
    rows = []
    for coeffs, rhs in eq_rows:
        row = [Fraction(0)] * n_total
        for col, coef in coeffs.items():
            row[col] = coef
        rows.append((row, rhs))
    for k, (coeffs, rhs) in enumerate(ub_rows):
        row = [Fraction(0)] * n_total
        for col, coef in coeffs.items():
            row[col] = coef
        row[n_vars + k] = Fraction(1)
        rows.append((row, rhs))

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
        for r in range(m):
            if r != leave and tab[r][enter]:
                f = tab[r][enter]
                tab[r] = [a - f * b for a, b in zip(tab[r], tab[leave])]
        if z[enter]:
            f = z[enter]
            z = [a - f * b for a, b in zip(z, tab[leave])]
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
    incident capacity) run before the simplex.
    """
    if not model.commodities:
        return {}
    instance = model.instance
    total = instance.total_demand()
    if sum(pair_capacity.values(), Fraction(0)) < total:
        return None
    d_i = node_demand(instance)
    for i in sorted(instance.pops):
        incident = sum((cap for pair, cap in pair_capacity.items() if i in pair),
                       Fraction(0))
        if incident < d_i[i]:
            return None

    col = {name: n for n, name in enumerate(model.flow_vars.values())}
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
            ub_rows.append(({col[v]: c.coeffs[v] for v in flow},
                            Fraction(pair_capacity[pair])))

    point = _phase1_simplex(len(col), eq_rows, ub_rows)
    if point is None:
        return None
    arcs: dict[str, dict] = {}  # commodity key -> {(i, j): flow}
    for n, (key, i, j) in enumerate(arcs_of_col):
        arcs.setdefault(key, {})[(i, j)] = point.get(n, Fraction(0))
    flows = {}
    for key, arc in arcs.items():
        _cancel_cycles(arc)
        for (i, j), v in arc.items():
            flows[model.flow_vars[(key, i, j)]] = v
    return flows


def _cancel_cycles(arc: dict) -> None:
    """Strip circulation from one commodity's flow, in place.

    Basic feasible points of the phase-1 program may carry flow around
    cycles (including i->j->i back-and-forth); conservation and pair
    capacities survive the cancellation, and the remaining flow decomposes
    into origin-to-sink paths only, which keeps transit metrics meaningful.
    """
    for (i, j), v in list(arc.items()):
        if i < j and v and arc[(j, i)]:
            back = min(v, arc[(j, i)])
            arc[(i, j)] -= back
            arc[(j, i)] -= back
    while True:
        succ = {}
        for (i, j), v in arc.items():
            if v:
                succ.setdefault(i, []).append(j)
        cycle = _find_cycle(succ)
        if cycle is None:
            return
        slack = min(arc[(cycle[k], cycle[k + 1])] for k in range(len(cycle) - 1))
        for k in range(len(cycle) - 1):
            arc[(cycle[k], cycle[k + 1])] -= slack


def _find_cycle(succ: dict) -> list | None:
    """Any directed cycle as a node list [v0, ..., v0], or None."""
    colors = {}
    for start in succ:
        if colors.get(start):
            continue
        stack = [(start, iter(succ.get(start, ())))]
        colors[start] = "active"
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if colors.get(nxt) == "active":
                    return path[path.index(nxt):] + [nxt]
                if colors.get(nxt) is None:
                    colors[nxt] = "active"
                    path.append(nxt)
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                colors[node] = "done"
                path.pop()
                stack.pop()
    return None


# --------------------------------------------------------------------------
# design state: circuit placement with incrementally tracked derived costs


class ScaledPrices:
    """The cost catalog in integer units of 1/`scale`.

    `scale` is the LCM of every price denominator, so each price times
    `scale` is whole. Capacities, slot units, fiber counts and demands are
    integers already, so sums and comparisons of scaled prices order exactly
    as the `Fraction` prices do.
    """

    def __init__(self, cc):
        prices = ([lt.cost for lt in cc.lambda_types] + list(cc.fiber_cost.values())
                  + [vm.cost for vm in cc.virtual_modules]
                  + [pm.cost for pm in cc.physical_modules])
        self.scale = lcm(*(Fraction(c).denominator for c in prices))
        self.circuit = {lt.speed: self.of(lt.cost) for lt in cc.lambda_types}
        self.fiber = {eid: self.of(c) for eid, c in cc.fiber_cost.items()}
        self.vmod = [self.of(vm.cost) for vm in cc.virtual_modules]
        self.pmod = [self.of(pm.cost) for pm in cc.physical_modules]

    def of(self, price) -> int:
        return int(price * self.scale)

    def exact(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale)


def _cheapest(costs: list[int], capacities: list[tuple[int, int]], first: int,
              second: int) -> tuple | None:
    """(scaled cost, index) of the cheapest module whose capacity pair covers
    (first, second), or None; the first of equals wins."""
    best = None
    for midx, ((cap1, cap2), cost) in enumerate(zip(capacities, costs)):
        if cap1 >= first and cap2 >= second and (best is None or cost < best[0]):
            best = (cost, midx)
    return best


class DesignState:
    """Mutable circuit placement.

    Fiber counts and node modules are derived, not chosen: fibers are the
    channel count rounded up, modules the cheapest sufficient catalog entry.
    Their costs, and the demand still lacking virtual capacity, are
    maintained incrementally, as scaled integers (see `ScaledPrices`), so a
    branch-and-bound step costs O(path length) and its bound O(1).
    `broken` holds nodes whose requirement exceeds every catalog module;
    requirements grow monotonically with circuits, so a broken node proves
    the whole subtree infeasible.
    """

    # Slots, not a `__dict__`: on CPython 3.11 and 3.12, `copy.copy` (which
    # `clone` uses) of an instance with a `__dict__` slows every later
    # attribute read on both objects, and the heuristic's kernel reads them.
    __slots__ = ("model", "instance", "catalog", "prices", "lt", "lt_units", "path_edges", "y",
                 "channels", "pair_capacity", "node_switch", "node_slot_units", "node_drops",
                 "node_fiber_count", "circuit_cost", "fiber_cost", "vmod", "pmod", "vmod_total",
                 "pmod_total", "broken", "_vmod_for", "_pmod_for", "_d_i", "_optical_tag",
                 "_pair_demand", "_total_demand", "_uncovered", "_capacity_total", "_gbps_num",
                 "_gbps_den")

    def __init__(self, model: Model):
        cc = model.cost_catalog
        self.model = model
        self.instance = model.instance
        self.catalog = model.catalog
        self.prices = ScaledPrices(cc)
        self.lt = {lt.speed: lt for lt in cc.lambda_types}
        self.lt_units = {lt.speed: lt.slot_units for lt in cc.lambda_types}
        # path id -> ((edge id, u, v, scaled fiber price), ...), shared by clones
        graph = self.instance.graph
        self.path_edges = [tuple((eid, graph.edge(eid).u, graph.edge(eid).v,
                                  self.prices.fiber[eid]) for eid in p.edges)
                           for p in self.catalog.paths]
        self.y: dict[tuple[int, int], int] = {}        # (path id, speed) -> count
        self.channels: dict[str, int] = {}             # edge id -> circuits
        self.pair_capacity: dict[tuple, int] = {   # pair -> routing capacity
            pair: 0 for pair in self.catalog.pair_paths}
        self.node_switch: dict[str, int] = {}          # PoP -> terminating A' load
        self.node_slot_units: dict[str, int] = {}      # PoP -> slot units
        self.node_drops: dict[str, int] = {}           # node -> terminations
        self.node_fiber_count: dict[str, int] = {}     # node -> incident fibers
        self.circuit_cost = 0                          # scaled, like every cost here
        self.fiber_cost = 0
        self.vmod: dict[str, tuple] = {}               # PoP -> (cost, module idx)
        self.pmod: dict[str, tuple] = {}               # node -> (cost, module idx)
        self.vmod_total = 0
        self.pmod_total = 0
        self.broken: set[str] = set()
        # cheapest sufficient module per requirement, (scaled cost, index) or
        # None: routers by (switching, slot units), optical nodes by (fibers,
        # add-drop ports)
        self._vmod_for = cache(partial(_cheapest, self.prices.vmod, [
            (vm.switching_capacity, vm.slot_capacity * LambdaType.SLOT_UNITS)
            for vm in cc.virtual_modules]))
        self._pmod_for = cache(partial(_cheapest, self.prices.pmod, [
            (pm.fiber_capacity, pm.add_drop_ports) for pm in cc.physical_modules]))
        self._d_i = node_demand(self.instance)
        # node -> its optical module's `broken` tag, built once, not per step
        self._optical_tag = {n: "o:" + n for n in self._d_i}
        for i in self.instance.pops:
            self.vmod_total += self._repick(self.vmod, self._vmod_for, i, i, self._d_i[i], 0)
        # what `bound_key` reads besides the costs: the demand still lacking
        # virtual capacity, summed per pair in the transparent variant
        # (`_uncovered`) and in total otherwise (from `_capacity_total`), both
        # kept up to date by `add_circuits`; and the cheapest scaled circuit
        # price per Gbps, `_gbps_num / _gbps_den`
        self._pair_demand = {d.pair: d.value for d in self.instance.demands}
        self._total_demand = self.instance.total_demand()
        self._uncovered = sum(self._pair_demand.values())
        self._capacity_total = 0
        per_gbps = min(Fraction(self.prices.circuit[lt.speed], lt.routing_capacity)
                       for lt in cc.lambda_types)
        self._gbps_num, self._gbps_den = per_gbps.numerator, per_gbps.denominator

    def clone(self) -> "DesignState":
        """A copy whose placement changes apart from this one's; the model,
        the prices, the path edge table and the memoized module pickers stay
        shared."""
        c = copy.copy(self)
        for name in ("y", "channels", "pair_capacity", "node_switch", "node_slot_units",
                     "node_drops", "node_fiber_count", "vmod", "pmod", "broken"):
            setattr(c, name, getattr(self, name).copy())
        return c

    def _repick(self, picks: dict, pick_for, node: str, tag: str,
                first: int, second: int) -> int:
        """Re-pick `node`'s module in `picks` for the requirement (first,
        second), none for a zero one; the node is `broken` (as `tag`) while
        no module fits. Returns the scaled cost change."""
        new = pick_for(first, second) if first or second else None
        if new is None and (first or second):
            self.broken.add(tag)
        else:
            self.broken.discard(tag)
        old = picks.get(node)
        if new is None:
            picks.pop(node, None)
        else:
            picks[node] = new
        return (new[0] if new else 0) - (old[0] if old else 0)

    def fibers(self, edge_id: str) -> int:
        cpf = self.instance.channels_per_fiber
        return (self.channels.get(edge_id, 0) + cpf - 1) // cpf

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
        self.circuit_cost += self.prices.circuit[speed] * count
        ends = self.catalog.paths[pid].ends
        touched_pmod = set(ends)
        cpf = self.instance.channels_per_fiber
        channels, fiber_count = self.channels, self.node_fiber_count
        for eid, u, v, fiber_price in self.path_edges[pid]:
            ch = channels.get(eid, 0)
            if ch + count:
                channels[eid] = ch + count
            else:
                del channels[eid]
            delta = (ch + count + cpf - 1) // cpf - (ch + cpf - 1) // cpf
            if delta:
                self.fiber_cost += fiber_price * delta
                fiber_count[u] = fiber_count.get(u, 0) + delta
                fiber_count[v] = fiber_count.get(v, 0) + delta
                touched_pmod.add(u)
                touched_pmod.add(v)
        lt = self.lt[speed]
        old_cap = self.pair_capacity[ends]
        new_cap = old_cap + lt.routing_capacity * count
        self.pair_capacity[ends] = new_cap
        if self.model.transparent:
            dv = self._pair_demand.get(ends, 0)
            self._uncovered += max(0, dv - new_cap) - max(0, dv - old_cap)
        else:
            self._capacity_total += new_cap - old_cap
        switch, units, drops = self.node_switch, self.node_slot_units, self.node_drops
        for n in ends:
            switch[n] = switch.get(n, 0) + lt.switching_capacity * count
            units[n] = units.get(n, 0) + self.lt_units[speed] * count
            drops[n] = drops.get(n, 0) + count
            self.vmod_total += self._repick(self.vmod, self._vmod_for, n, n,
                                            self._d_i[n] + switch[n], units[n])
        for n in touched_pmod:
            self.pmod_total += self._repick(self.pmod, self._pmod_for, n, self._optical_tag[n],
                                            fiber_count.get(n, 0), drops.get(n, 0))

    def _spent(self) -> int:
        """Scaled circuit + fiber + module cost; routers count only in the
        optimized model."""
        total = self.circuit_cost + self.fiber_cost + self.pmod_total
        return total if self.model.transparent else total + self.vmod_total

    def scaled_cost(self) -> int | None:
        """`total_cost` in units of 1/`prices.scale`."""
        return None if self.broken else self._spent()

    def total_cost(self) -> Fraction | None:
        """Circuit + fiber + module cost; None while any node is broken."""
        scaled = self.scaled_cost()
        return None if scaled is None else self.prices.exact(scaled)

    def bound_key(self) -> int:
        """`lower_bound` times `prices.scale` times `_gbps_den`, a whole
        number: the scaled cost so far times `_gbps_den`, plus `_gbps_num`
        for each Gbps of demand not yet covered."""
        if self.model.transparent:
            uncovered = self._uncovered
        else:
            uncovered = max(0, self._total_demand - self._capacity_total)
        return self._spent() * self._gbps_den + uncovered * self._gbps_num

    def lower_bound(self) -> Fraction:
        """A lower bound on the cost of every design that adds circuits to
        this one: the cost so far plus the cheapest circuit price per Gbps
        for each Gbps of demand not yet covered (per pair in the transparent
        variant, in total otherwise). Costs and requirements only grow with
        circuits. `broken` is not looked at: a broken state has no
        completion, so any number bounds it."""
        return Fraction(self.bound_key(), self.prices.scale * self._gbps_den)

    def to_solution(self, flow_values: dict[str, Fraction]) -> Solution | None:
        """Assemble full variable values; None if modules do not fit."""
        if self.broken:
            return None
        m = self.model
        values = {name: Fraction(0) for name in m.variables}
        for (pid, speed), count in self.y.items():
            values[m.path_vars[(pid, speed)]] = Fraction(count)
        for e in self.instance.graph.edges:
            values[m.fiber_vars[e.id]] = Fraction(self.fibers(e.id))
        for node, (_cost, midx) in self.vmod.items():
            values[m.vmod_vars[(node, midx)]] = Fraction(1)
        for node, (_cost, midx) in self.pmod.items():
            values[m.pmod_vars[(node, midx)]] = Fraction(1)
        values.update(flow_values)
        return Solution(values)


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
    incumbent. Every exit but `optimal` reports the bound of the empty
    design, `DesignState.lower_bound`.
    """
    limits = limits or Limits()
    inst = model.instance
    cat = model.catalog
    cc = model.cost_catalog
    total = inst.total_demand()

    if total == 0:
        sol = model.zero_solution()
        sol.objective = Fraction(0)
        return SolveReport(OPTIMAL, sol, Fraction(0), nodes_explored=1)

    state = DesignState(model)
    root_bound = state.lower_bound()
    if capacity_infeasible(model) is not None:
        return SolveReport(INFEASIBLE, None, root_bound)

    demand_by_pair = state._pair_demand
    # branch order: pairs in catalog order, paths within pair, speeds ascending
    branch: list[tuple[tuple, int, int, int]] = []  # (pair, path id, speed, ub)
    for pair, plist in cat.pair_paths.items():
        for p in plist:
            pid = cat.index(p)
            for lt in cc.lambda_types:
                if model.transparent:
                    ub = ceil(Fraction(demand_by_pair.get(pair, 0)) / lt.routing_capacity)
                else:
                    ub = ceil(Fraction(total) / lt.routing_capacity)
                if ub:
                    branch.append((pair, pid, lt.speed, ub))

    # the incumbent's cost is kept scaled (see `ScaledPrices`), and a node is
    # pruned when its `bound_key` reaches it times the key's extra factor
    incumbent: Solution | None = None
    best: int | None = None
    den = state._gbps_den
    seeded = solve_heuristic(model, seed=0)
    if seeded.solution is not None:
        incumbent, best = seeded.solution, state.prices.of(seeded.solution.objective)

    flow_cache: dict[tuple, dict | None] = {}
    pair_order = sorted(cat.pair_paths)
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
                cost = state._spent()
                flows = {}
                if not model.transparent:
                    capkey = tuple(state.pair_capacity[pair] for pair in pair_order)
                    if capkey not in flow_cache:
                        flow_cache[capkey] = route_flows(model, state.pair_capacity)
                    flows = flow_cache[capkey]
                if flows is not None and (best is None or cost < best):
                    incumbent, best = state.to_solution(flows), cost
                    incumbent.objective = state.prices.exact(cost)
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
            return SolveReport(UNKNOWN, incumbent, root_bound, nodes_explored=nodes)
        idx = len(values) - 1
        pair, pid, speed, _ = branch[idx]
        if values[-1]:
            state.add_circuits(pid, speed, 1)
        # a rule that prunes the rest holds for every larger value too, as
        # requirements and costs only grow with circuits
        dominated = values[-1] > 0 and not model.transparent \
            and state.pair_capacity[pair] - state.lt[speed].routing_capacity >= total
        short = model.transparent and idx == last_var_of_pair[pair] \
            and state.pair_capacity[pair] < demand_by_pair.get(pair, 0)
        # dominated: dropping one circuit keeps every flow feasible; short:
        # later values may still fix this pair
        prune_rest = bool(state.broken) or dominated or (
            not short and best is not None and state.bound_key() >= best * den)
        descend = not (prune_rest or short)

    if incumbent is None:
        return SolveReport(INFEASIBLE, None, root_bound, nodes_explored=nodes)
    return SolveReport(OPTIMAL, incumbent, incumbent.objective, nodes_explored=nodes)


# --------------------------------------------------------------------------
# constructive heuristic with local search


def _mix_options(demand: int, lambda_types: tuple[LambdaType, ...]) -> list[dict[int, int]]:
    """Candidate circuit-count mixes covering `demand` Gbps."""
    options = []
    for lt in lambda_types:
        options.append({lt.speed: -(-demand // lt.routing_capacity)})
    if len(lambda_types) == 2:
        lo, hi = lambda_types[0], lambda_types[-1]
        full = int(demand // hi.routing_capacity)
        for n_hi in range(full + 1):
            rest = demand - n_hi * hi.routing_capacity
            opt = {hi.speed: n_hi, lo.speed: -(-max(rest, 0) // lo.routing_capacity)}
            if opt not in options:
                options.append(opt)
    return options


class _Heuristic:
    def __init__(self, model: Model, seed: int):
        self.model = model
        self.inst = model.instance
        self.cat = model.catalog
        self.rng = random.Random(seed)
        self.state = DesignState(model)
        self.pair_flow: dict[tuple, int] = {
            pair: 0 for pair in self.cat.pair_paths}
        # demand index -> PoP sequence, in the order the demands were routed
        self.routes: dict[int, list[str]] = {}
        self.moves = 0
        # commodity key lookup for assembling flow variable values
        self.key_by_pair: dict[tuple, str] = {}
        for key, origin, sinks in model.commodities:
            for sink in sinks:
                self.key_by_pair[(origin, sink)] = key
        # pair -> [(path length, path id)]; the marginal-cost kernel reads a
        # path's edges from the state's `path_edges`
        self._pair_paths: dict[tuple, list] = {
            pair: [(p.length_km, self.cat.index(p)) for p in plist]
            for pair, plist in self.cat.pair_paths.items()}
        self._mixes: dict[int, tuple[int, list]] = {}  # need -> `_mix_table`

    # ---- marginal costs --------------------------------------------------
    #
    # In integer units of 1/`state.prices.scale` (see `ScaledPrices`), so they
    # order and tie exactly as `Fraction` costs would.

    def _mix_base(self, ends: tuple[str, str], cost: int, sw: int, units: int) -> int | None:
        """Scaled circuit cost `cost` of a mix plus its router cost change at
        the two ends, where it adds `sw` switching and `units` slot units
        (the part of the marginal cost every path of the pair shares); None
        if an end router would outgrow every module."""
        st = self.state
        for node in ends:
            after = st._vmod_for(st._d_i[node] + st.node_switch.get(node, 0) + sw,
                                 st.node_slot_units.get(node, 0) + units)
            if after is None:
                return None
            if not self.model.transparent:
                before = st.vmod.get(node)
                cost += after[0] - (before[0] if before else 0)
        return cost

    def _marginal(self, ends: tuple[str, str], pid: int, count: int, cost: int,
                  cutoff: float = inf) -> int | None:
        """`cost` plus the fiber and optical-module cost of `count` more
        circuits on path `pid`; None if a node breaks, or as soon as the
        sum exceeds `cutoff` (every term is >= 0: a larger requirement never
        gets a cheaper cheapest module)."""
        st = self.state
        cpf = self.inst.channels_per_fiber
        extra_f = {ends[0]: 0, ends[1]: 0}  # node -> fibers added on incident edges
        for eid, u, v, fiber_cost in st.path_edges[pid]:
            ch = st.channels.get(eid, 0)
            delta = (ch + count + cpf - 1) // cpf - (ch + cpf - 1) // cpf
            if delta:
                cost += fiber_cost * delta
                if cost > cutoff:
                    return None
                extra_f[u] = extra_f.get(u, 0) + delta
                extra_f[v] = extra_f.get(v, 0) + delta
        for node, df in extra_f.items():
            extra_d = count if node in ends else 0
            after = st._pmod_for(st.node_fiber_count.get(node, 0) + df,
                                 st.node_drops.get(node, 0) + extra_d)
            if after is None:
                return None
            before = st.pmod.get(node)
            cost += after[0] - (before[0] if before else 0)
            if cost > cutoff:
                return None
        return cost

    def _mix_table(self, need: int) -> tuple[int, list]:
        """(floor, rows) of the mixes covering `need` Gbps, memoized: a row
        is (mix, circuit count, scaled circuit cost, switching, slot units),
        and the floor is the least circuit cost of any row. Prices and
        circuit types are the model's, so the table outlives every state."""
        table = self._mixes.get(need)
        if table is None:
            st = self.state
            rows = [(mix, sum(mix.values()),
                     sum(st.prices.circuit[s] * n for s, n in mix.items()),
                     sum(st.lt[s].switching_capacity * n for s, n in mix.items()),
                     sum(st.lt_units[s] * n for s, n in mix.items()))
                    for mix in _mix_options(need, self.model.cost_catalog.lambda_types)]
            table = self._mixes[need] = (min(row[2] for row in rows), rows)
        return table

    def best_placement(self, pair: tuple, need: int, cutoff: float = inf):
        """(scaled marginal cost, path id, mix) of the cheapest placement
        providing >= `need` extra Gbps on a pair, or None if none costs at
        most `cutoff`. Every placement costs at least the floor of the mix
        table, as router, fiber and optical-module terms are >= 0, so a
        floor above `cutoff` ends the call before any mix is priced."""
        floor, rows = self._mix_table(need)
        if floor > cutoff:
            return None
        options = []
        for mix, count, cost, sw, units in rows:
            if cost <= cutoff:  # a dearer one has a base above every later cutoff
                base = self._mix_base(pair, cost, sw, units)
                if base is not None:
                    options.append((mix, count, base))
        best = None
        # from here on `cutoff` is also the best cost so far: a dearer
        # candidate cannot win, and an equal one may on length or path id.
        # Catalog paths run from the smaller end, so each path's ends are `pair`
        for length, pid in self._pair_paths.get(pair, ()):
            for mix, count, base in options:
                if base > cutoff:
                    continue
                c = self._marginal(pair, pid, count, base, cutoff)
                if c is None:
                    continue
                key = (c, length, pid)
                if best is None or key < best[0]:
                    best = (key, mix)
                    cutoff = c
        if best is None:
            return None
        (c, _, pid), mix = best
        return c, pid, mix

    # ---- construct ---------------------------------------------------------

    def hop_cost(self, i: str, j: str, amount: int, cutoff: float = inf) -> int | None:
        """Scaled marginal cost of carrying `amount` more on the hop i-j;
        None if no placement fits, or none costs at most `cutoff`."""
        pair = (i, j) if i < j else (j, i)
        spare = self.state.pair_capacity[pair] - self.pair_flow[pair]
        need = amount - spare
        if need <= 0:
            return 0
        placed = self.best_placement(pair, need, cutoff)
        return None if placed is None else placed[0]

    def route_demand(self, u: str, v: str, amount: int) -> list[str] | None:
        """Cheapest virtual route by best-first search on marginal hop costs.

        `ub` is the smallest key pushed for `v`. The first entry for `v` to
        pop has a key of at most `ub`, so an entry dearer than `ub` never
        pops: its hop is not priced beyond `ub - cost`. An entry costing
        exactly `ub` is kept, as (cost, hops, seq) may rank it first."""
        pops = sorted(self.inst.pops)
        heap = [(0, 0, (u,))]
        done = set()
        ub = inf
        while heap:
            cost, hops, seq = heapq.heappop(heap)
            at = seq[-1]
            if at == v:
                return list(seq)
            if at in done:
                continue
            done.add(at)
            for w in pops:
                if w in seq or w in done:
                    continue
                hc = self.hop_cost(at, w, amount, ub - cost)
                if hc is None:
                    continue
                if w == v:  # hc <= ub - cost, so this lowers or keeps ub
                    ub = cost + hc
                heapq.heappush(heap, (cost + hc, hops + 1, seq + (w,)))
        return None

    def place(self, pid: int, mix: dict[int, int]) -> None:
        """Add a circuit mix on a physical path."""
        for speed, n in mix.items():
            self.state.add_circuits(pid, speed, n)

    def apply_route(self, seq: list[str], amount: int) -> bool:
        for i, j in zip(seq, seq[1:]):
            pair = (i, j) if i < j else (j, i)
            spare = self.state.pair_capacity[pair] - self.pair_flow[pair]
            need = amount - spare
            if need > 0:
                placed = self.best_placement(pair, need)
                if placed is None:
                    return False
                _, pid, mix = placed
                self.place(pid, mix)
            self.pair_flow[pair] += amount
        return True

    def construct(self) -> bool:
        groups: dict[int, list] = {}
        for idx, d in enumerate(self.inst.demands):
            groups.setdefault(d.value, []).append((idx, d))
        order = []
        for value in sorted(groups, reverse=True):
            block = groups[value]
            self.rng.shuffle(block)  # seed affects only equal-value ordering
            order.extend(block)
        for idx, d in order:
            seq = self.route_demand(d.u, d.v, d.value)
            if seq is None or not self.apply_route(seq, d.value):
                return False
            self.routes[idx] = seq
        return True

    # ---- improve -----------------------------------------------------------

    def prune_idle(self) -> bool:
        """Drop circuits whose capacity is not needed by the pair flow."""
        improved = False
        for (pid, speed) in sorted(self.state.y):
            pair = self.cat.paths[pid].ends
            lt = self.state.lt[speed]
            while self.state.y.get((pid, speed), 0) > 0 and \
                    self.state.pair_capacity[pair] - lt.routing_capacity >= self.pair_flow[pair]:
                self.state.add_circuits(pid, speed, -1)
                improved = True
                self.moves += 1
        return improved

    def swap_paths(self) -> bool:
        """Move all circuits of one (path, speed) to a cheaper parallel path.

        Candidates are priced, not applied. With the circuits off, the
        design costs `s0`; on a parallel path it costs `s0` plus their
        `_mix_base` (circuits and end routers: the ends and speed stay the
        same) plus their `_marginal` fiber and optical-module cost there.
        Paths are tried in catalog order and each strictly cheaper one is
        taken, the moves applying every candidate in turn would make; the
        circuits go back once, on the last path taken."""
        improved = False
        st = self.state
        for (pid, speed) in sorted(st.y):
            count = st.y.get((pid, speed), 0)
            if not count:
                continue
            before = st.scaled_cost()
            if before is None:
                continue
            pair = self.cat.paths[pid].ends
            st.add_circuits(pid, speed, -count)
            s0 = st._spent()  # not broken: removing circuits only lowers requirements
            base = self._mix_base(pair, st.prices.circuit[speed] * count,
                                  st.lt[speed].switching_capacity * count,
                                  st.lt_units[speed] * count)
            if base is not None:
                for _, qid in self._pair_paths[pair]:
                    if qid == pid:
                        continue
                    c = self._marginal(pair, qid, count, base, before - s0 - 1)
                    if c is not None:  # s0 + c < before
                        improved = True
                        self.moves += 1
                        before = s0 + c
                        pid = qid
            st.add_circuits(pid, speed, count)
        return improved

    def remix_pairs(self) -> bool:
        """Re-optimize the circuit mix of one pair from scratch."""
        improved = False
        for pair in sorted(self.cat.pair_paths):
            flow = self.pair_flow[pair]
            placed = [(pid, speed) for (pid, speed) in sorted(self.state.y)
                      if self.cat.paths[pid].ends == pair]
            if not placed or flow == 0:
                continue
            before = self.state.scaled_cost()
            if before is None:
                continue
            saved = self.state.clone()
            for (pid, speed) in placed:
                self.state.add_circuits(pid, speed, -self.state.y[(pid, speed)])
            repl = self.best_placement(pair, flow)
            if repl is not None:
                _, pid, mix = repl
                self.place(pid, mix)
                after = self.state.scaled_cost()
                if after is not None and after < before:
                    improved = True
                    self.moves += 1
                    continue
            self.state = saved
        return improved

    def reroute_demands(self) -> bool:
        """Take a demand out, prune idle circuits, re-route; keep if cheaper."""
        improved = False
        for idx in list(self.routes):
            d = self.inst.demands[idx]
            amount = d.value
            before = self.state.scaled_cost()
            if before is None:
                continue
            saved_state = self.state.clone()
            saved_flow = dict(self.pair_flow)
            saved_route = self.routes[idx]
            for i, j in zip(saved_route, saved_route[1:]):
                self.pair_flow[(i, j) if i < j else (j, i)] -= amount
            self.prune_idle()
            seq = self.route_demand(d.u, d.v, amount)
            ok = seq is not None and self.apply_route(seq, amount)
            after = self.state.scaled_cost() if ok else None
            if ok and after is not None and after < before:
                self.routes[idx] = seq
                improved = True
                self.moves += 1
            else:
                self.state = saved_state
                self.pair_flow = saved_flow
                self.routes[idx] = saved_route
        return improved

    def improve(self) -> None:
        for _ in range(IMPROVE_ROUNDS):
            changed = False
            changed |= self.prune_idle()
            changed |= self.swap_paths()
            changed |= self.remix_pairs()
            changed |= self.reroute_demands()
            if not changed:
                break

    # ---- final assembly ------------------------------------------------------

    def flow_values(self) -> dict[str, Fraction]:
        flows: dict[str, Fraction] = {}
        for idx, seq in self.routes.items():
            d = self.inst.demands[idx]
            key = self.key_by_pair[(d.u, d.v)]
            for i, j in zip(seq, seq[1:]):
                name = self.model.flow_vars[(key, i, j)]
                flows[name] = flows.get(name, Fraction(0)) + d.value
        return flows


def capacity_infeasible(model: Model) -> str | None:
    """A proof that no design can fit, if one is visible from node totals.

    Any feasible design terminates at least d(i) Gbps of virtual flow at PoP
    i, so i needs a router switching at least d(i) and at least
    ceil(d(i) / fastest circuit) add-drop ports. In the transparent variant
    each demand rides its own direct hop, which gives the tighter count: per
    pair, the fewest circuits of any mix covering its demand, at both ends.
    """
    inst = model.instance
    cc = model.cost_catalog
    d_i = node_demand(inst)
    if model.transparent:
        circuits: dict[str, int] = {}
        for d in inst.demands:
            fewest = min(sum(mix.values()) for mix in _mix_options(d.value, cc.lambda_types))
            for n in d.pair:
                circuits[n] = circuits.get(n, 0) + fewest
    else:
        max_rate = max(lt.routing_capacity for lt in cc.lambda_types)
        circuits = {n: ceil(Fraction(d_i[n]) / max_rate) for n in inst.pops}
    max_drop = max(pm.add_drop_ports for pm in cc.physical_modules)
    for n, count in sorted(circuits.items()):
        if count > max_drop:
            return (f"node {n} must terminate >= {count} circuits, "
                    f"above the largest add-drop capacity {max_drop}")
    max_switch = max(vm.switching_capacity for vm in cc.virtual_modules)
    for n in sorted(inst.pops):
        if d_i[n] > max_switch:
            return (f"node {n} demand {d_i[n]} Gbps exceeds the largest "
                    f"router capacity {max_switch}")
    return None


def solve_heuristic(model: Model, seed: int = 0) -> SolveReport:
    """Construct + local search; deterministic for a fixed seed.

    The report's bound is `DesignState.lower_bound` of the empty design, so
    `optimal` is only claimed when the design meets it (e.g. zero demands).
    Failure to construct a solution yields `unknown`; `infeasible` is only
    reported when `capacity_infeasible` proves it, for either architecture.
    """
    h = _Heuristic(model, seed)
    bound = h.state.lower_bound()
    if capacity_infeasible(model) is not None:
        return SolveReport(INFEASIBLE, None, bound)

    if model.transparent:
        # each demand rides its own direct hop
        ok = all(h.apply_route(list(d.pair), d.value) for d in model.instance.demands)
        if ok:
            h.prune_idle()
            h.remix_pairs()
    else:
        ok = h.construct()
        if ok:
            h.improve()
    if not ok or h.state.total_cost() is None:
        return SolveReport(UNKNOWN, None, bound, iterations=h.moves)

    sol = h.state.to_solution(h.flow_values())
    cost = h.state.total_cost()
    sol.objective = cost
    violations = check_feasibility(model, sol)
    if violations:
        raise AssertionError(f"heuristic produced an infeasible design: {violations[:3]}")
    status = OPTIMAL if cost == bound else FEASIBLE
    return SolveReport(status, sol, bound, iterations=h.moves)
