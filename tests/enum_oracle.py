"""Independent reference optimizer used to validate the exact solver.

Exhaustively enumerates circuit placements for small single-speed (10G)
instances: first the number of circuits per PoP pair, checked for demand
routability with an LP, then every distribution of those circuits over the
pair's admissible paths. Each candidate is priced straight from the catalog
tables. Deliberately shares no optimization code with wdmplan.solve; only
the problem data (paths, link costs, module tables) comes from the package.
"""

import itertools
from fractions import Fraction
from math import ceil

from scipy.optimize import linprog

from wdmplan.costcat import PHYSICAL_MODULES, VIRTUAL_MODULES, build_cost_catalog
from wdmplan.netmodel import node_demand
from wdmplan.pathgen import build_catalog


def lp_routable(pops, demands, capacity):
    """LP feasibility: route all demands over the capacitated virtual graph.

    One commodity per demand, flow variables on ordered PoP pairs, the usual
    conservation equalities and per unordered pair a shared capacity cap.
    """
    if not demands:
        return True
    col = {}
    for k in range(len(demands)):
        for i in pops:
            for j in pops:
                if i != j:
                    col[(k, i, j)] = len(col)
    n = len(col)
    a_eq, b_eq = [], []
    for k, (u, v, val) in enumerate(demands):
        for i in pops:
            row = [0.0] * n
            for j in pops:
                if j == i:
                    continue
                row[col[(k, i, j)]] += 1.0
                row[col[(k, j, i)]] -= 1.0
            a_eq.append(row)
            if i == u:
                b_eq.append(float(val))
            elif i == v:
                b_eq.append(-float(val))
            else:
                b_eq.append(0.0)
    a_ub, b_ub = [], []
    for ii, i in enumerate(pops):
        for j in pops[ii + 1:]:
            row = [0.0] * n
            for k in range(len(demands)):
                row[col[(k, i, j)]] += 1.0
                row[col[(k, j, i)]] += 1.0
            a_ub.append(row)
            b_ub.append(float(capacity.get((i, j), 0)))
    res = linprog([0.0] * n, A_ub=a_ub or None, b_ub=b_ub or None,
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def _compositions(total, bins):
    """All ways to write `total` as an ordered sum of `bins` nonnegatives."""
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest


def brute_force_optimum(instance):
    """Cheapest design cost by exhaustive search, or None when nothing fits.

    Only 10G-only instances are supported; the enumeration caps each pair at
    ceil(total demand / 10) circuits, which is enough because no virtual
    link ever has to carry more than the total demand.
    """
    assert instance.speeds == (10,), "oracle handles 10G-only instances"
    cat = build_catalog(instance)
    cc = build_cost_catalog(instance)
    lt = {lt.speed: lt for lt in cc.lambda_types}[10]
    d_i = node_demand(instance)
    pops = sorted(instance.pops)
    nodes = sorted(instance.graph.node_ids())
    demands = [(d.u, d.v, d.value) for d in instance.demands]
    total = sum(v for _, _, v in demands)
    pair_list = [(a, b) for i, a in enumerate(pops) for b in pops[i + 1:]]
    usable = [p for p in pair_list if cat.pair_paths.get(p)]
    edge_ends = {e.id: (e.u, e.v) for e in instance.graph.edges}
    ub = ceil(total / 10)

    route_memo = {}

    def routable(counts):
        key = tuple(counts)
        if key in route_memo:
            return route_memo[key]
        capacity = {pair: 10 * c for pair, c in zip(usable, counts)}
        ok = sum(capacity.values()) >= total
        if ok:
            for i in pops:
                avail = sum(v for (a, b), v in capacity.items() if i in (a, b))
                if avail < d_i[i]:
                    ok = False
                    break
        if ok:
            ok = lp_routable(pops, demands, capacity)
        route_memo[key] = ok
        return ok

    vprice_memo, oprice_memo = {}, {}

    def router_price(need_cap, need_slot_units):
        key = (need_cap, need_slot_units)
        if key not in vprice_memo:
            fits = [vm.cost for vm in VIRTUAL_MODULES
                    if vm.switching_capacity >= need_cap
                    and vm.slot_capacity * 14 >= need_slot_units]
            vprice_memo[key] = min(fits) if fits else None
        return vprice_memo[key]

    def optical_price(n_fibers, n_drops):
        key = (n_fibers, n_drops)
        if key not in oprice_memo:
            fits = [pm.cost for pm in PHYSICAL_MODULES
                    if pm.fiber_capacity >= n_fibers
                    and pm.add_drop_ports >= n_drops]
            oprice_memo[key] = min(fits) if fits else None
        return oprice_memo[key]

    best = None
    for counts in itertools.product(range(ub + 1), repeat=len(usable)):
        if not routable(counts):
            continue
        fixed = lt.cost * sum(counts)
        # circuit terminations depend only on the per-pair counts
        term = {n: 0 for n in nodes}
        for (a, b), c in zip(usable, counts):
            term[a] += c
            term[b] += c
        ok = True
        for i in pops:
            need = d_i[i] + lt.switching_capacity * term[i]
            if need == 0 and term[i] == 0:
                continue
            price = router_price(need, term[i] * lt.slot_units)
            if price is None:
                ok = False
                break
            fixed += price
        if not ok:
            continue
        if best is not None and fixed >= best:
            continue
        # fiber plus optical module cost depends on the path split
        splits = [list(_compositions(c, len(cat.pair_paths[pair])))
                  for pair, c in zip(usable, counts)]
        for combo in itertools.product(*splits):
            channels = {}
            for pair, comp in zip(usable, combo):
                for c, path in zip(comp, cat.pair_paths[pair]):
                    if c:
                        for eid in path.edges:
                            channels[eid] = channels.get(eid, 0) + c
            var = Fraction(0)
            node_fibers = {n: 0 for n in nodes}
            feasible = True
            for eid, ch in channels.items():
                fibers = ceil(ch / instance.channels_per_fiber)
                var += fibers * cc.fiber_cost[eid]
                for n in edge_ends[eid]:
                    node_fibers[n] += fibers
            for n in nodes:
                if node_fibers[n] == 0 and term[n] == 0:
                    continue
                price = optical_price(node_fibers[n], term[n])
                if price is None:
                    feasible = False
                    break
                var += price
            if feasible and (best is None or fixed + var < best):
                best = fixed + var
    return best
