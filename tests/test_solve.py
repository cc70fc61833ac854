"""Exact and heuristic solver behaviour on small instances."""

import copy
import dataclasses
import heapq
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from math import inf
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (make_instance, random_connected_edges,
                      random_midsize_instance, random_tiny_instance,
                      routable_instance, triangle_instance)
from wdmplan.costcat import build_cost_catalog
from wdmplan.formats import read_instance
from wdmplan.milp import (BINARY, CONTINUOUS, ModelError, build_model,
                          build_transparent_variant, evaluate_cost, export_model)
from wdmplan.pathgen import build_catalog
from wdmplan.solve import (CONTINUOUS_TOLERANCE, DesignState, Limits, _Heuristic,
                           _mix_options, capacity_infeasible, check_feasibility,
                           route_flows, solve_exact, solve_heuristic)

pytest.importorskip("scipy.optimize")
from enum_oracle import brute_force_optimum, lp_routable  # noqa: E402
from lp_mip import solve_lp_text  # noqa: E402

TOY6 = Path(__file__).resolve().parents[1] / "data" / "toy6.txt"


def build(inst):
    cat = build_catalog(inst)
    cc = build_cost_catalog(inst)
    return build_model(inst, cat, cc)


def build_tra(inst):
    cat = build_catalog(inst)
    cc = build_cost_catalog(inst)
    return build_transparent_variant(inst, cat, cc)


def tiny_instances(n, master_seed=1234):
    rng = random.Random(master_seed)
    return [routable_instance(random_tiny_instance, rng)[0] for _ in range(n)]


def test_triangle_frozen_values():
    inst = triangle_instance(demands=(("a", "b", 25),))
    m = build(inst)
    report = solve_exact(m)
    assert report.status == "optimal"
    cost = evaluate_cost(m, report.solution)
    # 3 circuits + one fiber + two entry routers + two 2-degree optical nodes
    assert cost == Fraction("90.98")
    assert evaluate_cost(m, report.solution, final_cost=True) == Fraction("96.98")
    assert report.bound == cost
    assert check_feasibility(m, report.solution) == []

    mt = build_tra(inst)
    rt = solve_exact(mt)
    assert rt.status == "optimal"
    assert evaluate_cost(mt, rt.solution) == Fraction("34.98")


def test_exact_matches_enumeration_oracle():
    for inst in tiny_instances(8):
        m = build(inst)
        report = solve_exact(m)
        assert report.status == "optimal"
        got = evaluate_cost(m, report.solution)
        want = brute_force_optimum(inst)
        assert want is not None
        assert got == want
        assert check_feasibility(m, report.solution) == []


def test_heuristic_feasible_and_never_below_exact():
    for inst in tiny_instances(8, master_seed=77):
        m = build(inst)
        exact = solve_exact(m)
        heur = solve_heuristic(m, seed=3)
        assert heur.status in ("optimal", "feasible")
        assert check_feasibility(m, heur.solution) == []
        assert (evaluate_cost(m, heur.solution)
                >= evaluate_cost(m, exact.solution))


def test_heuristic_feasible_midsize():
    rng = random.Random(9)
    for _ in range(10):
        inst, _cat = routable_instance(random_midsize_instance, rng)
        m = build(inst)
        report = solve_heuristic(m)
        assert report.status in ("optimal", "feasible")
        assert check_feasibility(m, report.solution) == []
        assert evaluate_cost(m, report.solution) >= report.bound


def test_heuristic_deterministic_per_seed():
    inst = tiny_instances(1, master_seed=5)[0]
    m = build(inst)
    a = solve_heuristic(m, seed=11)
    b = solve_heuristic(m, seed=11)
    assert a.solution.values == b.solution.values
    c = solve_heuristic(m, seed=12)
    assert check_feasibility(m, c.solution) == []


def test_zero_demand_is_free():
    inst = make_instance(
        [("e1", "a", "b", 100)], pops=("a", "b"), demands=())
    m = build(inst)
    report = solve_exact(m)
    assert report.status == "optimal"
    assert evaluate_cost(m, report.solution) == 0
    h = solve_heuristic(m)
    assert h.status == "optimal"
    assert evaluate_cost(m, h.solution) == 0


def test_check_feasibility_catches_planted_violations():
    inst = triangle_instance(demands=(("a", "b", 25),))
    m = build(inst)
    sol = solve_exact(m).solution
    assert check_feasibility(m, sol) == []

    values = dict(sol.values)
    for (node, _midx), name in m.vmod_vars.items():
        if node == "a" and values[name]:
            values[name] = Fraction(0)
    broken = check_feasibility(m, values)
    assert any("ncap" in v or "slot" in v for v in broken)

    values = dict(sol.values)
    for name in m.fiber_vars.values():
        values[name] = Fraction(0)
    broken = check_feasibility(m, values)
    assert any("pcap" in v for v in broken)

    # negative circuit count trips the bounds check
    values = dict(sol.values)
    some_yp = next(iter(m.path_vars.values()))
    values[some_yp] = Fraction(-1)
    assert any("non-negative" in v for v in check_feasibility(m, values))


def test_route_flows_respects_capacity():
    inst = triangle_instance(demands=(("a", "b", 25),))
    m = build(inst)
    assert route_flows(m, {("a", "b"): Fraction(0), ("a", "c"): Fraction(0),
                           ("b", "c"): Fraction(0)}) is None
    flows = route_flows(m, {("a", "b"): Fraction(30), ("a", "c"): Fraction(0),
                            ("b", "c"): Fraction(0)})
    assert flows is not None
    assert flows[m.flow_vars[("0", "a", "b")]] == 25
    # relay through c when the direct pair has no capacity
    flows = route_flows(m, {("a", "b"): Fraction(0), ("a", "c"): Fraction(25),
                            ("b", "c"): Fraction(25)})
    assert flows is not None
    assert flows[m.flow_vars[("0", "a", "c")]] == 25
    assert flows[m.flow_vars[("0", "c", "b")]] == 25


def test_route_flows_agrees_with_independent_lp():
    """route_flows finds flows exactly when an independent LP (one commodity
    per demand, HiGHS) routes the demands, and its flows keep every
    conservation row exactly and every pair within its capacity."""
    rng = random.Random(31)
    outcomes = []
    for _ in range(6):
        inst, _cat = routable_instance(random_midsize_instance, rng)
        m = build(inst)
        pops = sorted(inst.pops)
        total = int(inst.total_demand())
        demands = [(d.u, d.v, d.value) for d in inst.demands]
        for _ in range(8):
            capacity = {pair: rng.randrange(0, total + 1, 10)
                        for pair in m.catalog.pair_paths}
            flows = route_flows(m, capacity)
            outcomes.append(flows is not None)
            assert (flows is not None) == lp_routable(pops, demands, capacity)
            if flows is None:
                continue
            assert set(flows) == set(m.flow_vars.values())
            assert all(v >= 0 for v in flows.values())
            for c in m.constraints:
                if c.kind == "flow-conservation":
                    assert sum(coef * flows[v] for v, coef in c.coeffs.items()) == c.rhs
            for (i, j), cap in capacity.items():
                used = sum(flows[name] for (_key, a, b), name in m.flow_vars.items()
                           if {a, b} == {i, j})
                assert used <= cap
    assert any(outcomes) and not all(outcomes)

    # passes the total and per-node checks; only the simplex sees that no
    # capacity crosses from {a, b} to {c, d}
    inst = make_instance([("e1", "a", "b", 100), ("e2", "b", "c", 100),
                          ("e3", "c", "d", 100), ("e4", "d", "a", 100)],
                         pops=("a", "b", "c", "d"),
                         demands=(("a", "c", 20), ("b", "d", 20)), speeds=(10,))
    m = build(inst)
    capacity = {pair: 0 for pair in m.catalog.pair_paths}
    capacity.update({("a", "b"): 40, ("c", "d"): 40})
    assert route_flows(m, capacity) is None
    assert not lp_routable(["a", "b", "c", "d"], [("a", "c", 20), ("b", "d", 20)],
                           capacity)
    capacity[("b", "c")] = 40
    assert route_flows(m, capacity) is not None


@pytest.mark.parametrize("volume, proof", [
    (10_000, "node a demand 10000 Gbps exceeds the largest router capacity 8960"),
    (50_000, "node a must terminate >= 500 circuits, "
             "above the largest add-drop capacity 400"),
])
def test_optimized_capacity_proofs(volume, proof):
    inst = make_instance([("e1", "a", "b", 100)], pops=("a", "b"),
                         demands=(("a", "b", volume),), speeds=(10, 100))
    m = build(inst)
    assert capacity_infeasible(m) == proof
    assert solve_exact(m).status == "infeasible"
    assert solve_heuristic(m).status == "infeasible"


def star_instance(spokes=5, value=802):
    edges = [(f"e{i}", "hub", f"s{i}", 100) for i in range(1, spokes + 1)]
    pops = ["hub"] + [f"s{i}" for i in range(1, spokes + 1)]
    demands = [("hub", f"s{i}", value) for i in range(1, spokes + 1)]
    return make_instance(edges, pops, demands, speeds=(10,))


def test_transparent_star_overload_infeasible():
    inst = star_instance()
    mt = build_tra(inst)
    proof = capacity_infeasible(mt)
    assert proof is not None and "hub" in proof
    report = solve_heuristic(mt)
    assert report.status == "infeasible"
    assert report.solution is None
    exact = solve_exact(mt)
    assert exact.status == "infeasible"


def test_transparent_proof_absent_when_it_fits():
    inst = star_instance(spokes=2, value=120)
    mt = build_tra(inst)
    assert capacity_infeasible(mt) is None
    report = solve_heuristic(mt)
    assert report.status in ("optimal", "feasible")
    assert check_feasibility(mt, report.solution) == []


def test_transparent_cost_at_most_optimized_cost_inputs():
    # transparent designs skip router costs, so on equal demand routing they
    # can only be cheaper; verify on the triangle
    inst = triangle_instance(demands=(("a", "b", 25), ("a", "c", 12)))
    mo = build(inst)
    mt = build_tra(inst)
    opt = solve_exact(mo)
    tra = solve_exact(mt)
    assert opt.status == tra.status == "optimal"
    assert evaluate_cost(mt, tra.solution) <= evaluate_cost(mo, opt.solution)


def test_exact_node_budget_reports_unknown():
    inst = tiny_instances(1, master_seed=42)[0]
    m = build(inst)
    report = solve_exact(m, Limits(max_nodes=1))
    assert report.status in ("feasible", "unknown")
    # a capped search still reports a valid, nonzero lower bound: the bound
    # of the empty design
    toy6 = read_instance(TOY6.read_text())
    for model, cap in ((m, 1), (build(toy6), 300)):
        report = solve_exact(model, Limits(max_nodes=cap))
        assert report.status == "unknown"
        assert report.bound == DesignState(model).lower_bound()
        assert 0 < report.bound <= report.solution.objective


# (status, nodes explored, objective) of exact searches, recorded when the
# search still recursed: one Python frame per branch variable
TOY6_EXACT = {
    ("transparent-core", None): ("optimal", 57667, Fraction(33923, 125)),
    ("optimized", 2000): ("unknown", 2001, Fraction(30791, 50)),
}
TINY_EXACT = [  # tiny_instances(10, master_seed=2026): (optimized, transparent-core)
    (("optimal", 4, Fraction(106711, 1250)),
     ("optimal", 2, Fraction(36711, 1250))),
    (("optimal", 26, Fraction(347001, 2500)),
     ("optimal", 5, Fraction(137001, 2500))),
    (("optimal", 8, Fraction(56579, 625)),
     ("optimal", 3, Fraction(21579, 625))),
    (("optimal", 2, Fraction(53108, 625)),
     ("optimal", 2, Fraction(18108, 625))),
    (("optimal", 38, Fraction(193293, 1250)),
     ("optimal", 4, Fraction(94749, 1250))),
    (("optimal", 7, Fraction(110353, 1250)),
     ("optimal", 3, Fraction(40353, 1250))),
    (("optimal", 2, Fraction(56282, 625)),
     ("optimal", 2, Fraction(21282, 625))),
    (("optimal", 4, Fraction(53054, 625)),
     ("optimal", 2, Fraction(18054, 625))),
    (("optimal", 4, Fraction(53198, 625)),
     ("optimal", 2, Fraction(18198, 625))),
    (("optimal", 7, Fraction(55028, 625)),
     ("optimal", 3, Fraction(20028, 625))),
]
MIDSIZE_TRANSPARENT_EXACT = [  # six routable mid-size instances, rng seed 2026
    ("optimal", 237, Fraction(334613, 2500)),
    ("optimal", 104, Fraction(1137113, 2500)),
    ("optimal", 10, Fraction(5452, 25)),
    ("optimal", 7, Fraction(364681, 2500)),
    ("optimal", 190, Fraction(252611, 2500)),
    ("optimal", 17, Fraction(177291, 625)),
]


def _exact_outcome(model, max_nodes=None):
    report = solve_exact(model, Limits(max_nodes=max_nodes) if max_nodes else None)
    objective = report.solution.objective if report.solution else None
    return report.status, report.nodes_explored, objective


def test_exact_search_pinned():
    """The same tree, node for node: toy6, tiny instances of both
    architectures and mid-size transparent ones."""
    toy6 = read_instance(TOY6.read_text())
    models = {"optimized": build(toy6), "transparent-core": build_tra(toy6)}
    for (arch, cap), outcome in TOY6_EXACT.items():
        assert _exact_outcome(models[arch], cap) == outcome
    for inst, pinned in zip(tiny_instances(10, master_seed=2026), TINY_EXACT, strict=True):
        assert (_exact_outcome(build(inst)), _exact_outcome(build_tra(inst))) == pinned
    rng = random.Random(2026)
    for pinned in MIDSIZE_TRANSPARENT_EXACT:
        inst, _cat = routable_instance(random_midsize_instance, rng)
        assert _exact_outcome(build_tra(inst)) == pinned


def test_exact_search_deeper_than_the_recursion_limit():
    """1,800 branch variables: the search runs to its node limit and ends
    `unknown` with the seeded design and the root bound."""
    names, edges = random_connected_edges(random.Random(0), 9, 12)
    pops = names[:6]
    inst = make_instance(edges, pops, [(pops[0], pops[1], 40), (pops[2], pops[3], 25)],
                         speeds=(10, 100), max_paths_per_pair=60, max_path_km=3000)
    m = build(inst)
    assert len(m.path_vars) > sys.getrecursionlimit()
    report = solve_exact(m, Limits(max_nodes=2000))
    assert (report.status, report.nodes_explored) == ("unknown", 2001)
    assert check_feasibility(m, report.solution) == []
    assert report.bound == DesignState(m).lower_bound() <= report.solution.objective


def test_bounds_never_above_the_optimum():
    """Both solvers' bound is at most the HiGHS optimum of the LP export on
    random tiny and mid-size models of both architectures, and at most the
    enumerated optimum on tiny optimized ones."""
    rng = random.Random(4242)
    checked = 0
    for maker in [random_tiny_instance] * 8 + [random_midsize_instance] * 3:
        inst, _cat = routable_instance(maker, rng)
        for m in (build(inst), build_tra(inst)):
            root = DesignState(m).lower_bound()
            heur = solve_heuristic(m)
            exact = solve_exact(m, Limits(max_nodes=300))
            assert heur.bound == root
            if exact.status != "optimal":
                assert exact.bound == root
            buf = io.StringIO()
            export_model(m, buf)
            try:
                optimum = solve_lp_text(buf.getvalue())[0]
            except RuntimeError:
                continue  # no design at all: any bound is valid
            for bound in (heur.bound, exact.bound):
                assert float(bound) <= optimum + 1e-6 * max(1.0, abs(optimum))
            if maker is random_tiny_instance and not m.transparent:
                assert max(heur.bound, exact.bound) <= brute_force_optimum(inst)
            checked += 1
    assert checked >= 20


def test_both_solvers_report_the_same_bound_when_nothing_fits():
    """Each end needs 11 fibers and the largest optical node takes 10: the
    exhausted search (`infeasible`) and the failed construction (`unknown`)
    report the bound of the empty design."""
    inst = make_instance([("e1", "a", "b", 100)], pops=("a", "b"),
                         demands=(("a", "b", 110),), speeds=(10,), channels_per_fiber=1)
    for m in (build(inst), build_tra(inst)):
        assert capacity_infeasible(m) is None
        exact, heur = solve_exact(m), solve_heuristic(m)
        assert (exact.status, heur.status) == ("infeasible", "unknown")
        assert exact.nodes_explored == 12
        assert exact.bound == heur.bound == DesignState(m).lower_bound() > 0


def test_root_bound_pinned_on_toy6():
    """Circuits for the demand at the cheapest price per Gbps, plus, in the
    optimized model, the cheapest router for each PoP's own demand."""
    inst = read_instance(TOY6.read_text())
    assert DesignState(build(inst)).lower_bound() == Fraction(1632, 5)
    assert DesignState(build_tra(inst)).lower_bound() == Fraction(432, 5)


def _recomputed_bound(state):
    """`DesignState.lower_bound` as it was before the state kept the
    uncovered demand: every pair's (or the total) demand re-summed from the
    capacities, priced at the cheapest `Fraction` circuit cost per Gbps."""
    inst, cc = state.instance, state.model.cost_catalog
    cap = state.pair_capacity
    if state.model.transparent:
        uncovered = sum(max(0, d.value - cap[d.pair]) for d in inst.demands)
    else:
        uncovered = max(0, inst.total_demand() - sum(cap.values()))
    per_gbps = min(lt.cost / lt.routing_capacity for lt in cc.lambda_types)
    return state.prices.exact(state._spent()) + uncovered * per_gbps


def test_incremental_bound_matches_recomputed():
    """After every step of random circuit additions and removals, some down
    to zero circuits, the kept bound equals the recomputed one, and
    `bound_key` is it times the price scale and the denominator of the
    cheapest scaled price per Gbps: on tiny and mid-size models of both
    architectures, at a whole and at a fractional transponder scale (whose
    per-Gbps price is no whole number of scaled units)."""
    rng = random.Random(6174)
    dens = Counter()
    for maker in [random_tiny_instance] * 6 + [random_midsize_instance] * 4:
        base, cat = routable_instance(maker, rng)
        for scale in (Fraction(1), Fraction(1234567, 10**6)):
            inst = dataclasses.replace(base, transponder_scale=scale)
            cc = build_cost_catalog(inst)
            for m in (build_model(inst, cat, cc), build_transparent_variant(inst, cat, cc)):
                state = DesignState(m)
                prices = state.prices
                den = min(Fraction(prices.circuit[lt.speed], lt.routing_capacity)
                          for lt in cc.lambda_types).denominator
                dens[den > 1] += 1
                for step in range(40):
                    if step % 10 == 9 and state.y:  # take a (path, speed) to zero
                        (pid, speed), count = rng.choice(sorted(state.y.items()))
                        state.add_circuits(pid, speed, -count)
                    else:
                        _random_circuit_step(state, rng)
                    want = _recomputed_bound(state)
                    assert state.lower_bound() == want
                    assert state.bound_key() == want * prices.scale * den
                while state.y:  # back to the empty design
                    (pid, speed), count = sorted(state.y.items())[0]
                    state.add_circuits(pid, speed, -count)
                assert state.bound_key() == DesignState(m).bound_key()
                assert state.lower_bound() == _recomputed_bound(state)
    assert dens[True] and dens[False], dens


# heuristic objective and local-search moves on the shipped toy6 instance,
# recorded before the marginal-cost kernel moved to scaled integers
TOY6_HEURISTIC = {
    ("optimized", 0): (Fraction(30791, 50), 75),
    ("optimized", 1): (Fraction(30791, 50), 75),
    ("transparent-core", 0): (Fraction(33923, 125), 0),
    ("transparent-core", 1): (Fraction(33923, 125), 0),
}


def test_heuristic_results_pinned_on_toy6():
    inst = read_instance(TOY6.read_text())
    models = {"optimized": build(inst), "transparent-core": build_tra(inst)}
    for (arch, seed), (objective, moves) in TOY6_HEURISTIC.items():
        report = solve_heuristic(models[arch], seed=seed)
        assert report.status == "feasible"
        assert report.solution.objective == objective
        assert report.iterations == moves


# heuristic objective and local-search moves on three seeded mid-size
# instances (seed 0), recorded before the route search was bounded
MIDSIZE_HEURISTIC = {
    1: (Fraction(576309, 500), 60),
    2: (Fraction(855174, 625), 122),
    6: (Fraction(1687549, 2500), 65),
}


def test_heuristic_results_pinned_on_midsize():
    for instance_seed, (objective, moves) in MIDSIZE_HEURISTIC.items():
        inst = routable_instance(random_midsize_instance, random.Random(instance_seed))[0]
        report = solve_heuristic(build(inst), seed=0)
        assert report.status == "feasible"
        assert report.solution.objective == objective
        assert report.iterations == moves


def _assert_node_fibers(state, graph):
    for n in graph.node_ids():
        assert state.node_fiber_count.get(n, 0) == sum(state.fibers(e.id) for e in graph.incident(n))


def test_marginal_cost_kernel_matches_exact_totals():
    """best_placement picks the (cost, length, path id) minimum of the scaled
    total_cost differences of applying each mix on each path of the pair,
    skipping the candidates that break a node, and incremental node fiber
    counts match a recount, over random add/remove sequences and clones."""
    rng = random.Random(2718)
    outcomes = set()
    for maker in (random_tiny_instance, random_midsize_instance):
        for _ in range(5):
            inst, full_cat = routable_instance(maker, rng)
            cc = build_cost_catalog(inst)
            speeds = [lt.speed for lt in cc.lambda_types]
            for m in (build_model(inst, full_cat, cc),
                      build_transparent_variant(inst, full_cat, cc)):
                cat = m.catalog
                h = _Heuristic(m, seed=0)
                earlier = []
                for step in range(40):
                    st = h.state
                    _assert_node_fibers(st, inst.graph)
                    before = st.scaled_cost()
                    if before is not None:
                        pair = rng.choice(sorted(cat.pair_paths))
                        need = rng.randint(1, rng.choice((300, 300, 300, 4000)))
                        keys = []  # 4000 Gbps of 10G circuits can break a node
                        for q in cat.pair_paths[pair]:
                            for mx in _mix_options(need, list(cc.lambda_types)):
                                trial = st.clone()
                                for speed, n in mx.items():
                                    trial.add_circuits(cat.index(q), speed, n)
                                after = trial.scaled_cost()
                                outcomes.add(after is None)
                                if after is not None:
                                    keys.append((after - before, q.length_km,
                                                 cat.index(q), mx))
                        placed = h.best_placement(pair, need)
                        if not keys:
                            assert placed is None
                        else:
                            c, _length, qid, mx = min(keys, key=lambda k: k[:3])
                            assert placed == (c, qid, mx)
                    if st.y and rng.random() < 0.4:
                        (pid, speed), count = rng.choice(sorted(st.y.items()))
                        st.add_circuits(pid, speed, -rng.randint(1, count))
                    else:
                        st.add_circuits(rng.randrange(len(cat.paths)),
                                        rng.choice(speeds), rng.randint(1, 20))
                    if step % 10 == 9:
                        earlier.append(st)
                        h.state = st.clone()
                for st in earlier + [h.state]:
                    _assert_node_fibers(st, inst.graph)
    assert outcomes == {True, False}


def _best_first_route(pops, hop, u, v):
    """Best-first search that prices every hop in full (`hop(i, j)` is the
    cost, or None for no placement): the route search before it bounded hop
    prices by the cheapest route to `v`."""
    heap = [(0, 0, (u,))]
    done = set()
    while heap:
        cost, hops, seq = heapq.heappop(heap)
        at = seq[-1]
        if at == v:
            return list(seq)
        if at in done:
            continue
        done.add(at)
        for w in sorted(pops):
            if w in seq or w in done:
                continue
            hc = hop(at, w)
            if hc is not None:
                heapq.heappush(heap, (cost + hc, hops + 1, seq + (w,)))
    return None


def _full_hop_price(h, amount):
    def hop(i, j):
        pair = (i, j) if i < j else (j, i)
        need = amount - (h.state.pair_capacity[pair] - h.pair_flow[pair])
        if need <= 0:
            return 0
        placed = h.best_placement(pair, need)
        return None if placed is None else placed[0]
    return hop


def test_bounded_route_search_matches_unbounded():
    """On random placements and pair flows, route_demand returns the route
    of a search that prices every hop in full, and best_placement under a
    cutoff returns the unbounded result when it costs at most the cutoff
    (ties included) and None otherwise."""
    rng = random.Random(1618)
    seen = Counter()
    for maker in (random_tiny_instance, random_midsize_instance):
        for _ in range(6):
            inst, full_cat = routable_instance(maker, rng)
            cc = build_cost_catalog(inst)
            for m in (build_model(inst, full_cat, cc),
                      build_transparent_variant(inst, full_cat, cc)):
                h = _Heuristic(m, seed=0)

                def counted(pair, need, cutoff=inf, place=h.best_placement):
                    placed = place(pair, need, cutoff)
                    seen["pruned"] += placed is None and place(pair, need) is not None
                    return placed

                pops = sorted(inst.pops)
                pairs = sorted(m.catalog.pair_paths)
                for _ in range(25):
                    _random_circuit_step(h.state, rng)
                    for pair, cap in h.state.pair_capacity.items():
                        h.pair_flow[pair] = rng.randint(0, cap)
                    u, v = rng.sample(pops, 2)
                    amount = rng.randint(1, rng.choice((300, 300, 4000)))
                    h.best_placement = counted
                    route = h.route_demand(u, v, amount)
                    del h.best_placement
                    assert route == _best_first_route(pops, _full_hop_price(h, amount), u, v)
                    seen["no-route" if route is None else "multi-hop" if len(route) > 2
                         else "direct"] += 1

                    pair = rng.choice(pairs)
                    need = rng.randint(1, rng.choice((300, 300, 4000)))
                    full = h.best_placement(pair, need)
                    if full is None:
                        for cutoff in (0, 10**12, inf):
                            assert h.best_placement(pair, need, cutoff) is None
                        continue
                    c = full[0]
                    for cutoff in (c, c + 1, inf, c - 1, rng.randint(0, c), -1):
                        placed = h.best_placement(pair, need, cutoff)
                        assert placed == (full if c <= cutoff else None)
                        seen["tie" if c == cutoff else "over" if c > cutoff else "under"] += 1
    # the bound pruned hops, and every outcome occurred
    assert all(seen[k] for k in ("pruned", "tie", "over", "under", "direct", "multi-hop",
                                 "no-route"))


def test_bounded_route_search_keeps_ties():
    """With hop costs drawn from a few small integers, so that routes of
    equal cost abound, route_demand returns the unbounded search's route:
    an entry costing exactly the bound can still rank first on hops or
    PoP sequence."""
    rng = random.Random(2024)
    for _ in range(400):
        pops = [f"p{i}" for i in range(rng.randint(3, 7))]
        table = {(a, b): rng.choice((None, 0, 1, 1, 2, 2, 3, 5))
                 for i, a in enumerate(pops) for b in pops[i + 1:]}

        def hop(i, j, table=table):
            return table[(i, j) if i < j else (j, i)]

        def hop_cost(i, j, amount, cutoff=inf, hop=hop):
            c = hop(i, j)
            return None if c is None or c > cutoff else c

        search = SimpleNamespace(inst=SimpleNamespace(pops=pops), hop_cost=hop_cost)
        u, v = rng.sample(pops, 2)
        assert _Heuristic.route_demand(search, u, v, 1) == _best_first_route(pops, hop, u, v)


def _applied_swap_paths(h, accepts):
    """swap_paths as it was before swaps were priced: each candidate is
    applied, costed and undone unless strictly cheaper. Appends the number
    of paths taken for each (path, speed) it tries to `accepts`."""
    improved = False
    for (pid, speed) in sorted(h.state.y):
        count = h.state.y.get((pid, speed), 0)
        if not count:
            continue
        pair = h.cat.paths[pid].ends
        before = h.state.scaled_cost()
        if before is None:
            continue
        taken = 0
        for q in h.cat.pair_paths[pair]:
            qid = h.cat.index(q)
            if qid == pid:
                continue
            h.state.add_circuits(pid, speed, -count)
            h.state.add_circuits(qid, speed, count)
            after = h.state.scaled_cost()
            if after is not None and after < before:
                improved = True
                h.moves += 1
                taken += 1
                before = after
                pid = qid
            else:
                h.state.add_circuits(qid, speed, -count)
                h.state.add_circuits(pid, speed, count)
        accepts.append(taken)
    return improved


def _twin(h):
    """A second heuristic on a clone of h's state."""
    twin = copy.copy(h)
    twin.state = h.state.clone()
    return twin


def test_priced_swap_matches_applied_swap():
    """swap_paths, which prices each parallel path, leaves the circuits,
    the cost and the move count of the swap that applies every candidate,
    and returns what it returns, on random placements: with single moves,
    chains of moves and no move for a (path, speed)."""
    rng = random.Random(5772)
    accepts = []
    for maker in (random_tiny_instance, random_midsize_instance):
        for _ in range(8):
            inst, full_cat = routable_instance(maker, rng)
            cc = build_cost_catalog(inst)
            for m in (build_model(inst, full_cat, cc),
                      build_transparent_variant(inst, full_cat, cc)):
                h = _Heuristic(m, seed=0)
                for _ in range(12):
                    for _ in range(rng.randint(1, 4)):
                        _random_circuit_step(h.state, rng)
                    ref = _twin(h)
                    want = _applied_swap_paths(ref, accepts)
                    assert h.swap_paths() == want
                    assert h.state.y == ref.state.y
                    assert h.state.scaled_cost() == ref.state.scaled_cost()
                    assert h.moves == ref.moves
                    _assert_node_fibers(h.state, inst.graph)
    taken = Counter(min(n, 2) for n in accepts)
    assert taken[0] and taken[1] and taken[2], taken


def _floorless_best_placement(h, pair, need, cutoff=inf):
    """best_placement as it was before the mix floor: every mix is priced
    before the first comparison with the cutoff."""
    st = h.state
    options = []
    for mix in _mix_options(need, h.model.cost_catalog.lambda_types):
        base = sum(st.prices.circuit[s] * n for s, n in mix.items())
        sw = sum(st.lt[s].switching_capacity * n for s, n in mix.items())
        units = sum(st.lt_units[s] * n for s, n in mix.items())
        for node in pair:
            after = st._vmod_for(st._d_i[node] + st.node_switch.get(node, 0) + sw,
                                 st.node_slot_units.get(node, 0) + units)
            if after is None:
                base = None
                break
            if not h.model.transparent:
                before = st.vmod.get(node)
                base += after[0] - (before[0] if before else 0)
        if base is not None:
            options.append((mix, sum(mix.values()), base))
    best = None
    for length, pid in h._pair_paths.get(pair, ()):
        for mix, count, base in options:
            if base > cutoff:
                continue
            c = h._marginal(pair, pid, count, base, cutoff)
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


def test_mix_floor_matches_floorless_placement():
    """best_placement, which returns None before pricing any mix when the
    cheapest mix's circuits already cost more than the cutoff, gives the
    floorless search's result around its cost, just under the floor and
    unbounded, on random placements and needs; and the floor ended calls."""
    rng = random.Random(1414)
    seen = Counter()
    for maker in (random_tiny_instance, random_midsize_instance):
        for _ in range(6):
            inst, full_cat = routable_instance(maker, rng)
            cc = build_cost_catalog(inst)
            for m in (build_model(inst, full_cat, cc),
                      build_transparent_variant(inst, full_cat, cc)):
                h = _Heuristic(m, seed=0)
                pairs = sorted(m.catalog.pair_paths)
                priced = []

                def counting(*args, mix_base=h._mix_base):
                    priced.append(args)
                    return mix_base(*args)

                h._mix_base = counting
                for _ in range(20):
                    _random_circuit_step(h.state, rng)
                    pair = rng.choice(pairs)
                    need = rng.randint(1, rng.choice((300, 300, 4000)))
                    floor = h._mix_table(need)[0]
                    full = _floorless_best_placement(h, pair, need)
                    cutoffs = [floor - 1, floor, inf]
                    if full is not None:
                        c = full[0]
                        cutoffs += [c - 1, c, c + 1]
                    for cutoff in cutoffs:
                        priced.clear()
                        got = h.best_placement(pair, need, cutoff)
                        assert got == _floorless_best_placement(h, pair, need, cutoff)
                        if floor > cutoff:
                            assert got is None and not priced
                            seen["floor"] += 1
                        else:
                            seen["priced"] += bool(priced)
                            seen["none" if got is None else "placed"] += 1
    assert all(seen[k] for k in ("floor", "priced", "none", "placed")), seen


def test_row_tolerance_follows_any_continuous_variable_even_zero():
    """A row holding a continuous variable gets the 1e-6 tolerance even when
    that variable is 0; a pure-integer row is checked exactly."""
    m = build(triangle_instance(demands=(("a", "b", 25),)))
    values = dict(solve_exact(m).solution.values)
    y = next(n for n in m.path_vars.values() if values[n])
    idle_flow = next(n for n in m.flow_vars.values() if not values[n])
    excess = Fraction(1, 10**7) / values[y]
    m.add_constr("probe_mixed", "probe", {y: excess, idle_flow: Fraction(1)}, "<=", Fraction(0))
    m.add_constr("probe_integer", "probe", {y: excess}, "<=", Fraction(0))
    assert check_feasibility(m, values) == ["probe_integer (probe): 1e-07 <= 0.0 violated"]


def _dense_check_feasibility(model, values):
    """`check_feasibility` as it was before it skipped zero values: every
    variable and every row term evaluated."""
    violations = []
    for name, var in model.variables.items():
        if name not in values:
            violations.append(f"{name}: no value")
            continue
        v = values[name]
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
    for c in model.constraints:
        lhs = Fraction(0)
        has_continuous = False
        for var, coef in c.coeffs.items():
            lhs += coef * values[var]
            if model.variables[var].integrality == CONTINUOUS:
                has_continuous = True
        tol = CONTINUOUS_TOLERANCE if has_continuous else Fraction(0)
        bad = ((c.sense == "<=" and lhs > c.rhs + tol)
               or (c.sense == ">=" and lhs < c.rhs - tol)
               or (c.sense == "=" and abs(lhs - c.rhs) > tol))
        if bad:
            violations.append(
                f"{c.name} ({c.kind}): {float(lhs)} {c.sense} {float(c.rhs)} violated")
    return violations


def _dense_evaluate_cost(model, values):
    """`evaluate_cost` (without the slot surcharge) as it was before it
    skipped zero values."""
    total = Fraction(0)
    for name, var in model.variables.items():
        if name not in values:
            raise ModelError(f"missing variable value: {name}")
        if var.obj:
            total += var.obj * values[name]
    return total


def _perturb(model, values, rng):
    """One random edit of an assignment: the bound breaches (negative,
    fractional, binary 2, no value), a continuous value just below 0 within
    and beyond the tolerance, and edits that break rows of every kind (a
    fiber count set to 0 breaks the physical link capacity)."""
    names = sorted(values)
    kind = rng.randrange(10)
    integer = [n for n in names if model.variables[n].integrality != CONTINUOUS]
    continuous = [n for n in names if model.variables[n].integrality == CONTINUOUS]
    binary = [n for n in names if model.variables[n].integrality == BINARY]
    if kind == 0:
        values[rng.choice(names)] = rng.choice((Fraction(0), 0))
    elif kind == 1:
        values[rng.choice(integer)] = Fraction(-rng.randint(1, 3))
    elif kind == 2:
        values[rng.choice(integer)] = Fraction(rng.randint(0, 4) * 2 + 1, 2)
    elif kind == 3:
        values[rng.choice(binary)] = Fraction(2)
    elif kind == 4 and continuous:
        values[rng.choice(continuous)] = rng.choice((Fraction(-1, 10**7), -CONTINUOUS_TOLERANCE,
                                                     Fraction(-1, 10**5)))
    elif kind == 5 and continuous:
        name = rng.choice(continuous)
        values[name] += rng.choice((Fraction(1, 10**7), Fraction(1, 10**5), Fraction(7, 3)))
    elif kind == 6:  # circuits removed or added
        name = rng.choice(sorted(model.path_vars.values()))
        if name in values:
            values[name] = max(0, values[name] + rng.choice((-2, -1, 1, 3)))
    elif kind == 7:  # a chosen module dropped, or a second one chosen
        chosen = rng.random() < 0.5
        name = rng.choice([n for n in binary if bool(values[n]) == chosen] or binary)
        values[name] = 1 - values[name]
    elif kind == 8:
        values[rng.choice(sorted(model.fiber_vars.values()))] = Fraction(0)
    elif kind == 9 and rng.random() < 0.3:
        del values[rng.choice(names)]


@pytest.mark.parametrize("maker", [random_tiny_instance, random_midsize_instance],
                         ids=["tiny", "midsize"])
def test_sparse_checks_match_dense(maker):
    """check_feasibility and evaluate_cost, which skip zero values, give
    the violation lists and costs of the dense code on randomly perturbed
    heuristic designs."""
    rng = random.Random(4242)
    kinds, senses, clean, bound_breaches = set(), set(), 0, 0
    for _ in range(5):
        inst, full_cat = routable_instance(maker, rng)
        cc = build_cost_catalog(inst)
        for m in (build_model(inst, full_cat, cc),
                  build_transparent_variant(inst, full_cat, cc)):
            design = solve_heuristic(m).solution.values
            for _ in range(40):
                values = dict(design)
                for _ in range(rng.randint(0, 3)):
                    _perturb(m, values, rng)
                want = _dense_check_feasibility(m, values)
                assert check_feasibility(m, values) == want
                clean += not want
                bound_breaches += any(": no value" in v or "integer" in v or "binary" in v
                                      or "negative" in v for v in want)
                rows = [v for v in want if v.endswith(" violated")]
                kinds |= {v.split(" (", 1)[1].split(")", 1)[0] for v in rows}
                senses |= {v.split()[-3] for v in rows}
                if all(name in values for name in m.variables):
                    assert evaluate_cost(m, values) == _dense_evaluate_cost(m, values)
                else:
                    with pytest.raises(ModelError, match="missing variable value") as got:
                        evaluate_cost(m, values)
                    with pytest.raises(ModelError) as ref:
                        _dense_evaluate_cost(m, values)
                    assert str(got.value) == str(ref.value)
    assert clean and bound_breaches and senses == {"<=", ">=", "="}
    assert kinds == {"flow-conservation", "virtual-link-capacity", "physical-link-capacity",
                     "module-uniqueness", "virtual-node-capacity", "slot", "fiber", "add-drop"}


# what `DesignState.clone` copies; the other attributes are numbers, or are
# shared on purpose (the model, the prices, the path edge table, the memoized
# module pickers)
PLACEMENT = ("y", "channels", "pair_capacity", "node_switch", "node_slot_units",
             "node_drops", "node_fiber_count", "vmod", "pmod", "broken")


def _random_circuit_step(state, rng):
    speeds = sorted(state.lt)
    if state.y and rng.random() < 0.4:
        (pid, speed), count = rng.choice(sorted(state.y.items()))
        state.add_circuits(pid, speed, -rng.randint(1, count))
    else:
        state.add_circuits(rng.randrange(len(state.catalog.paths)),
                           rng.choice(speeds), rng.randint(1, 20))


@pytest.mark.parametrize("architecture", ["optimized", "transparent-core"])
@pytest.mark.parametrize("instance", ["toy6", "midsize"])
def test_clone_shares_no_mutable_state(instance, architecture):
    """Circuits added to and removed from one side of a clone, up to a
    broken node, leave every attribute of the other side as it was: the
    original's when the clone changes, and the clone's when the original
    changes."""
    rng = random.Random(31)
    if instance == "toy6":
        inst = read_instance(TOY6.read_text())
    else:
        inst = routable_instance(random_midsize_instance, rng)[0]
    model = (build if architecture == "optimized" else build_tra)(inst)
    for clone_changes in (True, False):
        state = DesignState(model)
        for _ in range(10):
            _random_circuit_step(state, rng)
        twin = state.clone()
        changed, kept = (twin, state) if clone_changes else (state, twin)
        snapshot = {name: copy.deepcopy(getattr(kept, name)) for name in DesignState.__slots__}
        # the model and the prices compare by identity, so their deep copies
        # cannot be compared
        compared = [name for name, value in snapshot.items() if value == getattr(kept, name)]
        assert set(PLACEMENT) <= set(compared)
        moved = set()
        for step in range(32):
            if step < 30:
                _random_circuit_step(changed, rng)
            else:  # far more circuits than any router or optical node takes
                changed.add_circuits(0, min(changed.lt), 5000 if step == 30 else -5000)
                assert changed.broken or step == 31
            moved |= {name for name in PLACEMENT if getattr(changed, name) != snapshot[name]}
            assert {name: getattr(kept, name) for name in compared} == \
                {name: snapshot[name] for name in compared}
        assert moved == set(PLACEMENT)
