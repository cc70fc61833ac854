"""Exact and heuristic solver behaviour on small instances."""

import ast
import copy
import dataclasses
import hashlib
import heapq
import inspect
import io
import random
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from math import inf
from types import SimpleNamespace

import pytest

from conftest import (ROOT, make_instance, perfbench_gen, random_connected_edges,
                      random_midsize_instance, random_tiny_instance,
                      routable_instance, triangle_instance)
from wdmplan.costcat import PHYSICAL_MODULES, build_cost_catalog
from wdmplan.cli import main
from wdmplan.formats import read_instance, write_instance
from wdmplan.metrics import decompose
from wdmplan.milp import (BINARY, CONTINUOUS, TOLERANCE, ModelError, Solution, build_model,
                          build_transparent_variant, evaluate_cost, export_model,
                          slot_surcharge)
from wdmplan.pathgen import build_catalog
from wdmplan import metrics
from wdmplan import solve as solve_module
from wdmplan.solve import (DesignState, Limits, ModelTables, _Heuristic,
                           _mix_options, _OpticalLayer, capacity_infeasible,
                           check_feasibility, route_flows, solve_exact, solve_heuristic)

TOY6 = ROOT / "data" / "toy6.txt"


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


def _root_bound(model):
    """The lower bound of the empty design."""
    return DesignState(ModelTables(model)).lower_bound()


def _restore(state, y):
    """Take `state` back to the circuit counts `y`, a snapshot
    `dict(state.y)`, by `add_circuits` on each count that differs: every
    other field follows the counts."""
    for key in {key for key, _ in state.y.items() ^ y.items()}:
        state.add_circuits(*key, y.get(key, 0) - state.y.get(key, 0))


def test_triangle_frozen_values():
    inst = triangle_instance(demands=(("a", "b", 25),))
    m = build(inst)
    report = solve_exact(m)
    assert report.status == "optimal"
    cost = evaluate_cost(m, report.solution)
    # 3 circuits + one fiber + two entry routers + two 2-degree optical nodes
    assert cost == Fraction("90.98")
    assert cost + slot_surcharge(m, report.solution.values) == Fraction("96.98")
    assert report.bound == cost
    assert check_feasibility(m, report.solution) == []

    mt = build_tra(inst)
    rt = solve_exact(mt)
    assert rt.status == "optimal"
    assert evaluate_cost(mt, rt.solution) == Fraction("34.98")


def _seed_beaten_net():
    """A tiny optimized net whose exact optimum, 136.6932, lies below the
    seeding heuristic's 139.6932, so the search replaces its incumbent."""
    return perfbench_gen().tiny_network(random.Random(9))


def test_exact_matches_enumeration_oracle():
    pytest.importorskip("scipy.optimize")
    from enum_oracle import brute_force_optimum
    for inst in tiny_instances(8) + [_seed_beaten_net()]:
        m = build(inst)
        report = solve_exact(m)
        assert report.status == "optimal"
        got = evaluate_cost(m, report.solution)
        want = brute_force_optimum(inst)
        assert want is not None
        assert got == want
        assert check_feasibility(m, report.solution) == []


def test_exact_beats_its_seed():
    inst = _seed_beaten_net()
    m = build(inst)
    seed = solve_heuristic(m, 0).solution.objective
    report = solve_exact(m)
    assert report.status == "optimal"
    assert seed == Fraction("139.6932")
    assert report.solution.objective == Fraction("136.6932")
    assert check_feasibility(m, report.solution) == []
    assert evaluate_cost(m, report.solution) == report.solution.objective


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


def tight_instance(rng):
    """A 10G-only net whose demands fill its optical nodes' add-drop ports:
    16 sites, 18 chords, 6 PoPs, 4 paths per pair, full-mesh demands of 40
    Gbps up to 480, 720 or 960 Gbps."""
    names, edges = random_connected_edges(rng, 16, 18, 30, 130)
    pops = rng.sample(names, 6)
    top = rng.choice((480, 720, 960))
    demands = [(min(a, b), max(a, b), rng.randint(40, top))
               for i, a in enumerate(pops) for b in pops[i + 1:]]
    return make_instance(edges, pops, demands, speeds=(10,),
                         max_paths_per_pair=4, max_path_km=750)


def _checked(name):
    def method(self, *args):
        out = getattr(_Heuristic, name)(self, *args)
        assert self.state.broken == 0, f"a node broken after {name}"
        self.checked[name] += 1
        return out
    return method


class _UnbrokenHeuristic(_Heuristic):
    """A heuristic that asserts its design has no broken node after each
    route it applies (the transparent variant's direct hops among them),
    after construct, after each phase and whenever it counts kept moves."""

    def __init__(self, model, seed):
        self.checked = Counter()
        super().__init__(model, seed)

    @property
    def moves(self):
        return self._moves

    @moves.setter
    def moves(self, n):
        assert self.state.broken == 0, "a node broken after a move"
        self.checked["move"] += 1
        self._moves = n

    apply_route = _checked("apply_route")
    construct = _checked("construct")
    prune_idle = _checked("prune_idle")
    swap_paths = _checked("swap_paths")
    remix_pairs = _checked("remix_pairs")
    reroute_demands = _checked("reroute_demands")


def test_heuristic_never_holds_a_broken_design(monkeypatch):
    """Every design the heuristic holds fits the catalog, so its cost is
    `DesignState.spent`: on random tiny, mid-size and tight 10G-only nets,
    in both architectures, no node is broken after a route is applied, after
    construct or after any move or phase. Tight nets are where a placement
    that broke an optical node would show; some of them end `unknown`, a
    construct that ran out of ports, and some get as far as the local
    search."""
    made = []

    def heuristic(model, seed):
        made.append(_UnbrokenHeuristic(model, seed))
        return made[-1]

    monkeypatch.setattr(solve_module, "_Heuristic", heuristic)
    rng = random.Random(404)
    statuses = Counter()
    for maker, runs in ((random_tiny_instance, 10), (random_midsize_instance, 10),
                        (tight_instance, 10)):
        for _ in range(runs):
            inst, cat = routable_instance(maker, rng)
            cc = build_cost_catalog(inst)
            for m in (build_model(inst, cat, cc), build_transparent_variant(inst, cat, cc)):
                report = solve_heuristic(m, seed=rng.randrange(2))
                statuses[maker, report.status] += 1
    checked = sum((h.checked for h in made), Counter())
    assert all(checked[name] for name in ("apply_route", "construct", "move", "prune_idle",
                                          "swap_paths", "remix_pairs", "reroute_demands"))
    assert statuses[tight_instance, "feasible"] and statuses[tight_instance, "unknown"]


def test_zero_demand_is_free():
    inst = make_instance(
        [("e1", "a", "b", 100)], pops=("a", "b"), demands=())
    m = build(inst)
    h = solve_heuristic(m)
    assert h.status == "optimal"
    assert evaluate_cost(m, h.solution) == 0
    # the seed is proven, so the exact solver returns it with no search
    assert solve_exact(m) == h
    assert h.nodes_explored == 0


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
    pytest.importorskip("scipy.optimize")
    from enum_oracle import lp_routable
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


def test_route_flows_send_a_circulating_relay_direct():
    """The simplex point here carries flow both ways on every pair. Taking
    its cycles out arc by arc could leave the relay a-b-c; the flow rebuilt
    from its paths takes the fewest-hop one, a-c direct."""
    inst = triangle_instance(demands=(("a", "c", 7),))
    m = build(inst)
    flows = route_flows(m, {("a", "b"): 20, ("a", "c"): 100, ("b", "c"): 200})
    assert {name: v for name, v in flows.items() if v} == {"f_0_0_2": 7}


def test_route_flows_carry_no_cycle():
    """Each commodity's flow from route_flows is exactly the flow rebuilt
    from its own fewest-hop decomposition: every arc's flow lies on an
    origin-to-sink path, so none circulates."""
    rng = random.Random(404)
    routed = 0
    for maker, n_models in ((random_tiny_instance, 12), (random_midsize_instance, 3)):
        for _ in range(n_models):
            inst, _cat = routable_instance(maker, rng)
            m = build(inst)
            total = int(inst.total_demand())
            for _ in range(6):
                capacity = {pair: rng.randrange(0, total + 11, 10)
                            for pair in m.catalog.pair_paths}
                flows = route_flows(m, capacity)
                if flows is None:
                    continue
                routed += 1
                for key, origin, sinks in m.commodities:
                    arcs = {(i, j): flows[name] for (k, i, j), name in m.flow_vars.items()
                            if k == key and flows[name]}
                    rebuilt = Counter()
                    for seq, amount in decompose(arcs, origin, sinks):
                        rebuilt.update({hop: amount for hop in zip(seq, seq[1:])})
                    assert rebuilt == arcs
    assert routed >= 40


@pytest.mark.parametrize("volume, proof", [
    (10_000, "node a demand 10000 Gbps exceeds the largest router capacity 8960"),
    pytest.param(50_000, "node a needs >= 13 fibers and 500 add-drop ports, "
                         "more than any optical node offers", id="50000"),
])
def test_optimized_capacity_proofs(volume, proof):
    inst = make_instance([("e1", "a", "b", 100)], pops=("a", "b"),
                         demands=(("a", "b", volume),), speeds=(10, 100))
    m = build(inst)
    assert capacity_infeasible(m) == proof
    assert solve_exact(m).status == "infeasible"
    assert solve_heuristic(m).status == "infeasible"


def test_capacity_proofs_agree_with_highs():
    """Every proof `capacity_infeasible` gives, in either architecture, is
    one HiGHS agrees with: it reports the exported model infeasible (`milp`
    status 2). On random tiny 10G nets with 1 or 2 channels per fiber and
    demands of 20-60 Gbps, which outgrow the optical nodes often enough
    that each architecture's proof fires."""
    pytest.importorskip("scipy.optimize")
    from lp_mip import lp_status
    rng = random.Random(2512)
    proofs = Counter()
    for _ in range(120):
        inst, cat = routable_instance(random_tiny_instance, rng)
        inst = dataclasses.replace(
            inst, channels_per_fiber=rng.choice((1, 2)),
            demands=tuple(dataclasses.replace(d, value=rng.randint(20, 60))
                          for d in inst.demands))
        cc = build_cost_catalog(inst)
        for m in (build_model(inst, cat, cc), build_transparent_variant(inst, cat, cc)):
            if capacity_infeasible(m) is not None:
                buf = io.StringIO()
                export_model(m, buf)
                assert lp_status(buf.getvalue()) == 2
                proofs[m.transparent] += 1
    assert proofs[False] and proofs[True], proofs


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
        assert report.bound == _root_bound(model)
        assert 0 < report.bound <= report.solution.objective


# (status, nodes explored, objective) of exact searches, recorded when the
# search still recursed: one Python frame per branch variable. Every
# transparent seed here meets the root bound, so no node is explored, with
# every status and objective kept
TOY6_EXACT = {
    ("transparent-core", None): ("optimal", 0, Fraction(33923, 125)),
    ("optimized", 2000): ("unknown", 2001, Fraction(30791, 50)),
}
TINY_EXACT = [  # tiny_instances(10, master_seed=2026): (optimized, transparent-core)
    (("optimal", 4, Fraction(106711, 1250)),
     ("optimal", 0, Fraction(36711, 1250))),
    (("optimal", 26, Fraction(347001, 2500)),
     ("optimal", 0, Fraction(137001, 2500))),
    (("optimal", 8, Fraction(56579, 625)),
     ("optimal", 0, Fraction(21579, 625))),
    (("optimal", 2, Fraction(53108, 625)),
     ("optimal", 0, Fraction(18108, 625))),
    (("optimal", 38, Fraction(193293, 1250)),
     ("optimal", 0, Fraction(94749, 1250))),
    (("optimal", 7, Fraction(110353, 1250)),
     ("optimal", 0, Fraction(40353, 1250))),
    (("optimal", 2, Fraction(56282, 625)),
     ("optimal", 0, Fraction(21282, 625))),
    (("optimal", 4, Fraction(53054, 625)),
     ("optimal", 0, Fraction(18054, 625))),
    (("optimal", 4, Fraction(53198, 625)),
     ("optimal", 0, Fraction(18198, 625))),
    (("optimal", 7, Fraction(55028, 625)),
     ("optimal", 0, Fraction(20028, 625))),
]
MIDSIZE_TRANSPARENT_EXACT = [  # six routable mid-size instances, rng seed 2026
    ("optimal", 0, Fraction(334613, 2500)),
    ("optimal", 0, Fraction(1137113, 2500)),
    ("optimal", 0, Fraction(5452, 25)),
    ("optimal", 0, Fraction(364681, 2500)),
    ("optimal", 0, Fraction(252611, 2500)),
    ("optimal", 0, Fraction(177291, 625)),
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


# recorded when the exact search began to return a proven seed as it is: it
# moved only the node counts of the four seed-proven exact solves, to 0, and
# every value line is as it was before the design state kept one running cost
SOLUTION_VALUES_DIGEST = "913543bbe3ceb04cd8b02c0d0dacd9a668922abc1aa6384f674be5a6cd037012"


def test_solution_values_pinned():
    """Every variable value both solvers return, pinned by one sha256 over
    status, bound, nodes, iterations and the sorted nonzero values: toy6 and
    three mid-size instances, both architectures, the heuristic at seeds 0
    and 1 and the exact search capped at 2,000 nodes. Cell outputs carry
    only flows, transit and costs, so a module pick, fiber count or circuit
    placement swapped for one of equal cost shows only here."""
    rng = random.Random(2027)
    instances = [read_instance(TOY6.read_text())]
    instances += [routable_instance(random_midsize_instance, rng)[0] for _ in range(3)]
    lines = []
    for inst in instances:
        for m in (build(inst), build_tra(inst)):
            reports = [solve_heuristic(m, seed=0), solve_heuristic(m, seed=1),
                       solve_exact(m, Limits(max_nodes=2000))]
            for r in reports:
                values = r.solution.values if r.solution else {}
                lines.append(f"{r.status} {r.bound} {r.nodes_explored} {r.iterations}")
                lines += [f"{name} {v}" for name, v in sorted(values.items()) if v]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SOLUTION_VALUES_DIGEST


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
    assert report.bound == _root_bound(m) <= report.solution.objective


def test_bounds_never_above_the_optimum():
    """Both solvers' bound is at most the HiGHS optimum of the LP export on
    random tiny and mid-size models of both architectures, and of the
    transparent architecture also with one circuit speed at a fractional
    and at a whole transponder scale; and at most the enumerated optimum on
    tiny optimized ones."""
    pytest.importorskip("scipy.optimize")
    from enum_oracle import brute_force_optimum
    from lp_mip import solve_lp_text
    rng = random.Random(4242)
    checked = 0
    for maker in [random_tiny_instance] * 8 + [random_midsize_instance] * 3:
        inst, _cat = routable_instance(maker, rng)
        variants = [dataclasses.replace(inst, speeds=speeds, transponder_scale=scale)
                    for speeds, scale in (((10,), Fraction(1234567, 10**6)),
                                          ((100,), Fraction(3)))]
        for m in [build(inst), build_tra(inst)] + [build_tra(v) for v in variants]:
            root = _root_bound(m)
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


def test_transparent_bound_never_above_a_completion():
    """The transparent bound of a design y is at most the cost of every
    design Y >= y that covers each pair's demand and breaks no node, and is
    Y's cost at y = Y: on random tiny and mid-size transparent models, at
    transponder scales 1, 1.234567 and 3, with the speed sets {10}, {100}
    and {10, 100}. Y covers each demand with a random `_mix_options` mix
    and takes random circuits more; each y takes a random count of at most
    Y's on each variable."""
    rng = random.Random(2718)
    seen = Counter()
    for maker in [random_tiny_instance] * 6 + [random_midsize_instance] * 6:
        base, cat = routable_instance(maker, rng)
        for scale in (Fraction(1), Fraction(1234567, 10**6), Fraction(3)):
            for speeds in ((10,), (100,), (10, 100)):
                inst = dataclasses.replace(base, speeds=speeds, transponder_scale=scale)
                cc = build_cost_catalog(inst)
                m = build_transparent_variant(inst, cat, cc)
                tables = ModelTables(m)
                paths = len(tables.catalog.paths)
                for _ in range(4):
                    full = DesignState(tables)
                    for d in inst.demands:
                        pid = tables.catalog.pair_ids[d.pair][0]
                        for speed, n in rng.choice(_mix_options(d.value, cc.lambda_types)).items():
                            full.add_circuits(pid, speed, n)
                    for _ in range(rng.randint(0, 4)):
                        full.add_circuits(rng.randrange(paths), rng.choice(speeds),
                                          rng.randint(1, 5))
                    if full.broken:
                        continue
                    cost = evaluate_cost(m, full.to_solution({}))
                    assert full.lower_bound() == cost
                    key = cost * tables.scale * tables.gbps_den
                    for _ in range(6):
                        sub = DesignState(tables)
                        for (pid, speed), n in full.y.items():
                            sub.add_circuits(pid, speed, rng.randint(0, n))
                        assert sub.bound_key() <= key
                        seen["equal" if sub.bound_key() == key else "below"] += 1
    assert seen["below"] >= 1000 and seen["equal"], seen


def test_both_solvers_report_the_same_bound_when_nothing_fits():
    """One 10G link a-b at one channel per fiber: each end needs 11 fibers,
    and the largest optical node takes 10. Optimized: 11 circuits of 10G at
    least end at each end, each on its own fiber. Transparent: the empty
    design's shadow design already needs 11 fibers and 11 drops at each
    end. A chain a-m-b with 60 Gbps: 6 fibers on each link, as every path
    of the one pair uses both, so the transit site m holds 12. No PoP total
    shows m; the optimized proof finds it by single-edge cuts, the
    transparent one in its shadow design. Either way `capacity_infeasible`
    proves it, and both solvers read `infeasible` with no node explored and
    report the bound of the empty design."""
    link = make_instance([("e1", "a", "b", 100)], pops=("a", "b"),
                         demands=(("a", "b", 110),), speeds=(10,), channels_per_fiber=1)
    chain = make_instance([("e1", "a", "m", 100), ("e2", "m", "b", 100)], pops=("a", "b"),
                          demands=(("a", "b", 60),), speeds=(10,), channels_per_fiber=1)
    for inst, node, fibers, drops in ((link, "a", 11, 11), (chain, "m", 12, 0)):
        for m in (build(inst), build_tra(inst)):
            assert capacity_infeasible(m) == (
                f"node {node} needs >= {fibers} fibers and {drops} add-drop ports, "
                f"more than any optical node offers")
            exact, heur = solve_exact(m), solve_heuristic(m)
            assert (exact.status, heur.status, exact.nodes_explored) == (
                "infeasible", "infeasible", 0)
            assert exact.bound == heur.bound == _root_bound(m) > 0


def test_exact_search_proves_infeasibility_by_exhaustion(tmp_path, capsys):
    """One 100 km link a-b and 4,400 Gbps of 100G circuits: 44 circuits end
    at each end, and its router switches the 4,400 Gbps of demand plus 120
    Gbps per circuit, 9,680 Gbps, more than the largest router's 8,960. No
    proof reads circuit switching: `capacity_infeasible` gives none and the
    heuristic ends `unknown`. The search exhausts its tree and proves
    `infeasible`, with the root bound."""
    inst = make_instance([("e1", "a", "b", 100)], pops=("a", "b"),
                         demands=(("a", "b", 4400),), speeds=(100,))
    m = build(inst)
    assert capacity_infeasible(m) is None
    heur, exact = solve_heuristic(m), solve_exact(m)
    assert (heur.status, heur.solution, heur.bound) == ("unknown", None, 2321)
    assert (exact.status, exact.solution, exact.nodes_explored, exact.bound) == (
        "infeasible", None, 40, 2321)
    assert exact.bound == _root_bound(m)
    path = tmp_path / "link.txt"
    with open(path, "w") as f:
        write_instance(inst, f)
    assert main(["solve", "--instance", str(path), "--solver", "exact"]) == 1
    assert capsys.readouterr().out == "not feasible\n"


def test_root_bound_pinned_on_toy6():
    """Optimized: circuits for the demand at the cheapest price per Gbps,
    plus the cheapest router for each PoP's own demand. Transparent: the
    shadow design of the empty one, which costs the optimum."""
    inst = read_instance(TOY6.read_text())
    assert _root_bound(build(inst)) == Fraction(1632, 5)
    assert _root_bound(build_tra(inst)) == Fraction(33923, 125)


def _recomputed_bound(state):
    """`DesignState.lower_bound` recomputed from the circuit counts with
    `Fraction` prices. Optimized: the total demand not yet covered, priced
    at the cheapest circuit cost per Gbps. Transparent: the shadow design
    priced from scratch: per pair, the fewest circuits and the least circuit
    cost of any `_mix_options` mix covering its shortfall; per edge, the
    circuits on it plus the pending ones of each pair whose path crosses it,
    rounded up to fibers; per node, the cheapest physical module of the cost
    catalog that takes its fibers and drops, or nothing if none does."""
    t = state.tables
    inst, cc = t.instance, t.model.cost_catalog
    cap = state.pair_capacity
    if not t.transparent:
        uncovered = max(0, inst.total_demand() - sum(cap.values()))
        per_gbps = min(lt.cost / lt.routing_capacity for lt in cc.lambda_types)
        return t.exact(state.spent) + uncovered * per_gbps
    price = {lt.speed: lt.cost for lt in cc.lambda_types}
    paths = t.catalog.paths
    channels, drops = Counter(), Counter()

    def put(pid, n):
        for eid in paths[pid].edges:
            channels[eid] += n
        for node in paths[pid].ends:
            drops[node] += n

    total = Fraction(0)
    for (pid, speed), n in state.y.items():
        total += price[speed] * n
        put(pid, n)
    for d in inst.demands:
        mixes = _mix_options(max(0, d.value - cap[d.pair]), cc.lambda_types)
        total += min(sum(price[s] * n for s, n in mix.items()) for mix in mixes)
        put(t.catalog.pair_ids[d.pair][0], min(sum(mix.values()) for mix in mixes))
    fibers = Counter()
    for e in inst.graph.edges:
        f = -(-channels[e.id] // inst.channels_per_fiber)
        total += cc.fiber_cost[e.id] * f
        fibers[e.u] += f
        fibers[e.v] += f
    for node in inst.graph.node_ids():
        fits = [pm.cost for pm in PHYSICAL_MODULES
                if pm.fiber_capacity >= fibers[node] and pm.add_drop_ports >= drops[node]]
        if (fibers[node] or drops[node]) and fits:
            total += min(fits)
    return total


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
                tables = ModelTables(m)
                state = DesignState(tables)
                den = min(Fraction(tables.circuit_price[lt.speed], lt.routing_capacity)
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
                    assert state.bound_key() == want * tables.scale * den
                while state.y:  # back to the empty design
                    (pid, speed), count = sorted(state.y.items())[0]
                    state.add_circuits(pid, speed, -count)
                assert state.bound_key() == DesignState(tables).bound_key()
                assert state.lower_bound() == _recomputed_bound(state)
    assert dens[True] and dens[False], dens


# heuristic status, objective and local-search moves on the shipped toy6
# instance: objectives recorded before the marginal-cost kernel moved to
# scaled integers, moves since only kept moves count, transparent statuses
# since the transparent bound prices the shadow design, which the
# heuristic's design meets
TOY6_HEURISTIC = {
    ("optimized", 0): ("feasible", Fraction(30791, 50), 1),
    ("optimized", 1): ("feasible", Fraction(30791, 50), 1),
    ("transparent-core", 0): ("optimal", Fraction(33923, 125), 0),
    ("transparent-core", 1): ("optimal", Fraction(33923, 125), 0),
}


def test_heuristic_results_pinned_on_toy6():
    inst = read_instance(TOY6.read_text())
    models = {"optimized": build(inst), "transparent-core": build_tra(inst)}
    for (arch, seed), (status, objective, moves) in TOY6_HEURISTIC.items():
        report = solve_heuristic(models[arch], seed=seed)
        assert report.status == status
        assert report.solution.objective == objective
        assert report.iterations == moves


def test_heuristic_improves_before_giving_up():
    """On this 50-site, 17-PoP network, k=10 paths per pair, the cold start
    stops after 77 of 136 demands: it finds no route for s16-s32, as the
    leaf s16 hangs off s00, whose optical node already holds the largest
    module's 10 fibers, and its one link is full. Improving the partial
    design frees room, and the search finds a route on the second try."""
    m = build(perfbench_gen().synthetic_network(random.Random(1), 50, 17, 10))
    report = solve_heuristic(m)
    assert report.status == "feasible"
    assert report.solution.objective == Fraction("10212.4824")
    assert check_feasibility(m, report.solution) == []


# heuristic objective and local-search moves on three seeded mid-size
# instances (seed 0): objectives recorded before the route search was
# bounded, moves since only kept moves count
MIDSIZE_HEURISTIC = {
    1: (Fraction(576309, 500), 2),
    2: (Fraction(855174, 625), 0),
    6: (Fraction(1687549, 2500), 1),
}


def test_heuristic_results_pinned_on_midsize():
    for instance_seed, (objective, moves) in MIDSIZE_HEURISTIC.items():
        inst = routable_instance(random_midsize_instance, random.Random(instance_seed))[0]
        report = solve_heuristic(build(inst), seed=0)
        assert report.status == "feasible"
        assert report.solution.objective == objective
        assert report.iterations == moves


def _assert_node_fibers(state, graph):
    layer = state.optical
    for n in graph.node_ids():
        assert layer.fiber_count.get(n, 0) == sum(layer.fibers(e.id) for e in graph.incident(n))


def _cost(state):
    """The scaled cost of a design, or None if a node is broken."""
    return None if state.broken else state.spent


def _placement(h, pair, need, cutoff=inf):
    """The heuristic's cheapest placement of `need` Gbps on `pair`, as a hop
    prices it: the scan of the need's mix table."""
    return h._scan(pair, h.tables.mix_table(need)[2], cutoff)


def _batched(placed):
    """A (scaled cost, path id, mix) placement, or None, as `_scan` returns
    it: (scaled cost, batch), the batch one (path id, speed, count) per
    speed of the mix."""
    if placed is None:
        return None
    c, pid, mix = placed
    return c, tuple((pid, speed, n) for speed, n in mix.items())


def test_marginal_cost_kernel_matches_exact_totals():
    """The scan of a pair's mix table picks the (cost, length, path id)
    minimum of the scaled cost differences of applying each mix on each
    path of the pair, skipping the candidates that break a node, and incremental node fiber
    counts match a recount, over random add/remove sequences and states
    restored onto fresh ones."""
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
                trial = DesignState(h.tables)
                earlier = []
                for step in range(40):
                    st = h.state
                    _assert_node_fibers(st, inst.graph)
                    before = _cost(st)
                    if before is not None:
                        pair = rng.choice(sorted(cat.pair_paths))
                        need = rng.randint(1, rng.choice((300, 300, 300, 4000)))
                        keys = []  # 4000 Gbps of 10G circuits can break a node
                        for qid in cat.pair_ids[pair]:
                            for mx in _mix_options(need, list(cc.lambda_types)):
                                _restore(trial, st.y)
                                for speed, n in mx.items():
                                    trial.add_circuits(qid, speed, n)
                                after = _cost(trial)
                                outcomes.add(after is None)
                                if after is not None:
                                    keys.append((after - before, cat.paths[qid].length_km,
                                                 qid, mx))
                        placed = _placement(h, pair, need)
                        if not keys:
                            assert placed is None
                        else:
                            c, _length, qid, mx = min(keys, key=lambda k: k[:3])
                            assert placed == _batched((c, qid, mx))
                    if st.y and rng.random() < 0.4:
                        (pid, speed), count = rng.choice(sorted(st.y.items()))
                        st.add_circuits(pid, speed, -rng.randint(1, count))
                    else:
                        st.add_circuits(rng.randrange(len(cat.paths)),
                                        rng.choice(speeds), rng.randint(1, 20))
                    if step % 10 == 9:
                        earlier.append(st)
                        h.state = DesignState(h.tables)
                        _restore(h.state, st.y)
                for st in earlier + [h.state]:
                    _assert_node_fibers(st, inst.graph)
    assert outcomes == {True, False}


def _best_first_route(pops, hop, u, v, place=lambda placements, sign=1: None):
    """Best-first search that prices every hop in full: `hop(i, j)` is
    (cost, placements), or None for no placement, priced with the label's
    placements on (`place` adds them, and with sign -1 takes them off). It
    returns (cost, PoP sequence, placements), or None; the route search
    before it bounded hop prices by the cheapest route to `v`."""
    heap = [(0, 0, (u,), ())]
    done = set()
    while heap:
        cost, hops, seq, placed = heapq.heappop(heap)
        at = seq[-1]
        if at == v:
            return cost, list(seq), placed
        if at in done:
            continue
        done.add(at)
        place(placed)
        for w in sorted(pops):
            if w in seq or w in done:
                continue
            priced = hop(at, w)
            if priced is not None:
                heapq.heappush(heap, (cost + priced[0], hops + 1, seq + (w,),
                                      placed + priced[1]))
        place(placed, -1)
    return None


def _full_hop_price(h, amount):
    def hop(i, j):
        pair = (i, j) if i < j else (j, i)
        need = amount - (h.state.pair_capacity[pair] - h.pair_flow[pair])
        return (0, ()) if need <= 0 else _placement(h, pair, need)
    return hop


def test_bounded_route_search_matches_unbounded():
    """On random unbroken placements (the heuristic holds no other; a step
    that breaks a node is undone) and pair flows, route_demand returns the
    route, cost and placements of a search that prices every expansion in
    full with the label's placements on the state, and leaves the circuits,
    the cost and the pair flows as it found them; applying its route raises
    the cost by exactly the returned cost and breaks no node. route_demand
    and the placement scan under a cutoff return the unbounded result when it
    costs at most the cutoff (ties included) and None otherwise, and a
    draw with no route gives None under every cutoff."""
    rng = random.Random(1618)
    seen = Counter()
    for maker in (random_tiny_instance, random_midsize_instance):
        for _ in range(6):
            inst, full_cat = routable_instance(maker, rng)
            cc = build_cost_catalog(inst)
            for m in (build_model(inst, full_cat, cc),
                      build_transparent_variant(inst, full_cat, cc)):
                h = _Heuristic(m, seed=0)

                def counted(pair, rows, cutoff, scan=h._scan):
                    placed = scan(pair, rows, cutoff)
                    seen["pruned"] += placed is None and scan(pair, rows, inf) is not None
                    return placed

                pops = sorted(inst.pops)
                pairs = sorted(m.catalog.pair_paths)
                for _ in range(25):
                    y = dict(h.state.y)
                    _random_circuit_step(h.state, rng)
                    if h.state.broken:
                        _restore(h.state, y)
                    for pair, cap in h.state.pair_capacity.items():
                        h.pair_flow[pair] = rng.randint(0, cap)
                    u, v = rng.sample(pops, 2)
                    amount = rng.randint(1, rng.choice((300, 300, 4000)))
                    y, spent, flow = dict(h.state.y), h.state.spent, dict(h.pair_flow)
                    assert h.state.broken == 0
                    h._scan = counted
                    found = h.route_demand(u, v, amount)
                    del h._scan
                    assert (h.state.y, h.state.spent, h.pair_flow) == (y, spent, flow)
                    assert found == _best_first_route(pops, _full_hop_price(h, amount), u, v,
                                                      h.place)
                    c = None if found is None else found[0]
                    for cutoff in ((0, -1, 10**12) if c is None else (c, c + 1, c - 1, 0, -1)):
                        bounded = h.route_demand(u, v, amount, cutoff)
                        assert (h.state.y, h.state.spent, h.pair_flow) == (y, spent, flow)
                        assert bounded == (found if c is not None and c <= cutoff else None)
                        if c is not None:
                            seen["route-" + ("tie" if c == cutoff else "over" if c > cutoff
                                             else "under")] += 1
                    if found is not None:
                        h.apply_route(found[1], amount, found[2])
                        assert h.state.spent - spent == found[0]
                        assert h.state.broken == 0
                        h.place(found[2], -1)
                    seen["no-route" if found is None else "multi-hop" if len(found[1]) > 2
                         else "direct"] += 1

                    pair = rng.choice(pairs)
                    need = rng.randint(1, rng.choice((300, 300, 4000)))
                    assert h.state.broken == 0
                    full = _placement(h, pair, need)
                    if full is None:
                        for cutoff in (0, 10**12, inf):
                            assert _placement(h, pair, need, cutoff) is None
                        continue
                    c = full[0]
                    for cutoff in (c, c + 1, inf, c - 1, rng.randint(0, c), -1):
                        placed = _placement(h, pair, need, cutoff)
                        assert placed == (full if c <= cutoff else None)
                        seen["tie" if c == cutoff else "over" if c > cutoff else "under"] += 1
    # the bound pruned hops, and every outcome occurred
    assert all(seen[k] for k in ("pruned", "tie", "over", "under", "direct", "multi-hop",
                                 "no-route", "route-tie", "route-over", "route-under"))


def test_bounded_route_search_keeps_ties():
    """With hop costs drawn from a few small integers, so that routes of
    equal cost abound, route_demand returns the unbounded search's route,
    cost and placements: an entry costing exactly the bound can still rank
    first on hops or PoP sequence. Under a cutoff it returns them when they
    cost at most the cutoff, and None otherwise."""
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(400):
        pops = [f"p{i}" for i in range(rng.randint(3, 7))]
        table = {(a, b): rng.choice((None, 0, 1, 1, 2, 2, 3, 5))
                 for i, a in enumerate(pops) for b in pops[i + 1:]}

        def hop(i, j, table=table):
            c = table[(i, j) if i < j else (j, i)]
            return None if c is None else (c, ((i, j),))

        def bounded(i, j, amount, cutoff=inf, hop=hop):
            priced = hop(i, j)
            return None if priced is None or priced[0] > cutoff else priced

        search = SimpleNamespace(tables=SimpleNamespace(pops=tuple(sorted(pops))),
                                 hop=bounded, place=lambda placements, sign=1: None)
        u, v = rng.sample(pops, 2)
        found = _best_first_route(pops, hop, u, v)
        assert _Heuristic.route_demand(search, u, v, 1) == found
        c = None if found is None else found[0]
        for cutoff in ((0, -1, 10**12) if c is None else (c, c + 1, c - 1, 0, -1)):
            expected = found if c is not None and c <= cutoff else None
            assert _Heuristic.route_demand(search, u, v, 1, cutoff) == expected
            seen["none" if c is None else "kept" if expected else "cut"] += 1
    assert all(seen[k] for k in ("none", "kept", "cut")), seen


def _reference_scan(h, pair, rows, cutoff):
    """`_Heuristic._scan` with no mix skipped: every row of `rows` is priced
    in full on every path of `pair`, and a candidate is kept when it costs
    at most `cutoff`, which then drops below it. Returns the best candidate
    and how often the best improved, which shows the cutoff tightening."""
    best, improved = None, 0
    for pid in h.tables.catalog.pair_ids[pair]:
        for mix, count, cost, sw, units in rows:
            base = h._mix_base(pair, cost, sw, units)
            c = None if base is None else h.state.optical.price(pid, count, base)
            if c is not None and c <= cutoff:
                best, cutoff, improved = (c, pid, mix), c - 1, improved + 1
    return best, improved


def test_scan_skips_only_mixes_that_cannot_win():
    """On random unbroken states, `_scan` returns the best placement of a
    scan that prices every row on every path, under
    cutoffs at, above and below the best cost. The rows are a pair's mix
    table, and that table shuffled, with exact duplicate rows and with
    relabelled copies (another mix, the same circuit count, cost, switching
    and slot units) put in, so that a dominated mix and a tie with an
    earlier row occur: the earlier of equals must win."""
    rng = random.Random(4242)
    seen = Counter()
    for maker in (random_tiny_instance, random_midsize_instance):
        for _ in range(5):
            inst, full_cat = routable_instance(maker, rng)
            cc = build_cost_catalog(inst)
            for m in (build_model(inst, full_cat, cc),
                      build_transparent_variant(inst, full_cat, cc)):
                h = _Heuristic(m, seed=0)
                pairs = sorted(m.catalog.pair_paths)
                for _ in range(20):
                    y = dict(h.state.y)
                    _random_circuit_step(h.state, rng)
                    if h.state.broken:
                        _restore(h.state, y)
                    pair = rng.choice(pairs)
                    rows = list(h.tables.mix_table(rng.randint(1, rng.choice((300, 4000))))[2])
                    variants = [rows, rng.sample(rows, len(rows))]
                    for _ in range(2):
                        tied = list(rows)
                        for _ in range(rng.randint(1, 3)):
                            mix, *numbers = rng.choice(tied)
                            twin = (mix if rng.random() < 0.5 else {"relabelled": len(tied)},
                                    *numbers)
                            tied.insert(rng.randint(0, len(tied)), twin)
                        variants.append(tied)
                    for rows in variants:
                        full = _reference_scan(h, pair, rows, inf)
                        assert h._scan(pair, rows, inf) == _batched(full[0])
                        if full[0] is None:
                            seen["none"] += 1
                            continue
                        seen["improved"] += full[1] > 1
                        c = full[0][0]
                        for cutoff in (c, c + 1, c - 1, rng.randint(0, c), -1):
                            expected = _batched(_reference_scan(h, pair, rows, cutoff)[0])
                            assert h._scan(pair, rows, cutoff) == expected
                            seen["kept" if expected else "cut"] += 1
                        seen["relabelled"] += "relabelled" in full[0][2]
    assert all(seen[k] for k in ("none", "improved", "kept", "cut", "relabelled")), seen


def _applied_swap_paths(h, accepts):
    """swap_paths as it was before swaps were priced: each candidate is
    applied, costed and undone unless strictly cheaper. Appends the number
    of paths taken for each (path, speed) it tries to `accepts`, and
    returns the number of (path, speed)s moved: a chain of paths taken is
    one kept move."""
    kept = 0
    for (pid, speed) in sorted(h.state.y):
        count = h.state.y.get((pid, speed), 0)
        if not count:
            continue
        pair = h.tables.catalog.paths[pid].ends
        before = _cost(h.state)
        if before is None:
            continue
        taken = 0
        for qid in h.tables.catalog.pair_ids[pair]:
            if qid == pid:
                continue
            h.state.add_circuits(pid, speed, -count)
            h.state.add_circuits(qid, speed, count)
            after = _cost(h.state)
            if after is not None and after < before:
                taken += 1
                before = after
                pid = qid
            else:
                h.state.add_circuits(qid, speed, -count)
                h.state.add_circuits(pid, speed, count)
        accepts.append(taken)
        kept += taken > 0
    return kept


def _twin(h):
    """A second heuristic on a fresh state taken to h's circuits, with its
    own pair flows and routes."""
    twin = copy.copy(h)
    twin.pair_flow, twin.routes = dict(h.pair_flow), dict(h.routes)
    twin.state = DesignState(h.tables)
    _restore(twin.state, h.state.y)
    return twin


def test_priced_swap_matches_applied_swap():
    """swap_paths, which prices each parallel path, leaves the circuits and
    the cost of the swap that applies every candidate, and returns its
    count of kept moves, on random unbroken placements (the
    heuristic holds no other): with single moves, chains of moves and no
    move for a (path, speed)."""
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
                    if h.state.broken:
                        continue
                    ref = _twin(h)
                    want = _applied_swap_paths(ref, accepts)
                    assert h.swap_paths() == want
                    assert h.state.y == ref.state.y
                    assert h.state.spent == ref.state.spent
                    _assert_node_fibers(h.state, inst.graph)
    taken = Counter(min(n, 2) for n in accepts)
    assert taken[0] and taken[1] and taken[2], taken


def _applied_remix_pairs(h, outcomes):
    """remix_pairs as it was before remixes were priced: each pair's best
    mix is applied, costed and undone by `_restore` unless strictly cheaper.
    Counts the remixes kept and rejected in `outcomes`, and returns the
    number kept."""
    kept = 0
    st, t = h.state, h.tables
    speeds = sorted(t.lt)
    for pair, pids in t.catalog.pair_ids.items():
        flow = h.pair_flow[pair]
        placed = [(pid, speed) for pid in pids for speed in speeds if (pid, speed) in st.y]
        if not placed or flow == 0:
            continue
        before = st.spent
        saved = dict(st.y)
        for (pid, speed) in placed:
            st.add_circuits(pid, speed, -st.y[(pid, speed)])
        repl = _placement(h, pair, flow)
        if repl is not None:
            h.place(repl[1])
            if st.spent < before:
                kept += 1
                outcomes["kept"] += 1
                continue
        _restore(st, saved)
        outcomes["rejected"] += 1
    return kept


def test_priced_remix_matches_applied_remix():
    """remix_pairs, which prices each pair's new mix under the cutoff
    "strictly cheaper" before it places it, leaves the circuits and the
    cost of the remix that applies the mix and restores the design when it
    does not pay, and returns its count of kept moves, on random
    unbroken placements with random pair flows up to each pair's capacity;
    both kept and rejected remixes occur."""
    rng = random.Random(6931)
    outcomes = Counter()
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
                    if h.state.broken:
                        continue
                    for pair, cap in h.state.pair_capacity.items():
                        h.pair_flow[pair] = rng.randint(0, cap)
                    ref = _twin(h)
                    want = _applied_remix_pairs(ref, outcomes)
                    assert h.remix_pairs() == want
                    assert h.state.y == ref.state.y
                    assert h.state.spent == ref.state.spent
                    _assert_node_fibers(h.state, inst.graph)
    assert outcomes["kept"] and outcomes["rejected"], outcomes


def _applied_reroute_demands(h, outcomes):
    """reroute_demands as it was before re-routes were priced: each new
    route is applied, costed, and undone by going back to a snapshot unless
    strictly cheaper. A kept re-route counts its freed circuits and itself
    as moves, and the moves kept are returned. Counts the re-routes kept
    and rejected in `outcomes`."""
    kept = 0
    st = h.state
    for idx in list(h.routes):
        d = h.tables.instance.demands[idx]
        before = st.spent
        saved_y, saved_flow = dict(st.y), dict(h.pair_flow)
        h.apply_route(h.routes[idx], -d.value, ())
        freed = h.prune_idle()
        if not freed:
            h.pair_flow = saved_flow
            continue
        found = h.route_demand(d.u, d.v, d.value)
        if found is not None:
            _, seq, placements = found
            h.apply_route(seq, d.value, placements)
            if st.spent < before:
                h.routes[idx] = seq
                kept += sum(count for _, _, count in freed) + 1
                outcomes["kept"] += 1
                continue
        _restore(st, saved_y)
        h.pair_flow = saved_flow
        outcomes["rejected"] += 1
    return kept


def test_priced_reroute_matches_applied_reroute():
    """reroute_demands, which re-routes a demand only when the route costs
    less than the circuits its removal freed and else puts them back,
    returns the kept-move count of the re-route that applies each route and
    goes back to a snapshot, and leaves its circuits, cost, pair flows and
    routes, on random unbroken designs: constructed ones with random
    idle circuits added. Both kept and rejected re-routes occur."""
    rng = random.Random(8128)
    outcomes = Counter()
    for maker in (random_tiny_instance, random_midsize_instance):
        for _ in range(8):
            inst, full_cat = routable_instance(maker, rng)
            h = _Heuristic(build_model(inst, full_cat, build_cost_catalog(inst)), seed=0)
            if not h.construct():
                continue
            speeds = sorted(h.tables.lt)
            for _ in range(6):
                y = dict(h.state.y)
                for _ in range(rng.randint(0, 3)):
                    h.state.add_circuits(rng.randrange(len(h.tables.catalog.paths)),
                                         rng.choice(speeds), rng.randint(1, 6))
                if h.state.broken:
                    _restore(h.state, y)
                ref = _twin(h)
                want = _applied_reroute_demands(ref, outcomes)
                assert h.reroute_demands() == want
                assert h.state.y == ref.state.y
                assert h.state.spent == ref.state.spent
                assert h.pair_flow == ref.pair_flow
                assert h.routes == ref.routes
                assert not h.state.broken
    assert outcomes["kept"] and outcomes["rejected"], outcomes


def _prune_one_at_a_time(h):
    """prune_idle as it was before it dropped a surplus in one call: one
    circuit at a time, while the pair's capacity without it still carries
    the pair's flow."""
    freed = []
    st, t = h.state, h.tables
    for (pid, speed) in sorted(st.y):
        pair = t.ends[pid]
        cap = t.lt[speed].routing_capacity
        while st.y.get((pid, speed), 0) > 0 and \
                st.pair_capacity[pair] - cap >= h.pair_flow[pair]:
            st.add_circuits(pid, speed, -1)
            freed.append((pid, speed))
    return freed


def test_prune_drops_what_one_at_a_time_drops():
    """prune_idle, which drops a (path, speed)'s idle circuits in one call
    and returns each call's (path id, speed, count), frees the circuits
    that dropping them one at a time frees, in the same order, and leaves
    the same state, on constructed mid-size designs of
    both architectures with random circuits added and random demands taken
    out. Some (path, speed) gives up several circuits at once."""
    rng = random.Random(2718)
    freed = Counter()
    for _ in range(6):
        inst, cat = routable_instance(random_midsize_instance, rng)
        cc = build_cost_catalog(inst)
        for m in (build_model(inst, cat, cc), build_transparent_variant(inst, cat, cc)):
            h = _Heuristic(m, seed=0)
            if not h.construct():
                continue
            speeds = sorted(h.tables.lt)
            for _ in range(4):
                y = dict(h.state.y)
                for _ in range(rng.randint(0, 3)):
                    h.state.add_circuits(rng.randrange(len(h.tables.catalog.paths)),
                                         rng.choice(speeds), rng.randint(1, 6))
                if h.state.broken:
                    _restore(h.state, y)
                for idx in rng.sample(sorted(h.routes), rng.randint(0, min(3, len(h.routes)))):
                    h.apply_route(h.routes.pop(idx), -inst.demands[idx].value, ())
                ref = _twin(h)
                want = _prune_one_at_a_time(ref)
                assert [(pid, speed) for pid, speed, count in h.prune_idle()
                        for _ in range(count)] == want
                assert _state_values(h.state) == _state_values(ref.state)
                freed.update(want)
    assert len(freed) >= 20 and max(freed.values()) >= 3, freed


def test_direct_hops_leave_no_idle_circuit():
    """The transparent variant places each demand on its own direct hop,
    with a mix from `_mix_options` that no circuit can be dropped from, so
    `prune_idle` finds nothing to drop there: on random tiny and mid-size
    nets it drops nothing and leaves the circuits and the move count as
    they are. solve_heuristic relies on this and goes straight to the
    remix."""
    rng = random.Random(1123)
    placed = 0
    for maker in (random_tiny_instance, random_midsize_instance):
        for _ in range(15):
            inst, cat = routable_instance(maker, rng)
            m = build_transparent_variant(inst, cat, build_cost_catalog(inst))
            if capacity_infeasible(m) is not None:
                continue
            h = _Heuristic(m, seed=0)
            for d in inst.demands:
                priced = h.hop(d.u, d.v, d.value)
                if priced is None:
                    break
                h.apply_route([d.u, d.v], d.value, priced[1])
            else:
                placed += 1
                y, moves = dict(h.state.y), h.moves
                assert h.prune_idle() == []
                assert h.state.y == y and h.moves == moves
    assert placed >= 20, placed


def test_a_design_loads_through_place_and_apply_route(monkeypatch):
    """A solved heuristic's design loads into a fresh heuristic with no
    method of its own: its circuit counts go on as one batch through
    `place`, then each route (in the transparent variant, each demand's
    direct hop) through `apply_route` with an empty batch. The copy has the
    original's circuits, cost, pair flows, routes, bound key and solution
    values, and no broken node, on the mid-size benchmark network and on
    random tiny nets, in both architectures."""
    made = []

    def heuristic(model, seed):
        made.append(_Heuristic(model, seed))
        return made[-1]

    monkeypatch.setattr(solve_module, "_Heuristic", heuristic)
    rng = random.Random(1729)
    mid = perfbench_gen().mid_network()
    nets = [(mid, build_catalog(mid))] + [routable_instance(random_tiny_instance, rng)
                                          for _ in range(10)]
    loaded = Counter()
    for inst, cat in nets:
        cc = build_cost_catalog(inst)
        for m in (build_model(inst, cat, cc), build_transparent_variant(inst, cat, cc)):
            report = solve_heuristic(m, seed=0)
            if report.solution is None:
                continue
            h, copied = made[-1], _Heuristic(m, seed=0)
            copied.place([(pid, speed, count) for (pid, speed), count in h.state.y.items()])
            if m.transparent:
                for d in inst.demands:
                    copied.apply_route([d.u, d.v], d.value, ())
            for idx, seq in h.routes.items():
                copied.routes[idx] = seq
                copied.apply_route(seq, inst.demands[idx].value, ())
            assert copied.state.broken == 0
            assert (copied.state.y, copied.state.spent, copied.pair_flow, copied.routes) == \
                (h.state.y, h.state.spent, h.pair_flow, h.routes)
            assert copied.state.bound_key() == h.state.bound_key()
            key_of = {origin: key for key, origin, _sinks in m.commodities}
            flows = solve_module._flow_values(m, [
                (key_of[inst.demands[idx].u], seq, inst.demands[idx].value)
                for idx, seq in copied.routes.items()])
            solution = copied.state.to_solution(flows)
            assert (solution.values, solution.objective) == \
                (report.solution.values, report.solution.objective)
            loaded[m.transparent, inst is mid] += 1
    assert all(loaded[tra, big] for tra in (False, True) for big in (False, True)), loaded


def _floorless_placement(h, pair, need, cutoff=inf):
    """The placement scan as it was before the mix floor: every mix is
    priced before the first comparison with the cutoff."""
    st, t = h.state, h.tables
    options = []
    for mix in _mix_options(need, t.model.cost_catalog.lambda_types):
        base = sum(t.circuit_price[s] * n for s, n in mix.items())
        sw = sum(t.lt[s].switching_capacity * n for s, n in mix.items())
        units = sum(t.lt_units[s] * n for s, n in mix.items())
        for node in pair:
            after = t.vmod_for(t.d_i[node] + st.node_switch.get(node, 0) + sw,
                               st.node_slot_units.get(node, 0) + units)
            if after is None:
                base = None
                break
            base += after[0] - st.vmod[node][0]
        if base is not None:
            options.append((mix, sum(mix.values()), base))
    best = None
    for pid in t.catalog.pair_ids[pair]:
        length = t.catalog.paths[pid].length_km
        for mix, count, base in options:
            if base > cutoff:
                continue
            c = st.optical.price(pid, count, base, cutoff)
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
    """The placement scan, which returns None before pricing any mix when
    the cheapest mix's circuits already cost more than the cutoff, gives the
    floorless search's result around its cost, just under the floor and
    unbounded, on random unbroken placements (a step that breaks a node is
    undone) and needs; and the floor ended calls."""
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
                    y = dict(h.state.y)
                    _random_circuit_step(h.state, rng)
                    if h.state.broken:
                        _restore(h.state, y)
                    pair = rng.choice(pairs)
                    need = rng.randint(1, rng.choice((300, 300, 4000)))
                    floor = h.tables.mix_table(need)[0]
                    assert h.state.broken == 0
                    full = _floorless_placement(h, pair, need)
                    cutoffs = [floor - 1, floor, inf]
                    if full is not None:
                        c = full[0]
                        cutoffs += [c - 1, c, c + 1]
                    for cutoff in cutoffs:
                        priced.clear()
                        got = _placement(h, pair, need, cutoff)
                        assert got == _batched(_floorless_placement(h, pair, need, cutoff))
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
            if v < -TOLERANCE:
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
        tol = TOLERANCE if has_continuous else Fraction(0)
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
        values[rng.choice(continuous)] = rng.choice((Fraction(-1, 10**7), -TOLERANCE,
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


def _fraction_rows(model):
    """A copy of `model` whose every row coefficient and right-hand side is
    a `Fraction`, the same number as in `model`."""
    twin = copy.copy(model)
    twin.constraints = [dataclasses.replace(
        c, coeffs={v: Fraction(x) for v, x in c.coeffs.items()}, rhs=Fraction(c.rhs))
        for c in model.constraints]
    return twin


@pytest.mark.parametrize("maker, draws", [(random_tiny_instance, 10),
                                          (random_midsize_instance, 2)],
                         ids=["tiny", "midsize"])
def test_int_rows_match_fraction_rows(maker, draws):
    """Rows and designs hold ints where numbers are whole. The same model
    with `Fraction` rows, and the same designs with `Fraction` values, give
    identical results: the LP file, the violation lists of perturbed
    heuristic designs, their costs, the reports, and the flows `route_flows`
    finds under random capacities, whose nonzero values are `Fraction`s (an
    int division in the phase-1 simplex would make them floats). A mid-size
    simplex takes about 0.1 s, so it gets fewer capacity draws."""
    rng = random.Random(2424)
    checked = routed = 0
    for _ in range(4):
        inst, full_cat = routable_instance(maker, rng)
        cc = build_cost_catalog(inst)
        for m in (build_model(inst, full_cat, cc),
                  build_transparent_variant(inst, full_cat, cc)):
            twin = _fraction_rows(m)
            lp, twin_lp = io.StringIO(), io.StringIO()
            export_model(m, lp)
            export_model(twin, twin_lp)
            assert lp.getvalue() == twin_lp.getvalue()
            design = solve_heuristic(m).solution
            if design is None:
                continue
            assert all(type(v) is int for v in design.values.values())
            as_fractions = Solution({n: Fraction(v) for n, v in design.values.items()})
            assert metrics.report_json(metrics.report(m, design)) == \
                metrics.report_json(metrics.report(twin, as_fractions))
            for _ in range(20):
                values = dict(design.values)
                for _ in range(rng.randint(0, 3)):
                    _perturb(m, values, rng)
                twin_values = {n: Fraction(v) for n, v in values.items()}
                assert check_feasibility(m, values) == check_feasibility(twin, twin_values)
                if len(values) == len(m.variables):
                    cost = evaluate_cost(m, values) + slot_surcharge(m, values)
                    assert cost == (evaluate_cost(twin, twin_values)
                                    + slot_surcharge(twin, twin_values))
                checked += 1
            if m.transparent:
                continue
            total = inst.total_demand()
            for _ in range(draws):
                capacity = {pair: rng.randrange(0, total + 11, 10)
                            for pair in m.catalog.pair_paths}
                flows = route_flows(m, capacity)
                twin_flows = route_flows(twin, capacity)
                assert flows == twin_flows
                if flows is not None:
                    routed += 1
                    assert [type(v) for v in flows.values()] == \
                        [type(v) for v in twin_flows.values()]
                    assert all(type(v) is Fraction for v in flows.values() if v)
    assert checked >= 100 and routed >= 4, (checked, routed)


def _random_circuit_step(state, rng):
    speeds = sorted(state.tables.lt)
    if state.y and rng.random() < 0.4:
        (pid, speed), count = rng.choice(sorted(state.y.items()))
        state.add_circuits(pid, speed, -rng.randint(1, count))
    else:
        state.add_circuits(rng.randrange(len(state.tables.catalog.paths)),
                           rng.choice(speeds), rng.randint(1, 20))


def _maintained_fields(*methods):
    """The fields `methods` keep up to date, read from their code: each
    `self.<field>` they name other than to look an entry or an attribute up
    in it (as `self.pair_capacity[ends]` or `self.y.get(key, 0)` do), that
    is, assigned (as `self.spent += ...` is), bound to a local (as
    `self.tables` is) or changed in place (as `self.y.pop(key)` and
    `self.optical.add(pid, count)` are)."""
    names = set()
    for method in methods:
        tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        lookups = {id(node.value) for node in ast.walk(tree)
                   if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load))
                   or (isinstance(node, ast.Attribute)
                       and (id(node) not in calls or node.attr == "get"))}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "self" and id(node) not in lookups}
    return names


def _state_model(instance, architecture, rng):
    if instance == "toy6":
        inst = read_instance(TOY6.read_text())
    else:
        inst = routable_instance(random_midsize_instance, rng)[0]
    return (build if architecture == "optimized" else build_tra)(inst)


def _state_values(state):
    """Copies of every field of a design state but its shared `tables`, an
    optical layer's one by one under "<layer>.<field>"."""
    values = {}
    for name, value in vars(state).items():
        if isinstance(value, _OpticalLayer):
            values.update({f"{name}.{field}": copy.deepcopy(v)
                           for field, v in vars(value).items() if field != "tables"})
        elif name != "tables":
            values[name] = copy.deepcopy(value)
    return values


@pytest.mark.parametrize("architecture", ["optimized", "transparent-core"])
@pytest.mark.parametrize("instance", ["toy6", "midsize"])
def test_state_follows_circuit_counts(instance, architecture):
    """Every field of a design state but its `tables` is one `add_circuits`
    keeps up to date, and so is every field of its optical layers (the
    design's, and in the transparent variant the shadow design's) but their
    `tables`, which the layers' `add` writes. Each follows the circuit
    counts `y`: over random steps, up to a broken node and back, a fresh
    state taken to the state's `y` equals it, and going back to an earlier
    `y` gives back every earlier value. The steps move every field of the
    state and of its layers."""
    rng = random.Random(31)
    tables = ModelTables(_state_model(instance, architecture, rng))
    state = DesignState(tables)
    # a per-model table kept on the state would be a field no step writes
    assert set(vars(state)) - {"tables"} <= _maintained_fields(
        DesignState.add_circuits, DesignState._repick)
    layers = {name: v for name, v in vars(state).items() if isinstance(v, _OpticalLayer)}
    assert set(layers) == ({"optical", "shadow"} if tables.transparent else {"optical"})
    for layer in layers.values():
        assert set(vars(layer)) - {"tables"} <= _maintained_fields(_OpticalLayer.add)
    fresh = _state_values(state)
    seen = [(dict(state.y), fresh)]
    moved = set()
    for step in range(40):
        if step == 30:  # far more circuits than any router or optical node takes
            state.add_circuits(0, min(tables.lt), 5000)
            assert state.broken
        else:
            _random_circuit_step(state, rng)
        now = _state_values(state)
        moved |= {name for name in now if now[name] != fresh[name]}
        twin = DesignState(tables)
        _restore(twin, state.y)
        assert _state_values(twin) == now
        seen.append((dict(state.y), now))
        if step == 30 or step % 5 == 4:
            # back from the broken node to the step before it, else anywhere
            y, then = seen[-2] if step == 30 else rng.choice(seen)
            _restore(state, y)
            assert _state_values(state) == then
    assert moved == set(fresh)


DESIGN_ROW_KINDS = {"physical-link-capacity", "module-uniqueness", "virtual-node-capacity",
                    "slot", "fiber", "add-drop"}


@pytest.mark.parametrize("architecture", ["optimized", "transparent-core"])
@pytest.mark.parametrize("instance", ["toy6", "midsize"])
def test_state_cost_is_the_model_objective(instance, architecture):
    """The running cost of a design state is the model's objective of its
    design: over random steps, up to a broken node and back, the solution
    of an unbroken state is priced at what `evaluate_cost` gives its
    variable values, and those values keep every design row (the flow rows
    wait for flows); `broken` counts the nodes whose pick is None, and a
    broken state has no solution."""
    rng = random.Random(59)
    model = _state_model(instance, architecture, rng)
    state = DesignState(ModelTables(model))
    priced = 0
    for step in range(41):
        if step == 30:  # far more circuits than any router or optical node takes
            saved = dict(state.y)
            state.add_circuits(0, min(state.tables.lt), 5000)
        elif step == 31:
            _restore(state, saved)
        else:
            _random_circuit_step(state, rng)
        picks = list(state.vmod.values()) + list(state.optical.pmod.values())
        assert state.broken == picks.count(None)
        assert state.broken or step != 30
        if state.broken:
            with pytest.raises(AssertionError):
                state.to_solution({})
            continue
        solution = state.to_solution({})
        assert solution.objective == evaluate_cost(model, solution)
        violated = [v for v in check_feasibility(model, solution)
                    if v.split(" (", 1)[1].split(")", 1)[0] in DESIGN_ROW_KINDS]
        assert violated == []
        priced += 1
    assert priced >= 30


@pytest.mark.parametrize("architecture", ["optimized", "transparent-core"])
@pytest.mark.parametrize("instance", ["toy6", "midsize"])
def test_states_on_one_tables_are_independent(instance, architecture):
    """Two design states built on one `ModelTables`: random steps on one,
    up to a broken node and back and with restores, leave the other equal
    to a fresh state, and the stepped one equals a state on tables of its
    own restored to the same circuits."""
    rng = random.Random(47)
    model = _state_model(instance, architecture, rng)
    tables = ModelTables(model)
    state, bystander = DesignState(tables), DesignState(tables)
    fresh = _state_values(DesignState(ModelTables(model)))
    seen = [dict(state.y)]
    for step in range(40):
        if step == 30:
            state.add_circuits(0, min(tables.lt), 5000)
        else:
            _random_circuit_step(state, rng)
        seen.append(dict(state.y))
        if step == 30 or step % 5 == 4:
            _restore(state, seen[-2] if step == 30 else rng.choice(seen))
        assert _state_values(bystander) == fresh
    alone = DesignState(ModelTables(model))
    _restore(alone, state.y)
    assert state.y and _state_values(alone) == _state_values(state)
