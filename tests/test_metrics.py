"""Transit disaggregation, opacity and edge interface costs."""

import random
from fractions import Fraction

import pytest

from conftest import (random_midsize_instance, random_tiny_instance,
                      routable_instance, triangle_instance)
from wdmplan.costcat import build_cost_catalog
from wdmplan.metrics import (REPORT_COLUMNS, ModelError, count_ip_paths,
                             decompose, disaggregate_flows, edge_cost, fmt_cost,
                             fmt_opacity, node_transit, opacity, report,
                             report_csv_row, report_json)
from wdmplan.milp import Solution, build_model, build_transparent_variant
from wdmplan.netmodel import node_demand
from wdmplan.pathgen import build_catalog
from wdmplan.solve import check_feasibility, solve_exact, solve_heuristic

# published per-architecture transit totals (ip, wdm) and their opacity at
# one decimal; the computed value must sit within 0.05 of the rounded figure
OPACITY_CASES = [
    (180, 4039, "4.3"),
    (210, 4259, "4.7"),
    (188, 6628, "2.8"),
    (205, 7447, "2.7"),
    (1060, 6740, "13.6"),
    (1393, 7242, "16.1"),
    (1171, 11682, "9.1"),
    (1375, 13549, "9.2"),
]


def build(inst):
    return build_model(inst, build_catalog(inst), build_cost_catalog(inst))


def test_opacity_reference_values():
    for f_ip, f_wdm, shown in OPACITY_CASES:
        phi = opacity(Fraction(f_ip), Fraction(f_wdm))
        assert abs(phi - Fraction(shown)) <= Fraction(5, 100)
        assert fmt_opacity(phi) == shown


def test_opacity_edge_cases():
    assert opacity(Fraction(0), Fraction(7)) == 0
    assert opacity(Fraction(5), Fraction(0)) == 100
    assert opacity(Fraction(0), Fraction(0)) is None
    assert fmt_opacity(None) == "undefined"


def relay_model():
    """Triangle with all demand routed on direct virtual hops except the
    a-c demand, which is relayed electrically at b."""
    inst = triangle_instance(demands=(("a", "b", 20), ("b", "c", 30),
                                      ("a", "c", 10)), speeds=(10,))
    m = build(inst)
    values = dict.fromkeys(m.variables, 0)
    values[m.flow_vars[("0", "a", "b")]] = Fraction(30)
    values[m.flow_vars[("0", "b", "c")]] = Fraction(10)
    values[m.flow_vars[("1", "b", "c")]] = Fraction(30)
    direct_ab = m.catalog.pair_ids[("a", "b")][0]
    direct_bc = m.catalog.pair_ids[("b", "c")][0]
    values[m.path_vars[(direct_ab, 10)]] = Fraction(3)
    values[m.path_vars[(direct_bc, 10)]] = Fraction(4)
    return inst, m, values, direct_ab, direct_bc


def test_disaggregation_and_electrical_relay():
    inst, m, values, direct_ab, direct_bc = relay_model()
    f_p = disaggregate_flows(m, values)
    assert f_p[direct_ab] == 30
    assert f_p[direct_bc] == 40
    assert sum(f_p.values()) == 70
    assert set(f_p) == {direct_ab, direct_bc}  # the paths that carry nothing are left out
    ip, wdm = node_transit(m, f_p)
    assert ip == {"a": 0, "b": 10, "c": 0}
    assert wdm == {"a": 0, "b": 0, "c": 0}
    assert opacity(Fraction(10), Fraction(0)) == 100
    assert count_ip_paths(m, values) == 3


def test_cycles_of_flow_carry_no_ip_path():
    """Flow around a cycle adds no routing path: a 2-cycle b-c-b on the
    first commodity and a 3-cycle a-b-c-a on the second leave the count at
    relay_model's 3, and the decomposition at its paths."""
    _inst, m, values, _ab, _bc = relay_model()
    for key, cycle in (("0", "bcb"), ("1", "abca")):
        for i, j in zip(cycle, cycle[1:]):
            values[m.flow_vars[(key, i, j)]] += 4
    assert count_ip_paths(m, values) == 3
    arcs = {(i, j): values[name] for (k, i, j), name in m.flow_vars.items() if k == "0"}
    assert decompose(arcs, "a", {"c": 10, "b": 20}) == [
        (("a", "b"), 20), (("a", "b", "c"), 10)]


def test_undeliverable_flow_names_its_source():
    _inst, m, values, _ab, _bc = relay_model()
    values[m.flow_vars[("1", "b", "c")]] = Fraction(20)  # 30 Gbps due at c
    with pytest.raises(ModelError, match="source b cannot deliver 10.0 Gbps to c"):
        count_ip_paths(m, values)
    with pytest.raises(ModelError, match="source a cannot deliver 10.0 Gbps to c"):
        decompose({("a", "b"): 30}, "a", {"b": 20, "c": 10})


def test_optical_bypass_counts_as_wdm_transit():
    inst = triangle_instance(demands=(("a", "c", 10),), speeds=(10,))
    m = build(inst)
    values = dict.fromkeys(m.variables, 0)
    values[m.flow_vars[("0", "a", "c")]] = Fraction(10)
    # shortest a-c path runs a-b-c, so b is interior
    via_b = m.catalog.pair_ids[("a", "c")][0]
    assert m.catalog.paths[via_b].interior == ("b",)
    values[m.path_vars[(via_b, 10)]] = Fraction(1)
    f_p = disaggregate_flows(m, values)
    assert f_p == {via_b: 10}
    ip, wdm = node_transit(m, f_p)
    assert wdm["b"] == 10
    assert ip["b"] == 0
    assert opacity(Fraction(0), Fraction(10)) == 0


def test_disaggregation_fills_shortest_path_first():
    inst = triangle_instance(demands=(("a", "b", 15),), speeds=(10,))
    m = build(inst)
    first, second = m.catalog.pair_ids[("a", "b")]
    assert len(m.catalog.paths[first]) == 1
    values = dict.fromkeys(m.variables, 0)
    values[m.flow_vars[("0", "a", "b")]] = Fraction(15)
    values[m.path_vars[(first, 10)]] = Fraction(1)
    values[m.path_vars[(second, 10)]] = Fraction(1)
    f_p = disaggregate_flows(m, values)
    assert f_p[first] == 10
    assert f_p[second] == 5


def test_disaggregation_rejects_uncovered_flow():
    inst = triangle_instance(demands=(("a", "b", 15),), speeds=(10,))
    m = build(inst)
    values = dict.fromkeys(m.variables, 0)
    values[m.flow_vars[("0", "a", "b")]] = Fraction(15)
    values[m.path_vars[(m.catalog.pair_ids[("a", "b")][0], 10)]] = Fraction(1)
    with pytest.raises(ModelError, match="pair a-b exceeds"):
        disaggregate_flows(m, values)


def test_ip_transit_rejects_undelivered_demand():
    inst = triangle_instance(demands=(("a", "b", 15),), speeds=(10,))
    m = build(inst)
    with pytest.raises(ModelError, match="node a: terminated flow 0.0 below its own demand 15.0"):
        node_transit(m, {})


def test_edge_cost_examples():
    tri = triangle_instance(demands=(("a", "b", 60),), speeds=(10,))
    assert edge_cost(tri) == 38
    single = triangle_instance(demands=(("a", "b", 3000),), speeds=(10,))
    assert edge_cost(single) == 1900
    both = triangle_instance(demands=(("a", "b", 30),))
    # 10G: 2*3 ports at 19/12 beats 100G: 2 ports at 16
    assert edge_cost(both) == 19
    hundred = triangle_instance(demands=(("a", "b", 110),), speeds=(100,))
    # two access circuits per node at two ports each
    assert edge_cost(hundred) == 2 * (2 * 2 * 16)
    empty = triangle_instance(demands=())
    assert edge_cost(empty) == 0


def test_count_ip_paths_transparent():
    inst = triangle_instance(demands=(("a", "b", 20), ("b", "c", 30)))
    mt = build_transparent_variant(inst, build_catalog(inst),
                                   build_cost_catalog(inst))
    assert count_ip_paths(mt, dict.fromkeys(mt.variables, 0)) == 2


def test_report_on_solved_triangle():
    inst = triangle_instance(demands=(("a", "b", 25),))
    m = build(inst)
    res = solve_exact(m)
    assert res.status == "optimal"
    tr = report(m, res.solution)
    assert tr.core_cost == Fraction("96.98")
    assert tr.total_cost == tr.core_cost + tr.edge_cost
    assert tr.total_ip == 0 and tr.total_wdm == 0
    assert tr.opacity is None
    assert tr.lambda_count == 3
    assert tr.ip_path_count == 1

    row = report_csv_row(tr)
    assert len(row) == len(REPORT_COLUMNS)
    assert dict(zip(REPORT_COLUMNS, row))["opacity"] == "undefined"
    # the design's figures only: the cell keeps its name, architecture and status
    assert REPORT_COLUMNS[0] == "core_cost" and row[0] == "96.98"
    assert report_csv_row(None) == [""] * len(REPORT_COLUMNS)

    blob = report_json(tr)
    assert not {"name", "architecture", "status"} & blob.keys()
    assert blob["cost"]["total"] == float(tr.total_cost)
    assert blob["opacity_display"] == "undefined"


def test_transparent_report_zero_ip_transit():
    inst = triangle_instance(demands=(("a", "b", 20), ("a", "c", 12),
                                      ("b", "c", 40)))
    mt = build_transparent_variant(inst, build_catalog(inst),
                                   build_cost_catalog(inst))
    res = solve_heuristic(mt)
    assert res.status in ("optimal", "feasible")
    tr = report(mt, res.solution)
    assert tr.total_ip == 0
    # the shortest a-c path crosses b optically
    assert tr.total_wdm == 12
    assert fmt_opacity(tr.opacity) == "0.0"


def test_fmt_cost():
    assert fmt_cost(Fraction("90.98")) == "90.98"
    assert fmt_cost(Fraction(0)) == "0"
    assert fmt_cost(None) == ""


def test_transit_identity_on_random_instances():
    rng = random.Random(23)
    for _ in range(8):
        inst, _cat = routable_instance(random_midsize_instance, rng)
        m = build(inst)
        res = solve_heuristic(m)
        assert res.status in ("optimal", "feasible")
        assert check_feasibility(m, res.solution) == []
        tr = report(m, res.solution)
        d_i = node_demand(inst)
        # every path end terminates at a router: summed terminations equal
        # twice the path flow, which splits into demand and IP transit
        terminated = sum(2 * tr.node_ip[i] + d_i[i] for i in tr.node_ip)
        assert terminated == 2 * sum(tr.path_flow.values())
        assert tr.total_ip >= 0 and tr.total_wdm >= 0
        assert tr.ip_path_count >= len(inst.demands)
        assert tr.lambda_count >= 1


def _transit_by_scan(model, f_p):
    """Each PoP's (IP, WDM) transit by its definition, scanning every
    catalog path for that PoP: half of what its terminating paths carry
    beyond its demand, and what the paths through its interior carry."""
    d_i = node_demand(model.instance)
    ip, wdm = {}, {}
    for i in sorted(model.instance.pops):
        terminated = sum((f_p.get(pid, 0) for pid, p in enumerate(model.catalog.paths)
                          if i in p.ends), Fraction(0))
        ip[i] = max((terminated - d_i[i]) / 2, Fraction(0))
        wdm[i] = sum((f_p.get(pid, 0) for pid, p in enumerate(model.catalog.paths)
                      if i in p.interior), Fraction(0))
    return ip, wdm


def test_node_transit_matches_per_pop_scan():
    """The one walk over the carrying paths gives every PoP the transit its
    definition gives, in both architectures, on heuristic designs of
    mid-size instances and exact-solver designs (whose flows are
    `Fraction`s) of tiny ones; the disaggregation lists no idle path."""
    rng = random.Random(29)
    mixed_interiors = 0
    for maker, solver, n_instances in ((random_midsize_instance, solve_heuristic, 6),
                                       (random_tiny_instance, solve_exact, 8)):
        for _ in range(n_instances):
            inst, cat = routable_instance(maker, rng)
            costs = build_cost_catalog(inst)
            for m in (build_model(inst, cat, costs),
                      build_transparent_variant(inst, cat, costs)):
                res = solver(m)
                assert res.status in ("optimal", "feasible")
                f_p = disaggregate_flows(m, res.solution)
                assert all(isinstance(v, Fraction) and v > 0 for v in f_p.values())
                ip, wdm = node_transit(m, f_p)
                assert (ip, wdm) == _transit_by_scan(m, f_p)
                assert all(isinstance(v, Fraction) for v in [*ip.values(), *wdm.values()])
                tr = report(m, res.solution)
                assert (tr.node_ip, tr.node_wdm, tr.path_flow) == (ip, wdm, f_p)
                for pid in f_p:
                    interior = set(m.catalog.paths[pid].interior)
                    if interior & set(inst.pops) and interior - set(inst.pops):
                        mixed_interiors += 1
    # some carrying path crosses both a PoP (WDM transit) and a non-PoP site
    assert mixed_interiors


def test_report_takes_flows_short_by_solver_noise():
    """A flow 1e-7 short of its demand passes the feasibility check (1e-6
    per row), so the report takes it: the routing paths stop at the
    tolerance. A 1e-5 shortfall still raises, naming its source."""
    _inst, m, _values, _ab, _bc = relay_model()
    res = solve_heuristic(m)
    name = m.flow_vars[("0", "a", "b")]
    assert res.solution.values[name] == 20
    short = Solution(dict(res.solution.values))
    short.values[name] -= Fraction(1, 10**7)
    assert check_feasibility(m, short) == []
    assert report(m, short).ip_path_count == 3
    short.values[name] = 20 - Fraction(1, 10**5)
    with pytest.raises(ModelError, match="source a cannot deliver 1e-05 Gbps to b"):
        count_ip_paths(m, short)
