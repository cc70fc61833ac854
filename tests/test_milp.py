"""Model construction, cost evaluation and LP interchange."""

import hashlib
import io
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (ROOT, make_instance, perfbench_gen, random_connected_edges,
                      random_tiny_instance, routable_instance, triangle_instance)
from wdmplan.costcat import (PHYSICAL_MODULES, VIRTUAL_MODULES, build_cost_catalog,
                             enumerate_virtual_modules, fiber_link_cost,
                             physical_modules)
from wdmplan.formats import read_instance
from wdmplan.milp import (CONTINUOUS, INTEGER, Model, ModelError, Variable,
                          _add_design_constraints, _add_design_vars, _indexers, _path_terms,
                          build_model, build_transparent_variant, evaluate_cost, export_model,
                          import_solution, slot_surcharge)
from wdmplan.pathgen import build_catalog, dump_paths, load_paths
from wdmplan.solve import solve_exact


def build(inst):
    cat = build_catalog(inst)
    cc = build_cost_catalog(inst)
    return build_model(inst, cat, cc)


def build_tra(inst):
    cat = build_catalog(inst)
    cc = build_cost_catalog(inst)
    return build_transparent_variant(inst, cat, cc)


def full_triangle():
    return triangle_instance(demands=(("a", "b", 25), ("a", "c", 12),
                                      ("b", "c", 40)))


def test_constraint_and_variable_census():
    m = build(full_triangle())
    # sources a (to b and c) and b (to c) give 2 commodities over 3 PoPs
    assert [c[0] for c in m.commodities] == ["0", "1"]
    kinds = Counter(c.kind for c in m.constraints)
    assert kinds == {
        "flow-conservation": 6,
        "virtual-link-capacity": 3,
        "physical-link-capacity": 3,
        "module-uniqueness": 6,
        "virtual-node-capacity": 3,
        "slot": 3,
        "fiber": 3,
        "add-drop": 3,
    }
    tables = {"flow": m.flow_vars, "lightpath": m.path_vars, "fiber": m.fiber_vars,
              "virtual-module": m.vmod_vars, "physical-module": m.pmod_vars}
    # every variable sits in exactly one lookup table
    assert sorted(n for t in tables.values() for n in t.values()) == sorted(m.variables)
    assert {kind: len(t) for kind, t in tables.items()} == {
        "flow": 12,           # 2 commodities x 6 ordered PoP pairs
        "lightpath": 12,      # 6 admissible paths x 2 speeds
        "fiber": 3,
        "virtual-module": 3 * 65,
        "physical-module": 3 * 10,
    }


def test_flow_conservation_signs():
    m = build(full_triangle())
    row = next(c for c in m.constraints if c.name == "conserve_0_0")
    # commodity sourced at a, row at a: supply equals total demand from a
    assert row.sense == "="
    assert row.rhs == 25 + 12
    out_var = m.flow_vars[("0", "a", "b")]
    in_var = m.flow_vars[("0", "b", "a")]
    assert row.coeffs[out_var] == 1
    assert row.coeffs[in_var] == -1


def test_demand_on_missing_path_rejected():
    inst = make_instance(
        [("e1", "a", "b", 100), ("e2", "b", "c", 900)],
        pops=("a", "c"), demands=(("a", "c", 4),))
    cat = build_catalog(inst)
    cc = build_cost_catalog(inst)
    with pytest.raises(ModelError, match="no admissible path .* a-c"):
        build_model(inst, cat, cc)
    with pytest.raises(ModelError, match="transparent infeasible: unreachable pair a-c"):
        build_transparent_variant(inst, cat, cc)


def test_catalog_must_list_exactly_the_pop_pairs():
    """A catalog that lacks a PoP pair would leave its flows without a
    capacity row, and one with a pair of non-PoPs has no flows for it: both
    are refused at build time, naming the pair. The transparent variant
    reads only the demand pairs, and solves the cut catalog."""
    inst = triangle_instance()
    buf = io.StringIO()
    dump_paths(build_catalog(inst), buf)
    cut = load_paths(io.StringIO("".join(line for line in buf.getvalue().splitlines(True)
                                         if line.startswith("a b "))), inst.graph)
    cc = build_cost_catalog(inst)
    with pytest.raises(ModelError, match="path catalog lacks PoP pair a-c"):
        build_model(inst, cut, cc)
    report = solve_exact(build_transparent_variant(inst, cut, cc))
    assert (report.status, report.solution.objective) == ("optimal", Fraction(1749, 50))
    two_pops = make_instance([("e1", "a", "b", 100), ("e2", "b", "c", 100),
                              ("e3", "a", "c", 300)], pops=("a", "b"), demands=(("a", "b", 25),))
    with pytest.raises(ModelError, match="path catalog pair a-c is not a pair of PoPs"):
        build_model(two_pops, build_catalog(inst), build_cost_catalog(two_pops))


def _per_demand_model(inst):
    """`build_model` with one commodity per demand, where the model shares
    one among the demands of a source: its flow variables, conservation
    rows and link capacity rows per demand, every other row the same."""
    cat = build_catalog(inst)
    m = Model(inst, cat, build_cost_catalog(inst))
    nidx, eidx = _indexers(inst)
    pops = sorted(inst.pops)
    m.commodities = [(f"k{ki}", d.u, {d.v: d.value})
                     for ki, d in enumerate(sorted(inst.demands))]
    flow = Variable(CONTINUOUS, Fraction(0))
    for key, _origin, _sinks in m.commodities:
        for i in pops:
            for j in pops:
                if i != j:
                    m.flow_vars[(key, i, j)] = m.add_var(
                        f"f_{key}_{nidx[i]}_{nidx[j]}", flow)
    circuits = _add_design_vars(m, nidx, eidx)
    for key, origin, sinks in m.commodities:
        for i in pops:
            coeffs = {}
            for j in pops:
                if j != i:
                    coeffs[m.flow_vars[(key, i, j)]] = Fraction(1)
                    coeffs[m.flow_vars[(key, j, i)]] = Fraction(-1)
            rhs = sum(sinks.values()) if i == origin else -sinks.get(i, 0)
            m.add_constr(f"conserve_{key}_{nidx[i]}", "flow-conservation",
                         coeffs, "=", Fraction(rhs))
    neg_capacity = tuple(Fraction(-lt.routing_capacity)
                         for lt in m.cost_catalog.lambda_types)
    for (i, j), pids in cat.pair_ids.items():
        coeffs = {}
        for key, _origin, _sinks in m.commodities:
            coeffs[m.flow_vars[(key, i, j)]] = Fraction(1)
            coeffs[m.flow_vars[(key, j, i)]] = Fraction(1)
        coeffs.update(_path_terms(circuits, pids, neg_capacity))
        m.add_constr(f"vcap_{nidx[i]}_{nidx[j]}", "virtual-link-capacity",
                     coeffs, "<=", Fraction(0))
    _add_design_constraints(m, nidx, eidx, circuits)
    return m


def test_aggregation_preserves_optimum():
    rng = random.Random(41)
    done = 0
    while done < 3:
        inst, _cat = routable_instance(random_tiny_instance, rng)
        agg = solve_exact(build(inst))
        per = solve_exact(_per_demand_model(inst))
        if agg.status != "optimal":
            continue
        assert per.status == "optimal"
        a = evaluate_cost(build(inst), agg.solution)
        b = evaluate_cost(_per_demand_model(inst), per.solution)
        assert a == b
        done += 1


def test_evaluate_cost_dot_product():
    inst = triangle_instance(demands=(("a", "b", 25),), speeds=(10,))
    m = build(inst)
    values = {n: Fraction(0) for n in m.variables}
    direct = next(pid for pid, p in enumerate(m.catalog.paths)
                  if p.ends == ("a", "b") and len(p) == 1)
    values[m.path_vars[(direct, 10)]] = Fraction(3)
    values[m.fiber_vars["e1"]] = Fraction(2)
    values[m.vmod_vars[("a", 0)]] = Fraction(1)
    base = 3 * 3 + 2 * fiber_link_cost(100) + 28
    assert evaluate_cost(m, values) == base
    # slot surcharge: one occupied 10G slot at each of a and b
    assert slot_surcharge(m, values) == 6
    # a slot holds 14 10G circuits: 14 fill one slot at each end, 15 need two
    for circuits, surcharge in ((14, 6), (15, 12)):
        values[m.path_vars[(direct, 10)]] = circuits
        assert slot_surcharge(m, values) == surcharge


def test_no_surcharge_without_10g():
    inst = triangle_instance(demands=(("a", "b", 250),), speeds=(100,))
    m = build(inst)
    values = {n: Fraction(1) for n in m.variables}
    assert slot_surcharge(m, values) == 0


def test_evaluate_cost_requires_all_values():
    m = build(full_triangle())
    with pytest.raises(ModelError, match="missing variable value"):
        evaluate_cost(m, {})
    # the message names the first variable without a value, in model order
    values = dict.fromkeys(m.variables, 0)
    first, later = list(m.fiber_vars.values())[:2]
    del values[later], values[first]
    with pytest.raises(ModelError, match=f"^missing variable value: {first}$"):
        evaluate_cost(m, values)


def test_model_shares_variable_records():
    # a model holds one record per kind and price: all flows share one, and
    # the rest count at most one per circuit type, edge, router and
    # optical-node configuration (in the transparent variant the free
    # routers share one); records are counted by identity
    mid = perfbench_gen().mid_network()
    toy6 = read_instance((ROOT / "data" / "toy6.txt").read_text())
    for inst in (mid, toy6):
        cat, cc = build_catalog(inst), build_cost_catalog(inst)
        opt, tra = build_model(inst, cat, cc), build_transparent_variant(inst, cat, cc)
        assert len({id(opt.variables[n]) for n in opt.flow_vars.values()}) == 1
        assert len({id(tra.variables[n]) for n in tra.vmod_vars.values()}) == 1
        bound = (1 + len(cc.lambda_types) + len(inst.graph.edges)
                 + len(VIRTUAL_MODULES) + len(PHYSICAL_MODULES))
        for m in (opt, tra):
            assert len(set(map(id, m.variables.values()))) <= bound
    # the equipment tables are built once; the public builders return copies
    for table, make in ((VIRTUAL_MODULES, enumerate_virtual_modules),
                        (PHYSICAL_MODULES, physical_modules)):
        assert make() == list(table) and make() is not make()
    # records compare by identity: equal prices stay distinct records
    assert Variable(INTEGER, Fraction(1)) != Variable(INTEGER, Fraction(1))


def test_model_rejects_duplicate_and_unknown_names():
    m = build(full_triangle())
    rows = len(m.constraints)
    fiber = m.fiber_vars["e1"]
    with pytest.raises(ModelError, match=f"^duplicate variable {fiber}$"):
        m.add_var(fiber, Variable(INTEGER, Fraction(1)))
    # the message names the first unknown term, and no row is added
    with pytest.raises(ModelError, match="^constraint extra references unknown nowhere$"):
        m.add_constr("extra", "fiber", {fiber: 1, "nowhere": 1, "elsewhere": 1}, "<=", 0)
    assert len(m.constraints) == rows


def test_zero_solution_costs_zero():
    m = build(full_triangle())
    assert evaluate_cost(m, dict.fromkeys(m.variables, 0)) == 0


def test_transparent_structure():
    inst = full_triangle()
    mt = build_tra(inst)
    assert mt.transparent
    assert not mt.flow_vars
    # only the shortest admissible path per pair remains
    assert all(len(plist) == 1 for plist in mt.catalog.pair_paths.values())
    vcap = [c for c in mt.constraints if c.kind == "virtual-link-capacity"]
    assert all(c.sense == ">=" for c in vcap)
    # each pair's row has the pair's demand as right-hand side
    assert {c.name: c.rhs for c in vcap} == {"vcap_0_1": 25, "vcap_0_2": 12,
                                             "vcap_1_2": 40}
    # router modules stay installable but free
    assert all(mt.variables[n].obj == 0 for n in mt.vmod_vars.values())
    assert any(mt.variables[n].obj > 0 for n in mt.pmod_vars.values())


def test_export_is_deterministic():
    a, b = io.StringIO(), io.StringIO()
    export_model(build(full_triangle()), a)
    export_model(build(full_triangle()), b)
    assert a.getvalue() == b.getvalue()
    text = a.getvalue()
    for section in ("Minimize", "Subject To", "Generals", "Binaries", "End"):
        assert section in text
    assert "\\ architecture: optimized" in text.splitlines()[1]


def test_export_renders_exact_decimals():
    text = io.StringIO()
    export_model(build(full_triangle()), text)
    body = text.getvalue()
    # the 100G circuit coefficient and the ROADM cost must render exactly
    assert "901.75" in body
    assert "11.67" in body
    # plain decimals only, no scientific notation anywhere
    assert not re.search(r"\d[eE][-+]?\d", body)


def test_import_text_and_xml():
    m = build(triangle_instance(demands=(("a", "b", 25),), speeds=(10,)))
    some_yp = next(iter(m.path_vars.values()))
    sol = import_solution(m, f"# solver output\n{some_yp} 2\nye_0 1.0000000004\n")
    assert sol.values[some_yp] == 2
    assert sol.values["ye_0"] == 1
    xml = (f'<?xml version="1.0"?><CPLEXSolution><variables>'
           f'<variable name="{some_yp}" index="0" value="2"/>'
           f'<variable name="ye_0" index="1" value="0.9999999996"/>'
           f'</variables></CPLEXSolution>')
    sol2 = import_solution(m, xml)
    assert sol2.values[some_yp] == 2
    assert sol2.values["ye_0"] == 1
    # unlisted variables default to zero
    assert sol2.values[m.fiber_vars["e2"]] == 0


def test_import_rejects_bad_input():
    m = build(triangle_instance(demands=(("a", "b", 25),), speeds=(10,)))
    some_yp = next(iter(m.path_vars.values()))
    with pytest.raises(ModelError, match="fractional value"):
        import_solution(m, f"{some_yp} 0.5\n")
    with pytest.raises(ModelError, match="unknown to the model"):
        import_solution(m, "zz_surprise 1\n")
    with pytest.raises(ModelError, match="expected"):
        import_solution(m, "just-one-token\n")
    # a value that is not a finite number names its line or its variable
    for value in ("1/0", "abc", "inf", "nan"):
        with pytest.raises(ModelError, match=f"solution line 2: value '{value}' is not"):
            import_solution(m, f"{some_yp} 2\nye_0 {value}\n")
        xml = (f'<?xml version="1.0"?><CPLEXSolution><variables>'
               f'<variable name="ye_0" index="0" value="{value}"/>'
               f'</variables></CPLEXSolution>')
        with pytest.raises(ModelError, match=f"variable ye_0: value '{value}' is not"):
            import_solution(m, xml)
    # an XML variable lacking an attribute, and XML that does not parse
    with pytest.raises(ModelError, match="variable ye_0: no value"):
        import_solution(m, '<r><variable name="ye_0"/></r>')
    with pytest.raises(ModelError, match="a <variable> has no name"):
        import_solution(m, '<r><variable value="1"/></r>')
    with pytest.raises(ModelError, match="solution XML does not parse: unclosed token"):
        import_solution(m, "<r><variable")


def test_export_import_round_trip():
    inst = triangle_instance(demands=(("a", "b", 25),), speeds=(10,))
    m = build(inst)
    report = solve_exact(m)
    assert report.status == "optimal"
    dump = "\n".join(f"{n} {v}" for n, v in report.solution.values.items() if v)
    sol = import_solution(m, dump)
    assert evaluate_cost(m, sol) == evaluate_cost(m, report.solution)


def pinned_lp_instance():
    rng = random.Random(47)
    names, edges = random_connected_edges(rng, 12, 9, min_len=80, max_len=500)
    pops = sorted(rng.sample(names, 6))
    demands = [(a, b, rng.randint(1, 260)) for i, a in enumerate(pops) for b in pops[i + 1:]
               if rng.random() < 0.6]
    return make_instance(edges, pops, demands, speeds=(10, 100), max_paths_per_pair=6,
                         max_path_km=1200)


def test_rows_hold_ints_and_objectives_fractions():
    # every row number is whole and kept as an int; prices are Fractions,
    # and so is the zero of a free variable. The integer variables of an
    # imported solution are ints, a continuous value a Fraction.
    # That the phase-1 simplex, which divides row numbers, stays exact on
    # int rows is checked in test_solve.py::test_int_rows_match_fraction_rows
    inst = pinned_lp_instance()
    for m in (build(inst), build_tra(inst)):
        assert all(type(v.obj) is Fraction for v in m.variables.values())
        for c in m.constraints:
            assert type(c.rhs) is int
            assert all(type(x) is int for x in c.coeffs.values())
    m = build(inst)
    flow = next(iter(m.flow_vars.values()))
    imported = import_solution(m, f"ye_0 2.0000000004\n{flow} 2.5\n").values
    assert all(type(v) is int for n, v in imported.items()
               if m.variables[n].integrality != CONTINUOUS)
    assert (imported["ye_0"], imported[flow]) == (2, Fraction(5, 2))
    assert type(imported[flow]) is Fraction


def test_lp_export_bytes_pinned():
    # any change to a row, a term's order, a coefficient or its rendering
    # shows here (71 paths over 15 pairs, 10G and 100G circuits)
    inst = pinned_lp_instance()
    digests = []
    for m in (build(inst), build_tra(inst)):
        buf = io.StringIO()
        export_model(m, buf)
        digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
    assert digests == [
        "3fd4d5870be83a0a5bddd47f99e3dcd3914eddc6b6d4045224a45d7fcb4bb6ac",
        "2c783cb1f06508d502f7b2308aa8682fa51a8ccf1740cfa4d47748389fb502c6",
    ]
