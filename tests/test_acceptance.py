"""Acceptance suite: one check per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
inline; without -s they still appear for failing checks.
"""

import io
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (make_instance, random_midsize_instance,
                      random_tiny_instance, routable_instance)
from wdmplan.costcat import (build_cost_catalog, enumerate_virtual_modules,
                             lambda_type, physical_modules)
from wdmplan.formats import read_sndlib
from wdmplan.metrics import fmt_opacity, opacity, report
from wdmplan.milp import (build_model, build_transparent_variant,
                          evaluate_cost, export_model, import_solution,
                          slot_surcharge)
from wdmplan.netmodel import Instance
from wdmplan.pathgen import build_catalog
from wdmplan.solve import check_feasibility, solve_exact, solve_heuristic

TINY_SEED = 20260814
MID_SEED = 814


def verdict(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def build_pair(inst):
    cat = build_catalog(inst)
    cc = build_cost_catalog(inst)
    return build_model(inst, cat, cc), build_transparent_variant(inst, cat, cc)


def tiny_instances(n):
    rng = random.Random(TINY_SEED)
    return [routable_instance(random_tiny_instance, rng)[0] for _ in range(n)]


def test_criterion_1_catalog_arithmetic():
    table5 = [(2, 40, Fraction("11.67")), (2, 80, Fraction("17.5")),
              (3, 120, Fraction("27.49")), (4, 160, Fraction("35.82")),
              (5, 200, Fraction("44.15")), (6, 240, Fraction("56.69")),
              (7, 280, Fraction("65.68")), (8, 320, Fraction("74.67")),
              (9, 360, Fraction("83.66")), (10, 400, Fraction("92.65"))]
    flagship = {m.name: m for m in enumerate_virtual_modules()}["type1-35slot"]
    ok = (flagship.cost == Fraction("901.75")
          and lambda_type(10).cost == 3
          and lambda_type(100).cost == 16
          and [(m.fiber_capacity, m.add_drop_ports, m.cost)
               for m in physical_modules()] == table5)
    verdict(1, ok, "35-slot router 901.75, circuits 3.0/16.0, "
                   "all ten optical module rows exact")


def test_criterion_2_opacity_values():
    cases = [(180, 4039, "4.3"), (210, 4259, "4.7"), (188, 6628, "2.8"),
             (205, 7447, "2.7"), (1060, 6740, "13.6"), (1393, 7242, "16.1"),
             (1171, 11682, "9.1"), (1375, 13549, "9.2")]
    bad = []
    for f_ip, f_wdm, shown in cases:
        phi = opacity(Fraction(f_ip), Fraction(f_wdm))
        if abs(phi - Fraction(shown)) > Fraction(5, 100) or fmt_opacity(phi) != shown:
            bad.append((f_ip, f_wdm, shown, float(phi)))
    verdict(2, not bad,
            f"8/8 published transit pairs within 0.05 of the 1-decimal "
            f"opacity{'' if not bad else f', offenders: {bad}'}")


def test_criterion_3_exact_equals_enumeration():
    pytest.importorskip("scipy.optimize")
    from enum_oracle import brute_force_optimum
    t0 = time.perf_counter()
    checked = 0
    mismatches = []
    for inst in tiny_instances(20):
        cat = build_catalog(inst)
        cc = build_cost_catalog(inst)
        m = build_model(inst, cat, cc)
        rep = solve_exact(m)
        got = evaluate_cost(m, rep.solution) if rep.solution else None
        want = brute_force_optimum(inst)
        if rep.status != "optimal" or got != want:
            mismatches.append((inst.name, rep.status, got, want))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60
    verdict(3, ok, f"{checked} tiny instances, exact == enumeration oracle "
                   f"on all, {elapsed:.1f}s"
                   + (f", mismatches: {mismatches}" if mismatches else ""))


def test_criterion_4_heuristic_feasible_and_bounded():
    rng = random.Random(MID_SEED)
    violations = 0
    for _ in range(50):
        inst, _ = routable_instance(random_midsize_instance, rng)
        cat = build_catalog(inst)
        cc = build_cost_catalog(inst)
        m = build_model(inst, cat, cc)
        rep = solve_heuristic(m)
        if rep.status not in ("optimal", "feasible") \
                or check_feasibility(m, rep.solution):
            violations += 1
    below_exact = 0
    for inst in tiny_instances(20):
        cat = build_catalog(inst)
        cc = build_cost_catalog(inst)
        m = build_model(inst, cat, cc)
        exact = solve_exact(m)
        if exact.status != "optimal":
            continue
        heur = solve_heuristic(m)
        if (evaluate_cost(m, heur.solution)
                < evaluate_cost(m, exact.solution)):
            below_exact += 1
    ok = violations == 0 and below_exact == 0
    verdict(4, ok, f"50/50 mid-size heuristic runs feasible with zero "
                   f"violations; heuristic >= exact optimum on all 20 "
                   f"terminated tiny instances"
                   + ("" if ok else
                      f" ({violations} infeasible, {below_exact} below exact)"))


def test_criterion_5_external_mip_round_trip():
    pytest.importorskip("scipy.optimize")
    from lp_mip import solve_lp_text
    tol = Fraction(1, 10**6)
    bad = []
    for inst in tiny_instances(3):
        cat = build_catalog(inst)
        cc = build_cost_catalog(inst)
        m = build_model(inst, cat, cc)
        exact = evaluate_cost(m, solve_exact(m).solution)
        buf = io.StringIO()
        export_model(m, buf)
        solver_obj, values = solve_lp_text(buf.getvalue())
        dump = "\n".join(f"{n} {v:.9f}" for n, v in values.items())
        imported = import_solution(m, dump)
        ours = evaluate_cost(m, imported)
        if abs(ours - Fraction(str(solver_obj))) > tol or abs(ours - exact) > tol:
            bad.append((inst.name, float(ours), solver_obj, float(exact)))
    verdict(5, not bad,
            "3/3 LP exports solved externally; imported objective matches "
            "the solver report and the exact optimum to 1e-6"
            + (f"; offenders {bad}" if bad else ""))


def _star_instance():
    edges = [(f"e{i}", "hub", f"s{i}", 100) for i in range(1, 6)]
    pops = ["hub"] + [f"s{i}" for i in range(1, 6)]
    demands = [("hub", f"s{i}", 802) for i in range(1, 6)]
    return make_instance(edges, pops, demands, speeds=(10,))


def test_criterion_6a_star_overload_infeasible():
    inst = _star_instance()
    # hub must add/drop 5 x ceil(802/10) = 405 circuits, above the 400-port cap
    _, mt = build_pair(inst)
    rep = solve_heuristic(mt)
    exact = solve_exact(mt)
    ok = rep.status == "infeasible" and exact.status == "infeasible"
    verdict("6a", ok, f"star hub needs 405 add-drop ports > 400: transparent "
                      f"heuristic says {rep.status}, exact says {exact.status}")


def test_criterion_6b_transparent_vs_optimized():
    inst = make_instance(
        [("e1", "a", "b", 100), ("e2", "b", "c", 100), ("e3", "a", "c", 800)],
        pops=("a", "b", "c"),
        demands=(("a", "b", 20), ("b", "c", 30), ("a", "c", 10)),
        speeds=(10,))
    mo, mt = build_pair(inst)
    opt = solve_exact(mo)
    tra = solve_exact(mt)
    t_total = evaluate_cost(mt, tra.solution) + slot_surcharge(mt, tra.solution.values)
    o_total = evaluate_cost(mo, opt.solution) + slot_surcharge(mo, opt.solution.values)
    tr = report(mo, opt.solution)
    ok = (opt.status == "optimal" and tra.status == "optimal"
          and t_total <= o_total
          and tr.total_ip == 0 and tr.total_wdm > 0 and tr.opacity == 0)
    verdict("6b", ok, f"exact-multiple demands: transparent {float(t_total)} "
                      f"<= optimized {float(o_total)}, optimized opacity "
                      f"{fmt_opacity(tr.opacity)} (no electrical transit)")


GERMANY50 = Path(__file__).resolve().parents[1] / "data" / "germany50.txt"
GERMANY50_POPS = Path(__file__).resolve().parents[1] / "data" / "germany50_pops.txt"


def test_criterion_7_germany50_path_count():
    if not (GERMANY50.exists() and GERMANY50_POPS.exists()):
        msg = ("SKIP criterion 7: germany50 topology/PoP data not shipped "
               "(place the SNDlib native file at data/germany50.txt and the "
               "17 PoP ids, one per line, at data/germany50_pops.txt); the "
               "published PoP subset is not part of the public dataset")
        print(msg)
        pytest.skip(msg)
    net = read_sndlib(GERMANY50.read_text())
    pops = tuple(ln.strip() for ln in GERMANY50_POPS.read_text().splitlines()
                 if ln.strip() and not ln.startswith("#"))
    inst = Instance(graph=net.graph, pops=pops, demands=(),
                    max_paths_per_pair=50, max_path_km=750)
    n = len(build_catalog(inst).paths)
    deviation = abs(n - 5591) / 5591
    ok = deviation <= Fraction(5, 100)
    verdict(7, ok, f"germany50 path catalog |P| = {n}, target 5591, "
                   f"deviation {100 * float(deviation):.2f}% (tolerance 5%, "
                   f"link length fields are ambiguous between sources)")


def test_criterion_8_documented_exemption():
    # The absolute cost and opacity figures of the published study need its
    # unpublished demand matrices and an industrial MIP solver, so they are
    # explicitly out of scope. Standing in: criteria 1-7 above plus the
    # per-module invariant suites (flow conservation identities, opacity in
    # [0, 100], byte-identical reruns, monotone local search).
    suites = ["test_costcat.py", "test_netmodel.py", "test_pathgen.py",
              "test_formats.py", "test_milp.py", "test_solve.py",
              "test_metrics.py", "test_cli.py"]
    here = Path(__file__).resolve().parent
    missing = [s for s in suites if not (here / s).exists()]
    verdict(8, not missing,
            "absolute table values are documented as not reproducible at "
            "desk scale; substitute oracle/invariant suites present: "
            + ", ".join(suites))
