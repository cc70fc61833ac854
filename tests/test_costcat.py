"""Cost catalog: published device prices and their composition rules."""

import io
import random
from fractions import Fraction

import pytest

from conftest import make_instance
from wdmplan.costcat import (PHYSICAL_MODULES, VIRTUAL_MODULES, amplifier_count,
                             build_cost_catalog, dump_catalog_csv,
                             enumerate_virtual_modules, equalizer_count,
                             fiber_link_cost, lambda_type, physical_modules)
from wdmplan.milp import build_model
from wdmplan.pathgen import build_catalog


def F(x):
    return Fraction(str(x))


def test_lambda_costs():
    lt10 = lambda_type(10)
    assert lt10.cost == 3
    assert lt10.routing_capacity == 10
    assert lt10.switching_capacity == 10
    assert lt10.slot_share == Fraction(1, 14)
    assert lt10.slot_units == 1
    lt100 = lambda_type(100)
    assert lt100.cost == 16
    assert lt100.routing_capacity == 100
    assert lt100.switching_capacity == 120
    assert lt100.slot_share == 1
    assert lt100.slot_units == 14


def test_lambda_cost_scaling():
    # two scaled transponders per circuit; 10G keeps its two unscaled transceivers
    assert lambda_type(10, transponder_scale=5).cost == 11
    assert lambda_type(100, transponder_scale=5).cost == 80
    assert lambda_type(10, transponder_scale=F("2.5")).cost == 6
    assert lambda_type(100, transponder_scale=F("2.5")).cost == 40


def test_lambda_type_rejects_bad_input():
    with pytest.raises(ValueError):
        lambda_type(40)
    with pytest.raises(ValueError):
        lambda_type(10, transponder_scale=F("0.5"))


def test_type1_35_slot_flagship_value():
    mods = {m.name: m for m in enumerate_virtual_modules()}
    m = mods["type1-35slot"]
    assert m.cost == F("901.75")
    assert m.switching_capacity == 4900
    assert m.slot_capacity == 35
    assert m.chassis == 3


def test_virtual_module_examples():
    mods = {m.name: m for m in enumerate_virtual_modules()}
    assert mods["type2-1slot"].cost == 28
    assert mods["type2-1slot"].switching_capacity == 120
    assert mods["type2-11slot"].cost == 188
    assert mods["type2-11slot"].switching_capacity == 1320
    assert mods["type1-11slot"].cost == F("269.25")
    assert mods["type1-11slot"].switching_capacity == 1540
    assert mods["type1-16slot"].cost == F("27.25") + 22 * 16
    assert mods["type1-17slot"].cost == 2 * F("27.25") + 50 + 22 * 17
    top = mods["type1-64slot"]
    assert top.cost == 4 * F("27.25") + 50 + 22 * 64
    assert top.switching_capacity == 8960
    assert top.chassis == 4


def test_virtual_module_count_and_order():
    mods = enumerate_virtual_modules()
    assert len(mods) == 65
    assert [m.router_type for m in mods].count("type2") == 11
    assert [m.router_type for m in mods].count("type1") == 54
    caps = [m.switching_capacity for m in mods]
    assert caps == sorted(caps)
    assert max(m.cost for m in mods) == mods[-1].cost


def test_physical_modules_table_values():
    mods = physical_modules()
    rows = [(m.fiber_capacity, m.add_drop_ports, m.cost) for m in mods]
    assert rows == [
        (2, 40, F("11.67")),
        (2, 80, F("17.5")),
        (3, 120, F("27.49")),
        (4, 160, F("35.82")),
        (5, 200, F("44.15")),
        (6, 240, F("56.69")),
        (7, 280, F("65.68")),
        (8, 320, F("74.67")),
        (9, 360, F("83.66")),
        (10, 400, F("92.65")),
    ]
    assert max(m.add_drop_ports for m in mods) == 400


def test_fiber_cost_examples():
    assert fiber_link_cost(F(60)) == F("0.432")
    assert fiber_link_cost(F(160)) == F("3.072")
    assert fiber_link_cost(F(400)) == F("10.56")
    # long span: 9 amplifiers, 2 equalizers
    assert amplifier_count(F(800)) == 9
    assert equalizer_count(amplifier_count(F(800))) == 2
    assert fiber_link_cost(F(800)) == 9 * F("1.92") + 2 * F("2.17") + F("5.76")


def test_fiber_cost_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        fiber_link_cost(F(0))
    with pytest.raises(ValueError):
        fiber_link_cost(F(-5))


def test_amplifier_equalizer_breakpoints():
    assert amplifier_count(F(80)) == 0
    assert amplifier_count(F(81)) == 1
    assert amplifier_count(F(320)) == 3
    assert equalizer_count(amplifier_count(F(320))) == 0
    assert amplifier_count(F(400)) == 4
    assert equalizer_count(amplifier_count(F(400))) == 0
    assert equalizer_count(amplifier_count(F(401))) == 1


def test_fiber_cost_monotone_in_length():
    rng = random.Random(7)
    for _ in range(200):
        a = F(rng.randint(1, 2000))
        b = a + rng.randint(1, 500)
        assert fiber_link_cost(a) <= fiber_link_cost(b)


def test_catalog_for_instance():
    inst = make_instance(
        [("e1", "a", "b", 160), ("e2", "b", "c", 60)],
        pops=("a", "c"), demands=(("a", "c", 12),))
    cc = build_cost_catalog(inst)
    assert set(cc.fiber_cost) == {"e1", "e2"}
    assert cc.fiber_cost["e1"] == F("3.072")
    assert [lt.speed for lt in cc.lambda_types] == [10, 100]
    assert len(VIRTUAL_MODULES) == 65
    assert len(PHYSICAL_MODULES) == 10


def test_catalog_respects_speed_subset():
    inst = make_instance(
        [("e1", "a", "b", 100)], pops=("a", "b"), demands=(("a", "b", 5),),
        speeds=(10,))
    cc = build_cost_catalog(inst)
    assert [lt.speed for lt in cc.lambda_types] == [10]


def test_single_speed_module_count_unchanged():
    # module list depends on slot counts, not on which circuits exist: a
    # single-speed model offers every router at each PoP
    for speed in (10, 100):
        inst = make_instance([("e1", "a", "b", 100)], pops=("a", "b"),
                             demands=(("a", "b", 5),), speeds=(speed,))
        m = build_model(inst, build_catalog(inst), build_cost_catalog(inst))
        assert len(m.vmod_vars) == 2 * 65


def test_dump_catalog_csv():
    buf = io.StringIO()
    dump_catalog_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    # header + 2 circuits + 65 routers + 10 optical nodes
    assert len(lines) == 1 + 2 + 65 + 10
    assert lines[0].startswith("kind,")
    assert any("901.75" in ln for ln in lines)
