"""Instance file round-trips and SNDlib parsing."""

import io
import re
from fractions import Fraction

import pytest

from conftest import triangle_instance
from wdmplan.formats import (great_circle_km, read_instance, read_sndlib,
                             write_instance)

SND_FIXTURE = """\
?SNDlib native format; type: network; version: 1.0
# a three node ring
NODES (
  essen ( 7.01 51.45 )
  dortmund ( 7.48 51.51 )
  koeln ( 6.96 50.94 )
)
LINKS (
  l1 ( essen dortmund ) 0.00 0.00 36.00 40.00 ( 40.00 85.00 )
  l2 ( dortmund koeln ) 0.00 0.00 95.00 99.00 ( 40.00 85.00 )
  l3 ( essen koeln ) 0.00 0.00 58.00 61.00 ( 40.00 85.00 )
)
DEMANDS (
  d1 ( essen dortmund ) 1 22.00
  d2 ( koeln essen ) 1 14.00
  d3 ( essen koeln ) 1 3.00
)
"""


def test_read_sndlib_routing_cost_lengths():
    net = read_sndlib(SND_FIXTURE)
    assert sorted(n.id for n in net.graph.nodes) == ["dortmund", "essen", "koeln"]
    assert net.graph.edge("l1").length_km == 36
    assert net.graph.edge("l2").length_km == 95
    # directed duplicates fold into one undirected entry
    assert net.raw_demands == {("dortmund", "essen"): Fraction(22),
                               ("essen", "koeln"): Fraction(17)}


def test_read_sndlib_setup_cost_lengths():
    net = read_sndlib(SND_FIXTURE, length_source="setup-cost")
    assert net.graph.edge("l1").length_km == 40
    assert net.graph.edge("l3").length_km == 61


def test_read_sndlib_coordinate_lengths():
    net = read_sndlib(SND_FIXTURE, length_source="coordinates")
    essen = net.graph.node("essen")
    dortmund = net.graph.node("dortmund")
    expect = great_circle_km(essen.x, essen.y, dortmund.x, dortmund.y)
    assert net.graph.edge("l1").length_km == expect
    # Essen-Dortmund is roughly 33 km apart
    assert 25 < float(expect) < 45


def test_read_sndlib_errors():
    with pytest.raises(ValueError, match="unknown length source"):
        read_sndlib(SND_FIXTURE, length_source="hops")
    with pytest.raises(ValueError, match="NODES/LINKS missing"):
        read_sndlib("LINKS (\n)\n")
    zero_cost = SND_FIXTURE.replace("36.00 40.00", "0.00 40.00")
    with pytest.raises(ValueError, match="non-positive length"):
        read_sndlib(zero_cost)


def test_great_circle_quarter_meridian():
    # pole to equator along a meridian is a quarter of the circumference
    q = great_circle_km(0.0, 0.0, 0.0, 90.0)
    assert abs(float(q) - 10007.543) < 0.01


INSTANCE_TEXT = """\
instance tri
# comment line
param speeds 10
param channels-per-fiber 16
param max-path-km 750
param max-paths-per-pair 4
param transponder-scale 2
param mode optimized

node a
node b 7.0 51.0
node c
edge e1 a b 100
edge e2 b c 100
edge e3 a c 300
pop a b
pop c
demand a b 20
demand b a 5
demand a c 7
"""


def test_read_instance_fields():
    inst = read_instance(INSTANCE_TEXT)
    assert inst.name == "tri"
    assert inst.speeds == (10,)
    assert inst.channels_per_fiber == 16
    assert inst.max_path_km == 750
    assert inst.max_paths_per_pair == 4
    assert inst.transponder_scale == 2
    assert inst.pops == ("a", "b", "c")
    assert {d.pair: d.value for d in inst.demands} == {
        ("a", "b"): 25, ("a", "c"): 7}
    assert inst.graph.node("b").x == 7.0


def test_instance_round_trip():
    inst = read_instance(INSTANCE_TEXT)
    buf = io.StringIO()
    write_instance(inst, buf)
    again = read_instance(buf.getvalue())
    assert again == inst


def test_round_trip_default_instance():
    inst = triangle_instance(demands=(("a", "b", 3), ("b", "c", 9)))
    buf = io.StringIO()
    write_instance(inst, buf)
    assert read_instance(buf.getvalue()) == inst


def test_read_instance_errors():
    with pytest.raises(ValueError, match="unknown directive"):
        read_instance("flow a b 3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_instance("node a\nedge e1 a 100\n")
    bad_value = INSTANCE_TEXT.replace("demand a c 7", "demand a c 7.5")
    with pytest.raises(ValueError, match="positive integer"):
        read_instance(bad_value)



@pytest.mark.parametrize("line, message", [
    ("param max-paths-per-par 10", "line 8: unknown param 'max-paths-per-par'"),
    ("param speeds 10 x", "line 8: invalid literal for int"),
    ("param max-path-km 1.5", "line 8: invalid literal for int"),
    ("param channels-per-fiber", "line 8: invalid literal for int"),
    ("param transponder-scale 1/0", "line 8: "),
    ("param", "line 8: "),
    ("param mode foo", "line 8: unknown mode 'foo'"),
    ("param speeds 40", "line 8: speeds must be a non-empty subset of (10, 100), got (40,)"),
    ("param channels-per-fiber 0", "line 8: channels per fiber must be >= 1"),
], ids=["misspelt-name", "bad-speed", "fractional-km", "no-value", "zero-denominator",
        "no-name", "unknown-mode", "unsupported-speed", "no-channels"])
def test_read_instance_rejects_bad_params_at_their_line(line, message):
    """A misspelt param would otherwise leave its default in force (k stays
    at 50); a bad value is reported at its line, also one that converts but
    that `Instance` rejects."""
    text = INSTANCE_TEXT.replace("param mode optimized", line)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_instance(text)


def test_shipped_demo_instance_parses():
    import pathlib
    text = pathlib.Path(__file__).resolve().parents[1].joinpath(
        "data", "toy6.txt").read_text()
    inst = read_instance(text)
    assert inst.name == "toy6"
    assert len(inst.graph.edges) == 8
    assert len(inst.demands) == 6
