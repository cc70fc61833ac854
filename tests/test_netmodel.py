"""Demand matrices, scaling and instance validation."""

import random
import re
from fractions import Fraction

import pytest

from conftest import make_graph, make_instance, triangle_instance
from wdmplan.netmodel import (Demand, Edge, Instance, Node, PhysicalGraph, merge_directed,
                              node_demand, scale_demand_matrix, synth_matrix)


def vals(demands):
    return {d.pair: d.value for d in demands}


def test_demand_canonical_order():
    d = Demand("z", "a", 5)
    assert d.pair == ("a", "z")
    with pytest.raises(ValueError, match="coincide"):
        Demand("a", "a", 5)
    with pytest.raises(ValueError, match="positive integer"):
        Demand("a", "b", 0)
    with pytest.raises(ValueError, match="positive integer"):
        Demand("a", "b", Fraction(3, 2))


def test_merge_directed_sums_both_orientations():
    merged = merge_directed({("b", "a"): 3, ("a", "b"): 2, ("a", "c"): 1})
    assert merged == {("a", "b"): Fraction(5), ("a", "c"): Fraction(1)}
    with pytest.raises(ValueError, match="coincide"):
        merge_directed({("a", "a"): 1})


def test_scale_examples():
    out = scale_demand_matrix({("a", "b"): 2, ("a", "c"): 1}, 6)
    assert vals(out) == {("a", "b"): 4, ("a", "c"): 2}
    out = scale_demand_matrix({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}, 5)
    assert vals(out) == {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 2}
    out = scale_demand_matrix({("x", "y"): 7}, 3000)
    assert vals(out) == {("x", "y"): 3000}


def test_scale_drops_zero_entries():
    out = scale_demand_matrix({("a", "b"): 5, ("a", "c"): 0}, 10)
    assert vals(out) == {("a", "b"): 10}


def test_scale_errors():
    with pytest.raises(ValueError, match="empty demand matrix"):
        scale_demand_matrix({}, 10)
    with pytest.raises(ValueError, match="empty demand matrix"):
        scale_demand_matrix({("a", "b"): 0}, 10)
    with pytest.raises(ValueError, match="negative demand entry"):
        scale_demand_matrix({("a", "b"): -1, ("a", "c"): 4}, 10)
    with pytest.raises(ValueError, match="target total must be positive"):
        scale_demand_matrix({("a", "b"): 1}, 0)


def test_scale_total_within_rounding_band():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 8)
        raw = {}
        while len(raw) < n:
            a, b = rng.sample("abcdefgh", 2)
            raw[(min(a, b), max(a, b))] = rng.randint(1, 500)
        target = rng.randint(1, 10_000)
        out = scale_demand_matrix(raw, target)
        total = sum(d.value for d in out)
        assert target <= total < target + len(raw)
        assert all(isinstance(d.value, int) and d.value >= 1 for d in out)
        assert [d.pair for d in out] == sorted(d.pair for d in out)


def test_synth_decentralized_two_pops():
    out = synth_matrix("decentralized", ["a", "b"], {"a": 3, "b": 3}, 10)
    assert vals(out) == {("a", "b"): 10}


def test_synth_decentralized_equal_weights_uniform():
    out = synth_matrix("decentralized", ["a", "b", "c", "d"],
                       {p: 2 for p in "abcd"}, 60)
    assert set(vals(out).values()) == {10}
    assert len(out) == 6


def test_synth_centralized_hub_concentration():
    out = synth_matrix("centralized", ["a", "b", "c"], {"a": 1, "b": 1, "c": 1},
                       120, hub="a", hub_factor=10)
    assert vals(out) == {("a", "b"): 58, ("a", "c"): 58, ("b", "c"): 6}


def test_synth_errors():
    with pytest.raises(ValueError, match="at least 2 PoPs"):
        synth_matrix("decentralized", ["a"], {"a": 1}, 10)
    with pytest.raises(ValueError, match="unknown matrix mode"):
        synth_matrix("gravity", ["a", "b"], {"a": 1, "b": 1}, 10)
    with pytest.raises(ValueError, match="must be positive"):
        synth_matrix("decentralized", ["a", "b"], {"a": 0, "b": 1}, 10)
    with pytest.raises(ValueError, match="needs a hub"):
        synth_matrix("centralized", ["a", "b"], {"a": 1, "b": 1}, 10)
    with pytest.raises(ValueError, match="not among the PoPs"):
        synth_matrix("centralized", ["a", "b"], {"a": 1, "b": 1}, 10, hub="z")
    with pytest.raises(ValueError, match="hub factor"):
        synth_matrix("centralized", ["a", "b"], {"a": 1, "b": 1}, 10,
                     hub="a", hub_factor=0.5)
    # a missing weight names every PoP that lacks one (not a bare KeyError),
    # and a hub or factor given to a decentralized matrix must be valid too
    with pytest.raises(ValueError, match=re.escape("lacks weights for ['c', 'd']")):
        synth_matrix("decentralized", ["a", "b", "c", "d"], {"a": 1, "b": 1}, 100)
    with pytest.raises(ValueError, match=re.escape("lacks weights for ['c']")):
        synth_matrix("centralized", ["a", "b", "c"], {"a": 1, "b": 1}, 100, hub="a")
    with pytest.raises(ValueError, match="not among the PoPs"):
        synth_matrix("decentralized", ["a", "b"], {"a": 1, "b": 1}, 10, hub="z")
    with pytest.raises(ValueError, match="not among the PoPs"):
        synth_matrix("centralized", ["a", "b"], {"a": 1, "b": 1}, 10, hub=["a"])
    with pytest.raises(ValueError, match="hub factor"):
        synth_matrix("decentralized", ["a", "b"], {"a": 1, "b": 1}, 10, hub_factor=0)
    with pytest.raises(ValueError, match="unknown matrix mode None"):
        synth_matrix(None, ["a", "b"], {"a": 1, "b": 1}, 10)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        make_graph([("e1", "a", "a", 10)])
    with pytest.raises(ValueError, match="non-positive length"):
        make_graph([("e1", "a", "b", 0)])
    with pytest.raises(ValueError, match="duplicate edge ids"):
        make_graph([("e1", "a", "b", 10), ("e1", "b", "c", 10)])
    with pytest.raises(ValueError, match="duplicate node ids"):
        PhysicalGraph([Node("a"), Node("b"), Node("a")], [])
    with pytest.raises(ValueError, match="edge 'e1' references unknown node"):
        PhysicalGraph([Node("a")], [Edge("e1", "a", "b", Fraction(10))])


def test_graph_allows_parallel_edges():
    g = make_graph([("e1", "a", "b", 10), ("e2", "a", "b", 20)])
    assert len(g.incident("a")) == 2


def test_instance_validation():
    edges = [("e1", "a", "b", 100), ("e2", "b", "c", 100)]
    with pytest.raises(ValueError, match="PoPs not in graph"):
        make_instance(edges, pops=("a", "z"), demands=(("a", "z", 1),))
    with pytest.raises(ValueError, match="duplicate PoPs"):
        make_instance(edges, pops=("a", "a"), demands=())
    with pytest.raises(ValueError, match="outside the PoP set"):
        make_instance(edges, pops=("a", "b"), demands=(("a", "c", 1),))
    with pytest.raises(ValueError, match="duplicate demand pair"):
        make_instance(edges, pops=("a", "b"),
                      demands=(("a", "b", 1), ("b", "a", 2)))
    with pytest.raises(ValueError, match="speeds"):
        make_instance(edges, pops=("a", "b"), demands=(("a", "b", 1),),
                      speeds=(40,))
    with pytest.raises(ValueError, match="channels per fiber"):
        make_instance(edges, pops=("a", "b"), demands=(("a", "b", 1),),
                      channels_per_fiber=0)
    with pytest.raises(ValueError, match="transponder scale"):
        make_instance(edges, pops=("a", "b"), demands=(("a", "b", 1),),
                      transponder_scale=Fraction(1, 2))


def test_instance_rejects_disconnected_demand():
    edges = [("e1", "a", "b", 100), ("e2", "c", "d", 100)]
    with pytest.raises(ValueError, match="not connected"):
        make_instance(edges, pops=("a", "c"), demands=(("a", "c", 1),))


def test_node_demand_identity():
    rng = random.Random(3)
    for _ in range(60):
        pops = rng.sample("abcdefg", rng.randint(2, 5))
        pairs = [(a, b) for i, a in enumerate(pops) for b in pops[i + 1:]]
        chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
        demands = [(min(a, b), max(a, b), rng.randint(1, 99)) for a, b in chosen]
        edges = [(f"e{i}", pops[i], pops[i + 1], 50) for i in range(len(pops) - 1)]
        inst = make_instance(edges, pops, demands)
        d = node_demand(inst)
        assert sum(d.values()) == 2 * sum(v for _, _, v in demands)
        assert all(d[n] == 0 for n in d if n not in pops)



def test_instance_defaults():
    inst = triangle_instance()
    assert inst.speeds == (10, 100)
    assert inst.channels_per_fiber == 40
    assert inst.transponder_scale == 1
