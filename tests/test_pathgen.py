"""Bounded k-shortest path enumeration and the path catalog indexes."""

import hashlib
import io
import random
from fractions import Fraction

import pytest

from conftest import make_graph, make_instance, perfbench_gen, random_connected_edges
from wdmplan import pathgen
from wdmplan.pathgen import (_distances_to, _dijkstra, _ScaledGraph, build_catalog,
                             dump_paths, k_shortest_bounded, load_paths)


def triangle_graph():
    return make_graph([("e1", "a", "b", 100), ("e2", "b", "c", 100),
                       ("e3", "a", "c", 300)])


def test_triangle_order_detour_first():
    g = triangle_graph()
    paths = k_shortest_bounded(g, "a", "c", 50, 750)
    assert [(p.edges, p.length_km) for p in paths] == [
        (("e1", "e2"), Fraction(200)),
        (("e3",), Fraction(300)),
    ]
    assert paths[0].nodes == ("a", "b", "c")
    assert paths[0].interior == ("b",)


def test_triangle_tight_bound_cuts_direct_edge():
    g = triangle_graph()
    paths = k_shortest_bounded(g, "a", "c", 50, 250)
    assert [p.edges for p in paths] == [("e1", "e2")]


def test_k_limits_count():
    g = triangle_graph()
    paths = k_shortest_bounded(g, "a", "c", 1, 750)
    assert [p.edges for p in paths] == [("e1", "e2")]


def test_unreachable_within_bound_is_empty():
    g = make_graph([("e1", "a", "b", 800)])
    assert k_shortest_bounded(g, "a", "b", 5, 750) == []


def test_argument_errors():
    g = triangle_graph()
    with pytest.raises(ValueError, match="coincide"):
        k_shortest_bounded(g, "a", "a", 3, 100)
    with pytest.raises(ValueError, match="unknown node"):
        k_shortest_bounded(g, "a", "zz", 3, 100)
    with pytest.raises(ValueError, match="k must be"):
        k_shortest_bounded(g, "a", "b", 0, 100)


def all_simple_paths(graph, i, j, bound, banned_nodes=()):
    """Exhaustive reference enumeration, ascending (length, edge ids), of
    the paths that avoid the banned nodes."""
    out = []

    def extend(node, eids, nids, length):
        if node == j:
            out.append((length, eids))
            return
        for e in graph.incident(node):
            w = e.other(node)
            if w in nids or w in banned_nodes:
                continue
            nl = length + e.length_km
            if nl > bound:
                continue
            extend(w, eids + (e.id,), nids + (w,), nl)

    extend(i, (), (i,), Fraction(0))
    out.sort()
    return out


def test_matches_exhaustive_enumeration():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(3, 8)
        _, edges = random_connected_edges(rng, n, rng.randint(0, 5))
        g = make_graph(edges)
        i, j = (f"n{a}" for a in rng.sample(range(n), 2))
        bound = Fraction(rng.randint(150, 1300))
        k = rng.randint(1, 12)
        ref = all_simple_paths(g, i, j, bound)
        got = k_shortest_bounded(g, i, j, k, bound)
        assert [(p.length_km, p.edges) for p in got] == ref[:k]


def test_matches_exhaustive_enumeration_decimal_lengths_and_ties():
    # lengths from a small decimal pool tie often (40.5 + 40.5 == 81), ids
    # run past e9 so string order ("e10" < "e2") decides the tiebreak, and
    # every graph has parallel edges; the reach is fractional, and half the
    # time exactly the length of some path, which must be kept
    pool = [Fraction(x) for x in ("40.5", "81", "121.5", "123.4", "61.7")]
    rng = random.Random(31)
    reach_paths = 0
    for _ in range(60):
        n = rng.randint(3, 7)
        _, edges = random_connected_edges(rng, n, rng.randint(4, 7))
        edges = [(e, u, v, rng.choice(pool)) for e, u, v, _ in edges]
        for _ in range(rng.randint(1, 3)):
            _, u, v, length = rng.choice(edges)
            edges.append((f"e{len(edges)}", u, v, rng.choice((length, rng.choice(pool)))))
        g = make_graph(edges)
        i, j = (f"n{a}" for a in rng.sample(range(n), 2))
        if rng.random() < 0.5:
            bound = rng.choice(all_simple_paths(g, i, j, Fraction(10 ** 6)))[0]
        else:
            bound = Fraction(rng.randint(1500, 5000), 10)
        ref = all_simple_paths(g, i, j, bound)
        k = rng.choice((1, 3, len(ref) or 1, len(ref) + 2))
        got = k_shortest_bounded(g, i, j, k, bound)
        assert [(p.length_km, p.edges) for p in got] == ref[:k]
        assert all(p.length_km == sum(g.edge(e).length_km for e in p.edges)
                   for p in got)
        if len(got) == len(ref) and ref and ref[-1][0] == bound:
            reach_paths += 1
    assert reach_paths >= 10


def test_matches_exhaustive_enumeration_behind_a_cut_vertex():
    # the target hangs off a cut vertex, on one edge or a chain of two, and
    # the reach is large: a partial path that passes the cut vertex or
    # blocks the whole-graph shortest path to it must be certified, and
    # one that has cut itself off from the target dropped
    rng = random.Random(43)
    for _ in range(120):
        n = rng.randint(3, 8)
        names, edges = random_connected_edges(rng, n, rng.randint(2, 9))
        at = rng.choice(names)
        for t in range(rng.randint(1, 2)):
            edges.append((f"e{len(edges)}", at, f"t{t}", rng.randint(40, 400)))
            at = f"t{t}"
            if rng.random() < 0.3:  # a parallel edge on the chain
                edges.append((f"e{len(edges)}", edges[-1][1], at, edges[-1][3]))
        g = make_graph(edges)
        i = rng.choice(names)
        bound = Fraction(rng.choice((10 ** 6, rng.randint(1500, 6000))))
        ref = all_simple_paths(g, i, at, bound)
        k = rng.choice((1, 4, len(ref) or 1, len(ref) + 3))
        got = k_shortest_bounded(g, i, at, k, bound)
        assert [(p.length_km, p.edges) for p in got] == ref[:k]


def test_certified_search_stays_small(monkeypatch):
    # a 29-site net with a 2000 km reach: without its certificate the
    # best-first search pops about 2.3M heap entries on it, with it about
    # 2,300, so a counter that fails past 10,000 catches a search that keeps
    # partial paths cut off from their target
    gen = perfbench_gen()
    rng = random.Random(1010)
    n = rng.randint(8, 30)
    inst = gen.synthetic_network(rng, n, rng.randint(3, 8), rng.randint(1, 20),
                                 max_km=rng.choice([300, 750, 2000]))
    assert (n, inst.max_paths_per_pair, inst.max_path_km) == (29, 8, 2000)
    pops = 0
    heappop = pathgen.heapq.heappop

    def counted(heap):
        nonlocal pops
        pops += 1
        assert pops < 10_000, "the path search pops too many heap entries"
        return heappop(heap)

    monkeypatch.setattr(pathgen.heapq, "heappop", counted)
    buf = io.StringIO()
    dump_paths(build_catalog(inst), buf)
    monkeypatch.undo()
    assert len(buf.getvalue().splitlines()) == 161
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "213a9e5ddd4ac3b9556203c293fd6b1a99340342ed425731cdaacb0dbd0e0cd0")


def test_spur_search_matches_brute_force():
    # the goal-directed certifying search must return the shortest simple
    # path's length under its bans: lengths from a small pool tie often,
    # every graph has parallel edges, and the length cap is sometimes
    # exactly a path's length, which must be kept
    pool = [Fraction(x) for x in ("40.5", "81", "121.5", "123.4", "61.7")]
    rng = random.Random(37)
    found = capped = 0
    for _ in range(300):
        n = rng.randint(3, 8)
        names, edges = random_connected_edges(rng, n, rng.randint(3, 8))
        edges = [(e, u, v, rng.choice(pool)) for e, u, v, _ in edges]
        for _ in range(rng.randint(1, 3)):
            _, u, v, length = rng.choice(edges)
            edges.append((f"e{len(edges)}", u, v, rng.choice((length, rng.choice(pool)))))
        g = make_graph(edges)
        source, target = rng.sample(names, 2)
        reach = Fraction(rng.randint(1200, 4000), 10)
        sg = _ScaledGraph(g, reach)
        to_target, _ = _distances_to(sg, target)
        others = [x for x in names if x not in (source, target)]
        banned_nodes = set(rng.sample(others, rng.randint(0, min(2, len(others)))))
        ref = all_simple_paths(g, source, target, reach, banned_nodes)
        max_len = reach
        if ref and rng.random() < 0.5:
            max_len = rng.choice(ref)[0]  # a path exactly at the cap
            capped += 1
        elif ref and rng.random() < 0.5:
            max_len = ref[0][0] - pool[0]  # below the shortest: no path
        expect = next((length for length, _ in ref if length <= max_len), None)
        got = _dijkstra(sg, source, target, to_target, int(max_len * sg.scale),
                        sum(sg.bit[n] for n in banned_nodes))
        if got is not None:
            got = Fraction(got, sg.scale)
            found += 1
        assert got == expect
    assert found >= 100 and capped >= 50


def test_catalog_bytes_pinned():
    # any change to the set of paths, their order or their lengths shows here
    rng = random.Random(41)
    names, edges = random_connected_edges(rng, 30, 22, min_len=400, max_len=2000)
    edges = [(e, u, v, Fraction(length, 10)) for e, u, v, length in edges]
    inst = make_instance(edges, pops=sorted(rng.sample(names, 8)), demands=(),
                         max_paths_per_pair=10, max_path_km=1000)
    buf = io.StringIO()
    dump_paths(build_catalog(inst), buf)
    assert len(buf.getvalue().splitlines()) == 280
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "dc258a81f7dfafdaaa7f60749e4d079b61a3e9dd7459d9abf8ec7fef293daf30")


def test_deterministic_across_runs():
    rng = random.Random(5)
    _, edges = random_connected_edges(rng, 7, 4)
    g = make_graph(edges)
    a = k_shortest_bounded(g, "n0", "n6", 8, 1200)
    b = k_shortest_bounded(g, "n0", "n6", 8, 1200)
    assert a == b


def test_parallel_edges_are_distinct_paths():
    g = make_graph([("e1", "a", "b", 100), ("e2", "a", "b", 100),
                    ("e3", "a", "b", 120)])
    paths = k_shortest_bounded(g, "a", "b", 5, 500)
    assert [p.edges for p in paths] == [("e1",), ("e2",), ("e3",)]


def test_catalog_indexes():
    inst = make_instance(
        [("e1", "a", "b", 100), ("e2", "b", "c", 100), ("e3", "a", "c", 300)],
        pops=("a", "b", "c"), demands=(("a", "c", 5),),
        max_paths_per_pair=5, max_path_km=750)
    cat = build_catalog(inst)
    assert set(cat.pair_paths) == {("a", "b"), ("a", "c"), ("b", "c")}
    assert len(cat) == sum(len(v) for v in cat.pair_paths.values())
    # global ids follow pair order, and each pair's ids are one range
    assert [pid for ids in cat.pair_ids.values() for pid in ids] == list(range(len(cat)))
    assert all([cat.paths[pid] for pid in cat.pair_ids[pair]] == list(plist)
               for pair, plist in cat.pair_paths.items())
    # cross check the id indexes against a full scan, ids ascending
    for node in "abc":
        expect = tuple(pid for pid, p in enumerate(cat.paths) if node in p.ends)
        assert cat.endpoint_ids(node) == expect and expect
    for eid in ("e1", "e2", "e3"):
        expect = tuple(pid for pid, p in enumerate(cat.paths) if eid in p.edges)
        assert cat.ids_on_edge(eid) == expect and expect
    assert cat.endpoint_ids("zz") == () and cat.ids_on_edge("e9") == ()
    assert cat.empty_pairs() == ()


def test_catalog_flags_empty_pairs():
    inst = make_instance(
        [("e1", "a", "b", 100), ("e2", "b", "c", 900)],
        pops=("a", "c"), demands=(("a", "c", 1),),
        max_paths_per_pair=3, max_path_km=500)
    cat = build_catalog(inst)
    assert cat.empty_pairs() == (("a", "c"),)


def test_dump_load_round_trip():
    rng = random.Random(17)
    _, edges = random_connected_edges(rng, 6, 3)
    pops = ("n0", "n2", "n5")
    inst = make_instance(edges, pops=pops, demands=(("n0", "n5", 4),),
                         max_paths_per_pair=4, max_path_km=1100)
    cat = build_catalog(inst)
    buf = io.StringIO()
    dump_paths(cat, buf)
    buf.seek(0)
    again = load_paths(buf, inst.graph)
    assert again.pair_paths == cat.pair_paths


def test_load_rejects_corrupt_lines():
    g = triangle_graph()
    with pytest.raises(ValueError, match="ends at"):
        load_paths(io.StringIO("a c 100 e1\n"), g)
    with pytest.raises(ValueError, match="recomputed"):
        load_paths(io.StringIO("a c 999 e1 e2\n"), g)


@pytest.mark.parametrize("text, message", [
    # the model would read the path's ends (a, c) as a pair with no line
    ("c a 200 e2 e1\n", "line 1: pair c a is not listed smaller id first"),
    # two paths would share one id
    ("a b 100 e1\n# again\na b 100 e1\n", "line 3: duplicate a-b path"),
    # the transparent variant would take the 300 km path as a-c's shortest
    ("a c 300 e3\na c 200 e1 e2\n", "line 2: a-c path listed out of .length, edge ids. order"),
    ("a b\n", "line 1: expected"),
    ("a c 200 e1 e2\nb c -\n", "line 2: expected"),
    ("a b 100 e9\n", "line 1: unknown edge e9"),
    # e2 joins b and c: it does not leave a
    ("a b 100 e2\n", "line 1: node 'a' not an endpoint of edge 'e2'"),
    ("a b x e1\n", "line 1: length 'x' is not a number"),
    # a -> b -> a -> c: the capacity rows would count e1 once, the design twice
    ("a c 500 e1 e1 e3\n", "line 1: a-c path visits a node twice"),
    # the catalog would hold a path for a pair its file says has none
    ("a b - EMPTY\na b 100 e1\n", "line 2: pair a b is marked EMPTY and lists paths"),
    ("a b 100 e1\na b - EMPTY\n", "line 2: pair a b is marked EMPTY and lists paths"),
    # the catalog would drop what follows the marker unread
    ("a c 200 e1 e2\na b - EMPTY junk\n", "line 2: text after the EMPTY marker of pair a b"),
], ids=["larger-id-first", "duplicate", "out-of-order", "two-fields", "empty-marker-cut",
        "unknown-edge", "edge-off-walk", "bad-length", "repeated-node", "empty-then-path",
        "path-then-empty", "empty-marker-trailing"])
def test_load_rejects_lines_the_model_would_misread(text, message):
    with pytest.raises(ValueError, match=message):
        load_paths(io.StringIO(text), triangle_graph())
