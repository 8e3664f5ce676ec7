"""Instance model, file round-trips, and structural decompositions."""

import dataclasses
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from tspkern.instance import (
    Edge,
    Instance,
    InstanceError,
    ParseError,
    _regime_violation,
    compute_fes,
    compute_vc,
    find_modulator,
    parse_instance,
    render_instance,
    shortest_paths,
)

TRIANGLE_TEXT = "p tsp 3 3\nb 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n"


def triangle():
    return parse_instance(TRIANGLE_TEXT)


def test_parse_triangle():
    inst = triangle()
    assert inst.kind == "tsp"
    assert inst.n == 3 and len(inst.edges) == 3
    assert inst.budget == 3
    assert inst.waypoints == frozenset({0, 1, 2})


def test_parse_wrp_capacity_one():
    inst = parse_instance("p wrp 2 1\nb 2\nw 1 2\ne 1 2 1 1\n")
    assert inst.kind == "wrp"
    assert inst.edges[0].capacity == 1
    assert inst.waypoints == frozenset({0, 1})


def test_parse_unknown_kind():
    with pytest.raises(ParseError, match="unknown kind"):
        parse_instance("p xyz 3 3\nb 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")


def test_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("p tsp 2 1\ne 1 2\nb 1\n")
    with pytest.raises(ParseError, match="duplicate budget"):
        parse_instance("p tsp 2 1\nb 1\nb 2\ne 1 2 1\n")
    with pytest.raises(ParseError, match="forbidden for tsp"):
        parse_instance("p tsp 2 1\nb 1\nw 1\ne 1 2 1\n")


def test_parse_capacity_default_and_clamp():
    inst = parse_instance("p wrp 2 2\nb 9\nw 1\ne 1 2 1\ne 1 2 1 7\n")
    assert inst.edges[0].capacity == 2  # default
    assert inst.edges[1].capacity == 2  # clamped


def test_self_loop_rejected():
    with pytest.raises(InstanceError):
        Instance("stsp", 2, (Edge(1, 1, 1),), frozenset(), 0)


def test_tsp_needs_all_waypoints():
    with pytest.raises(InstanceError):
        Instance("tsp", 3, (), frozenset({0}), 0)


def _random_instance(rng: random.Random) -> Instance:
    kind = rng.choice(["tsp", "stsp", "wrp"])
    n = rng.randint(2, 7)
    m = rng.randint(0, 10)
    edges = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        cap = rng.choice([1, 2]) if kind == "wrp" else None
        edges.append(Edge(u, v, rng.randint(0, 50), cap))
    if kind == "tsp":
        wps = frozenset(range(n))
    else:
        wps = frozenset(v for v in range(n) if rng.random() < 0.5)
    hint = frozenset(rng.sample(range(n), rng.randint(0, n))) if rng.random() < 0.3 else None
    return Instance(kind, n, tuple(edges), wps, rng.randint(-3, 100), hint)


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_roundtrip_parse_render(seed):
    inst = _random_instance(random.Random(seed))
    assert parse_instance(render_instance(inst)) == inst


def test_fes_counts():
    assert len(compute_fes(triangle())) == 1
    tree = Instance("stsp", 5, tuple(Edge(i, i + 1, 1) for i in range(4)), frozenset(), 0)
    assert compute_fes(tree) == []
    two_tri = Instance(
        "stsp", 6,
        (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1),
         Edge(3, 4, 1), Edge(4, 5, 1), Edge(3, 5, 1)),
        frozenset(), 0)
    assert len(compute_fes(two_tri)) == 2


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_fes_size_formula(seed):
    inst = _random_instance(random.Random(seed))
    c = len(inst.components())
    assert len(compute_fes(inst)) == len(inst.edges) - inst.n + c


def test_vc_star():
    star = Instance("stsp", 5, tuple(Edge(0, i, 1) for i in range(1, 5)), frozenset(), 0)
    assert compute_vc(star, 1) == frozenset({0})


def test_vc_c5():
    c5 = Instance("stsp", 5, tuple(Edge(i, (i + 1) % 5, 1) for i in range(5)), frozenset(), 0)
    assert compute_vc(c5, 2) is None
    got = compute_vc(c5, 3)
    assert got is not None and len(got) == 3
    assert all(e.u in got or e.v in got for e in c5.edges)


def _is_modulator(inst, regime, r, S) -> bool:
    """G minus S has no edge ("vc"), no component above r vertices, and for
    paths only paths: degrees at most 2, no cycle, parallel edges included."""
    g = _induced_graph(inst, set(range(inst.n)) - set(S))
    if regime == "vc":
        return g.number_of_edges() == 0
    comps = list(nx.connected_components(g))
    if any(len(c) > r for c in comps):
        return False
    return regime != "paths" or (
        all(d <= 2 for _, d in g.degree())
        and g.number_of_edges() == g.number_of_nodes() - len(comps))


@given(st.integers(0, 10_000), st.sampled_from(("vc", "components", "paths")),
       st.integers(1, 3))
@settings(max_examples=90, deadline=None)
def test_vc_matches_bruteforce(seed, regime, r):
    """The structure search, for a vertex cover ("vc") or a modulator, finds
    one of least size and accepts a hint exactly when it is one."""
    rng = random.Random(seed)
    inst = dataclasses.replace(_random_instance(rng), modulator_hint=None)

    def search(inst, k_max):
        if regime == "vc":
            return compute_vc(inst, k_max)
        return find_modulator(inst, regime, r, k_max)

    best = min(k for k in range(inst.n + 1) for S in itertools.combinations(range(inst.n), k)
               if _is_modulator(inst, regime, r, S))
    got = search(inst, inst.n)
    assert got is not None and len(got) == best and _is_modulator(inst, regime, r, got)
    assert best == 0 or search(inst, best - 1) is None
    hint = frozenset(v for v in range(inst.n) if rng.random() < 0.5)
    hinted = dataclasses.replace(inst, modulator_hint=hint)
    if _is_modulator(inst, regime, r, hint):
        assert search(hinted, 0) == hint
    else:
        with pytest.raises(InstanceError, match="modulator hint"):
            search(hinted, inst.n)


def k4():
    edges = tuple(Edge(u, v, 1) for u, v in itertools.combinations(range(4), 2))
    return Instance("tsp", 4, edges, frozenset(range(4)), 10)


def test_modulator_k4():
    M = find_modulator(k4(), "components", 1, 3)
    assert M is not None and len(M) == 3
    assert all(len(c) == 1 for c in k4().components(without=M))


def test_modulator_empty_for_paths():
    inst = Instance("stsp", 4, (Edge(0, 1, 1), Edge(2, 3, 1)), frozenset(), 0)
    M = find_modulator(inst, "paths", 2, 0)
    assert M == frozenset()


def test_modulator_takes_the_regime_names_of_the_pipelines():
    for regime in ("r_components", "r_paths", "vc"):
        with pytest.raises(ValueError, match="unknown regime"):
            find_modulator(k4(), regime, 1, 3)


def test_modulator_bad_hint_rejected():
    inst = Instance("tsp", 4, k4().edges, frozenset(range(4)), 10, frozenset({0}))
    with pytest.raises(InstanceError):
        find_modulator(inst, "components", 1, 4)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_modulator_regime_revalidates(seed):
    rng = random.Random(seed)
    inst = _random_instance(rng)
    inst = Instance(inst.kind, inst.n, inst.edges, inst.waypoints, inst.budget, None)
    r = rng.randint(1, 3)
    regime = rng.choice(["components", "paths"])
    M = find_modulator(inst, regime, r, inst.n)
    assert M is not None
    # decomposition invariants: components partition V minus M and fit the regime
    comps = inst.components(without=M)
    flat = [v for c in comps for v in c]
    assert sorted(flat) == sorted(set(range(inst.n)) - M)
    assert all(len(c) <= r for c in comps)
    if regime == "paths":
        for comp in comps:
            inside = set(comp)
            deg = {v: 0 for v in comp}
            seen_pairs = 0
            for e in inst.edges:
                if e.u in inside and e.v in inside:
                    deg[e.u] += 1
                    deg[e.v] += 1
                    seen_pairs += 1
            assert all(d <= 2 for d in deg.values())
            assert seen_pairs < len(comp)  # acyclic


def test_remove_vertices_remaps_everything():
    inst = Instance("stsp", 4, (Edge(0, 1, 2), Edge(1, 2, 3), Edge(2, 3, 4)),
                    frozenset({1, 3}), 9, frozenset({1}))
    out = inst.remove_vertices({0})
    assert out.n == 3
    assert out.edges == (Edge(0, 1, 3), Edge(1, 2, 4))
    assert out.waypoints == frozenset({0, 2})
    assert out.modulator_hint == frozenset({0})


def test_remove_hint_vertex_drops_hint():
    inst = Instance("stsp", 3, (Edge(1, 2, 1),), frozenset({1}), 0, frozenset({0}))
    assert inst.remove_vertices({0}).modulator_hint is None


def test_instance_errors_print_file_ids():
    with pytest.raises(ParseError, match="waypoint 9 out of range"):
        parse_instance("p stsp 3 1\nb 1\nw 1 9\ne 1 2 1\n")
    with pytest.raises(ParseError, match="modulator hint vertex 4 out of range"):
        parse_instance("p stsp 3 1\nb 1\nm 4\ne 1 2 1\n")
    with pytest.raises(ParseError, match="edge 2: endpoint out of range"):
        parse_instance("p stsp 3 2\nb 1\ne 1 2 1\ne 1 5 1\n")


@pytest.mark.parametrize("make, error, message", [
    (lambda: parse_instance("p tsp 1 0\nb 1 2\n"), ParseError, "line 2: expected 'b <budget>'"),
    (lambda: parse_instance("p stsp 2 0\nb 1\nm 1\nm 2\n"), ParseError,
     "line 4: duplicate modulator line"),
    (lambda: parse_instance("p wrp 2 1\nb 1\nw 1 2\ne 1 2 1 0\n"), ParseError,
     "line 4: capacity must be positive"),
    (lambda: parse_instance("p tsp x 0\nb 1\n"), ParseError,
     "line 1: invalid literal for int() with base 10: 'x'"),
    (lambda: parse_instance("b 1\n"), ParseError, "missing problem line"),
    (lambda: parse_instance("p tsp 1 0\n"), ParseError, "missing budget line"),
    (lambda: parse_instance("p tsp 0 0\nb 1\n"), ParseError, "vertex count must be positive"),
    (lambda: Instance("x", 1, (), frozenset(), 0), InstanceError, "unknown kind 'x'"),
    (lambda: Instance("wrp", 2, (Edge(0, 1, 1, 3),), frozenset(), 0), InstanceError,
     "edge 1: wrp capacity must be 1 or 2"),
    (lambda: Instance("stsp", 2, (Edge(0, 1, 1, 2),), frozenset(), 0), InstanceError,
     "edge 1: capacity only allowed for wrp"),
    (lambda: triangle().remove_vertices(range(3)), InstanceError, "cannot delete every vertex"),
    (lambda: parse_instance("p tsp 2 1\np tsp 2 1\nb 1\ne 1 2 1\n"), ParseError,
     "line 2: duplicate problem line"),
    (lambda: parse_instance("w 1\np stsp 2 1\nb 1\ne 1 2 1\n"), ParseError,
     "line 1: waypoint line before problem line"),
    (lambda: parse_instance("e 1 2 1\np tsp 2 1\nb 1\n"), ParseError,
     "line 1: edge before problem line"),
    (lambda: find_modulator(triangle(), "components", 0, 3), InstanceError,
     "r must be positive, got 0"),
], ids=["budget-arity", "duplicate-modulator", "capacity-zero", "not-an-int", "no-problem",
        "no-budget", "no-vertices", "unknown-kind", "wrp-capacity", "capacity-off-wrp",
        "delete-all", "duplicate-problem", "waypoint-before-problem", "edge-before-problem",
        "modulator-r-zero"])
def test_guards_name_the_fault(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def _alive(inst: Instance, rng: random.Random) -> set[int]:
    return {v for v in range(inst.n) if rng.random() < 0.7}


def _induced_graph(inst: Instance, alive) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(alive)
    g.add_edges_from(e.ends() for e in inst.edges if e.u in alive and e.v in alive)
    return g


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_components_match_networkx(seed):
    rng = random.Random(seed)
    inst = _random_instance(rng)
    alive = _alive(inst, rng)
    got = inst.components(without=set(range(inst.n)) - alive)
    want = sorted(sorted(c) for c in nx.connected_components(_induced_graph(inst, alive)))
    assert got == want


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_component_violation_is_connected_witness(seed, r):
    rng = random.Random(seed)
    inst = _random_instance(rng)
    alive = _alive(inst, rng)
    g = _induced_graph(inst, alive)
    bad = _regime_violation(inst, alive, "components", r)
    if bad is None:
        assert all(len(c) <= r for c in nx.connected_components(g))
    else:
        assert len(set(bad)) == r + 1 and set(bad) <= alive
        assert nx.is_connected(g.subgraph(bad))


def test_adjacency_is_memoized_per_instance():
    inst = triangle()
    adj = inst.adjacency()
    assert inst.adjacency() is adj
    assert adj == ((0, 2), (0, 1), (1, 2))
    assert adj == tuple(tuple(i for i, e in enumerate(inst.edges) if v in e.ends())
                        for v in range(inst.n))
    assert dataclasses.replace(inst, edges=inst.edges[:1]).adjacency() == ((0,), (0,), ())


def test_shortest_paths_order_preds_and_limits():
    """Parallel edges 0-1 (ids 0 and 1) and edge 1-2 (id 2)."""
    def graph(w0, w1):
        return Instance("stsp", 3, (Edge(0, 1, w0), Edge(0, 1, w1), Edge(1, 2, 1)),
                        frozenset({0, 1}), 99)

    inst = graph(3, 5)
    assert list(shortest_paths(inst, 0)) == [(0, 0, None), (1, 3, 0), (2, 4, 2)]
    assert list(shortest_paths(inst, 2)) == [(2, 0, None), (1, 1, 2), (0, 4, 0)]
    # a vertex `through` rejects is settled but not expanded; the source is expanded
    assert list(shortest_paths(inst, 0, through=lambda v: v != 1)) == [(0, 0, None), (1, 3, 0)]
    assert list(shortest_paths(inst, 1, through=lambda v: False)) == [
        (1, 0, None), (2, 1, 2), (0, 3, 0)]
    # only the edges `adj` lists are relaxed, in its order
    assert list(shortest_paths(inst, 0, adj=((1,), (1, 2), (2,)))) == [
        (0, 0, None), (1, 5, 1), (2, 6, 2)]
    # of equally short ways the first one relaxed is kept
    tie = graph(3, 3)
    assert list(shortest_paths(tie, 0)) == [(0, 0, None), (1, 3, 0), (2, 4, 2)]
    assert list(shortest_paths(tie, 0, adj=((1, 0), (0, 1, 2), (2,)))) == [
        (0, 0, None), (1, 3, 1), (2, 4, 2)]
    assert list(shortest_paths(graph(5, 3), 0)) == [(0, 0, None), (1, 3, 1), (2, 4, 2)]
