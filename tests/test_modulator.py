"""Component behaviors/impacts, marking rules, saturation, pieces, blending."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import blend_behavior, is_component_behavior, pieces
from tspkern.instance import Edge, Instance, InstanceError, ScaleError
from tspkern.marking import Behavior
from tspkern.modulator import (
    BEHAVIOR_GUARD,
    component_graph,
    component_impact,
    component_unit,
    enumerate_component_behaviors,
    rule_components_tsp,
    rule_paths_subtsp,
    saturate_path_nonterminals,
)
from tspkern.oracle import solve_exact_multiplicity
from tspkern.pipelines import kernelize_components_tsp, kernelize_paths_subtsp
from tspkern.report import KernelReport


def singleton_component(w1=2, w2=5, kind="tsp"):
    """Component {2} adjacent to modulator {0, 1}."""
    wps = frozenset(range(3)) if kind == "tsp" else frozenset({0, 1, 2})
    return Instance(kind, 3, (Edge(0, 1, 1), Edge(2, 0, w1), Edge(2, 1, w2)), wps, 99)


def test_component_graph_drops_modulator_edges():
    inst = singleton_component()
    eids = component_graph(inst, {0, 1}, {2})
    assert eids == [1, 2]  # edge 0 is modulator-internal


def _natural(inst, M, C, r):
    return component_unit(inst, M, C, r, {}, component_graph(inst, M, C)).natural


def test_enumerate_singleton():
    inst = singleton_component()
    got = {b.edges for b in enumerate_component_behaviors(inst, {0, 1}, {2}, 1)}
    assert got == {(1, 1), (2, 2), (1, 2)}


def test_enumerate_guard():
    # component {0} joined to 13 modulator vertices: 3^13 multiplicity vectors
    inst = Instance("tsp", 14, tuple(Edge(0, m, 1) for m in range(1, 14)),
                    frozenset(range(14)), 99)
    assert 3**13 > BEHAVIOR_GUARD
    with pytest.raises(ScaleError, match="exceeds guard"):
        enumerate_component_behaviors(inst, set(range(1, 14)), {0}, 1)


def test_enumerate_empty_for_isolated():
    inst = Instance("tsp", 3, (Edge(0, 1, 1),), frozenset(range(3)), 9)
    assert enumerate_component_behaviors(inst, {0, 1}, {2}, 1) == []


@st.composite
def component_cases(draw):
    """(inst, M, C, r): a wrp instance on modulator M = {0..k-1} and
    component C = {k..n-1}, with at most 8 capacity-1 or capacity-2 edges,
    parallel and modulator-internal ones included, so some C-vertices may
    have no edge in G_C."""
    k, csize, r = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = k + csize
    pairs = list(itertools.combinations(range(n), 2))
    drawn = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 5),
                                    st.sampled_from((1, 2))), max_size=8))
    edges = tuple(Edge(u, v, w, cap) for (u, v), w, cap in drawn)
    return Instance("wrp", n, edges, frozenset(range(n)), 99), set(range(k)), set(range(k, n)), r


@given(component_cases())
@settings(max_examples=150, deadline=None)
def test_naive_filter_crosscheck(case):
    """The enumerator lists exactly the vectors over G_C's edges that the
    defining predicate accepts, in lexicographic order."""
    inst, M, C, r = case
    eids = component_graph(inst, M, C)
    naive = []
    for counts in itertools.product(*(range(inst.effective_capacity(inst.edges[i]) + 1)
                                      for i in eids)):
        table = dict(zip(eids, counts))
        if is_component_behavior(inst, M, C, r, table):
            naive.append(Behavior.of(inst, [i for i, c in table.items() for _ in range(c)]))
    assert enumerate_component_behaviors(inst, M, C, r) == naive


def test_enumerate_at_the_guard():
    """A 3-vertex path component with 4, 3 and 3 edges into a 10-vertex
    modulator: 12 edges of G_C, 3^12 vectors, 6691 behaviors at r = 3."""
    C = (10, 11, 12)
    edges = (Edge(10, 11, 1), Edge(11, 12, 1)) + tuple(
        Edge(m, C[(m >= 4) + (m >= 7)], 1 + m % 3) for m in range(10))
    inst = Instance("tsp", 13, edges, frozenset(range(13)), 99)
    assert 3 ** len(component_graph(inst, set(range(10)), set(C))) == BEHAVIOR_GUARD
    t0 = time.perf_counter()
    behaviors = enumerate_component_behaviors(inst, set(range(10)), set(C), 3)
    assert time.perf_counter() - t0 < 2
    assert len(behaviors) == 6691


def test_natural_component():
    inst = singleton_component()
    nat = _natural(inst, {0, 1}, {2}, 1)
    assert nat.edges == (1, 1) and nat.weight == 4


def test_impact_figure_config():
    """Double edge for an even-degree partner, single for odd, least index
    as the representative; isolated-in-M components contribute nothing."""
    # component vertices 5,6,7; modulator m2=1, m3=2, m5=4 (plus unused 0, 3)
    edges = (
        Edge(1, 5, 1), Edge(1, 5, 1),      # m2 visited, even from this side
        Edge(2, 5, 1), Edge(2, 6, 1),      # m3 twice -> even
        Edge(1, 6, 1), Edge(4, 6, 1),      # m2 again, m5 once -> odd
        Edge(5, 6, 1),
    )
    inst = Instance("stsp", 8, edges, frozenset(range(8)), 99)
    beh_edges = (0, 1, 2, 3, 4, 5, 6)
    weight = sum(inst.edges[i].weight for i in beh_edges)
    beh = Behavior(beh_edges, weight)
    imp = component_impact(inst, {0, 1, 2, 3, 4}, beh)
    assert imp.touched == frozenset({1, 2, 4})
    assert dict(imp.rep_edges) == {(1, 2): 2, (1, 4): 1}


def test_impact_single_touch_empty_reps():
    inst = singleton_component()
    nat = _natural(inst, {0, 1}, {2}, 1)
    assert component_impact(inst, {0, 1}, nat).rep_edges == ()


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_parity_law(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    csize = rng.randint(1, 3)
    n = k + csize
    edges = []
    for a, b in itertools.combinations(range(k, n), 2):
        if rng.random() < 0.5:
            edges.append(Edge(a, b, rng.randint(1, 5)))
    for c in range(k, n):
        for m in range(k):
            if rng.random() < 0.5:
                edges.append(Edge(m, c, rng.randint(1, 5)))
    inst = Instance("stsp", n, tuple(edges), frozenset(range(n)), 99)
    M = set(range(k))
    if 3 ** len(edges) > BEHAVIOR_GUARD:  # k=4 and csize=3 can draw up to 15 edges
        with pytest.raises(ScaleError):
            enumerate_component_behaviors(inst, M, set(range(k, n)), csize)
        return
    for beh in enumerate_component_behaviors(inst, M, set(range(k, n)), csize):
        component_impact(inst, M, beh)  # asserts the parity law internally


def test_price_component_basics():
    inst = singleton_component()
    behaviors = enumerate_component_behaviors(inst, {0, 1}, {2}, 1)
    u = component_unit(inst, {0, 1}, {2}, 1, {}, component_graph(inst, {0, 1}, {2}))
    nat_imp = component_impact(inst, {0, 1}, u.natural)
    assert u.impact == nat_imp and u.price(nat_imp) == 0
    other = [component_impact(inst, {0, 1}, b) for b in behaviors
             if component_impact(inst, {0, 1}, b) != nat_imp]
    # a unit is priced from its own natural impact only
    assert other[0] != u.impact


def _components_instance(rng, kind, k, r, chunks):
    """Modulator path 0..k-1 plus `chunks` small components hung off it."""
    edges = [Edge(i, i + 1, rng.randint(1, 5)) for i in range(k - 1)]
    n = k
    for _ in range(chunks):
        size = rng.randint(1, r)
        verts = list(range(n, n + size))
        for a, b in zip(verts, verts[1:]):
            edges.append(Edge(a, b, rng.randint(1, 5)))
        anchors = [verts[0]] if size == 1 else [verts[0], verts[-1]]
        for a in anchors:
            edges.append(Edge(a, rng.randrange(k), rng.randint(1, 5)))
        n += size
    if kind == "tsp":
        wps = frozenset(range(n))
    else:
        wps = frozenset(range(k)) | frozenset(
            v for v in range(k, n) if rng.random() < 0.6)
    return Instance(kind, n, tuple(edges), wps, rng.randint(0, 70))


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_rule_components_safe(seed):
    rng = random.Random(seed)
    k, r = rng.randint(1, 3), rng.randint(1, 3)
    inst = _components_instance(rng, "tsp", k, r, rng.randint(1, 4))
    if len(inst.edges) > 12 or len(inst.waypoints) <= 1:
        return
    report = KernelReport(pipeline="components-tsp")
    out = rule_components_tsp(inst, set(range(k)), r, report)
    if report.decided is not None:
        assert solve_exact_multiplicity(inst).feasible == (report.decided == "yes")
        return
    assert solve_exact_multiplicity(inst).feasible == solve_exact_multiplicity(out).feasible
    assert report.stats["components_left"] <= report.stats["component_bound"]


def test_rule_components_bound_with_many_twins():
    """Dozens of identical singletons hanging off one modulator vertex."""
    k = 2
    t = 40
    edges = [Edge(0, 1, 1)]
    for v in range(2, 2 + t):
        edges.append(Edge(0, v, 1))
        edges.append(Edge(1, v, 1))
    inst = Instance("tsp", 2 + t, tuple(edges), frozenset(range(2 + t)), 10**9)
    report = KernelReport(pipeline="components-tsp")
    out = rule_components_tsp(inst, {0, 1}, 1, report)
    assert report.stats["removed"] > 0
    assert report.stats["components_left"] <= report.stats["component_bound"]
    assert out.budget < inst.budget


def test_saturation():
    # path c1 - c2 - c3 with c2 not a waypoint
    edges = (Edge(0, 1, 1), Edge(1, 2, 2), Edge(2, 3, 3), Edge(3, 0, 1))
    inst = Instance("stsp", 4, edges, frozenset({0, 1, 3}), 99, frozenset({0}))
    out = saturate_path_nonterminals(inst)
    assert out.n == 3
    assert all(v in out.waypoints or v in out.modulator_hint for v in range(out.n))
    merged = [e for e in out.edges if e.weight == 5]
    assert len(merged) == 1


def test_pieces_and_legs():
    inst = singleton_component(kind="stsp")
    nat = _natural(inst, {0, 1}, {2}, 1)
    got = pieces(inst, {0, 1}, nat)
    assert len(got) == 1
    assert got[0].path_vertices == (2,)
    assert len(got[0].legs) == 2


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_natural_pieces_two_legged(seed):
    rng = random.Random(seed)
    k, r = rng.randint(1, 3), rng.randint(1, 4)
    inst = _components_instance(rng, "stsp", k, r, rng.randint(1, 3))
    inst = Instance(inst.kind, inst.n, inst.edges,
                    frozenset(range(inst.n)), inst.budget)  # saturated form
    M = set(range(k))
    alive = sorted(set(range(inst.n)) - M)
    adj = {v: set() for v in alive}
    for e in inst.edges:
        if e.u in adj and e.v in adj:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
    seen = set()
    for s in alive:
        if s in seen:
            continue
        C, stack = {s}, [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    C.add(w)
                    stack.append(w)
        behaviors = enumerate_component_behaviors(inst, M, C, r)
        if not behaviors:
            continue
        nat = component_unit(inst, M, C, r, {}, component_graph(inst, M, C)).natural
        assert all(len(p.legs) == 2 for p in pieces(inst, M, nat))


def _blend_cases(rng, count):
    made = 0
    while made < count:
        k, r = rng.randint(2, 4), rng.randint(1, 4)
        inst = _components_instance(rng, "stsp", k, r, 1)
        inst = Instance(inst.kind, inst.n, inst.edges, frozenset(range(inst.n)), inst.budget)
        M = set(range(k))
        C = set(range(k, inst.n))
        behaviors = enumerate_component_behaviors(inst, M, C, r)
        if not behaviors:
            continue
        nat = component_unit(inst, M, C, r, {}, component_graph(inst, M, C)).natural
        nat_touch = component_impact(inst, M, nat).touched
        for A in behaviors:
            a_touch = component_impact(inst, M, A).touched
            if any(len(p.legs) != 2 for p in pieces(inst, M, A)):
                continue
            candidates = [v for v in nat_touch if v not in a_touch]
            if not candidates:
                continue
            v = rng.choice(candidates)
            M_prime = set(a_touch) | {m for m in M if m not in nat_touch and rng.random() < 0.3}
            if v in M_prime:
                continue
            yield inst, M, C, A, M_prime, v, r
            made += 1
            break


def test_blending_properties():
    rng = random.Random(2024)
    for inst, M, C, A, M_prime, v, r in _blend_cases(rng, 60):
        F = blend_behavior(inst, M, C, A, M_prime, v, r)
        touched = component_impact(inst, M, F).touched
        nat = _natural(inst, M, C, r)
        nat_touch = component_impact(inst, M, nat).touched
        a_touch = component_impact(inst, M, A).touched
        assert v in touched
        assert touched <= a_touch | nat_touch
        assert F.weight <= A.weight


def test_blend_singleton_example():
    # C = {2}; A = doubled expensive edge, natural = doubled cheap edge to v
    inst = singleton_component(w1=5, w2=2, kind="stsp")
    behaviors = enumerate_component_behaviors(inst, {0, 1}, {2}, 1)
    A = [b for b in behaviors if b.edges == (1, 1)][0]  # 2 x edge to m0
    F = blend_behavior(inst, {0, 1}, {2}, A, {0}, 1, 1)
    assert F.weight <= A.weight
    assert 1 in component_impact(inst, {0, 1}, F).touched


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_rule_paths_safe(seed):
    rng = random.Random(seed)
    k, r = rng.randint(1, 3), rng.randint(1, 3)
    inst = _components_instance(rng, "stsp", k, r, rng.randint(1, 4))
    if len(inst.edges) > 12 or len(inst.waypoints) <= 1:
        return
    inst = Instance(inst.kind, inst.n, inst.edges, inst.waypoints,
                    inst.budget, frozenset(range(k)))
    sat = saturate_path_nonterminals(inst)
    if len(sat.waypoints) <= 1 or len(sat.edges) > 12:
        return
    report = KernelReport(pipeline="paths-subtsp")
    out = rule_paths_subtsp(sat, sat.modulator_hint, r, report)
    if report.decided is not None:
        assert solve_exact_multiplicity(sat).feasible == (report.decided == "yes")
        return
    assert solve_exact_multiplicity(sat).feasible == solve_exact_multiplicity(out).feasible
    assert report.stats["components_left"] <= report.stats["component_bound"]


def test_pipeline_kind_checks():
    tsp = Instance("tsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), 9)
    with pytest.raises(InstanceError):
        kernelize_paths_subtsp(tsp, 2)
    stsp = Instance("stsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), 9)
    with pytest.raises(InstanceError):
        kernelize_components_tsp(stsp, 2)
