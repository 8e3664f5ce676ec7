"""Exact engines, certificates, nice-form normalization, walks and segments."""

import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tspkern import oracle
from tspkern.instance import Edge, Instance, InvariantError, ScaleError
from tspkern.oracle import (
    OracleCaps,
    check_certificate,
    equivalent,
    euler_walk,
    find_component_preserving_cycle,
    make_nice,
    make_solution,
    solve_auto,
    solve_exact_multiplicity,
    solve_heldkarp,
    solve_treewidth,
    split_into_segments,
    solution_component_behavior,
)


def triangle(budget=3):
    edges = (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1))
    return Instance("tsp", 3, edges, frozenset(range(3)), budget)


def p3(kind="tsp", waypoints=None, budget=4):
    wps = frozenset(range(3)) if waypoints is None else frozenset(waypoints)
    return Instance(kind, 3, (Edge(0, 1, 1), Edge(1, 2, 1)), wps, budget)


def star13(budget=6):
    edges = tuple(Edge(0, i, 1) for i in (1, 2, 3))
    return Instance("tsp", 4, edges, frozenset(range(4)), budget)


# -- certificates ------------------------------------------------------------

def test_certificate_triangle_tour():
    assert check_certificate(triangle(), make_solution(triangle(), (1, 1, 1)))


def test_certificate_uncovered_vertex():
    inst = triangle(budget=4)
    assert not check_certificate(inst, make_solution(inst, (2, 0, 0)))


def test_certificate_p3_doubled():
    assert check_certificate(p3(), make_solution(p3(), (2, 2)))


def test_certificate_empty_single_waypoint():
    inst = p3(kind="stsp", waypoints={1}, budget=0)
    assert check_certificate(inst, make_solution(inst, (0, 0)))
    neg = p3(kind="stsp", waypoints={1}, budget=-1)
    assert not check_certificate(neg, make_solution(neg, (0, 0)))


def test_certificate_capacity_respected():
    inst = Instance("wrp", 2, (Edge(0, 1, 1, 1),), frozenset({0, 1}), 9)
    assert not check_certificate(inst, make_solution(inst, (2,)))


# -- exact engines -----------------------------------------------------------

def test_mult_capacity1_edge_infeasible():
    inst = Instance("wrp", 2, (Edge(0, 1, 1, 1),), frozenset({0, 1}), 10**9)
    assert not solve_exact_multiplicity(inst).feasible


def test_mult_p3_opt4():
    res = solve_exact_multiplicity(p3(budget=99))
    assert res.opt_weight == 4


def test_mult_triangle_opt3():
    res = solve_exact_multiplicity(triangle())
    assert res.feasible and res.opt_weight == 3


def test_mult_respects_cap():
    inst = triangle()
    big = Instance("tsp", 3, inst.edges, inst.waypoints, 3)
    with pytest.raises(ScaleError):
        solve_exact_multiplicity(big, OracleCaps(multiplicity_edges=2))


def test_heldkarp_examples():
    assert solve_heldkarp(triangle()).opt_weight == 3
    sub = p3(kind="stsp", waypoints={0, 2}, budget=99)
    assert solve_heldkarp(sub).opt_weight == 4
    assert solve_heldkarp(star13(budget=99)).opt_weight == 6


def test_heldkarp_rejects_wrp():
    inst = Instance("wrp", 2, (Edge(0, 1, 1, 2),), frozenset({0, 1}), 9)
    with pytest.raises(ValueError, match="capacities"):
        solve_heldkarp(inst)


def test_feasible_witness_validates():
    for inst in (triangle(), p3(budget=4), star13()):
        for engine in (solve_exact_multiplicity, solve_heldkarp, solve_treewidth):
            res = engine(inst)
            assert res.feasible
            assert check_certificate(inst, res.witness)
            assert res.witness.total_weight == res.opt_weight


def _random_routing(rng: random.Random, max_m=12, kinds=("tsp", "stsp")):
    kind = rng.choice(list(kinds))
    n = rng.randint(2, 6)
    m = rng.randint(1, max_m)
    edges = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        cap = rng.choice([1, 2]) if kind == "wrp" else None
        edges.append(Edge(u, v, rng.randint(0, 9), cap))
    if kind == "tsp":
        wps = frozenset(range(n))
    else:
        wps = frozenset(v for v in range(n) if rng.random() < 0.6) or frozenset({0})
    return Instance(kind, n, tuple(edges), wps, rng.randint(0, 40))


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_engines_agree(seed):
    inst = _random_routing(random.Random(seed), max_m=8)
    a = solve_exact_multiplicity(inst)
    b = solve_heldkarp(inst)
    assert a.opt_weight == b.opt_weight
    assert a.feasible == b.feasible


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_treewidth_engine_agrees(seed):
    inst = _random_routing(random.Random(seed), max_m=8, kinds=("tsp", "stsp", "wrp"))
    a = solve_exact_multiplicity(inst)
    c = solve_treewidth(inst)
    assert a.opt_weight == c.opt_weight, (inst, a.opt_weight, c.opt_weight)
    if c.feasible:
        assert check_certificate(inst, c.witness)
        assert c.witness.total_weight == c.opt_weight


def _connected_multigraph(rng: random.Random):
    """A random spanning tree on 6-10 vertices plus random extra edges, at
    most 14 edges in all, with at least two waypoints."""
    kind = rng.choice(["tsp", "stsp", "wrp"])
    n = rng.randint(6, 10)
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 14 - len(pairs)))]
    edges = tuple(Edge(u, v, rng.randint(0, 9), rng.choice([1, 2]) if kind == "wrp" else None)
                  for u, v in pairs)
    wps = frozenset(range(n)) if kind == "tsp" else frozenset(
        rng.sample(range(n), 2) + [v for v in range(n) if rng.random() < 0.5])
    return Instance(kind, n, edges, wps, rng.randint(0, 60))


def _treewidth_with_ops(inst):
    """solve_treewidth's result and the op list its DP ran."""
    with mock.patch.object(oracle, "_run_tw_dp", wraps=oracle._run_tw_dp) as dp:
        res = solve_treewidth(inst)
    return res, dp.call_args.args[1]


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_treewidth_engine_agrees_through_joins(seed):
    rng = random.Random(seed)
    for _ in range(20):  # most draws decompose with a join; keep the first that does
        inst = _connected_multigraph(rng)
        c, ops = _treewidth_with_ops(inst)
        if any(op == "join" for op, _ in ops):
            break
    assert any(op == "join" for op, _ in ops)
    a = solve_exact_multiplicity(inst)
    assert (a.opt_weight, a.feasible) == (c.opt_weight, c.feasible), inst
    if c.opt_weight is not None:
        at_opt = Instance(inst.kind, inst.n, inst.edges, inst.waypoints, c.opt_weight)
        assert check_certificate(at_opt, c.witness)


def test_treewidth_grid_5x5():
    """Unit 5x5 grid, capacity 2, every vertex a waypoint.  The grid is
    bipartite, so a closed walk has even length, and 25 cells need at least
    26 traversals; a Hamiltonian cycle on 24 cells plus one corner edge
    taken twice has exactly that."""
    pairs = [(r * 5 + c, r * 5 + c + 1) for r in range(5) for c in range(4)]
    pairs += [(r * 5 + c, r * 5 + c + 5) for r in range(4) for c in range(5)]
    inst = Instance("wrp", 25, tuple(Edge(u, v, 1, 2) for u, v in pairs),
                    frozenset(range(25)), 26)
    res = solve_treewidth(inst)
    assert res.feasible and res.opt_weight == 26
    assert check_certificate(inst, res.witness)


def test_multiplicity_grid_row_bound():
    with pytest.raises(ScaleError, match="rows"):
        oracle.multiplicity_grid([3] * 14 + [2])


def test_treewidth_deep_decomposition_without_recursion(monkeypatch):
    """A long cycle's decomposition is about n bags deep, past the default
    recursion limit: the engine must neither recurse nor raise the limit."""
    def refuse(limit):
        raise RuntimeError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 1500
    rng = random.Random(11)
    edges = tuple(Edge(i, i + 1, rng.randint(1, 100)) for i in range(n - 1))
    edges += (Edge(0, n - 1, rng.randint(1, 100)),)
    total, top = sum(e.weight for e in edges), max(e.weight for e in edges)
    inst = Instance("tsp", n, edges, frozenset(range(n)), 2 * total)
    res = solve_treewidth(inst)
    # all edges once, or every edge but the heaviest twice
    assert res.opt_weight == min(total, 2 * (total - top))
    assert check_certificate(inst, res.witness)


@pytest.mark.parametrize("ops, message", [
    ([("leaf", None), ("bogus", None)], "unknown"),
    ([("leaf", None), ("intro", 0), ("leaf", None), ("join", None)], "unequal bags"),
    ([("leaf", None), ("intro", 0)], "one empty bag"),
], ids=["unknown-op", "unequal-join", "open-stack"])
def test_treewidth_dp_rejects_malformed_ops(ops, message):
    with pytest.raises(InvariantError, match=message):
        oracle._run_tw_dp(triangle(), ops)


def test_equivalent():
    assert equivalent(triangle(), triangle())
    assert not equivalent(triangle(3), triangle(2))


# -- nice form ---------------------------------------------------------------

def test_make_nice_identity_on_tour():
    sol = make_solution(triangle(), (1, 1, 1))
    assert make_nice(triangle(), sol) == sol


def test_make_nice_c4_boundary():
    edges = tuple(Edge(i, (i + 1) % 4, 1) for i in range(4))
    inst = Instance("tsp", 4, edges, frozenset(range(4)), 8)
    sol = make_solution(inst, (2, 2, 2, 2))  # exactly 2n traversals
    assert make_nice(inst, sol) == sol


def test_make_nice_shrinks_k4():
    edges = tuple(Edge(u, v, 1) for u, v in itertools.combinations(range(4), 2))
    inst = Instance("tsp", 4, edges, frozenset(range(4)), 12)
    sol = make_solution(inst, (2,) * 6)
    nice = make_nice(inst, sol)
    assert check_certificate(inst, nice)
    assert nice.total_weight < sol.total_weight
    assert sum(nice.multiplicity) <= 2 * inst.n


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_make_nice_properties(seed):
    inst = _random_routing(random.Random(seed), max_m=9)
    res = solve_exact_multiplicity(
        Instance(inst.kind, inst.n, inst.edges, inst.waypoints, 10**6))
    if not res.feasible:
        return
    # inflate: double everything the witness uses (capacities permitting)
    mult = tuple(min(2, inst.effective_capacity(inst.edges[i])) if c else 0
                 for i, c in enumerate(res.witness.multiplicity))
    fat = make_solution(inst, mult)
    base = Instance(inst.kind, inst.n, inst.edges, inst.waypoints, 10**6)
    if not check_certificate(base, fat):
        fat = res.witness
    nice = make_nice(base, fat)
    assert check_certificate(base, nice)
    assert nice.total_weight <= fat.total_weight
    assert all(c <= 2 for c in nice.multiplicity)
    assert sum(nice.multiplicity) <= 2 * inst.n


# -- component-preserving cycles ---------------------------------------------

def test_cycle_precondition_k4_single():
    edges = tuple(Edge(u, v, 1) for u, v in itertools.combinations(range(4), 2))
    inst = Instance("tsp", 4, edges, frozenset(range(4)), 12)
    with pytest.raises(ValueError):
        find_component_preserving_cycle(inst, make_solution(inst, (1,) * 6))


def test_cycle_parallel_pair():
    inst = Instance("stsp", 2, (Edge(0, 1, 1), Edge(0, 1, 1)), frozenset({0, 1}), 9)
    sol = make_solution(inst, (2, 2))
    cyc = find_component_preserving_cycle(inst, sol)
    assert len(cyc) == 2


def _components_of_mult(inst, mult):
    deg = [0] * inst.n
    adj = {v: [] for v in range(inst.n)}
    for i, c in enumerate(mult):
        if c:
            e = inst.edges[i]
            deg[e.u] += c
            deg[e.v] += c
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
    support = [v for v in range(inst.n) if deg[v]]
    seen, comps = set(), []
    for s in support:
        if s in seen:
            continue
        comp, stack = set(), [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.add(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return frozenset(comps)


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_cycle_removal_preserves_components(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    m = rng.randint(1, 10)
    edges = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        edges.append(Edge(u, v, rng.randint(1, 9)))
    inst = Instance("stsp", n, tuple(edges), frozenset(), 0)
    mult = [rng.randint(0, 2) for _ in range(m)]
    support = {v for i, c in enumerate(mult) if c for v in inst.edges[i].ends()}
    if sum(mult) <= max(0, 2 * len(support) - 2):
        return
    sol = make_solution(inst, mult)
    cyc = find_component_preserving_cycle(inst, sol)
    assert cyc
    reduced = list(mult)
    for i in cyc:
        reduced[i] -= 1
        assert reduced[i] >= 0
    assert _components_of_mult(inst, mult) == _components_of_mult(inst, reduced)


# -- walks, segments, derived behaviors ---------------------------------------

def test_segments_all_inside_m():
    inst = triangle()
    walk = euler_walk(inst, make_solution(inst, (1, 1, 1)), 0)
    segs = split_into_segments(inst, walk, {0, 1, 2})
    assert len(segs) == 3
    assert [s.edge_ids for s in segs] == [(w,) for w in walk.edge_ids]


def test_segments_one_outside():
    # m1 - r - m2 - m1 with r outside M
    inst = Instance("stsp", 3, (Edge(0, 2, 1), Edge(2, 1, 1), Edge(1, 0, 1)),
                    frozenset(range(3)), 3)
    walk = euler_walk(inst, make_solution(inst, (1, 1, 1)), 0)
    segs = split_into_segments(inst, walk, {0, 1})
    assert len(segs) == 2
    lens = sorted(len(s.edge_ids) for s in segs)
    assert lens == [1, 2]


def test_segments_reconcatenate():
    rng = random.Random(7)
    for _ in range(50):
        inst = _random_routing(rng, max_m=9)
        res = solve_exact_multiplicity(
            Instance(inst.kind, inst.n, inst.edges, inst.waypoints, 10**6))
        if not res.feasible or not sum(res.witness.multiplicity):
            continue
        support = {v for i, c in enumerate(res.witness.multiplicity) if c
                   for v in inst.edges[i].ends()}
        start = min(support)
        walk = euler_walk(inst, res.witness, start)
        M = {start} | {v for v in support if rng.random() < 0.5}
        segs = split_into_segments(inst, walk, M)
        flat = [ei for s in segs for ei in s.edge_ids]
        assert flat == list(walk.edge_ids)


def test_solution_component_behavior_predicate():
    from tspkern.modulator import is_component_behavior
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        inst = _random_routing(rng, max_m=9, kinds=("tsp",))
        relax = Instance(inst.kind, inst.n, inst.edges, inst.waypoints, 10**6)
        res = solve_exact_multiplicity(relax)
        if not res.feasible or not sum(res.witness.multiplicity):
            continue
        nice = make_nice(relax, res.witness)
        support = {v for i, c in enumerate(nice.multiplicity) if c
                   for v in inst.edges[i].ends()}
        rest = sorted(support)
        if len(rest) < 2:
            continue
        M = set(rng.sample(rest, rng.randint(1, len(rest) - 1)))
        comps = [c for c in _components_of_mult(inst, nice.multiplicity)]
        walk = euler_walk(inst, nice, min(M))
        # pick a component of G minus M hit by the walk
        outside = support - M
        if not outside:
            continue
        adj = {v: set() for v in range(inst.n)}
        for e in inst.edges:
            if e.u not in M and e.v not in M:
                adj[e.u].add(e.v)
                adj[e.v].add(e.u)
        c0 = min(outside)
        C, stack = {c0}, [c0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in C:
                    C.add(w)
                    stack.append(w)
        beh = solution_component_behavior(inst, walk, M, C)
        counts = {}
        for ei in beh.edges:
            counts[ei] = counts.get(ei, 0) + 1
        r = len(C)
        assert is_component_behavior(inst, M, C, r, counts)
        checked += 1
