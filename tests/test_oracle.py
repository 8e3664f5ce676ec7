"""Exact engines, certificates, nice-form normalization, walks and segments."""

import itertools
import random
import sys
import time
import tracemalloc
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from networkx.algorithms import approximation as nx_approx

from lemmas import (
    euler_walk,
    find_component_preserving_cycle,
    is_component_behavior,
    make_nice,
    multiplicity_search,
    solution_component_behavior,
    split_into_segments,
)
from tspkern import oracle
from tspkern.gadgets import REGIMES, gen_planted
from tspkern.instance import KINDS, Edge, Instance, InvariantError, ScaleError
from tspkern.oracle import (
    DEFAULT_CAPS,
    OracleCaps,
    check_certificate,
    equivalent,
    make_solution,
    solve_auto,
    solve_exact_multiplicity,
    solve_heldkarp,
    solve_treewidth,
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


def test_caps_above_default_are_refused():
    with pytest.raises(ValueError, match="heldkarp_waypoints"):
        OracleCaps(heldkarp_waypoints=19)
    assert OracleCaps(heldkarp_waypoints=18) == OracleCaps()


def test_solve_auto_past_the_small_engines():
    """30-cycles past the multiplicity and Held-Karp caps are solved by the
    treewidth engine: 24 waypoints of a unit stsp cycle need the whole
    cycle, and two adjacent waypoints of a capacity-2 wrp cycle need their
    edge twice."""
    cycle = [(i, (i + 1) % 30) for i in range(30)]
    stsp = Instance("stsp", 30, tuple(Edge(u, v, 1) for u, v in cycle), frozenset(range(24)), 99)
    wrp = Instance("wrp", 30, tuple(Edge(u, v, 1, 2) for u, v in cycle), frozenset({0, 1}), 99)
    assert solve_auto(stsp).opt_weight == 30
    assert solve_auto(wrp).opt_weight == 2


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
    inst = _random_routing(random.Random(seed), max_m=12)
    a = solve_exact_multiplicity(inst)
    b = solve_heldkarp(inst)
    assert a.opt_weight == b.opt_weight
    assert a.feasible == b.feasible
    if b.feasible:
        assert check_certificate(inst, b.witness)


def _closure_tour_reference(inst):
    """Held-Karp's optimum by brute force: the cheapest closed order of the
    waypoints on the metric closure (Floyd-Warshall), None when some
    waypoint is unreachable."""
    dist = [[0 if u == v else None for v in range(inst.n)] for u in range(inst.n)]
    for e in inst.edges:
        if e.u != e.v and (dist[e.u][e.v] is None or e.weight < dist[e.u][e.v]):
            dist[e.u][e.v] = dist[e.v][e.u] = e.weight
    for k, i, j in itertools.product(range(inst.n), repeat=3):
        if dist[i][k] is not None and dist[k][j] is not None:
            if dist[i][j] is None or dist[i][k] + dist[k][j] < dist[i][j]:
                dist[i][j] = dist[i][k] + dist[k][j]
    first, *rest = sorted(inst.waypoints)
    if any(dist[first][w] is None for w in rest):
        return None
    return min(sum(dist[a][b] for a, b in zip((first, *order), (*order, first)))
               for order in itertools.permutations(rest))


def _waypoint_multigraph(rng: random.Random, big: bool):
    """A random tsp or stsp multigraph with 2-7 waypoints, mostly built on a
    spanning tree, with parallel edges and zero weights.  With `big`,
    every weight is at least 2^61."""
    kind = rng.choice(["tsp", "stsp"])
    n = rng.randint(2, 7 if kind == "tsp" else 9)
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)] if rng.random() < 0.75 else []
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
    pairs += rng.sample(pairs, len(pairs) // 3)  # parallel copies
    lo, hi = (2**61, 2**61 + 2**40) if big else (0, 9)
    edges = tuple(Edge(u, v, rng.randint(lo, hi)) for u, v in pairs)
    wps = frozenset(range(n)) if kind == "tsp" else frozenset(rng.sample(range(n), rng.randint(2, min(n, 7))))
    total = sum(e.weight for e in edges)
    return Instance(kind, n, edges, wps, rng.randint(0, 2 * total))


@given(st.integers(0, 10**6), st.booleans(), st.sampled_from([1, 2, oracle.HELDKARP_SLICE]))
@example(seed=0, big=True, slice_=oracle.HELDKARP_SLICE)
@settings(max_examples=120, deadline=None)
def test_heldkarp_matches_brute_force(seed, big, slice_):
    """Optimum and verdict equal the brute force over waypoint orders, the
    witness weighs the optimum and is a certificate at that budget, and
    slicing the layers changes nothing.  Big weights put the DP's sums past
    int64, so the engine runs on exact Python ints: a tour of four or more
    legs then weighs at least 2^63."""
    inst = _waypoint_multigraph(random.Random(seed), big)
    want = _closure_tour_reference(inst)
    with mock.patch.object(oracle, "HELDKARP_SLICE", slice_):
        res = solve_heldkarp(inst)
    assert (res.opt_weight, res.feasible) == (want, want is not None and want <= inst.budget)
    if want is not None:
        assert res.witness.total_weight == want
        at_opt = Instance(inst.kind, inst.n, inst.edges, inst.waypoints, want)
        assert check_certificate(at_opt, res.witness)
        if big and len(inst.waypoints) >= 4:
            assert want >= 2**63


def test_heldkarp_long_cycle():
    """A 2000-vertex cycle with 3 waypoints: the shortest paths are searched
    from the waypoints only, not over all vertex pairs.  The optimum is the
    whole cycle, or twice the cycle minus its longest waypoint-free arc."""
    n = 2000
    rng = random.Random(5)
    edges = tuple(Edge(i, (i + 1) % n, rng.randint(1, 100)) for i in range(n))
    wps = (0, 700, 1500)
    total = sum(e.weight for e in edges)
    arcs = [sum(e.weight for e in edges[a:b]) for a, b in zip(wps, wps[1:] + (n,))]
    want = min(total, 2 * (total - max(arcs)))
    inst = Instance("stsp", n, edges, frozenset(wps), want)
    start = time.perf_counter()
    res = solve_auto(inst)
    elapsed = time.perf_counter() - start
    assert res.feasible and res.opt_weight == want
    assert check_certificate(inst, res.witness)
    assert elapsed < 2, f"{elapsed:.2f} s"


def test_heldkarp_memory_at_cap():
    """18 waypoints, the default cap: the tables hold 2^17 x 17 cells,
    about 18 MB of int64 costs and 2 MB of int8 parents.  Sliced layers
    keep the working arrays to a few MB beside them."""
    rng = random.Random(9)
    n = 28
    pairs = [(i, rng.randrange(i)) for i in range(1, n)] + [tuple(rng.sample(range(n), 2))
                                                          for _ in range(2 * n)]
    edges = tuple(Edge(u, v, rng.randint(1, 50)) for u, v in pairs)
    inst = Instance("stsp", n, edges, frozenset(rng.sample(range(n), 18)), 10**6)
    tracemalloc.start()
    try:
        res = solve_heldkarp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.feasible and check_certificate(inst, res.witness)
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"


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


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_treewidth_engine_agrees_through_joins(seed):
    rng = random.Random(seed)
    for _ in range(20):  # most draws have a bag of two children; keep the first that does
        inst = _connected_multigraph(rng)
        children = oracle._layout(inst, DEFAULT_CAPS)[1]
        if any(len(c) >= 2 for c in children):
            break
    assert any(len(c) >= 2 for c in children)
    c = solve_treewidth(inst)
    a = solve_exact_multiplicity(inst)
    assert (a.opt_weight, a.feasible) == (c.opt_weight, c.feasible), inst
    if c.opt_weight is not None:
        at_opt = Instance(inst.kind, inst.n, inst.edges, inst.waypoints, c.opt_weight)
        assert check_certificate(at_opt, c.witness)


def _layout_cases(case):
    """Instances whose treewidth layout the tests below read."""
    if case.startswith("grid"):
        rows = int(case[-1])
        edges = tuple(Edge(u, v, 1, 2) for u, v in _grid_pairs(rows, rows))
        return [Instance("wrp", rows * rows, edges, frozenset(range(rows * rows)), 0)]
    if case == "planted":
        return [gen_planted(kind, regime, 3, 2, 120, seed=seed)
                for seed, kind in enumerate(KINDS) for regime in REGIMES]
    rng = random.Random(5)
    return [_connected_multigraph(rng) for _ in range(60)]


@pytest.mark.parametrize("case", ["grid-4x4", "grid-5x5", "planted", "random"])
def test_treewidth_bits_distinct_within_every_bag(case):
    """The DP gives each vertex one bit for the whole run: no two vertices
    of a bag may share it, and at most width + 1 bits are used."""
    for inst in _layout_cases(case):
        bags, _, _, bit = oracle._layout(inst, DEFAULT_CAPS)
        width = oracle._decompose(inst)[0]
        assert max(map(len, bags)) == width + 1
        for bag in bags:
            assert len({bit[v] for v in bag}) == len(bag), (inst, sorted(bag))
        assert 0 <= min(bit) and max(bit) <= width, inst


@pytest.mark.parametrize("case", ["grid-4x4", "grid-5x5", "planted", "random"])
def test_treewidth_edges_homed_at_first_bag_holding_both_ends(case):
    """Each edge is added at the first bag, by index, that holds both its
    ends, and at no other."""
    for inst in _layout_cases(case):
        bags, _, homed, _ = oracle._layout(inst, DEFAULT_CAPS)
        home = {i: b for b, edges in enumerate(homed) for i in edges}
        assert sorted(i for edges in homed for i in edges) == list(range(len(inst.edges)))
        for i, e in enumerate(inst.edges):
            assert home[i] == next(b for b, bag in enumerate(bags) if e.u in bag and e.v in bag)


def _grid_pairs(rows, cols):
    """The edges of a rows x cols grid, vertex r * cols + c at row r, column c."""
    pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    return pairs + [(r * cols + c, r * cols + c + cols) for r in range(rows - 1)
                    for c in range(cols)]


def test_treewidth_grid_5x5():
    """Unit 5x5 grid, capacity 2, every vertex a waypoint.  The grid is
    bipartite, so a closed walk has even length, and 25 cells need at least
    26 traversals; a Hamiltonian cycle on 24 cells plus one corner edge
    taken twice has exactly that."""
    inst = Instance("wrp", 25, tuple(Edge(u, v, 1, 2) for u, v in _grid_pairs(5, 5)),
                    frozenset(range(25)), 26)
    res = solve_treewidth(inst)
    assert res.feasible and res.opt_weight == 26
    assert check_certificate(inst, res.witness)


def test_treewidth_grid_5x5_join_work(monkeypatch):
    """The DP's work depends on how the decomposition is laid out, not only
    on its width.  With the core's bags laid out in networkx's neighbour
    order the unit 5x5 grid merges blocks 37 518 times (networkx 3.6); with
    that order reversed it merged them 91 952 times and took 2-3x longer."""
    merges = []
    merge = oracle._merge_blocks
    monkeypatch.setattr(oracle, "_merge_blocks", lambda *a: merges.append(1) or merge(*a))
    inst = Instance("wrp", 25, tuple(Edge(u, v, 1, 2) for u, v in _grid_pairs(5, 5)),
                    frozenset(range(25)), 26)
    assert solve_treewidth(inst).opt_weight == 26
    assert len(merges) <= 60_000


def test_multiplicity_grid_folds_in_mixed_radix_order():
    bases = [2, 3, 1, 3]
    # x[0] varies fastest: product varies its last factor fastest, so reverse
    vectors = [x[::-1] for x in itertools.product(*(range(b) for b in reversed(bases)))]
    counts = [np.arange(base) for base in bases]
    assert list(oracle.multiplicity_grid(bases, counts)) == [sum(x) for x in vectors]
    values = np.array([[0, 5, 0], [0, 6, 3], [9, 9, 9], [0, 12, 12]])
    expect = [values[0, x[0]] ^ values[1, x[1]] ^ values[2, x[2]] ^ values[3, x[3]]
              for x in vectors]
    assert list(oracle.multiplicity_grid(bases, values, np.bitwise_xor)) == expect


def _mult_reference(inst):
    """The multiplicity engine's answer by brute force: the first vector in
    (weight, flat index) order, x[0] varying fastest, that respects the
    capacities, has even degrees, and whose support is connected and covers
    every waypoint."""
    m = len(inst.edges)
    if len(inst.waypoints) <= 1:
        return 0 <= inst.budget, 0, (0,) * m
    ranges = [range(inst.effective_capacity(e) + 1) for e in inst.edges]
    best = None
    for index, rev in enumerate(itertools.product(*reversed(ranges))):
        x = rev[::-1]
        deg = [0] * inst.n
        parent = list(range(inst.n))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for c, e in zip(x, inst.edges):
            if c:
                deg[e.u] += c
                deg[e.v] += c
                parent[find(e.u)] = find(e.v)
        if any(d % 2 for d in deg) or not all(deg[w] for w in inst.waypoints):
            continue
        if len({find(v) for v in range(inst.n) if deg[v]}) != 1:
            continue
        key = (sum(c * e.weight for c, e in zip(x, inst.edges)), index)
        if best is None or key < best[0]:
            best = (key, x)
    if best is None:
        return False, None, None
    weight = best[0][0]
    return weight <= inst.budget, weight, best[1]


def _small_multigraph(rng: random.Random, big: bool):
    """A random connected multigraph with at most 9 edges: a spanning tree
    plus extra edges, some of them parallel to an earlier one.  With `big`,
    weights are just above 2^60 and their total is at least 2^61."""
    kind = rng.choice(["tsp", "stsp", "wrp"])
    n = rng.randint(2, 6)
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    m = rng.randint(max(n - 1, 2 if big else 1), 9)  # big: two edges pass 2^61
    while len(pairs) < m:
        pairs.append(rng.choice(pairs) if rng.random() < 0.4 else tuple(rng.sample(range(n), 2)))
    lo, hi = (2**60, 2**60 + 2**40) if big else (0, 9)
    edges = tuple(Edge(u, v, rng.randint(lo, hi), rng.choice([1, 2]) if kind == "wrp" else None)
                  for u, v in pairs)
    wps = frozenset(range(n)) if kind == "tsp" else frozenset(
        order[:2] + [v for v in range(n) if rng.random() < 0.5])
    total = sum(e.weight for e in edges)
    return Instance(kind, n, edges, wps, rng.randint(0, 2 * total))


@given(st.integers(0, 10**6), st.booleans())
@example(seed=1, big=True)
@settings(max_examples=80, deadline=None)
def test_multiplicity_engine_matches_brute_force(seed, big):
    inst = _small_multigraph(random.Random(seed), big)
    if big:
        assert inst.total_weight() >= 2**61
    feasible, weight, witness = _mult_reference(inst)
    res = solve_exact_multiplicity(inst)
    assert (res.feasible, res.opt_weight) == (feasible, weight), inst
    assert (res.witness.multiplicity if res.witness else None) == witness, inst


@st.composite
def small_inputs(draw):
    """tsp, stsp and wrp inputs of at most 10 edges on at most 7 vertices,
    connected or not; a pair drawn twice is a parallel edge."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = tuple(Edge(u, v, draw(st.integers(0, 9)),
                       draw(st.sampled_from([1, 2])) if kind == "wrp" else None)
                  for u, v in draw(st.lists(pair, min_size=1, max_size=10)))
    wps = frozenset(range(n)) if kind == "tsp" else draw(st.frozensets(st.integers(0, n - 1)))
    return Instance(kind, n, edges, wps, draw(st.integers(0, 60)))


def _two_triangles(kind, bridge):
    """Two disjoint weight-1 triangles, optionally joined by a weight-9 edge
    of capacity `bridge`, with waypoints on both: the cheapest even covering
    vectors stay inside the triangles, so their supports are not connected."""
    cap = 2 if kind == "wrp" else None
    edges = [Edge(u, v, 1, cap) for u, v in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))]
    if bridge:
        edges.append(Edge(2, 3, 9, bridge if kind == "wrp" else None))
    wps = range(6) if kind == "tsp" else (0, 5)
    return Instance(kind, 6, tuple(edges), frozenset(wps), 30)


@given(small_inputs())
@example(_two_triangles("tsp", 2))
@example(_two_triangles("stsp", 2))
@example(_two_triangles("wrp", 2))
@example(_two_triangles("wrp", 1))
@example(_two_triangles("tsp", 0))
@settings(max_examples=150, deadline=None)
def test_multiplicity_engine_matches_walked_search(inst):
    """The engine's block merge finds the same feasibility, optimum and
    witness as walking each candidate's support."""
    got, want = solve_exact_multiplicity(inst), multiplicity_search(inst)
    assert (got.feasible, got.opt_weight) == (want.feasible, want.opt_weight), inst
    assert ((got.witness.multiplicity if got.witness else None)
            == (want.witness.multiplicity if want.witness else None)), inst


def test_merge_blocks_of_edge_end_masks():
    """Each edge's end mask absorbs the blocks it meets: two disjoint
    triangles give two blocks, and a path gives one even when its middle
    edge comes last."""
    triangle = [0b011, 0b110, 0b101]
    two = triangle + [b << 3 for b in triangle]
    assert oracle._merge_blocks(two[:1], two) == (0b000111, 0b111000)
    path = [0b0011, 0b1100, 0b0110]
    assert oracle._merge_blocks(path[:1], path) == (0b1111,)


def test_multiplicity_engine_memory():
    """14 capacity-2 edges on 8 vertices, every vertex a waypoint: 3^14
    vectors, the most the default edge cap allows.  Two flat 4-byte masks per
    vector stay well under what a materialized vector grid needs."""
    rng = random.Random(7)
    order = rng.sample(range(8), 8)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, 8)]
    pairs += [tuple(rng.sample(range(8), 2)) for _ in range(7)]
    edges = tuple(Edge(u, v, rng.randint(1, 9), 2) for u, v in pairs)
    inst = Instance("wrp", 8, edges, frozenset(range(8)), 100)
    tracemalloc.start()
    try:
        res = solve_exact_multiplicity(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.opt_weight is not None
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


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
    with _watch_networkx() as min_fill:
        res = solve_treewidth(inst)
    assert not min_fill.called  # a cycle peels down to nothing
    # all edges once, or every edge but the heaviest twice
    assert res.opt_weight == min(total, 2 * (total - top))
    assert check_certificate(inst, res.witness)


def _watch_networkx():
    return mock.patch.object(nx_approx, "treewidth_min_fill_in",
                             wraps=nx_approx.treewidth_min_fill_in)


def _graph(n, pairs):
    """An all-waypoint instance on the edges `pairs`; only its graph matters here."""
    return Instance("tsp", n, tuple(Edge(u, v, 1) for u, v in pairs), frozenset(range(n)), 0)


def _checked_width(inst):
    """The width `_decompose` reports, once its bags are checked to form a
    tree decomposition of the instance's graph of exactly that width."""
    width, bags, parent = oracle._decompose(inst)
    assert parent[0] == -1 and all(0 <= parent[b] < b for b in range(1, len(bags)))
    for e in inst.edges:
        assert any(e.u in bag and e.v in bag for bag in bags), e
    for v in range(inst.n):
        # v's bags form a connected subtree: exactly one has no parent holding v
        tops = [b for b, bag in enumerate(bags)
                if v in bag and (b == 0 or v not in bags[parent[b]])]
        assert len(tops) == 1, (v, tops)
    assert width == max(map(len, bags)) - 1
    return width


def _several_components(rng: random.Random, shape: str):
    """(n, pairs): a multigraph of a few components, with isolated vertices
    and parallel edges.  Each component is a spanning tree minus a few
    edges; for "cycle" the first is a cycle of at least three vertices
    instead, and for "any" every component gets random extra edges."""
    n = rng.randint(3, 16)
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(3, n), min(n - 3, rng.randint(0, 3))))
    pairs = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        comp = order[lo:hi]
        if shape == "cycle" and lo == 0:
            pairs += list(zip(comp, comp[1:] + comp[:1]))
            continue
        pairs += [(comp[i], comp[rng.randrange(i)]) for i in range(1, len(comp))
                  if rng.random() < 0.85]
        if shape == "any" and len(comp) > 1:
            pairs += [tuple(rng.sample(comp, 2)) for _ in range(rng.randint(0, 2 * len(comp)))]
    if pairs:
        pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 3))]
    return n, pairs


@given(st.integers(0, 10**6), st.sampled_from(["any", "forest", "cycle"]))
@settings(max_examples=300, deadline=None)
def test_decomposition_is_valid(seed, shape):
    n, pairs = _several_components(random.Random(seed), shape)
    width = _checked_width(_graph(n, pairs))
    if shape == "forest":
        assert width == (1 if pairs else 0)
    elif shape == "cycle":
        assert width == 2


def test_networkx_sees_only_the_core():
    with _watch_networkx() as min_fill:
        gen_planted("tsp", "vc", 3, 1, 800, seed=1)
    assert not min_fill.called
    with _watch_networkx() as min_fill:
        _checked_width(_graph(16, _grid_pairs(4, 4)))
    # the four corners peel; the twelve other vertices keep degree 3 or 4
    assert min_fill.call_count == 1
    assert min_fill.call_args.args[0].number_of_nodes() == 12


def test_decomposition_never_wider_than_networkx():
    """On planted inputs of every kind and regime, and two grids, the width
    is at most that of networkx's min-fill-in on the whole graph."""
    graphs = [_graph(rows * cols, _grid_pairs(rows, cols)) for rows, cols in ((4, 4), (5, 5))]
    for seed in range(50):
        n = 10 + 7 * seed % 71
        graphs += [gen_planted(kind, regime, 1 + seed % 3, 1 + seed % 2, n, seed=seed)
                   for kind in KINDS for regime in REGIMES]
    for inst in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(inst.n))
        G.add_edges_from(e.ends() for e in inst.edges)
        assert _checked_width(inst) <= nx_approx.treewidth_min_fill_in(G)[0], inst


def test_layout_rejects_a_decomposition_that_misses_an_edge(monkeypatch):
    """A triangle with a pendant edge: the pendant's bag is laid out last,
    and without it the edge to vertex 3 lies in no bag."""
    edges = (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1), Edge(2, 3, 1))
    inst = Instance("tsp", 4, edges, frozenset(range(4)), 8)
    width, bags, parent = oracle._decompose(inst)
    assert bags[-1] == {2, 3}
    monkeypatch.setattr(oracle, "_decompose", lambda _: (width, bags[:-1], parent[:-1]))
    with pytest.raises(InvariantError, match="misses an edge"):
        oracle._layout(inst, DEFAULT_CAPS)
    with pytest.raises(InvariantError, match="misses an edge"):
        solve_treewidth(inst)


def test_decompose_rejects_a_core_decomposition_that_misses_a_clique():
    """K4 plus vertex 4 on 0 and 1: vertex 4 peels, and its bag must hang
    below a core bag holding both 0 and 1.  A core decomposition with no
    such bag is refused."""
    inst = _graph(5, [*itertools.combinations(range(4), 2), (4, 0), (4, 1)])
    tree = nx.Graph([(frozenset({0, 2, 3}), frozenset({1, 2, 3}))])
    with mock.patch.object(nx_approx, "treewidth_min_fill_in", return_value=(2, tree)):
        with pytest.raises(InvariantError, match="misses a clique"):
            oracle._decompose(inst)


def test_witnessed_rejects_an_unsound_witness():
    tour = make_solution(triangle(), (1, 1, 1))
    with pytest.raises(InvariantError, match="weighs 3, optimum 4"):
        oracle._witnessed(triangle(), 4, tour, "test")
    path = make_solution(triangle(), (1, 1, 0))  # odd degrees at 0 and 2
    with pytest.raises(InvariantError, match="not a certificate"):
        oracle._witnessed(triangle(), 2, path, "test")
    # past the budget the witness is not read as a certificate
    assert oracle._witnessed(triangle(1), 2, path, "test") == oracle.OptResult(False, 2, path)


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
