"""Exact engines, certificates, nice-form normalization, walks and segments."""

import itertools
import random
import sys
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
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
from tspkern.instance import (
    KINDS,
    MAX_WEIGHT,
    Edge,
    Instance,
    InvariantError,
    ScaleError,
    as_wrp,
    merge_blocks,
)
from tspkern.oracle import (
    DEFAULT_CAPS,
    OracleCaps,
    check_certificate,
    make_solution,
    solve_auto,
    solve_exact_multiplicity,
    solve_heldkarp,
    solve_treewidth,
)
from tspkern.pipelines import PIPELINES


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


def test_certificate_length_guards():
    with pytest.raises(ValueError) as exc:
        make_solution(triangle(), (1, 1))
    assert str(exc.value) == "multiplicity vector length != edge count"
    with pytest.raises(ValueError) as exc:
        check_certificate(p3(), make_solution(triangle(), (1, 1, 1)))
    assert str(exc.value) == "multiplicity vector length != edge count"


def test_certificate_weighs_its_multiplicities():
    """A stated weight that is not the sum of multiplicity times weight
    fails, before the budget test and the one-waypoint shortcut read it."""
    inst = Instance("tsp", 3, tuple(Edge(u, v, 5) for u, v in ((0, 1), (1, 2), (0, 2))),
                    frozenset(range(3)), 3)
    assert not check_certificate(inst, oracle.SolutionMultigraph((1, 1, 1), 0))
    assert check_certificate(replace(inst, budget=15), make_solution(inst, (1, 1, 1)))
    one = p3(kind="stsp", waypoints={1}, budget=0)
    assert not check_certificate(one, oracle.SolutionMultigraph((0, 0), -1))


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


def test_auto_engine_sends_inputs_without_a_core_to_the_dp():
    """Within the multiplicity cap the DP takes what the peel decomposes
    whole and the multiplicity engine keeps a core; past it the dispatch is
    as before: Held-Karp when its cap admits the input, else the DP."""
    k4 = Instance("tsp", 4, tuple(Edge(u, v, 1) for u, v in itertools.combinations(range(4), 2)),
                  frozenset(range(4)), 9)
    tsp15 = Instance("tsp", 15, tuple(Edge(i, (i + 1) % 15, 1) for i in range(15)),
                     frozenset(range(15)), 15)
    wrp16 = Instance("wrp", 16, tuple(Edge(i, (i + 1) % 16, 1, 2) for i in range(16)),
                     frozenset(range(16)), 16)
    assert oracle.auto_engine(triangle()) == "treewidth"
    assert oracle.auto_engine(k4) == "multiplicity"
    assert oracle.auto_engine(tsp15) == "heldkarp"
    assert oracle.auto_engine(wrp16) == "treewidth"
    # a DP narrower than the peel's bags leaves the input to the multiplicity engine
    assert oracle.auto_engine(triangle(), OracleCaps(treewidth_width=1)) == "multiplicity"
    # so do isolated vertices past what the edges could connect
    lone = Instance("stsp", 5, triangle().edges, frozenset({0, 1}), 9)
    assert oracle.auto_engine(lone) == "multiplicity"


# (pipeline, planted kind, planted regime, r), shaped like the benchmark's
# kernel-verify inputs; vc-wrp takes capacity-2 copies of stsp inputs
SMALL_PLANTED = (("fes", "tsp", "fes", 1), ("fes", "stsp", "fes", 1), ("vc-tsp", "tsp", "vc", 1),
                 ("vc-wrp", "stsp", "vc", 1), ("components", "tsp", "components", 2),
                 ("paths", "stsp", "paths", 2), ("fes", "wrp", "fes", 1))


def test_solve_auto_matches_multiplicity_on_small_planted_inputs_and_kernels():
    """Small planted inputs of every regime, and their kernels, mostly have
    treewidth at most 2, so `solve_auto` gives them to the DP: its verdict
    and optimum are the multiplicity engine's, and its witnesses are
    certificates."""
    engines = []
    for (pipeline, kind, planted, r), k, seed in itertools.product(SMALL_PLANTED, (1, 2, 3),
                                                                  range(3)):
        inst = gen_planted(kind, planted, k, r, 7 + seed % 2, seed=seed)
        inst = as_wrp(inst) if pipeline == "vc-wrp" else inst
        kernel, report = PIPELINES[pipeline](inst, r=r)
        for x in (inst,) if report.decided else (inst, kernel):
            engines.append(oracle.auto_engine(x))
            got, want = solve_auto(x), solve_exact_multiplicity(x)
            assert (got.feasible, got.opt_weight) == (want.feasible, want.opt_weight), x
            if got.feasible:
                assert check_certificate(x, got.witness)
    assert engines.count("treewidth") > 0.9 * len(engines)


def test_heldkarp_examples():
    assert solve_heldkarp(triangle()).opt_weight == 3
    sub = p3(kind="stsp", waypoints={0, 2}, budget=99)
    assert solve_heldkarp(sub).opt_weight == 4
    assert solve_heldkarp(star13(budget=99)).opt_weight == 6


@pytest.mark.parametrize("w0, w1, witness", [(3, 3, (2, 0, 0)), (3, 5, (2, 0, 0)),
                                             (5, 3, (0, 2, 0))])
def test_heldkarp_keeps_the_first_shortest_edge(w0, w1, witness):
    """Of parallel edges the cheapest, then the lowest id, joins the
    waypoints; the solve digests leave witnesses out, so this pins it."""
    inst = Instance("stsp", 3, (Edge(0, 1, w0), Edge(0, 1, w1), Edge(1, 2, 1)),
                    frozenset({0, 1}), 99)
    assert solve_heldkarp(inst).witness.multiplicity == witness


# the unit 4x4 tsp grid and a unit 4x5 stsp grid with six waypoints
HELDKARP_TIES = [
    ("tsp", 4, 4, range(16), 16,
     (1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1)),
    ("stsp", 4, 5, (0, 4, 7, 12, 15, 19), 18,
     (1, 1, 2, 2, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("kind, rows, cols, wps, opt, witness", HELDKARP_TIES,
                         ids=["tsp-4x4", "stsp-4x5"])
def test_heldkarp_witness_among_tied_tours(kind, rows, cols, wps, opt, witness):
    """Unit grids have many tours of equal weight; the tour is read back
    from the cost table, each step taking the first predecessor at the
    minimum, and these are the witnesses that rule picks."""
    edges = tuple(Edge(u, v, 1) for u, v in _grid_pairs(rows, cols))
    inst = Instance(kind, rows * cols, edges, frozenset(wps), 99)
    res = solve_heldkarp(inst)
    assert res.opt_weight == opt and res.witness.multiplicity == witness


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


def _closure(inst):
    """The metric closure by Floyd-Warshall: dist[u][v], None when v is
    unreachable from u."""
    dist = [[0 if u == v else None for v in range(inst.n)] for u in range(inst.n)]
    for e in inst.edges:
        if e.u != e.v and (dist[e.u][e.v] is None or e.weight < dist[e.u][e.v]):
            dist[e.u][e.v] = dist[e.v][e.u] = e.weight
    for k, i, j in itertools.product(range(inst.n), repeat=3):
        if dist[i][k] is not None and dist[k][j] is not None:
            if dist[i][j] is None or dist[i][k] + dist[k][j] < dist[i][j]:
                dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def _closure_tour_reference(inst):
    """Held-Karp's optimum by brute force: the cheapest closed order of the
    waypoints on the metric closure, None when some waypoint is
    unreachable."""
    dist = _closure(inst)
    first, *rest = sorted(inst.waypoints)
    if any(dist[first][w] is None for w in rest):
        return None
    return min(sum(dist[a][b] for a, b in zip((first, *order), (*order, first)))
               for order in itertools.permutations(rest))


# weight ranges of `_waypoint_multigraph`: small, just under and just over
# 2^8, 2^16 and 2^32, and past 2^61
BIG_WEIGHTS = (2**61, 2**61 + 2**40)
WEIGHT_RANGES = ((0, 9), *((2**b - 3, 2**b + 3) for b in (8, 16, 32)), BIG_WEIGHTS)


def _waypoint_multigraph(rng: random.Random, weights):
    """A random tsp or stsp multigraph with 2-7 waypoints, mostly built on a
    spanning tree, with parallel edges, and weights drawn from the range
    `weights`."""
    kind = rng.choice(["tsp", "stsp"])
    n = rng.randint(2, 7 if kind == "tsp" else 9)
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)] if rng.random() < 0.75 else []
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
    pairs += rng.sample(pairs, len(pairs) // 3)  # parallel copies
    edges = tuple(Edge(u, v, rng.randint(*weights)) for u, v in pairs)
    wps = frozenset(range(n)) if kind == "tsp" else frozenset(rng.sample(range(n), rng.randint(2, min(n, 7))))
    total = sum(e.weight for e in edges)
    return Instance(kind, n, edges, wps, rng.randint(0, 2 * total))


@given(st.integers(0, 10**6), st.sampled_from(WEIGHT_RANGES),
       st.sampled_from([1, 2, oracle.HELDKARP_SLICE]))
@example(seed=0, weights=BIG_WEIGHTS, slice_=oracle.HELDKARP_SLICE)
@settings(max_examples=200, deadline=None)
def test_heldkarp_matches_brute_force(seed, weights, slice_):
    """Optimum and verdict equal the brute force over waypoint orders, the
    witness weighs the optimum and is a certificate at that budget, and
    slicing the layers changes nothing.  The weight ranges put the DP in
    each dtype its rule picks: uint8 to uint64 as the sums grow, and exact
    Python ints past 2^64; with weights past 2^61 a tour of four or more
    legs weighs at least 2^63."""
    inst = _waypoint_multigraph(random.Random(seed), weights)
    want = _closure_tour_reference(inst)
    with mock.patch.object(oracle, "HELDKARP_SLICE", slice_):
        res = solve_heldkarp(inst)
    assert (res.opt_weight, res.feasible) == (want, want is not None and want <= inst.budget)
    if want is not None:
        assert res.witness.total_weight == want
        at_opt = Instance(inst.kind, inst.n, inst.edges, inst.waypoints, want)
        assert check_certificate(at_opt, res.witness)
        if weights == BIG_WEIGHTS and len(inst.waypoints) >= 4:
            assert want >= 2**63


@given(st.integers(0, 10**6), st.sampled_from((8, 16, 32, 64)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_heldkarp_at_each_dtype_boundary(seed, bits, over):
    """Every sum the DP forms is at most (ell + 1) * D + 1, D the longest
    distance between two waypoints.  Scaling the weights by f puts that
    bound just below 2^bits, filling its dtype to the brim, or, with
    `over`, just past it; the optimum scales by f."""
    inst = _waypoint_multigraph(random.Random(seed), (1, 3))
    dist, wps = _closure(inst), sorted(inst.waypoints)
    assume(all(dist[wps[0]][w] is not None for w in wps))
    ell, top = len(wps), max(dist[a][b] for a in wps for b in wps)
    f = (2**bits - 2) // ((ell + 1) * top) + over
    assume(1 <= f <= MAX_WEIGHT // max(e.weight for e in inst.edges))
    assert ((ell + 1) * f * top + 1 < 2**bits) != over
    want = f * _closure_tour_reference(inst)
    edges = tuple(Edge(e.u, e.v, f * e.weight) for e in inst.edges)
    scaled = Instance(inst.kind, inst.n, edges, inst.waypoints, want)  # budget at the optimum
    res = solve_heldkarp(scaled)
    assert res.opt_weight == want and check_certificate(scaled, res.witness)


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


def _traced(solve, inst):
    """`solve(inst)` and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return solve(inst), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_stsp(n, ell):
    """A fixed random stsp graph: a spanning tree on n vertices plus 2n
    random edges, weights 1-50, and ell waypoints."""
    rng = random.Random(9)
    pairs = [(i, rng.randrange(i)) for i in range(1, n)] + [tuple(rng.sample(range(n), 2))
                                                          for _ in range(2 * n)]
    edges = tuple(Edge(u, v, rng.randint(1, 50)) for u, v in pairs)
    return Instance("stsp", n, edges, frozenset(rng.sample(range(n), ell)), 10**6)


def test_heldkarp_memory_at_cap():
    """18 waypoints, the default cap: the table holds 2^17 x 17 cells,
    here 4.5 MB of uint16 costs.  Sliced layers keep the working arrays
    to a few MB beside it."""
    inst = _random_stsp(28, 18)
    res, peak = _traced(solve_heldkarp, inst)
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
    _dp_agrees(_with_a_join(_connected_multigraph, random.Random(seed)), solve_exact_multiplicity)


def _with_a_join(draw, rng):
    """The first of up to 20 draws whose layout has a bag of two or more
    children; most draws have one."""
    for _ in range(20):
        inst = draw(rng)
        if any(len(c) >= 2 for c in oracle._layout(inst, DEFAULT_CAPS)[1]):
            return inst
    pytest.fail("20 draws without a bag of two children")


def _dp_agrees(inst, reference):
    """The DP and the `reference` engine give the same optimum and verdict,
    and the DP's witness is a certificate at its optimum."""
    c, a = solve_treewidth(inst), reference(inst)
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
    if case in ("planted", "trimmed"):
        insts = [gen_planted(kind, regime, 3, 2, 120, seed=seed)
                 for seed, kind in enumerate(KINDS) for regime in REGIMES]
        if case == "planted":
            return insts
        cores = [oracle._trim_pendants(inst) for inst in insts]
        return [core for core, _, _ in filter(None, cores) if core is not None]
    rng = random.Random(5)
    return [_connected_multigraph(rng) for _ in range(60)]


def _scope_bags(inst):
    """How many bags `_layout` adds to the decomposition's: its scope bags."""
    return len(oracle._layout(inst, DEFAULT_CAPS)[0]) - len(oracle._decompose(inst)[1])


@pytest.mark.parametrize("case", ["planted", "trimmed"])
def test_layout_cases_hold_scope_bags(case):
    """The layout tests below meet scope bags, both on planted inputs and
    on the cores their trim leaves."""
    assert sum(_scope_bags(inst) > 0 for inst in _layout_cases(case)) >= 3


@pytest.mark.parametrize("case", ["grid-4x4", "grid-5x5", "planted", "trimmed", "random"])
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


@pytest.mark.parametrize("case", ["grid-4x4", "grid-5x5", "planted", "trimmed", "random"])
def test_treewidth_edges_homed_at_first_bag_holding_both_ends(case):
    """Each edge is added at the first bag, by index, that holds both its
    ends, and at no other."""
    for inst in _layout_cases(case):
        bags, _, homed, _ = oracle._layout(inst, DEFAULT_CAPS)
        home = {i: b for b, edges in enumerate(homed) for i in edges}
        assert sorted(i for edges in homed for i in edges) == list(range(len(inst.edges)))
        for i, e in enumerate(inst.edges):
            assert home[i] == next(b for b, bag in enumerate(bags) if e.u in bag and e.v in bag)


def test_scope_bags_group_the_children_that_share_a_scope():
    """A path 0-1-2, vertices 3-6 each on 0 and 1, and 7 and 8 each on 1
    and 2.  The peel hangs the bags of 4, 5 and 6, of scope {0, 1}, and the
    bag of 7, of scope {1}, below the bag {0, 1, 3}.  So the first three
    join under a bag {0, 1} that homes no edge, and that bag's table meets
    the parent's once."""
    pairs = [(0, 1), (1, 2)] + [(v, u) for v in range(3, 7) for u in (0, 1)]
    pairs += [(v, u) for v in (7, 8) for u in (1, 2)]
    inst = _graph(9, pairs)
    bags, children, homed, _ = oracle._layout(inst, DEFAULT_CAPS)
    assert len(bags) == len(oracle._decompose(inst)[1]) + 1
    s = len(bags) - 1
    (b,) = [b for b in range(s) if s in children[b]]
    assert bags[s] == {0, 1} < bags[b] == {0, 1, 3} and homed[s] == []
    assert sorted(min(bags[c] - bags[s]) for c in children[s]) == [4, 5, 6]
    assert [bags[c] & bags[b] for c in children[b]] == [{0, 1}, {1}]
    res = solve_treewidth(Instance("stsp", 9, inst.edges, frozenset({4, 8}), 9))
    assert res.feasible and res.opt_weight == 4


def _stsp(n, pairs, waypoints, weights=None, budget=100):
    weights = weights or [1] * len(pairs)
    return Instance("stsp", n, tuple(Edge(u, v, w) for (u, v), w in zip(pairs, weights)),
                    frozenset(waypoints), budget)


def test_trim_waypoint_leaf_on_a_capacity_1_edge_is_infeasible():
    """Waypoint 3's only edge has capacity 1: it cannot be entered and left."""
    edges = (Edge(0, 1, 1, 2), Edge(1, 2, 1, 2), Edge(0, 2, 1, 2), Edge(2, 3, 1, 1))
    inst = Instance("wrp", 4, edges, frozenset({0, 3}), 100)
    assert oracle._trim_pendants(inst) is None
    res = solve_treewidth(inst)
    assert (res.feasible, res.opt_weight, res.witness) == (False, None, None)
    assert solve_exact_multiplicity(inst).opt_weight is None


def test_trim_drops_a_weight_0_non_waypoint_leaf():
    """A non-waypoint leaf is never needed, even on an edge of weight 0."""
    inst = _stsp(4, [(0, 1), (1, 2), (0, 2), (2, 3)], {0, 1}, [1, 1, 1, 0], budget=3)
    core, eids, forced = oracle._trim_pendants(inst)
    assert (core.n, list(eids), forced) == (3, [0, 1, 2], [])
    res = solve_treewidth(inst)
    assert (res.feasible, res.opt_weight) == (True, 2)
    assert res.opt_weight == solve_exact_multiplicity(inst).opt_weight
    assert check_certificate(inst, res.witness)


def test_trim_forces_the_pendant_tree_that_holds_every_waypoint(monkeypatch):
    """A 4-cycle of non-waypoints with a tree hung from vertex 3, whose
    leaves 5 and 7 are the waypoints: the optimum takes the path 5-4-6-7
    twice, and the trim finds it without running the DP."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (4, 6), (6, 7), (6, 8)]
    inst = _stsp(9, pairs, {5, 7}, [1, 1, 1, 1, 7, 2, 3, 4, 5])
    monkeypatch.setattr(oracle, "_run_tw_dp", lambda *a: pytest.fail("the DP ran"))
    core, _, forced = oracle._trim_pendants(inst)
    assert core is None and sorted(forced) == [5, 6, 7]
    res = solve_treewidth(inst)
    assert res.feasible and res.opt_weight == 2 * (2 + 3 + 4)
    assert res.witness.multiplicity == (0, 0, 0, 0, 0, 2, 2, 2, 0)
    assert check_certificate(inst, res.witness)
    assert solve_exact_multiplicity(inst).opt_weight == res.opt_weight


def test_trim_isolated_vertices():
    """An isolated waypoint cannot be reached; an isolated non-waypoint is dropped."""
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert oracle._trim_pendants(_stsp(4, triangle, {0, 3})) is None
    assert solve_treewidth(_stsp(4, triangle, {0, 3})).opt_weight is None
    inst = _stsp(4, triangle, {0, 1, 2}, budget=3)
    core, eids, forced = oracle._trim_pendants(inst)
    assert (core.n, list(eids), forced) == (3, [0, 1, 2], [])
    res = solve_treewidth(inst)
    assert (res.feasible, res.opt_weight) == (True, 3) and check_certificate(inst, res.witness)


def test_trim_keeps_a_leaf_on_two_parallel_edges():
    """Vertex 3 has two edges, both to vertex 2, so it is not trimmed; the
    optimum takes the cheaper one twice."""
    edges = triangle().edges + (Edge(2, 3, 1), Edge(2, 3, 5))
    inst = Instance("tsp", 4, edges, frozenset(range(4)), 5)
    core, eids, forced = oracle._trim_pendants(inst)
    assert core is inst and list(eids) == [0, 1, 2, 3, 4] and forced == ()
    res = solve_treewidth(inst)
    assert (res.feasible, res.opt_weight) == (True, 5)
    assert res.witness.multiplicity == (1, 1, 1, 2, 0)
    assert solve_exact_multiplicity(inst).opt_weight == 5


def test_trim_tsp_star():
    """A tsp star with 200 leaves: every edge twice."""
    rng = random.Random(3)
    edges = tuple(Edge(0, v, rng.randint(0, 50)) for v in range(1, 201))
    total = sum(e.weight for e in edges)
    inst = Instance("tsp", 201, edges, frozenset(range(201)), 2 * total)
    res = solve_treewidth(inst)
    assert res.feasible and res.opt_weight == 2 * total
    assert res.witness.multiplicity == (2,) * 200
    assert check_certificate(inst, res.witness)


@st.composite
def pendant_inputs(draw):
    """tsp, stsp and wrp inputs of at most 14 edges: a cycle, an edge or a
    lone vertex with trees hung from it, sometimes a chord or a parallel
    edge, and sometimes an isolated vertex."""
    kind = draw(st.sampled_from(KINDS))
    c = draw(st.sampled_from([1, 2, 3, 4, 5]))
    pairs = [(i, (i + 1) % c) for i in range(c)] if c > 2 else [(0, 1)] if c == 2 else []
    n = c
    for _ in range(draw(st.integers(1, 12 - len(pairs)))):
        pairs.append((draw(st.integers(0, n - 1)), n))
        n += 1
    for _ in range(draw(st.integers(0, 2))):
        pair = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        if pair[0] != pair[1]:
            pairs.append(pair)
    n += draw(st.integers(0, 1))
    edges = tuple(Edge(u, v, draw(st.integers(0, 9)),
                       draw(st.sampled_from([1, 2])) if kind == "wrp" else None)
                  for u, v in pairs)
    wps = frozenset(range(n)) if kind == "tsp" else draw(
        st.frozensets(st.integers(0, n - 1), min_size=2))
    return Instance(kind, n, edges, wps, draw(st.integers(0, 80)))


@given(pendant_inputs())
@settings(max_examples=200, deadline=None)
def test_trim_agrees_with_the_multiplicity_engine(inst):
    """With pendant trees trimmed first, the DP finds the multiplicity
    engine's verdict and optimum, and its witness is a certificate."""
    assert len(inst.edges) <= DEFAULT_CAPS.multiplicity_edges
    trimmed = oracle._trim_pendants(inst)
    assume(trimmed is None or trimmed[0] is not inst)
    _dp_agrees(inst, solve_exact_multiplicity)


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
    order the unit 5x5 grid merged blocks 37 518 times (networkx 3.6); with
    that order reversed it merged them 91 952 times and took 2-3x longer.
    Pruning dominated partitions at each join's inputs cut the count to
    9 190."""
    merges = []
    merge = oracle.merge_blocks
    monkeypatch.setattr(oracle, "merge_blocks", lambda *a: merges.append(1) or merge(*a))
    inst = Instance("wrp", 25, tuple(Edge(u, v, 1, 2) for u, v in _grid_pairs(5, 5)),
                    frozenset(range(25)), 26)
    assert solve_treewidth(inst).opt_weight == 26
    assert len(merges) <= 15_000


def test_treewidth_grid_6x6_join_output(monkeypatch):
    """Unit 6x6 grid, capacity 2, every vertex a waypoint: 36 cells on a
    Hamiltonian cycle.  Its joins output 38 120 entries with dominated
    partitions pruned at their inputs (networkx 3.6), and 96 304 without."""
    entries = []
    join = oracle._dp_join

    def counted(*tables):
        table = join(*tables)
        entries.append(sum(map(len, table.values())))
        return table

    monkeypatch.setattr(oracle, "_dp_join", counted)
    inst = Instance("wrp", 36, tuple(Edge(u, v, 1, 2) for u, v in _grid_pairs(6, 6)),
                    frozenset(range(36)), 36)
    res = solve_treewidth(inst)
    assert res.feasible and res.opt_weight == 36
    assert check_certificate(inst, res.witness)
    assert sum(entries) <= 60_000


@pytest.mark.parametrize("kind,rows,cols,ell", [("tsp", 4, 4, 16), ("stsp", 4, 4, 9),
                                                ("stsp", 4, 5, 14)])
def test_treewidth_engine_agrees_with_heldkarp_on_grids(kind, rows, cols, ell):
    """Uncapacitated grids past the multiplicity cap, weights 1-9, whose
    decompositions have width 4 and bags of several children."""
    rng = random.Random(rows * cols + ell)
    n = rows * cols
    edges = tuple(Edge(u, v, rng.randint(1, 9)) for u, v in _grid_pairs(rows, cols))
    wps = frozenset(range(n)) if kind == "tsp" else frozenset(rng.sample(range(n), ell))
    inst = Instance(kind, n, edges, wps, 60)
    assert any(len(c) >= 2 for c in oracle._layout(inst, DEFAULT_CAPS)[1])
    _dp_agrees(inst, solve_heldkarp)


def _sparse_uncapacitated(rng: random.Random):
    """A random spanning tree on 8-18 vertices plus random extra edges, 15
    to 25 edges in all, so past the multiplicity cap, weights 0-9, tsp or
    stsp with at least two waypoints."""
    kind = rng.choice(["tsp", "stsp"])
    n = rng.randint(8, 18)
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(max(0, 16 - n), 8))]
    edges = tuple(Edge(u, v, rng.randint(0, 9)) for u, v in pairs)
    wps = frozenset(range(n)) if kind == "tsp" else frozenset(rng.sample(range(n), rng.randint(2, n)))
    return Instance(kind, n, edges, wps, rng.randint(10, 120))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_treewidth_engine_agrees_with_heldkarp_past_multiplicity_cap(seed):
    """Inputs with more than 14 edges, which the multiplicity engine does
    not take, checked against Held-Karp; each has a bag of two or more
    children, so its joins run the prune."""
    inst = _with_a_join(_sparse_uncapacitated, random.Random(seed))
    assert len(inst.edges) > DEFAULT_CAPS.multiplicity_edges
    _dp_agrees(inst, solve_heldkarp)


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


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_even_covering_matches_brute_force(data):
    """`even_covering` keeps exactly the vectors, in ascending index order,
    whose odd entries' flips XOR to 0 and whose nonzero entries' covers OR
    to the target.  The masks are drawn from a few bit positions below 8,
    9, 16, 17, 29 or 30 bits, so the folds run in uint8, uint16 and uint32;
    a mask past 30 bits is refused."""
    bits = data.draw(st.sampled_from((8, 9, 16, 17, 29, 30)))
    spots = data.draw(st.lists(st.integers(0, bits - 2), max_size=3, unique=True)) + [bits - 1]
    masks = st.builds(lambda picks: sum(1 << p for p, take in zip(spots, picks) if take),
                      st.lists(st.booleans(), min_size=len(spots), max_size=len(spots)))
    m = data.draw(st.integers(1, 7))
    bases = data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    flips = data.draw(st.lists(masks, min_size=m, max_size=m))
    covers = data.draw(st.lists(masks, min_size=m, max_size=m))
    target = data.draw(masks)
    want = []
    # product varies its last factor fastest, and index j has x[0] fastest
    for j, rev in enumerate(itertools.product(*(range(b) for b in reversed(bases)))):
        x = rev[::-1]
        parity = cover = 0
        for xi, f, c in zip(x, flips, covers):
            parity ^= f if xi % 2 else 0
            cover |= c if xi else 0
        if parity == 0 and cover == target:
            want.append(j)
    assert oracle.even_covering(bases, flips, covers, target).tolist() == want
    past = 1 << 30
    for args in ((flips[:-1] + [past], covers, target), (flips, [past] + covers[1:], target),
                 (flips, covers, past)):
        with pytest.raises(InvariantError):
            oracle.even_covering(bases, *args)


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
    assert merge_blocks(two[:1], two) == (0b000111, 0b111000)
    path = [0b0011, 0b1100, 0b0110]
    assert merge_blocks(path[:1], path) == (0b1111,)


def test_dp_prune_drops_entries_a_one_merge_coarser_partition_dominates():
    """An entry goes when merging two of its blocks gives a group of the
    same done flag that holds its parity mask at a cost no higher; here the
    merge of the first and last blocks, whose tuple keeps its order."""
    table = {
        ((0b001, 0b010, 0b100), False): {0b000: (4, "a"), 0b011: (4, "b"), 0b110: (2, "c")},
        ((0b010, 0b101), False): {0b000: (4, "d"), 0b011: (5, "e"), 0b110: (2, "f")},
    }
    assert oracle._dp_prune(table) is table
    assert table == {
        # equal cost is dominated; the coarser group's higher cost is not
        ((0b001, 0b010, 0b100), False): {0b011: (4, "b")},
        ((0b010, 0b101), False): {0b000: (4, "d"), 0b011: (5, "e"), 0b110: (2, "f")},
    }


def test_dp_prune_keeps_entries_missing_or_dearer_in_the_coarser_partition():
    table = {
        ((0b01, 0b10), False): {0b00: (3, "a"), 0b11: (3, "b")},
        ((0b11,), False): {0b00: (4, "c")},  # dearer at 0b00, and no 0b11
    }
    before = {state: dict(group) for state, group in table.items()}
    assert oracle._dp_prune(table) == before


def test_dp_prune_compares_only_the_same_done_flag_and_used_vertices():
    """A coarser partition of other used vertices, or with the other done
    flag, never dominates, however cheap."""
    table = {
        ((0b001, 0b010), False): {0b011: (5, "a")},
        ((0b011,), True): {0b011: (0, "b")},
        ((0b111,), False): {0b011: (0, "c")},
    }
    before = {state: dict(group) for state, group in table.items()}
    assert oracle._dp_prune(table) == before


def test_dp_prune_removes_emptied_groups_and_scans_before_deleting():
    """A chain of dominated groups: the middle one loses its entry to the
    coarsest, and the finest still loses its entry to the middle one's, so
    both leave the table."""
    table = {
        ((0b001, 0b010, 0b100), False): {0b101: (3, "a")},
        ((0b011, 0b100), False): {0b101: (3, "b")},
        ((0b111,), False): {0b101: (1, "c")},
    }
    assert oracle._dp_prune(table) == {((0b111,), False): {0b101: (1, "c")}}


def test_dp_prune_leaves_tables_without_two_blocks_unchanged():
    table = {((), False): {0: (0, None)}, ((0b11,), False): {0b01: (2, "a")},
             ((), True): {0: (7, "b")}}
    before = {state: dict(group) for state, group in table.items()}
    assert oracle._dp_prune(table) == before


def test_multiplicity_engine_memory():
    """14 capacity-2 edges on 8 vertices, every vertex a waypoint: 3^14
    vectors, the most the default edge cap allows.  The 8 touched vertices
    fit uint8 masks, so the solve peaks at 10.65 MB (tracemalloc), while the
    cover fold's last edge is folded in: the running filter, the new fold
    and the previous one of a third its size, one byte per vector each.
    The fold is compared to the target in place; with a separate
    comparison the solve peaked at 13.7 MB, and with int32 folds at 28.9
    MB."""
    rng = random.Random(7)
    order = rng.sample(range(8), 8)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, 8)]
    pairs += [tuple(rng.sample(range(8), 2)) for _ in range(7)]
    edges = tuple(Edge(u, v, rng.randint(1, 9), 2) for u, v in pairs)
    inst = Instance("wrp", 8, edges, frozenset(range(8)), 100)
    res, peak = _traced(solve_exact_multiplicity, inst)
    assert res.opt_weight == 33
    assert peak <= 10.7 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_heldkarp_costs_in_the_narrowest_dtype():
    """15 waypoints, weights 1-50: every sum the DP forms is below 2^16, so
    its costs are uint16.  The solve peaks at 3.2 MB (tracemalloc); with
    int64 costs it peaked at 8.1 MB, and the pin is half of that."""
    inst = _random_stsp(24, 15)
    res, peak = _traced(solve_heldkarp, inst)
    assert res.opt_weight == 339 and check_certificate(inst, res.witness)
    assert peak <= 8.1 / 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


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
    and without it the edge to vertex 3 lies in no bag.  The solve trims
    that pendant before it decomposes, so it is checked on two triangles
    sharing vertex 2, where no vertex has one edge: without the last bag the
    edges to vertex 4 lie in no bag."""
    edges = (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1), Edge(2, 3, 1))
    inst = Instance("tsp", 4, edges, frozenset(range(4)), 8)
    bowtie = Instance("tsp", 5, edges + (Edge(3, 4, 1), Edge(2, 4, 1)), frozenset(range(5)), 12)
    width, bags, parent = oracle._decompose(inst)
    assert bags[-1] == {2, 3}
    width2, bags2, parent2 = oracle._decompose(bowtie)
    assert bags2[-1] == {2, 3, 4} and not any(4 in bag for bag in bags2[:-1])
    monkeypatch.setattr(oracle, "_decompose", lambda _: (width, bags[:-1], parent[:-1]))
    with pytest.raises(InvariantError, match="misses an edge"):
        oracle._layout(inst, DEFAULT_CAPS)
    monkeypatch.setattr(oracle, "_decompose", lambda _: (width2, bags2[:-1], parent2[:-1]))
    with pytest.raises(InvariantError, match="misses an edge"):
        solve_treewidth(bowtie)


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
