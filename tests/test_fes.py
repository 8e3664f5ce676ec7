"""Degree-1/degree-2 rules and the feedback-edge-set kernel driver."""

import random

from hypothesis import given, settings, strategies as st

from tspkern.fes import (
    _find_chains,
    kernelize_fes,
    rr_contract_nonterminal_path,
    rr_leaf_cap1,
    rr_nonterminal_leaf,
    rr_replace_terminal_path,
    rr_terminal_leaf,
)
from tspkern.instance import Edge, Instance, WorkGraph, compute_fes
from tspkern.oracle import solve_exact_multiplicity


def wrp(n, edges, waypoints, budget):
    return Instance("wrp", n, tuple(Edge(u, v, w, c) for u, v, w, c in edges),
                    frozenset(waypoints), budget)


def test_leaf_cap1():
    inst = wrp(2, [(0, 1, 1, 1)], {0, 1}, 9)
    assert rr_leaf_cap1(WorkGraph(inst)).verdict == "no"
    ok = wrp(2, [(0, 1, 1, 2)], {0, 1}, 9)
    assert rr_leaf_cap1(WorkGraph(ok)).verdict == "unchanged"
    # non-waypoint leaf on a capacity-1 edge is the removal rule's job
    nonwp = wrp(3, [(0, 1, 1, 2), (1, 2, 1, 1)], {0, 1}, 9)
    assert rr_leaf_cap1(WorkGraph(nonwp)).verdict == "unchanged"


def test_nonterminal_leaf_removed():
    inst = wrp(3, [(0, 1, 2, 2), (1, 2, 3, 2)], {0, 1}, 9)
    out = rr_nonterminal_leaf(WorkGraph(inst)).instance.freeze()
    assert out.n == 2 and len(out.edges) == 1
    assert out.budget == 9


def test_terminal_leaf_folded():
    inst = wrp(2, [(0, 1, 3, 2)], {0, 1}, 10)
    out = rr_terminal_leaf(WorkGraph(inst)).instance.freeze()
    assert out.n == 1 and out.budget == 4
    assert out.waypoints == frozenset({0})


def test_terminal_leaf_zero_weight():
    inst = wrp(2, [(0, 1, 0, 2)], {0, 1}, 10)
    out = rr_terminal_leaf(WorkGraph(inst)).instance.freeze()
    assert out.budget == 10 and out.n == 1


def test_contract_nonterminal_path():
    # p0 - x - p2, weights (2,3), caps (2,1); x a degree-2 non-waypoint
    inst = wrp(5, [(0, 1, 2, 2), (1, 2, 3, 1), (0, 3, 1, 2), (2, 4, 1, 2)],
               {0, 2, 3, 4}, 20)
    out = rr_contract_nonterminal_path(WorkGraph(inst)).instance.freeze()
    merged = [e for e in out.edges if e.weight == 5]
    assert len(merged) == 1 and merged[0].capacity == 1


def test_replace_terminal_path_case_c():
    # all cap 2, both chain endpoints are degree-3 waypoints
    inst = wrp(6, [(0, 1, 1, 2), (1, 2, 2, 2), (2, 3, 1, 2),
                   (0, 4, 1, 2), (3, 4, 1, 2), (0, 5, 1, 2), (3, 5, 1, 2)],
               {0, 1, 2, 3, 4, 5}, 30)
    out = rr_replace_terminal_path(WorkGraph(inst)).instance.freeze()
    new = sorted((e.weight, e.capacity) for e in out.edges if e.weight > 1)
    assert new == [(2, 1), (2, 2), (4, 1)]  # skip-heaviest, remainder, once-through
    assert out.n == 5


def test_replace_terminal_path_case_c_avoidable_endpoints_kept():
    # endpoints 0 and 3 are not waypoints: a collapsed chain could be met by
    # a loop hanging at one end only, which the original cannot mimic
    inst = wrp(6, [(0, 1, 1, 2), (1, 2, 2, 2), (2, 3, 1, 2),
                   (0, 4, 1, 2), (3, 5, 1, 2)], {1, 2, 4, 5}, 30)
    assert rr_replace_terminal_path(WorkGraph(inst)).verdict == "unchanged"


def test_replace_terminal_path_case_a():
    inst = wrp(6, [(0, 1, 1, 1), (1, 2, 2, 2), (2, 3, 1, 1),
                   (0, 4, 1, 2), (3, 5, 1, 2)], {1, 2, 4, 5}, 30)
    out = rr_replace_terminal_path(WorkGraph(inst)).instance.freeze()
    new = sorted((e.weight, e.capacity) for e in out.edges if e.capacity == 1)
    assert (1, 1) in new and (3, 1) in new
    assert out.n == 5  # two inner vertices became one


def test_replace_terminal_path_case_b_end_edge():
    inst = wrp(6, [(0, 1, 5, 1), (1, 2, 1, 2), (2, 3, 1, 2),
                   (0, 4, 1, 2), (3, 5, 1, 2)], {1, 2, 4, 5}, 30)
    out = rr_replace_terminal_path(WorkGraph(inst)).instance.freeze()
    new = {(e.weight, e.capacity) for e in out.edges}
    assert (5, 1) in new and (2, 2) in new
    assert out.n == 5


def test_replace_terminal_path_case_b_inner_edge():
    # capacity-1 edge strictly inside: one stand-in vertex per side
    inst = wrp(7, [(0, 1, 1, 2), (1, 2, 5, 1), (2, 3, 2, 2), (3, 4, 1, 2),
                   (0, 5, 1, 2), (4, 6, 1, 2)], {1, 2, 3, 5, 6}, 30)
    out = rr_replace_terminal_path(WorkGraph(inst)).instance.freeze()
    new = {(e.weight, e.capacity) for e in out.edges}
    assert {(1, 2), (5, 1), (3, 2)} <= new
    assert out.n == 6
    # the three-edge form is its own stand-in: reapplying changes nothing
    short = wrp(6, [(0, 1, 1, 2), (1, 2, 5, 1), (2, 3, 1, 2),
                    (0, 4, 1, 2), (3, 5, 1, 2)], {1, 2, 4, 5}, 30)
    assert rr_replace_terminal_path(WorkGraph(short)).verdict == "unchanged"


def edge_tuples(inst):
    return [(e.u, e.v, e.weight, e.capacity) for e in inst.edges]


# a pure cycle of waypoints 0..4 and a pure cycle of non-waypoints 5..8
PURE_CYCLES = wrp(9, [(0, 1, 1, 2), (1, 2, 2, 2), (2, 3, 3, 2), (3, 4, 4, 2), (4, 0, 5, 2),
                      (5, 6, 1, 2), (6, 7, 2, 1), (7, 8, 3, 2), (8, 5, 4, 2)],
                  {0, 1, 2, 3, 4}, 40)


def pendant_cycle(inner_waypoints):
    """The cycle 0-1-2-3-4-0 hanging off anchor 0, whose third edge leads to 5."""
    return wrp(6, [(0, 1, 1, 2), (1, 2, 2, 2), (2, 3, 3, 2), (3, 4, 4, 2), (4, 0, 5, 2),
                   (0, 5, 6, 2)], {0, 5} | ({1, 2, 3, 4} if inner_waypoints else set()), 60)


def test_find_chains_on_pure_cycles():
    # each cycle is opened at its lowest vertex by dropping the edge back to it
    g = WorkGraph(PURE_CYCLES)
    waypoint_chains = [([0, 4, 3, 2, 1], [4, 3, 2, 1])]
    assert list(_find_chains(g, want_waypoint=True, min_edges=3)) == waypoint_chains
    assert list(_find_chains(g, want_waypoint=False, min_edges=2)) == [([5, 8, 7, 6], [8, 7, 6])]
    assert list(_find_chains(g, want_waypoint=False, min_edges=4)) == []


def test_find_chains_on_pendant_cycles():
    # both ends land on the anchor, so the chain drops its closing edge 4-0
    for inner_waypoints in (False, True):
        g = WorkGraph(pendant_cycle(inner_waypoints))
        chains = [([0, 1, 2, 3, 4], [0, 1, 2, 3])]
        assert list(_find_chains(g, want_waypoint=inner_waypoints, min_edges=3)) == chains
        assert list(_find_chains(g, want_waypoint=not inner_waypoints, min_edges=1)) == []


def test_chain_rules_on_pure_cycles():
    g = WorkGraph(PURE_CYCLES)
    out = rr_contract_nonterminal_path(g)
    assert out.log_entry == "rr_contract_nonterminal_path: contracted 2 inner vertex(es)"
    kern = g.freeze()
    assert edge_tuples(kern) == [(0, 1, 1, 2), (1, 2, 2, 2), (2, 3, 3, 2), (3, 4, 4, 2),
                                 (4, 0, 5, 2), (5, 6, 1, 2), (5, 6, 9, 1)]
    assert kern.waypoints == {0, 1, 2, 3, 4}
    g = WorkGraph(PURE_CYCLES)
    out = rr_replace_terminal_path(g)
    assert out.log_entry == "rr_replace_terminal_path: case c, replaced 3 inner vertex(es)"
    kern = g.freeze()  # 2 and 3 deleted; stand-in 4 keeps its waypoint
    assert edge_tuples(kern) == [(0, 1, 1, 2), (3, 4, 1, 2), (4, 5, 2, 1), (5, 6, 3, 2),
                                 (6, 3, 4, 2), (0, 2, 5, 1), (2, 1, 9, 2), (0, 1, 14, 1)]
    assert kern.waypoints == {0, 1, 2} and kern.budget == 40


def test_chain_rules_on_pendant_cycles():
    g = WorkGraph(pendant_cycle(inner_waypoints=False))
    assert rr_replace_terminal_path(g).verdict == "unchanged"
    out = rr_contract_nonterminal_path(g)
    assert out.log_entry == "rr_contract_nonterminal_path: contracted 3 inner vertex(es)"
    kern = g.freeze()
    assert edge_tuples(kern) == [(1, 0, 5, 2), (0, 2, 6, 2), (0, 1, 10, 2)]
    assert kern.waypoints == {0, 2}
    g = WorkGraph(pendant_cycle(inner_waypoints=True))
    assert rr_contract_nonterminal_path(g).verdict == "unchanged"
    out = rr_replace_terminal_path(g)
    assert out.log_entry == "rr_replace_terminal_path: case c, replaced 3 inner vertex(es)"
    kern = g.freeze()
    assert edge_tuples(kern) == [(2, 0, 5, 2), (0, 3, 6, 2), (0, 1, 4, 1), (1, 2, 6, 2),
                                 (0, 2, 10, 1)]
    assert kern.waypoints == {0, 1, 2, 3}


def test_tree_instances_decided():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 12)
        edges = [(rng.randrange(v), v, rng.randint(0, 5), rng.choice([1, 2]))
                 for v in range(1, n)]
        wps = {v for v in range(n) if rng.random() < 0.7}
        inst = wrp(n, edges, wps, rng.randint(0, 40))
        _, report = kernelize_fes(inst)
        assert report.decided in ("yes", "no")


def _planted_fes(rng, n, k, all_waypoints=False):
    edges = [(rng.randrange(v), v, rng.randint(1, 6), rng.choice([1, 2, 2]))
             for v in range(1, n)]
    for _ in range(k):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, 6), rng.choice([1, 2, 2])))
    wps = set(range(n)) if all_waypoints else {v for v in range(n) if rng.random() < 0.7}
    return wrp(n, edges, wps, rng.randint(5, 12 * n))


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_kernelize_safe(seed):
    rng = random.Random(seed)
    inst = _planted_fes(rng, rng.randint(3, 9), rng.randint(0, 4))
    if len(inst.edges) > 12:
        return
    kern, report = kernelize_fes(inst)
    before = solve_exact_multiplicity(inst).feasible
    if report.decided is not None:
        assert before == (report.decided == "yes")
    else:
        assert before == solve_exact_multiplicity(kern).feasible


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_kernelize_size_bound_and_fixpoint(seed):
    # the 8k/9k bound is stated for instances whose vertices are all waypoints
    rng = random.Random(seed)
    inst = _planted_fes(rng, rng.randint(5, 30), rng.randint(1, 5), all_waypoints=True)
    kern, report = kernelize_fes(inst)
    if report.decided is not None:
        return
    k = len(compute_fes(kern))
    assert kern.n <= 8 * k
    assert len(kern.edges) <= 9 * k
    again, rerun = kernelize_fes(kern)
    assert rerun.decided is None
    assert again.n == kern.n and len(again.edges) == len(kern.edges)
