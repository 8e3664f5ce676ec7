"""Degree-1/degree-2 rules and the feedback-edge-set kernel driver."""

import random

from hypothesis import given, settings, strategies as st

from tspkern.fes import (
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
