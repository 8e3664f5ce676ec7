"""Hardness constructions and the planted-instance generator."""

import itertools

import pytest

from tspkern.gadgets import (
    HpInstance,
    MccInstance,
    REGIMES,
    cherry_port,
    cherry_terminal,
    compose_degtw,
    compose_fn,
    connect_triplet,
    cycle_gadget,
    gen_planted,
    mcc_to_subtsp,
    selection_gadget,
)
from tspkern.instance import InstanceError, ScaleError
from tspkern.oracle import (
    DEFAULT_CAPS,
    check_certificate,
    make_solution,
    solve_auto,
    solve_exact_multiplicity,
    solve_heldkarp,
)

TRIANGLE = HpInstance.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
PATH4 = HpInstance.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
STAR4 = HpInstance.from_pairs(4, [(0, 1), (0, 2), (0, 3)])  # no Hamiltonian path


def test_hp_checks():
    assert TRIANGLE.has_hamiltonian_path()
    assert PATH4.has_hamiltonian_path()
    assert not STAR4.has_hamiltonian_path()
    assert HpInstance.from_pairs(1, []).has_hamiltonian_path()


def test_compose_fn_shape():
    inst = compose_fn([PATH4, PATH4])
    assert inst.n == 9 and inst.budget == 10
    assert inst.kind == "tsp"
    assert len(inst.waypoints) == 9


def test_compose_fn_feasibility_is_conjunction():
    yes = compose_fn([PATH4, PATH4])
    assert solve_heldkarp(yes).feasible
    mixed = compose_fn([PATH4, STAR4])
    assert not solve_heldkarp(mixed).feasible
    solo = compose_fn([TRIANGLE])
    assert solve_heldkarp(solo).feasible


def test_compose_degtw_degree_and_feasibility():
    inst = compose_degtw([PATH4, PATH4])
    assert inst.n == 10
    deg = [0] * inst.n
    for e in inst.edges:
        deg[e.u] += 1
        deg[e.v] += 1
    assert max(deg) == 2 * 4
    assert solve_heldkarp(inst).feasible
    assert not solve_heldkarp(compose_degtw([STAR4, PATH4])).feasible


def test_compose_rejects_mixed_sizes():
    with pytest.raises(InstanceError):
        compose_fn([TRIANGLE, PATH4])
    with pytest.raises(InstanceError):
        compose_fn([])


@pytest.mark.parametrize("make, error, message", [
    (lambda: HpInstance(3, frozenset({(0, 3)})), InstanceError, "bad edge (0, 3)"),
    (lambda: HpInstance.from_pairs(11, []).has_hamiltonian_path(), ScaleError,
     "Hamiltonian-path check capped at 10 vertices"),
    (lambda: MccInstance(1, 2, frozenset()), InstanceError, "need at least two colors"),
    (lambda: MccInstance(2, 3, frozenset()), InstanceError, "class size must be a power of two"),
    (lambda: MccInstance(2, 2, frozenset({((2, 0), (1, 0))})), InstanceError,
     "edge ((2, 0), (1, 0)) not normalized"),
    (lambda: MccInstance(2, 2, frozenset({((1, 0), (3, 0))})), InstanceError,
     "vertex (3, 0) out of range"),
    (lambda: MccInstance.build(2, 0, []), InstanceError, "class size must be positive"),
    (lambda: MccInstance.build(2, 2, [((1, 0), (2, 2))]), InstanceError,
     "vertex (2, 2) out of range"),
    (lambda: MccInstance.build(3, 2, [((1, 0), (1, 1))]), InstanceError,
     "edges must join distinct colors"),
    (lambda: compose_fn([]), InstanceError, "need at least one input graph"),
    (lambda: compose_degtw([]), InstanceError, "need at least one input graph"),
    (lambda: compose_fn([TRIANGLE, PATH4]), InstanceError,
     "input graphs must share a vertex count"),
    (lambda: compose_degtw([PATH4, TRIANGLE]), InstanceError,
     "input graphs must share a vertex count"),
    (lambda: cycle_gadget(0), InstanceError, "cycle gadget needs length >= 1"),
    (lambda: mcc_to_subtsp(MccInstance(2, 2, frozenset())), InstanceError,
     "selection gadget needs length >= 3 (k*logN too small)"),
    (lambda: gen_planted("tsp", "vc", 2, 1, 5, weight_range=(3, 1)), InstanceError,
     "bad weight range"),
], ids=["hp-bad-edge", "hp-scale", "mcc-one-color", "mcc-class-size", "mcc-unnormalized",
        "mcc-vertex-range", "build-class-size", "build-vertex-range", "build-same-color",
        "fn-no-graphs", "degtw-no-graphs", "fn-mixed-sizes", "degtw-mixed-sizes",
        "cycle-length", "mcc-too-short", "planted-weight-range"])
def test_guards_name_the_fault(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def test_selection_gadget_shape_and_opt():
    sel = selection_gadget(3)
    assert sel.n == 9 and len(sel.edges) == 12
    assert sel.waypoints == frozenset(cherry_terminal(c) for c in range(3))
    res = solve_exact_multiplicity(sel)
    assert res.feasible and res.opt_weight == 6

    sel4 = selection_gadget(4)
    res4 = solve_heldkarp(sel4)
    assert res4.feasible and res4.opt_weight == 8

    with pytest.raises(InstanceError):
        selection_gadget(2)


def test_selection_gadget_one_port_per_cherry():
    """Every optimal walk enters each cherry through exactly one port."""
    sel = selection_gadget(3)
    found = 0
    for counts in itertools.product((0, 1, 2), repeat=len(sel.edges)):
        weight = sum(c * e.weight for c, e in zip(counts, sel.edges))
        if weight != 6:
            continue
        if not check_certificate(sel, make_solution(sel, counts)):
            continue
        found += 1
        deg = [0] * sel.n
        for c, e in zip(counts, sel.edges):
            deg[e.u] += c
            deg[e.v] += c
        for c in range(3):
            used = [b for b in (0, 1) if deg[cherry_port(c, b)] > 0]
            assert len(used) == 1
    assert found >= 2 ** 3  # at least one optimum per port choice


def test_cycle_gadget():
    cyc = cycle_gadget(2)
    assert cyc.n == 6 and len(cyc.edges) == 6
    assert cyc.waypoints == frozenset(range(6))
    res = solve_exact_multiplicity(cyc)
    assert res.feasible and res.opt_weight == 6
    assert connect_triplet(10, 1, 3) == [(3, 13), (3, 14)]


def _tripartite(k, n, missing=()):
    pairs = []
    for i, i2 in itertools.combinations(range(1, k + 1), 2):
        for a in range(n):
            for a2 in range(n):
                if ((i, a), (i2, a2)) not in missing:
                    pairs.append(((i, a), (i2, a2)))
    return MccInstance.build(k, n, pairs)


def test_mcc_complete_case():
    mcc = _tripartite(3, 2)
    assert mcc.has_clique()
    inst = mcc_to_subtsp(mcc)
    assert inst.budget == 6  # no non-edges: just the selection gadget
    assert solve_auto(inst, DEFAULT_CAPS).feasible


def test_mcc_one_nonedge_still_clique():
    mcc = _tripartite(3, 2, missing={((1, 0), (2, 0))})
    assert mcc.has_clique()
    inst = mcc_to_subtsp(mcc)
    assert inst.budget == 2 * 3 + (6 + 1) * 1
    assert solve_auto(inst, DEFAULT_CAPS).feasible


def test_mcc_no_clique_infeasible():
    # colors 1 and 2 fully disconnected
    missing = {((1, a), (2, a2)) for a in range(2) for a2 in range(2)}
    mcc = _tripartite(3, 2, missing=missing)
    assert not mcc.has_clique()
    inst = mcc_to_subtsp(mcc)
    assert not solve_auto(inst, DEFAULT_CAPS).feasible


def test_mcc_equivalence_matches_clique():
    for bits in range(0, 16, 5):  # a few non-edge patterns between colors 1, 2
        missing = {((1, a), (2, a2))
                   for i, (a, a2) in enumerate(itertools.product(range(2), range(2)))
                   if bits >> i & 1}
        mcc = _tripartite(3, 2, missing=missing)
        inst = mcc_to_subtsp(mcc)
        assert solve_auto(inst, DEFAULT_CAPS).feasible == mcc.has_clique()


def test_mcc_build_validation():
    with pytest.raises(InstanceError):
        MccInstance.build(1, 2, [])
    with pytest.raises(InstanceError):
        MccInstance.build(3, 2, [((1, 0), (1, 1))])  # same color
    padded = MccInstance.build(2, 3, [((1, 0), (2, 2))])
    assert padded.N == 4


def test_gen_planted_deterministic():
    a = gen_planted("wrp", "vc", 3, 1, 9, seed=7)
    b = gen_planted("wrp", "vc", 3, 1, 9, seed=7)
    assert a == b
    c = gen_planted("wrp", "vc", 3, 1, 9, seed=8)
    assert a != c


def test_gen_planted_hint_shapes():
    for regime in REGIMES:
        inst = gen_planted("stsp", regime, 3, 2, 12, seed=1)
        if regime == "fes":
            assert inst.modulator_hint is None
            continue
        M = inst.modulator_hint
        assert M == frozenset(range(3))
        if regime == "vc":
            assert all(e.u in M or e.v in M for e in inst.edges)
        else:
            # components of G - M have at most r vertices
            outside = set(range(inst.n)) - M
            adj = {v: set() for v in outside}
            for e in inst.edges:
                if e.u in outside and e.v in outside:
                    adj[e.u].add(e.v)
                    adj[e.v].add(e.u)
            seen = set()
            for s in outside:
                if s in seen:
                    continue
                comp, stack = {s}, [s]
                seen.add(s)
                while stack:
                    v = stack.pop()
                    for w in adj[v]:
                        if w not in seen:
                            seen.add(w)
                            comp.add(w)
                            stack.append(w)
                assert len(comp) <= 2


def test_gen_planted_validates():
    with pytest.raises(InstanceError):
        gen_planted("tsp", "nope", 2, 1, 5)
    with pytest.raises(InstanceError):
        gen_planted("bad", "vc", 2, 1, 5)
    with pytest.raises(InstanceError):
        gen_planted("tsp", "vc", 5, 1, 5)  # n must exceed k


def test_gen_planted_verdict_mix():
    verdicts = set()
    for seed in range(12):
        inst = gen_planted("tsp", "vc", 2, 1, 7, seed=seed)
        verdicts.add(solve_auto(inst, DEFAULT_CAPS).feasible)
    assert verdicts == {True, False}
