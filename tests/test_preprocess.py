"""Stop rules, short-circuiting, normalization, and weight compression."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lemmas import ensure_positive_weights
from tspkern.instance import Edge, Instance, InstanceError, WorkGraph
from tspkern.oracle import solve_auto, solve_exact_multiplicity
from tspkern.preprocess import (
    _fit_budget,
    _sum_profile,
    compress_weights,
    ensure_connected,
    rr_short_circuit,
    rr_stop,
    total_bitsize,
)


def test_rr_stop():
    neg = Instance("stsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), -1)
    assert rr_stop(neg).verdict == "no"
    one = Instance("stsp", 2, (Edge(0, 1, 1),), frozenset({0}), 0)
    assert rr_stop(one).verdict == "yes"
    two = Instance("stsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), 5)
    assert rr_stop(two).verdict == "unchanged"


def test_short_circuit_path():
    # u - v - w, weights 2, 3; v is a non-waypoint
    inst = Instance("stsp", 3, (Edge(0, 1, 2), Edge(1, 2, 3)), frozenset({0, 2}), 9)
    out = rr_short_circuit(WorkGraph(inst), 1).instance.freeze()
    assert out.n == 2
    assert out.edges == (Edge(0, 1, 5),)
    assert out.budget == 9 and out.waypoints == frozenset({0, 1})


def test_short_circuit_keeps_cheaper_parallel():
    inst = Instance("stsp", 3,
                    (Edge(0, 1, 2), Edge(1, 2, 3), Edge(0, 2, 4)),
                    frozenset({0, 2}), 9)
    out = rr_short_circuit(WorkGraph(inst), 1).instance.freeze()
    assert out.edges == (Edge(0, 1, 4),)  # existing 4 beats candidate 5

    cheap = Instance("stsp", 3,
                     (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 4)),
                     frozenset({0, 2}), 9)
    out2 = rr_short_circuit(WorkGraph(cheap), 1).instance.freeze()
    assert out2.edges == (Edge(0, 1, 2),)  # candidate 2 beats existing 4


def test_short_circuit_isolated():
    inst = Instance("stsp", 3, (Edge(0, 2, 1),), frozenset({0, 2}), 9)
    out = rr_short_circuit(WorkGraph(inst), 1).instance.freeze()
    assert out.n == 2 and out.edges == (Edge(0, 1, 1),)


def test_short_circuit_rejects_waypoint():
    inst = Instance("stsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), 9)
    with pytest.raises(InstanceError):
        rr_short_circuit(WorkGraph(inst), 0)


def test_short_circuit_rejects_other_kinds():
    inst = Instance("tsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), 9)
    with pytest.raises(InstanceError) as exc:
        rr_short_circuit(WorkGraph(inst), 0)
    assert str(exc.value) == "short-circuit rule applies to the subset kind only"


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_short_circuit_safe(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    m = rng.randint(1, 9)
    edges = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        edges.append(Edge(u, v, rng.randint(0, 9)))
    wps = frozenset(v for v in range(n) if rng.random() < 0.5)
    inst = Instance("stsp", n, tuple(edges), wps, rng.randint(0, 30))
    victims = [v for v in range(n) if v not in wps]
    if not victims:
        return
    out = rr_short_circuit(WorkGraph(inst), rng.choice(victims)).instance.freeze()
    if len(out.edges) <= 14:
        assert solve_auto(inst).feasible == solve_auto(out).feasible


def test_ensure_connected():
    split = Instance("stsp", 4, (Edge(0, 1, 1), Edge(2, 3, 1)), frozenset({0, 2}), 9)
    assert ensure_connected(split).verdict == "no"
    conn = Instance("stsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), 9)
    assert ensure_connected(conn).verdict == "unchanged"
    onecomp = Instance("stsp", 4, (Edge(0, 1, 1), Edge(2, 3, 1)), frozenset({0, 1}), 9)
    out = ensure_connected(onecomp).instance
    assert out.n == 2 and out.waypoints == frozenset({0, 1})


def test_positive_weights_single_zero_edge():
    inst = Instance("stsp", 2, (Edge(0, 1, 0),), frozenset({0, 1}), 0)
    out = ensure_positive_weights(inst).instance
    # Q = 0 + 2*2 + 1 = 5
    assert [e.weight for e in out.edges] == [1]
    assert out.budget == 4
    assert solve_auto(inst).feasible == solve_auto(out).feasible


def test_positive_weights_mixed():
    inst = Instance("stsp", 3, (Edge(0, 1, 0), Edge(1, 2, 3)), frozenset({0, 2}), 3)
    out = ensure_positive_weights(inst).instance
    # Q = 3 + 6 + 1 = 10
    assert [e.weight for e in out.edges] == [1, 30]
    assert out.budget == 36
    assert solve_auto(inst).feasible == solve_auto(out).feasible


def test_positive_weights_noop():
    inst = Instance("stsp", 2, (Edge(0, 1, 2),), frozenset({0, 1}), 9)
    assert ensure_positive_weights(inst).verdict == "unchanged"


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_positive_weights_safe(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    edges = []
    for _ in range(rng.randint(1, 8)):
        u, v = rng.sample(range(n), 2)
        edges.append(Edge(u, v, rng.choice([0, 0, 1, 3, 7])))
    inst = Instance("stsp", n, tuple(edges),
                    frozenset(v for v in range(n) if rng.random() < 0.6),
                    rng.randint(-2, 25))
    outcome = ensure_positive_weights(inst)
    if outcome.verdict == "unchanged":
        assert all(e.weight > 0 for e in inst.edges)
        return
    out = outcome.instance
    assert min(e.weight for e in out.edges) >= 1
    assert solve_auto(inst).feasible == solve_auto(out).feasible


def _sign_profiles_match(a: Instance, b: Instance) -> bool:
    wa = [e.weight for e in a.edges]
    wb = [e.weight for e in b.edges]
    for x in itertools.product((0, 1, 2), repeat=len(wa)):
        sa = sum(w * c for w, c in zip(wa, x)) - a.budget
        sb = sum(w * c for w, c in zip(wb, x)) - b.budget
        if (sa > 0) - (sa < 0) != (sb > 0) - (sb < 0):
            return False
    return True


def test_compress_gcd_example():
    inst = Instance("stsp", 2, (Edge(0, 1, 10**6), Edge(0, 1, 10**6)),
                    frozenset({0, 1}), 2 * 10**6)
    out = compress_weights(inst).instance
    assert [e.weight for e in out.edges] == [1, 1]
    assert out.budget == 2
    assert _sign_profiles_match(inst, out)


def test_compress_already_minimal():
    inst = Instance("stsp", 2, (Edge(0, 1, 1), Edge(0, 1, 2)), frozenset({0, 1}), 3)
    assert compress_weights(inst).verdict == "unchanged"


def test_compress_scale_guard():
    edges = tuple(Edge(i % 3, (i + 1) % 3, 2 * i + 2) for i in range(13))
    inst = Instance("stsp", 3, edges, frozenset({0, 1}), 5)
    assert compress_weights(inst).verdict == "unchanged"


@given(st.lists(st.one_of(st.integers(0, 10**9), st.integers(2**61 - 2**20, 2**61)),
                min_size=1, max_size=8))
@example([2**61, 2**61 - 1, 3])
@example([0, 7, 10**9, 1, 2, 3, 4, 5])
@settings(max_examples=60, deadline=None)
def test_sum_profile_matches_product(weights):
    """w . x for every x in {0,1,2}^m, x[0] varying fastest; sums that may
    pass 2^62 are exact Python ints."""
    ref = [sum(c * w for c, w in zip(reversed(x), weights))
           for x in itertools.product(range(3), repeat=len(weights))]
    sums = _sum_profile(weights)
    assert [int(s) for s in sums] == ref
    assert (sums.dtype == object) == (2 * sum(weights) >= 2**62)


@st.composite
def _fit_cases(draw):
    """Weights w, a budget b around their sums, and a candidate w' of the
    same length: a rounded halving of w, as compression tries, or any."""
    m = draw(st.integers(1, 5))
    w = draw(st.lists(st.integers(0, 20), min_size=m, max_size=m))
    b = draw(st.integers(-2, 2 * sum(w) + 2))
    shift = draw(st.integers(0, 5))
    halved = [(v + ((1 << shift) >> 1)) >> shift for v in w]
    free = st.lists(st.integers(0, 20), min_size=m, max_size=m)
    return w, b, draw(st.one_of(st.just(halved), free))


@given(_fit_cases())
@example(([3, 5], 8, [3, 5]))  # a zero class fixes b'
@example(([2, 2], 3, [1, 1]))  # w' sums to 2 on both sides of b: no fit
@example(([4], 20, [1]))  # every sum below b
@example(([5], -2, [1]))  # every sum above b
@settings(max_examples=200, deadline=None)
def test_fit_budget_finds_a_budget_exactly_when_one_exists(case):
    """_fit_budget returns a b' with sign(w'.x - b') = sign(w.x - b) for
    every x in {0,1,2}^m when some integer b' does, and None otherwise.
    Every w'.x lies in [0, 2 sum(w')], so the integers in
    [-1, 2 sum(w') + 1] are all the budgets there are to try."""
    w, b, cand = case

    def profile(weights):
        return np.array([sum(c * v for c, v in zip(reversed(x), weights))
                         for x in itertools.product(range(3), repeat=len(weights))])

    want = np.sign(profile(w) - b)
    new = profile(cand)
    budgets = np.arange(-1, 2 * sum(cand) + 2)
    exists = (np.sign(new[None, :] - budgets[:, None]) == want).all(axis=1).any()
    got = _fit_budget(_sum_profile(cand), want.astype(np.int8))
    if exists:
        assert got is not None and (np.sign(new - got) == want).all()
    else:
        assert got is None


@given(st.lists(st.integers(2**61 - 2**20, 2**61), min_size=1, max_size=6),
       st.integers(2**62, 2**64))
@example([2**61, 2**61], 2**62)
@example([2**61, 2**61], 2**62 + 1)
@example([2**61 - 1, 2**61], 2**63 + 5)
@settings(max_examples=60, deadline=None)
def test_compress_with_budget_past_int64_keeps_signs(weights, budget):
    """Weights near 2^61 and a budget of at least 2^62: sum minus budget can
    pass int64, so the signs are taken over exact Python ints."""
    inst = Instance("stsp", 2, tuple(Edge(0, 1, w) for w in weights), frozenset({0, 1}), budget)
    outcome = compress_weights(inst)
    if weights == [2**61, 2**61]:
        assert outcome.verdict == "reduced"
    if outcome.verdict == "reduced":
        assert _sign_profiles_match(inst, outcome.instance)


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_compress_verified_and_never_larger(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = rng.randint(1, 7)
    edges = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        edges.append(Edge(u, v, rng.randint(0, 10**9)))
    inst = Instance("stsp", n, tuple(edges),
                    frozenset(range(n)), rng.randint(0, 2 * 10**9))
    outcome = compress_weights(inst)
    if outcome.verdict == "unchanged":
        return
    out = outcome.instance
    assert _sign_profiles_match(inst, out)
    assert total_bitsize([e.weight for e in out.edges], out.budget) < \
        total_bitsize([e.weight for e in inst.edges], inst.budget)
    if len(out.edges) <= 14:
        assert solve_exact_multiplicity(inst).feasible == \
            solve_exact_multiplicity(out).feasible
