"""Vertex-cover kernels: behaviors, impacts, prices, and both marking rules."""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import round_unit, vertex_behaviors, vertex_classes
from tspkern import marking, vc
from tspkern.cli import main
from tspkern.instance import (
    Edge,
    Instance,
    InstanceError,
    InvariantError,
    ScaleError,
    render_instance,
)
from tspkern.marking import Behavior, Impact, Unit, close_round, impact_of
from tspkern.oracle import solve_exact_multiplicity
from tspkern.pipelines import kernelize_vc_tsp, kernelize_vc_wrp
from tspkern.report import KernelReport
from tspkern.vc import (
    enumerate_vertex_behaviors,
    rule_vc_tsp,
    rule_vc_wrp,
)


def two_neighbor_tsp(w1=2, w2=5):
    """r = vertex 2, modulator {0, 1} joined so it stays a cover."""
    edges = (Edge(0, 1, 1), Edge(2, 0, w1), Edge(2, 1, w2))
    return Instance("tsp", 3, edges, frozenset(range(3)), 99)


def test_enumerate_tsp_three_behaviors():
    inst = two_neighbor_tsp()
    got = enumerate_vertex_behaviors(inst, {0, 1}, 2)
    sets = {b.edges for b in got}
    assert sets == {(1, 1), (2, 2), (1, 2)}


def test_enumerate_rejects_non_cover():
    # edge 3 joins vertex 2 to vertex 1, which is outside M = {0}
    with pytest.raises(InstanceError, match="not a vertex cover: edge 3-2"):
        enumerate_vertex_behaviors(two_neighbor_tsp(), {0}, 2)


def test_enumerate_rejects_subset_kind():
    # the behavior family follows the instance's kind, and stsp has none
    inst = Instance("stsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), 9)
    with pytest.raises(InstanceError, match="tsp or wrp kind, got stsp"):
        enumerate_vertex_behaviors(inst, {0}, 1)


def test_rule_vc_tsp_vertex_without_edges_decides_no():
    # `kernelize` never gets here: an edgeless vertex outside the cover
    # leaves the graph disconnected or alone, which the stop rules decide
    inst = Instance("tsp", 3, (Edge(0, 1, 1),), frozenset(range(3)), 9)
    report = KernelReport(pipeline="vc-tsp")
    assert rule_vc_tsp(inst, {0}, report) is inst
    assert report.decided == "no"
    assert report.log == ["vertex 3 admits no behavior"]


def test_enumerate_wrp_capacity_parity():
    # a waypoint with a single capacity-1 edge has no behavior at all
    inst = Instance("wrp", 2, (Edge(0, 1, 1, 1),), frozenset({0, 1}), 9)
    assert enumerate_vertex_behaviors(inst, {0}, 1) == []


def _brute_wrp_behaviors(inst, r):
    incident = [i for i, e in enumerate(inst.edges) if r in e.ends()]
    out = set()
    for counts in itertools.product(*(range(inst.effective_capacity(inst.edges[i]) + 1)
                                      for i in incident)):
        total = sum(counts)
        if total in ((2, 4) if r in inst.waypoints else (0, 2, 4)):
            combo = tuple(sorted(itertools.chain.from_iterable(
                [i] * c for i, c in zip(incident, counts))))
            out.add(combo)
    return out


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_enumerate_wrp_matches_bruteforce(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    edges = []
    for _ in range(rng.randint(1, 6)):
        edges.append(Edge(rng.randrange(k), k, rng.randint(1, 9), rng.choice([1, 2])))
    wps = frozenset({k}) if rng.random() < 0.5 else frozenset()
    inst = Instance("wrp", k + 1, tuple(edges), wps, 99)
    got = {b.edges for b in enumerate_vertex_behaviors(inst, set(range(k)), k)}
    assert got == _brute_wrp_behaviors(inst, k)


@st.composite
def stars(draw):
    """(inst, M, centre): vertex k with at most 8 edges, parallel ones
    included, into the vertex cover M = {0..k-1} of 1 to 4 vertices.  A wrp
    star draws capacities 1 or 2 and its waypoints, so its centre may be a
    non-waypoint."""
    kind, k = draw(st.sampled_from(("tsp", "wrp"))), draw(st.integers(1, 4))
    ends = draw(st.lists(st.integers(0, k - 1), max_size=8))
    caps = [draw(st.sampled_from((1, 2))) if kind == "wrp" else None for _ in ends]
    edges = tuple(Edge(m, k, draw(st.integers(1, 9)), cap) for m, cap in zip(ends, caps))
    wps = (frozenset(range(k + 1)) if kind == "tsp"
           else frozenset(draw(st.sets(st.integers(0, k)))))
    return Instance(kind, k + 1, edges, wps, 99), frozenset(range(k)), k


@given(stars())
@settings(max_examples=200, deadline=None)
def test_walk_matches_the_size_table(star):
    """The behavior walk lists a vertex's behaviors once each, the same set
    as the multisets of each size its kind allows."""
    inst, M, centre = star
    got = enumerate_vertex_behaviors(inst, M, centre)
    assert len(set(got)) == len(got)
    assert set(got) == set(vertex_behaviors(inst, centre))


@given(stars())
@settings(max_examples=200, deadline=None)
def test_guard_counts_the_behaviors_before_the_walk(star):
    """The count checked against the guard before the walk is the number of
    behaviors the walk finds: the walk runs at a guard equal to it, and does
    not start at a guard one below it."""
    inst, M, centre = star
    found = len(enumerate_vertex_behaviors(inst, M, centre))

    def no_walk(*args):
        raise AssertionError("the walk started past the guard")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(marking, "BEHAVIOR_GUARD", found)
        assert len(enumerate_vertex_behaviors(inst, M, centre)) == found
        mp.setattr(marking, "BEHAVIOR_GUARD", found - 1)
        mp.setattr(vc, "unit_behaviors", no_walk)
        with pytest.raises(ScaleError, match=f"exceeds guard {found - 1}$"):
            enumerate_vertex_behaviors(inst, M, centre)


def test_many_edges_cost_their_behaviors():
    """A tsp vertex with 300 edges into a 5-vertex cover has 300 * 301 / 2
    behaviors.  Once a prefix puts two ends in the cover the walk sets the
    rest to 0 at once; stepping through them would visit some 300^3 / 6
    prefixes."""
    edges = tuple(Edge(j % 5, 5, 1 + j % 7) for j in range(300))
    inst = Instance("tsp", 6, edges, frozenset(range(6)), 10**6)
    t0 = time.perf_counter()
    behaviors = enumerate_vertex_behaviors(inst, set(range(5)), 5)
    assert time.perf_counter() - t0 < 1
    assert len(behaviors) == 45150


def test_vertex_behavior_guard(monkeypatch, tmp_path, capsys):
    """A wrp waypoint with 12 parallel capacity-2 edges into the cover has
    78 behaviors of degree 2 and 1221 of degree 4, past a guard of 1000:
    the walk stops with ScaleError, which the CLI reports as exit 3."""
    inst = Instance("wrp", 2, tuple(Edge(0, 1, 1 + j, 2) for j in range(12)),
                    frozenset({0, 1}), 10**6)
    assert len(enumerate_vertex_behaviors(inst, {0}, 1)) == 1299
    monkeypatch.setattr(marking, "BEHAVIOR_GUARD", 1000)
    with pytest.raises(ScaleError, match="behavior count exceeds guard 1000"):
        enumerate_vertex_behaviors(inst, {0}, 1)
    path = tmp_path / "parallel.grw"
    path.write_text(render_instance(inst))
    assert main(["kernelize", str(path), str(tmp_path / "k.grw"), "--regime", "vc-wrp"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "scale exceeded: behavior count exceeds guard 1000\n"


def test_vertex_behavior_guard_refuses_before_the_walk(tmp_path, capsys):
    """A wrp waypoint with 60 parallel capacity-2 edges into a one-vertex
    cover has 593 895 behaviors, past the guard of 3^12: kernelize stops at
    once with exit 3, without walking the guard's worth of them first."""
    inst = Instance("wrp", 2, tuple(Edge(0, 1, 1 + j, 2) for j in range(60)),
                    frozenset({0, 1}), 10**6)
    path = tmp_path / "parallel.grw"
    path.write_text(render_instance(inst))
    t0 = time.perf_counter()
    code = main(["kernelize", str(path), str(tmp_path / "k.grw"), "--regime", "vc-wrp"])
    assert time.perf_counter() - t0 < 0.5
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"scale exceeded: behavior count exceeds guard {marking.BEHAVIOR_GUARD}\n"


def test_natural_tsp_doubled_cheapest():
    inst = two_neighbor_tsp()
    nat = round_unit(inst, {0, 1}, {2}).natural
    assert nat.edges == (1, 1) and nat.weight == 4


def test_natural_tsp_tie_lowest_index():
    inst = two_neighbor_tsp(2, 2)
    nat = round_unit(inst, {0, 1}, {2}).natural
    assert nat.edges == (1, 1)
    assert nat == Behavior.of(inst, (1, 1))


def test_natural_wrp_nonwaypoint_empty():
    inst = Instance("wrp", 2, (Edge(0, 1, 3, 2),), frozenset({0}), 9)
    nat = round_unit(inst, {0}, {1}).natural
    assert nat.edges == () and nat.weight == 0


def test_impacts():
    inst = two_neighbor_tsp()
    behaviors = {b.edges: b for b in enumerate_vertex_behaviors(inst, {0, 1}, 2)}
    assert impact_of(inst, {0, 1}, behaviors[(1, 1)]) == Impact(frozenset({0}))
    assert impact_of(inst, {0, 1}, behaviors[(1, 2)]) == Impact(frozenset({0, 1}),
                                                                (((0, 1), 1),))
    wrp = Instance("wrp", 4, (Edge(0, 3, 1, 2), Edge(1, 3, 1, 2), Edge(2, 3, 1, 2)),
                   frozenset({3}), 9)
    beh = [b for b in enumerate_vertex_behaviors(wrp, {0, 1, 2}, 3)
           if b.edges == (0, 0, 1, 2)][0]
    # vertex 0, touched twice, is the least: its parity follows from the others'
    imp = impact_of(wrp, {0, 1, 2}, beh)
    assert imp.detail == (((0, 1), 1), ((0, 2), 1))


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_impact_splits_like_vertex_classes(seed):
    """A vertex outside the cover is a one-vertex component: on its star,
    `impact_of` tells two behaviors of any two vertices apart exactly when
    their parity classes differ."""
    rng = random.Random(seed)
    kind = rng.choice(("tsp", "wrp"))
    k = rng.randint(1, 4)
    n = k + rng.randint(1, 5)
    edges = []
    for v in range(k, n):
        # neighbours drawn with repetition give parallel edges
        for m in rng.choices(range(k), k=rng.randint(1, 4)):
            edges.append(Edge(m, v, rng.randint(1, 9),
                              rng.choice((1, 2)) if kind == "wrp" else None))
    wps = (frozenset(range(n)) if kind == "tsp"
           else frozenset(v for v in range(n) if rng.random() < 0.5))
    inst = Instance(kind, n, tuple(edges), wps, 99)
    M = frozenset(range(k))
    pairs = {(impact_of(inst, M, b), vertex_classes(inst, v, b))
             for v in range(k, n) for b in enumerate_vertex_behaviors(inst, M, v)}
    assert len({imp for imp, _ in pairs}) == len(pairs) == len({cls for _, cls in pairs})


def test_prices_tsp():
    inst = two_neighbor_tsp()  # weights 2, 5 -> b_nat weight 4
    u = round_unit(inst, {0, 1}, {2})
    assert u.price(Impact(frozenset({1}))) == 6
    assert u.price(Impact(frozenset({0, 1}), (((0, 1), 1),))) == 3
    assert u.price(Impact(frozenset({0, 1}))) == float("inf")
    assert u.price(Impact(frozenset({0, 1, 2}))) == float("inf")


def test_price_wrp_mismatch_infinite():
    inst = Instance("wrp", 2, (Edge(0, 1, 3, 2),), frozenset({0, 1}), 9)
    nat_imp = Impact(frozenset({0}))
    wrong = Impact(frozenset(), ())
    u = round_unit(inst, {0}, {1})
    # a unit is priced from its own natural impact only
    assert u.impact != wrong and u.price(wrong) == float("inf")
    assert u.impact == nat_imp and u.price(nat_imp) == 0


def _cover_instance(rng, kind, k, extra):
    """Random instance whose first k vertices form a vertex cover."""
    n = k + extra
    edges = []
    for i in range(k - 1):
        edges.append(Edge(i, i + 1, rng.randint(1, 9),
                          rng.choice([1, 2]) if kind == "wrp" else None))
    for v in range(k, n):
        for m in rng.sample(range(k), rng.randint(1, min(2, k))):
            edges.append(Edge(m, v, rng.randint(1, 9),
                              rng.choice([1, 2]) if kind == "wrp" else None))
    if kind == "tsp":
        wps = frozenset(range(n))
    else:
        wps = frozenset(v for v in range(n) if rng.random() < 0.6)
    return Instance(kind, n, tuple(edges), wps, rng.randint(0, 60))


def test_rule_tsp_small_untouched():
    rng = random.Random(0)
    inst = _cover_instance(rng, "tsp", 2, 3)
    report = KernelReport(pipeline="vc-tsp")
    out = rule_vc_tsp(inst, {0, 1}, report)
    # |R| = 3 <= 3k = 6: everything marked
    assert report.stats["removed"] == 0 and out.n == inst.n


def test_impact_bound_is_checked(monkeypatch):
    # an impact function that tells every behavior apart breaks the k^2 bound
    monkeypatch.setattr(marking, "impact_of",
                        lambda inst, M, b: Impact(frozenset(b.edges)))
    inst = _cover_instance(random.Random(0), "tsp", 2, 8)
    with pytest.raises(InvariantError, match="k\\^2 bound"):
        rule_vc_tsp(inst, {0, 1}, KernelReport(pipeline="vc-tsp"))


def test_close_round_checks_parity():
    inst = two_neighbor_tsp()
    nat = round_unit(inst, {0, 1}, {2}).natural
    lone = Unit((2,), nat, impact_of(inst, {0, 1}, nat), {})
    with pytest.raises(InvariantError, match="odd number"):
        close_round(inst, KernelReport(pipeline="vc-wrp"), "rule_vc_wrp", [lone], set(),
                    "vertices")


def test_close_round_extends_promotions():
    # a run's rounds share one report, so each promotion adds to the last
    inst = Instance("wrp", 3, (Edge(0, 2, 1, 2), Edge(1, 2, 1, 2)), frozenset({2}), 10)
    report = KernelReport(pipeline="vc-wrp")
    out = close_round(inst, report, "rule_vc_wrp", [], set(), "vertices", frozenset({1}))
    out = close_round(out, report, "rule_vc_wrp", [], set(), "vertices", frozenset({0, 1}))
    assert report.promoted_waypoints == [1, 0]
    assert report.rule_firings == {"rule_vc_wrp": 2}
    assert out.waypoints == {0, 1, 2}
    # the text report lists them sorted, the json one in promotion order, both 1-based
    assert "\npromoted waypoints: 1 2\n" in report.to_text()
    assert json.loads(report.to_json())["promoted_waypoints"] == [2, 1]


def test_rule_tsp_shared_impact_keeps_3k():
    k = 2
    edges = [Edge(0, 1, 1)]
    n = 2 + 10 * k
    for v in range(2, n):
        edges.append(Edge(0, v, 1))
        edges.append(Edge(1, v, 1))
    inst = Instance("tsp", n, tuple(edges), frozenset(range(n)), 10**6)
    report = KernelReport(pipeline="vc-tsp")
    out = rule_vc_tsp(inst, {0, 1}, report)
    per_impact_cap = 3 * k
    # every r has identical behaviors: impacts {0},{1},{0,1} -> <= 3 * 3k survive
    assert out.n - 2 <= 3 * per_impact_cap
    assert report.stats["removed"] == (n - 2) - (out.n - 2)
    assert report.stats["impact_count"] <= k * k


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_rule_tsp_safe_and_bounded(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    inst = _cover_instance(rng, "tsp", k, rng.randint(1, 5))
    if len(inst.edges) > 12:
        return
    report = KernelReport(pipeline="vc-tsp")
    out = rule_vc_tsp(inst, set(range(k)), report)
    if report.decided is not None:
        assert solve_exact_multiplicity(inst).feasible == (report.decided == "yes")
        return
    assert out.n - k <= 3 * k**3
    assert solve_exact_multiplicity(inst).feasible == solve_exact_multiplicity(out).feasible


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_rule_wrp_safe_even_removals(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    inst = _cover_instance(rng, "wrp", k, rng.randint(1, 6))
    if len(inst.edges) > 12 or len(inst.waypoints) <= 1:
        return  # the rule presumes the stop rule already ran
    report = KernelReport(pipeline="vc-wrp")
    out = rule_vc_wrp(inst, set(range(k)), report)
    if report.decided is not None:
        assert solve_exact_multiplicity(inst).feasible == (report.decided == "yes")
        return
    if report.promoted_waypoints:
        assert out.n == inst.n
        assert out.waypoints > inst.waypoints
    assert solve_exact_multiplicity(inst).feasible == solve_exact_multiplicity(out).feasible
    total_marks = sum(report.marks.values())
    assert total_marks <= report.stats["mark_bound"]


def test_promotion_hub():
    """A non-waypoint cover vertex with many naturally-attached waypoints
    gets promoted instead of anything being deleted."""
    k = 2
    n = 2 + 14
    edges = [Edge(0, 1, 1, 2)]
    for v in range(2, n):
        edges.append(Edge(0, v, 1, 2))
        edges.append(Edge(1, v, 9, 2))
    wps = frozenset(range(2, n))  # both cover vertices are non-waypoints
    inst = Instance("wrp", n, tuple(edges), wps, 10**6)
    report = KernelReport(pipeline="vc-wrp")
    out = rule_vc_wrp(inst, {0, 1}, report)
    if report.promoted_waypoints:
        assert 0 in report.promoted_waypoints
        assert out.n == inst.n
    else:
        # if marking absorbed everything, nothing may be deleted unsafely
        assert solve_exact_multiplicity(out).feasible == \
            solve_exact_multiplicity(inst).feasible


def test_pipeline_kind_checks():
    inst = Instance("stsp", 2, (Edge(0, 1, 1),), frozenset({0, 1}), 9)
    with pytest.raises(InstanceError):
        kernelize_vc_tsp(inst)
    with pytest.raises(InstanceError):
        kernelize_vc_wrp(inst)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_pipeline_deterministic(seed):
    rng = random.Random(seed)
    inst = _cover_instance(rng, "wrp", rng.randint(1, 3), rng.randint(1, 5))
    a = kernelize_vc_wrp(inst)
    b = kernelize_vc_wrp(inst)
    assert a[0] == b[0]
    assert a[1].to_json() == b[1].to_json()
