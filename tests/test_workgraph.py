"""The work graph behind the FES rules and path saturation.

The rules edit one mutable `WorkGraph` across a whole kernelization.  These
tests pin that engine to the rules' meaning on frozen instances: the FES
driver must give the kernel and report of a loop that applies each rule to a
fresh work graph of a frozen instance and freezes the result, and
saturation must give what repeated short-circuits of frozen instances give.
A rebuild count guards against a return to one new instance per firing.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tspkern.fes import FES_RULES
from tspkern.gadgets import gen_planted
from tspkern.instance import Edge, Instance, InstanceError, WorkGraph, as_wrp, compute_fes
from tspkern.modulator import saturate_path_nonterminals
from tspkern.pipelines import kernelize
from tspkern.preprocess import compress_weights, ensure_connected, rr_short_circuit, rr_stop
from tspkern.report import KernelReport


def reference_fes(inst: Instance):
    """The FES pipeline with every rule applied to a fresh work graph of a
    frozen instance, frozen again after each firing."""
    report = KernelReport(pipeline="fes")
    if inst.kind != "wrp":
        report.log.append(f"reinterpreted {inst.kind} input as wrp with capacities 2")
        inst = as_wrp(inst)
    start = inst

    def settles(outcome, name):
        if outcome.decided:
            report.decided = outcome.verdict
            report.fire(name, outcome.log_entry)
        return outcome.decided

    def rounds(inst):
        if settles(rr_stop(inst), "rr_stop"):
            return inst
        outcome = ensure_connected(inst)
        if settles(outcome, "ensure_connected"):
            return inst
        if outcome.verdict == "reduced":
            report.fire("ensure_connected", outcome.log_entry)
            inst = outcome.instance
        while True:
            for name, rule in FES_RULES:
                outcome = rule(WorkGraph(inst))
                if outcome.verdict != "unchanged":
                    break
            else:
                return inst
            report.fire(name, outcome.log_entry)
            if outcome.decided:
                report.decided = outcome.verdict
                return inst
            inst = outcome.instance.freeze()
            if settles(rr_stop(inst), "rr_stop"):
                return inst

    inst = rounds(inst)
    if report.decided is None:
        outcome = compress_weights(inst)
        if outcome.verdict == "reduced":
            report.fire("compress_weights", outcome.log_entry)
            inst = outcome.instance
        report.stats.update(vertices=inst.n, edges=len(inst.edges))
        report.budget_delta = inst.budget - start.budget
    report.stats["fes_input"] = len(compute_fes(start))
    if report.decided is None:
        k = len(compute_fes(inst))
        report.stats.update(fes_output=k, vertex_bound=8 * k, edge_bound=9 * k)
    return inst, report


def random_multigraph(rng: random.Random) -> Instance:
    """A connected wrp multigraph with parallel edges, mixed capacities and
    a random waypoint set."""
    n = rng.randint(2, 40)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, n)):
        if rng.random() < 0.3:
            edges.append(rng.choice(edges))  # a parallel edge
        else:
            edges.append(tuple(rng.sample(range(n), 2)))
    wps = frozenset(v for v in range(n) if rng.random() < rng.random())
    return Instance("wrp", n, tuple(Edge(u, v, rng.randint(0, 9), rng.choice((1, 2, 2, 2)))
                                    for u, v in edges), wps, rng.randint(0, 20 * n))


def assert_same_as_reference(inst):
    kernel, report = kernelize(inst, "fes")
    ref_kernel, ref_report = reference_fes(inst)
    assert kernel == ref_kernel
    assert report.to_json() == ref_report.to_json()


# gen_planted solves each input to set its budget, which takes up to seconds
# on subset inputs with many waypoints, so the planted runs are fewer
@given(st.sampled_from(("tsp", "stsp", "wrp")), st.integers(8, 60), st.integers(1, 6),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_fes_driver_matches_frozen_rules_on_planted(kind, n, k, seed):
    assert_same_as_reference(gen_planted(kind, "fes", k, 1, n, seed=seed))


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_fes_driver_matches_frozen_rules_on_multigraphs(seed):
    assert_same_as_reference(random_multigraph(random.Random(seed)))


def reference_saturate(inst: Instance) -> Instance:
    """Short-circuit the lowest non-waypoint outside the hint, on a fresh
    work graph of one frozen instance at a time."""
    while True:
        victim = next((v for v in range(inst.n) if v not in inst.waypoints
                       and v not in inst.modulator_hint), None)
        if victim is None:
            return inst
        inst = rr_short_circuit(WorkGraph(inst), victim).instance.freeze()


@given(st.integers(1, 4), st.integers(1, 3), st.integers(6, 80), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_saturation_matches_repeated_short_circuits(k, r, n, seed):
    inst = gen_planted("stsp", "paths", k, r, n, seed=seed)
    assert saturate_path_nonterminals(inst) == reference_saturate(inst)


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_saturation_matches_on_multigraphs(seed):
    rng = random.Random(seed)
    inst = random_multigraph(rng)
    inst = Instance("stsp", inst.n, tuple(Edge(e.u, e.v, e.weight) for e in inst.edges),
                    inst.waypoints, inst.budget,
                    frozenset(v for v in range(inst.n) if rng.random() < 0.2))
    assert outcome(saturate_path_nonterminals, inst) == outcome(reference_saturate, inst)


def outcome(fn, inst):
    """fn(inst), or the message of the InstanceError it raises: saturating
    a graph with no waypoint and no hint deletes every vertex."""
    try:
        return fn(inst)
    except InstanceError as exc:
        return f"InstanceError: {exc}"


def test_freeze_renumbers_like_remove_vertices():
    inst = Instance("wrp", 5, (Edge(0, 1, 1, 2), Edge(3, 1, 2, 1), Edge(2, 3, 3, 2),
                               Edge(4, 3, 4, 2)), frozenset({1, 2, 4}), 30, frozenset({3}))
    g = WorkGraph(inst)
    g.remove_vertices((2,))
    g.add_edge(Edge(4, 1, 7, 1))
    g.budget -= 5
    frozen = g.freeze()
    assert frozen == Instance("wrp", 4, (Edge(0, 1, 1, 2), Edge(2, 1, 2, 1), Edge(3, 2, 4, 2),
                                         Edge(3, 1, 7, 1)), frozenset({1, 3}), 25, frozenset({2}))
    assert g.label(4) == 4 and g.label(1) == 2
    g.remove_vertices((3,))
    assert g.modulator_hint is None  # a hint vertex is gone


def test_leaf_heaps_follow_edits():
    inst = Instance("wrp", 4, (Edge(0, 1, 1, 1), Edge(1, 2, 1, 2), Edge(2, 3, 1, 2)),
                    frozenset({0, 3}), 9)
    g = WorkGraph(inst)
    assert g.leaf(waypoint=True) == 0
    assert g.leaf(waypoint=True, cap1=True) == 0
    assert g.leaf(waypoint=False) is None
    g.remove_vertices((0,))
    assert g.leaf(waypoint=False) == 1
    assert g.leaf(waypoint=True, cap1=True) is None
    g.add_waypoint(1)
    assert g.leaf(waypoint=False) is None
    assert g.leaf(waypoint=True) == 1


@pytest.fixture
def instance_builds(monkeypatch):
    """A counter of the Instance objects built while the fixture is alive."""
    built = []
    check = Instance.__post_init__

    def counting(self):
        built.append(self.n)
        check(self)

    monkeypatch.setattr(Instance, "__post_init__", counting)
    return built


@pytest.mark.parametrize("seed", range(3))
def test_fes_kernelize_builds_few_instances(seed, instance_builds):
    inst = gen_planted("tsp", "fes", 5, 1, 400, seed=seed)
    instance_builds.clear()
    kernelize(inst, "fes")
    assert len(instance_builds) <= 5


@pytest.mark.parametrize("seed", range(3))
def test_saturation_builds_few_instances(seed, instance_builds):
    inst = gen_planted("stsp", "paths", 3, 2, 400, seed=seed)
    instance_builds.clear()
    out = saturate_path_nonterminals(inst)
    assert out.n < inst.n
    assert len(instance_builds) <= 2
