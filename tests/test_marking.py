"""A marking round builds its units once per weight-free shape.

Every unit of every round must equal the plain build from its own
behaviors (`lemmas.unit`), in the round's order, and a round that meets a
unit without behaviors must name the same unit.  A kernel run enumerates
behaviors once per shape, and no shape outlives its round.
"""

import random
from collections import Counter

import pytest

from lemmas import unit
from tspkern import marking, modulator, vc
from tspkern.gadgets import gen_planted
from tspkern.instance import KIND_WRP, Edge, Instance, InstanceError, ScaleError
from tspkern.marking import NoBehavior
from tspkern.modulator import _label, rule_components_tsp
from tspkern.pipelines import REGIMES, kernelize
from tspkern.report import KernelReport
from tspkern.vc import rule_vc_tsp

# (kind, planted regime, kernel regime)
CASES = [("tsp", "vc", "vc-tsp"), ("wrp", "vc", "vc-wrp"),
         ("tsp", "components", "components"), ("stsp", "paths", "paths")]


def _relabelled(inst: Instance, rng: random.Random, dead: bool = False) -> Instance:
    """`inst` with its vertices renumbered and its edges reordered at random,
    and fresh weights in 1..3, so that units of one shape sit at other ids
    and differ in weight.  Wrp capacities are drawn afresh too; unless
    `dead`, capacity 1 only on an edge whose ends both have another edge,
    so that every unit has a behavior and a round builds all its units."""
    degree = Counter(v for e in inst.edges for v in e.ends())
    perm = rng.sample(range(inst.n), inst.n)

    def cap(e):
        if inst.kind != KIND_WRP:
            return None
        lone = degree[e.u] == 1 or degree[e.v] == 1
        return 2 if lone and not dead else rng.choice((1, 2))

    edges = [Edge(perm[e.u], perm[e.v], rng.randint(1, 3), cap(e)) for e in inst.edges]
    rng.shuffle(edges)
    return Instance(inst.kind, inst.n, tuple(edges), frozenset(perm[v] for v in inst.waypoints),
                    inst.budget, frozenset(perm[v] for v in inst.modulator_hint))


def _plain_round(inst: Instance, M, r: int, vertices: bool):
    """(vertex sets, units, None) of a round built unit by unit from each
    unit's own behaviors, or (vertex sets, the units before it, the
    message) when some unit has no behavior."""
    if vertices:
        keys = [(v,) for v in sorted(set(range(inst.n)) - M)]
        build = [lambda v=v: unit(f"vertex {v + 1}", (v,), inst, M,
                                  vc.enumerate_vertex_behaviors(inst, M, v)) for (v,) in keys]
    else:
        keys = [tuple(C) for C in inst.components(without=M)]
        build = [lambda C=C: unit(_label(C), C, inst, M,
                                  modulator.enumerate_component_behaviors(inst, M, C, r))
                 for C in keys]
    units = []
    for make in build:
        try:
            units.append(make())
        except NoBehavior as exc:
            return keys, units, str(exc)
    return keys, units, None


def _check_rounds(monkeypatch, inst: Instance, regime: str, r: int) -> tuple[int, int, bool]:
    """Run `regime`'s rounds on `inst` to their fixpoint, as `kernelize` does
    after its stop rules, and compare each round's units with the plain
    build.  Returns (units built, enumerator calls the rounds made, whether
    a round stopped at a unit without behaviors)."""
    vertices = regime.startswith("vc")
    module, name = (vc, "enumerate_vertex_behaviors") if vertices else (
        modulator, "enumerate_component_behaviors")
    # `marking`'s own functions: an earlier call in the same test leaves its
    # spy on `module.collect_units` until the test ends
    enumerate_, collect, build = getattr(module, name), marking.collect_units, marking._unit
    calls, seen = [], []

    def counted(*args):
        calls.append(args)
        return enumerate_(*args)

    def spy(report, inst, M, units, behaviors):
        units, built = list(units), []
        seen.append(([tuple(vs) for _, vs, _ in units], built))

        def record(*args):
            built.append(build(*args))
            return built[-1]
        monkeypatch.setattr(marking, "_unit", record)
        try:
            return collect(report, inst, M, units, behaviors)
        finally:
            monkeypatch.setattr(marking, "_unit", build)

    monkeypatch.setattr(module, "collect_units", spy)
    spec = REGIMES[regime]
    report = KernelReport(pipeline=spec.pipeline)
    inst = spec.structure(inst, r, None, report)
    units = made = 0
    while True:
        fired = sum(report.rule_firings.values())
        seen.clear()
        calls.clear()
        monkeypatch.setattr(module, name, counted)
        out = spec.rule(inst, r, report)
        monkeypatch.setattr(module, name, enumerate_)
        [(keys, got)] = seen
        units, made = units + len(got), made + len(calls)
        expect_keys, expect, message = _plain_round(inst, inst.modulator_hint, r, vertices)
        assert keys == expect_keys
        assert got == expect
        if message is not None:
            assert report.decided == "no" and report.log[-1] == message
            return units, made, True
        assert report.decided is None
        if sum(report.rule_firings.values()) == fired:
            return units, made, False
        inst = out


@pytest.mark.parametrize("kind, planted, regime", CASES, ids=[c[2] for c in CASES])
def test_rounds_match_the_plain_build(monkeypatch, kind, planted, regime):
    rng = random.Random(f"shapes|{regime}")
    units = made = 0
    for seed in range(6):
        r = 1 + seed % 3
        base = gen_planted(kind, planted, 2 + seed % 2, r, 60 + 20 * seed, seed=seed)
        for _ in range(3):
            u, m, stopped = _check_rounds(monkeypatch, _relabelled(base, rng), regime, r)
            assert not stopped
            units, made = units + u, made + m
    # shapes repeat, so most units are built from a shape another unit of
    # their round enumerated
    assert made < units / 2


def test_first_unit_without_behavior_is_named(monkeypatch):
    """A waypoint whose only edge has capacity 1 has no behavior.  The round
    must build the same units before it and name the same vertex."""
    rng = random.Random("no behavior")
    stops = 0
    for seed in range(10):
        base = gen_planted("wrp", "vc", 2, 1, 40, seed=seed)
        stops += _check_rounds(monkeypatch, _relabelled(base, rng, dead=True), "vc-wrp", 1)[2]
    assert stops >= 5


def test_components_enumerated_once_per_shape(monkeypatch):
    """On planted components (n = 1600, k = r = 3) a unit per component
    enumerated behaviors 797 times.  Two kernel runs enumerate equally
    often, so no shape outlives its run."""
    inst = gen_planted("tsp", "components", 3, 3, 1600, seed=1)
    calls = []
    enumerate_ = modulator.enumerate_component_behaviors
    monkeypatch.setattr(modulator, "enumerate_component_behaviors",
                        lambda *args: calls.append(args) or enumerate_(*args))
    first = kernelize(inst, "components", 3)
    once = len(calls)
    assert 0 < once <= 797 // 10
    second = kernelize(inst, "components", 3)
    assert len(calls) == 2 * once
    assert first[0] == second[0] and first[1].to_json() == second[1].to_json()


def test_memo_is_blind_to_edge_orientation(monkeypatch):
    """Components {2} and {3} of G minus {0, 1} differ only in how their
    edges are written, 0-2 and 2-1 against 3-0 and 1-3: one shape, so one
    enumeration, and each unit still equals its plain build."""
    edges = (Edge(0, 1, 1), Edge(0, 2, 2), Edge(2, 1, 3), Edge(3, 0, 4), Edge(1, 3, 1))
    inst = Instance("tsp", 4, edges, frozenset(range(4)), 99)
    M = frozenset({0, 1})
    calls, seen = [], []
    enumerate_, collect = modulator.enumerate_component_behaviors, marking.collect_units
    monkeypatch.setattr(modulator, "enumerate_component_behaviors",
                        lambda *args: calls.append(args) or enumerate_(*args))
    monkeypatch.setattr(modulator, "collect_units",
                        lambda *args: seen.append(collect(*args)) or seen[-1])
    rule_components_tsp(inst, M, 1, KernelReport(pipeline="components-tsp"))
    assert len(calls) == 1
    assert seen == [[unit(_label(C), C, inst, M, enumerate_(inst, M, C, 1)) for C in ([2], [3])]]


def test_round_guards_still_fire():
    # component {0} joined to 13 modulator vertices: 3^13 multiplicity vectors
    star = Instance("tsp", 14, tuple(Edge(0, m, 1) for m in range(1, 14)),
                    frozenset(range(14)), 99)
    with pytest.raises(ScaleError, match="exceeds guard"):
        rule_components_tsp(star, set(range(1, 14)), 1, KernelReport(pipeline="components-tsp"))
    # vertex 2 has a neighbour, vertex 3, outside M = {1}
    path = Instance("tsp", 3, (Edge(0, 1, 1), Edge(1, 2, 1)), frozenset(range(3)), 99)
    with pytest.raises(InstanceError, match="not a vertex cover: edge 2-3"):
        rule_vc_tsp(path, {0}, KernelReport(pipeline="vc-tsp"))
