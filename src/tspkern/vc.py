"""Vertex-cover-parameterized kernels.

With a vertex cover M, every vertex r outside M has all its edges into M.
A solution restricted to r is a "behavior": a small multiset of r's edges
(two occurrences for the all-waypoint kind; zero, two, or four for the
capacitated kind).  Vertices are grouped by the fingerprint ("impact") their
behaviors leave on M; per impact only the cheapest few can matter, the rest
are deleted and their natural cost is charged to the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .instance import Instance, InstanceError
from .report import KernelReport

INF = math.inf

REGIME_TSP = "tsp"
REGIME_WRP = "wrp"


class InfeasibleAtVertex(ValueError):
    """Some vertex admits no behavior: the instance has no solution."""


@dataclass(frozen=True)
class VertexBehavior:
    vertex: int
    edges: tuple[int, ...]  # sorted edge indices, with repetition
    weight: int


@dataclass(frozen=True)
class VertexImpact:
    touched: frozenset[int]
    degrees: tuple[tuple[int, int], ...] | None = None  # (m, parity class), wrp only


def _behavior(inst: Instance, r: int, eids) -> VertexBehavior:
    eids = tuple(sorted(eids))
    return VertexBehavior(r, eids, sum(inst.edges[i].weight for i in eids))


def enumerate_vertex_behaviors(inst: Instance, M, r: int, regime: str) -> list[VertexBehavior]:
    if r in M:
        raise InstanceError(f"vertex {r} is in the modulator")
    incident = [i for i, e in enumerate(inst.edges) if r in e.ends()]
    assert all(inst.edges[i].other(r) in M for i in incident), "M must be a vertex cover"

    def usable(combo) -> bool:
        for i in set(combo):
            count = combo.count(i)
            if count > inst.effective_capacity(inst.edges[i]):
                return False
        return True

    out = []
    if regime == REGIME_TSP:
        for combo in itertools.combinations_with_replacement(incident, 2):
            if usable(combo):
                out.append(_behavior(inst, r, combo))
    elif regime == REGIME_WRP:
        if r not in inst.waypoints:
            out.append(_behavior(inst, r, ()))
        for size in (2, 4):
            for combo in itertools.combinations_with_replacement(incident, size):
                if usable(combo):
                    out.append(_behavior(inst, r, combo))
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return out


def natural_behavior_vertex(inst: Instance, M, r: int, regime: str) -> VertexBehavior:
    if regime == REGIME_TSP:
        incident = [i for i, e in enumerate(inst.edges) if r in e.ends()]
        if not incident:
            raise InfeasibleAtVertex(f"vertex {r} has no incident edge")
        best = min(incident, key=lambda i: (inst.edges[i].weight, i))
        return _behavior(inst, r, (best, best))
    behaviors = enumerate_vertex_behaviors(inst, M, r, regime)
    if not behaviors:
        raise InfeasibleAtVertex(f"vertex {r} admits no behavior")
    return min(behaviors, key=lambda b: (b.weight, b.edges))


def vertex_impact(inst: Instance, behavior: VertexBehavior, regime: str) -> VertexImpact:
    deg: dict[int, int] = {}
    for i in behavior.edges:
        m = inst.edges[i].other(behavior.vertex)
        deg[m] = deg.get(m, 0) + 1
    touched = frozenset(deg)
    if regime == REGIME_TSP:
        return VertexImpact(touched)
    classes = tuple(sorted((m, 1 if d % 2 else 2) for m, d in deg.items()))
    return VertexImpact(touched, classes)


def _price_map(inst: Instance, M, r: int, regime: str):
    """impact -> min behavior weight, plus the natural behavior."""
    behaviors = enumerate_vertex_behaviors(inst, M, r, regime)
    if not behaviors:
        raise InfeasibleAtVertex(f"vertex {r} admits no behavior")
    nat = min(behaviors, key=lambda b: (b.weight, b.edges))
    if regime == REGIME_TSP:
        nat = natural_behavior_vertex(inst, M, r, regime)  # doubled cheapest edge
    table: dict[VertexImpact, int] = {}
    for b in behaviors:
        imp = vertex_impact(inst, b, regime)
        if imp not in table or b.weight < table[imp]:
            table[imp] = b.weight
    return nat, table


def price_vertex_tsp(inst: Instance, M, r: int, I: VertexImpact):
    nat, table = _price_map(inst, M, r, REGIME_TSP)
    if I not in table:
        return INF
    return table[I] - nat.weight


def price_vertex_wrp(inst: Instance, M, r: int, I: VertexImpact, I2: VertexImpact):
    nat, table = _price_map(inst, M, r, REGIME_WRP)
    if vertex_impact(inst, nat, REGIME_WRP) != I or I2 not in table:
        return INF
    return table[I2] - nat.weight


def rule_vc_tsp(inst: Instance, M) -> tuple[Instance, KernelReport]:
    """Marking rule for the all-waypoint kind: per impact keep the 3k
    cheapest realizers, delete the rest, charge their natural cost."""
    report = KernelReport(pipeline="vc-tsp")
    M = frozenset(M)
    k = len(M)
    R = sorted(set(range(inst.n)) - M)
    try:
        data = {}
        for r in R:
            nat, table = _price_map(inst, M, r, REGIME_TSP)
            data[r] = (nat, table)
    except InfeasibleAtVertex as exc:
        report.decided = "no"
        report.log.append(str(exc))
        return inst, report

    impacts = sorted({imp for _, table in data.values() for imp in table},
                     key=lambda i: sorted(i.touched))
    assert len(impacts) <= k * k, "impact count exceeds the k^2 bound"
    marked: set[int] = set()
    for I in impacts:
        priced = []
        for r in R:
            nat, table = data[r]
            if I in table:
                priced.append((table[I] - nat.weight, r))
        priced.sort()
        for _, r in priced[: 3 * k]:
            marked.add(r)
    removed = sorted(set(R) - marked)
    report.add_marks("kept", len(marked))
    report.stats.update(
        impact_count=len(impacts),
        k=k,
        removed=len(removed),
        r_bound=3 * k**3,
        r_size=len(R) - len(removed),
    )
    if not removed:
        report.log.append("nothing removed")
        return inst, report
    delta = -sum(data[r][0].weight for r in removed)
    out = inst.remove_vertices(removed, budget_delta=delta)
    report.budget_delta = delta
    report.fire("rule_vc_tsp", f"removed {len(removed)} vertices, budget {delta:+d}")
    return out, report


def rule_vc_wrp(inst: Instance, M) -> tuple[Instance, KernelReport]:
    """Red/yellow/green marking for the capacitated kind.

    Phases, in order: red keeps cheap realizers per impact pair; yellow keeps
    (or promotes to waypoint) groups naturally attached to non-waypoints;
    green fixes removal parity.  Deletion happens only when no promotion
    fired; promotions grow W and the driver restarts the rule.
    """
    report = KernelReport(pipeline="vc-wrp")
    M = frozenset(M)
    k = len(M)
    R = sorted(set(range(inst.n)) - M)
    try:
        data = {}
        for r in R:
            nat, table = _price_map(inst, M, r, REGIME_WRP)
            data[r] = (nat, vertex_impact(inst, nat, REGIME_WRP), table)
    except InfeasibleAtVertex as exc:
        report.decided = "no"
        report.log.append(str(exc))
        return inst, report

    def impact_key(imp):
        return (sorted(imp.touched), imp.degrees)

    impacts = sorted({imp for _, _, table in data.values() for imp in table}, key=impact_key)
    impacts2 = sorted({nat_imp for _, nat_imp, _ in data.values()}, key=impact_key)
    n2 = len(impacts2)

    red: set[int] = set()
    for I in impacts2:
        for I2 in impacts:
            priced = []
            for r in R:
                nat, nat_imp, table = data[r]
                if nat_imp == I and I2 in table:
                    priced.append((table[I2] - nat.weight, r))
            priced.sort()
            for _, r in priced[: 2 * n2 + k]:
                red.add(r)

    promotions: set[int] = set()
    yellow: set[int] = set()
    for I in impacts2:
        if I.touched <= inst.waypoints:
            continue
        group = [r for r in R if r not in red and data[r][1] == I]
        if len(group) <= 2 * n2:
            yellow.update(group)
        else:
            promotions |= I.touched

    green: set[int] = set()
    for I in impacts2:
        group = [r for r in R if r not in red and r not in yellow and data[r][1] == I]
        if group:
            green.update(group[:1] if len(group) % 2 else group[:2])

    report.add_marks("red", len(red))
    report.add_marks("yellow", len(yellow))
    report.add_marks("green", len(green))
    report.stats.update(
        impact_count=len(impacts),
        impact2_count=n2,
        k=k,
        mark_bound=(2 * n2 + k) * n2 * len(impacts) + 4 * n2,
    )

    if promotions:
        new_w = promotions - inst.waypoints
        out = Instance(inst.kind, inst.n, inst.edges,
                       inst.waypoints | new_w, inst.budget, inst.modulator_hint)
        report.promoted_waypoints = sorted(new_w)
        report.fire("rule_vc_wrp", f"promoted {len(new_w)} waypoint(s)")
        report.stats["removed"] = 0
        return out, report

    removed = sorted(set(R) - red - yellow - green)
    per_impact = {}
    for r in removed:
        per_impact[data[r][1]] = per_impact.get(data[r][1], 0) + 1
    assert all(c % 2 == 0 for c in per_impact.values()), "removed counts must be even per impact"
    report.stats["removed"] = len(removed)
    if not removed:
        report.log.append("nothing removed")
        return inst, report
    delta = -sum(data[r][0].weight for r in removed)
    out = inst.remove_vertices(removed, budget_delta=delta)
    report.budget_delta = delta
    report.fire("rule_vc_wrp", f"removed {len(removed)} vertices, budget {delta:+d}")
    return out, report
