"""Vertex-cover-parameterized kernels.

With a vertex cover M, every vertex r outside M has all its edges into M.
A solution restricted to r is a "behavior": a small multiset of r's edges
(two occurrences for the all-waypoint kind; zero, two, or four for the
capacitated kind).  The impact of a behavior is the set of cover vertices it
touches, and for the capacitated kind also the parity of each touch.  Each
vertex outside M is one unit of the marking scheme in `marking`.  Neither
depends on weights, so a round enumerates them once per vertex shape: the
kind, whether the vertex is a waypoint, and the cover vertex and effective
capacity of each of its edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instance import KIND_TSP, KIND_WRP, Instance, InstanceError, InvariantError
from .marking import (
    Behavior,
    Unit,
    close_round,
    collect_units,
    mark_red,
    settle,
    table_impacts,
    shaped_unit,
)
from .report import KernelReport


@dataclass(frozen=True)
class VertexImpact:
    touched: frozenset[int]
    degrees: tuple[tuple[int, int], ...] | None = None  # (m, parity class), wrp only

    # impacts key the tables and red-marking buckets of a round, and a frozen
    # dataclass rebuilds the tuple of its fields for every hash: take the
    # same hash once
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.touched, self.degrees)))

    def __hash__(self):
        return self._hash


def enumerate_vertex_behaviors(inst: Instance, M, r: int) -> list[Behavior]:
    if r in M:
        raise InstanceError(f"vertex {r + 1} is in the modulator")
    incident = inst.adjacency()[r]
    for i in incident:
        w = inst.edges[i].other(r)
        if w not in M:
            raise InstanceError(f"M is not a vertex cover: edge {r + 1}-{w + 1} has no end in it")

    def usable(combo) -> bool:
        for i in set(combo):
            count = combo.count(i)
            if count > inst.effective_capacity(inst.edges[i]):
                return False
        return True

    out = []
    if inst.kind == KIND_TSP:
        for combo in itertools.combinations_with_replacement(incident, 2):
            if usable(combo):
                out.append(Behavior.of(inst, combo))
    elif inst.kind == KIND_WRP:
        if r not in inst.waypoints:
            out.append(Behavior((), 0))
        for size in (2, 4):
            for combo in itertools.combinations_with_replacement(incident, size):
                if usable(combo):
                    out.append(Behavior.of(inst, combo))
    else:
        raise InstanceError(f"vertex behaviors need the tsp or wrp kind, got {inst.kind}")
    return out


def vertex_impact(inst: Instance, r: int, behavior: Behavior) -> VertexImpact:
    """The cover vertices that `behavior`, a behavior of vertex r, touches,
    and for the capacitated kind the parity class of each touch."""
    deg: dict[int, int] = {}
    for i in behavior.edges:
        m = inst.edges[i].other(r)
        deg[m] = deg.get(m, 0) + 1
    touched = frozenset(deg)
    if inst.kind == KIND_TSP:
        return VertexImpact(touched)
    classes = tuple(sorted((m, 1 if d % 2 else 2) for m, d in deg.items()))
    return VertexImpact(touched, classes)


def vertex_unit(inst: Instance, M, r: int, shapes: dict) -> Unit:
    """The unit of vertex r.  `shapes` is a round's memo of vertex shapes:
    the kind, whether r is a waypoint, and the cover vertex and effective
    capacity of each edge at r, in `adjacency()` order."""
    eids = inst.adjacency()[r]
    edges = [inst.edges[i] for i in eids]
    key = (inst.kind, r in inst.waypoints,
           tuple((e.other(r), inst.effective_capacity(e)) for e in edges))
    return shaped_unit(shapes, key, f"vertex {r + 1}", (r,), inst, eids,
                       lambda: enumerate_vertex_behaviors(inst, M, r),
                       lambda b: vertex_impact(inst, r, b))


def rule_vc_tsp(inst: Instance, M, report: KernelReport) -> Instance:
    """Marking rule for the all-waypoint kind: per impact keep the 3k
    cheapest realizers, delete the rest, charge their natural cost."""
    M = frozenset(M)
    k = len(M)
    R = sorted(set(range(inst.n)) - M)
    shapes: dict = {}
    units = collect_units(report, R, lambda r: vertex_unit(inst, M, r, shapes))
    if units is None:
        return inst
    impacts = table_impacts(units)
    if len(impacts) > k * k:
        raise InvariantError(f"{len(impacts)} impacts exceed the k^2 bound for k={k}")
    kept = mark_red(units, 3 * k, one_row=True)
    report.add_marks("kept", len(kept))
    report.stats.update(impact_count=len(impacts), k=k, r_bound=3 * k**3)
    # a deleted vertex is charged its doubled cheapest edge, so parity is moot
    out = close_round(inst, report, "rule_vc_tsp", units, kept, "vertices", parity=False)
    report.stats["r_size"] = len(R) - report.stats["removed"]
    return out


def rule_vc_wrp(inst: Instance, M, report: KernelReport) -> Instance:
    """Red/yellow/green marking with waypoint promotion for the capacitated
    kind; see `marking`."""
    M = frozenset(M)
    k = len(M)
    R = sorted(set(range(inst.n)) - M)
    shapes: dict = {}
    units = collect_units(report, R, lambda r: vertex_unit(inst, M, r, shapes))
    if units is None:
        return inst
    ni = len(table_impacts(units))
    n2 = len({u.impact for u in units})
    red = mark_red(units, 2 * n2 + k)
    yellow, green, promotions = settle(units, red, inst.waypoints, 2 * n2)
    report.add_marks("red", len(red))
    report.add_marks("yellow", len(yellow))
    report.add_marks("green", len(green))
    report.stats.update(
        impact_count=ni,
        impact2_count=n2,
        k=k,
        mark_bound=(2 * n2 + k) * n2 * ni + 4 * n2,
    )
    return close_round(inst, report, "rule_vc_wrp", units, red | yellow | green, "vertices",
                       promotions)
