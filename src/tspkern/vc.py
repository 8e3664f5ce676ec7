"""Vertex-cover-parameterized kernels.

With a vertex cover M, every vertex r outside M has all its edges into M.
A solution restricted to r is a "behavior": a small multiset of r's edges
(two occurrences for the all-waypoint kind; zero, two, or four for the
capacitated kind).  Each vertex outside M is a one-vertex component of G
minus M and one unit of the marking scheme in `marking`, which fingerprints
its behaviors as it does a component's (`marking.impact_of`): the cover
vertices a behavior touches and the parity of each touch but the least
one's, which the others fix, since r's degree is even.  A round enumerates
them once per vertex shape, as `marking` defines it, by the walk that lists
a component's behaviors too (`marking.unit_behaviors`).
"""

from __future__ import annotations

from .instance import KIND_TSP, KIND_WRP, Instance, InstanceError, InvariantError
from .marking import (
    Behavior,
    close_round,
    collect_units,
    mark_red,
    settle,
    table_impacts,
    unit_behaviors,
)
from .report import KernelReport


def enumerate_vertex_behaviors(inst: Instance, M, r: int) -> list[Behavior]:
    if r in M:
        raise InstanceError(f"vertex {r + 1} is in the modulator")
    incident = inst.adjacency()[r]
    for i in incident:
        w = inst.edges[i].other(r)
        if w not in M:
            raise InstanceError(f"M is not a vertex cover: edge {r + 1}-{w + 1} has no end in it")

    if inst.kind not in (KIND_TSP, KIND_WRP):
        raise InstanceError(f"vertex behaviors need the tsp or wrp kind, got {inst.kind}")
    # r's degree is its ends outside {r}: 2 for tsp; 2 or 4 for wrp, or 0 at a non-waypoint
    return unit_behaviors(inst, (r,), incident, 2 if inst.kind == KIND_TSP else 4)


def _vertex_units(inst: Instance, M, R, report: KernelReport):
    """`marking.collect_units` over the vertices R outside the cover M."""
    adj = inst.adjacency()
    return collect_units(report, inst, M, ((f"vertex {r + 1}", (r,), adj[r]) for r in R),
                         lambda vertices: enumerate_vertex_behaviors(inst, M, vertices[0]))


def rule_vc_tsp(inst: Instance, M, report: KernelReport) -> Instance:
    """Marking rule for the all-waypoint kind: per impact keep the 3k
    cheapest realizers, delete the rest, charge their natural cost."""
    M = frozenset(M)
    k = len(M)
    R = sorted(set(range(inst.n)) - M)
    units = _vertex_units(inst, M, R, report)
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
    units = _vertex_units(inst, M, R, report)
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
