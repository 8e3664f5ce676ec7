"""Modulator-based kernels.

Given a modulator M whose removal leaves small components (or short paths),
each component C interacts with a solution through a "behavior": an edge
multiset of G_C = G[C u M] minus modulator-internal edges, giving every
C-vertex nonzero even degree, anchoring every piece at M, and crossing into
M at most 2r times.  Behaviors come from `marking.unit_behaviors`, the
walk that also lists a vertex's behaviors in `vc`: a vertex outside a
vertex cover is a one-vertex component.  Each component is one unit of the
marking scheme in `marking`, which fingerprints its behaviors by their impact
(`marking.impact_of`: the touched modulator vertices plus
connectivity/parity representative edges), enumerates them once per
component shape, as it defines it, and prunes the units.  Blue marking,
which keeps shortest modulator-to-modulator paths
(`instance.shortest_paths`), lives here.
"""

from __future__ import annotations

import math

from .instance import (
    Instance,
    InstanceError,
    KIND_SUBTSP,
    KIND_TSP,
    ScaleError,
    WorkGraph,
    shortest_paths,
)
from .marking import (
    BEHAVIOR_GUARD,
    Behavior,
    close_round,
    collect_units,
    mark_red,
    settle,
    table_impacts,
    unit_behaviors,
)
from .preprocess import rr_short_circuit
from .report import KernelReport


def component_graph(inst: Instance, M, C) -> list[int]:
    """Edge indices of G_C: all edges inside C or between C and M."""
    adj, inside = inst.adjacency(), set(C) | set(M)
    return sorted({i for v in C for i in adj[v] if inst.edges[i].other(v) in inside})


def enumerate_component_behaviors(inst: Instance, M, C, r: int) -> list[Behavior]:
    """Every behavior of C, in lexicographic order of its multiplicity
    vector over `component_graph`'s edges."""
    eids = component_graph(inst, M, C)
    space = math.prod(inst.effective_capacity(inst.edges[i]) + 1 for i in eids)
    if space > BEHAVIOR_GUARD:
        raise ScaleError(f"behavior enumeration space {space} exceeds guard {BEHAVIOR_GUARD}")
    return unit_behaviors(inst, C, eids, 2 * r)


def _label(C) -> str:
    return f"component {[v + 1 for v in sorted(C)]}"


def _shortest_mm_paths(inst: Instance, M, eids):
    """dict (u,v) -> shortest u-v distance through G_C, whose edges are
    `eids`, for u < v in M."""
    adj: dict[int, list[int]] = {}
    for i in eids:
        e = inst.edges[i]
        adj.setdefault(e.u, []).append(i)
        adj.setdefault(e.v, []).append(i)
    out = {}
    for u in sorted(M):
        if u not in adj:
            continue
        # don't expand through modulator vertices: a u-v walk through m in M
        # contains a u-m path that is no longer, so clamping there keeps
        # every pairwise minimum correct
        dist = {v: d for v, d, _ in shortest_paths(inst, u, adj, lambda x: x not in M)}
        for v in sorted(M):
            if v > u and v in dist:
                out[(u, v)] = dist[v]
    return out


def _mark_blue(inst: Instance, M, graphs) -> set[int]:
    """Per pair of modulator vertices joined through some component, the
    component of least (shortest path length, index).  `graphs` holds each
    component's G_C."""
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for ci, eids in enumerate(graphs):
        for pair, dist in _shortest_mm_paths(inst, M, eids).items():
            if pair not in best or (dist, ci) < best[pair]:
                best[pair] = (dist, ci)
    return {ci for _, ci in best.values()}


def _modulator_round(inst: Instance, M, r: int, rule: str, report: KernelReport,
                     yellow_cap=None) -> Instance:
    """One marking round over the components of G minus M, recorded in
    `report`.  `yellow_cap`, given for the subset kind only, maps
    (k, impact count) to the yellow cap."""
    if not M:  # G lies in the regime; no behavior could reach M, so mark nothing
        report.log.append("empty modulator: nothing to mark")
        return inst
    comps = inst.components(without=M)
    graphs = [component_graph(inst, M, C) for C in comps]
    units = collect_units(report, inst, M, ((_label(C), C, g) for C, g in zip(comps, graphs)),
                          lambda C: enumerate_component_behaviors(inst, M, C, r))
    if units is None:
        return inst
    k = len(M)
    ni = len(table_impacts(units))
    red = mark_red(units, 2 * ni**2 + 2 * k)
    blue = _mark_blue(inst, M, graphs)
    cap = 0 if yellow_cap is None else yellow_cap(k, ni)
    yellow, green, promotions = settle(units, red | blue, inst.waypoints, cap)
    report.add_marks("red", len(red))
    report.add_marks("blue", len(blue))
    report.add_marks("green", len(green))
    bound = 2 * (ni**2 + 2 * k) * ni**2 + math.comb(k, 2) + 2 * ni
    if yellow_cap is not None:
        report.add_marks("yellow", len(yellow))
        report.stats["yellow_cap"] = cap
        bound += cap * ni
    report.stats.update(impact_count=ni, k=k, r=r, components=len(comps),
                        component_bound=bound)
    out = close_round(inst, report, rule, units, red | blue | green | yellow,
                      "component(s)", promotions)
    report.stats["components_left"] = len(comps) - report.stats["removed"]
    return out


def rule_components_tsp(inst: Instance, M, r: int, report: KernelReport) -> Instance:
    if inst.kind != KIND_TSP:
        raise InstanceError("component rule applies to the all-waypoint kind")
    # every vertex is a waypoint, so no group is yellow
    return _modulator_round(inst, frozenset(M), r, "rule_components_tsp", report)


# -- subset kind: saturation and Rule 10 -------------------------------------

def saturate_path_nonterminals(inst: Instance) -> Instance:
    """Short-circuit every non-waypoint outside the modulator hint; paths
    stay paths."""
    if inst.kind != KIND_SUBTSP:
        raise InstanceError("saturation applies to the subset kind")
    if inst.modulator_hint is None:
        raise InstanceError("saturation needs a modulator hint")
    # short-circuiting keeps every other vertex and the waypoints, so the
    # victims, taken lowest first, are known up front
    g = WorkGraph(inst)
    for v in range(inst.n):
        if v not in inst.waypoints and v not in inst.modulator_hint:
            rr_short_circuit(g, v)
    return g.freeze()


def rule_paths_subtsp(inst: Instance, M, r: int, report: KernelReport) -> Instance:
    if inst.kind != KIND_SUBTSP:
        raise InstanceError("path rule applies to the subset kind")
    M = frozenset(M)
    if any(v not in inst.waypoints for v in range(inst.n) if v not in M):
        raise InstanceError("saturation required: every path vertex must be a waypoint")
    return _modulator_round(
        inst, M, r, "rule_paths_subtsp", report,
        yellow_cap=lambda k, ni: ((r + 1) ** (4 * r) * 2 ** (4 * r + 1) + k) * ni)
