"""Modulator-based kernels.

Given a modulator M whose removal leaves small components (or short paths),
each component C interacts with a solution through a "behavior": an edge
multiset of G_C = G[C u M] minus modulator-internal edges, giving every
C-vertex nonzero even degree, anchoring every piece at M, and crossing into
M at most 2r times.  Behaviors come from `oracle`'s multiplicity folds:
`even_covering`, one bit per C-vertex, keeps the vectors of even nonzero
C-degrees, an `np.add` fold bounds the crossings, and only the survivors
are decoded and walked for M-anchoring.  Components are fingerprinted by
the impact (touched modulator vertices plus connectivity/parity
representative edges) and pruned by the marking scheme in `marking`: each
component is one unit.  A round enumerates behaviors and impacts once per
component shape (r, and the ends and effective capacity of each edge of
G_C, with C-vertices by position and modulator vertices by id), and each
component weighs them with its own weights.  Blue marking, which keeps
shortest modulator-to-modulator paths, lives here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .instance import (
    Instance,
    InstanceError,
    InvariantError,
    KIND_SUBTSP,
    KIND_TSP,
    ScaleError,
    WorkGraph,
    component_walk,
)
from .marking import (
    INF,
    Behavior,
    Unit,
    close_round,
    collect_units,
    mark_red,
    settle,
    table_impacts,
    shaped_unit,
)
from .oracle import decode, even_covering, multiplicity_grid
from .preprocess import rr_short_circuit
from .report import KernelReport

# most multiplicity vectors a component's behaviors are enumerated from
BEHAVIOR_GUARD = 3**12


@dataclass(frozen=True)
class ComponentImpact:
    touched: frozenset[int]
    rep_edges: tuple[tuple[tuple[int, int], int], ...]  # ((mi, mj), mult)

    # hashed once, as `vc.VertexImpact` is
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.touched, self.rep_edges)))

    def __hash__(self):
        return self._hash


def component_graph(inst: Instance, M, C) -> list[int]:
    """Edge indices of G_C: all edges inside C or between C and M."""
    adj, inside = inst.adjacency(), set(C) | set(M)
    return sorted({i for v in C for i in adj[v] if inst.edges[i].other(v) in inside})


def enumerate_component_behaviors(inst: Instance, M, C, r: int) -> list[Behavior]:
    """Every behavior of C, in lexicographic order of its multiplicity
    vector over `component_graph`'s edges."""
    # the folds vary their first edge fastest, so they run over the edges reversed
    eids = component_graph(inst, M, C)[::-1]
    bases = [inst.effective_capacity(inst.edges[i]) + 1 for i in eids]
    space = math.prod(bases)
    if space > BEHAVIOR_GUARD:
        raise ScaleError(f"behavior enumeration space {space} exceeds guard {BEHAVIOR_GUARD}")
    if not eids:
        return []
    # one bit per C-vertex, which must get nonzero even degree, and at most
    # 2r edge occurrences into M
    M = set(M)
    bit = {v: 1 << i for i, v in enumerate(sorted(C))}
    ends = [bit.get(inst.edges[i].u, 0) | bit.get(inst.edges[i].v, 0) for i in eids]
    index = even_covering(bases, ends, ends, sum(bit.values()))
    into_m = [[0, 1, 2] if {inst.edges[i].u, inst.edges[i].v} & M else [0, 0, 0] for i in eids]
    index = index[multiplicity_grid(bases, np.array(into_m, dtype=np.int32))[index] <= 2 * r]
    out = []
    for row in decode(bases, index).tolist():
        # no edge joins two modulator vertices, so every piece of the
        # support holds a C-vertex and must reach M
        if all(not M.isdisjoint(piece) for piece in
               component_walk(inst, [i for i, c in zip(eids, row) if c])):
            out.append(Behavior.of(inst, [i for i, c in zip(eids, row) for _ in range(c)]))
    return out


def _label(C) -> str:
    return f"component {[v + 1 for v in sorted(C)]}"


def component_impact(inst: Instance, M, behavior: Behavior) -> ComponentImpact:
    M = set(M)
    deg: dict[int, int] = {}
    for i in behavior.edges:
        e = inst.edges[i]
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    touched = frozenset(v for v in deg if v in M)

    rep: dict[tuple[int, int], int] = {}
    for comp in component_walk(inst, behavior.edges):
        mverts = sorted(M.intersection(comp))
        if len(mverts) < 2:
            continue
        mi = mverts[0]
        for mj in mverts[1:]:
            rep[(mi, mj)] = 1 if deg[mj] % 2 else 2
        # parity law: the representative's D-degree parity matches its F-degree
        if sum(rep[(mi, mj)] for mj in mverts[1:]) % 2 != deg[mi] % 2:
            raise InvariantError("behavior impact breaks the parity law"
                                 f" at modulator vertex {mi + 1}")
    return ComponentImpact(touched, tuple(sorted(rep.items())))


def component_unit(inst: Instance, M, C, r: int, shapes: dict, eids) -> Unit:
    """The unit of component C, whose `component_graph` is `eids`.  `shapes`
    is a round's memo of component shapes: r and, for each edge of G_C in
    ascending id order, the roles of its ends and its effective capacity.  A
    C-vertex's role is its position in sorted C, a modulator vertex m's is
    ~m."""
    role = {v: p for p, v in enumerate(sorted(C))}
    edges = [inst.edges[i] for i in eids]
    key = (r, tuple((role.get(e.u, ~e.u), role.get(e.v, ~e.v), inst.effective_capacity(e))
                    for e in edges))
    return shaped_unit(shapes, key, _label(C), C, inst, eids,
                       lambda: enumerate_component_behaviors(inst, M, C, r),
                       lambda b: component_impact(inst, M, b))


def _shortest_mm_paths(inst: Instance, M, eids):
    """dict (u,v) -> shortest u-v distance through G_C, whose edges are
    `eids`, for u < v in M."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for i in eids:
        e = inst.edges[i]
        adj.setdefault(e.u, []).append((e.v, e.weight))
        adj.setdefault(e.v, []).append((e.u, e.weight))
    out = {}
    for u in sorted(M):
        if u not in adj:
            continue
        dist = {u: 0}
        heap = [(0, u)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist.get(v, INF):
                continue
            if v in M and v != u:
                # don't expand through modulator vertices: a u-v walk through
                # m in M contains a u-m path that is no longer, so clamping
                # here keeps every pairwise minimum correct
                continue
            for w, wt in adj[v]:
                nd = d + wt
                if nd < dist.get(w, INF):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
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
    comps = inst.components(without=M)
    # each component's G_C, once; components are disjoint, so their least
    # vertices tell them apart
    graphs = {C[0]: component_graph(inst, M, C) for C in comps}
    shapes: dict = {}
    units = collect_units(report, comps,
                          lambda C: component_unit(inst, M, C, r, shapes, graphs[C[0]]))
    if units is None:
        return inst
    k = len(M)
    ni = len(table_impacts(units))
    red = mark_red(units, 2 * ni**2 + 2 * k)
    blue = _mark_blue(inst, M, graphs.values())
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
