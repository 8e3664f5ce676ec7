"""Modulator-based kernels.

Given a modulator M whose removal leaves small components (or short paths),
each component C interacts with a solution through a "behavior": an edge
multiset of G_C = G[C u M] minus modulator-internal edges, giving every
C-vertex nonzero even degree, anchoring every piece at M, and crossing into
M at most 2r times.  Components are fingerprinted by the impact (touched
modulator vertices plus connectivity/parity representative edges) and pruned
by the red/blue/green (and, for the subset kind, yellow/promotion) marking
rules.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .instance import (
    Instance,
    InstanceError,
    KIND_SUBTSP,
    KIND_TSP,
    ScaleError,
)
from .preprocess import rr_short_circuit
from .report import KernelReport

INF = math.inf


class InfeasibleComponent(ValueError):
    """Some component admits no behavior: the instance has no solution."""


@dataclass(frozen=True)
class ComponentBehavior:
    component: int  # index into the decomposition; -1 when free-standing
    edges: tuple[int, ...]  # sorted edge indices, with repetition
    weight: int


@dataclass(frozen=True)
class ComponentImpact:
    touched: frozenset[int]
    rep_edges: tuple[tuple[tuple[int, int], int], ...]  # ((mi, mj), mult)


@dataclass(frozen=True)
class Piece:
    path_vertices: tuple[int, ...]
    legs: tuple[int, ...]  # modulator-incident edge indices, with repetition


def component_graph(inst: Instance, M, C) -> list[int]:
    """Edge indices of G_C: all edges inside C or between C and M."""
    M, Cset = set(M), set(C)
    out = []
    for i, e in enumerate(inst.edges):
        if e.u in Cset or e.v in Cset:
            if {e.u, e.v} <= Cset | M:
                out.append(i)
    return out


def _behavior_multiset(counts: dict[int, int]):
    return tuple(sorted(itertools.chain.from_iterable([i] * c for i, c in counts.items() if c)))


def is_component_behavior(inst: Instance, M, C, r: int, edge_counts: dict[int, int]) -> bool:
    """The defining predicate: nonzero even C-degrees, M-anchored components,
    at most 2r modulator-incident edge occurrences."""
    M, Cset = set(M), set(C)
    deg: dict[int, int] = {}
    m_occ = 0
    for i, c in edge_counts.items():
        if c == 0:
            continue
        e = inst.edges[i]
        if c > inst.effective_capacity(e):
            return False
        if not ({e.u, e.v} <= Cset | M) or {e.u, e.v} <= M:
            return False
        deg[e.u] = deg.get(e.u, 0) + c
        deg[e.v] = deg.get(e.v, 0) + c
        if e.u in M or e.v in M:
            m_occ += c
    if m_occ > 2 * r:
        return False
    for v in Cset:
        d = deg.get(v, 0)
        if d == 0 or d % 2:
            return False
    # every support component holding a C-vertex must reach M
    support = set(deg)
    adj = {v: [] for v in support}
    for i, c in edge_counts.items():
        if c:
            e = inst.edges[i]
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
    seen = set()
    for s in support:
        if s in seen or s in M:
            continue
        comp, stack = set(), [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.add(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if not comp & M:
            return False
    return True


def enumerate_component_behaviors(inst: Instance, M, C, r: int,
                                  guard: int = 3**12) -> list[ComponentBehavior]:
    eids = component_graph(inst, M, C)
    ranges = [range(inst.effective_capacity(inst.edges[i]) + 1) for i in eids]
    space = 1
    for rg in ranges:
        space *= len(rg)
    if space > guard:
        raise ScaleError(f"behavior enumeration space {space} exceeds guard {guard}")
    out = []
    for counts in itertools.product(*ranges):
        table = dict(zip(eids, counts))
        if is_component_behavior(inst, M, C, r, table):
            edges = _behavior_multiset(table)
            weight = sum(inst.edges[i].weight for i in edges)
            out.append(ComponentBehavior(-1, edges, weight))
    return out


def natural_behavior_component(inst: Instance, M, C, r: int,
                               behaviors=None) -> ComponentBehavior:
    if behaviors is None:
        behaviors = enumerate_component_behaviors(inst, M, C, r)
    if not behaviors:
        raise InfeasibleComponent(f"component {sorted(C)} admits no behavior")
    return min(behaviors, key=lambda b: (b.weight, b.edges))


def component_impact(inst: Instance, M, behavior: ComponentBehavior) -> ComponentImpact:
    M = set(M)
    deg: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for i in behavior.edges:
        e = inst.edges[i]
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    touched = frozenset(v for v in deg if v in M)

    rep: dict[tuple[int, int], int] = {}
    seen = set()
    for s in sorted(adj):
        if s in seen:
            continue
        comp, stack = set(), [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.add(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        mverts = sorted(comp & M)
        if len(mverts) < 2:
            continue
        mi = mverts[0]
        for mj in mverts[1:]:
            rep[(mi, mj)] = 1 if deg[mj] % 2 else 2
        # parity law: the representative's D-degree parity matches its F-degree
        assert sum(rep[(mi, mj)] for mj in mverts[1:]) % 2 == deg[mi] % 2
    return ComponentImpact(touched, tuple(sorted(rep.items())))


def _impact_table(inst: Instance, M, behaviors):
    table: dict[ComponentImpact, int] = {}
    for b in behaviors:
        imp = component_impact(inst, M, b)
        if imp not in table or b.weight < table[imp]:
            table[imp] = b.weight
    return table


def price_component(inst: Instance, M, C, r: int, I: ComponentImpact, I2: ComponentImpact,
                    behaviors=None):
    if behaviors is None:
        behaviors = enumerate_component_behaviors(inst, M, C, r)
    if not behaviors:
        return INF
    nat = natural_behavior_component(inst, M, C, r, behaviors)
    if component_impact(inst, M, nat) != I:
        return INF
    table = _impact_table(inst, M, behaviors)
    if I2 not in table:
        return INF
    return table[I2] - nat.weight


def _impact_key(imp: ComponentImpact):
    return (sorted(imp.touched), imp.rep_edges)


def _shortest_mm_paths(inst: Instance, M, C):
    """dict (u,v) -> shortest u-v distance through G_C, for u < v in M."""
    eids = component_graph(inst, M, C)
    Cset = set(C)
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


class _ComponentData:
    def __init__(self, inst, M, C, r, guard):
        self.C = tuple(sorted(C))
        self.behaviors = enumerate_component_behaviors(inst, M, C, r, guard)
        if not self.behaviors:
            raise InfeasibleComponent(f"component {sorted(C)} admits no behavior")
        self.nat = natural_behavior_component(inst, M, C, r, self.behaviors)
        self.nat_impact = component_impact(inst, M, self.nat)
        self.table = _impact_table(inst, M, self.behaviors)


def _mark_red_blue(inst, M, comps, data):
    impacts = sorted({imp for d in data for imp in d.table}, key=_impact_key)
    k = len(M)
    cap = 2 * len(impacts) ** 2 + 2 * k
    red = set()
    for I in impacts:
        for I2 in impacts:
            priced = []
            for ci, d in enumerate(data):
                if d.nat_impact == I and I2 in d.table:
                    priced.append((d.table[I2] - d.nat.weight, ci))
            priced.sort()
            for _, ci in priced[:cap]:
                red.add(ci)
    blue = set()
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for ci, comp in enumerate(comps):
        for pair, dist in _shortest_mm_paths(inst, M, comp).items():
            if pair not in best or (dist, ci) < best[pair]:
                best[pair] = (dist, ci)
    for dist, ci in best.values():
        blue.add(ci)
    return impacts, red, blue


def rule_components_tsp(inst: Instance, M, r: int,
                        guard: int = 3**12) -> tuple[Instance, KernelReport]:
    report = KernelReport(pipeline="components-tsp")
    if inst.kind != KIND_TSP:
        raise InstanceError("component rule applies to the all-waypoint kind")
    M = frozenset(M)
    comps = inst.components(without=M)
    try:
        data = [_ComponentData(inst, M, comp, r, guard) for comp in comps]
    except InfeasibleComponent as exc:
        report.decided = "no"
        report.log.append(str(exc))
        return inst, report

    impacts, red, blue = _mark_red_blue(inst, M, comps, data)
    green = set()
    for I in impacts:
        group = [ci for ci in range(len(comps))
                 if ci not in red and ci not in blue and data[ci].nat_impact == I]
        if group:
            green.update(group[:1] if len(group) % 2 else group[:2])

    unmarked = [ci for ci in range(len(comps)) if ci not in red | blue | green]
    k = len(M)
    ni = len(impacts)
    bound = 2 * (ni**2 + 2 * k) * ni**2 + math.comb(k, 2) + 2 * ni
    report.add_marks("red", len(red))
    report.add_marks("blue", len(blue))
    report.add_marks("green", len(green))
    report.stats.update(
        impact_count=ni, k=k, r=r,
        components=len(comps), removed=len(unmarked),
        component_bound=bound, components_left=len(comps) - len(unmarked),
    )
    per_impact: dict = {}
    for ci in unmarked:
        per_impact[data[ci].nat_impact] = per_impact.get(data[ci].nat_impact, 0) + 1
    assert all(c % 2 == 0 for c in per_impact.values())
    if not unmarked:
        report.log.append("nothing removed")
        return inst, report
    victims = set(itertools.chain.from_iterable(comps[ci] for ci in unmarked))
    delta = -sum(data[ci].nat.weight for ci in unmarked)
    out = inst.remove_vertices(victims, budget_delta=delta)
    report.budget_delta = delta
    report.fire("rule_components_tsp", f"removed {len(unmarked)} component(s), budget {delta:+d}")
    return out, report


# -- subset kind: saturation, pieces, blending, Rule 10 ----------------------

def saturate_path_nonterminals(inst: Instance, M=None) -> Instance:
    """Short-circuit every non-waypoint outside M; paths stay paths."""
    if inst.kind != KIND_SUBTSP:
        raise InstanceError("saturation applies to the subset kind")
    if M is None:
        if inst.modulator_hint is None:
            raise InstanceError("saturation needs a modulator (argument or hint)")
        M = inst.modulator_hint
    cur = inst if inst.modulator_hint == frozenset(M) else \
        Instance(inst.kind, inst.n, inst.edges, inst.waypoints, inst.budget, frozenset(M))
    while True:
        victim = next((v for v in range(cur.n)
                       if v not in cur.waypoints and v not in cur.modulator_hint), None)
        if victim is None:
            return cur
        cur = rr_short_circuit(cur, victim).instance


def pieces(inst: Instance, M, behavior: ComponentBehavior) -> list[Piece]:
    M = set(M)
    cadj: dict[int, list[int]] = {}
    legs_at: dict[int, list[int]] = {}
    cverts = set()
    for i in behavior.edges:
        e = inst.edges[i]
        ends = set(e.ends())
        if ends & M:
            (c,) = ends - M
            legs_at.setdefault(c, []).append(i)
            cverts.add(c)
        else:
            cadj.setdefault(e.u, []).append(e.v)
            cadj.setdefault(e.v, []).append(e.u)
            cverts |= ends
    seen, out = set(), []
    for s in sorted(cverts):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in cadj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort()
        legs = tuple(sorted(itertools.chain.from_iterable(legs_at.get(v, ()) for v in comp)))
        out.append(Piece(tuple(comp), legs))
    return out


def blend_behavior(inst: Instance, M, C, A: ComponentBehavior, M_prime, v: int,
                   r: int, guard: int = 3**12) -> ComponentBehavior:
    """A behavior touching v, confined to T(A) u T(b^nat), anchored at M',
    no heavier than A.  Existence is the blending lemma; we search for it."""
    M, M_prime = set(M), set(M_prime)
    behaviors = enumerate_component_behaviors(inst, M, C, r, guard)
    nat = natural_behavior_component(inst, M, C, r, behaviors)
    nat_touch = component_impact(inst, M, nat).touched
    a_touch = component_impact(inst, M, A).touched
    if v not in nat_touch or v in M_prime:
        raise InstanceError("v must be naturally touched and outside M'")
    if not a_touch <= M_prime:
        raise InstanceError("A must touch only M'")
    if any(len(p.legs) != 2 for p in pieces(inst, M, A)):
        raise InstanceError("every piece of A must have two legs")

    allowed = a_touch | nat_touch
    found = None
    for b in behaviors:
        if b.weight > A.weight:
            continue
        imp = component_impact(inst, M, b)
        if v not in imp.touched or not imp.touched <= allowed:
            continue
        if not _anchored_at(inst, M, b, M_prime):
            continue
        if found is None or (b.weight, b.edges) < (found.weight, found.edges):
            found = b
    assert found is not None, "blending lemma guarantees a feasible behavior"
    return found


def _anchored_at(inst: Instance, M, behavior: ComponentBehavior, M_prime) -> bool:
    """Every support component with a non-modulator vertex reaches M'."""
    adj: dict[int, list[int]] = {}
    for i in behavior.edges:
        e = inst.edges[i]
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    M = set(M)
    seen = set()
    for s in sorted(adj):
        if s in seen or s in M:
            continue
        comp, stack = set(), [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            comp.add(x)
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if not comp & set(M_prime):
            return False
    return True


def rule_paths_subtsp(inst: Instance, M, r: int,
                      guard: int = 3**12) -> tuple[Instance, KernelReport]:
    report = KernelReport(pipeline="paths-subtsp")
    if inst.kind != KIND_SUBTSP:
        raise InstanceError("path rule applies to the subset kind")
    M = frozenset(M)
    comps = inst.components(without=M)
    if any(v not in inst.waypoints for comp in comps for v in comp):
        raise InstanceError("saturation required: every path vertex must be a waypoint")
    try:
        data = [_ComponentData(inst, M, comp, r, guard) for comp in comps]
    except InfeasibleComponent as exc:
        report.decided = "no"
        report.log.append(str(exc))
        return inst, report

    impacts, red, blue = _mark_red_blue(inst, M, comps, data)
    k = len(M)
    ni = len(impacts)
    yellow_cap = ((r + 1) ** (4 * r) * 2 ** (4 * r + 1) + k) * ni

    green, yellow = set(), set()
    promotions: set[int] = set()
    for I in impacts:
        group = [ci for ci in range(len(comps))
                 if ci not in red and ci not in blue and data[ci].nat_impact == I]
        if not group:
            continue
        if I.touched <= inst.waypoints:
            green.update(group[:1] if len(group) % 2 else group[:2])
        elif len(group) <= yellow_cap:
            yellow.update(group)
        else:
            promotions |= I.touched

    bound = (2 * (ni**2 + 2 * k) * ni**2 + math.comb(k, 2) + 2 * ni
             + yellow_cap * ni)
    report.add_marks("red", len(red))
    report.add_marks("blue", len(blue))
    report.add_marks("green", len(green))
    report.add_marks("yellow", len(yellow))
    report.stats.update(
        impact_count=ni, k=k, r=r, yellow_cap=yellow_cap,
        components=len(comps), component_bound=bound,
    )

    if promotions:
        new_w = promotions - inst.waypoints
        out = Instance(inst.kind, inst.n, inst.edges,
                       inst.waypoints | new_w, inst.budget, inst.modulator_hint)
        report.promoted_waypoints = sorted(new_w)
        report.fire("rule_paths_subtsp", f"promoted {len(new_w)} waypoint(s)")
        report.stats.update(removed=0, components_left=len(comps))
        return out, report

    unmarked = [ci for ci in range(len(comps)) if ci not in red | blue | green | yellow]
    per_impact: dict = {}
    for ci in unmarked:
        per_impact[data[ci].nat_impact] = per_impact.get(data[ci].nat_impact, 0) + 1
    assert all(c % 2 == 0 for c in per_impact.values())
    report.stats.update(removed=len(unmarked), components_left=len(comps) - len(unmarked))
    if not unmarked:
        report.log.append("nothing removed")
        return inst, report
    victims = set(itertools.chain.from_iterable(comps[ci] for ci in unmarked))
    delta = -sum(data[ci].nat.weight for ci in unmarked)
    out = inst.remove_vertices(victims, budget_delta=delta)
    report.budget_delta = delta
    report.fire("rule_paths_subtsp", f"removed {len(unmarked)} component(s), budget {delta:+d}")
    return out, report
