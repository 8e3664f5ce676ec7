"""The marking scheme shared by the vertex-cover and modulator kernels.

A *unit* is what a marking rule keeps or deletes whole: one vertex outside
the vertex cover (`vc.py`) or one component of G minus the modulator
(`modulator.py`).  A solution meets a unit through a *behavior*
(`Behavior`), an edge multiset with a weight.  The unit's natural behavior
is its least behavior by (weight, edges), and an *impact* (`Impact`,
computed by `impact_of`) is the fingerprint a behavior leaves on the cover
or modulator.  A vertex outside a vertex cover is a one-vertex component
of G minus the cover, so one impact function serves both kinds of unit.
The unit's *impact table* maps each impact of its behaviors to the least
weight among them; the price of an impact is that weight minus the
natural weight.

One walk, `unit_behaviors`, lists the behaviors of both kinds of unit;
`most`, the edge ends a behavior may put on the cover or modulator, is 2
for a tsp vertex, 4 for a wrp one and 2r for a component.

A round builds its units once per *shape* (`collect_units`).  Behaviors
and their impacts never read edge weights: they follow from the unit's
shape, a weight-free key that only this module computes.  It holds each
unit vertex's waypoint flag and, per edge in ascending id order, the roles
of its ends, lower first, and its effective capacity.  A unit vertex's role
is its position in the unit and a cover or modulator vertex m's is ~m, so
impacts name the same M-vertices; the kind, r and M are fixed in a round.
Behaviors and impacts are undirected, so a key blind to how an edge is
written merges no units whose behaviors differ.  The first unit of a
shape enumerates its behaviors and their impacts, stored by edge position;
every unit then maps them onto its own edge ids and weighs them with its
own weights, which gives its natural behavior and its impact table.  The
memo is a dict that `collect_units` makes for its round, so no shape
outlives the round.

A round marks units in colors and deletes the rest:

- red: for every pair (natural impact, impact in the table), the `cap`
  units of least price, ties to the lower index.  The all-waypoint vertex
  cover rule ranks every unit in one row, per table impact only;
- blue (modulator kernels, in `modulator.py`): for every pair of modulator
  vertices, a component holding a shortest path between them;
- yellow or promotion: the units left are grouped by natural impact.  A
  group whose impact touches a non-waypoint is yellow when it has at most
  `yellow_cap` units; otherwise every vertex its impact touches becomes a
  waypoint;
- green: every group that is not yellow keeps one or two units, so that an
  even number of units with each natural impact stays unmarked.

A round that promotes waypoints deletes nothing; the kernel driver runs the
rule again on the larger waypoint set.  Otherwise every unmarked unit is
deleted and the budget is charged its natural weight.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .instance import Instance, InvariantError, ScaleError, component_walk, merge_blocks
from .report import KernelReport

INF = math.inf

# most behaviors a unit may have; `modulator` also caps a component's
# multiplicity vectors by it
BEHAVIOR_GUARD = 3**12


class NoBehavior(ValueError):
    """Some unit admits no behavior: the instance has no solution."""


@dataclass(frozen=True)
class Behavior:
    edges: tuple[int, ...]  # sorted edge indices, with repetition
    weight: int

    @classmethod
    def of(cls, inst: Instance, eids) -> "Behavior":
        """The behavior using the edges `eids`, with repetition, in any order."""
        edges = tuple(sorted(eids))
        return cls(edges, sum(inst.edges[i].weight for i in edges))


class Impact(NamedTuple):
    """A behavior's fingerprint (`impact_of`): the cover or modulator
    vertices it touches, and for each piece of its support that holds two or
    more M-vertices, a representative per pair (least, other) of them."""
    touched: frozenset
    detail: tuple = ()


def impact_of(inst: Instance, M, behavior: Behavior) -> Impact:
    """The impact of `behavior` on M.  Each piece of its support pairs its
    least M-vertex mi with every other M-vertex mj of the piece, as a single
    edge (1) when mj's degree is odd and a double edge (2) when it is even;
    the parity law checks that these representatives give mi its degree's
    parity."""
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
    return Impact(touched, tuple(sorted(rep.items())))


def unit_behaviors(inst: Instance, C, eids, most: int) -> list[Behavior]:
    """The behaviors of the unit on the vertices C with the edges `eids`,
    ascending: the vectors x, 0 <= x[j] <= edge j's effective capacity,
    that give every C-vertex even degree, nonzero at a waypoint, put at
    most `most` edge ends outside C and leave no piece of their support
    inside C, in lexicographic order.  A depth-first walk sets x[0], x[1],
    ... in turn, each from 0 up, and drops a prefix once a C-vertex whose
    edges are all set fails its degree test or more than `most` ends lie
    outside C.  Once `most` are reached and every edge left crosses, the
    rest are 0 in one step, so the work follows the output.  The walk keeps
    its prefixes on a stack, as a unit's edge count has no bound, and
    raises ScaleError once it has found more than BEHAVIOR_GUARD
    behaviors."""
    wps, es = inst.waypoints, [inst.edges[i] for i in eids]
    bit = {v: 1 << c for c, v in enumerate(C)}  # C-vertices' bits lowest
    cmask = (1 << len(bit)) - 1
    cross = [(e.u not in bit) + (e.v not in bit) for e in es]
    ends = {i: bit.setdefault(e.u, 1 << len(bit)) | bit.setdefault(e.v, 1 << len(bit))
            for i, e in zip(eids, es)}
    last = {v: j for j, e in enumerate(es) for v in (e.u, e.v)}
    done = [[v for v in C if last.get(v) == j] for j in range(len(es))]  # last edge j
    tail = max((j + 1 for j, c in enumerate(cross) if not c), default=0)  # all cross from here

    def fits(deg, vs):  # even degrees, nonzero at waypoints
        for v in vs:
            if deg[v] % 2 or not deg[v] and v in wps:
                return False
        return True

    # a prefix: its length, ends outside C, weight, edges with repetition and C-degrees
    found, stack = [], [(0, 0, 0, (), dict.fromkeys(C, 0))]
    while stack:
        p, out, weight, edges, deg = stack.pop()
        if p >= tail and (p == len(es) or out == most):  # the edges from p on stay 0
            masks = [ends[i] for i in edges]
            if fits(deg, C) and all(b > cmask for b in merge_blocks(masks[:1], masks)):
                found.append(Behavior(edges, weight))
                if len(found) > BEHAVIOR_GUARD:
                    raise ScaleError(f"behavior count exceeds guard {BEHAVIOR_GUARD}")
            continue
        e = es[p]
        for c in range(inst.effective_capacity(e), -1, -1):  # 0 is popped first
            if out + c * cross[p] <= most:
                d = dict(deg)
                for v in (e.u, e.v):
                    if v in d:
                        d[v] += c
                if fits(d, done[p]):
                    stack.append((p + 1, out + c * cross[p], weight + c * e.weight,
                                  edges + (eids[p],) * c, d))
    return found


@dataclass(frozen=True)
class Unit:
    deletes: tuple[int, ...]  # the vertices deleted with the unit
    natural: Behavior
    impact: Impact  # the natural behavior's impact
    table: dict  # impact -> least weight of a behavior with that impact

    def price(self, impact) -> float:
        if impact not in self.table:
            return INF
        return self.table[impact] - self.natural.weight


def _unit(shapes: dict, inst: Instance, M, label: str, vertices, eids,
          behaviors: Callable) -> Unit:
    """The unit on `vertices`, in the order that gives their roles, and
    the edges `eids`, in ascending order, priced by `inst`'s weights.  The
    first unit of a shape enumerates `behaviors(vertices)` and stores them in
    `shapes` as (edge positions, impact on M); later units of the shape only
    weigh them.  `label` names the unit in the `NoBehavior` raised when it
    has no behavior."""
    role = {v: p for p, v in enumerate(vertices)}
    key = [tuple(v in inst.waypoints for v in vertices)]
    for i in eids:
        e = inst.edges[i]
        a, b, cap = role.get(e.u, ~e.u), role.get(e.v, ~e.v), inst.effective_capacity(e)
        key.append((a, b, cap) if a < b else (b, a, cap))
    key = tuple(key)
    shape = shapes.get(key)
    if shape is None:
        position = {i: p for p, i in enumerate(eids)}
        shape = shapes[key] = [(tuple(position[i] for i in b.edges), impact_of(inst, M, b))
                               for b in behaviors(vertices)]
    if not shape:
        raise NoBehavior(f"{label} admits no behavior")
    w = [inst.edges[i].weight for i in eids]
    table: dict = {}
    best = nat_imp = None
    for at, imp in shape:
        weight = sum(map(w.__getitem__, at))
        if weight < table.get(imp, INF):
            table[imp] = weight
        # ids ascend with positions, so (weight, positions) orders the
        # behaviors as (weight, edges) does
        if best is None or (weight, at) < best:
            best, nat_imp = (weight, at), imp
    return Unit(tuple(vertices), Behavior.of(inst, (eids[p] for p in best[1])), nat_imp, table)


def collect_units(report: KernelReport, inst: Instance, M, units,
                  behaviors: Callable) -> list[Unit] | None:
    """The round's units, one per (label, vertices, edge ids) in `units`, or
    None once some unit admits no behavior; the report then carries the
    "no" verdict.  `behaviors(vertices)` lists a unit's behaviors; the
    unit deletes its vertices."""
    shapes: dict = {}
    try:
        return [_unit(shapes, inst, M, label, vertices, eids, behaviors)
                for label, vertices, eids in units]
    except NoBehavior as exc:
        report.decided = "no"
        report.log.append(str(exc))
        return None


def table_impacts(units) -> set:
    return {imp for u in units for imp in u.table}


def mark_red(units, cap: int, one_row: bool = False) -> set[int]:
    """Indices of the `cap` units of least (price, index) for every pair
    (natural impact, table impact); with `one_row`, for every table impact."""
    buckets: dict = {}
    for ui, u in enumerate(units):
        row = None if one_row else u.impact
        for imp in u.table:
            buckets.setdefault((row, imp), []).append((u.price(imp), ui))
    red: set[int] = set()
    for bucket in buckets.values():
        bucket.sort()
        red.update(ui for _, ui in bucket[:cap])
    return red


def settle(units, kept: set[int], waypoints, yellow_cap: int = 0):
    """(yellow, green, promoted vertices) for the units outside `kept`.

    `yellow_cap` is read only for impacts that touch a non-waypoint, so the
    all-waypoint kind needs none."""
    groups: dict = {}
    for ui, u in enumerate(units):
        if ui not in kept:
            groups.setdefault(u.impact, []).append(ui)
    yellow: set[int] = set()
    green: set[int] = set()
    promotions: set[int] = set()
    for imp, group in groups.items():
        if not imp.touched <= waypoints:
            if len(group) <= yellow_cap:
                yellow.update(group)
                continue
            promotions |= imp.touched
        green.update(group[:1] if len(group) % 2 else group[:2])
    return yellow, green, promotions


def close_round(inst: Instance, report: KernelReport, rule: str, units, marked: set[int],
                noun: str, promotions=frozenset(), parity: bool = True) -> Instance:
    """Promote waypoints, or delete every unmarked unit and charge its natural
    weight; sets `stats["removed"]`.  With `parity`, the deleted units of
    each natural impact must be even in number, as green marking leaves them."""
    if promotions:
        new_w = promotions - inst.waypoints
        report.promoted_waypoints.extend(sorted(new_w))
        report.fire(rule, f"promoted {len(new_w)} waypoint(s)")
        report.stats["removed"] = 0
        return replace(inst, waypoints=inst.waypoints | new_w)
    removed = [units[ui] for ui in range(len(units)) if ui not in marked]
    if parity:
        per_impact = Counter(u.impact for u in removed)
        if any(c % 2 for c in per_impact.values()):
            raise InvariantError(f"{rule} would remove an odd number of {noun}"
                                 " with one natural impact")
    report.stats["removed"] = len(removed)
    if not removed:
        report.log.append("nothing removed")
        return inst
    victims = {v for u in removed for v in u.deletes}
    delta = -sum(u.natural.weight for u in removed)
    report.fire(rule, f"removed {len(removed)} {noun}, budget {delta:+d}")
    return inst.remove_vertices(victims, budget_delta=delta)
