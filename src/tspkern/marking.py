"""The marking scheme shared by the vertex-cover and modulator kernels.

A *unit* is what a marking rule keeps or deletes whole: one vertex outside
the vertex cover (`vc.py`) or one component of G minus the modulator
(`modulator.py`).  A solution meets a unit through a *behavior*
(`Behavior`), an edge multiset with a weight.  The unit's natural behavior
is its least behavior by (weight, edges), and an *impact* (`Impact`) is
the fingerprint a behavior leaves on the cover or modulator.  The unit's
*impact table* maps each impact of its behaviors to the least weight among
them; the price of an impact is that weight minus the natural weight.

A round builds its units once per *shape* (`shaped_unit`).  Behaviors and
their impacts never read edge weights: they follow from the unit's shape,
the weight-free key that `vc.vertex_unit` and `modulator.component_unit`
compute from its edges into the cover or modulator, their effective
capacities and, for a vertex, whether it is a waypoint.  The first unit of
a shape enumerates its behaviors and their impacts, stored by edge
position; every unit then maps them onto its own edge ids and weighs them
with its own weights, which gives its natural behavior and its impact
table.  The memo is a dict that `collect_units` makes for its round, so
no shape outlives the round.

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
from typing import Callable, Hashable, NamedTuple

from .instance import Instance, InvariantError
from .report import KernelReport

INF = math.inf


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
    """A behavior's fingerprint: the cover or modulator vertices it touches,
    and what else the kernel tells behaviors apart by (`vc.vertex_impact`,
    `modulator.component_impact`)."""
    touched: frozenset
    detail: tuple = ()


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


def shaped_unit(shapes: dict, key: Hashable, label: str, deletes, inst: Instance, eids,
                behaviors: Callable, impact_of: Callable) -> Unit:
    """The unit on the edges `eids`, in ascending order, priced by `inst`'s
    weights.  `key` is its shape: it must fix `behaviors()`, the unit's
    behaviors, and `impact_of` on each of them, up to the map from position
    in `eids` to edge id.  The first unit of a shape enumerates and stores
    them in `shapes` as (edge positions, impact); later units of the shape
    only weigh them.  `label` names the unit in the `NoBehavior` raised when
    it has no behavior."""
    shape = shapes.get(key)
    if shape is None:
        position = {i: p for p, i in enumerate(eids)}
        shape = shapes[key] = [(tuple(position[i] for i in b.edges), impact_of(b))
                               for b in behaviors()]
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
    weight, at = best
    return Unit(tuple(deletes), Behavior(tuple(eids[p] for p in at), weight), nat_imp, table)


def collect_units(report: KernelReport, keys, make: Callable) -> list[Unit] | None:
    """`make(key, shapes)` for every key, with `shapes` the round's memo for
    `shaped_unit`, or None once some unit admits no behavior; the report
    then carries the "no" verdict."""
    shapes: dict = {}
    try:
        return [make(key, shapes) for key in keys]
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
