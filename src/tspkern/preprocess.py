"""Problem-agnostic reductions: stop rules, short-circuiting, connectivity
normalization, and verified weight compression."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .instance import (
    KIND_SUBTSP,
    Edge,
    Instance,
    InstanceError,
    WorkGraph,
)
from .oracle import multiplicity_grid
from .report import KernelReport

VERDICT_YES = "yes"
VERDICT_NO = "no"
VERDICT_REDUCED = "reduced"
VERDICT_UNCHANGED = "unchanged"


@dataclass(frozen=True)
class RuleOutcome:
    verdict: str
    instance: Instance | WorkGraph | None
    log_entry: str

    @property
    def decided(self) -> bool:
        return self.verdict in (VERDICT_YES, VERDICT_NO)

    def record(self, rule: str, report: KernelReport) -> bool:
        """Fire `rule` in `report` unless the outcome left the input
        unchanged, and set the report's verdict when it decides; True when
        the rule fired."""
        if self.verdict == VERDICT_UNCHANGED:
            return False
        if self.decided:
            report.decided = self.verdict
        report.fire(rule, self.log_entry)
        return True


def decided_yes(log: str) -> RuleOutcome:
    return RuleOutcome(VERDICT_YES, None, log)


def decided_no(log: str) -> RuleOutcome:
    return RuleOutcome(VERDICT_NO, None, log)


def reduced(inst: Instance, log: str) -> RuleOutcome:
    return RuleOutcome(VERDICT_REDUCED, inst, log)


def unchanged(log: str = "") -> RuleOutcome:
    return RuleOutcome(VERDICT_UNCHANGED, None, log)


def rr_stop(inst: Instance | WorkGraph) -> RuleOutcome:
    if inst.budget < 0:
        return decided_no(f"rr_stop: budget {inst.budget} < 0")
    if len(inst.waypoints) <= 1:
        return decided_yes(f"rr_stop: {len(inst.waypoints)} waypoint(s), empty walk suffices")
    return unchanged()


def rr_short_circuit(g: WorkGraph, v: int) -> RuleOutcome:
    """Replace a non-waypoint by shortcut edges between its neighbors."""
    if g.kind != KIND_SUBTSP:
        raise InstanceError("short-circuit rule applies to the subset kind only")
    if v in g.waypoints:
        raise InstanceError(f"vertex {g.label(v)} is a waypoint")
    incident = [g.edges[i] for i in g.adj[v]]
    shortcuts: dict[tuple[int, int], int] = {}
    for e1, e2 in itertools.combinations(incident, 2):
        a, b = e1.other(v), e2.other(v)
        if a == b:
            continue  # a closed detour through a non-waypoint is never needed
        pair = (min(a, b), max(a, b))
        w = e1.weight + e2.weight
        if pair not in shortcuts or w < shortcuts[pair]:
            shortcuts[pair] = w
    log = f"rr_short_circuit: removed vertex {g.label(v)}"
    g.remove_vertices((v,))
    added = 0
    for (a, b), w in sorted(shortcuts.items()):
        parallel = g.parallel(a, b)
        if any(g.edges[i].weight <= w for i in parallel):
            continue  # an existing parallel edge is at least as cheap
        for i in parallel:
            g.remove_edge(i)
        g.add_edge(Edge(a, b, w))
        added += 1
    return reduced(g, f"{log}, added {added} shortcut(s)")


def ensure_connected(inst: Instance) -> RuleOutcome:
    comps = inst.components()
    if len(comps) == 1:
        return unchanged()
    holding = [c for c in comps if inst.waypoints & set(c)]
    if len(holding) >= 2:
        return decided_no("ensure_connected: waypoints split across components")
    keep = set(holding[0]) if holding else set(comps[0])
    victims = set(range(inst.n)) - keep
    out = inst.remove_vertices(victims)
    return reduced(out, f"ensure_connected: restricted to the {len(keep)}-vertex waypoint component")


def _bitsize(x: int) -> int:
    return max(1, abs(x).bit_length())


def total_bitsize(weights, budget: int) -> int:
    return sum(_bitsize(w) for w in weights) + _bitsize(budget)


def _sum_profile(weights):
    """All values of w . x for x in {0,1,2}^m, aligned with a fixed x order."""
    import numpy as np
    dtype = object if 2 * sum(weights) >= 2**62 else np.int64
    return multiplicity_grid([3] * len(weights),
                             np.array([[0, w, 2 * w] for w in weights], dtype=dtype))


def _fit_budget(new_sums, signs):
    """Budget making sign(w'.x - b') match `signs` everywhere, or None.

    Some class is always filled: x = 0 sums to 0 under every weighting, so
    the sign of -budget lands in `signs`."""
    neg = new_sums[signs < 0]
    zero = new_sums[signs == 0]
    pos = new_sums[signs > 0]
    if zero.size:
        b = int(zero[0])
        if (zero != b).any():
            return None
    else:
        b = int(neg.max()) + 1 if neg.size else int(pos.min()) - 1
    if (neg.size and b <= neg.max()) or (pos.size and b >= pos.min()):
        return None
    return b


# the check enumerates 3^m vectors, so larger edge sets skip compression
COMPRESS_MAX_EDGES = 12


def compress_weights(inst: Instance) -> RuleOutcome:
    """Shrink the weight encoding, verified by exhaustive sign-equivalence.

    Candidates: divide by the gcd, then halve repeatedly with rounding; a
    candidate that fits no integer budget is tried again doubled.  A
    candidate is kept only when some budget reproduces sign(w.x - b) for
    every x in {0,1,2}^m, so accepted outputs are equivalent by construction.
    """
    m = len(inst.edges)
    if m == 0 or m > COMPRESS_MAX_EDGES:
        return unchanged("compress_weights: scale guard" if m else "")
    import numpy as np  # past the guard, so a large edge set never loads it
    weights = [e.weight for e in inst.edges]
    sums = _sum_profile(weights)
    if abs(inst.budget) >= 2**62:  # the difference could pass int64
        sums = sums.astype(object)
    signs = np.sign(sums - inst.budget).astype(np.int8)

    base = total_bitsize(weights, inst.budget)
    best = (base, None, None)  # (bitsize, weights, budget)
    g = math.gcd(*weights, 0) or 1
    scaled = [w // g for w in weights]
    # shift 0 is the scaled vector itself; every candidate keeps its largest
    # weight at 1 or more, and all-zero weights give no candidate
    for shift in range(max(scaled).bit_length()):
        cand = [(w + ((1 << shift) >> 1)) >> shift for w in scaled]
        profile = _sum_profile(cand)
        b = _fit_budget(profile, signs)
        if b is None:  # doubled, the gap between two adjacent classes holds an odd integer
            cand, b = [2 * w for w in cand], _fit_budget(2 * profile, signs)
        if b is not None and (size := total_bitsize(cand, b)) < best[0]:
            best = (size, cand, b)

    bits, new_w, new_b = best
    if new_w is None:
        return unchanged("compress_weights: no smaller verified encoding")
    edges = [Edge(e.u, e.v, w, e.capacity) for e, w in zip(inst.edges, new_w)]
    out = inst.with_edges(edges, budget_delta=new_b - inst.budget)
    return reduced(out, f"compress_weights: bit-size {base} -> {bits}")
