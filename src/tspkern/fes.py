"""Feedback-edge-set kernel: degree-1 and degree-2 local rules to fixpoint.

All rules operate on the capacitated kind; uncapacitated inputs are first
reinterpreted with every capacity set to 2, which is lossless for closed
walks (no edge is ever needed more than twice).  Undecided outputs whose
vertices are all waypoints obey the 8k-vertex / 9k-edge bound with k the
residual feedback edge number; chains anchored at avoidable non-waypoint
branch vertices may keep up to three inner vertices.

Each rule edits a `WorkGraph`.  The kernel driver passes one graph through
every round, so a firing costs time in proportion to what it touches.  The
leaf rules take the lowest leaf from the graph's leaf heaps.  The chain
rules scan, but run only in rounds where no leaf rule applies.
"""

from __future__ import annotations

from .instance import Edge, Instance, WorkGraph
from .preprocess import RuleOutcome, decided_no, reduced, unchanged
from .report import KernelReport


def rr_leaf_cap1(g: WorkGraph) -> RuleOutcome:
    """A waypoint leaf whose only edge has capacity 1 cannot be entered and left."""
    v = g.leaf(waypoint=True, cap1=True)
    if v is None:
        return unchanged()
    return decided_no(f"rr_leaf_cap1: waypoint leaf {g.label(v)} on a capacity-1 edge")


def rr_nonterminal_leaf(g: WorkGraph) -> RuleOutcome:
    v = g.leaf(waypoint=False)
    if v is None:
        return unchanged()
    log = f"rr_nonterminal_leaf: removed {g.label(v)}"
    g.remove_vertices((v,))
    return reduced(g, log)


def rr_terminal_leaf(g: WorkGraph) -> RuleOutcome:
    """Fold a waypoint leaf into its neighbor, paying the edge twice."""
    v = g.leaf(waypoint=True)
    if v is None:
        return unchanged()
    (i,) = g.adj[v]
    e = g.edges[i]
    u = e.other(v)
    log = f"rr_terminal_leaf: folded {g.label(v)} into {g.label(u)}, budget -={2 * e.weight}"
    g.remove_vertices((v,))
    g.add_waypoint(u)
    g.budget -= 2 * e.weight
    return reduced(g, log)


def _walk(g: WorkGraph, seed: int, i: int, qualifies):
    """The vertices and edges passed leaving `seed` along edge i, up to and
    including the first vertex that does not qualify or is `seed` again."""
    verts, eids, x = [], [], seed
    while True:
        x = g.edges[i].other(x)
        verts.append(x)
        eids.append(i)
        if x == seed or not qualifies(x):
            return verts, eids
        a, b = g.adj[x]
        i = a if a != i else b


def _find_chains(g: WorkGraph, want_waypoint: bool, min_edges: int):
    """All paths p0..pl, l >= min_edges, whose inner vertices are degree-2
    (non-)waypoints of the requested type.

    Walks outward from a qualifying seed in both directions until a
    non-qualifying vertex anchors the end.  A walk that closes into a cycle
    (pure qualifying cycle, or both ends on the same anchor) is trimmed by
    one edge so the endpoints stay distinct; the rules apply to any
    qualifying path, not only maximal ones.
    """
    def qualifies(x):
        return len(g.adj[x]) == 2 and (x in g.waypoints) == want_waypoint

    done = set()
    for seed in g.vertices():
        if seed in done or not qualifies(seed):
            continue
        first, second = g.adj[seed]
        right, right_eids = _walk(g, seed, second, qualifies)
        if right[-1] == seed:  # pure qualifying cycle
            verts, eids = [seed, *right[:-1]], right_eids[:-1]
        else:
            left, left_eids = _walk(g, seed, first, qualifies)
            verts, eids = left[::-1] + [seed] + right, left_eids[::-1] + right_eids
            if verts[0] == verts[-1]:  # pendant cycle on one anchor
                verts, eids = verts[:-1], eids[:-1]
        done.update(verts)
        if len(eids) >= min_edges:
            yield verts, eids


def rr_contract_nonterminal_path(g: WorkGraph) -> RuleOutcome:
    got = next(_find_chains(g, want_waypoint=False, min_edges=2), None)
    if got is None:
        return unchanged()
    verts, eids = got
    weight = sum(g.edges[ei].weight for ei in eids)
    cap = min(g.edges[ei].capacity for ei in eids)
    g.remove_vertices(verts[1:-1])
    g.add_edge(Edge(verts[0], verts[-1], weight, cap))
    return reduced(g, f"rr_contract_nonterminal_path: contracted {len(verts) - 2} inner vertex(es)")


def _reduce_terminal_chain(g: WorkGraph, verts, eids):
    """Replacement plan `(gone, victims, new_edges, case)` for one
    all-waypoint chain, or None if irreducible.  The stand-ins x and x2 are
    inner chain vertices, so they are waypoints already and stay.

    A solution meets the chain either by walking it once end to end, or by
    doubling a prefix and a suffix around a single skipped edge; any other
    multiplicity pattern leaves an inner waypoint uncovered or stranded.  The
    stand-in edges below realize exactly those options at the same weights
    and with loops attaching at the same endpoints.
    """
    p0, pl = verts[0], verts[-1]
    path_edges = [g.edges[ei] for ei in eids]
    total = sum(e.weight for e in path_edges)
    cap1 = [i for i, e in enumerate(path_edges) if e.capacity == 1]
    x = verts[1]
    inner = set(verts[1:-1])
    if len(cap1) >= 2:
        # no edge may be skipped: the whole path is walked exactly once
        w1 = path_edges[cap1[0]].weight
        new = [Edge(p0, x, w1, 1), Edge(x, pl, total - w1, 1)]
        return eids, inner - {x}, new, "a"
    if len(cap1) == 1:
        j = cap1[0]
        w1 = path_edges[j].weight
        if j == 0:
            new = [Edge(p0, x, w1, 1), Edge(x, pl, total - w1, 2)]
            return eids, inner - {x}, new, "b"
        if j == len(path_edges) - 1:
            new = [Edge(p0, x, total - w1, 2), Edge(x, pl, w1, 1)]
            return eids, inner - {x}, new, "b"
        if len(eids) == 3:
            return None  # stand-ins would reproduce the chain verbatim
        # skipping the capacity-1 edge strands a loop at each endpoint, so
        # both sides keep their own stand-in vertex
        x2 = verts[2]
        prefix = sum(e.weight for e in path_edges[:j])
        new = [Edge(p0, x, prefix, 2), Edge(x, x2, w1, 1),
               Edge(x2, pl, total - prefix - w1, 2)]
        return eids, inner - {x, x2}, new, "b"
    # all capacities 2: any single edge may be skipped, cheapest the heaviest.
    # The skip leaves loops hanging at p0 and pl, so the collapsed form is
    # only faithful when both endpoints are themselves visited.
    if p0 in g.waypoints and pl in g.waypoints:
        wmax = max(e.weight for e in path_edges)
        new = [Edge(p0, x, wmax, 1), Edge(x, pl, total - wmax, 2),
               Edge(p0, pl, total, 1)]
        return eids, inner - {x}, new, "c"
    if len(eids) >= 5:
        # endpoints avoidable: reduce the inner subchain, whose ends are waypoints
        return _reduce_terminal_chain(g, verts[1:-1], eids[1:-1])
    return None


def rr_replace_terminal_path(g: WorkGraph) -> RuleOutcome:
    for verts, eids in _find_chains(g, want_waypoint=True, min_edges=3):
        got = _reduce_terminal_chain(g, verts, eids)
        if got is None:
            continue
        gone, victims, new_edges, case = got
        if len(g.waypoints - victims) < 2:
            # collapsing would reach the empty-walk special case, which the
            # original chain of spread-out waypoints cannot mimic
            continue
        for ei in gone:
            g.remove_edge(ei)
        for e in new_edges:
            g.add_edge(e)
        g.remove_vertices(victims)
        return reduced(g, f"rr_replace_terminal_path: case {case},"
                          f" replaced {len(gone) - 1} inner vertex(es)")
    return unchanged()


FES_RULES = (
    ("rr_leaf_cap1", rr_leaf_cap1),
    ("rr_nonterminal_leaf", rr_nonterminal_leaf),
    ("rr_terminal_leaf", rr_terminal_leaf),
    ("rr_contract_nonterminal_path", rr_contract_nonterminal_path),
    ("rr_replace_terminal_path", rr_replace_terminal_path),
)


def rule_fes(g: WorkGraph, report: KernelReport) -> WorkGraph:
    """One round: fire the first rule of FES_RULES that applies, editing `g`
    in place and recording the firing in `report`."""
    for name, rule in FES_RULES:
        if rule(g).record(name, report):
            break
    return g


def kernelize_fes(inst: Instance, r: int = 1,
                  k_max: int | None = None) -> tuple[Instance, KernelReport]:
    from .pipelines import kernelize  # the driver imports this module
    return kernelize(inst, "fes", r, k_max)
