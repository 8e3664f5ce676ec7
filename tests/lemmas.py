"""Empirical checkers for the lemmas that prove the kernels safe, run by
the tests and not shipped with the package: nice solutions (`make_nice`),
the behavior that a solution's Euler walk induces on a component
(`solution_component_behavior`), the defining predicate of a component
behavior (`is_component_behavior`, the reference the enumerator is
checked against), blending for Subset TSP (`blend_behavior`),
positive weights (`ensure_positive_weights`), the plain build of a
marking unit from its own behaviors (`unit`, the reference a round's
units, built once per shape, are checked against), one unit as a marking
round builds it (`round_unit`), the parity class of
each cover vertex a vertex behavior touches (`vertex_classes`, the
reference `marking.impact_of` is checked against on vertices), a vertex's
behaviors listed by the size of their edge multisets (`vertex_behaviors`,
the reference the behavior walk is checked against on vertices), and the
multiplicity engine's witness search with a component walk per support
(`multiplicity_search`, the reference the engine's block merge is checked
against).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from tspkern.instance import (
    KIND_TSP,
    MAX_WEIGHT,
    Edge,
    Instance,
    InstanceError,
    InvariantError,
    component_walk,
    non_forest,
)
from tspkern.marking import Behavior, NoBehavior, Unit, collect_units, impact_of
from tspkern.modulator import _label, component_graph, enumerate_component_behaviors
from tspkern.oracle import (
    OptResult,
    SolutionMultigraph,
    check_certificate,
    decode,
    empty_solution,
    even_covering,
    make_solution,
)
from tspkern.preprocess import RuleOutcome, reduced, unchanged
from tspkern.report import KernelReport
from tspkern.vc import enumerate_vertex_behaviors


# -- marking units -----------------------------------------------------------

def natural(behaviors, label: str) -> Behavior:
    """The least behavior by (weight, edges); `label` names the unit in the
    error raised when there is none."""
    if not behaviors:
        raise NoBehavior(f"{label} admits no behavior")
    return min(behaviors, key=lambda b: (b.weight, b.edges))


def unit(label: str, deletes, inst: Instance, M, behaviors) -> Unit:
    """The unit built from its own behaviors, each weighed and fingerprinted
    on M where it stands."""
    nat = natural(behaviors, label)
    table: dict = {}
    for b in behaviors:
        imp = impact_of(inst, M, b)
        if imp not in table or b.weight < table[imp]:
            table[imp] = b.weight
    return Unit(tuple(deletes), nat, impact_of(inst, M, nat), table)


def round_unit(inst: Instance, M, C, r: int | None = None) -> Unit:
    """The unit of the vertex set C, built by `marking.collect_units` as a
    round of that one unit: with `r` None, C holds one vertex outside the
    vertex cover M; otherwise C is a component of G minus M whose behaviors
    cross into M at most 2r times."""
    C = sorted(C)

    def behaviors(vertices):
        if r is None:
            return enumerate_vertex_behaviors(inst, M, vertices[0])
        return enumerate_component_behaviors(inst, M, vertices, r)
    spec = ((f"vertex {C[0] + 1}", C, inst.adjacency()[C[0]]) if r is None
            else (_label(C), C, component_graph(inst, M, C)))
    [u] = collect_units(KernelReport(pipeline="unit"), inst, M, [spec], behaviors)
    return u


def vertex_classes(inst: Instance, r: int, behavior: Behavior) -> tuple:
    """(m, 1 if odd else 2) for each cover vertex m that `behavior`, a
    behavior of vertex r outside the cover, touches, by the parity of its
    touches.  Each class names its vertex, so equal classes mean equal
    touched sets too.  On r's star, `marking.impact_of` must split the
    behaviors of all vertices into the same classes."""
    deg = Counter(inst.edges[i].other(r) for i in behavior.edges)
    return tuple(sorted((m, 1 if d % 2 else 2) for m, d in deg.items()))


def vertex_behaviors(inst: Instance, r: int) -> list[Behavior]:
    """The behaviors of vertex r, whose edges all lead into a vertex cover:
    the multisets of 2 of its edges for tsp; of 2 or 4 for wrp, or of none
    at a non-waypoint; each edge at most its effective capacity times."""
    incident = inst.adjacency()[r]
    sizes = (2,) if inst.kind == KIND_TSP else (2, 4) if r in inst.waypoints else (0, 2, 4)
    return [Behavior.of(inst, combo) for size in sizes
            for combo in itertools.combinations_with_replacement(incident, size)
            if all(combo.count(i) <= inst.effective_capacity(inst.edges[i]) for i in combo)]


# -- the multiplicity engine's witness search --------------------------------

def multiplicity_search(inst: Instance) -> OptResult:
    """`oracle.solve_exact_multiplicity` without its edge cap, with each
    candidate's support walked: the same folds and weight order, and the
    first candidate whose support `component_walk` finds connected and
    covering every waypoint is the witness.  A walk's verdict is cached per
    support."""
    if len(inst.waypoints) <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))
    touched = sorted({v for e in inst.edges for v in e.ends()})
    if not inst.waypoints <= set(touched):
        return OptResult(False, None, None)
    bases = [inst.effective_capacity(e) + 1 for e in inst.edges]
    bit = {v: 1 << i for i, v in enumerate(touched)}
    wmask = sum(bit[w] for w in inst.waypoints)
    ends = [bit[e.u] | bit[e.v] for e in inst.edges]
    counts = decode(bases, even_covering(bases, ends, [b & wmask for b in ends], wmask))
    weights = [sum(c * e.weight for c, e in zip(row, inst.edges)) for row in counts.tolist()]
    connected: dict[tuple[bool, ...], bool] = {}
    for j in sorted(range(len(weights)), key=weights.__getitem__):
        row = counts[j].tolist()
        key = tuple(c > 0 for c in row)
        if key not in connected:
            comps = component_walk(inst, [i for i, c in enumerate(row) if c])
            first = next(comps, ())
            connected[key] = next(comps, None) is None and inst.waypoints <= set(first)
        if connected[key]:
            sol = make_solution(inst, row)
            return OptResult(sol.total_weight <= inst.budget, sol.total_weight, sol)
    return OptResult(False, None, None)


# -- nice solutions ----------------------------------------------------------

def find_component_preserving_cycle(inst: Instance, sol: SolutionMultigraph) -> list[int]:
    """A cycle (edge indices, with repetition) whose removal keeps the
    component partition of the support, per the maximal-forest argument."""
    instances = [i for i, m in enumerate(sol.multiplicity) for _ in range(m)]
    support = {v for i in instances for v in inst.edges[i].ends()}
    if len(instances) <= 2 * len(support) - 2:
        raise ValueError("multigraph has too few edges for a removable cycle")

    rest = [instances[pos] for pos in non_forest(inst, instances)]

    # parallel pair inside the remainder is already a cycle
    seen_pair = {}
    for i in rest:
        e = inst.edges[i]
        pair = (min(e.u, e.v), max(e.u, e.v))
        if pair in seen_pair:
            return [seen_pair[pair], i]
        seen_pair[pair] = i

    # no parallel pairs remain, so a plain DFS over distinct pairs suffices
    adj = {}
    for pos, i in enumerate(rest):
        e = inst.edges[i]
        adj.setdefault(e.u, []).append((e.v, pos))
        adj.setdefault(e.v, []).append((e.u, pos))
    visited = set()
    for s in adj:
        if s in visited:
            continue
        trail = {s: (None, None)}  # vertex -> (dfs parent, arrival edge pos)
        visited.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for w, pos in adj[v]:
                if pos == trail[v][1]:
                    continue  # the tree edge back to the parent
                if w in trail:
                    # non-tree edge: both endpoints have tree paths to the
                    # DFS root; join them at their lowest common ancestor
                    anc = {}
                    x = v
                    while x is not None:
                        anc[x] = trail[x][1]
                        x = trail[x][0]
                    cycle = [rest[pos]]
                    x = w
                    while x not in anc:
                        cycle.append(rest[trail[x][1]])
                        x = trail[x][0]
                    lca = x
                    x = v
                    while x != lca:
                        cycle.append(rest[trail[x][1]])
                        x = trail[x][0]
                    return cycle
                trail[w] = (v, pos)
                visited.add(w)
                stack.append(w)
    raise InvariantError("remainder of a maximal forest must contain a cycle")


def make_nice(inst: Instance, sol: SolutionMultigraph) -> SolutionMultigraph:
    if not check_certificate(inst, sol):
        raise ValueError("make_nice requires a valid certificate")
    mult = list(sol.multiplicity)
    changed = True
    while changed:
        changed = False
        for i, m in enumerate(mult):
            if m >= 3:
                mult[i] = m - 2
                changed = True
        cur = make_solution(inst, mult)
        while sum(mult) > 2 * inst.n:
            cycle = find_component_preserving_cycle(inst, cur)
            for i in cycle:
                mult[i] -= 1
            cur = make_solution(inst, mult)
            changed = True
    out = make_solution(inst, mult)
    if not check_certificate(inst, out) or out.total_weight > sol.total_weight:
        raise InvariantError("make_nice lost the certificate or gained weight")
    return out


# -- walks, segments and the behavior a solution induces ---------------------

@dataclass(frozen=True)
class Walk:
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.edge_ids) + 1:
            raise ValueError("walk shape mismatch")

    @property
    def closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]


def euler_walk(inst: Instance, sol: SolutionMultigraph, start: int) -> Walk:
    """Closed Euler walk over the solution multigraph, Hierholzer style."""
    remaining = list(sol.multiplicity)
    if sum(remaining) == 0:
        return Walk((start,), ())
    adj = inst.adjacency()
    if not any(remaining[i] for i in adj[start]):
        raise ValueError("start vertex not in the support")
    # stack-based Hierholzer over edge instances
    path_v, path_e = [], []
    stack = [(start, None)]
    while stack:
        v, via = stack[-1]
        picked = None
        for i in adj[v]:
            if remaining[i]:
                picked = i
                break
        if picked is None:
            stack.pop()
            path_v.append(v)
            path_e.append(via)
        else:
            remaining[picked] -= 1
            stack.append((inst.edges[picked].other(v), picked))
    path_v.reverse()
    path_e.reverse()
    if path_e[0] is not None:
        raise InvariantError("Euler walk does not begin at its start vertex")
    walk = Walk(tuple(path_v), tuple(path_e[1:]))
    if not walk.closed or sum(sol.multiplicity) != len(walk.edge_ids):
        raise InvariantError("Euler walk is open or misses solution edges")
    for a, b, ei in zip(walk.vertices, walk.vertices[1:], walk.edge_ids):
        if {a, b} != set(inst.edges[ei].ends()):
            raise InvariantError(f"Euler walk steps from {a} to {b} along edge {ei}")
    return walk


def split_into_segments(inst: Instance, walk: Walk, M) -> list[Walk]:
    M = set(M)
    if walk.vertices[0] not in M:
        raise ValueError("walk must start at a modulator vertex")
    if not walk.closed:
        raise ValueError("walk must be closed")
    segments = []
    seg_v, seg_e = [walk.vertices[0]], []
    for v, e in zip(walk.vertices[1:], walk.edge_ids):
        seg_v.append(v)
        seg_e.append(e)
        if v in M:
            segments.append(Walk(tuple(seg_v), tuple(seg_e)))
            seg_v, seg_e = [v], []
    if seg_e:
        raise ValueError("closed walk from M must end in M")
    return segments


def solution_component_behavior(inst: Instance, walk: Walk, M, C) -> Behavior:
    """Edge multiset F(S,C): segments discovering a new C-vertex, in order."""
    Cset = set(C)
    visited = set()
    edges = Counter()
    for seg in split_into_segments(inst, walk, M):
        here = {v for v in seg.vertices if v in Cset}
        if here - visited:
            edges.update(seg.edge_ids)
        visited |= here
    return Behavior.of(inst, edges.elements())


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
    # no edge joins two modulator vertices, so every support component holds
    # a C-vertex and must reach M
    return all(not M.isdisjoint(comp) for comp in
               component_walk(inst, [i for i, c in edge_counts.items() if c]))


# -- pieces and blending (subset kind) ---------------------------------------

@dataclass(frozen=True)
class Piece:
    path_vertices: tuple[int, ...]
    legs: tuple[int, ...]  # modulator-incident edge indices, with repetition


def pieces(inst: Instance, M, behavior: Behavior) -> list[Piece]:
    M = set(M)
    inner: list[int] = []
    legs_at: dict[int, list[int]] = {}
    for i in behavior.edges:
        e = inst.edges[i]
        if e.u in M or e.v in M:
            legs_at.setdefault(e.v if e.u in M else e.u, []).append(i)
        else:
            inner.append(i)
    out = []
    for comp in component_walk(inst, inner, legs_at):
        path = tuple(sorted(comp))
        legs = tuple(sorted(itertools.chain.from_iterable(legs_at.get(v, ()) for v in path)))
        out.append(Piece(path, legs))
    return out


def blend_behavior(inst: Instance, M, C, A: Behavior, M_prime, v: int,
                   r: int) -> Behavior:
    """A behavior touching v, confined to T(A) u T(b^nat), anchored at M',
    no heavier than A.  Existence is the blending lemma; we search for it."""
    M, M_prime = set(M), set(M_prime)
    behaviors = enumerate_component_behaviors(inst, M, C, r)
    nat = natural(behaviors, _label(C))
    nat_touch = impact_of(inst, M, nat).touched
    a_touch = impact_of(inst, M, A).touched
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
        imp = impact_of(inst, M, b)
        if v not in imp.touched or not imp.touched <= allowed:
            continue
        # every support component with a vertex outside M meets M'
        if not all(M_prime.intersection(comp) for comp in component_walk(inst, b.edges)
                   if not M.issuperset(comp)):
            continue
        if found is None or (b.weight, b.edges) < (found.weight, found.edges):
            found = b
    if found is None:
        raise InvariantError(f"no blended behavior of {_label(C)} touches vertex {v + 1},"
                             " against the blending lemma")
    return found


# -- positivity --------------------------------------------------------------

def ensure_positive_weights(inst: Instance) -> RuleOutcome:
    if all(e.weight > 0 for e in inst.edges):
        return unchanged()
    q = inst.total_weight() + 2 * inst.n + 1
    edges = []
    for e in inst.edges:
        w = q * e.weight if e.weight > 0 else 1
        if w > MAX_WEIGHT:
            raise OverflowError("positivity normalization exceeds 63-bit weights")
        edges.append(Edge(e.u, e.v, w, e.capacity))
    budget = q * inst.budget + 2 * inst.n
    if abs(budget) > MAX_WEIGHT:
        raise OverflowError("positivity normalization exceeds 63-bit budget")
    out = inst.with_edges(edges, budget_delta=budget - inst.budget)
    return reduced(out, f"ensure_positive_weights: scaled by Q={q}")
