"""Instance data model, file encoding, and structural decompositions.

Vertices are 0-based internally and 1-based in files.  Parallel edges are
first class; self-loops are forbidden.  Capacities only exist for the
capacitated problem kind ("wrp") and are normalized into {1, 2} on load:
a closed walk never needs an edge more than twice, so larger capacities
carry no information.

The kernels stand on seven graph primitives, each written once here:

- incidence: `Instance.adjacency()`, the edge ids at each vertex in
  ascending order, computed once per instance;
- shortest paths: `shortest_paths`, one Dijkstra, behind the Held-Karp
  engine's metric closure (`oracle._apsp_with_paths`) and blue marking's
  modulator-to-modulator paths (`modulator._shortest_mm_paths`);
- components: `component_walk`, one depth-first walk over a set of edge ids
  plus extra vertices, behind `Instance.components`, the regime checks of
  the modulator search, the support walks of the modulator kernels and the
  certificate check;
- partition merge: `merge_blocks`, which merges blocks of vertex bits
  into the finest partition coarser than two, behind the treewidth DP's
  edges and joins, the multiplicity engine's support test and the
  behavior walk's piece filter (`marking.unit_behaviors`);
- spanning forest: `non_forest`, one union-find pass, behind `compute_fes`
  (the tests' nice-solution check also finds its cycles with it);
- editing: `WorkGraph`, a mutable copy of an instance that the local rules
  (the FES rules and short-circuiting) edit in place, firing after firing,
  and freeze once;
- structure search: `_structure`, one bounded search tree that finds a
  smallest vertex set whose removal leaves no obstruction, or checks a
  modulator hint, behind `compute_vc` (obstruction: an edge) and
  `find_modulator` (a too-large component, or for paths a vertex of degree
  3 or a cycle).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

MAX_WEIGHT = 2**63 - 1

KIND_TSP = "tsp"
KIND_SUBTSP = "stsp"
KIND_WRP = "wrp"
KINDS = (KIND_TSP, KIND_SUBTSP, KIND_WRP)


class InstanceError(ValueError):
    """Structurally invalid instance."""


class ParseError(ValueError):
    """Malformed instance file; message carries a 1-based line number."""


class ScaleError(RuntimeError):
    """Requested computation exceeds an exhaustive-search cap or guard."""


class InvariantError(RuntimeError):
    """A soundness check inside a kernel or solver failed: a bug in the
    program, not a property of the input."""


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: int
    capacity: int | None = None  # None = uncapacitated

    def other(self, x: int) -> int:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise ValueError(f"vertex {x} not an endpoint of {self}")

    def ends(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class Instance:
    kind: str
    n: int
    edges: tuple[Edge, ...]
    waypoints: frozenset[int]
    budget: int
    modulator_hint: frozenset[int] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InstanceError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise InstanceError("vertex count must be positive")
        for i, e in enumerate(self.edges, start=1):
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise InstanceError(f"edge {i}: endpoint out of range")
            if e.u == e.v:
                raise InstanceError(f"edge {i}: self-loop forbidden")
            if not (0 <= e.weight <= MAX_WEIGHT):
                raise InstanceError(f"edge {i}: weight out of range")
            if self.kind == KIND_WRP:
                if e.capacity not in (1, 2):
                    raise InstanceError(f"edge {i}: wrp capacity must be 1 or 2")
            elif e.capacity is not None:
                raise InstanceError(f"edge {i}: capacity only allowed for wrp")
        for w in self.waypoints:
            if not (0 <= w < self.n):
                raise InstanceError(f"waypoint {w + 1} out of range")
        if self.kind == KIND_TSP and self.waypoints != frozenset(range(self.n)):
            raise InstanceError("tsp requires every vertex to be a waypoint")
        if self.modulator_hint is not None:
            for v in self.modulator_hint:
                if not (0 <= v < self.n):
                    raise InstanceError(f"modulator hint vertex {v + 1} out of range")

    # -- basic graph views -------------------------------------------------

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """adj[v] = the ids of the edges at v, ascending.  Computed on the
        first call and kept on the instance, which is frozen."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            lists: list[list[int]] = [[] for _ in range(self.n)]
            for i, e in enumerate(self.edges):
                lists[e.u].append(i)
                lists[e.v].append(i)
            adj = tuple(map(tuple, lists))
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def components(self, without=()) -> list[list[int]]:
        """Connected components of G minus `without`, as sorted vertex lists
        ordered by least vertex."""
        alive = set(range(self.n)).difference(without)
        return [sorted(comp) for comp in component_walk(self, _induced_edges(self, alive), alive)]

    def effective_capacity(self, e: Edge) -> int:
        """Usable multiplicity bound under nice solutions."""
        return 2 if e.capacity is None else min(e.capacity, 2)

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)

    # -- rebuilding --------------------------------------------------------

    def remove_vertices(self, victims, budget_delta: int = 0) -> "Instance":
        """Delete `victims`, renumber compactly and add `budget_delta` to the
        budget.  The modulator hint is remapped; if a hint vertex is deleted
        the hint is dropped."""
        victims = set(victims)
        hint = self.modulator_hint
        return renumbered(
            self.kind, [v for v in range(self.n) if v not in victims],
            (e for e in self.edges if e.u not in victims and e.v not in victims),
            self.waypoints - victims, self.budget + budget_delta,
            None if hint is None or hint & victims else hint)

    def with_edges(self, edges, budget_delta: int = 0) -> "Instance":
        return replace(self, edges=tuple(edges), budget=self.budget + budget_delta)


def renumbered(kind: str, keep: list[int], edges, waypoints, budget: int,
               hint) -> Instance:
    """The instance on the vertices `keep`, ascending, each renumbered to its
    position; `edges`, `waypoints` and `hint` name kept vertices only."""
    if not keep:
        raise InstanceError("cannot delete every vertex")
    remap = {old: new for new, old in enumerate(keep)}
    return Instance(
        kind=kind,
        n=len(keep),
        edges=tuple(Edge(remap[e.u], remap[e.v], e.weight, e.capacity) for e in edges),
        waypoints=frozenset(remap[w] for w in waypoints),
        budget=budget,
        modulator_hint=None if hint is None else frozenset(remap[v] for v in hint),
    )


def _pair(e: Edge) -> tuple[int, int]:
    return (min(e.u, e.v), max(e.u, e.v))


class WorkGraph:
    """A mutable copy of an instance, for rules that fire many times.

    Vertices keep the ids of the instance the graph was built from, and a
    deleted vertex stays dead.  A removed edge leaves a tombstone (None in
    `edges`) and a new edge gets the next id, so `adj[v]`, the live edge ids
    at v (a dict used as an ordered set), stays in ascending order.  Freezing
    therefore gives the same vertex and edge order as making the same edits
    one by one with `Instance.remove_vertices` and `with_edges`.

    `waypoints`, `budget` and `modulator_hint` mirror the Instance fields;
    the hint is dropped as soon as one of its vertices is deleted.  The
    graph keeps its degree-1 vertices in heaps, so the leaf rules find the
    lowest leaf without a scan.
    """

    def __init__(self, inst: Instance):
        self.kind = inst.kind
        self.edges: list[Edge | None] = list(inst.edges)
        self.adj: list[dict[int, None]] = [{} for _ in range(inst.n)]
        self._pairs: dict[tuple[int, int], dict[int, None]] = {}  # parallel classes
        for i, e in enumerate(inst.edges):
            self.adj[e.u][i] = None
            self.adj[e.v][i] = None
            self._pairs.setdefault(_pair(e), {})[i] = None
        self.alive = [True] * inst.n
        self.waypoints = set(inst.waypoints)
        self.budget = inst.budget
        self.modulator_hint = inst.modulator_hint
        self._dead = [0] * (inst.n + 1)  # Fenwick tree over deleted vertices
        # (is a waypoint, edge has capacity 1) -> heap of leaves, stale
        # entries left in place and skipped when they reach the top
        self._leaves = {(w, c): [] for w in (False, True) for c in (False, True)}
        for v in range(inst.n):
            self._touch(v)

    def vertices(self) -> list[int]:
        return [v for v, up in enumerate(self.alive) if up]

    def label(self, v: int) -> int:
        """v's 1-based id in the frozen instance: its rank among live vertices."""
        dead, i = 0, v
        while i:
            dead += self._dead[i]
            i &= i - 1
        return v + 1 - dead

    def _leaf_key(self, v: int):
        if not self.alive[v] or len(self.adj[v]) != 1:
            return None
        (i,) = self.adj[v]
        return (v in self.waypoints, self.edges[i].capacity == 1)

    def _touch(self, v: int):
        key = self._leaf_key(v)
        if key is not None:
            heapq.heappush(self._leaves[key], v)

    def leaf(self, waypoint: bool, cap1: bool = False) -> int | None:
        """The lowest degree-1 vertex that is a waypoint or, with `waypoint`
        false, is not; with `cap1`, only one whose edge has capacity 1."""
        best = None
        for key in ((waypoint, True),) if cap1 else ((waypoint, False), (waypoint, True)):
            heap = self._leaves[key]
            while heap and self._leaf_key(heap[0]) != key:
                heapq.heappop(heap)
            if heap and (best is None or heap[0] < best):
                best = heap[0]
        return best

    def parallel(self, a: int, b: int) -> list[int]:
        """The live edge ids between a and b, ascending."""
        return list(self._pairs.get((min(a, b), max(a, b)), ()))

    def add_edge(self, e: Edge) -> int:
        i = len(self.edges)
        self.edges.append(e)
        self._pairs.setdefault(_pair(e), {})[i] = None
        for x in (e.u, e.v):
            self.adj[x][i] = None
            self._touch(x)
        return i

    def remove_edge(self, i: int):
        e = self.edges[i]
        self.edges[i] = None
        del self._pairs[_pair(e)][i]
        for x in (e.u, e.v):
            del self.adj[x][i]
            self._touch(x)

    def remove_vertices(self, victims):
        for v in victims:
            for i in list(self.adj[v]):
                self.remove_edge(i)
            self.alive[v] = False
            self.waypoints.discard(v)
            if self.modulator_hint is not None and v in self.modulator_hint:
                self.modulator_hint = None
            i = v + 1
            while i < len(self._dead):
                self._dead[i] += 1
                i += i & -i

    def add_waypoint(self, v: int):
        self.waypoints.add(v)
        self._touch(v)

    def freeze(self) -> Instance:
        """The instance on the live vertices and edges, renumbered compactly."""
        return renumbered(self.kind, self.vertices(),
                          (e for e in self.edges if e is not None),
                          self.waypoints, self.budget, self.modulator_hint)


def as_wrp(inst: Instance) -> Instance:
    """Reinterpret an uncapacitated instance as wrp with all capacities 2."""
    if inst.kind == KIND_WRP:
        return inst
    edges = tuple(Edge(e.u, e.v, e.weight, 2) for e in inst.edges)
    return replace(inst, kind=KIND_WRP, edges=edges)


# -- file format -----------------------------------------------------------

def parse_instance(text: str) -> Instance:
    kind = None
    n = m = None
    budget = None
    waypoints = None
    hint = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "p":
                if kind is not None:
                    raise ParseError(f"line {lineno}: duplicate problem line")
                if len(parts) != 4:
                    raise ParseError(f"line {lineno}: expected 'p <kind> <n> <m>'")
                kind = parts[1]
                if kind not in KINDS:
                    raise ParseError(f"line {lineno}: unknown kind {kind!r}")
                n, m = int(parts[2]), int(parts[3])
            elif tag == "b":
                if budget is not None:
                    raise ParseError(f"line {lineno}: duplicate budget line")
                if len(parts) != 2:
                    raise ParseError(f"line {lineno}: expected 'b <budget>'")
                budget = int(parts[1])
            elif tag == "w":
                if kind is None:
                    raise ParseError(f"line {lineno}: waypoint line before problem line")
                if kind == KIND_TSP:
                    raise ParseError(f"line {lineno}: waypoint line forbidden for tsp")
                if waypoints is not None:
                    raise ParseError(f"line {lineno}: duplicate waypoint line")
                waypoints = frozenset(int(x) - 1 for x in parts[1:])
            elif tag == "m":
                if hint is not None:
                    raise ParseError(f"line {lineno}: duplicate modulator line")
                hint = frozenset(int(x) - 1 for x in parts[1:])
            elif tag == "e":
                if kind is None:
                    raise ParseError(f"line {lineno}: edge before problem line")
                if len(parts) not in (4, 5):
                    raise ParseError(f"line {lineno}: expected 'e <u> <v> <w> [<cap>]'")
                u, v, w = int(parts[1]) - 1, int(parts[2]) - 1, int(parts[3])
                cap = None
                if kind == KIND_WRP:
                    cap = min(int(parts[4]), 2) if len(parts) == 5 else 2
                    if cap < 1:
                        raise ParseError(f"line {lineno}: capacity must be positive")
                elif len(parts) == 5:
                    raise ParseError(f"line {lineno}: capacity only allowed for wrp")
                edges.append(Edge(u, v, w, cap))
            else:
                raise ParseError(f"line {lineno}: unknown record {tag!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if kind is None:
        raise ParseError("missing problem line")
    if budget is None:
        raise ParseError("missing budget line")
    if len(edges) != m:
        raise ParseError(f"problem line promises {m} edges, found {len(edges)}")
    if kind == KIND_TSP:
        waypoints = frozenset(range(n))
    elif waypoints is None:
        waypoints = frozenset()
    try:
        return Instance(kind, n, tuple(edges), waypoints, budget, hint)
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc


def render_instance(inst: Instance) -> str:
    lines = [f"p {inst.kind} {inst.n} {len(inst.edges)}", f"b {inst.budget}"]
    if inst.kind != KIND_TSP:
        lines.append("w " + " ".join(str(w + 1) for w in sorted(inst.waypoints)))
    if inst.modulator_hint is not None:
        lines.append("m " + " ".join(str(v + 1) for v in sorted(inst.modulator_hint)))
    for e in inst.edges:
        u, v = e.u + 1, e.v + 1
        if inst.kind == KIND_WRP:
            lines.append(f"e {u} {v} {e.weight} {e.capacity}")
        else:
            lines.append(f"e {u} {v} {e.weight}")
    return "\n".join(lines) + "\n"


# -- decompositions --------------------------------------------------------

def component_walk(inst: Instance, eids, vertices=()):
    """Yield the components of the graph on the ends of edges `eids`
    (repetition allowed) plus `vertices`, each as a vertex list in the order
    a depth-first walk pops them.  Seeds are taken in ascending order and a
    vertex's neighbours in the order of `eids`: `_regime_violation`'s
    witness, and with it find_modulator's branching order, rests on that."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for i in eids:
        e = inst.edges[i]
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    seen = set()
    for s in sorted(adj):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        yield comp


def merge_blocks(blocks1, blocks2):
    """The finest partition coarser than both: each block of `blocks2`
    absorbs the blocks it meets.  Blocks are vertex-bit masks; when those of
    `blocks1` are disjoint and ascending, and `blocks1` is nonempty or
    `blocks2`'s are too, so is the result.  Edge end masks `masks` merge
    into their connected pieces as `merge_blocks(masks[:1], masks)`."""
    if not blocks2:
        return blocks1
    if not blocks1:
        return blocks2
    blocks = list(blocks1)
    for b in blocks2:
        rest = []
        for a in blocks:
            if a & b:
                b |= a
            else:
                rest.append(a)
        rest.append(b)
        blocks = rest
    return tuple(sorted(blocks))


def shortest_paths(inst: Instance, s: int, adj=None, through=None):
    """Dijkstra from s: yield (v, distance, the id of the last edge of a
    shortest s-v path, None for s) for each vertex reached, in the order the
    vertices are settled.  `adj[v]` lists the edge ids relaxed at v,
    `inst.adjacency()` by default.  A settled vertex other than s for which
    `through(v)` is false is yielded but not expanded.  A vertex's distance
    only drops on a strictly shorter way, so of equally short ways the
    first one relaxed is kept."""
    if adj is None:
        adj = inst.adjacency()
    edges = inst.edges
    dist, pred, heap = {s: 0}, {s: None}, [(0, s)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue  # a stale entry: u was reached more cheaply since
        yield u, du, pred[u]
        if through is not None and u != s and not through(u):
            continue
        for i in adj[u]:
            e = edges[i]
            v, dv = e.v if e.u == u else e.u, du + e.weight
            if v not in dist or dv < dist[v]:
                dist[v], pred[v] = dv, i
                heapq.heappush(heap, (dv, v))


def _induced_edges(inst: Instance, alive) -> list[int]:
    return [i for i, e in enumerate(inst.edges) if e.u in alive and e.v in alive]


def non_forest(inst: Instance, eids) -> list[int]:
    """Positions in `eids` of the edges that close a cycle when the edges
    join a spanning forest one by one, in order."""
    parent = list(range(inst.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rest = []
    for pos, i in enumerate(eids):
        e = inst.edges[i]
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            rest.append(pos)
        else:
            parent[ru] = rv
    return rest


def compute_fes(inst: Instance) -> list[int]:
    """Indices of non-forest edges under a first-seen spanning forest."""
    return non_forest(inst, range(len(inst.edges)))


def _structure(inst: Instance, witness, k_max: int, bad_hint: str) -> frozenset[int] | None:
    """The structure search behind `compute_vc` and `find_modulator`.

    `witness(alive)` names a few vertices of `alive` that hit an obstruction
    in G[alive], or None when there is none; a set M is a modulator when
    the witness finds nothing in V minus M.  A modulator hint on the
    instance is returned when it is one and raises `bad_hint` otherwise (a
    silently wrong hint would poison every downstream bound).  Without a
    hint, iterative deepening on k finds a smallest modulator of size at
    most `k_max`, branching on the witness's vertices in order, or None.
    """
    hint = inst.modulator_hint
    if hint is not None:
        if witness(set(range(inst.n)) - hint) is not None:
            raise InstanceError(bad_hint)
        return hint

    def search(alive, k):
        bad = witness(alive)
        if bad is None:
            return set()
        if k == 0:
            return None
        for v in bad:
            got = search(alive - {v}, k - 1)
            if got is not None:
                return got | {v}
        return None

    everyone = set(range(inst.n))
    for k in range(k_max + 1):
        got = search(everyone, k)
        if got is not None:
            return frozenset(got)
    return None


def compute_vc(inst: Instance, k_max: int) -> frozenset[int] | None:
    """Smallest vertex cover of size <= k_max, or None; a modulator hint
    must be a vertex cover and is returned as it is."""
    pairs = sorted(set(map(_pair, inst.edges)))

    def uncovered(alive):
        """The lowest edge (u, v), u < v, with neither end chosen."""
        return next(((u, v) for u, v in pairs if u in alive and v in alive), None)

    return _structure(inst, uncovered, k_max, "modulator hint is not a vertex cover")


def _regime_violation(inst: Instance, alive: set[int], regime: str,
                      r: int) -> list[int] | None:
    """A few vertices of `alive` hitting an obstruction to G[alive] being in
    the regime, or None.  For paths: the least vertex of degree 3 or more
    with the three least of its neighbours in `alive` (a parallel edge
    repeats one), else the vertices of the first cycle.  Then, for both
    regimes, the first r+1 vertices the walk pops from the first component
    above r vertices."""
    eids = _induced_edges(inst, alive)
    comps = component_walk(inst, eids, alive)  # lazy: nothing is walked yet
    if regime == "paths":
        deg = dict.fromkeys(alive, 0)
        for i in eids:
            deg[inst.edges[i].u] += 1
            deg[inst.edges[i].v] += 1
        for v in sorted(alive):
            if deg[v] >= 3:
                nbrs = (inst.edges[i].other(v) for i in inst.adjacency()[v])
                return [v] + sorted(w for w in nbrs if w in alive)[:3]
        comps = list(comps)  # all degrees <= 2: components are paths or cycles
        for comp in comps:
            if sum(deg[v] for v in comp) // 2 >= len(comp):  # cycle
                return sorted(comp)
    return next((sorted(comp[: r + 1]) for comp in comps if len(comp) > r), None)


def find_modulator(inst: Instance, regime: str, r: int, k_max: int) -> frozenset[int] | None:
    """Smallest modulator M of size <= k_max putting G minus M into the
    regime, or None; a modulator hint must put G minus it into the regime
    and is returned as it is."""
    if regime not in ("components", "paths"):
        raise ValueError(f"unknown regime {regime!r}")
    if r < 1:
        raise InstanceError(f"r must be positive, got {r}")
    return _structure(inst, lambda alive: _regime_violation(inst, alive, regime, r), k_max,
                      "modulator hint does not satisfy the regime")
