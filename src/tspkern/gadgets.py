"""Instance generators: hardness constructions and random planted structure.

The constructions compose Hamiltonian-path inputs into routing instances
(apex gluing and ring-connector gluing), build the cherry selection gadget
and all-waypoint cycle gadget, and reduce multicolored clique to the subset
kind.  `gen_planted` makes random instances with a known modulator, for
stress and acceptance runs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .instance import Edge, Instance, InstanceError, InvariantError, KIND_SUBTSP, KIND_TSP, KIND_WRP, KINDS
from .oracle import ScaleError, solve_auto


@dataclass(frozen=True)
class HpInstance:
    """Simple unweighted graph asked for a Hamiltonian path."""
    n: int
    edges: frozenset[tuple[int, int]]  # normalized (min, max) pairs

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise InstanceError(f"bad edge ({u}, {v})")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "HpInstance":
        return cls(n, frozenset((min(u, v), max(u, v)) for u, v in pairs))

    def has_hamiltonian_path(self) -> bool:
        if self.n > 10:
            raise ScaleError("Hamiltonian-path check capped at 10 vertices")
        if self.n <= 1:
            return True
        adj = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)

        def extend(cur, used):
            if len(used) == self.n:
                return True
            return any(extend(w, used | {w}) for w in adj[cur] - used)

        return any(extend(s, {s}) for s in range(self.n))


@dataclass(frozen=True)
class MccInstance:
    """Multicolored clique input, color classes padded to a power of two.

    Vertices are (color, index) pairs with 1 <= color <= k, 0 <= index < N.
    """
    k: int
    N: int
    edges: frozenset[tuple[tuple[int, int], tuple[int, int]]]

    def __post_init__(self):
        if self.k < 2:
            raise InstanceError("need at least two colors")
        if self.N < 1 or self.N & (self.N - 1):
            raise InstanceError("class size must be a power of two")
        for a, b in self.edges:
            if a >= b:
                raise InstanceError(f"edge ({a}, {b}) not normalized")
            for i, x in (a, b):
                if not (1 <= i <= self.k and 0 <= x < self.N):
                    raise InstanceError(f"vertex ({i}, {x}) out of range")
            if a[0] == b[0]:
                raise InstanceError("edges must join distinct colors")

    @classmethod
    def build(cls, k: int, n: int, pairs) -> "MccInstance":
        """Normalize raw pairs, padding each class from n to the next power
        of two with (isolated) vertices."""
        if n < 1:
            raise InstanceError("class size must be positive")
        N = 1 << max(0, (n - 1).bit_length())
        edges = set()
        for a, b in pairs:
            for i, x in (a, b):
                if not (1 <= i <= k and 0 <= x < n):
                    raise InstanceError(f"vertex ({i}, {x}) out of range")
            edges.add((min(a, b), max(a, b)))
        return cls(k, N, frozenset(edges))

    def has_clique(self) -> bool:
        """Exhaustive multicolored-clique check: one vertex per color,
        pairwise adjacent."""
        for picks in itertools.product(range(self.N), repeat=self.k):
            verts = [(i + 1, a) for i, a in enumerate(picks)]
            if all((min(a, b), max(a, b)) in self.edges
                   for a, b in itertools.combinations(verts, 2)):
                return True
        return False


def _disjoint_union(graphs) -> tuple[int, list[Edge]]:
    """The vertex count k that `graphs` share, and the unit edges of their
    disjoint union, graph i on the vertices i*k to i*k + k - 1."""
    if not graphs:
        raise InstanceError("need at least one input graph")
    k = graphs[0].n
    if any(g.n != k for g in graphs):
        raise InstanceError("input graphs must share a vertex count")
    return k, [Edge(i * k + u, i * k + v, 1) for i, g in enumerate(graphs)
               for u, v in sorted(g.edges)]


def compose_fn(graphs: list[HpInstance]) -> Instance:
    """Disjoint union plus an apex adjacent to everything, unit weights.

    Feasible within budget t*(k+1) iff every input has a Hamiltonian path.
    """
    k, edges = _disjoint_union(graphs)
    t = len(graphs)
    n = t * k + 1
    apex = t * k
    edges.extend(Edge(v, apex, 1) for v in range(apex))
    inst = Instance(KIND_TSP, n, tuple(edges), frozenset(range(n)), t * (k + 1))
    # fractioning witness: deleting the apex plus one input graph leaves
    # components of at most k <= k+1 vertices each
    witness = {apex} | set(range(k))
    if any(len(c) > k + 1 for c in inst.components(without=witness)):
        raise InvariantError("compose_fn: a component outside the witness exceeds k+1 vertices")
    return inst


def compose_degtw(graphs: list[HpInstance]) -> Instance:
    """Disjoint union glued by a ring of connectors, keeping degrees low.

    Connector i is adjacent to all of graph i and graph (i+1) mod t; the
    maximum degree of the output is exactly 2k for t >= 2.
    """
    k, edges = _disjoint_union(graphs)
    t = len(graphs)
    n = t * k + t
    for i in range(t):
        ci = t * k + i
        targets = {i * k + u for u in range(k)} | {((i + 1) % t) * k + u for u in range(k)}
        edges.extend(Edge(v, ci, 1) for v in sorted(targets))
    inst = Instance(KIND_TSP, n, tuple(edges), frozenset(range(n)), t * (k + 1))
    if t >= 2 and (top := max(map(len, inst.adjacency()))) != 2 * k:
        raise InvariantError(f"compose_degtw: maximum degree {top}, expected {2 * k}")
    return inst


# -- selection / cycle gadgets ----------------------------------------------

def cherry_port(c: int, bit: int) -> int:
    """Vertex id of port x^bit of cherry c (0-based)."""
    return 3 * c + bit


def cherry_terminal(c: int) -> int:
    return 3 * c + 2


def _selection_edges(length: int) -> list[Edge]:
    edges = []
    for c in range(length):
        star = cherry_terminal(c)
        edges.append(Edge(cherry_port(c, 0), star, 1))
        edges.append(Edge(cherry_port(c, 1), star, 1))
        nxt = (c + 1) % length
        edges.append(Edge(star, cherry_port(nxt, 0), 1))
        edges.append(Edge(star, cherry_port(nxt, 1), 1))
    return edges


def selection_gadget(length: int) -> Instance:
    """Cyclic chain of cherries; ports are free choices, apexes must be hit.

    Any optimum uses 2*length edges and visits exactly one port per cherry.
    """
    if length < 3:
        raise InstanceError("selection gadget needs length >= 3")
    n = 3 * length
    waypoints = frozenset(cherry_terminal(c) for c in range(length))
    return Instance(KIND_SUBTSP, n, tuple(_selection_edges(length)),
                    waypoints, 2 * length)


def cycle_gadget(length: int) -> Instance:
    """A cycle of 3*length vertices, all waypoints, unit weights."""
    if length < 1:
        raise InstanceError("cycle gadget needs length >= 1")
    n = 3 * length
    edges = tuple(Edge(i, (i + 1) % n, 1) for i in range(n))
    return Instance(KIND_SUBTSP, n, edges, frozenset(range(n)), n)


def connect_triplet(base: int, i: int, v: int) -> list[tuple[int, int]]:
    """Edge endpoints attaching triplet i (0-based) of the cycle gadget
    rooted at vertex id `base` to an outside vertex v."""
    return [(v, base + 3 * i), (v, base + 3 * i + 1)]


def _bit(y: int, j: int) -> int:
    """j-th bit of y, 1-based from the least significant."""
    return (y >> (j - 1)) & 1


def mcc_to_subtsp(mcc: MccInstance) -> Instance:
    """Encode multicolored clique as a subset routing instance.

    One cherry per (color, bit position) selects a vertex per color in
    binary; every non-edge gets a cycle gadget wired to the ports that
    contradict it, traversable only when that non-edge was avoided.
    """
    log_n = mcc.N.bit_length() - 1
    length = mcc.k * log_n
    if length < 3:
        raise InstanceError("selection gadget needs length >= 3 (k*logN too small)")

    edges = _selection_edges(length)
    waypoints = {cherry_terminal(c) for c in range(length)}

    def cherry_index(color: int, j: int) -> int:
        return (color - 1) * log_n + (j - 1)

    non_edges = []
    for i, i2 in itertools.combinations(range(1, mcc.k + 1), 2):
        for a in range(mcc.N):
            for a2 in range(mcc.N):
                pair = ((i, a), (i2, a2))
                if pair not in mcc.edges:
                    non_edges.append(pair)

    base = 3 * length
    for (i, a), (i2, a2) in non_edges:
        size = 3 * 2 * log_n
        edges.extend(Edge(base + x, base + (x + 1) % size, 1) for x in range(size))
        waypoints.update(range(base, base + size))
        for j in range(1, log_n + 1):
            port = cherry_port(cherry_index(i, j), 1 - _bit(a, j))
            edges.extend(Edge(u, v, 1) for u, v in connect_triplet(base, j - 1, port))
            port = cherry_port(cherry_index(i2, j), 1 - _bit(a2, j))
            edges.extend(Edge(u, v, 1)
                         for u, v in connect_triplet(base, log_n + j - 1, port))
        base += size

    budget = (2 * length
              + (6 * log_n + 1) * (math.comb(mcc.k, 2) * mcc.N**2 - len(mcc.edges)))
    inst = Instance(KIND_SUBTSP, base, tuple(edges), frozenset(waypoints), budget)
    # third vertex of every wired triplet keeps degree two
    adj = inst.adjacency()
    if any(len(adj[v]) != 2 for v in range(3 * length + 2, inst.n, 3)):
        raise InvariantError("mcc_to_subtsp: a wired triplet's third vertex lost degree two")
    return inst


# -- planted random instances ------------------------------------------------

REGIMES = ("vc", "fes", "components", "paths")


def gen_planted(kind: str, regime: str, k: int, r: int, n: int,
                weight_range: tuple[int, int] = (1, 8), seed: int = 0) -> Instance:
    """Random instance with a planted structure of the requested regime.

    The modulator (when the regime has one) is recorded as the instance's
    hint.  The budget is the exact optimum plus a small offset when an exact
    engine is in reach, otherwise a generous heuristic, so both verdicts
    occur.  Deterministic for fixed arguments.
    """
    if kind not in KINDS:
        raise InstanceError(f"unknown kind {kind!r}")
    if regime not in REGIMES:
        raise InstanceError(f"unknown regime {regime!r}")
    if k < 1 or r < 1 or n <= k:
        raise InstanceError("need k >= 1, r >= 1, n > k")
    lo, hi = weight_range
    if not (0 <= lo <= hi):
        raise InstanceError("bad weight range")
    rng = random.Random(f"{kind}|{regime}|{k}|{r}|{n}|{lo}|{hi}|{seed}")

    def wt() -> int:
        return rng.randint(lo, hi)

    def cap():
        return rng.choice((1, 2, 2)) if kind == KIND_WRP else None

    edges: list[Edge] = []
    hint: frozenset[int] | None = None

    if regime == "fes":
        for v in range(1, n):
            edges.append(Edge(rng.randrange(v), v, wt(), cap()))
        for _ in range(k):
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            edges.append(Edge(u, v, wt(), cap()))
    else:
        hint = frozenset(range(k))
        for i in range(k - 1):  # keep the modulator connected
            edges.append(Edge(i, i + 1, wt(), cap()))
        if regime == "vc":
            for v in range(k, n):
                for m in rng.sample(range(k), rng.randint(1, min(2, k))):
                    edges.append(Edge(m, v, wt(), cap()))
        else:
            v = k
            while v < n:
                size = min(rng.randint(1, r), n - v)
                chunk = list(range(v, v + size))
                for a, b in zip(chunk, chunk[1:]):  # path inside the chunk
                    edges.append(Edge(a, b, wt(), cap()))
                if regime == "components" and size >= 3 and rng.random() < 0.5:
                    edges.append(Edge(chunk[0], chunk[-1], wt(), cap()))
                anchors = [chunk[0]] if size == 1 else [chunk[0], chunk[-1]]
                for a in anchors:
                    edges.append(Edge(a, rng.randrange(k), wt(), cap()))
                v += size

    if kind == KIND_TSP:
        waypoints = frozenset(range(n))
    else:
        waypoints = frozenset(v for v in range(n) if rng.random() < 0.6)
        if len(waypoints) < 2:
            waypoints = frozenset(range(min(2, n)))

    budget = 2 * sum(e.weight for e in edges)
    try:
        res = solve_auto(Instance(kind, n, tuple(edges), waypoints, budget + 1, hint))
        if res.feasible:
            budget = res.opt_weight + rng.randint(-2, 2)
    except ScaleError:  # no engine in reach: the heuristic budget stays
        pass
    return Instance(kind, n, tuple(edges), waypoints, budget, hint)
