"""Exact ground-truth solvers and solution-normalization utilities.

A solution is certified as an Eulerian multigraph: a multiplicity per edge
such that every degree is even, the support is connected and covers all
waypoints, capacities are respected, and the weight fits the budget.  With
at most one waypoint the empty multigraph is the (unique) solution.

Three exact engines, all desk-scale and guarded by explicit caps:
  * solve_exact_multiplicity - enumerate multiplicity vectors in {0,1,2}^m.
  * solve_heldkarp           - subset DP on the waypoint metric closure
                               (uncapacitated kinds only).
  * solve_treewidth          - connectivity/parity DP over a tree
                               decomposition; exact, handles all kinds,
                               reaches instances the other engines cannot.
                               Each table is grouped by partition: the
                               connected blocks of the used bag vertices,
                               as position bitmasks, plus a sealed flag
                               key a group, and a group maps each degree
                               parity bitmask to its best cost.  So the
                               partition work is done once per group, and
                               a join merges each pair of partitions once
                               before an XOR pass over their parities.
                               Each entry carries a trail, a shared tuple
                               tree of the edge multiplicities it chose,
                               so the witness is read off the final state
                               without keeping earlier tables.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .instance import KIND_WRP, Instance, InvariantError, ScaleError, component_walk, non_forest


@dataclass(frozen=True)
class SolutionMultigraph:
    multiplicity: tuple[int, ...]
    total_weight: int


@dataclass(frozen=True)
class OptResult:
    feasible: bool
    opt_weight: int | None
    witness: SolutionMultigraph | None


@dataclass(frozen=True)
class OracleCaps:
    multiplicity_edges: int = 14
    heldkarp_waypoints: int = 18
    treewidth_width: int = 8


DEFAULT_CAPS = OracleCaps()

# rows of the largest multiplicity grid: every grid the default caps allow
# (14 edges, three multiplicities each), and not one row more
MULTIPLICITY_MAX_ROWS = 3**14


def make_solution(inst: Instance, multiplicity) -> SolutionMultigraph:
    mult = tuple(multiplicity)
    if len(mult) != len(inst.edges):
        raise ValueError("multiplicity vector length != edge count")
    weight = sum(m * e.weight for m, e in zip(mult, inst.edges))
    return SolutionMultigraph(mult, weight)


def empty_solution(inst: Instance) -> SolutionMultigraph:
    return SolutionMultigraph((0,) * len(inst.edges), 0)


def _support_connected(inst: Instance, mult) -> bool:
    """Support (positive-degree vertices) connected and covering all waypoints."""
    comps = component_walk(inst, [i for i, m in enumerate(mult) if m > 0])
    first = next(comps, ())
    return next(comps, None) is None and inst.waypoints <= set(first)


def check_certificate(inst: Instance, sol: SolutionMultigraph) -> bool:
    if len(sol.multiplicity) != len(inst.edges):
        raise ValueError("multiplicity vector length != edge count")
    if len(inst.waypoints) <= 1 and all(m == 0 for m in sol.multiplicity):
        return 0 <= inst.budget
    deg = [0] * inst.n
    for m, e in zip(sol.multiplicity, inst.edges):
        if m < 0:
            return False
        if e.capacity is not None and m > e.capacity:
            return False
        deg[e.u] += m
        deg[e.v] += m
    if any(d % 2 for d in deg):
        return False
    if not _support_connected(inst, sol.multiplicity):
        return False
    return sol.total_weight <= inst.budget


# -- engine 1: multiplicity enumeration -------------------------------------

def multiplicity_grid(bases) -> np.ndarray:
    """Every vector x with 0 <= x[i] < bases[i], one int8 row each; x[0]
    varies fastest.  ScaleError, before anything is allocated, past
    MULTIPLICITY_MAX_ROWS rows."""
    total = math.prod(bases)
    if total > MULTIPLICITY_MAX_ROWS:
        raise ScaleError(f"oracle scale exceeded: multiplicity grid of {total} rows"
                         f" > {MULTIPLICITY_MAX_ROWS}")
    idx = np.arange(total, dtype=np.int64)
    counts = np.empty((total, len(bases)), dtype=np.int8)
    stride = 1
    for i, base in enumerate(bases):
        counts[:, i] = (idx // stride) % base
        stride *= base
    return counts


def solve_exact_multiplicity(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    m = len(inst.edges)
    if m > caps.multiplicity_edges:
        raise ScaleError(f"oracle scale exceeded: {m} edges > cap {caps.multiplicity_edges}")
    if len(inst.waypoints) <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))
    if m == 0:
        return OptResult(False, None, None)

    touched = sorted({v for e in inst.edges for v in e.ends()})
    if any(w not in set(touched) for w in inst.waypoints):
        return OptResult(False, None, None)
    col = {v: i for i, v in enumerate(touched)}

    counts = multiplicity_grid([inst.effective_capacity(e) + 1 for e in inst.edges])

    # degree parity and waypoint coverage, vectorized over touched vertices
    inc = np.zeros((m, len(touched)), dtype=np.int8)
    for i, e in enumerate(inst.edges):
        inc[i, col[e.u]] += 1
        inc[i, col[e.v]] += 1
    deg = counts @ inc
    ok = ((deg & 1) == 0).all(axis=1)
    wps = [col[w] for w in sorted(inst.waypoints)]
    ok &= (deg[:, wps] > 0).all(axis=1)
    cand = np.nonzero(ok)[0]
    if cand.size == 0:
        return OptResult(False, None, None)

    big = 2 * inst.total_weight() >= 2**62
    if big:
        ws = [e.weight for e in inst.edges]
        weights = np.array(
            [sum(int(c) * w for c, w in zip(counts[j], ws)) for j in cand], dtype=object
        )
        order = sorted(range(len(cand)), key=lambda j: (weights[j], int(cand[j])))
    else:
        w = np.array([e.weight for e in inst.edges], dtype=np.int64)
        weights = counts[cand] @ w
        order = np.lexsort((cand, weights))

    powers = np.int64(1) << np.arange(m, dtype=np.int64)
    conn_cache: dict[int, bool] = {}
    for j in order:
        row = counts[cand[j]]
        key = int((row > 0) @ powers)
        hit = conn_cache.get(key)
        if hit is None:
            hit = _support_connected(inst, [int(x) for x in row])
            conn_cache[key] = hit
        if hit:
            sol = make_solution(inst, (int(x) for x in row))
            return OptResult(sol.total_weight <= inst.budget, sol.total_weight, sol)
    return OptResult(False, None, None)


# -- engine 2: Held-Karp on the waypoint metric closure ----------------------

def _apsp_with_paths(inst: Instance):
    """Floyd-Warshall; returns dist and a path expander yielding edge indices."""
    INF = float("inf")
    n = inst.n
    direct = [[None] * n for _ in range(n)]  # cheapest direct edge index
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for i, e in enumerate(inst.edges):
        if e.weight < dist[e.u][e.v]:
            dist[e.u][e.v] = dist[e.v][e.u] = e.weight
            direct[e.u][e.v] = direct[e.v][e.u] = i
    via = [[None] * n for _ in range(n)]
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
                    via[i][j] = k

    def expand(i, j):
        if i == j:
            return []
        k = via[i][j]
        if k is None:
            return [direct[i][j]]
        return expand(i, k) + expand(k, j)

    return dist, expand


def solve_heldkarp(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    if inst.kind == KIND_WRP:
        raise ValueError("capacities unsupported by this engine")
    wps = sorted(inst.waypoints)
    ell = len(wps)
    if ell > caps.heldkarp_waypoints:
        raise ScaleError(f"oracle scale exceeded: {ell} waypoints > cap {caps.heldkarp_waypoints}")
    if ell <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))

    dist, expand = _apsp_with_paths(inst)
    INF = float("inf")
    d = [[dist[a][b] for b in wps] for a in wps]
    if any(d[0][j] == INF for j in range(ell)):
        return OptResult(False, None, None)

    full = (1 << ell) - 1
    dp = {(1, 0): (0, None)}
    for mask in range(1, full + 1):
        if not mask & 1:
            continue
        for last in range(ell):
            if not mask >> last & 1:
                continue
            cur = dp.get((mask, last))
            if cur is None:
                continue
            base = cur[0]
            for nxt in range(ell):
                if mask >> nxt & 1:
                    continue
                cand = base + d[last][nxt]
                key = (mask | 1 << nxt, nxt)
                if key not in dp or cand < dp[key][0]:
                    dp[key] = (cand, last)

    best, best_last = None, None
    for last in range(ell):
        entry = dp.get((full, last))
        if entry is None:
            continue
        cand = entry[0] + d[last][0]
        if best is None or cand < best:
            best, best_last = cand, last
    if best is None:
        return OptResult(False, None, None)

    # walk the DP parents back into a waypoint tour, then expand to edges
    tour = [best_last]
    mask = full
    while tour[-1] != 0 or mask != 1:
        prev = dp[(mask, tour[-1])][1]
        mask ^= 1 << tour[-1]
        tour.append(prev)
    tour.reverse()  # starts at waypoint 0
    mult = Counter()
    for a, b in zip(tour, tour[1:] + [tour[0]]):
        for ei in expand(wps[a], wps[b]):
            mult[ei] += 1
    sol = make_solution(inst, (mult.get(i, 0) for i in range(len(inst.edges))))
    if sol.total_weight != best:
        raise InvariantError(f"Held-Karp witness weighs {sol.total_weight}, optimum {best}")
    return OptResult(best <= inst.budget, int(best), sol)


# -- normalization -----------------------------------------------------------

def find_component_preserving_cycle(inst: Instance, sol: SolutionMultigraph) -> list[int]:
    """A cycle (edge indices, with repetition) whose removal keeps the
    component partition of the support, per the maximal-forest argument."""
    instances = []
    for i, m in enumerate(sol.multiplicity):
        instances.extend([i] * m)
    support = set()
    for i in instances:
        support.add(inst.edges[i].u)
        support.add(inst.edges[i].v)
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


# -- walks and segments ------------------------------------------------------

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
    adj = [[] for _ in range(inst.n)]
    for i, e in enumerate(inst.edges):
        if remaining[i]:
            adj[e.u].append(i)
            adj[e.v].append(i)
    if not adj[start]:
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


def solution_component_behavior(inst: Instance, walk: Walk, M, C):
    """Edge multiset F(S,C): segments discovering a new C-vertex, in order."""
    from .modulator import ComponentBehavior  # deferred: avoids an import cycle

    Cset = set(C)
    visited = set()
    edges = Counter()
    for seg in split_into_segments(inst, walk, M):
        here = {v for v in seg.vertices if v in Cset}
        if here - visited:
            edges.update(seg.edge_ids)
        visited |= here
    flat = tuple(sorted(itertools.chain.from_iterable([i] * c for i, c in edges.items())))
    weight = sum(inst.edges[i].weight * c for i, c in edges.items())
    return ComponentBehavior(component=-1, edges=flat, weight=weight)


# -- engine 3: tree-decomposition DP -----------------------------------------

def solve_treewidth(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    """Exact minimum-weight certificate via DP over a tree decomposition.

    Tracks per-bag degree parity and a partition of used bag vertices into
    connected blocks; a block may be sealed (forgotten entirely) only once,
    giving the single component that must cover every waypoint.
    """
    if len(inst.waypoints) <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))

    G = nx.Graph()
    G.add_nodes_from(range(inst.n))
    G.add_edges_from((e.u, e.v) for e in inst.edges)
    width, tree = nx.algorithms.approximation.treewidth_min_fill_in(G)
    if width > caps.treewidth_width:
        raise ScaleError(f"oracle scale exceeded: decomposition width {width} > cap {caps.treewidth_width}")

    # bags in DFS preorder from the first bag; children in neighbour order
    root = next(iter(tree.nodes))
    bags, children = [], []
    walk = [(root, None, -1)]  # (bag, parent bag, parent's preorder index)
    while walk:
        bag, parent, up = walk.pop()
        if up >= 0:
            children[up].append(len(bags))
        kids = [b for b in tree.neighbors(bag) if b != parent]
        walk.extend((b, bag, len(bags)) for b in reversed(kids))
        bags.append(bag)
        children.append([])

    # home each edge in the first bag, in preorder, holding both endpoints:
    # the first bag in the shorter of the two endpoints' bag lists that
    # holds the other endpoint
    bags_of = [[] for _ in range(inst.n)]
    for b, bag in enumerate(bags):
        for v in bag:
            bags_of[v].append(b)
    homed = [[] for _ in bags]
    for i, e in enumerate(inst.edges):
        u, v = (e.u, e.v) if len(bags_of[e.u]) <= len(bags_of[e.v]) else (e.v, e.u)
        b = next((b for b in bags_of[u] if v in bags[b]), None)
        if b is None:
            raise InvariantError("tree decomposition misses an edge")
        homed[b].append(i)

    # nice decomposition in postfix order: a bag's subtree is a leaf and
    # intros, or each child's subtree adapted to the bag and joined to the
    # previous one; then the bag's edges
    ops: list[tuple] = []  # ("leaf"|"intro"|"forget"|"edge"|"join", payload)
    todo = [(0, 0)]  # (bag, children already emitted)
    while todo:
        b, done = todo.pop()
        if done:
            child, bag = bags[children[b][done - 1]], bags[b]
            ops.extend(("forget", v) for v in sorted(child - bag))
            ops.extend(("intro", v) for v in sorted(bag - child))
            if done > 1:
                ops.append(("join", None))
        elif not children[b]:
            ops.append(("leaf", None))
            ops.extend(("intro", v) for v in sorted(bags[b]))
        if done < len(children[b]):
            todo += [(b, done + 1), (children[b][done], 0)]
        else:
            ops.extend(("edge", i) for i in homed[b])
    ops.extend(("forget", v) for v in sorted(root))

    return _run_tw_dp(inst, ops)


def _merge_blocks(blocks1, blocks2):
    """The finest partition coarser than both: each block of `blocks2`
    absorbs the blocks it meets.  Blocks are disjoint bag-position masks,
    returned in ascending order."""
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


def _run_tw_dp(inst: Instance, ops) -> OptResult:
    """Run the postfix `ops` over a stack of (bag tuple, table) pairs.

    Bag positions are bit positions.  A table is grouped by partition: it
    maps (blocks, done) to a group, where `blocks` lists the connected
    blocks of used bag vertices as disjoint position masks in ascending
    order and `done` says a block was sealed (forgotten whole).  A group
    maps a parity mask, whose bit i is the degree parity of bag position
    i, to (cost, trail).  Intro, forget and edge do their partition work
    (insert or drop a position, merge two blocks) once per group, and each
    parity entry then costs a few bit operations.  A join merges each
    compatible pair of groups' partitions once and takes the min-plus XOR
    product of their parity entries.

    The trail is the witness of a cost: None, (edge, multiplicity, trail)
    for an edge taken a positive number of times, or (left trail, right
    trail) at a join.  Intro and forget pass it through, so only the final
    state's trail is read back.
    """
    W = inst.waypoints
    stack: list[tuple[tuple, dict]] = []
    for op, arg in ops:
        if op == "leaf":
            bag = ()
            table = {((), False): {0: (0, None)}}
        elif op == "intro":
            bag0, t0 = stack.pop()
            p = bisect.bisect_left(bag0, arg)
            bag = bag0[:p] + (arg,) + bag0[p:]
            low = (1 << p) - 1
            # a clear bit inserted at p keeps masks in ascending order
            table = {(tuple([(m & low) | (m >> p << p + 1) for m in blocks]), done):
                     {(mask & low) | (mask >> p << p + 1): entry for mask, entry in group.items()}
                     for (blocks, done), group in t0.items()}
        elif op == "forget":
            bag0, t0 = stack.pop()
            p = bag0.index(arg)
            bag = bag0[:p] + bag0[p + 1:]
            low, bit = (1 << p) - 1, 1 << p
            table = {}
            for (blocks, done), group in t0.items():
                if bit in blocks:  # the vertex's block ends here: seal it
                    if done or len(blocks) > 1:
                        continue
                    state = ((), True)
                elif arg in W and not any(m & bit for m in blocks):
                    continue  # a waypoint left unused
                else:
                    state = (tuple(sorted([(m & low) | (m >> p + 1 << p) for m in blocks])), done)
                out = table.setdefault(state, {})
                for mask, entry in group.items():
                    if mask & bit:
                        continue
                    key = (mask & low) | (mask >> p + 1 << p)
                    old = out.get(key)
                    if old is None or entry[0] < old[0]:
                        out[key] = entry
            table = {state: group for state, group in table.items() if group}
        elif op == "edge":
            bag0, t0 = stack.pop()
            bag = bag0
            e = inst.edges[arg]
            bu, bv = 1 << bag.index(e.u), 1 << bag.index(e.v)
            flip = bu ^ bv
            cap = inst.effective_capacity(e)
            table = {state: dict(group) for state, group in t0.items()}  # multiplicity 0
            for (blocks, done), group in t0.items():
                if done or cap == 0:
                    continue
                out = table.setdefault((_merge_blocks(blocks, (bu | bv,)), False), {})
                for mult in range(1, cap + 1):
                    add, odd = mult * e.weight, flip if mult % 2 else 0
                    for mask, (cost, trail) in group.items():
                        key, ncost = mask ^ odd, cost + add
                        old = out.get(key)
                        if old is None or ncost < old[0]:
                            out[key] = (ncost, (arg, mult, trail))
        elif op == "join":
            bag_r, t_r = stack.pop()
            bag_l, t_l = stack.pop()
            if bag_l != bag_r:
                raise InvariantError(f"join of unequal bags {bag_l} and {bag_r}")
            bag = bag_l
            rights = [(blocks, done, list(group.items())) for (blocks, done), group in t_r.items()]
            table = {}
            for (blocks1, done1), group in t_l.items():
                lefts = list(group.items())
                for blocks2, done2, items2 in rights:
                    # a sealed side must have used nothing the other side uses
                    if done1 and (done2 or blocks2) or done2 and blocks1:
                        continue
                    out = table.setdefault((_merge_blocks(blocks1, blocks2), done1 or done2), {})
                    for m1, (c1, trail1) in lefts:
                        for m2, (c2, trail2) in items2:
                            key, ncost = m1 ^ m2, c1 + c2
                            old = out.get(key)
                            if old is None or ncost < old[0]:
                                out[key] = (ncost, (trail1, trail2))
        else:
            raise InvariantError(f"unknown tree-decomposition op {op!r}")
        stack.append((bag, table))

    if len(stack) != 1 or stack[0][0] != ():
        raise InvariantError("tree-decomposition ops do not end in one empty bag")
    final = stack[0][1].get(((), True), {}).get(0)
    if final is None:
        return OptResult(False, None, None)
    opt, trail = final

    mult = [0] * len(inst.edges)
    trails = [trail]
    while trails:
        t = trails.pop()
        if t is None:
            continue
        if len(t) == 3:
            mult[t[0]] += t[1]
            trails.append(t[2])
        else:
            trails.extend(t)
    sol = make_solution(inst, mult)
    if sol.total_weight != opt:
        raise InvariantError(f"treewidth witness weighs {sol.total_weight}, optimum {opt}")
    if sol.total_weight <= inst.budget and not check_certificate(inst, sol):
        raise InvariantError("treewidth witness is not a certificate")
    return OptResult(opt <= inst.budget, int(opt), sol)


ENGINES = {
    "multiplicity": solve_exact_multiplicity,
    "heldkarp": solve_heldkarp,
    "treewidth": solve_treewidth,
}


def solve_auto(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    """Solve with the widest applicable engine; ScaleError if none fits."""
    if len(inst.edges) <= caps.multiplicity_edges:
        return solve_exact_multiplicity(inst, caps)
    if inst.kind != KIND_WRP and len(inst.waypoints) <= caps.heldkarp_waypoints:
        return solve_heldkarp(inst, caps)
    return solve_treewidth(inst, caps)


def equivalent(a: Instance, b: Instance, caps: OracleCaps = DEFAULT_CAPS) -> bool:
    """True iff both instances get the same feasibility verdict."""
    return solve_auto(a, caps).feasible == solve_auto(b, caps).feasible
