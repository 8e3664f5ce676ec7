"""Exact ground-truth solvers.

A solution is certified as an Eulerian multigraph: a multiplicity per edge
such that every degree is even, the support is connected and covers all
waypoints, capacities are respected, and the weight fits the budget.  With
at most one waypoint the empty multigraph is the (unique) solution.

Three exact engines, all desk-scale and guarded by explicit caps:
  * solve_exact_multiplicity - enumerate multiplicity vectors in {0,1,2}^m
                               as two flat vertex-bitmask arrays, degree
                               parity and waypoint coverage, folded in one
                               edge at a time; only the parity-even,
                               covering vectors are decoded, weighed and
                               tested for connectivity.
  * solve_heldkarp           - subset DP on the waypoint metric closure
                               (uncapacitated kinds only).  The closure
                               comes from one Dijkstra per waypoint, so
                               it costs the waypoints' searches, not a
                               cubic pass over every vertex.  Waypoint 0
                               starts the tour; a cost array and an int8
                               parent array of shape (2^(l-1), l-1) hold
                               the cheapest path through each subset of
                               the other waypoints, by its last one.
                               Each popcount layer is filled by one numpy
                               gather over its (subset, last) cells and
                               an argmin, in int64, or in exact Python
                               ints (object arrays) when the sums could
                               pass int64.
  * solve_treewidth          - connectivity/parity DP over a tree
                               decomposition; exact, handles all kinds,
                               reaches instances the other engines cannot.
                               The decomposition peels vertices of degree
                               at most 1, and of degree 2 when none of
                               degree at most 1 is left, in linear time;
                               only the core left, where every degree is
                               at least 3, goes to networkx's min-fill-in
                               heuristic, and networkx is imported only
                               when there is such a core.  The DP runs
                               with the cyclic garbage collector paused.
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
import gc
import heapq
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .instance import KIND_WRP, Instance, InstanceError, InvariantError, ScaleError, component_walk


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
# (three multiplicities per edge), and not one row more
MULTIPLICITY_MAX_ROWS = 3**DEFAULT_CAPS.multiplicity_edges

# cells of the largest Held-Karp table, 2^(l-1) subsets by l-1 last
# waypoints for l waypoints: every table the default caps allow, and not
# one cell more
HELDKARP_MAX_CELLS = (DEFAULT_CAPS.heldkarp_waypoints - 1) << (DEFAULT_CAPS.heldkarp_waypoints - 1)


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

def _check_grid_rows(bases) -> None:
    """ScaleError when more than MULTIPLICITY_MAX_ROWS vectors x have
    0 <= x[i] < bases[i]."""
    total = math.prod(bases)
    if total > MULTIPLICITY_MAX_ROWS:
        raise ScaleError(f"oracle scale exceeded: multiplicity grid of {total} rows"
                         f" > {MULTIPLICITY_MAX_ROWS}")


def multiplicity_grid(bases, values, op=np.add) -> np.ndarray:
    """Fold one value per edge over every vector x with 0 <= x[i] < bases[i].

    values[i][k] is edge i's value at x[i] = k.  Entry j of the flat result
    combines values[i][x[i]] over all edges with the ufunc `op`, for the x
    of mixed-radix index j = x[0] + bases[0] * (x[1] + bases[1] * (...)), so
    x[0] varies fastest.  Each edge costs one broadcast, out =
    op(table[:, None], out[None, :]).ravel(); no vector is stored.
    ScaleError, before anything is allocated, past MULTIPLICITY_MAX_ROWS
    entries."""
    _check_grid_rows(bases)
    tables = [np.asarray(values[i][:base]) for i, base in enumerate(bases)]
    out = tables[0]
    for table in tables[1:]:
        out = op(table[:, None], out[None, :]).ravel()
    return out


def solve_exact_multiplicity(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    m = len(inst.edges)
    if m > caps.multiplicity_edges:
        raise ScaleError(f"oracle scale exceeded: {m} edges > cap {caps.multiplicity_edges}")
    if len(inst.waypoints) <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))

    touched = sorted({v for e in inst.edges for v in e.ends()})
    if not inst.waypoints <= set(touched):
        return OptResult(False, None, None)
    bases = [inst.effective_capacity(e) + 1 for e in inst.edges]

    # one bit per touched vertex.  Within the row bound at most 22 edges
    # (2^22 <= 3^14), so 44 vertices, fit; the row guard runs first so that
    # an oversized input still fails as a scale error
    _check_grid_rows(bases)
    if len(touched) > 62:
        raise InvariantError(f"{len(touched)} touched vertices exceed a 62-bit mask")
    dtype = np.int32 if len(touched) < 31 else np.int64
    bit = {v: 1 << i for i, v in enumerate(touched)}
    wmask = sum(bit[w] for w in inst.waypoints)
    ends = [bit[e.u] | bit[e.v] for e in inst.edges]
    # an edge flips its ends' degree parity when taken once, covers them when taken at all
    parity = multiplicity_grid(bases, np.array([[0, b, 0] for b in ends], dtype=dtype),
                               np.bitwise_xor)
    ok = parity == 0
    del parity  # one mask array alive at a time
    cover = multiplicity_grid(bases, np.array([[0, b & wmask, b & wmask] for b in ends],
                                              dtype=dtype), np.bitwise_or)
    ok &= cover == wmask
    del cover
    cand = np.flatnonzero(ok)
    if cand.size == 0:
        return OptResult(False, None, None)

    # decode the candidates' vectors from their mixed-radix indices
    counts = np.empty((cand.size, m), dtype=np.int64)
    stride = 1
    for i, base in enumerate(bases):
        counts[:, i] = cand // stride % base
        stride *= base

    # weights whose sums could pass int64 are exact Python ints; `cand` is
    # ascending, so a stable sort breaks weight ties by vector index
    dtype = object if 2 * inst.total_weight() >= 2**62 else np.int64
    weights = counts @ np.array([e.weight for e in inst.edges], dtype=dtype)
    order = np.argsort(weights, kind="stable")

    powers = np.int64(1) << np.arange(m, dtype=np.int64)
    conn_cache: dict[int, bool] = {}
    for j in order:
        row = counts[j]
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

def _apsp_with_paths(inst: Instance, wps):
    """Shortest paths between the waypoints `wps`, by Dijkstra from each.
    Distances are symmetric, so the search from wps[a] stops once every
    later waypoint is settled.  Returns d and expand: d[a][b] is the
    distance between wps[a] and wps[b], None when unreachable, and
    expand(a, b) lists the edge ids of one shortest path between them.  Of
    parallel edges the cheapest, then the lowest id, is taken."""
    adj, edges = inst.adjacency(), inst.edges
    index = {w: a for a, w in enumerate(wps)}
    d = [[0 if a == b else None for b in range(len(wps))] for a in range(len(wps))]
    preds = []
    for a, s in enumerate(wps):
        dist, pred, left = {s: 0}, {}, len(wps) - 1 - a
        heap = [(0, s)]
        while heap and left:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue  # a stale entry: u was reached more cheaply since
            b = index.get(u, -1)
            if b > a:
                d[a][b] = d[b][a] = du
                left -= 1
            for i in adj[u]:
                e = edges[i]
                v, dv = e.v if e.u == u else e.u, du + e.weight
                if v not in dist or dv < dist[v]:
                    dist[v], pred[v] = dv, i
                    heapq.heappush(heap, (dv, v))
        preds.append(pred)

    def expand(a, b):
        a, b = min(a, b), max(a, b)
        pred, v, path = preds[a], wps[b], []
        while v != wps[a]:
            path.append(pred[v])
            v = edges[pred[v]].other(v)
        return path

    return d, expand


# subsets per slice of a Held-Karp layer: a layer's cells are independent,
# so slicing bounds the working arrays without changing the result
HELDKARP_SLICE = 1 << 12


def _heldkarp_layers(k):
    """The cells (S, j) with j in S of a table over subsets S of k
    waypoints, layer by layer in the popcount of S from 2 to k, each layer
    in slices of at most HELDKARP_SLICE subsets.  A slice is three int
    arrays: the subsets S, the last waypoints j and the predecessor
    subsets S ^ 1 << j."""
    count = np.zeros(1, dtype=np.int8)
    for _ in range(k):  # popcount of every subset, doubling the range
        count = np.concatenate([count, count + 1])
    by_count = np.argsort(count, kind="stable")
    start = np.cumsum([0] + [math.comb(k, p) for p in range(k + 1)])
    for p in range(2, k + 1):
        for lo in range(start[p], start[p + 1], HELDKARP_SLICE):
            subsets = by_count[lo:min(lo + HELDKARP_SLICE, start[p + 1])]
            row, j = np.nonzero(subsets[:, None] >> np.arange(k) & 1)
            S = subsets[row]
            yield S, j, S ^ (1 << j)


def solve_heldkarp(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    if inst.kind == KIND_WRP:
        raise InstanceError("capacities unsupported by this engine")
    wps = sorted(inst.waypoints)
    ell = len(wps)
    if ell > caps.heldkarp_waypoints:
        raise ScaleError(f"oracle scale exceeded: {ell} waypoints > cap {caps.heldkarp_waypoints}")
    if ell <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))
    k = ell - 1  # waypoint 0 starts the tour; the table is over the other k
    if k << k > HELDKARP_MAX_CELLS:
        raise ScaleError(f"oracle scale exceeded: Held-Karp table of {k << k} cells"
                         f" > {HELDKARP_MAX_CELLS}")

    d, expand = _apsp_with_paths(inst, wps)
    if None in d[0]:
        return OptResult(False, None, None)
    top = max(map(max, d))
    # every sum the DP forms, the sentinel `inf` plus a distance included,
    # is at most (ell + 1) * top + 1; past int64, object arrays hold exact
    # Python ints instead
    dtype = np.int64 if (ell + 1) * top < 2**62 else object
    inf = ell * top + 1  # above every tour
    # dp[S, j]: the cheapest path from waypoint 0 through the waypoints of
    # subset S, ending at j in S; bit j stands for waypoint j + 1
    start = np.array(d[0][1:], dtype=dtype)
    dist = np.array([row[1:] for row in d[1:]], dtype=dtype)  # symmetric: dist[j] = d(., j)
    dp = np.full((1 << k, k), inf, dtype=dtype)
    parent = np.zeros((1 << k, k), dtype=np.int8)
    dp[1 << np.arange(k), np.arange(k)] = start
    for S, j, prev in _heldkarp_layers(k):
        vals = dp[prev]  # vals[c, i] = dp[S ^ 1 << j, i] + d(i, j), past inf where i not in S
        vals += dist[j]
        best = vals.argmin(axis=1)
        parent[S, j] = best
        dp[S, j] = np.take_along_axis(vals, best[:, None], axis=1)[:, 0]

    full = (1 << k) - 1
    last = int(np.argmin(dp[full] + start))
    opt = int(dp[full, last]) + d[0][last + 1]

    # walk the parents back into a waypoint tour, then expand each leg to edges
    tour, S, j = [last], full, last
    while S & S - 1:
        S, j = S ^ 1 << j, int(parent[S, j])
        tour.append(j)
    tour = [0] + [j + 1 for j in reversed(tour)]
    mult = Counter()
    for a, b in zip(tour, tour[1:] + [0]):
        mult.update(expand(a, b))
    sol = make_solution(inst, (mult.get(i, 0) for i in range(len(inst.edges))))
    if sol.total_weight != opt:
        raise InvariantError(f"Held-Karp witness weighs {sol.total_weight}, optimum {opt}")
    if opt <= inst.budget and not check_certificate(inst, sol):
        raise InvariantError("Held-Karp witness is not a certificate")
    return OptResult(opt <= inst.budget, opt, sol)


# -- engine 3: tree-decomposition DP -----------------------------------------

def solve_treewidth(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    """Exact minimum-weight certificate via DP over a tree decomposition.

    Tracks per-bag degree parity and a partition of used bag vertices into
    connected blocks; a block may be sealed (forgotten entirely) only once,
    giving the single component that must cover every waypoint.
    """
    if len(inst.waypoints) <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))

    width, bags, parent = _decompose(inst)
    if width > caps.treewidth_width:
        raise ScaleError(f"oracle scale exceeded: decomposition width {width} > cap {caps.treewidth_width}")
    children = [[] for _ in bags]
    for b in range(1, len(bags)):
        children[parent[b]].append(b)

    # home each edge in the first bag, by index, holding both endpoints:
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
    ops.extend(("forget", v) for v in sorted(bags[0]))

    return _run_tw_dp(inst, ops)


def _decompose(inst: Instance):
    """A tree decomposition of the instance's simple graph, as (width,
    bags, parent): bags[0] is the root, and every other bag b hangs below
    bags[parent[b]], with parent[b] < b.

    Vertices of degree at most 1 are eliminated first, and one of degree 2
    only when none of degree at most 1 is left; a degree-2 vertex joins its
    two neighbours by a fill edge.  Eliminating such vertices never raises
    the treewidth, so forests get width at most 1 and every graph of
    treewidth at most 2 is decomposed exactly.  Each eliminated vertex v
    gets the bag {v} and its neighbours at that time, below the bag of its
    earliest-eliminated neighbour.  Only the core left over, where every
    degree is at least 3, goes to networkx's min-fill-in heuristic, and a
    peeled bag whose neighbours all lie in the core hangs below a core bag
    that holds them all.  Outside the core's decomposition the work is
    linear in the size of the graph.
    """
    nbrs = [set() for _ in range(inst.n)]
    for e in inst.edges:
        nbrs[e.u].add(e.v)
        nbrs[e.v].add(e.u)
    # degrees never grow, so a vertex queued at degree <= 1 stays there, and
    # one popped from `two` while `low` is empty still has degree 2
    low = [v for v in range(inst.n) if len(nbrs[v]) <= 1]
    two = [v for v in range(inst.n) if len(nbrs[v]) == 2]
    peeled = {}  # eliminated vertex -> its bag, in elimination order
    while low or two:
        v = (low or two).pop()
        if v in peeled:
            continue
        near = nbrs[v]
        peeled[v] = frozenset(near | {v})
        if len(near) == 2:
            a, b = near
            nbrs[a].add(b)
            nbrs[b].add(a)
        for u in near:
            nbrs[u].discard(v)
            if len(nbrs[u]) <= 1:
                low.append(u)
            elif len(nbrs[u]) == 2:
                two.append(u)

    bags, parent = [], []
    core_bags_of = {}  # core vertex -> the core bags holding it
    core = [v for v in range(inst.n) if v not in peeled]
    if core:
        import networkx as nx  # only a graph with a core needs it

        G = nx.Graph()
        G.add_nodes_from(core)
        G.add_edges_from((u, v) for u in core for v in nbrs[u] if u < v)
        _, tree = nx.algorithms.approximation.treewidth_min_fill_in(G)
        walk = [(next(iter(tree.nodes)), None, -1)]  # (bag, parent bag, parent's index)
        while walk:
            bag, up_bag, up = walk.pop()
            for v in bag:
                core_bags_of.setdefault(v, []).append(len(bags))
            walk.extend((b, bag, len(bags)) for b in tree.neighbors(bag) if b != up_bag)
            bags.append(bag)
            parent.append(up)

    # peeled bags in reverse elimination order, so a vertex's
    # earliest-eliminated neighbour has the highest index so far
    index = {}
    for v, bag in reversed(peeled.items()):
        near = bag - {v}
        later = [index[u] for u in near if u in index]
        if later:
            up = max(later)
        elif near:  # a clique of the core, so some core bag holds it
            u = min(near, key=lambda u: len(core_bags_of[u]))
            up = next((c for c in core_bags_of[u] if near <= bags[c]), None)
            if up is None:
                raise InvariantError("core decomposition misses a clique")
        else:  # the last vertex of its component; the first such is the root
            up = 0 if bags else -1
        index[v] = len(bags)
        bags.append(bag)
        parent.append(up)
    return max(map(len, bags)) - 1, bags, parent


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
    # the tables hold only tuples and dicts, no reference cycles, so the
    # cyclic collector would only rescan them as they grow
    collecting = gc.isenabled()
    gc.disable()
    try:
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
                         {(mask & low) | (mask >> p << p + 1): entry
                          for mask, entry in group.items()}
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
                        kept = sorted([(m & low) | (m >> p + 1 << p) for m in blocks])
                        state = (tuple(kept), done)
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
                rights = [(blocks, done, list(group.items()))
                          for (blocks, done), group in t_r.items()]
                table = {}
                for (blocks1, done1), group in t_l.items():
                    lefts = list(group.items())
                    for blocks2, done2, items2 in rights:
                        # a sealed side must have used nothing the other side uses
                        if done1 and (done2 or blocks2) or done2 and blocks1:
                            continue
                        state = (_merge_blocks(blocks1, blocks2), done1 or done2)
                        out = table.setdefault(state, {})
                        for m1, (c1, trail1) in lefts:
                            for m2, (c2, trail2) in items2:
                                key, ncost = m1 ^ m2, c1 + c2
                                old = out.get(key)
                                if old is None or ncost < old[0]:
                                    out[key] = (ncost, (trail1, trail2))
            else:
                raise InvariantError(f"unknown tree-decomposition op {op!r}")
            stack.append((bag, table))

    finally:
        if collecting:
            gc.enable()

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
