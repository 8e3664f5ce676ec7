"""Exact ground-truth solvers.

A solution is certified as an Eulerian multigraph: a multiplicity per edge
such that every degree is even, the support is connected and covers all
waypoints, capacities are respected, and the weight fits the budget.  With
at most one waypoint the empty multigraph is the (unique) solution.

Three exact engines, all desk-scale, each guarded by one cap of
`OracleCaps`, whose defaults are the ceilings; each checks its witness
the same way (`_witnessed`):
  * solve_exact_multiplicity - enumerate multiplicity vectors in {0,1,2}^m
                               as two flat vertex-bitmask arrays, degree
                               parity and waypoint coverage, folded in one
                               edge at a time (`even_covering`, which also
                               enumerates component behaviors in
                               `modulator`); only the parity-even, covering
                               vectors are decoded, weighed and, in weight
                               order, tested once per support by merging its
                               edges' end masks (`_merge_blocks`).
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
                               when there is such a core.  The solve runs
                               with the cyclic garbage collector paused.
                               Each vertex owns one bit for the whole run,
                               the least bit free in the top bag that
                               holds it, so no two vertices of a bag share
                               one and at most width + 1 are used.  The DP
                               walks the bag tree depth first: a bag's
                               table is its children's, each forgetting
                               the vertices the bag lacks and joined to the
                               earlier ones, with the bag's edges added.
                               Each table is grouped by partition: the
                               connected blocks of the used bag vertices,
                               as bit masks, plus a sealed flag key a
                               group, and a group maps each degree parity
                               mask to its best cost.  A vertex a bag
                               gains leaves the table as it is, a forget
                               clears one bit once per group, an edge
                               copies only the groups it adds to, and a
                               join merges each pair of partitions once
                               before an XOR pass over their parities.
                               Each entry carries a trail, a shared tuple
                               tree of the edge multiplicities it chose,
                               so the witness is read off the final state
                               without keeping earlier tables.
"""

from __future__ import annotations

import gc
import heapq
from collections import Counter
from dataclasses import dataclass, fields

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
    """The largest input each engine takes.  The defaults are the
    ceilings: a cap may be lowered, and ValueError is raised for one
    above its default."""
    multiplicity_edges: int = 14
    heldkarp_waypoints: int = 18
    treewidth_width: int = 8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value > f.default:
                raise ValueError(f"{f.name} cap {value} is above its default {f.default};"
                                 " a cap may only be lowered")


DEFAULT_CAPS = OracleCaps()


def make_solution(inst: Instance, multiplicity) -> SolutionMultigraph:
    mult = tuple(multiplicity)
    if len(mult) != len(inst.edges):
        raise ValueError("multiplicity vector length != edge count")
    weight = sum(m * e.weight for m, e in zip(mult, inst.edges))
    return SolutionMultigraph(mult, weight)


def empty_solution(inst: Instance) -> SolutionMultigraph:
    return SolutionMultigraph((0,) * len(inst.edges), 0)


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
    comps = component_walk(inst, [i for i, m in enumerate(sol.multiplicity) if m > 0])
    first = next(comps, ())  # the support must be one piece holding every waypoint
    return (next(comps, None) is None and inst.waypoints <= set(first)
            and sol.total_weight <= inst.budget)


# -- engine 1: multiplicity enumeration -------------------------------------

def multiplicity_grid(bases, values, op=np.add) -> np.ndarray:
    """Fold one value per edge over every vector x with 0 <= x[i] < bases[i].

    values[i][k] is edge i's value at x[i] = k.  Entry j of the flat result
    combines values[i][x[i]] over all edges with the ufunc `op`, for the x
    of mixed-radix index j = x[0] + bases[0] * (x[1] + bases[1] * (...)), so
    x[0] varies fastest.  Each edge costs one broadcast, out =
    op(table[:, None], out[None, :]).ravel(); no vector is stored."""
    tables = [np.asarray(values[i][:base]) for i, base in enumerate(bases)]
    out = tables[0]
    for table in tables[1:]:
        out = op(table[:, None], out[None, :]).ravel()
    return out


def even_covering(bases, flips, covers, target) -> np.ndarray:
    """The ascending mixed-radix indices, as in `multiplicity_grid`, of the
    vectors x whose odd entries' `flips` masks XOR to 0 and whose nonzero
    entries' `covers` masks OR to `target`.  Two int32 folds, one alive at a
    time, so every mask must fit in 30 bits."""
    if max([target, *flips, *covers]) >> 30:
        raise InvariantError("vertex masks exceed 30 bits")
    ok = multiplicity_grid(bases, np.array([[0, f, 0] for f in flips], dtype=np.int32),
                           np.bitwise_xor) == 0
    ok &= multiplicity_grid(bases, np.array([[0, c, c] for c in covers], dtype=np.int32),
                            np.bitwise_or) == target
    return np.flatnonzero(ok)


def decode(bases, index) -> np.ndarray:
    """The vectors of the mixed-radix indices `index`, one row each."""
    return np.stack(np.unravel_index(index, bases, order="F"), axis=1)


def _witnessed(inst: Instance, opt, sol: SolutionMultigraph, engine: str) -> OptResult:
    """The result of optimum `opt` with witness `sol`; InvariantError unless
    the witness weighs `opt` and, within budget, is a certificate."""
    if sol.total_weight != opt:
        raise InvariantError(f"{engine} witness weighs {sol.total_weight}, optimum {opt}")
    if opt <= inst.budget and not check_certificate(inst, sol):
        raise InvariantError(f"{engine} witness is not a certificate")
    return OptResult(opt <= inst.budget, int(opt), sol)


def check_multiplicity_cap(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> None:
    """ScaleError when `inst` has more edges than the multiplicity engine's cap."""
    m = len(inst.edges)
    if m > caps.multiplicity_edges:
        raise ScaleError(f"oracle scale exceeded: {m} edges > cap {caps.multiplicity_edges}")


def solve_exact_multiplicity(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    check_multiplicity_cap(inst, caps)
    if len(inst.waypoints) <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))

    touched = sorted({v for e in inst.edges for v in e.ends()})
    if not inst.waypoints <= set(touched):
        return OptResult(False, None, None)
    bases = [inst.effective_capacity(e) + 1 for e in inst.edges]

    # one bit per touched vertex: the edge cap's 14 edges touch at most 28;
    # an edge flips its ends' degree parity when taken once, covers them
    # when taken at all
    bit = {v: 1 << i for i, v in enumerate(touched)}
    wmask = sum(bit[w] for w in inst.waypoints)
    ends = [bit[e.u] | bit[e.v] for e in inst.edges]
    counts = decode(bases, even_covering(bases, ends, [b & wmask for b in ends], wmask))

    # weights whose sums could pass int64 are exact Python ints; the rows are
    # in ascending index order, so a stable sort breaks weight ties by index
    dtype = object if 2 * inst.total_weight() >= 2**62 else np.int64
    weights = counts @ np.array([e.weight for e in inst.edges], dtype=dtype)
    order = np.argsort(weights, kind="stable")

    # each candidate's support as a bit mask over the edges; every waypoint is
    # covered, so a candidate is a solution when its edges' end masks merge into one block
    supports = (counts > 0) @ (1 << np.arange(len(ends), dtype=np.int64))
    rejected: set[int] = set()
    for j in order:
        key = int(supports[j])
        if key in rejected:
            continue
        masks = [b for i, b in enumerate(ends) if key >> i & 1]
        if len(_merge_blocks(masks[:1], masks)) == 1:
            sol = make_solution(inst, counts[j].tolist())
            return _witnessed(inst, sol.total_weight, sol, "multiplicity")
        rejected.add(key)
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
    in ascending slices of at most HELDKARP_SLICE subsets.  A slice is
    three int arrays: the subsets S, the last waypoints j and the
    predecessor subsets S ^ 1 << j."""
    count = np.zeros(1, dtype=np.int8)
    for _ in range(k):  # popcount of every subset, doubling the range
        count = np.concatenate([count, count + 1])
    for p in range(2, k + 1):
        layer = np.flatnonzero(count == p)
        for lo in range(0, layer.size, HELDKARP_SLICE):
            subsets = layer[lo:lo + HELDKARP_SLICE]
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
    return _witnessed(inst, opt, sol, "Held-Karp")


# -- engine 3: tree-decomposition DP -----------------------------------------

def solve_treewidth(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    """Exact minimum-weight certificate via DP over a tree decomposition.

    Tracks per-bag degree parity and a partition of used bag vertices into
    connected blocks; a block may be sealed (forgotten entirely) only once,
    giving the single component that must cover every waypoint.
    """
    if len(inst.waypoints) <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))
    # the decomposition, its layout and the DP's tables hold no reference
    # cycles, so the cyclic collector would only rescan them as they grow
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_tw_dp(inst, *_layout(inst, caps))
    finally:
        if collecting:
            gc.enable()


def _layout(inst: Instance, caps: OracleCaps):
    """(bags, children, homed, bit): a tree decomposition of `inst` within
    the width cap, each bag's children, the edges homed at each bag and the
    bit each vertex owns in the DP."""
    width, bags, parent = _decompose(inst)
    if width > caps.treewidth_width:
        raise ScaleError(f"oracle scale exceeded: decomposition width {width} > cap {caps.treewidth_width}")
    children = [[] for _ in bags]
    for b in range(1, len(bags)):
        children[parent[b]].append(b)

    # each vertex's top bag is its first bag by index, since parent[b] < b.
    # There it takes, for the whole run, the least bit that no vertex of
    # that bag holds.  A vertex's bags form a subtree, so two vertices that
    # share any bag both lie in the top bag of the lower one, and the bits
    # are distinct within every bag
    top, bit = [-1] * inst.n, [-1] * inst.n
    for b, bag in enumerate(bags):
        new = [v for v in bag if top[v] < 0]
        if new:
            held = 0
            for v in bag:
                if top[v] >= 0:
                    held |= 1 << bit[v]
            for v in sorted(new):
                top[v], bit[v] = b, (~held & held + 1).bit_length() - 1  # held's least clear bit
                held |= 1 << bit[v]

    # home each edge in the first bag, by index, holding both ends: the
    # top bag of the lower of the two ends' tops
    homed = [[] for _ in bags]
    for i, e in enumerate(inst.edges):
        b = max(top[e.u], top[e.v])
        if e.u not in bags[b] or e.v not in bags[b]:
            raise InvariantError("tree decomposition misses an edge")
        homed[b].append(i)
    return bags, children, homed, bit


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
            children = [(b, bag, len(bags)) for b in tree.neighbors(bag) if b != up_bag]
            walk.extend(reversed(children))  # so they are laid out in neighbour order
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
    absorbs the blocks it meets.  Blocks are vertex-bit masks; when those of
    `blocks1` are disjoint and ascending, and `blocks1` is nonempty or
    `blocks2`'s are too, so is the result.  Edge end masks `masks` merge
    into their connected pieces as `_merge_blocks(masks[:1], masks)`."""
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


def _run_tw_dp(inst: Instance, bags, children, homed, bit) -> OptResult:
    """Walk the bag tree depth first, root at bags[0], and return the
    optimum read off the root's table once it has forgotten every vertex.

    Vertex v owns bit `bit[v]` for the whole run, and no two vertices of a
    bag own the same bit.  A table is grouped by partition: it maps (blocks,
    done) to a group, where `blocks` lists the connected blocks of used bag
    vertices as disjoint bit masks in ascending order and `done` says a
    block was sealed (forgotten whole).  A group maps a parity mask, whose
    bit `bit[v]` is the degree parity of bag vertex v, to (cost, trail).

    A leaf bag starts from the table of the empty multigraph.  After each
    child, the table forgets the child's vertices that the bag lacks, and
    from the second child on it is joined to the table of the bag's earlier
    children; then the bag's homed edges are added.  Every bit a mask holds
    belongs to a vertex of the bag, so a vertex the bag gains finds its bit
    clear everywhere and the table needs no change.  Each step drops its
    input table, so it may keep or change the groups in place.

    The trail is the witness of a cost: None, (edge, multiplicity, trail)
    for an edge taken a positive number of times, or (left trail, right
    trail) at a join.  A forget passes it through, so only the final
    state's trail is read back.
    """
    W = inst.waypoints

    def forget(table, vertices):
        for v in vertices:
            table = _dp_forget(table, 1 << bit[v], v in W)
        return table

    earlier = []  # the tables of the bags whose later children are still walked
    todo = [(0, 0)]  # (bag, children already walked)
    while todo:
        b, done = todo.pop()
        if done:
            table = forget(table, sorted(bags[children[b][done - 1]] - bags[b]))
            if done > 1:
                table = _dp_join(earlier.pop(), table)
        elif not children[b]:
            table = {((), False): {0: (0, None)}}
        if done < len(children[b]):
            if done:
                earlier.append(table)
            todo += [(b, done + 1), (children[b][done], 0)]
        else:
            for i in homed[b]:
                table = _dp_edge(inst, table, i, bit)
    final = forget(table, sorted(bags[0])).get(((), True), {}).get(0)
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
    return _witnessed(inst, opt, make_solution(inst, mult), "treewidth")


def _dp_forget(t0, b, waypoint):
    """`t0` once the bag vertex of bit `b` is forgotten: drop the entries
    where its degree is odd and clear its bit from its block, once per
    group; no other mask moves.  A waypoint must have been used."""
    table, emptied = {}, False
    for state, group in t0.items():
        blocks, done = state
        if sum(blocks) & b:  # the blocks are disjoint: their sum is their union
            if b in blocks:  # the vertex's block ends here: seal it
                if done or len(blocks) > 1:
                    continue
                state = ((), True)
            else:
                state = (tuple(sorted([m & ~b for m in blocks])), done)
            # keep the entries where the vertex's degree is even
            group = {m: entry for m, entry in group.items() if not m & b}
        elif waypoint:
            continue  # a waypoint left unused
        # an unused vertex's parity bit is clear: the group passes as it is
        out = table.get(state)
        if out is None:
            table[state] = group
            emptied = emptied or not group
            continue
        for m, entry in group.items():
            old = out.get(m)
            if old is None or entry[0] < old[0]:
                out[m] = entry
    if emptied:
        table = {state: group for state, group in table.items() if group}
    return table


def _dp_edge(inst: Instance, t0, i, bit):
    """`t0` with edge i taken 0 to its effective capacity times: the groups
    whose partition it reaches are copied, and the partition merged, once
    per group."""
    e = inst.edges[i]
    cap = inst.effective_capacity(e)
    bu, bv = 1 << bit[e.u], 1 << bit[e.v]
    pair, flip = (bu | bv,), bu ^ bv
    table = dict(t0)  # multiplicity 0
    copied = {}  # the groups this edge adds to, copied on first use
    for (blocks, done), group in t0.items():
        if done:
            continue
        state = (_merge_blocks(blocks, pair), False)
        out = copied.get(state)
        if out is None:
            out = copied[state] = table[state] = dict(t0.get(state, ()))
        for mult in range(1, cap + 1):
            add, odd = mult * e.weight, flip if mult % 2 else 0
            for mask, (cost, trail) in group.items():
                key, ncost = mask ^ odd, cost + add
                old = out.get(key)
                if old is None or ncost < old[0]:
                    out[key] = (ncost, (i, mult, trail))
    return table


def _dp_join(t_l, t_r):
    """The join of two tables over the same bag: merge each compatible pair
    of groups' partitions once and take the min-plus XOR product of their
    parity entries, the left table's groups in the outer loop."""
    rights = [(blocks, done, list(group.items())) for (blocks, done), group in t_r.items()]
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
    return table


ENGINES = {
    "multiplicity": solve_exact_multiplicity,
    "heldkarp": solve_heldkarp,
    "treewidth": solve_treewidth,
}


def auto_engine(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> str:
    """The name, in ENGINES, of the engine `solve_auto` runs on `inst`: the
    first of multiplicity and Held-Karp whose cap the input fits, else the
    treewidth engine, whose cap is checked when it runs."""
    if len(inst.edges) <= caps.multiplicity_edges:
        return "multiplicity"
    if inst.kind != KIND_WRP and len(inst.waypoints) <= caps.heldkarp_waypoints:
        return "heldkarp"
    return "treewidth"


def solve_auto(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    """Solve with the widest applicable engine; ScaleError if none fits."""
    return ENGINES[auto_engine(inst, caps)](inst, caps)


def equivalent(a: Instance, b: Instance, caps: OracleCaps = DEFAULT_CAPS) -> bool:
    """True iff both instances get the same feasibility verdict."""
    return solve_auto(a, caps).feasible == solve_auto(b, caps).feasible
