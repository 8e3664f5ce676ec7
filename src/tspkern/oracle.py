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
                               edge at a time in the narrowest unsigned
                               dtype that holds the masks
                               (`even_covering`); only the parity-even,
                               covering vectors are decoded, weighed and,
                               in weight order, tested once per support by
                               merging its edges' end masks
                               (`instance.merge_blocks`).
  * solve_heldkarp           - subset DP on the waypoint metric closure
                               (uncapacitated kinds only).  The closure
                               comes from one `instance.shortest_paths`
                               search per waypoint, so it costs the
                               waypoints' searches, not a cubic pass over
                               every vertex.  Waypoint 0 starts the tour;
                               a cost array of shape (2^(l-1), l-1)
                               holds the cheapest path through each
                               subset of the other waypoints, by its last
                               one, and the tour is read back from it.
                               Each popcount layer is filled by one numpy
                               gather over its (subset, last) cells and
                               a min, in the narrowest unsigned dtype
                               that holds every sum, or in exact Python
                               ints (object arrays) when the sums could
                               pass 2^64.
  * solve_treewidth          - connectivity/parity DP over a tree
                               decomposition; exact, handles all kinds,
                               reaches instances the other engines cannot.
                               Pendant trees are trimmed first
                               (`_trim_pendants`): while two or more
                               waypoints remain, a waypoint with one edge
                               takes it twice and makes its neighbour a
                               waypoint, a non-waypoint with at most one
                               edge is dropped, and an isolated waypoint
                               admits no solution.  The DP runs on the core
                               left, and not at all once at most one
                               waypoint is left.
                               The decomposition peels vertices of degree
                               at most 1, and of degree 2 when none of
                               degree at most 1 is left, in linear time;
                               only the core left, where every degree is
                               at least 3, goes to networkx's min-fill-in
                               heuristic, and networkx is imported only
                               when there is such a core.  The layout and
                               the DP run with the cyclic garbage collector
                               paused.
                               Each vertex owns one bit for the whole run,
                               the least bit free in the top bag that
                               holds it, so no two vertices of a bag share
                               one and at most width + 1 are used.  Two or
                               more children that share a scope, the
                               vertices they have in common with their bag,
                               join first below a new bag of that scope.
                               The DP walks the bag tree depth first: a
                               bag's table is its children's, each forgetting
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
                               Before each join, and only there, each
                               input drops every entry whose parity mask
                               its partition with two blocks merged holds
                               at no higher cost (`_dp_prune`): a coarser
                               partition completes every way a finer one
                               does, so optima cannot change.
                               Each entry carries a trail, a shared tuple
                               tree of the edge multiplicities it chose,
                               so the witness is read off the final state
                               without keeping earlier tables.

`solve_auto` runs `auto_engine`'s pick: within the multiplicity cap, the
DP when the linear peel decomposes the input whole within the width cap,
else the multiplicity engine; past it, Held-Karp if its cap admits the
input, else the DP.  numpy is imported only inside the engines and folds
that use it.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, fields

from .instance import (
    KIND_WRP,
    Instance,
    InstanceError,
    InvariantError,
    ScaleError,
    component_walk,
    merge_blocks,
    renumbered,
    shortest_paths,
)


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
    if sol.total_weight != sum(m * e.weight for m, e in zip(sol.multiplicity, inst.edges)):
        return False  # the budget test below trusts the stated weight
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

def multiplicity_grid(bases, values, op=None) -> np.ndarray:
    """Fold one value per edge over every vector x with 0 <= x[i] < bases[i].

    values[i][k] is edge i's value at x[i] = k.  Entry j of the flat result
    combines values[i][x[i]] over all edges with the ufunc `op` (None means
    np.add), for the x of mixed-radix index j = x[0] + bases[0] * (x[1] +
    bases[1] * (...)), so x[0] varies fastest.  Each edge costs one
    broadcast, out = op(table[:, None], out[None, :]).ravel(); no vector is
    stored."""
    import numpy as np  # only the folds and the engines that use it load numpy
    op = np.add if op is None else op
    tables = [np.asarray(values[i][:base]) for i, base in enumerate(bases)]
    out = tables[0]
    for table in tables[1:]:
        out = op(table[:, None], out[None, :]).ravel()
    return out


def even_covering(bases, flips, covers, target) -> np.ndarray:
    """The ascending mixed-radix indices, as in `multiplicity_grid`, of the
    vectors x whose odd entries' `flips` masks XOR to 0 and whose nonzero
    entries' `covers` masks OR to `target`.  Two folds, one alive at a time,
    in the narrowest unsigned dtype that holds every mask: uint8 up to 8
    bits, uint16 up to 16 and uint32 up to 30, the most a mask may have."""
    import numpy as np
    top = max([target, *flips, *covers])
    if top >> 30:
        raise InvariantError("vertex masks exceed 30 bits")
    dtype = np.min_scalar_type(top)
    ok = multiplicity_grid(bases, np.array([[0, f, 0] for f in flips], dtype=dtype),
                           np.bitwise_xor) == 0
    fold = multiplicity_grid(bases, np.array([[0, c, c] for c in covers], dtype=dtype),
                             np.bitwise_or)
    # compared in place, so no third array of one entry per vector is alive
    np.equal(fold, target, out=fold, casting="unsafe")
    np.logical_and(ok, fold, out=ok)
    return np.flatnonzero(ok)


def decode(bases, index) -> np.ndarray:
    """The vectors of the mixed-radix indices `index`, one row each."""
    import numpy as np
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
    import numpy as np
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
        if len(merge_blocks(masks[:1], masks)) == 1:
            sol = make_solution(inst, counts[j].tolist())
            return _witnessed(inst, sol.total_weight, sol, "multiplicity")
        rejected.add(key)
    return OptResult(False, None, None)


# -- engine 2: Held-Karp on the waypoint metric closure ----------------------

def _apsp_with_paths(inst: Instance, wps):
    """Shortest paths between the waypoints `wps`, by `shortest_paths` from
    each.  Distances are symmetric, so the search from wps[a] stops once
    every later waypoint is settled.  Returns d and expand: d[a][b] is the
    distance between wps[a] and wps[b], None when unreachable, and
    expand(a, b) lists the edge ids of one shortest path between them.  Of
    parallel edges the cheapest, then the lowest id, is taken."""
    index = {w: a for a, w in enumerate(wps)}
    d = [[0 if a == b else None for b in range(len(wps))] for a in range(len(wps))]
    preds = []
    for a, s in enumerate(wps[:-1]):  # the last one has no later waypoint to find
        pred, left = {}, len(wps) - 1 - a
        for v, dv, i in shortest_paths(inst, s):
            pred[v] = i
            b = index.get(v, -1)
            if b > a:
                d[a][b] = d[b][a] = dv
                left -= 1
                if not left:
                    break
        preds.append(pred)

    def expand(a, b):
        a, b = min(a, b), max(a, b)
        pred, v, path = preds[a], wps[b], []
        while v != wps[a]:
            path.append(pred[v])
            v = inst.edges[pred[v]].other(v)
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
    import numpy as np
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
    import numpy as np
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
    # is nonnegative and at most (ell + 1) * top + 1: the narrowest unsigned
    # dtype that holds that, or, from 2^64 on, object arrays of exact Python
    # ints
    dtype = np.min_scalar_type((ell + 1) * top + 1)
    inf = ell * top + 1  # above every tour
    # dp[S, j]: the cheapest path from waypoint 0 through the waypoints of
    # subset S, ending at j in S; bit j stands for waypoint j + 1
    start = np.array(d[0][1:], dtype=dtype)
    dist = np.array([row[1:] for row in d[1:]], dtype=dtype)  # symmetric: dist[j] = d(., j)
    dp = np.full((1 << k, k), inf, dtype=dtype)
    dp[1 << np.arange(k), np.arange(k)] = start
    for S, j, prev in _heldkarp_layers(k):
        vals = dp[prev]  # vals[c, i] = dp[S ^ 1 << j, i] + d(i, j), past inf where i not in S
        vals += dist[j]
        dp[S, j] = vals.min(axis=1)

    full = (1 << k) - 1
    last = int(np.argmin(dp[full] + start))
    opt = int(dp[full, last]) + d[0][last + 1]

    # read the tour back from the costs: the predecessor of j in S is the
    # first argmin of the row its cell was the minimum of, then expand each
    # leg to edges; the walk takes k - 1 steps from the full subset to a
    # singleton
    tour, S, j = [last], full, last
    for _ in range(k - 1):
        S ^= 1 << j
        j = int(np.argmin(dp[S] + dist[j]))
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
    giving the single component that must cover every waypoint.  The DP
    runs on the core that `_trim_pendants` leaves, and its multiplicities
    are added to the edges the trim forces; the sum is checked as a witness
    of the input.
    """
    if len(inst.waypoints) <= 1:
        return OptResult(0 <= inst.budget, 0, empty_solution(inst))
    trimmed = _trim_pendants(inst)
    if trimmed is None:
        return OptResult(False, None, None)
    core, eids, forced = trimmed
    mult = [0] * len(inst.edges)
    for i in forced:
        mult[i] = 2
    opt = 2 * sum(inst.edges[i].weight for i in forced)
    if core is not None:
        # the decomposition, its layout and the DP's tables hold no
        # reference cycles, so the cyclic collector would only rescan them
        # as they grow
        collecting = gc.isenabled()
        gc.disable()
        try:
            found = _run_tw_dp(core, *_layout(core, caps))
        finally:
            if collecting:
                gc.enable()
        if found is None:
            return OptResult(False, None, None)
        opt += found[0]
        for j, m in enumerate(found[1]):
            mult[eids[j]] += m
    return _witnessed(inst, opt, make_solution(inst, mult), "treewidth")


def _trim_pendants(inst: Instance):
    """(core, eids, forced): `inst` with its pendant trees taken away, or
    None when that shows it has no solution.  `eids[j]` is the input's id of
    the core's edge j, and each edge of `forced` is taken exactly twice.
    The core is None when at most one waypoint is left, since the empty
    multigraph solves it then, and an input with no vertex of at most one
    edge is returned as it is, with the identity `eids`.

    While two or more waypoints remain, a vertex v with exactly one edge
    e = vu, parallel edges counted, is taken away.  A solution's support is
    connected and holds two waypoints, so it is more than e alone.
      * A waypoint v: the support meets v, so it uses e, and v's degree, the
        multiplicity of e, is even.  So e is taken twice, and no solution
        exists when its effective capacity is below 2.  Else, with u made a
        waypoint, a solution without v plus e twice is one of the input, and
        each solution of the input is e twice plus one without v; when e is
        all that meets u, at most one waypoint, u, is left, and the empty
        multigraph solves what remains.
      * Any other v: a solution that uses e takes it twice, and without v
        and e it is still one, of no higher weight.
      * An isolated vertex: a waypoint cannot reach another, so no solution
        exists; any other vertex is never used.
    A step leaves at least one waypoint.  Each forced edge leads to a vertex
    that was then a waypoint, so the forced edges form trees that each end
    at a waypoint of the core: with a solution of the core, even the empty
    one when the core holds one waypoint, they make a solution of the input.
    So the input's optimum is the forced edges' weight, twice, plus the
    core's.

    Each vertex keeps its count of edges and the XOR of their ids, so a
    vertex with one edge left names it, and the trim is linear."""
    n, edges = inst.n, inst.edges
    deg, link = [0] * n, [0] * n
    for i, e in enumerate(edges):
        deg[e.u] += 1
        deg[e.v] += 1
        link[e.u] ^= i
        link[e.v] ^= i
    todo = [v for v in range(n) if deg[v] <= 1]
    if not todo:
        return inst, range(len(edges)), ()
    waypoints, gone, forced = set(inst.waypoints), set(), []
    while todo and len(waypoints) > 1:
        v = todo.pop()
        if v in gone:
            continue
        gone.add(v)
        if not deg[v]:
            if v in waypoints:
                return None
            continue
        i = link[v]
        u = edges[i].other(v)
        if v in waypoints:
            if inst.effective_capacity(edges[i]) < 2:
                return None
            forced.append(i)
            waypoints.remove(v)
            waypoints.add(u)
        deg[u] -= 1
        link[u] ^= i
        if deg[u] <= 1:
            todo.append(u)
    if len(waypoints) <= 1:
        return None, (), forced
    eids = [i for i, e in enumerate(edges) if e.u not in gone and e.v not in gone]
    core = renumbered(inst.kind, [v for v in range(n) if v not in gone],
                      (edges[i] for i in eids), waypoints,
                      inst.budget - 2 * sum(edges[i].weight for i in forced), None)
    return core, eids, forced


def _layout(inst: Instance, caps: OracleCaps):
    """(bags, children, homed, bit): a tree decomposition of `inst` within
    the width cap, each bag's children, the edges homed at each bag and the
    bit each vertex owns in the DP.

    A child's scope is the set of vertices it shares with its bag.  When a
    bag's children have two or more distinct scopes, each group of two or
    more children sharing a scope strictly smaller than the bag moves below
    a new bag, appended last, that equals the scope and homes no edge.  The
    group then joins on tables over its scope, and only one join reaches
    the bag's table, which holds every scope joined into it so far."""
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

    # a scope bag is a subset of its parent, so the bits stay distinct
    # within it, and no edge's first bag holding both ends moves
    for b in range(len(bags)):
        if len(children[b]) < 3:
            continue
        groups = {}
        for c in children[b]:
            groups.setdefault(bags[c] & bags[b], []).append(c)
        if len(groups) < 2:
            continue
        children[b] = []
        for scope, group in groups.items():
            if len(group) > 1 and scope < bags[b]:
                children[b].append(len(bags))
                bags.append(scope)
                children.append(group)
                homed.append([])
            else:
                children[b] += group
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
    peeled, nbrs = _peel(inst)
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


def _peel(inst: Instance):
    """(peeled, nbrs), the linear peel of `_decompose`: `peeled` maps each
    eliminated vertex, in elimination order, to its bag, and nbrs[v] holds
    v's neighbours among the vertices left, fill edges included.  Every
    vertex is peeled exactly when the graph has treewidth at most 2."""
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
    return peeled, nbrs


def _run_tw_dp(inst: Instance, bags, children, homed, bit):
    """Walk the bag tree depth first, root at bags[0], and return (optimum,
    multiplicities) read off the root's table once it has forgotten every
    vertex, or None when no solution exists.

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
        return None
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
    return opt, mult


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
        state = (merge_blocks(blocks, pair), False)
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


def _dp_prune(table):
    """Drop, in place, each entry that a one-merge-coarser partition
    dominates, and the groups that leave empty; return `table`.

    An entry of group (blocks, done) is dominated when, for some two of its
    blocks, the group (blocks with those two merged, done) holds the same
    parity mask at a cost no higher.  Both states use the same vertices
    with the same parities, and the coarser one completes every way the
    finer one does.  Take the later steps in order: a join or an edge
    merges the same blocks into both, and a forget clears the same bit from
    both.  A finer partition whose last block seals is a single block, so
    it has no strictly coarser partition.  So the coarser state stays
    coarser, or equal, after every step, and reaches the final ((), True)
    state whenever the finer one does, at no higher cost.  Optima and
    verdicts cannot change; a witness may differ only between solutions of
    equal cost.

    The whole table is scanned before anything is deleted, so a deletion
    never hides a dominated entry; an entry is dropped only for a coarser
    one, so chains of domination end at a kept entry.  Blocks are disjoint
    and ascending, so blocks[i] | blocks[j] (i < j) sorts where blocks[j]
    stood, and the merged tuple needs no sort.
    """
    dropped = {}  # state -> the masks its group loses
    for state, group in table.items():
        blocks, done = state
        for j in range(1, len(blocks)):
            for i in range(j):
                merged = blocks[:i] + blocks[i + 1:j] + (blocks[i] | blocks[j],) + blocks[j + 1:]
                coarser = table.get((merged, done))
                if coarser:
                    dropped.setdefault(state, set()).update(
                        m for m, (cost, _) in group.items() if m in coarser and coarser[m][0] <= cost)
    for state, masks in dropped.items():
        group = table[state]
        for m in masks:
            del group[m]
        if not group:
            del table[state]
    return table


def _dp_join(t_l, t_r):
    """The join of two tables over the same bag: prune both (`_dp_prune`),
    then merge each compatible pair of groups' partitions once and take the
    min-plus XOR product of their parity entries, the left table's groups
    in the outer loop.  Pruning runs only here, where the product's cost
    grows with both tables' sizes: pruning after every edge or forget step
    as well made the DP slower."""
    t_l, t_r = _dp_prune(t_l), _dp_prune(t_r)
    rights = [(blocks, done, list(group.items())) for (blocks, done), group in t_r.items()]
    table = {}
    for (blocks1, done1), group in t_l.items():
        lefts = list(group.items())
        for blocks2, done2, items2 in rights:
            # a sealed side must have used nothing the other side uses
            if done1 and (done2 or blocks2) or done2 and blocks1:
                continue
            state = (merge_blocks(blocks1, blocks2), done1 or done2)
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
    """The name, in ENGINES, of the engine `solve_auto` runs on `inst` (see
    the module docstring).  The peel is linear in n, while the multiplicity
    engine never looks at an isolated vertex, so only inputs with at most
    m + 1 vertices, as a connected graph has, are peeled."""
    if len(inst.edges) <= caps.multiplicity_edges:
        if inst.n <= len(inst.edges) + 1:
            bags = _peel(inst)[0].values()
            if len(bags) == inst.n and max(map(len, bags)) <= caps.treewidth_width + 1:
                return "treewidth"
        return "multiplicity"
    if inst.kind != KIND_WRP and len(inst.waypoints) <= caps.heldkarp_waypoints:
        return "heldkarp"
    return "treewidth"


def solve_auto(inst: Instance, caps: OracleCaps = DEFAULT_CAPS) -> OptResult:
    """Solve with the widest applicable engine; ScaleError if none fits."""
    return ENGINES[auto_engine(inst, caps)](inst, caps)
