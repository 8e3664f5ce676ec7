"""Seeded inputs of the three workloads and the answers they must get.

Each builder takes the workload seed and returns `(files, ops)`: instance
texts by file name, and the operations the timed pass runs on them.  An
expected answer stored here comes from a construction whose answer is known
without the engine that `solve --engine auto` would use: a planted optimum,
`MccInstance.has_clique` or `HpInstance.has_hamiltonian_path`.  Answers that
need an engine are marked `{"engine": "treewidth"}` and are computed after
the timed pass by a different engine than the one under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from tspkern import gadgets
from tspkern.instance import Edge, Instance, as_wrp, render_instance

# (pipeline regime, planted kind, planted regime, r).  The vc-wrp inputs are
# capacity-2 copies of planted stsp inputs: planted wrp inputs with n >= 40
# are nearly always decided "no" by the first rule, so they exercise nothing.
KERNEL_CASES = (
    ("fes", "tsp", "fes", 1),
    ("fes", "stsp", "fes", 1),
    ("vc-tsp", "tsp", "vc", 1),
    ("vc-wrp", "stsp", "vc", 1),
    ("components", "tsp", "components", 2),
    ("paths", "stsp", "paths", 2),
)

SCALE_SIZES = (200, 400, 800)
SCALE_K = 3
# planted FES inputs get more extra edges, so that every kernel keeps more
# than the 12 edges up to which compress_weights enumerates
SCALE_FES_K = 5
# hint-stripped copies at this size make the pipelines run structure search
STRIPPED_AT = 400
STRIPPED = ("vc-tsp", "components", "paths")

VERIFY_PER_CASE = 40
# The multiplicity engine and compress_weights enumerate 3^m vectors, so
# the edge counts set a pass's time, memory and set-up time (gen_planted
# solves each input).  Drawn freely, they made a pass 15% slower on some
# seeds than on others.  So each input is drawn until it has the edge count
# below for its regime and k, the most common count: FES inputs with n=8
# have 7+k edges; vc and modulator inputs vary by a few.
VERIFY_N = {"vc-tsp": 7, "vc-wrp": 7}
VERIFY_DEFAULT_N = 8
VERIFY_EDGES = {"fes": (8, 9, 10), "vc-tsp": (6, 8, 8), "vc-wrp": (6, 8, 8),
                "components": (9, 9, 9), "paths": (9, 9, 9)}

# edge counts of the multicolored-clique gadgets (k=3, N=2 has 12 slots);
# fewer edges mean more non-edge cycles and a larger decomposition.  The
# edges come from a fixed stream, not the workload seed: with 4 edges the
# DP took 0.5 s on some draws and 2 s on others, a fifth of a pass.
MCC_EDGE_COUNTS = (0, 4, 6, 8, 10)
MCC_SLOTS = [((i, a), (j, b)) for i, j in itertools.combinations((1, 2, 3), 2)
             for a in range(2) for b in range(2)]
# (rows, columns): with 5x5 the DP takes about 3.5 s, half of a pass, and
# a run fits too few passes for a steady median
GRIDS = ((4, 4), (4, 6))
HELDKARP_WAYPOINTS = (12, 14)
COMPOSE_PAIRS = 48
# more than 14 edges keeps compose_fn inputs off the multiplicity engine
COMPOSE_MIN_INNER_EDGES = 7
MULTIPLICITY_EDGES = (12, 13, 14, 14)


def _planted(regime, kind, planted_regime, k, r, n, seed) -> Instance:
    inst = gadgets.gen_planted(kind, planted_regime, k, r, n, seed=seed)
    return as_wrp(inst) if regime == "vc-wrp" else inst


def build_kernelize_scale(seed: int):
    rng = random.Random(f"kernelize-scale|{seed}")
    files, ops = {}, []
    for regime, kind, planted_regime, r in KERNEL_CASES:
        for n in SCALE_SIZES:
            k = SCALE_FES_K if regime == "fes" else SCALE_K
            inst = _planted(regime, kind, planted_regime, k, r, n, rng.randrange(2**31))
            name = f"{regime}-{kind}-{n}"
            files[name + ".txt"] = render_instance(inst)
            ops.append({"op": "kernelize", "name": name, "input": name + ".txt",
                        "regime": regime, "r": r, "n": n})
            if n == STRIPPED_AT and regime in STRIPPED:
                bare = dataclasses.replace(inst, modulator_hint=None)
                files[name + "-bare.txt"] = render_instance(bare)
                ops.append({"op": "kernelize", "name": name + "-bare",
                            "input": name + "-bare.txt", "regime": regime,
                            "r": r, "k_max": SCALE_K})
    return files, ops


def build_kernel_verify(seed: int):
    rng = random.Random(f"kernel-verify|{seed}")
    files, ops = {}, []
    for regime, kind, planted_regime, r in KERNEL_CASES:
        for i in range(VERIFY_PER_CASE):
            n, k = VERIFY_N.get(regime, VERIFY_DEFAULT_N), 1 + i % 3
            inst = _planted(regime, kind, planted_regime, k, r, n, rng.randrange(2**31))
            while len(inst.edges) != VERIFY_EDGES[regime][k - 1]:
                inst = _planted(regime, kind, planted_regime, k, r, n, rng.randrange(2**31))
            name = f"{regime}-{kind}-{i}"
            files[name + ".txt"] = render_instance(inst)
            ops.append({"op": "kernel-verify", "name": name, "input": name + ".txt",
                        "regime": regime, "r": r, "expect": {"engine": "treewidth"}})
    return files, ops


def build_solve_exact(seed: int):
    rng = random.Random(f"solve-exact|{seed}")
    files, ops = {}, []

    def add(name, inst, expect, cross_check=False):
        files[name + ".txt"] = render_instance(inst)
        ops.append({"op": "solve", "name": name, "input": name + ".txt",
                    "expect": expect, "cross_check": cross_check})

    mcc_rng = random.Random("mcc")
    for count in MCC_EDGE_COUNTS:
        mcc = gadgets.MccInstance.build(3, 2, mcc_rng.sample(MCC_SLOTS, count))
        add(f"mcc-{count}", gadgets.mcc_to_subtsp(mcc), {"feasible": mcc.has_clique()})
    for rows, cols in GRIDS:
        inst, opt = _planted_grid(rng, rows, cols)
        add(f"grid-{rows}x{cols}", inst, {"feasible": opt <= inst.budget, "opt": opt})
    for ell in HELDKARP_WAYPOINTS:
        inst, opt = _planted_subset_tour(rng, ell)
        add(f"stsp-{ell}", inst, {"feasible": opt <= inst.budget, "opt": opt})

    slots = list(itertools.combinations(range(4), 2))
    graphs = [gadgets.HpInstance.from_pairs(4, [p for b, p in enumerate(slots) if bits >> b & 1])
              for bits in range(1 << len(slots))]
    has_path = [g.has_hamiltonian_path() for g in graphs]
    dense = [(i, j) for i, j in itertools.product(range(len(graphs)), repeat=2)
             if len(graphs[i].edges) + len(graphs[j].edges) >= COMPOSE_MIN_INNER_EDGES]
    for p in range(COMPOSE_PAIRS + 1):
        i, j = rng.choice(dense)
        expect = {"feasible": has_path[i] and has_path[j]}
        pair = [graphs[i], graphs[j]]
        if p == COMPOSE_PAIRS:  # one cross-checked solve runs two engines
            add("fn-cross", gadgets.compose_fn(pair), expect, cross_check=True)
        else:
            add(f"fn-{p}", gadgets.compose_fn(pair), expect)
            add(f"degtw-{p}", gadgets.compose_degtw(pair), expect)

    for p, m in enumerate(MULTIPLICITY_EDGES):
        add(f"wrp-{m}-{p}", _random_wrp(rng, m), {"engine": "treewidth"})
    return files, ops


BUILDERS = {
    "kernelize-scale": build_kernelize_scale,
    "solve-exact": build_solve_exact,
    "kernel-verify": build_kernel_verify,
}


# -- inputs with a known optimum ---------------------------------------------
#
# Every weight is at least 1 and a closed walk of `lower` weight-1 traversals
# exists, where `lower` is a lower bound on the traversals of any closed walk
# through all waypoints.  So the optimum is exactly `lower`.

def _hamiltonian_cycle(nodes, nbrs) -> list:
    """Backtracking search, trying the neighbor with fewest free neighbors first."""
    start = nodes[0]
    path, used = [start], {start}

    def extend() -> bool:
        if len(path) == len(nodes):
            return start in nbrs[path[-1]]
        free = sorted((w for w in nbrs[path[-1]] if w not in used),
                      key=lambda w: (sum(x not in used for x in nbrs[w]), w))
        for w in free:
            path.append(w)
            used.add(w)
            if extend():
                return True
            path.pop()
            used.discard(w)
        return False

    if not extend():
        raise ValueError("no Hamiltonian cycle")
    return path


def _planted_grid(rng: random.Random, rows: int, cols: int):
    """wrp grid, all vertices waypoints, every capacity 2 (the DP's state
    count then depends on the grid alone, not on the seed).  A closed walk in
    a bipartite graph has even length, so it needs at least rows*cols
    traversals, rounded up to even.  The planted walk is a Hamiltonian cycle,
    or for an odd number of cells a Hamiltonian cycle avoiding one corner
    plus that corner's edge used twice."""
    cells = rows * cols
    pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    pairs += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    nbrs = {v: [] for v in range(cells)}
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    walk = []
    nodes = list(range(cells))
    if cells % 2:
        corner = rng.choice((0, cols - 1, cells - cols, cells - 1))
        nodes.remove(corner)
        sub = {v: [w for w in nbrs[v] if w != corner] for v in nodes}
        spur = rng.choice(nbrs[corner])
        walk += [(corner, spur), (corner, spur)]
    else:
        sub = nbrs
    cycle = _hamiltonian_cycle(nodes, sub)
    walk += list(zip(cycle, cycle[1:] + cycle[:1]))
    on_walk = {frozenset(p) for p in walk}
    edges = [Edge(u, v, 1 if frozenset((u, v)) in on_walk else rng.randint(1, 9), 2)
             for u, v in pairs]
    lower = len(walk)
    budget = lower + rng.choice((-1, 0, 1))
    return Instance("wrp", cells, tuple(edges), frozenset(range(cells)), budget), lower


def _planted_subset_tour(rng: random.Random, ell: int):
    """stsp instance with `ell` waypoints on a weight-1 cycle, plus eight
    non-waypoints and extra edges.  Visiting `ell` waypoints takes at least
    `ell` traversals."""
    n = ell + 8
    order = list(range(n))
    rng.shuffle(order)
    tour = order[:ell]
    edges = [Edge(u, v, 1) for u, v in zip(tour, tour[1:] + tour[:1])]
    for v in order[ell:]:
        for u in rng.sample([x for x in range(n) if x != v], 2):
            edges.append(Edge(u, v, rng.randint(1, 9)))
    for _ in range(ell):
        u, v = rng.sample(range(n), 2)
        edges.append(Edge(u, v, rng.randint(1, 9)))
    budget = ell + rng.choice((-1, 0, 1))
    return Instance("stsp", n, tuple(edges), frozenset(tour), budget), ell


def _random_wrp(rng: random.Random, m: int) -> Instance:
    """Connected wrp instance with exactly `m` edges, two of capacity 1."""
    n = 8 if m >= 13 else 7
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    spare = [p for p in itertools.combinations(range(n), 2) if p not in set(pairs)]
    pairs += rng.sample(spare, m - len(pairs))
    tight = set(rng.sample(range(m), 2))
    edges = tuple(Edge(u, v, rng.randint(1, 9), 1 if i in tight else 2)
                  for i, (u, v) in enumerate(pairs))
    waypoints = [v for v in range(n) if rng.random() < 0.6]
    if len(waypoints) < 2:
        waypoints = rng.sample(range(n), 2)
    total = sum(e.weight for e in edges)
    return Instance("wrp", n, edges, frozenset(waypoints), rng.randint(total // 3, total))
