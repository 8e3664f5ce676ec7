"""Acceptance gate: safeness suites, size bounds, gadget optima, determinism.

Each test pins a released guarantee of the toolkit at its stated tolerance;
none of these thresholds may be loosened.
"""

import itertools
import math
import random
import time

import pytest

from lemmas import blend_behavior, pieces
from tspkern.fes import kernelize_fes
from tspkern.gadgets import (
    HpInstance,
    MccInstance,
    compose_degtw,
    compose_fn,
    cycle_gadget,
    gen_planted,
    mcc_to_subtsp,
    selection_gadget,
)
from tspkern.instance import Edge, Instance, compute_fes, render_instance
from tspkern.modulator import (
    component_graph,
    component_impact,
    component_unit,
    enumerate_component_behaviors,
    rule_components_tsp,
    rule_paths_subtsp,
    saturate_path_nonterminals,
)
from tspkern.oracle import (
    DEFAULT_CAPS,
    solve_auto,
    solve_exact_multiplicity,
    solve_heldkarp,
)
from tspkern.pipelines import (
    kernelize_components_tsp,
    kernelize_paths_subtsp,
    kernelize_vc_tsp,
    kernelize_vc_wrp,
)
from tspkern.preprocess import compress_weights, total_bitsize
from tspkern.report import KernelReport
from tspkern.vc import rule_vc_tsp, rule_vc_wrp

SUITE_SIZE = 500


# -- instance constructors (bounded edge counts, connected by design) ---------

def _cap(rng, kind):
    return rng.choice((1, 2, 2)) if kind == "wrp" else None


def _fes_instance(rng):
    n = rng.randint(4, 9)
    edges = [Edge(rng.randrange(v), v, rng.randint(1, 6), _cap(rng, "wrp"))
             for v in range(1, n)]
    for _ in range(rng.randint(1, min(4, 12 - len(edges)))):
        u, v = rng.sample(range(n), 2)
        edges.append(Edge(u, v, rng.randint(1, 6), _cap(rng, "wrp")))
    wps = frozenset(v for v in range(n) if rng.random() < 0.7) or frozenset({0})
    return Instance("wrp", n, tuple(edges), wps, 0)


def _cover_instance(rng, kind, max_extra):
    k = rng.randint(1, 3)
    extra = rng.randint(1, max_extra)
    n = k + extra
    edges = [Edge(i, i + 1, rng.randint(1, 6), _cap(rng, kind)) for i in range(k - 1)]
    for v in range(k, n):
        for m in rng.sample(range(k), rng.randint(1, min(2, k))):
            edges.append(Edge(m, v, rng.randint(1, 6), _cap(rng, kind)))
    if kind == "tsp":
        wps = frozenset(range(n))
    else:
        wps = frozenset(v for v in range(n) if rng.random() < 0.6) or frozenset({0})
    return Instance(kind, n, tuple(edges), wps, 0, frozenset(range(k)))


def _modulator_instance(rng, kind, r):
    k = rng.randint(1, 3)
    edges = [Edge(i, i + 1, rng.randint(1, 6)) for i in range(k - 1)]
    n = k
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, r)
        if len(edges) + size + 3 > 12:
            break
        verts = list(range(n, n + size))
        for a, b in zip(verts, verts[1:]):
            edges.append(Edge(a, b, rng.randint(1, 6)))
        if kind == "tsp" and size >= 3 and rng.random() < 0.4:
            edges.append(Edge(verts[0], verts[-1], rng.randint(1, 6)))
        anchors = [verts[0]] if size == 1 else [verts[0], verts[-1]]
        for a in anchors:
            edges.append(Edge(a, rng.randrange(k), rng.randint(1, 6)))
        n += size
    if kind == "tsp":
        wps = frozenset(range(n))
    else:
        wps = frozenset(v for v in range(n) if rng.random() < 0.6) or frozenset({0})
    return Instance(kind, n, tuple(edges), wps, 0, frozenset(range(k)))


def _engine(inst):
    return solve_exact_multiplicity if inst.kind == "wrp" else solve_heldkarp


def _with_budget(rng, inst):
    """Budget randomized around the exact optimum so both verdicts occur."""
    probe = Instance(inst.kind, inst.n, inst.edges, inst.waypoints,
                     2 * inst.total_weight() + 1, inst.modulator_hint)
    res = _engine(inst)(probe)
    budget = (res.opt_weight + rng.randint(-2, 2) if res.feasible
              else inst.total_weight())
    return Instance(inst.kind, inst.n, inst.edges, inst.waypoints,
                    budget, inst.modulator_hint)


PIPELINE_CONFIGS = {
    "fes": (lambda rng: _fes_instance(rng), lambda i: kernelize_fes(i)),
    "vc-tsp": (lambda rng: _cover_instance(rng, "tsp", 5),
               lambda i: kernelize_vc_tsp(i)),
    "vc-wrp": (lambda rng: _cover_instance(rng, "wrp", 4),
               lambda i: kernelize_vc_wrp(i)),
    "components-r2": (lambda rng: _modulator_instance(rng, "tsp", 2),
                      lambda i: kernelize_components_tsp(i, 2)),
    "components-r3": (lambda rng: _modulator_instance(rng, "tsp", 3),
                      lambda i: kernelize_components_tsp(i, 3)),
    "paths-r2": (lambda rng: _modulator_instance(rng, "stsp", 2),
                 lambda i: kernelize_paths_subtsp(i, 2)),
    "paths-r3": (lambda rng: _modulator_instance(rng, "stsp", 3),
                 lambda i: kernelize_paths_subtsp(i, 3)),
}


@pytest.fixture(scope="module")
def suite():
    """Seeded instances plus pipeline outcomes, shared by several criteria."""
    t0 = time.time()
    records = {}
    for name, (make, kern) in PIPELINE_CONFIGS.items():
        rows = []
        for i in range(SUITE_SIZE):
            rng = random.Random(f"acceptance|{name}|{i}")
            inst = _with_budget(rng, make(rng))
            assert len(inst.edges) <= 12
            kernel, report = kern(inst)
            rows.append((inst, kernel, report))
        records[name] = rows
    return records, time.time() - t0


def test_01_safeness_suite(suite):
    records, elapsed = suite
    for name, rows in records.items():
        for inst, kernel, report in rows:
            feasible = _engine(inst)(inst).feasible
            if report.decided is not None:
                assert feasible == (report.decided == "yes"), (name, inst)
            else:
                assert feasible == _engine(kernel)(kernel).feasible, (name, inst)
    assert elapsed <= 300, f"safeness suite took {elapsed:.0f}s"


def test_02_fes_size_bound():
    checked = 0
    for i in range(100):
        k = i % 5 + 1
        n = 20 + (i * 9) % 181  # spread over 20..200
        inst = gen_planted("tsp", "fes", k, 1, n, seed=i)
        k_in = len(compute_fes(inst))
        kernel, report = kernelize_fes(inst)
        if report.decided is not None:
            continue
        k_out = len(compute_fes(kernel))
        bound_k = max(k_in, k_out)
        assert kernel.n <= 8 * bound_k
        assert len(kernel.edges) <= 9 * bound_k
        checked += 1
    assert checked >= 20  # enough undecided kernels to make the bound meaningful


def _rule_ready(inst):
    return inst.budget >= 0 and len(inst.waypoints) >= 2


def test_03_vc_tsp_bound(suite):
    records, _ = suite
    for inst, _, _ in records["vc-tsp"]:
        if not _rule_ready(inst):
            continue
        report = KernelReport(pipeline="vc-tsp")
        rule_vc_tsp(inst, set(inst.modulator_hint), report)
        if report.decided is not None:
            continue
        k = report.stats["k"]
        assert report.stats["r_size"] <= 3 * k**3
        assert report.stats["impact_count"] <= k**2


def test_04_vc_wrp_bookkeeping(suite):
    records, _ = suite
    for inst, _, _ in records["vc-wrp"]:
        if not _rule_ready(inst):
            continue
        report = KernelReport(pipeline="vc-wrp")
        rule_vc_wrp(inst, set(inst.modulator_hint), report)
        if report.decided is not None:
            continue
        assert report.stats["removed"] % 2 == 0
        ni = report.stats["impact_count"]
        n2 = report.stats["impact2_count"]
        k = report.stats["k"]
        marked = sum(report.marks.get(c, 0) for c in ("red", "yellow", "green"))
        assert marked <= (2 * n2 + k) * n2 * ni + 4 * n2


def test_05_component_and_path_bounds(suite):
    records, _ = suite
    for name in ("components-r2", "components-r3"):
        r = int(name[-1])
        for inst, _, _ in records[name]:
            if not _rule_ready(inst):
                continue
            report = KernelReport(pipeline="components-tsp")
            rule_components_tsp(inst, set(inst.modulator_hint), r, report)
            if report.decided is not None:
                continue
            ni, k = report.stats["impact_count"], report.stats["k"]
            bound = 2 * (ni**2 + 2 * k) * ni**2 + math.comb(k, 2) + 2 * ni
            assert report.stats["components_left"] <= bound
    for name in ("paths-r2", "paths-r3"):
        r = int(name[-1])
        for inst, _, _ in records[name]:
            if not _rule_ready(inst):
                continue
            sat = saturate_path_nonterminals(inst)
            if not _rule_ready(sat):
                continue
            report = KernelReport(pipeline="paths-subtsp")
            rule_paths_subtsp(sat, sat.modulator_hint, r, report)
            if report.decided is not None:
                continue
            ni, k = report.stats["impact_count"], report.stats["k"]
            bound = (2 * (ni**2 + 2 * k) * ni**2 + math.comb(k, 2) + 2 * ni
                     + report.stats["yellow_cap"] * ni)
            assert report.stats["components_left"] <= bound


def _anchored(inst, M, behavior, M_prime):
    adj = {}
    for i in behavior.edges:
        e = inst.edges[i]
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    seen = set()
    for s in sorted(adj):
        if s in seen or s in M:
            continue
        comp, stack = {s}, [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        if not comp & set(M_prime):
            return False
    return True


def test_06_blending():
    rng = random.Random("blending")
    done = 0
    while done < 200:
        k, r = rng.randint(2, 4), rng.randint(1, 4)
        base = _modulator_instance(rng, "stsp", r)
        inst = Instance(base.kind, base.n, base.edges,
                        frozenset(range(base.n)), 99)  # saturated shape
        M = set(base.modulator_hint)
        if len(M) < 2:
            continue
        outside = sorted(set(range(inst.n)) - M)
        # first component of G - M
        adj = {v: set() for v in outside}
        for e in inst.edges:
            if e.u in adj and e.v in adj:
                adj[e.u].add(e.v)
                adj[e.v].add(e.u)
        C, stack = {outside[0]}, [outside[0]]
        while stack:
            v = stack.pop()
            for w in adj[v] - C:
                C.add(w)
                stack.append(w)
        behaviors = enumerate_component_behaviors(inst, M, C, r)
        if not behaviors:
            continue
        nat = component_unit(inst, M, C, r, {}, component_graph(inst, M, C)).natural
        nat_touch = component_impact(inst, M, nat).touched
        for A in rng.sample(behaviors, len(behaviors)):
            a_touch = component_impact(inst, M, A).touched
            if any(len(p.legs) != 2 for p in pieces(inst, M, A)):
                continue
            candidates = sorted(nat_touch - a_touch)
            if not candidates:
                continue
            v = rng.choice(candidates)
            M_prime = set(a_touch)
            F = blend_behavior(inst, M, C, A, M_prime, v, r)
            touched = component_impact(inst, M, F).touched
            assert v in touched
            assert touched <= a_touch | nat_touch
            assert _anchored(inst, M, F, M_prime | {v})
            assert F.weight <= A.weight
            done += 1
            break


def test_07a_selection_optimum():
    for length in (3, 4):
        res = solve_heldkarp(selection_gadget(length))
        assert res.feasible and res.opt_weight == 2 * length


ALL_PAIRS = list(itertools.combinations(range(4), 2))
GRAPHS4 = [HpInstance.from_pairs(4, [p for i, p in enumerate(ALL_PAIRS) if bits >> i & 1])
           for bits in range(64)]


def test_07b_compose_matches_hamiltonian_path():
    hp = [g.has_hamiltonian_path() for g in GRAPHS4]
    for gi, g in enumerate(GRAPHS4):
        for hi, h in enumerate(GRAPHS4):
            want = hp[gi] and hp[hi]
            assert solve_heldkarp(compose_fn([g, h])).feasible == want, (gi, hi)
            assert solve_heldkarp(compose_degtw([g, h])).feasible == want, (gi, hi)


def _mcc_symmetry_group(positions):
    """Permutations of the 12 cross-pair slots induced by color permutations
    and per-class vertex swaps (feasibility-preserving relabelings)."""
    pos_index = {p: i for i, p in enumerate(positions)}
    group = set()
    for sigma in itertools.permutations((1, 2, 3)):
        smap = {i + 1: sigma[i] for i in range(3)}
        for flips in itertools.product((0, 1), repeat=3):
            f = {i + 1: flips[i] for i in range(3)}
            mapping = []
            for (i, a), (j, b) in positions:
                x = (smap[i], a ^ f[i])
                y = (smap[j], b ^ f[j])
                mapping.append(pos_index[(min(x, y), max(x, y))])
            group.add(tuple(mapping))
    assert len(group) == 48
    return group


def test_07c_mcc_equivalence_all_k3_n2():
    positions = [((i, a), (j, b))
                 for i, j in itertools.combinations((1, 2, 3), 2)
                 for a in range(2) for b in range(2)]
    group = _mcc_symmetry_group(positions)

    def rep_of(mask):
        return min(sum(((mask >> i) & 1) << g[i] for i in range(12)) for g in group)

    solved = {}
    for mask in range(4096):
        rep = rep_of(mask)
        mcc = MccInstance.build(
            3, 2, [positions[i] for i in range(12) if mask >> i & 1])
        clique = mcc.has_clique()
        if rep not in solved:
            rep_mcc = MccInstance.build(
                3, 2, [positions[i] for i in range(12) if rep >> i & 1])
            solved[rep] = solve_auto(mcc_to_subtsp(rep_mcc), DEFAULT_CAPS).feasible
        # every instance in an orbit shares the clique answer, so the solved
        # representative speaks for the whole orbit
        assert clique == solved[rep], mask


def test_08_engine_cross_validation():
    rng = random.Random("engines")
    for case in range(1000):
        n = rng.randint(2, 7)
        m = rng.randint(1, 12)
        kind = rng.choice(("tsp", "stsp"))
        edges = tuple(Edge(*rng.sample(range(n), 2), rng.randint(0, 9))
                      for _ in range(m))
        if kind == "tsp":
            wps = frozenset(range(n))
        else:
            wps = frozenset(v for v in range(n) if rng.random() < 0.5) or frozenset({0})
        inst = Instance(kind, n, edges, wps, rng.randint(0, 40))
        a = solve_exact_multiplicity(inst)
        b = solve_heldkarp(inst)
        assert a.feasible == b.feasible, case
        assert a.opt_weight == b.opt_weight, case


def test_09_weight_compression():
    rng = random.Random("compress")
    for case in range(200):
        n = rng.randint(2, 6)
        m = rng.randint(1, 10)
        edges = tuple(Edge(*rng.sample(range(n), 2), rng.randint(0, 10**9))
                      for _ in range(m))
        inst = Instance("stsp", n, edges, frozenset(range(n)),
                        rng.randint(0, 2 * 10**9))
        outcome = compress_weights(inst)
        if outcome.verdict == "unchanged":
            continue
        out = outcome.instance
        wa = [e.weight for e in inst.edges]
        wb = [e.weight for e in out.edges]
        for x in itertools.product((0, 1, 2), repeat=m):
            sa = sum(w * c for w, c in zip(wa, x)) - inst.budget
            sb = sum(w * c for w, c in zip(wb, x)) - out.budget
            assert (sa > 0) - (sa < 0) == (sb > 0) - (sb < 0), case
        assert total_bitsize(wb, out.budget) <= total_bitsize(wa, inst.budget)


def test_10_determinism():
    for name, (make, kern) in PIPELINE_CONFIGS.items():
        for i in range(5):
            rng = random.Random(f"determinism|{name}|{i}")
            inst = _with_budget(rng, make(rng))
            k1, r1 = kern(inst)
            k2, r2 = kern(inst)
            assert render_instance(k1) == render_instance(k2)
            assert r1.to_json() == r2.to_json()
    for maker in (lambda: selection_gadget(4), lambda: cycle_gadget(3),
                  lambda: gen_planted("wrp", "vc", 2, 1, 8, seed=5),
                  lambda: mcc_to_subtsp(MccInstance.build(
                      3, 2, [((1, 0), (2, 0)), ((1, 0), (3, 1)), ((2, 0), (3, 1))]))):
        assert render_instance(maker()) == render_instance(maker())
