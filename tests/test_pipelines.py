"""Kernel driver: the report agrees with the kernel it returns, and a kernel
keeps the input's optimum, shifted by the report's budget delta."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from tspkern import pipelines
from tspkern.gadgets import gen_planted
from tspkern.instance import KINDS, Edge, Instance, as_wrp, parse_instance
from tspkern.oracle import solve_auto, solve_treewidth
from tspkern.pipelines import PIPELINES, REGIMES, kernelize
from tspkern.preprocess import unchanged

# regime -> (planted kind, planted regime, r)
PLANTED = {
    "fes": ("stsp", "fes", 1),
    "vc-tsp": ("tsp", "vc", 1),
    "vc-wrp": ("wrp", "vc", 1),
    "components": ("tsp", "components", 2),
    "paths": ("stsp", "paths", 2),
}


@pytest.mark.parametrize("regime", sorted(PLANTED))
def test_budget_delta_is_kernel_minus_input_budget(regime):
    kind, planted_regime, r = PLANTED[regime]
    undecided = 0
    for seed in range(40):
        inst = gen_planted(kind, planted_regime, 2, r, 7, seed=seed)
        kernel, report = PIPELINES[regime](inst, r=r)
        if report.decided is None:
            undecided += 1
            assert report.budget_delta == kernel.budget - inst.budget, seed
    assert undecided > 0


# regime -> (planted input size, whether a third of the draws must delete a
# unit).  Planted wrp inputs past a dozen vertices almost always hold a
# waypoint whose only edge has capacity 1, and below that the red cap keeps
# every vertex; FES has no marking units.
OPTIMUM_DRAWS = {
    "fes": (60, False),
    "vc-tsp": (60, True),
    "vc-wrp": (10, False),
    "components": (200, True),
    "paths": (200, True),
}


@pytest.mark.parametrize("regime", sorted(OPTIMUM_DRAWS))
def test_kernel_optimum_is_input_optimum_plus_budget_delta(regime):
    """A decided verdict is the input's; a kernel whose weights were
    compressed keeps the verdict; any other kernel's optimum is the input's
    plus the budget delta, which a wrong charge for a deleted unit breaks
    even where the verdict survives it."""
    kind, planted_regime, _ = PLANTED[regime]
    n, deletes = OPTIMUM_DRAWS[regime]
    draws = deleted = 0
    for r, k, seed in itertools.product((1, 2), (2, 3), range(3)):
        inst = gen_planted(kind, planted_regime, k, r, n, seed=seed)
        kernel, report = kernelize(inst, regime, r)
        draws += 1
        # `marking.close_round` logs every round that deletes units
        deleted += any(entry.startswith("removed ") for entry in report.log)
        before = solve_treewidth(inst)
        if report.decided is not None:
            assert before.feasible == (report.decided == "yes"), (r, k, seed)
        elif "compress_weights" in report.rule_firings:
            assert solve_treewidth(kernel).feasible == before.feasible, (r, k, seed)
        else:
            shifted = None if before.opt_weight is None else before.opt_weight + report.budget_delta
            assert solve_treewidth(kernel).opt_weight == shifted, (r, k, seed)
    if deletes:
        assert 3 * deleted >= draws


# (regime, planted regime, k, r, n, seed) of stsp draws, read as wrp under
# vc-wrp, on which two unsound rules give a wrong answer: vc-wrp's red
# marking with a cap of 1, and the FES all-capacity-2 chain case allowed
# with only one endpoint a waypoint
PINNED_DRAWS = (
    ("vc-wrp", "vc", 2, 1, 21, 51),
    ("vc-wrp", "vc", 2, 2, 32, 57),
    ("vc-wrp", "vc", 2, 2, 29, 111),
    ("vc-wrp", "vc", 2, 2, 27, 201),
    ("fes", "fes", 3, 2, 19, 250),
)


@pytest.mark.parametrize("regime,planted,k,r,n,seed", PINNED_DRAWS)
def test_kernel_answers_on_pinned_draws(monkeypatch, regime, planted, k, r, n, seed):
    """The kernel keeps the input's verdict, and with the budget lifted to
    10^12 its optimum is the input's plus the budget delta.  Under a budget
    above every weight sum any weights are sign-equivalent, so weight
    compression is switched off for the lifted run: it would leave only
    the verdict to compare."""
    inst = gen_planted("stsp", planted, k, r, n, seed=seed)
    if regime == "vc-wrp":
        inst = as_wrp(inst)
    kernel, report = kernelize(inst, regime)
    before = solve_treewidth(inst)
    if report.decided is None:
        assert solve_treewidth(kernel).feasible == before.feasible
    else:
        assert before.feasible == (report.decided == "yes")
    monkeypatch.setattr(pipelines, "compress_weights", lambda _: unchanged())
    lifted = replace(inst, budget=10**12)
    kernel, report = kernelize(lifted, regime)
    assert report.decided is None and before.opt_weight is not None
    assert solve_treewidth(kernel).opt_weight == before.opt_weight + report.budget_delta


@st.composite
def small_inputs(draw):
    """Inputs of every kind on at most 6 vertices and 9 edges, connected or
    not; a pair drawn twice is a parallel edge."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 6))
    pairs = (draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=9)) if n > 1 else [])
    edges = tuple(Edge(u, v, draw(st.integers(0, 9)),
                       draw(st.sampled_from([1, 2])) if kind == "wrp" else None)
                  for u, v in pairs)
    wps = frozenset(range(n)) if kind == "tsp" else draw(st.frozensets(st.integers(0, n - 1)))
    return Instance(kind, n, edges, wps, draw(st.integers(0, 40)))


@given(small_inputs(), st.integers(1, 4))
# inputs that already lie in the regime, so that the modulator is empty
@example(parse_instance("p tsp 3 3\nb 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n"), 3)
@example(parse_instance("p tsp 4 4\nb 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 1 1\n"), 4)
@example(parse_instance("p stsp 3 2\nb 4\nw 1 3\ne 1 2 1\ne 2 3 1\n"), 3)
@example(parse_instance("p stsp 4 3\nb 6\nw 1 4\nm\ne 1 2 1\ne 2 3 1\ne 3 4 1\n"), 4)
@settings(max_examples=100, deadline=None)
def test_small_inputs_keep_their_verdict(inst, r):
    """Every regime that takes the input's kind gives a kernel with the
    input's verdict, whatever the modulator, the empty one included."""
    want = solve_auto(inst).feasible
    for regime in [name for name, spec in REGIMES.items() if spec.kind in (None, inst.kind)]:
        kernel, report = PIPELINES[regime](inst, r=r)
        got = (report.decided == "yes" if report.decided is not None
               else solve_auto(kernel).feasible)
        assert got == want, (regime, report.log)


def test_disconnected_inputs_are_restricted_or_decided():
    """`kernelize` runs `ensure_connected` once, before the structure step: a
    subset input keeps the component that holds its waypoints, and an
    all-waypoint input split in two is decided "no"."""
    stsp = parse_instance("p stsp 5 3\nb 99\nw 1 3\ne 1 2 1\ne 2 3 1\ne 4 5 1\n")
    kernel, report = PIPELINES["paths"](stsp, r=2)
    assert report.decided is None and kernel.n == 2
    assert report.rule_firings["ensure_connected"] == 1
    assert "ensure_connected: restricted to the 3-vertex waypoint component" in report.log
    tsp = parse_instance("p tsp 5 4\nb 99\ne 1 2 1\ne 2 3 1\ne 1 3 1\ne 4 5 1\n")
    _, report = PIPELINES["components"](tsp, r=2)
    assert report.decided == "no"
    assert report.log == ["ensure_connected: waypoints split across components"]
