"""Kernel driver: the report agrees with the kernel it returns, and a kernel
keeps the input's optimum, shifted by the report's budget delta."""

import itertools

import pytest

from tspkern.gadgets import gen_planted
from tspkern.oracle import solve_treewidth
from tspkern.pipelines import PIPELINES, kernelize

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
