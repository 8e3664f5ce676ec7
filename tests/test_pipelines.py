"""Kernel driver: the report agrees with the kernel it returns."""

import pytest

from tspkern.gadgets import gen_planted
from tspkern.pipelines import PIPELINES

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
