"""End-to-end kernelization: one regime table and one driver loop.

Every regime follows the same recipe.  `REGIMES` maps each regime name to a
row that gives the accepted kind (FES takes any kind and reads it as
capacitated), the structure step, the round rule, and the stats that finish
the report.  The structure step of the four marking regimes checks a
modulator hint or searches for a vertex cover or modulator (`compute_vc` /
`find_modulator`, one search behind both); for paths it also saturates the
path vertices.  A round applies the regime's marking rule once, or for FES
the first applicable local rule of `FES_RULES`.  The FES rounds edit one
`WorkGraph`, which the driver freezes once at the end.

A run has one `KernelReport`, which `kernelize` creates.  The structure
step and every round record into it: a round is called as
`rule(inst, r, report)` and returns only the next instance or work graph.

`kernelize` runs the stop rules and connectivity once, then the structure
step, then rounds until one leaves the report's firing count unchanged,
rechecking the stop rules after each change, and finishes with verified
weight compression.  A Decided verdict at any point ends the run.  The
report's budget delta is the kernel's budget minus the input's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .fes import kernelize_fes, rule_fes
from .instance import (
    Instance,
    InstanceError,
    KIND_SUBTSP,
    KIND_TSP,
    KIND_WRP,
    WorkGraph,
    as_wrp,
    compute_fes,
    compute_vc,
    find_modulator,
)
from .modulator import rule_components_tsp, rule_paths_subtsp, saturate_path_nonterminals
from .preprocess import compress_weights, ensure_connected, rr_stop
from .report import KernelReport
from .vc import rule_vc_tsp, rule_vc_wrp


@dataclass(frozen=True)
class Regime:
    pipeline: str  # name in the report
    kind: str | None  # accepted kind; None takes any kind, read as wrp
    need: str  # the accepted kind in words, for the mismatch message
    # (instance, r, k_max, report) -> instance carrying the modulator as
    # hint, or for FES the work graph its rounds edit
    structure: Callable[[Instance, int, int | None, KernelReport], Instance | WorkGraph]
    # (instance or graph, r, report) -> the next instance or graph; records
    # what fired in the report
    rule: Callable[[Instance | WorkGraph, int, KernelReport], Instance | WorkGraph]
    # (input, kernel or None when decided) -> stats closing the report
    stats: Callable[[Instance, Instance | None], dict] = lambda start, kernel: {}


def _structure(inst: Instance, regime: str | None, r: int, k_max: int | None) -> Instance:
    """The instance carrying its modulator as hint: a vertex cover when
    `regime` is None, otherwise a modulator into the `find_modulator` regime."""
    k = inst.n if k_max is None else k_max
    if regime is None:
        M, noun = compute_vc(inst, k), "vertex cover"
    else:
        M, noun = find_modulator(inst, regime, r, k), "modulator"
    if M is None:
        raise InstanceError(f"no {noun} within k_max={k_max}")
    return inst if inst.modulator_hint == M else replace(inst, modulator_hint=M)


def _saturated_path_modulator(inst: Instance, r: int, k_max: int | None,
                              report: KernelReport) -> Instance:
    """Short-circuiting keeps the waypoints, the budget and connectivity, so
    the stop rules need no recheck."""
    inst = _structure(inst, "paths", r, k_max)
    before = inst.n
    inst = saturate_path_nonterminals(inst)
    if inst.n != before:
        report.fire("saturate", f"short-circuited {before - inst.n} non-waypoint(s)")
    return inst


def _fes_stats(start: Instance, kernel: Instance | None) -> dict:
    stats = {"fes_input": len(compute_fes(start))}
    if kernel is not None:
        k = len(compute_fes(kernel))
        stats.update(fes_output=k, vertex_bound=8 * k, edge_bound=9 * k)
    return stats


REGIMES = {
    "fes": Regime(
        "fes", None, "any",
        structure=lambda inst, r, k_max, report: WorkGraph(inst),
        rule=lambda g, r, report: rule_fes(g, report),
        stats=_fes_stats),
    "vc-tsp": Regime(
        "vc-tsp", KIND_TSP, "all-waypoint",
        structure=lambda inst, r, k_max, report: _structure(inst, None, r, k_max),
        rule=lambda inst, r, report: rule_vc_tsp(inst, inst.modulator_hint, report)),
    "vc-wrp": Regime(
        "vc-wrp", KIND_WRP, "capacitated",
        structure=lambda inst, r, k_max, report: _structure(inst, None, r, k_max),
        rule=lambda inst, r, report: rule_vc_wrp(inst, inst.modulator_hint, report)),
    "components": Regime(
        "components-tsp", KIND_TSP, "all-waypoint",
        structure=lambda inst, r, k_max, report: _structure(inst, "components", r, k_max),
        rule=lambda inst, r, report: rule_components_tsp(inst, inst.modulator_hint, r, report)),
    "paths": Regime(
        "paths-subtsp", KIND_SUBTSP, "subset",
        structure=_saturated_path_modulator,
        rule=lambda inst, r, report: rule_paths_subtsp(inst, inst.modulator_hint, r, report)),
}


def _reduce(spec: Regime, inst: Instance, r: int, k_max: int | None,
            report: KernelReport) -> Instance | WorkGraph:
    """Stop rules, connectivity, structure, then rounds to a fixpoint.

    `ensure_connected` runs once because no round disconnects the graph: the
    FES rules delete leaves or replace a chain by edges joining its ends, and
    each marking rule keeps, for every pair of modulator vertices joined
    through G minus M, a component that joins them.  `rr_stop` only decides,
    so its firing ends the run.
    """
    if rr_stop(inst).record("rr_stop", report):
        return inst
    outcome = ensure_connected(inst)
    if outcome.record("ensure_connected", report):
        if outcome.decided:
            return inst
        inst = outcome.instance
    inst = spec.structure(inst, r, k_max, report)
    while True:
        fired = sum(report.rule_firings.values())
        inst = spec.rule(inst, r, report)
        if report.decided or sum(report.rule_firings.values()) == fired:
            return inst
        if rr_stop(inst).record("rr_stop", report):
            return inst


def kernelize(inst: Instance, regime: str, r: int = 1,
              k_max: int | None = None) -> tuple[Instance, KernelReport]:
    """Kernelize `inst` in `regime` (a key of REGIMES); returns the kernel,
    or the instance at the point of decision, and the report."""
    spec = REGIMES[regime]
    report = KernelReport(pipeline=spec.pipeline)
    if spec.kind is None:
        if inst.kind != KIND_WRP:
            report.log.append(f"reinterpreted {inst.kind} input as wrp with capacities 2")
            inst = as_wrp(inst)
    elif inst.kind != spec.kind:
        raise InstanceError(f"regime {regime} needs the {spec.need} kind ({spec.kind}),"
                            f" got {inst.kind}")
    start = inst
    inst = _reduce(spec, inst, r, k_max, report)
    if isinstance(inst, WorkGraph):
        inst = inst.freeze()
    if report.decided is None:
        outcome = compress_weights(inst)
        if outcome.record("compress_weights", report):
            inst = outcome.instance
        report.stats.update(vertices=inst.n, edges=len(inst.edges))
        report.budget_delta = inst.budget - start.budget
    report.stats.update(spec.stats(start, None if report.decided else inst))
    return inst, report


def kernelize_vc_tsp(inst: Instance, r: int = 1,
                     k_max: int | None = None) -> tuple[Instance, KernelReport]:
    return kernelize(inst, "vc-tsp", r, k_max)


def kernelize_vc_wrp(inst: Instance, r: int = 1,
                     k_max: int | None = None) -> tuple[Instance, KernelReport]:
    return kernelize(inst, "vc-wrp", r, k_max)


def kernelize_components_tsp(inst: Instance, r: int = 1,
                             k_max: int | None = None) -> tuple[Instance, KernelReport]:
    return kernelize(inst, "components", r, k_max)


def kernelize_paths_subtsp(inst: Instance, r: int = 1,
                           k_max: int | None = None) -> tuple[Instance, KernelReport]:
    return kernelize(inst, "paths", r, k_max)


# regime -> its entry point; each is called as PIPELINES[regime](inst, r=..., k_max=...)
PIPELINES = {"fes": kernelize_fes, "vc-tsp": kernelize_vc_tsp, "vc-wrp": kernelize_vc_wrp,
             "components": kernelize_components_tsp, "paths": kernelize_paths_subtsp}
