"""Kernelization toolkit for budgeted closed-walk routing problems.

Three problem kinds share one instance model: visit-everything tours,
subset tours, and capacitated waypoint routing.  The package provides exact
desk-scale solvers, safeness-preserving reduction rules, four marking-based
kernel pipelines plus a feedback-edge-set kernel, hardness-construction
generators, and a CLI (`tspkern`).
"""

from .instance import (
    Edge,
    Instance,
    InstanceError,
    InvariantError,
    ParseError,
    ScaleError,
    parse_instance,
    render_instance,
)
from .oracle import (
    OptResult,
    OracleCaps,
    SolutionMultigraph,
    check_certificate,
    solve_auto,
    solve_exact_multiplicity,
    solve_heldkarp,
    solve_treewidth,
)
from .pipelines import (
    PIPELINES,
    kernelize_components_tsp,
    kernelize_paths_subtsp,
    kernelize_vc_tsp,
    kernelize_vc_wrp,
)
from .fes import kernelize_fes

__all__ = [
    "Edge", "Instance", "InstanceError", "InvariantError", "ParseError", "ScaleError",
    "parse_instance", "render_instance",
    "OptResult", "OracleCaps", "SolutionMultigraph", "check_certificate",
    "solve_auto", "solve_exact_multiplicity", "solve_heldkarp", "solve_treewidth",
    "PIPELINES", "kernelize_fes", "kernelize_vc_tsp", "kernelize_vc_wrp",
    "kernelize_components_tsp", "kernelize_paths_subtsp",
]

__version__ = "0.1.0"
