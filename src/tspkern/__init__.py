"""Kernelization toolkit for budgeted closed-walk routing problems.

Three problem kinds share one instance model: visit-everything tours,
subset tours, and capacitated waypoint routing.  The package provides exact
desk-scale solvers, safeness-preserving reduction rules, four marking-based
kernel pipelines plus a feedback-edge-set kernel, hardness-construction
generators, and a CLI (`tspkern`).
"""
