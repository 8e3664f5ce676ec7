"""Command-line front end: kernelize, solve, verify, generate.

Exit codes, stable across commands: 0 success (or: equivalent / feasible),
1 infeasible or non-equivalent, 2 usage or parse error (or a failed internal
soundness check), 3 instance beyond the exact solvers' caps
(`oracle.DEFAULT_CAPS`), the behavior guard (`marking.BEHAVIOR_GUARD`) or
the memory the process may use.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import gadgets, oracle
from .instance import (
    Instance,
    InstanceError,
    InvariantError,
    KIND_WRP,
    KINDS,
    ParseError,
    ScaleError,
    parse_instance,
    render_instance,
)
from .pipelines import PIPELINES

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_SCALE = 3


class UsageError(ValueError):
    """Malformed command-line argument."""


def _read(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _trivial(kind: str, verdict: str) -> Instance:
    """Canonical one-vertex instance carrying a settled verdict."""
    budget = 0 if verdict == "yes" else -1
    waypoints = frozenset({0})
    return Instance(kind, 1, (), waypoints, budget)


def cmd_kernelize(args) -> int:
    if args.r < 1:  # every regime, though only components and paths read r
        raise UsageError(f"r must be positive, got {args.r}")
    inst = _read(args.input)
    try:
        kernel, report = PIPELINES[args.regime](inst, r=args.r, k_max=args.k_max)
    except InstanceError as exc:
        if args.regime == "paths" and inst.kind == KIND_WRP:
            raise InstanceError(f"{exc} (capacitated path kernels are open)") from exc
        raise
    if report.decided is not None:
        kernel = _trivial(kernel.kind, report.decided)
    _write(args.output, render_instance(kernel))
    out = report.to_json() if args.report == "json" else report.to_text()
    sys.stdout.write(out)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _read(args.input)
    engines = {"auto": oracle.solve_auto, **oracle.ENGINES}
    if args.cross_check:
        # a cross-check runs another engine; only a treewidth solve past the
        # multiplicity cap has none, so there the check stops up front
        ran = oracle.auto_engine(inst) if args.engine == "auto" else args.engine
        if ran == "treewidth":
            oracle.check_multiplicity_cap(inst)
    res = engines[args.engine](inst)
    if args.cross_check:
        name, check = (("treewidth", oracle.solve_treewidth) if ran != "treewidth"
                       else ("multiplicity", oracle.solve_exact_multiplicity))
        other = check(inst)
        print(f"cross-check optimum: {other.opt_weight}")
        if other.opt_weight != res.opt_weight:
            raise InvariantError(f"cross-check failed: {args.engine} optimum {res.opt_weight},"
                                 f" {name} optimum {other.opt_weight}")
    if not res.feasible:
        print("no" if res.opt_weight is None else f"no (optimum {res.opt_weight} over budget)")
        return EXIT_NEGATIVE
    print(f"yes {res.opt_weight}")
    if res.witness is not None:
        mult = " ".join(str(c) for c in res.witness.multiplicity)
        print(f"witness multiplicities: {mult}")
    return EXIT_OK


def cmd_verify(args) -> int:
    a, b = _read(args.first), _read(args.second)
    va = oracle.solve_auto(a).feasible
    vb = oracle.solve_auto(b).feasible
    print(f"{args.first}: {'yes' if va else 'no'}")
    print(f"{args.second}: {'yes' if vb else 'no'}")
    if va == vb:
        print("equivalent")
        return EXIT_OK
    print("NOT equivalent")
    return EXIT_NEGATIVE


_LENGTH_GADGETS = {"selection": gadgets.selection_gadget, "cycle": gadgets.cycle_gadget}


def cmd_generate(args) -> int:
    if args.generator in _LENGTH_GADGETS:
        inst = _LENGTH_GADGETS[args.generator](args.length)
        prov = f"c {args.generator} length={args.length}"
    elif args.generator == "mcc":
        rng = random.Random(f"mcc|{args.k}|{args.n}|{args.seed}")
        pairs = []
        for i in range(1, args.k + 1):
            for i2 in range(i + 1, args.k + 1):
                for a in range(args.n):
                    for a2 in range(args.n):
                        if rng.random() < args.density:
                            pairs.append(((i, a), (i2, a2)))
        mcc = gadgets.MccInstance.build(args.k, args.n, pairs)
        inst = gadgets.mcc_to_subtsp(mcc)
        prov = f"c mcc k={args.k} n={args.n} density={args.density} seed={args.seed}"
    else:  # planted
        inst = gadgets.gen_planted(args.kind, args.regime, args.k, args.r, args.n,
                                   (args.wmin, args.wmax), args.seed)
        prov = (f"c planted kind={args.kind} regime={args.regime} k={args.k}"
                f" r={args.r} n={args.n} weights={args.wmin}..{args.wmax} seed={args.seed}")
    _write(args.output, prov + "\n" + render_instance(inst))
    print(f"wrote {args.output}: {inst.n} vertices, {len(inst.edges)} edges")
    return EXIT_OK


COMMANDS = {"kernelize": cmd_kernelize, "solve": cmd_solve, "verify": cmd_verify,
            "generate": cmd_generate}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process since parsing
    leaves it unchanged.  It holds no command function: `main` looks the
    command up in COMMANDS on each call, so a function rebound there after
    the first parse is the one that runs."""
    top = argparse.ArgumentParser(prog="tspkern",
                                  description="Kernelization toolkit for budgeted routing instances.")
    sub = top.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernelize", help="reduce an instance, write kernel + report")
    k.add_argument("input")
    k.add_argument("output")
    k.add_argument("--regime", required=True,
                   choices=tuple(PIPELINES))
    k.add_argument("--r", type=int, default=1, help="component/path size bound")
    k.add_argument("--k-max", type=int, default=None, help="modulator search cap")
    k.add_argument("--report", choices=("text", "json"), default="text")

    s = sub.add_parser("solve", help="exact feasibility/optimum within caps")
    s.add_argument("input")
    s.add_argument("--engine", default="auto",
                   choices=("auto", *oracle.ENGINES))
    s.add_argument("--cross-check", action="store_true",
                   help="solve twice with different engines and compare")

    v = sub.add_parser("verify", help="check two instances get the same verdict")
    v.add_argument("first")
    v.add_argument("second")

    g = sub.add_parser("generate", help="write a constructed or random instance")
    gsub = g.add_subparsers(dest="generator", required=True)
    for name in _LENGTH_GADGETS:
        gadget = gsub.add_parser(name)
        gadget.add_argument("output")
        gadget.add_argument("--length", "--l", dest="length", type=int, required=True)
    mcc = gsub.add_parser("mcc")
    mcc.add_argument("output")
    mcc.add_argument("--k", type=int, required=True)
    mcc.add_argument("--n", type=int, required=True)
    mcc.add_argument("--density", type=float, default=0.5)
    mcc.add_argument("--seed", type=int, default=0)
    pl = gsub.add_parser("planted")
    pl.add_argument("output")
    pl.add_argument("--kind", choices=KINDS, required=True)
    pl.add_argument("--regime", choices=gadgets.REGIMES, required=True)
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--r", type=int, default=1)
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--wmin", type=int, default=1)
    pl.add_argument("--wmax", type=int, default=8)
    pl.add_argument("--seed", type=int, default=0)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScaleError as exc:
        print(f"scale exceeded: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except MemoryError:
        print("scale exceeded: out of memory", file=sys.stderr)
        return EXIT_SCALE
    except (InstanceError, InvariantError, UsageError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
