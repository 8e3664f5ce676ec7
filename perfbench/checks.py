"""Output checks for the timed CLI calls.

The benchmark reads instance files and witnesses with its own small reader
and certificate check, so a defect in the program's parser or certificate
code cannot hide a wrong answer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


@dataclass
class Graph:
    kind: str
    n: int
    budget: int
    waypoints: frozenset
    edges: list  # (u, v, weight, capacity or None), 0-based ends

    @property
    def size(self) -> int:
        return self.n + len(self.edges)


def read_instance(text: str) -> Graph:
    kind, n, budget, waypoints, edges = None, 0, 0, None, []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        tag = parts[0]
        if tag == "p":
            kind, n = parts[1], int(parts[2])
        elif tag == "b":
            budget = int(parts[1])
        elif tag == "w":
            waypoints = frozenset(int(x) - 1 for x in parts[1:])
        elif tag == "e":
            cap = int(parts[4]) if len(parts) == 5 else None
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1, int(parts[3]), cap))
    if kind == "tsp":
        waypoints = frozenset(range(n))
    return Graph(kind, n, budget, waypoints or frozenset(), edges)


def certificate_ok(g: Graph, mult: list[int], weight: int) -> bool:
    """`mult` is a closed walk of total `weight` through every waypoint."""
    if len(mult) != len(g.edges) or any(x < 0 for x in mult):
        return False
    if sum(x * e[2] for x, e in zip(mult, g.edges)) != weight or weight > g.budget:
        return False
    deg = [0] * g.n
    nbrs = {}
    for x, (u, v, _, cap) in zip(mult, g.edges):
        if cap is not None and x > cap:
            return False
        if x:
            deg[u] += x
            deg[v] += x
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
    if any(d % 2 for d in deg):
        return False
    if not nbrs:
        return len(g.waypoints) <= 1
    start = next(iter(nbrs))
    seen, stack = {start}, [start]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nbrs) and g.waypoints <= seen


_YES = re.compile(r"^yes (\d+)$")
_NO_OVER = re.compile(r"^no \(optimum (\d+) over budget\)$")


def parse_solve(stdout: str):
    """(feasible, optimum or None, witness or None, cross-check optimum or None)."""
    feasible = opt = witness = cross = None
    for line in stdout.splitlines():
        if line.startswith("cross-check optimum: "):
            value = line.split(": ", 1)[1]
            cross = None if value == "None" else int(value)
        elif line.startswith("witness multiplicities:"):
            witness = [int(x) for x in line.split(":", 1)[1].split()]
        elif _YES.match(line):
            feasible, opt = True, int(_YES.match(line).group(1))
        elif _NO_OVER.match(line):
            feasible, opt = False, int(_NO_OVER.match(line).group(1))
        elif line == "no":
            feasible = False
    return feasible, opt, witness, cross


def check_solve(call, graph: Graph, expect: dict, cross_check: bool) -> list[str]:
    """Problems with one `solve` call, against `expect` = {feasible[, opt]}.

    An `opt` of None in `expect` means no closed walk exists at all."""
    if call.code not in (0, 1):
        return [f"exit {call.code}{call.detail()}"]
    feasible, opt, witness, cross = parse_solve(call.stdout)
    problems = []
    if feasible is None or feasible != (call.code == 0):
        problems.append(f"unreadable verdict {call.stdout!r}")
    if feasible != expect["feasible"]:
        problems.append(f"verdict {feasible}, reference {expect['feasible']}")
    if "opt" in expect and opt != expect["opt"]:
        problems.append(f"optimum {opt}, reference {expect['opt']}")
    if feasible and (witness is None or not certificate_ok(graph, witness, opt)):
        problems.append("witness is not a closed walk of the stated weight")
    if cross_check and cross != opt:
        problems.append(f"cross-check optimum {cross} != {opt}")
    return problems


def check_kernel(call, regime: str, kernel: Graph):
    """(problems, report) for one `kernelize --report json` call."""
    if call.code != 0:
        return [f"exit {call.code}{call.detail()}"], None
    try:
        report = json.loads(call.stdout)
    except json.JSONDecodeError:
        return [f"report is not JSON: {call.stdout[:80]!r}"], None
    if report["decided"] is not None:
        return [], report
    st = report["stats"]
    problems = []
    if (st["vertices"], st["edges"]) != (kernel.n, len(kernel.edges)):
        problems.append(f"report says {st['vertices']}+{st['edges']},"
                        f" kernel file has {kernel.n}+{len(kernel.edges)}")
    if regime == "fes" and not (kernel.n <= st["vertex_bound"]
                                and len(kernel.edges) <= st["edge_bound"]):
        problems.append(f"fes kernel {kernel.n}+{len(kernel.edges)} over its bound"
                        f" {st['vertex_bound']}+{st['edge_bound']}")
    if regime == "vc-tsp" and st["r_size"] > st["r_bound"]:
        problems.append(f"r_size {st['r_size']} > r_bound {st['r_bound']}")
    if regime in ("components", "paths") and st["components_left"] > st["component_bound"]:
        problems.append(f"components_left {st['components_left']}"
                        f" > component_bound {st['component_bound']}")
    return problems, report


def verify_verdict(call, first: str):
    """The verdict `verify` printed for its first file, or None."""
    for line in call.stdout.splitlines():
        if line.startswith(first + ": "):
            return line.endswith(": yes")
    return None
