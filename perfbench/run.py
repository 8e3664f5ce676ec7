#!/usr/bin/env python3
"""Seeded benchmark of the tspkern CLI, with a traced per-layer pass.

Run from the repository root:

    python3 perfbench/run.py --workload kernelize-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, traced and not

Each run builds its corpus from `--seed` in child processes, three times,
and reports the median as `setup_s`.  It then drives `tspkern.cli.main([...])`
in this process as a closed loop, one call at a time.  Whole passes over the
corpus run, at least MIN_PASSES and more while the next pass still fits in
`--seconds`; each operation's time is its median over the passes.  Every
timed interval is scaled to a reference host speed (see "host speed" below).
Every output is checked against a reference that is not the code under test.
`--trace 1` instead runs each operation once plain and once with every layer
wrapped (see tracer.py), and reports the per-layer metrics; `--trace 0`
reports the end-to-end ones.  Metric names and units come from
BENCHMARK.json.  The last line of output is one JSON object; the exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("kernelize-scale", "solve-exact", "kernel-verify")
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# cold CLI runs per timed run, spread over its passes
COLD_SAMPLES = 8
# every operation runs in at least this many passes, so that its median
# drops one pass that hit a slow spell the probe did not follow
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
TINY = "p tsp 3 3\nb 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n"

# Spans that must record calls in the traced pass of each workload, so a
# wrapper that missed a binding fails the run instead of reading as idle.
_RULES = tuple(f"fes.{rule}" for rule in tracing.FES_RULES)
_FES = _RULES + ("fes.kernelize_fes",)
_KERNELIZE = ("cli.main", "cli.build_parser", "cli.cmd_kernelize",
              "instance.parse_instance", "instance.render_instance",
              "instance.Instance.remove_vertices", "instance.Instance.adjacency",
              "preprocess.compress_weights", "preprocess.ensure_connected",
              "preprocess.rr_stop", "vc.rule_vc_tsp", "vc.rule_vc_wrp",
              "vc.enumerate_vertex_behaviors", "modulator.rule_components_tsp",
              "modulator.rule_paths_subtsp", "modulator.saturate_path_nonterminals",
              "pipelines.kernelize_vc_tsp", "pipelines.kernelize_vc_wrp",
              "pipelines.kernelize_components_tsp", "pipelines.kernelize_paths_subtsp",
              ) + _FES
EXPECTED_CALLS = {
    "kernelize-scale": _KERNELIZE + (
        "instance.compute_vc", "instance.find_modulator", "preprocess.rr_short_circuit",
        "modulator.enumerate_component_behaviors"),
    "solve-exact": ("cli.main", "cli.build_parser", "cli.cmd_solve",
                    "instance.parse_instance", "oracle.solve_auto",
                    "oracle.solve_exact_multiplicity", "oracle.solve_heldkarp",
                    "oracle._apsp_with_paths", "oracle.solve_treewidth",
                    "oracle.treewidth_min_fill_in", "oracle._run_tw_dp"),
    "kernel-verify": _KERNELIZE + ("cli.cmd_verify", "oracle.solve_auto",
                                   "oracle.solve_exact_multiplicity"),
}
EXPECTED_SETUP_CALLS = {
    "kernelize-scale": ("gadgets.gen_planted", "oracle.solve_auto"),
    "solve-exact": ("gadgets.mcc_to_subtsp", "gadgets.compose_fn", "gadgets.compose_degtw"),
    "kernel-verify": ("gadgets.gen_planted", "oracle.solve_auto"),
}
# the driver whose inclusive time is `pipelines.<regime>.s`
DRIVERS = {"fes": "fes.kernelize_fes", "vc-tsp": "pipelines.kernelize_vc_tsp",
           "vc-wrp": "pipelines.kernelize_vc_wrp",
           "components": "pipelines.kernelize_components_tsp",
           "paths": "pipelines.kernelize_paths_subtsp"}
# one call of each marking rule is one round; FES starts each round with rr_leaf_cap1
ROUND_SPANS = ("vc.rule_vc_tsp", "vc.rule_vc_wrp", "modulator.rule_components_tsp",
               "modulator.rule_paths_subtsp", "fes.rr_leaf_cap1")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- host speed ----------------------------------------------------------------
#
# On a shared host the same code runs up to a third faster or slower for
# stretches of several seconds, whatever this process does.  So every timed
# interval is scaled by PROBE_REF_S / (the time of a fixed probe run just
# before and just after it): a time reads the same in a fast and a slow
# spell, and reads as it would on a host where the probe takes PROBE_REF_S.
# The probe is an integer loop.  It allocates nothing and reads no memory
# beyond the caches, so neither the program's heap nor what a call left in
# the caches changes its speed.  Raw wall times are printed too, as `raw.*`.
#
# A fresh CLI process does not follow the loop's speed: exec, page faults and
# imports dominate it, and they slow by a quarter for seconds at a time while
# the loop does not.  So it is scaled instead by BARE_REF_S / (the start time
# of a bare interpreter, `python -c pass`, just before and just after it).

PROBE_LOOPS = 12_500
PROBE_REF_S = 0.001
# a probe sample is taken before an operation when the last one is older
SAMPLE_GAP_S = 0.1
BARE_REF_S = 0.07


def probe_s() -> float:
    """Fastest of three runs of the probe, which drops a run that was preempted."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def scaled(seconds: float, before: float, after: float, ref: float = PROBE_REF_S) -> float:
    """`seconds` at the reference speed, given the probes on either side."""
    return seconds * ref / ((before + after) / 2)


class Speed:
    """Probe samples taken between operations, by time."""

    def __init__(self):
        self.times, self.values = [], []

    def sample(self):
        value = probe_s()
        self.times.append(perf_counter())
        self.values.append(value)

    def sample_if_stale(self):
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_GAP_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] at the reference speed; needs a sample taken
        before t0 and one after t1."""
        before = self.values[bisect.bisect_right(self.times, t0) - 1]
        after = self.values[bisect.bisect_left(self.times, t1)]
        return scaled(t1 - t0, before, after)


# -- one CLI call --------------------------------------------------------------

@dataclass
class Call:
    command: str
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str = ""

    def detail(self) -> str:
        text = self.error or self.stderr.strip()
        return f": {text[:200]}" if text else ""


def call_cli(cli, argv) -> Call:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed operation, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return Call(argv[0], code, out.getvalue(), err.getvalue(), seconds, error)


def run_op(cli, op, corpus: Path, kernels: Path) -> list[Call]:
    inp = str(corpus / op["input"])
    if op["op"] == "solve":
        argv = ["solve", inp, "--engine", "auto"]
        return [call_cli(cli, argv + ["--cross-check"] if op["cross_check"] else argv)]
    out = str(kernels / op["input"])
    argv = ["kernelize", inp, out, "--regime", op["regime"], "--r", str(op["r"]),
            "--report", "json"]
    if "k_max" in op:
        argv += ["--k-max", str(op["k_max"])]
    calls = [call_cli(cli, argv)]
    if op["op"] == "kernel-verify":
        calls.append(call_cli(cli, ["verify", inp, out]))
    return calls


# -- checking ------------------------------------------------------------------

@dataclass
class Tally:
    kernelized: int = 0
    decided: int = 0
    size_in: int = 0
    size_out: int = 0
    bits_in: int = 0
    bits_out: int = 0


@dataclass
class Pass:
    wall: float            # raw seconds of all operations
    calls: list            # per op: list[Call]
    kernels: Path          # where this pass wrote its kernels
    op_s: list = field(default_factory=list)      # per op: seconds at reference speed
    problems: list = field(default_factory=list)  # per op: list[str]
    tally: Tally = field(default_factory=Tally)


class Checker:
    def __init__(self, ops, corpus: Path):
        self.ops, self.corpus = ops, corpus
        self.graphs, self.refs, self.first_outputs = {}, {}, {}

    def graph(self, op):
        if op["input"] not in self.graphs:
            self.graphs[op["input"]] = checks.read_instance(
                (self.corpus / op["input"]).read_text())
        return self.graphs[op["input"]]

    def expect(self, op) -> dict:
        """Stored answer, or one from the treewidth engine: `solve --engine auto`
        uses the multiplicity engine on these inputs of at most 14 edges."""
        if "engine" not in op["expect"]:
            return op["expect"]
        if op["input"] not in self.refs:
            from tspkern.instance import parse_instance
            from tspkern.oracle import DEFAULT_CAPS, solve_treewidth
            inst = parse_instance((self.corpus / op["input"]).read_text())
            res = solve_treewidth(inst, DEFAULT_CAPS)
            self.refs[op["input"]] = {"feasible": res.feasible, "opt": res.opt_weight}
        return self.refs[op["input"]]

    def check(self, p: Pass):
        from tspkern.preprocess import total_bitsize
        for op, calls in zip(self.ops, p.calls):
            problems = []
            if op["op"] == "solve":
                problems += checks.check_solve(calls[0], self.graph(op), self.expect(op),
                                               op["cross_check"])
            else:
                kernel = None
                if calls[0].code == 0:
                    kernel = checks.read_instance((p.kernels / op["input"]).read_text())
                found, report = checks.check_kernel(calls[0], op["regime"], kernel)
                problems += found
                if report is not None:
                    p.tally.kernelized += 1
                    if report["decided"] is not None:
                        p.tally.decided += 1
                    else:
                        g = self.graph(op)
                        p.tally.size_in += g.size
                        p.tally.size_out += kernel.size
                        p.tally.bits_in += total_bitsize([e[2] for e in g.edges], g.budget)
                        p.tally.bits_out += total_bitsize([e[2] for e in kernel.edges],
                                                          kernel.budget)
                if op["op"] == "kernel-verify":
                    problems += self._check_verify(op, calls[1], report)
            outputs = [(c.code, c.stdout.replace(str(p.kernels), "KERNELS")) for c in calls]
            if self.first_outputs.setdefault(op["name"], outputs) != outputs:
                problems.append("output differs from the first pass")
            p.problems.append([f"{op['name']}: {x}" for x in problems])

    def _check_verify(self, op, call, report) -> list[str]:
        want = self.expect(op)["feasible"]
        problems = []
        if report is not None and report["decided"] is not None \
                and (report["decided"] == "yes") != want:
            problems.append(f"kernelize decided {report['decided']}, reference {want}")
        if call.code != 0:
            problems.append(f"verify exit {call.code}{call.detail()}")
        elif checks.verify_verdict(call, str(self.corpus / op["input"])) != want:
            problems.append(f"verify verdict differs from reference {want}")
        return problems


# -- statistics ----------------------------------------------------------------

def percentile_ms(values, q: float):
    """q-quantile in ms, or None unless at least ten samples lie beyond it."""
    if len(values) - math.ceil(q * len(values)) < 10:
        return None
    if q == 0.5:
        return 1000 * statistics.median(values)
    return 1000 * statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def loglog_slope(points) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


# -- phases --------------------------------------------------------------------

def run_setup(args) -> int:
    """Child process: build the corpus into `--setup-into` and time it.

    A corpus that builds in under SETUP_MIN_S is built again until that much
    time has passed, and the median build time is reported.  Writing the
    files is not timed: it is file system time, not the generators'."""
    import corpus
    import tspkern.cli  # noqa: F401  (binds every module before tracing)
    tracer = tracing.Tracer().install() if args.trace else None
    out = Path(args.setup_into)
    out.mkdir(parents=True)
    times, raw = [], []
    while not times or (not tracer and sum(raw) < SETUP_MIN_S):
        before = probe_s()
        t0 = perf_counter()
        files, ops = corpus.BUILDERS[args.workload](args.seed)
        raw.append(perf_counter() - t0)
        times.append(scaled(raw[-1], before, probe_s()))
    for name in sorted(files):
        (out / name).write_text(files[name])
    manifest = json.dumps(ops, sort_keys=True)
    (out / "manifest.json").write_text(manifest)
    if tracer:
        tracer.uninstall()
    digest = hashlib.sha256(manifest.encode())
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    result = {"setup_s": statistics.median(times), "raw_s": statistics.median(raw),
              "digest": digest.hexdigest(),
              "trace": tracer.to_json() if tracer else None}
    (out / "setup.json").write_text(json.dumps(result))
    return 0


def setup(workload, seed, trace, work: Path):
    """Median set-up time over the repeats, and each repeat's results."""
    runs = []
    for i in range(1 if trace else SETUP_REPEATS):
        out = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(out),
             "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"corpus set-up failed:\n{proc.stderr}")
        runs.append(json.loads((out / "setup.json").read_text()))
    return statistics.median(r["setup_s"] for r in runs), runs


def timed_child(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def cold_cli(work: Path, times: list, raw: list, problems: list):
    """Wall time of a fresh `python -m tspkern.cli solve` process."""
    before, _ = timed_child(["-c", "pass"])
    seconds, proc = timed_child(["-m", "tspkern.cli", "solve", str(work / "tiny.txt")])
    after, _ = timed_child(["-c", "pass"])
    raw.append(seconds)
    times.append(scaled(seconds, before, after, BARE_REF_S))
    if proc.returncode != 0 or not proc.stdout.startswith("yes 3\n"):
        problems.append(f"cold solve: exit {proc.returncode} {proc.stdout!r}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics {name: (value, unit)}, attempted, failed, problems)."""
    from tspkern import cli
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, setups = setup(workload, seed, trace, work)
        problems = []
        if len({r["digest"] for r in setups}) > 1:
            problems.append("set-up repeats built different corpora")
        corpus_dir = work / "setup0"
        (work / "tiny.txt").write_text(TINY)
        ops = json.loads((corpus_dir / "manifest.json").read_text())
        checker = Checker(ops, corpus_dir)

        call_cli(cli, ["solve", str(work / "tiny.txt")])  # warm-up, untimed
        if trace:
            passes, traced, tracer = traced_passes(cli, ops, corpus_dir, work)
            checker.check(passes[0])
            checker.check(traced)
            for name in EXPECTED_CALLS[workload]:
                if tracer.stats[name].calls == 0:
                    problems.append(f"traced pass: {name} recorded no calls")
            for name in EXPECTED_SETUP_CALLS[workload]:
                if setups[0]["trace"]["stats"][name][0] == 0:
                    problems.append(f"traced set-up: {name} recorded no calls")
            cold, cold_raw, cold_problems, rss_mb = [], [], [], None
        else:
            passes, cold, cold_raw, cold_problems = [], [], [], []
            cold_cli(work, cold, cold_raw, cold_problems)
            cold_gap = seconds / COLD_SAMPLES
            next_cold = perf_counter() + cold_gap
            elapsed = 0.0
            while len(passes) < MIN_PASSES or elapsed + elapsed / len(passes) <= seconds:
                kernels = work / f"kernels{len(passes)}"
                kernels.mkdir()
                # a fresh order per pass spreads each kind of operation over
                # the pass, so a slow spell of the machine hits all kinds alike
                order = list(range(len(ops)))
                random.Random(f"{seed}|{len(passes)}").shuffle(order)
                p = Pass(0.0, [None] * len(ops), kernels)
                spans = [None] * len(ops)
                speed = Speed()
                start = perf_counter()
                for i in order:
                    if perf_counter() >= next_cold and len(cold) < COLD_SAMPLES:
                        cold_cli(work, cold, cold_raw, cold_problems)
                        next_cold = perf_counter() + cold_gap
                        speed.sample()
                    speed.sample_if_stale()
                    t0 = perf_counter()
                    p.calls[i] = run_op(cli, ops[i], corpus_dir, kernels)
                    spans[i] = (t0, perf_counter())
                speed.sample()
                elapsed += perf_counter() - start
                p.wall = sum(t1 - t0 for t0, t1 in spans)
                p.op_s = [speed.scale(t0, t1) for t0, t1 in spans]
                passes.append(p)
            while len(cold) < COLD_SAMPLES:
                cold_cli(work, cold, cold_raw, cold_problems)
            # read before the checks, which run an engine of their own
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for p in passes:
                checker.check(p)
        problems += cold_problems

        all_passes = passes + ([traced] if trace else [])
        attempted = sum(len(p.calls) for p in all_passes) + len(cold)
        failed = sum(1 for p in all_passes for x in p.problems if x) + len(cold_problems)
        problems += [x for p in all_passes for xs in p.problems for x in xs]

        m = plain_metrics(ops, passes, setup_s, rss_mb, cold)
        m["failed_frac"] = (failed / attempted, "ratio")
        m["raw.setup_s"] = (statistics.median(r["raw_s"] for r in setups), "s")
        if cold_raw:
            m["raw.cold_cli_ms.p50"] = (1000 * statistics.median(cold_raw), "ms")
        if trace:
            m.update(traced_metrics(workload, tracer, traced, passes, setups[0]["trace"]))
        return m, attempted, failed, problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def traced_passes(cli, ops, corpus_dir: Path, work: Path):
    """One plain and one traced pass, interleaved per operation so that both
    runs of an operation see the same machine state.  Which run goes first
    alternates, so neither gains from the other warming the caches."""
    tracer = tracing.Tracer()
    plain, traced = Pass(0.0, [], work / "kernels-plain"), Pass(0.0, [], work / "kernels-traced")
    for p in (plain, traced):
        p.kernels.mkdir()
    speed = Speed()
    for i, op in enumerate(ops):
        for p in ((plain, traced) if i % 2 else (traced, plain)):
            speed.sample()
            if p is traced:
                tracer.install()
            try:
                t0 = perf_counter()
                calls = run_op(cli, op, corpus_dir, p.kernels)
                t1 = perf_counter()
            finally:
                tracer.uninstall()
            speed.sample()
            p.calls.append(calls)
            p.wall += t1 - t0
            p.op_s.append(speed.scale(t0, t1))
    return [plain], traced, tracer


def plain_metrics(ops, passes, setup_s, rss_mb, cold) -> dict:
    # each operation's median over the passes
    op_s = [statistics.median(p.op_s[i] for p in passes) for i in range(len(ops))]
    m = {"setup_s": (setup_s, "s"),
         "wall_s": (sum(op_s), "s"),
         "op_ms.gmean": (1000 * statistics.geometric_mean(op_s), "ms"),
         "raw.wall_s": (statistics.median(p.wall for p in passes), "s")}
    if rss_mb is not None:
        m["peak_rss_mb"] = (rss_mb, "MB")
    if cold:
        m["cold_cli_ms.p50"] = (1000 * statistics.median(cold), "ms")
    for command in ("kernelize", "solve", "verify"):
        # a call's share of its operation's scaled time
        times = [p.op_s[i] * c.seconds / sum(x.seconds for x in calls)
                 for p in passes for i, calls in enumerate(p.calls)
                 for c in calls if c.command == command]
        m[f"cli.{command}.calls"] = (len(times), "count")
        for q in (0.5, 0.9):
            m[f"cli.{command}_ms.p{round(100 * q)}"] = (percentile_ms(times, q) or 0.0, "ms")
    t = passes[0].tally
    m["pipelines.decided_frac"] = (t.decided / t.kernelized if t.kernelized else 0.0, "ratio")
    m["pipelines.kernel_size_ratio"] = (t.size_out / t.size_in if t.size_in else 0.0, "ratio")
    m["preprocess.kernel_bits_ratio"] = (t.bits_out / t.bits_in if t.bits_in else 0.0, "ratio")
    for regime in DRIVERS:
        per_n = {}
        for op, t in zip(ops, op_s):
            if op["op"] == "kernelize" and op["regime"] == regime and "n" in op:
                per_n[op["n"]] = per_n.get(op["n"], 0.0) + t
        slope = loglog_slope(sorted(per_n.items())) if len(per_n) > 1 else 0.0
        m[f"pipelines.{regime}.slope"] = (slope, "exponent")
    return m


def traced_metrics(workload, tracer, traced: Pass, passes, setup_trace) -> dict:
    m = {}
    for name, st in tracer.stats.items():
        if name.startswith("gadgets."):  # generators run in set-up only
            continue
        m[f"{name}.calls"] = (st.calls, "count")
        m[f"{name}.self_s"] = (st.self_s, "s")
    for name in tracing.COUNTED:
        m[name] = (tracer.counters.get(name, 0), "count")
    m["oracle.tw_width.max"] = (tracer.maxima.get("oracle.tw_width.max", 0), "count")
    rule_calls = sum(tracer.stats[r].calls for r in _RULES)
    rule_fired = sum(tracer.counters.get(f"{r}.fired", 0) for r in _RULES)
    m["fes.fired_frac"] = (rule_fired / rule_calls if rule_calls else 0.0, "ratio")
    m["pipelines.rule_rounds"] = (sum(tracer.stats[r].calls for r in ROUND_SPANS), "count")
    for regime, span in DRIVERS.items():
        m[f"pipelines.{regime}.s"] = (tracer.stats[span].total_s, "s")
    for layer in tracing.LAYERS:
        if layer == "gadgets":
            continue
        self_s = tracer.layer_self_s(layer)
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.share"] = (self_s / traced.wall, "ratio")
    m["trace.wall_s"] = (traced.wall, "s")
    m["trace.overhead_s"] = (traced.wall - statistics.median(p.wall for p in passes), "s")
    # set-up trace: the generators, and the engines they call to set budgets
    stats = setup_trace["stats"]
    for name, (calls, self_s, _) in stats.items():
        if name.startswith("gadgets."):
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.self_s"] = (self_s, "s")
    m["setup.oracle.self_s"] = (sum(v[1] for k, v in stats.items()
                                    if k.startswith("oracle.")), "s")
    return m


# -- output --------------------------------------------------------------------

def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def report(workload, seed, trace, metrics, attempted, failed, problems):
    print(f"# workload {workload}, seed {seed}, trace {int(trace)}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:48s} {value:14.6g} {unit}")
    for line in problems[:50]:
        print(f"FAILED {line}")
    if len(problems) > 50:
        print(f"FAILED ... and {len(problems) - 50} more")
    print(f"# attempted {attempted}, failed {failed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "tspkern" / "cli.py").is_file():
        print(f"error: tspkern sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tspkern
    if Path(tspkern.__file__).resolve().parent != SRC / "tspkern":
        print(f"error: imported tspkern from {tspkern.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_into:
        return run_setup(args)

    try:
        if args.workload != "all":
            metrics, attempted, failed, problems = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace))
            report(args.workload, args.seed, args.trace, metrics, attempted, failed, problems)
            declared = {d["name"]: d for d in declared_metrics(bool(args.trace))}
            wrong = sorted(name for name, d in declared.items()
                           if name not in metrics or metrics[name][1] != d["unit"])
            if wrong:
                raise BenchError(f"declared metrics not measured in their unit: {wrong}")
            correct = failed == 0 and not problems
            print(json.dumps({
                "correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": metrics[name][0], "unit": declared[name]["unit"]}
                            for name in declared}}))
            return 0 if correct else 1
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                metrics, attempted, failed, problems = run_workload(
                    workload, args.seed, args.seconds, trace)
                report(workload, args.seed, trace, metrics, attempted, failed, problems)
                ok &= failed == 0 and not problems
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
