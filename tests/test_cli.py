"""End-to-end command-line behavior and exit codes."""

import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tspkern
from tspkern import gadgets, oracle
from tspkern.cli import build_parser, main
from tspkern.gadgets import gen_planted
from tspkern.instance import KINDS, InvariantError, parse_instance, render_instance
from tspkern.pipelines import PIPELINES


TRIANGLE = """p tsp 3 3
b 10
e 1 2 2
e 2 3 3
e 1 3 4
"""


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "tri.grw"
    path.write_text(TRIANGLE)
    return str(path)


def test_solve_yes(triangle, capsys):
    assert main(["solve", triangle]) == 0
    out = capsys.readouterr().out
    assert out.startswith("yes 9")
    assert "witness multiplicities:" in out


def test_solve_no_over_budget(tmp_path, capsys):
    path = tmp_path / "t.grw"
    path.write_text(TRIANGLE.replace("b 10", "b 5"))
    assert main(["solve", str(path)]) == 1
    assert "over budget" in capsys.readouterr().out


def test_solve_engine_choice_and_crosscheck(triangle, capsys):
    assert main(["solve", triangle, "--engine", "heldkarp"]) == 0
    assert main(["solve", triangle, "--cross-check"]) == 0
    assert "cross-check optimum: 9" in capsys.readouterr().out


def test_engine_for_another_kind_is_usage_error(tmp_path, capsys):
    # Held-Karp has no capacities; exit 1 would read as "infeasible"
    path = tmp_path / "cap.grw"
    path.write_text("p wrp 3 3\nb 10\nw 1 2 3\ne 1 2 1 2\ne 2 3 1 2\ne 1 3 1 2\n")
    for extra in ([], ["--cross-check"]):
        assert main(["solve", str(path), "--engine", "heldkarp", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: capacities unsupported by this engine\n"


def test_cross_check_disagreement_is_error(monkeypatch, triangle, capsys):
    # auto solves the triangle by the DP, so the multiplicity engine checks it
    real = oracle.solve_exact_multiplicity

    def off_by_one(inst, caps=oracle.DEFAULT_CAPS):
        res = real(inst, caps)
        return dataclasses.replace(res, opt_weight=res.opt_weight + 1)

    monkeypatch.setattr(oracle, "solve_exact_multiplicity", off_by_one)
    assert main(["solve", triangle, "--cross-check"]) == 2
    err = capsys.readouterr().err
    assert err == "error: cross-check failed: auto optimum 9, multiplicity optimum 10\n"


def test_cross_check_never_checks_an_engine_against_itself(monkeypatch, tmp_path, capsys):
    """auto sends a 16-edge wrp cycle to the treewidth engine, and no other
    engine's cap admits it, so there is nothing to check against: exit 3
    before any engine runs, not after the DP or a second run of it."""
    edges = "".join(f"e {i} {i % 16 + 1} 1 2\n" for i in range(1, 17))
    path = tmp_path / "cycle16.grw"
    path.write_text(f"p wrp 16 16\nb 16\nw {' '.join(map(str, range(1, 17)))}\n{edges}")
    calls = []
    real = oracle.solve_treewidth
    monkeypatch.setattr(oracle, "solve_treewidth", lambda *a: calls.append(1) or real(*a))
    assert main(["solve", str(path), "--cross-check"]) == 3
    out, err = capsys.readouterr()
    assert calls == []
    assert "cross-check optimum" not in out
    assert err == "scale exceeded: oracle scale exceeded: 16 edges > cap 14\n"
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.startswith("yes 16")


def test_solve_scale_exit(tmp_path, capsys):
    """A unit capacity-2 wrp 10x10 grid with waypoints 1 and 100 is past
    every engine at the default caps: its 180 edges are past the
    multiplicity cap, Held-Karp has no capacities, and the grid's width is
    past the DP's."""
    edges = [(r * 10 + c + 1, r * 10 + c + 2) for r in range(10) for c in range(9)]
    edges += [(r * 10 + c + 1, r * 10 + c + 11) for r in range(9) for c in range(10)]
    path = tmp_path / "grid.grw"
    path.write_text(f"p wrp 100 {len(edges)}\nb 99\nw 1 100\n"
                    + "".join(f"e {u} {v} 1 2\n" for u, v in edges))
    assert main(["solve", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "scale exceeded: oracle scale exceeded: decomposition width 13 > cap 8\n"


def test_multiplicity_grid_guard_is_scale_exit(tmp_path, capsys):
    """A 30-cycle of capacity-2 edges, whose grid would have 3^30 rows,
    stops at the edge cap before any grid is built."""
    edges = "".join(f"e {i} {i % 30 + 1} 1 2\n" for i in range(1, 31))
    path = tmp_path / "x.grw"
    path.write_text(f"p wrp 30 30\nb 99\nw 1 2\n{edges}")
    assert main(["solve", str(path), "--engine", "multiplicity"]) == 3
    err = capsys.readouterr().err
    assert err == "scale exceeded: oracle scale exceeded: 30 edges > cap 14\n"


def test_heldkarp_table_guard_is_scale_exit(monkeypatch, tmp_path, capsys):
    """24 waypoints, whose table would have 23 * 2^23 cells, stop at the
    waypoint cap at once with one line, before any shortest-path search,
    not after hours or an allocation of gigabytes."""
    edges = "".join(f"e {i} {i % 30 + 1} 1\n" for i in range(1, 31))
    path = tmp_path / "x.grw"
    path.write_text(f"p stsp 30 30\nb 99\nw {' '.join(map(str, range(1, 25)))}\n{edges}")
    monkeypatch.setattr(oracle, "_apsp_with_paths", None)  # calling it would raise TypeError
    start = time.perf_counter()
    assert main(["solve", str(path), "--engine", "heldkarp"]) == 3
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err == "scale exceeded: oracle scale exceeded: 24 waypoints > cap 18\n"


def _child_env():
    """The environment of a child Python that imports this checkout's tspkern."""
    src = str(Path(tspkern.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_out_of_memory_is_scale_exit(tmp_path, triangle):
    """A run that exhausts the memory the process may use exits 3 with a
    one-line message, not a traceback."""
    resource = pytest.importorskip("resource")
    gib = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (gib, resource.getrlimit(resource.RLIMIT_AS)[1]))

    env = _child_env()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "tspkern.cli", *argv], env=env,
                              preexec_fn=limit, capture_output=True, text=True, timeout=120)

    assert run("solve", triangle).returncode == 0
    for kind in ("tsp", "stsp"):
        (tmp_path / f"{kind}.grw").write_text(f"p {kind} 2000000000 0\nb 0\n")
    for argv in (("solve", str(tmp_path / "tsp.grw")),
                 ("kernelize", str(tmp_path / "stsp.grw"), str(tmp_path / "k.grw"),
                  "--regime", "fes")):
        done = run(*argv)
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == "scale exceeded: out of memory\n"


def test_solve_does_not_import_networkx(triangle, tmp_path):
    """networkx is imported only to decompose a core of degree >= 3, and
    numpy only by the engines and folds that use it, so neither costs a
    command that does not run them.  Importing the package loads neither.
    Nor does solving a triangle, which has no core and which auto sends to
    the DP.  The fes, vc-tsp, components and paths kernels of planted
    200-vertex inputs keep more edges than `compress_weights` enumerates,
    and vertex and component behaviors come from a plain walk, so
    kernelizing them loads no numpy."""
    code = ["import sys",
            "import tspkern, tspkern.cli",
            "from tspkern.cli import main",
            "def loaded(): print('loaded', 'numpy' in sys.modules, 'networkx' in sys.modules)",
            "loaded()",
            f"main(['solve', {triangle!r}])",
            f"main(['solve', {triangle!r}, '--engine', 'treewidth'])",
            "loaded()"]
    kernels = []
    for regime, kind, planted, k, r in (("fes", "tsp", "fes", 5, 1), ("vc-tsp", "tsp", "vc", 3, 1),
                                        ("components", "tsp", "components", 3, 2),
                                        ("paths", "stsp", "paths", 3, 2)):
        src, out = tmp_path / f"{regime}.grw", tmp_path / f"{regime}-kernel.grw"
        src.write_text(render_instance(gen_planted(kind, planted, k, r, 200, seed=1)))
        code += [f"main(['kernelize', {str(src)!r}, {str(out)!r}, '--regime', {regime!r},"
                 f" '--r', '{r}'])", "loaded()"]
        kernels.append(out)
    done = subprocess.run([sys.executable, "-c", "\n".join(code)], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith("loaded")]
    assert lines[:2] == ["loaded False False"] * 2
    assert [line.split()[1] for line in lines[2:]] == ["False"] * 4
    assert all(len(parse_instance(out.read_text()).edges) > 12 for out in kernels)


def test_each_command_loads_only_what_it_runs(triangle, tmp_path):
    """A fresh process imports only the modules its command runs: `solve`
    and `verify` load `instance` and `oracle` but no kernel module, gadget,
    numpy or networkx.  A following `kernelize` loads `pipelines` and still
    no gadgets, and `generate selection` loads the gadgets."""
    unused = [f"tspkern.{name}" for name in ("pipelines", "fes", "preprocess", "report",
                                               "marking", "modulator", "vc", "gadgets")]
    unused += ["numpy", "networkx"]
    code = ["import sys",
            "from tspkern.cli import main",
            f"def loaded(): print('loaded', *[m for m in {unused!r} if m in sys.modules])",
            f"main(['solve', {triangle!r}])",
            f"main(['verify', {triangle!r}, {triangle!r}])",
            "loaded()",
            f"main(['kernelize', {triangle!r}, {str(tmp_path / 'k.grw')!r}, '--regime', 'fes'])",
            "loaded()",
            f"main(['generate', 'selection', {str(tmp_path / 's.grw')!r}, '--length', '3'])",
            "print('gadgets', 'tspkern.gadgets' in sys.modules)"]
    done = subprocess.run([sys.executable, "-c", "\n".join(code)], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()
             if line.startswith(("loaded", "gadgets"))]
    assert lines[0] == ["loaded"]
    assert "tspkern.pipelines" in lines[1] and "tspkern.gadgets" not in lines[1]
    assert lines[2] == ["gadgets", "True"]


def test_unknown_regime_is_one_error_line(tmp_path, triangle, capsys):
    """An unknown `--regime` is rejected by the table that would run it, in
    one `error:` line; `kernelize`'s lists the regimes of `PIPELINES`."""
    out = tmp_path / "k.grw"
    for r in ("1", "0"):  # the regime is checked first
        assert main(["kernelize", triangle, str(out), "--regime", "bogus", "--r", r]) == 2
        assert capsys.readouterr() == (
            "", f"error: unknown regime 'bogus'; choose one of {', '.join(PIPELINES)}\n")
    assert not out.exists()
    assert main(["generate", "planted", str(out), "--kind", "tsp", "--regime", "vc-tsp",
                 "--k", "2", "--n", "5"]) == 2
    assert capsys.readouterr() == ("", "error: unknown regime 'vc-tsp'\n")
    assert not out.exists()


def test_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.grw"
    path.write_text("p tsp x y z\n")
    assert main(["solve", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.grw")]) == 2


def test_directory_input_is_usage_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_kernelize_fes_report_text(tmp_path, capsys):
    src = tmp_path / "in.grw"
    # tree plus one extra edge, one pendant waypoint to fold
    src.write_text("""p wrp 4 4
b 20
e 1 2 3 2
e 2 3 2 2
e 1 3 1 2
e 3 4 5 2
w 1 3 4
""")
    out = tmp_path / "out.grw"
    assert main(["kernelize", str(src), str(out), "--regime", "fes"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("pipeline: fes")
    assert "budget delta:" in text
    kern = parse_instance(out.read_text())
    assert kern.kind == "wrp"


def test_kernelize_json_report(tmp_path, capsys, triangle):
    out = tmp_path / "out.grw"
    assert main(["kernelize", triangle, str(out), "--regime", "vc-tsp",
                 "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"pipeline", "decided", "rule_firings", "marks",
                            "promoted_waypoints", "budget_delta", "stats", "log"}


def test_kernelize_json_is_default_text(tmp_path, capsys, triangle):
    out = tmp_path / "out.grw"
    assert main(["kernelize", triangle, str(out), "--regime", "vc-tsp"]) == 0
    assert capsys.readouterr().out.startswith("pipeline:")


def test_kernelize_decided_writes_trivial(tmp_path, triangle, capsys):
    src = tmp_path / "neg.grw"
    src.write_text(TRIANGLE.replace("b 10", "b -1"))
    out = tmp_path / "out.grw"
    assert main(["kernelize", str(src), str(out), "--regime", "vc-tsp"]) == 0
    kern = parse_instance(out.read_text())
    assert kern.n == 1 and kern.budget < 0
    assert "DECIDED no" in capsys.readouterr().out


def test_kernelize_regime_kind_mismatch(tmp_path, triangle, capsys):
    assert main(["kernelize", triangle, "/dev/null", "--regime", "paths"]) == 2
    err = capsys.readouterr().err
    assert "capacitated path kernels are open" not in err  # tsp, not wrp
    assert main(["kernelize", triangle, "/dev/null", "--regime", "vc-wrp"]) == 2
    capsys.readouterr()
    cap = tmp_path / "cap.grw"
    cap.write_text("p wrp 2 1\nb 9\ne 1 2 1 2\nw 1 2\n")
    assert main(["kernelize", str(cap), "/dev/null", "--regime", "paths"]) == 2
    assert "capacitated path kernels are open" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--regime", "vc-tsp"], "error: no vertex cover within k_max=1"),
    (["--regime", "components", "--r", "1"], "error: no modulator within k_max=1"),
])
def test_kernelize_structure_beyond_k_max_is_usage_error(tmp_path, capsys, argv, message):
    # the triangle needs two vertices to cover it or to split it into singletons
    path = tmp_path / "unit.grw"
    path.write_text("p tsp 3 3\nb 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
    out = tmp_path / "k.grw"
    assert main(["kernelize", str(path), str(out), *argv, "--k-max", "1"]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("regime", tuple(PIPELINES))
def test_kernelize_r_zero_is_usage_error(tmp_path, triangle, capsys, regime):
    """Every regime refuses an r below 1, even those that never read it,
    and before the input is read: a missing input gets the same line."""
    out = tmp_path / "out.grw"
    for path, r in ((triangle, 0), (triangle, -1), (str(tmp_path / "missing.grw"), -1)):
        assert main(["kernelize", path, str(out), "--regime", regime, "--r", str(r)]) == 2
        assert capsys.readouterr().err == f"error: r must be positive, got {r}\n"
    assert not out.exists()


def test_kernelize_log_names_file_vertex(tmp_path, capsys):
    # in the second input, waypoint 1's only edge has capacity 1
    for text, label in ((render_instance(gen_planted("wrp", "vc", 2, 1, 7, seed=13)), 4),
                        ("p wrp 3 2\nb 99\nw 1 3\ne 1 2 1 1\ne 2 3 1 2\n", 1)):
        src = tmp_path / "in.grw"
        src.write_text(text)
        assert main(["kernelize", str(src), str(tmp_path / "out.grw"), "--regime", "vc-wrp",
                     "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decided"] == "no"
        assert f"vertex {label} admits no behavior" in report["log"]


def test_kernelize_behavior_guard_is_scale_exit(tmp_path, capsys):
    # component {1} joined to 13 modulator vertices: 3^13 behavior vectors
    n = 14
    edges = "".join(f"e 1 {m} 1\n" for m in range(2, n + 1))
    hint = " ".join(str(m) for m in range(2, n + 1))
    path = tmp_path / "star.grw"
    path.write_text(f"p tsp {n} {n - 1}\nb 99\nm {hint}\n{edges}")
    assert main(["kernelize", str(path), str(tmp_path / "k.grw"), "--regime", "components"]) == 3
    assert "exceeds guard" in capsys.readouterr().err


def test_verify(tmp_path, triangle, capsys):
    copy = tmp_path / "copy.grw"
    copy.write_text(TRIANGLE)
    assert main(["verify", triangle, str(copy)]) == 0
    assert "equivalent" in capsys.readouterr().out
    tight = tmp_path / "tight.grw"
    tight.write_text(TRIANGLE.replace("b 10", "b 8"))  # opt is 9
    assert main(["verify", triangle, str(tight)]) == 1
    assert "NOT equivalent" in capsys.readouterr().out


def test_one_process_runs_commands_in_turn(tmp_path, triangle, capsys):
    """The parser is built once per process, and each command run through it
    gives the same output the second time round."""
    assert build_parser() is build_parser()
    kern = tmp_path / "kern.grw"
    runs = (["kernelize", triangle, str(kern), "--regime", "fes", "--report", "json"],
            ["solve", triangle],
            ["verify", triangle, str(kern)])
    outputs = []
    for _ in range(2):
        for argv in runs:
            assert main(argv) == 0
            outputs.append((capsys.readouterr().out, kern.read_text()))
    assert outputs[:3] == outputs[3:]
    assert json.loads(outputs[0][0])["pipeline"] == "fes"
    assert outputs[1][0] == "yes 9\nwitness multiplicities: 1 1 1\n"
    assert outputs[2][0] == f"{triangle}: yes\n{kern}: yes\nequivalent\n"


def test_kernel_preserves_verdict_via_verify(tmp_path, triangle):
    out = tmp_path / "kern.grw"
    assert main(["kernelize", triangle, str(out), "--regime", "fes"]) == 0
    assert main(["verify", triangle, str(out)]) == 0


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.grw", tmp_path / "b.grw"
    args = ["generate", "planted", "--kind", "wrp", "--regime", "vc",
            "--k", "2", "--n", "7", "--seed", "3"]
    assert main(args[:2] + [str(a)] + args[2:]) == 0
    assert main(args[:2] + [str(b)] + args[2:]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text().startswith("c planted")


def test_generate_gadgets(tmp_path):
    sel = tmp_path / "sel.grw"
    assert main(["generate", "selection", str(sel), "--length", "3"]) == 0
    inst = parse_instance(sel.read_text())
    assert inst.n == 9 and inst.budget == 6

    cycle = tmp_path / "cycle.grw"
    assert main(["generate", "cycle", str(cycle), "--length", "2"]) == 0
    assert cycle.read_text().startswith("c cycle length=2\n")
    inst = parse_instance(cycle.read_text())
    assert (inst.kind, inst.n, len(inst.edges), inst.budget) == ("stsp", 6, 6, 6)

    mcc = tmp_path / "mcc.grw"
    assert main(["generate", "mcc", str(mcc), "--k", "3", "--n", "2"]) == 0
    parse_instance(mcc.read_text())


def test_usage_error_bad_length(tmp_path, capsys):
    sel = tmp_path / "sel.grw"
    assert main(["generate", "selection", str(sel), "--length", "2"]) == 2
    assert "error" in capsys.readouterr().err


@st.composite
def _mutated_files(draw):
    """The file of a small planted instance, and the same file with at most
    one record broken: dropped, duplicated, swapped with another, an
    unknown record added, an id set to 0 or n + 1, a number set to an
    extreme, or the kind changed.  The header's n stays at 8 or less."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(4, 8))
    inst = gen_planted(kind, draw(st.sampled_from(gadgets.REGIMES)), 2, draw(st.integers(1, 2)),
                       n, (0, 9), draw(st.integers(0, 3)))
    base = render_instance(inst)
    lines = base.splitlines()
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("none", "drop", "duplicate", "swap", "unknown", "id", "number",
                                "kind")))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(j, lines[i])
    elif how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "unknown":
        lines.insert(i, draw(st.sampled_from(("x 1 2", "z", "E 1 2 3"))))
    elif how == "id":
        row = draw(st.sampled_from([k for k, line in enumerate(lines)
                                    if line[0] in "ewm" and len(line.split()) > 1]))
        parts = lines[row].split()
        last = 2 if parts[0] == "e" else len(parts) - 1  # an edge's ids are its two ends
        parts[draw(st.integers(1, last))] = draw(st.sampled_from(("0", str(n + 1))))
        lines[row] = " ".join(parts)
    elif how == "number":
        row = draw(st.sampled_from([k for k, line in enumerate(lines) if line[0] in "be"]))
        parts = lines[row].split()
        # the budget, or an edge's weight or capacity (added where it has none)
        field = 1 if parts[0] == "b" else draw(st.integers(3, 4))
        parts[field:field + 1] = [draw(st.sampled_from(("-1", "0", str(2**63), str(10**30))))]
        lines[row] = " ".join(parts)
    elif how == "kind":
        other = draw(st.sampled_from([k for k in KINDS if k != kind]))
        lines[0] = f"p {other} {n} {len(inst.edges)}"
    return base, "\n".join(lines) + "\n"


_COMMANDS = st.one_of(
    st.builds(lambda engine, check: ["solve", "IN", "--engine", engine] + ["--cross-check"] * check,
              st.sampled_from(("auto", *oracle.ENGINES)), st.booleans()),
    st.builds(lambda regime, r, k_max, report: (
        ["kernelize", "IN", "OUT", "--regime", regime, "--r", str(r), "--report", report]
        + ([] if k_max is None else ["--k-max", str(k_max)])),
        st.sampled_from((*PIPELINES, "bogus")), st.integers(-1, 3),
        st.one_of(st.none(), st.integers(-1, 6)), st.sampled_from(("text", "json"))),
    st.builds(lambda other: ["verify", "IN", other], st.sampled_from(("IN", "BASE"))))


@given(_mutated_files(), _COMMANDS)
@settings(max_examples=150, deadline=None)
def test_every_failure_is_an_exit_code_with_one_stderr_line(files, argv):
    """Whatever the input and the command, `main` returns 0, 1, 2 or 3 and
    raises nothing; 2 and 3 come with one stderr line that names the
    failure, 0 and 1 with none.  No InvariantError is ever made: `main`
    reports one as an `error:` line too, but it is a bug in the program,
    whatever the input."""
    invariants = []

    def spy(self, *args):
        invariants.append(args)
        RuntimeError.__init__(self, *args)

    out, err = io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(InvariantError, "__init__", spy)):
        paths = {name: os.path.join(tmp, f"{name}.grw") for name in ("IN", "BASE", "OUT")}
        for name, text in zip(("BASE", "IN"), files):
            Path(paths[name]).write_text(text)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv])
    assert not invariants, f"InvariantError{invariants[0]}"
    assert code in (0, 1, 2, 3)
    if code >= 2:
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith(("error:", "parse error:", "scale exceeded:"))
    else:
        assert err.getvalue() == ""


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_reaches_every_kernel_entry_point(tmp_path, monkeypatch):
    """The benchmark's tracer (`perfbench/tracer.py`) wraps each kernel entry
    point wherever the CLI reaches it: one kernelize run per regime records
    a call in that regime's span of `perfbench/run.py`'s DRIVERS.  The
    traced benchmark checks this too, but takes minutes."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    with mock.patch.dict(sys.modules):
        run = importlib.import_module("run")
    tracer = run.tracing.Tracer().install()
    try:
        for regime, (kind, planted, r) in {
                "fes": ("stsp", "fes", 1), "vc-tsp": ("tsp", "vc", 1),
                "vc-wrp": ("wrp", "vc", 1), "components": ("tsp", "components", 2),
                "paths": ("stsp", "paths", 2)}.items():
            src = tmp_path / f"{regime}.grw"
            src.write_text(render_instance(gen_planted(kind, planted, 2, r, 7, seed=1)))
            span = tracer.stats[run.DRIVERS[regime]]
            calls = span.calls
            with redirect_stdout(io.StringIO()):
                assert main(["kernelize", str(src), str(tmp_path / "out.grw"),
                             "--regime", regime, "--r", str(r)]) == 0
            assert span.calls == calls + 1, regime
    finally:
        tracer.uninstall()
    assert set(run.DRIVERS) == set(PIPELINES)
