"""End-to-end command-line behavior and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tspkern
from tspkern import oracle
from tspkern.cli import build_parser, main
from tspkern.gadgets import gen_planted
from tspkern.instance import parse_instance, render_instance


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
    real = oracle.solve_treewidth

    def off_by_one(inst, caps):
        res = real(inst, caps)
        return dataclasses.replace(res, opt_weight=res.opt_weight + 1)

    monkeypatch.setattr(oracle, "solve_treewidth", off_by_one)
    assert main(["solve", triangle, "--cross-check"]) == 2
    err = capsys.readouterr().err
    assert err == "error: cross-check failed: auto optimum 9, treewidth optimum 10\n"


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


def test_solve_scale_exit(monkeypatch, triangle):
    monkeypatch.setenv("TSPKERN_CAP_MULT_EDGES", "1")
    monkeypatch.setenv("TSPKERN_CAP_HK_WAYPOINTS", "1")
    monkeypatch.setenv("TSPKERN_CAP_TW_WIDTH", "0")
    assert main(["solve", triangle]) == 3


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


def test_solve_does_not_import_networkx(triangle):
    """networkx is imported only to decompose a core of degree >= 3, and a
    triangle has none, whichever engine solves it."""
    code = ("import sys\n"
            "from tspkern.cli import main\n"
            f"main(['solve', {triangle!r}])\n"
            f"main(['solve', {triangle!r}, '--engine', 'treewidth'])\n"
            "print('networkx' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


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


def test_non_integer_cap_is_usage_error(monkeypatch, triangle, capsys):
    """A TSPKERN_CAP_* value that is not an integer, or that is above its
    default, exits 2 with one line naming the variable; a cap may only be
    lowered, so a value equal to the default changes nothing."""
    assert main(["solve", triangle]) == 0
    unset = capsys.readouterr()
    for var, name in (("TSPKERN_CAP_MULT_EDGES", "multiplicity_edges"),
                      ("TSPKERN_CAP_HK_WAYPOINTS", "heldkarp_waypoints"),
                      ("TSPKERN_CAP_TW_WIDTH", "treewidth_width")):
        default = getattr(oracle.DEFAULT_CAPS, name)
        for raw in ("abc", str(default + 1)):
            monkeypatch.setenv(var, raw)
            assert main(["solve", triangle]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {var}") and captured.err.count("\n") == 1
            assert "Traceback" not in captured.err
        monkeypatch.setenv(var, str(default))
        assert main(["solve", triangle]) == 0
        assert capsys.readouterr() == unset
        monkeypatch.delenv(var)


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


def test_kernelize_r_zero_is_usage_error(tmp_path, triangle, capsys):
    assert main(["kernelize", triangle, str(tmp_path / "out.grw"),
                 "--regime", "components", "--r", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_kernelize_log_names_file_vertex(tmp_path, capsys):
    src = tmp_path / "in.grw"
    src.write_text(render_instance(gen_planted("wrp", "vc", 2, 1, 7, seed=13)))
    assert main(["kernelize", str(src), str(tmp_path / "out.grw"), "--regime", "vc-wrp",
                 "--report", "json"]) == 0
    assert "vertex 4 admits no behavior" in json.loads(capsys.readouterr().out)["log"]


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

    mcc = tmp_path / "mcc.grw"
    assert main(["generate", "mcc", str(mcc), "--k", "3", "--n", "2"]) == 0
    parse_instance(mcc.read_text())


def test_usage_error_bad_length(tmp_path, capsys):
    sel = tmp_path / "sel.grw"
    assert main(["generate", "selection", str(sel), "--length", "2"]) == 2
    assert "error" in capsys.readouterr().err
