"""Golden digests of `tspkern kernelize`, `solve` and `verify` output.

Each input of `kernelize.json` and `solve.json` is a planted instance.
`kernelize` runs on it in process once with `--report json` and once with
`--report text`; each call's exit code, stdout, stderr and kernel file are
hashed into one sha256.  `solve` (engine auto) runs on it once; its exit
code, stdout without the `witness multiplicities:` line, and stderr are
hashed, and the witness is checked with `check_certificate` instead, so an
engine change that breaks ties differently keeps the digest.

`corpora.json` covers the seed-1 corpora of the three benchmark workloads
(`perfbench/corpus.py`).  Each operation runs through `perfbench/run.py`'s
`run_op`, so the argv are the benchmark's own, and each of its calls gets
one sha256 over the exit code, stdout, stderr and (for `kernelize`) the
kernel file, with the work directory masked.  Solve witnesses are checked
and dropped as above.

`parse_errors.json` holds one digest per file of `malformed/`: each file
makes `parse_instance` fail with one of its messages (or the `Instance`
error it passes on), and most also hold a second fault that the message
must win over.  `solve` runs on each, and its exit code, stdout and stderr
are hashed.

The digests live beside this script; `tests/test_golden.py` recomputes
them.  A change that is meant to keep every output the same must leave them
unchanged; a change that is meant to alter an output regenerates the files
and says which digests moved and why.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regen.py

and compare with `pytest tests/test_golden.py`.  Before it writes a file,
the script prints each key whose digest moved, was added or was removed.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tspkern import cli
from tspkern.gadgets import gen_planted
from tspkern.instance import as_wrp, parse_instance, render_instance
from tspkern.oracle import check_certificate, make_solution

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "perfbench"))
import corpus  # noqa: E402  (perfbench/corpus.py)
import run as bench  # noqa: E402  (perfbench/run.py)

SIZES = range(7, 13)
SEEDS = range(3)
FORMATS = ("json", "text")
CORPUS_SEED = 1
WITNESS = "witness multiplicities:"

# name -> (kind, gen_planted regime, k, r, reinterpret as wrp, kernelize regime)
CASES = {
    "fes-tsp": ("tsp", "fes", 2, 1, False, "fes"),
    "fes-stsp": ("stsp", "fes", 2, 1, False, "fes"),
    "fes-wrp": ("wrp", "fes", 2, 1, False, "fes"),
    "vc-tsp": ("tsp", "vc", 2, 1, False, "vc-tsp"),
    "vc-wrp-stsp": ("stsp", "vc", 2, 1, True, "vc-wrp"),
    "vc-wrp": ("wrp", "vc", 2, 1, False, "vc-wrp"),
    "components-r1": ("tsp", "components", 2, 1, False, "components"),
    "components-r2": ("tsp", "components", 2, 2, False, "components"),
    "paths-r1": ("stsp", "paths", 2, 1, False, "paths"),
    "paths-r2": ("stsp", "paths", 2, 2, False, "paths"),
}

# one input beyond the small sizes: it fires two vc-wrp rounds and promotes
# a waypoint, which no small input does
EXTRA = (("vc-wrp-stsp", 80, 1),)


def inputs():
    """(label, instance, regime, r) for every golden input."""
    runs = [(name, n, seed) for name in CASES for n in SIZES for seed in SEEDS]
    for name, n, seed in runs + list(EXTRA):
        kind, planted, k, r, wrp, regime = CASES[name]
        inst = gen_planted(kind, planted, k, r, n, seed=seed)
        yield f"{name} n={n} seed={seed}", as_wrp(inst) if wrp else inst, regime, r


def call(argv, work: str):
    """One in-process CLI call: its exit code, stdout and stderr, with the
    work directory masked out of the streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().replace(work, "<work>"), err.getvalue().replace(work, "<work>")


def sha256(record) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def without_witness(label: str, inst, stdout: str) -> str:
    """`stdout` without its witness line; ValueError when the witness is
    not a certificate at the printed optimum."""
    lines = stdout.splitlines(keepends=True)
    for line in lines:
        if line.startswith(WITNESS):
            sol = make_solution(inst, map(int, line[len(WITNESS):].split()))
            if f"yes {sol.total_weight}\n" not in lines or not check_certificate(inst, sol):
                raise ValueError(f"{label}: the witness is not a certificate at the optimum")
    return "".join(line for line in lines if not line.startswith(WITNESS))


def kernelize_digests(work: str) -> dict[str, str]:
    src, kernel = Path(work) / "input.grw", Path(work) / "kernel.grw"
    out = {}
    for label, inst, regime, r in inputs():
        src.write_text(render_instance(inst), encoding="utf-8")
        for fmt in FORMATS:
            kernel.unlink(missing_ok=True)
            code, stdout, stderr = call(["kernelize", str(src), str(kernel), "--regime", regime,
                                         "--r", str(r), "--report", fmt], work)
            text = kernel.read_text(encoding="utf-8") if kernel.exists() else None
            out[f"{label} {fmt}"] = sha256([code, stdout, stderr, text])
    return out


def solve_digests(work: str) -> dict[str, str]:
    src = Path(work) / "input.grw"
    out = {}
    for label, inst, _, _ in inputs():
        src.write_text(render_instance(inst), encoding="utf-8")
        code, stdout, stderr = call(["solve", str(src)], work)
        out[label] = sha256([code, without_witness(label, inst, stdout), stderr])
    return out


def corpora_digests(work: str) -> dict[str, str]:
    out = {}
    for workload, build in corpus.BUILDERS.items():
        root = Path(work) / workload
        inputs_dir, kernels = root / "corpus", root / "kernels"
        inputs_dir.mkdir(parents=True)
        kernels.mkdir()
        files, ops = build(CORPUS_SEED)
        for name, text in files.items():
            (inputs_dir / name).write_text(text, encoding="utf-8")
        for op in ops:
            kernel = kernels / op["input"]
            for c in bench.run_op(cli, op, inputs_dir, kernels):
                label = f"{workload} {op['name']} {c.command}"
                stdout, stderr = (s.replace(work, "<work>") for s in (c.stdout, c.stderr))
                if c.command == "solve":
                    stdout = without_witness(label, parse_instance(files[op["input"]]), stdout)
                text = (kernel.read_text(encoding="utf-8")
                        if c.command == "kernelize" and kernel.exists() else None)
                out[label] = sha256([c.code, stdout, stderr, text])
    return out


def parse_error_digests(work: str) -> dict[str, str]:
    return {path.stem: sha256(call(["solve", str(path)], work))
            for path in sorted((HERE / "malformed").glob("*.grw"))}


FILES = {"kernelize.json": kernelize_digests, "solve.json": solve_digests,
         "corpora.json": corpora_digests, "parse_errors.json": parse_error_digests}


def digests() -> dict[str, dict[str, str]]:
    """Golden file name -> its digests, recomputed."""
    with tempfile.TemporaryDirectory() as work:
        return {name: compute(work) for name, compute in FILES.items()}


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per key whose digest moved, was added or was removed."""
    return ([f"moved {key}" for key in sorted(old.keys() & new.keys()) if old[key] != new[key]]
            + [f"added {key}" for key in sorted(new.keys() - old.keys())]
            + [f"removed {key}" for key in sorted(old.keys() - new.keys())])


def main() -> int:
    for name, got in digests().items():
        path = HERE / name
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        for line in changes(old, got):
            print(f"{name}: {line}")
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} digests to {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
