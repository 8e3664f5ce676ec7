"""Golden digests of `tspkern kernelize` output.

Each case writes a planted instance, runs `kernelize` in process once with
`--report json` and once with `--report text`, and hashes the exit code,
stdout, stderr and kernel file of each call into one sha256.  The digests
live in `kernelize.json` beside this script; `tests/test_golden.py`
recomputes them.  A change that is meant to keep every output the same
must leave them unchanged; a change that is meant to alter an output
regenerates the file and says which digests moved and why.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regen.py

and compare with `pytest tests/test_golden.py`.
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
from tspkern.instance import as_wrp, render_instance

GOLDEN = Path(__file__).resolve().parent / "kernelize.json"
SIZES = range(7, 13)
SEEDS = range(3)
FORMATS = ("json", "text")

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


def digest(argv, kernel: Path, work: str) -> str:
    """sha256 over one in-process CLI call's exit code, stdout, stderr and
    kernel file, with the work directory masked out of the streams."""
    out, err = io.StringIO(), io.StringIO()
    kernel.unlink(missing_ok=True)
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = kernel.read_text(encoding="utf-8") if kernel.exists() else None
    record = [code, out.getvalue().replace(work, "<work>"),
              err.getvalue().replace(work, "<work>"), text]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as work:
        src, kernel = Path(work) / "input.grw", Path(work) / "kernel.grw"
        for label, inst, regime, r in inputs():
            src.write_text(render_instance(inst), encoding="utf-8")
            for fmt in FORMATS:
                argv = ["kernelize", str(src), str(kernel), "--regime", regime,
                        "--r", str(r), "--report", fmt]
                out[f"{label} {fmt}"] = digest(argv, kernel, work)
    return out


def main() -> int:
    got = digests()
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(got)} digests to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
