"""Source hygiene: every module-level import in the package is used,
every module-level private function, class or constant is referenced
somewhere in the package, every public function or method is referenced
somewhere in the package or the benchmark harness (a reference from the
tests alone does not count: code only the tests use belongs in the tests,
and neither does a re-export in `__init__.py`, which only the tests could
then be reading), no module uses `assert`, numpy is named only where
the exact engines and weight compression use it, no module reads the
environment, no module takes another's `_private` name, and `__init__.py`
is only the package's docstring.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tspkern"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detector_flags_unused_and_keeps_used():
    src = "import os\nimport sys as system\nfrom a.b import c, d\nprint(system, c)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level `_name` functions, classes and assigned constants."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def references(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported anywhere in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def orphans(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set().union(*(references(tree) for tree in trees.values()))
    return [f"{name} line {line}: {priv}" for name, tree in sorted(trees.items())
            for priv, line in private_definitions(tree).items() if priv not in used]


def test_orphan_detector():
    sources = {"a.py": "_K = 1\n_used = 2\ndef _gone():\n    pass\nclass _Kept:\n    pass\n",
               "b.py": "from .a import _Kept\nprint(_used)\n"}
    assert orphans(sources) == ["a.py line 1: _K", "a.py line 3: _gone"]


def test_no_orphan_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert orphans(sources) == []


def public_functions(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(name, qualified name, line) of every module-level function and every
    method of a module-level class whose name does not start with `_`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out += [(fn.name, f"{node.name}.{fn.name}", fn.lineno) for fn in node.body
                    if isinstance(fn, functions) and not fn.name.startswith("_")]
        elif isinstance(node, functions) and not node.name.startswith("_"):
            out.append((node.name, node.name, node.lineno))
    return out


def unreferenced(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """Public functions and methods of `package` that no source in `package`
    or `users` reads, calls or imports, other than by defining them or by
    re-exporting them from `__init__.py`."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    used = set().union(*(references(tree) for name, tree in trees.items()
                         if name != "__init__.py"),
                       *(references(ast.parse(src)) for src in users.values()))
    return [f"{name} line {line}: {qual}" for name, tree in sorted(trees.items())
            for fn, qual, line in public_functions(tree) if fn not in used]


def test_unreferenced_detector():
    package = {"a.py": "def kept():\n    pass\ndef gone():\n    pass\n"
                       "class K:\n    def used(self):\n        pass\n"
                       "    def idle(self):\n        pass\n"
                       "    def _private(self):\n        pass\n"}
    users = {"run.py": "from a import kept, K\nK().used()\n"}
    assert unreferenced(package, users) == ["a.py line 3: gone", "a.py line 8: K.idle"]


def test_reexport_is_not_a_use():
    package = {"__init__.py": "from .a import exported, kept\n",
               "a.py": "def exported():\n    pass\ndef kept():\n    pass\n"}
    users = {"run.py": "from a import kept\n"}
    assert unreferenced(package, users) == ["a.py line 1: exported"]


def test_package_init_is_its_docstring():
    """`import tspkern` re-exports nothing: callers import the module that
    defines a name, and the version lives in `pyproject.toml`."""
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 1 and isinstance(body[0].value, ast.Constant)


def test_no_unreferenced_public_functions():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    perfbench = {p.name: p.read_text(encoding="utf-8") for p in PERFBENCH.glob("*.py")}
    assert unreferenced(package, perfbench) == []


def asserts(source: str) -> list[int]:
    """Lines of the `assert` statements in `source`: they vanish under
    `python -O`, so a check that guards soundness must raise instead."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_detector():
    assert asserts("x = 1\nassert x\nif x:\n    assert x > 0, 'msg'\n") == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_asserts(path):
    assert asserts(path.read_text(encoding="utf-8")) == []


def report_constructions(source: str) -> list[int]:
    """Lines that call `KernelReport(...)`: a kernel run has one report,
    which `pipelines.kernelize` creates and hands to every step."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "KernelReport"
                 or getattr(node.func, "attr", None) == "KernelReport")]


def test_report_construction_detector():
    src = "r = KernelReport(pipeline='x')\nf(r)\ns = report.KernelReport('y')\nKernelReport\n"
    assert report_constructions(src) == [1, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "pipelines.py"],
                         ids=lambda p: p.name)
def test_only_the_driver_creates_reports(path):
    assert report_constructions(path.read_text(encoding="utf-8")) == []


def shape_memo_uses(source: str) -> list[int]:
    """Lines that define a function or lambda with a `shapes` argument, or
    read `_unit`: which units share a shape, and the round's memo of them,
    belong to `marking.collect_units` alone."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                     if x is not None]
            if "shapes" in names:
                out.append(node.lineno)
        elif (getattr(node, "id", None) == "_unit" or getattr(node, "attr", None) == "_unit"
              or isinstance(node, ast.ImportFrom) and "_unit" in {x.name for x in node.names}):
            out.append(node.lineno)
    return sorted(out)


def test_shape_memo_detector():
    src = ("def f(inst, shapes):\n    pass\ng = lambda key, shapes: key\n"
           "from .marking import _unit\nmarking._unit(x)\nunit(shapes)\n")
    assert shape_memo_uses(src) == [1, 3, 4, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "marking.py"],
                         ids=lambda p: p.name)
def test_only_marking_owns_the_shape_memo(path):
    assert shape_memo_uses(path.read_text(encoding="utf-8")) == []


# `oracle`'s numpy folds, which only the multiplicity engine and weight
# compression use
FOLDS = {"multiplicity_grid", "even_covering", "decode"}


def oracle_names(source: str) -> set[str]:
    """The names `source` takes from `oracle`: imported from it, or read as
    `oracle.<name>`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "oracle":
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "oracle":
            out.add(node.attr)
    return out


def test_oracle_names_detector():
    src = ("from .oracle import _merge_blocks, decode\nfrom tspkern.oracle import even_covering\n"
           "from . import oracle\noracle.multiplicity_grid(x)\nfrom .instance import Edge\n")
    assert oracle_names(src) == {"_merge_blocks", "decode", "even_covering", "multiplicity_grid"}


def test_numpy_only_in_the_engines_and_compression():
    """Vertex and component behaviors come from a plain walk, so numpy is
    named only in `oracle.py` (the multiplicity engine and Held-Karp) and
    `preprocess.py` (weight compression), and `modulator.py` takes none of
    `oracle`'s folds."""
    naming = {p.name for p in PACKAGE.glob("*.py")
              if re.search(r"\bnumpy\b", p.read_text(encoding="utf-8"))}
    assert naming <= {"oracle.py", "preprocess.py"}
    assert not oracle_names((PACKAGE / "modulator.py").read_text(encoding="utf-8")) & FOLDS


def environment_reads(source: str) -> list[int]:
    """Lines that read the process environment: `os.environ` or
    `os.getenv`, or either imported from `os`.  A command's results follow
    from its arguments and input alone, so a variable left in the shell
    cannot change them."""
    names = {"environ", "environb", "getenv", "getenvb"}
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.ImportFrom) and node.module == "os"
                and names & {alias.name for alias in node.names}):
            out.append(node.lineno)
    return sorted(out)


def test_environment_read_detector():
    src = ("import os\nx = os.environ.get('A')\ny = os.getenv('B')\n"
           "from os import environ as env\nos.path.join('a', 'b')\nenviron = {}\n")
    assert environment_reads(src) == [2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """The `_private` names `source` takes from another module: imported
    from it, or read as an attribute of a module of the package that it
    imports.  A name one module's code shares with another is public, and
    named without the underscore."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and not node.module
               for alias in node.names}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, alias.name) for alias in node.names if private(alias.name)]
        elif (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
              and private(node.attr)):
            out.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(out)]


def test_private_import_detector():
    src = ("from .oracle import _merge_blocks, decode\nfrom . import oracle\n"
           "oracle._layout(x)\noracle.solve_auto(x)\nself._dead\nfrom .instance import (\n"
           "    Edge,\n    _renumbered,\n)\nfrom __future__ import annotations\n")
    assert private_imports(src) == ["line 1: _merge_blocks", "line 3: oracle._layout",
                                    "line 6: _renumbered"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
