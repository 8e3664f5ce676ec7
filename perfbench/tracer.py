"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper in
every namespace that bound it: the defining module, every `tspkern` module
that imported the name, and module-level dicts and tuples that hold it
(`oracle.ENGINES`, `fes.FES_RULES`).  A wrapper records calls and self time
(its span minus the time spent in wrapped children) plus a few outcome
counts read from return values.  `uninstall()` restores every binding.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cli", "instance", "preprocess", "fes", "vc", "modulator",
          "pipelines", "oracle", "gadgets")

# (layer, module that defines the function, attribute path in that module)
TARGETS = (
    ("cli", "tspkern.cli", "main"),
    ("cli", "tspkern.cli", "build_parser"),
    ("cli", "tspkern.cli", "cmd_kernelize"),
    ("cli", "tspkern.cli", "cmd_solve"),
    ("cli", "tspkern.cli", "cmd_verify"),
    ("instance", "tspkern.instance", "parse_instance"),
    ("instance", "tspkern.instance", "render_instance"),
    ("instance", "tspkern.instance", "Instance.remove_vertices"),
    ("instance", "tspkern.instance", "Instance.adjacency"),
    ("instance", "tspkern.instance", "Instance.components"),
    ("instance", "tspkern.instance", "compute_vc"),
    ("instance", "tspkern.instance", "find_modulator"),
    ("instance", "tspkern.instance", "compute_fes"),
    ("preprocess", "tspkern.preprocess", "compress_weights"),
    ("preprocess", "tspkern.preprocess", "rr_short_circuit"),
    ("preprocess", "tspkern.preprocess", "ensure_connected"),
    ("preprocess", "tspkern.preprocess", "rr_stop"),
    ("fes", "tspkern.fes", "rr_leaf_cap1"),
    ("fes", "tspkern.fes", "rr_nonterminal_leaf"),
    ("fes", "tspkern.fes", "rr_terminal_leaf"),
    ("fes", "tspkern.fes", "rr_contract_nonterminal_path"),
    ("fes", "tspkern.fes", "rr_replace_terminal_path"),
    ("fes", "tspkern.fes", "kernelize_fes"),
    ("vc", "tspkern.vc", "rule_vc_tsp"),
    ("vc", "tspkern.vc", "rule_vc_wrp"),
    ("vc", "tspkern.vc", "enumerate_vertex_behaviors"),
    ("modulator", "tspkern.modulator", "rule_components_tsp"),
    ("modulator", "tspkern.modulator", "rule_paths_subtsp"),
    ("modulator", "tspkern.modulator", "saturate_path_nonterminals"),
    ("modulator", "tspkern.modulator", "enumerate_component_behaviors"),
    ("pipelines", "tspkern.pipelines", "kernelize_vc_tsp"),
    ("pipelines", "tspkern.pipelines", "kernelize_vc_wrp"),
    ("pipelines", "tspkern.pipelines", "kernelize_components_tsp"),
    ("pipelines", "tspkern.pipelines", "kernelize_paths_subtsp"),
    ("oracle", "tspkern.oracle", "solve_auto"),
    ("oracle", "tspkern.oracle", "solve_exact_multiplicity"),
    ("oracle", "tspkern.oracle", "solve_heldkarp"),
    ("oracle", "tspkern.oracle", "solve_treewidth"),
    ("oracle", "tspkern.oracle", "_apsp_with_paths"),
    ("oracle", "tspkern.oracle", "_run_tw_dp"),
    # the tree decomposition is networkx code that the oracle calls
    ("oracle", "networkx.algorithms.approximation", "treewidth_min_fill_in"),
    ("gadgets", "tspkern.gadgets", "gen_planted"),
    ("gadgets", "tspkern.gadgets", "mcc_to_subtsp"),
    ("gadgets", "tspkern.gadgets", "compose_fn"),
    ("gadgets", "tspkern.gadgets", "compose_degtw"),
)

AUTO_PICKS = {"oracle.solve_exact_multiplicity": "multiplicity",
              "oracle.solve_heldkarp": "heldkarp",
              "oracle.solve_treewidth": "treewidth"}

FES_RULES = ("rr_leaf_cap1", "rr_nonterminal_leaf", "rr_terminal_leaf",
             "rr_contract_nonterminal_path", "rr_replace_terminal_path")

# outcome counters, reported as 0 when never hit
COUNTED = (
    tuple(f"fes.{rule}.fired" for rule in FES_RULES)
    + ("preprocess.compress_weights.applied", "preprocess.compress_weights.skipped")
    + tuple(f"cli.exit.{code}" for code in range(4))
    + tuple(f"oracle.auto.{engine}" for engine in AUTO_PICKS.values())
    + ("oracle.ScaleError.count",)
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)      # span name -> SpanStats
    counters: dict = field(default_factory=dict)   # counter name -> int
    maxima: dict = field(default_factory=dict)     # gauge name -> max value
    _stack: list = field(default_factory=list)     # [name, child seconds]
    _undo: list = field(default_factory=list)
    _seen_errors: set = field(default_factory=set)

    def count(self, name: str):
        self.counters[name] = self.counters.get(name, 0) + 1

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack = tracer._stack
            if name in AUTO_PICKS and stack and stack[-1][0] == "oracle.solve_auto":
                tracer.count(f"oracle.auto.{AUTO_PICKS[name]}")
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._on_error(name, exc)
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st = tracer.stats[name]
                st.calls += 1
                st.self_s += dur - frame[1]
                st.total_s += dur
            tracer._on_result(name, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _on_error(self, name: str, exc: BaseException):
        if name == "cli.main" and isinstance(exc, SystemExit):
            code = exc.code if isinstance(exc.code, int) else 2
            self.count(f"cli.exit.{code}")
        if type(exc).__name__ == "ScaleError" and id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.count("oracle.ScaleError.count")

    def _on_result(self, name: str, result):
        if name == "cli.main":
            self.count(f"cli.exit.{result}")
        elif name.startswith("fes.rr_"):
            if result.verdict != "unchanged":
                self.count(f"{name}.fired")
        elif name == "preprocess.compress_weights":
            if result.verdict == "reduced":
                self.count(f"{name}.applied")
            elif result.log_entry.endswith("scale guard"):
                self.count(f"{name}.skipped")
        elif name == "oracle.treewidth_min_fill_in":
            width = result[0]
            self.maxima["oracle.tw_width.max"] = max(
                width, self.maxima.get("oracle.tw_width.max", 0))

    # -- installing --------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target wherever it is bound; returns self."""
        modules = {m for key, m in sys.modules.items()
                   if key == "tspkern" or key.startswith("tspkern.")}
        for layer, modname, attr in targets:
            name = f"{layer}.{attr}"
            home = importlib.import_module(modname)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(home, owner) if owner else home
            original = holder.__dict__[leaf]
            wrapper = self._wrap(name, original)
            self.stats.setdefault(name, SpanStats())
            self._set(holder, leaf, wrapper)
            if not owner:  # a method is reached through its class only
                for mod in modules | {home}:
                    self._rebind(mod, original, wrapper)
        return self

    def _set(self, holder, key, value):
        if isinstance(holder, dict):
            self._undo.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._undo.append((holder, key, holder.__dict__[key]))
            setattr(holder, key, value)

    def _rebind(self, mod, original, wrapper):
        """Replace `original` in `mod`'s globals and in the dicts and tuples
        of pairs they hold."""
        for key, value in list(vars(mod).items()):
            if value is original:
                self._set(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        self._set(value, k, wrapper)
            elif isinstance(value, tuple) and any(
                    isinstance(item, tuple) and original in item for item in value):
                self._set(mod, key, tuple(
                    tuple(wrapper if x is original else x for x in item)
                    if isinstance(item, tuple) else item for item in value))

    def uninstall(self):
        for holder, key, value in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(st.self_s for name, st in self.stats.items()
                   if name.split(".")[0] == layer)

    def to_json(self) -> dict:
        return {
            "stats": {k: [v.calls, v.self_s, v.total_s] for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }
