"""Span tracing of sepkit's public functions, from outside the package.

Each traced function is replaced, for the duration of a `Tracer` context, by
a wrapper in every sepkit module that holds a reference to it: the defining
module (which is how `core.minimize_linear_zform` and the solver's own calls
to its scanners are reached) and every module that imported the name with
`from .x import name`.  Spans (name, start, end, parent) stay in memory and
are written once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name); the layer is the span name's first part
TRACED = (
    ("graphs", "exact_balanced_separator", "graphs.exact"),
    ("graphs", "brute_force_cut_values", "graphs.enum"),
    ("embeddings", "check_feasibility", "embeddings.check"),
    ("embeddings", "embedding_from_gram", "embeddings.factor"),
    ("solver_core", "minimize_linear_zform", "solver_core.subproblem"),
    ("solver_core", "scan_triangle_violations", "solver_core.scan"),
    ("solver_core", "max_triangle_violation_z", "solver_core.scan"),
    ("sdp", "solve_sdp", "sdp.solve"),
    ("concave", "solve_concave", "concave.solve"),
    ("concave", "objective_gradient", "concave.gradient"),
    ("rounding", "pipeline", "rounding.pipeline"),
    ("rounding", "modified_set_find", "rounding.setfind"),
    ("rounding", "produce_cut", "rounding.cut"),
    ("cli", "main", "cli.main"),
)


def layer(name):
    return name.split(".")[0]


class Tracer:
    """Context manager that patches the TRACED functions and records spans."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []
        core = sys.modules["sepkit.solver_core"]
        sig = inspect.signature(core.minimize_linear_zform)
        self._max_rounds = sig.parameters["max_rounds"].default

    def _observe(self, name, kwargs, out):
        if name == "solver_core.subproblem":
            self.counts["evals"] += out.iterations
            self.counts["al_rounds"] += out.rounds
            self.counts["active_triangles"] += out.active_triangles
            if out.rounds >= kwargs.get("max_rounds", self._max_rounds):
                self.counts["round_cap_hits"] += 1
        elif name == "rounding.setfind":
            self.counts["setfind_halts"] += bool(out.halted)
            self.counts["setfind_successes"] += bool(out.success)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()
            self._observe(name, kwargs, out)
            return out

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key.startswith("sepkit")]
        for mod_name, fn_name, span in TRACED:
            original = getattr(sys.modules[f"sepkit.{mod_name}"], fn_name)
            wrapper = self._wrap(span, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))
        return self

    def __exit__(self, *exc):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()
        return False

    def dump(self, path, facts):
        doc = {"facts": facts, "counts": dict(self.counts), "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer, passes):
    """Per-layer figures per pass of the workload's item list."""
    spans = tracer.spans
    children = defaultdict(list)
    for idx, (_, _, _, parent) in enumerate(spans):
        children[parent].append(idx)

    def foreign(idx, own):
        """Time under span idx covered by the nearest spans of other layers."""
        total = 0.0
        for ch in children[idx]:
            name, start, end, _ = spans[ch]
            total += (end - start) if layer(name) != own else foreign(ch, own)
        return total

    calls = defaultdict(int)
    incl = defaultdict(float)
    layer_self = defaultdict(float)
    for idx, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        own = layer(name)
        if parent < 0 or layer(spans[parent][0]) != own:
            layer_self[own] += (end - start) - foreign(idx, own)

    cnt = tracer.counts
    evals = cnt["evals"]
    attempts = calls["rounding.setfind"]
    per_pass = {
        "graphs.exact.calls": (calls["graphs.exact"], "count"),
        "graphs.exact.s": (incl["graphs.exact"], "s"),
        "graphs.enum.calls": (calls["graphs.enum"], "count"),
        "graphs.enum.s": (incl["graphs.enum"], "s"),
        "solver_core.subproblems": (calls["solver_core.subproblem"], "count"),
        "solver_core.s": (layer_self["solver_core"], "s"),
        "solver_core.evals": (evals, "count"),
        "solver_core.al_rounds": (cnt["al_rounds"], "count"),
        "solver_core.scan.calls": (calls["solver_core.scan"], "count"),
        "solver_core.scan.s": (incl["solver_core.scan"], "s"),
        "solver_core.active_triangles": (cnt["active_triangles"], "count"),
        "solver_core.round_cap_hits": (cnt["round_cap_hits"], "count"),
        "sdp.solves": (calls["sdp.solve"], "count"),
        "sdp.s": (incl["sdp.solve"], "s"),
        "concave.solves": (calls["concave.solve"], "count"),
        "concave.s": (layer_self["concave"], "s"),
        "concave.gradient.calls": (calls["concave.gradient"], "count"),
        "concave.gradient.s": (incl["concave.gradient"], "s"),
        "embeddings.check.calls": (calls["embeddings.check"], "count"),
        "embeddings.check.s": (incl["embeddings.check"], "s"),
        "embeddings.factor.calls": (calls["embeddings.factor"], "count"),
        "embeddings.factor.s": (incl["embeddings.factor"], "s"),
        "rounding.pipelines": (calls["rounding.pipeline"], "count"),
        "rounding.attempts": (attempts, "count"),
        "rounding.setfind.halts": (cnt["setfind_halts"], "count"),
        "rounding.setfind.s": (incl["rounding.setfind"], "s"),
        "rounding.cut.calls": (calls["rounding.cut"], "count"),
        "rounding.cut.s": (incl["rounding.cut"], "s"),
        "rounding.s": (layer_self["rounding"], "s"),
        "cli.calls": (calls["cli.main"], "count"),
        "cli.s": (layer_self["cli"], "s"),
    }
    out = {k: {"value": v / passes, "unit": u} for k, (v, u) in per_pass.items()}
    scan_s = incl["solver_core.scan"]
    out["solver_core.us_per_eval"] = {
        "value": 1e6 * (layer_self["solver_core"] - scan_s) / evals if evals else 0.0,
        "unit": "us",
    }
    out["rounding.successes_per_attempt"] = {
        "value": cnt["setfind_successes"] / attempts if attempts else 0.0,
        "unit": "ratio",
    }
    return out
