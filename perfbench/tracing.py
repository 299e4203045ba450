"""Per-layer tracing from outside the engine.

``install()`` wraps the public functions of each ``resbound`` module and
rebinds every reference to them, including the names other modules took with
``from ... import``, so no call goes uncounted.  Spans (function, start, end,
parent span) are kept in memory and turned into per-function counts,
inclusive times and self times (span minus the spans it caused) when the
worker ends.  Hot recursive helpers are counted, not timed: their time stays
in the caller's self time, and their inner recursion runs unwrapped.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module, attribute, mode): "span" records a timed span; "count" only counts
# outermost calls.
TARGETS = (
    ("scenario", "load", "span"),
    ("cli", "run_command", "span"),
    ("theory", "build_theory", "span"),
    ("theory", "prove", "span"),
    ("theory", "check_proof", "span"),
    ("theory", "theorems_up_to", "span"),
    ("theory", "soundness_check", "span"),
    ("theory", "substitute", "count"),
    ("expressions", "expression_cost", "count"),
    ("expressions", "max_length", "count"),
    ("statements", "evaluate", "count"),
    ("statements", "render", "count"),
    ("statements", "enumerate_statements", "span"),
    ("statements", "min_cost", "span"),
    ("statements", "strategy_cost", "count"),
    ("statements", "verify", "span"),
    ("statements", "non_closure_witness", "span"),
    ("resources", "pareto_min", "span"),
    ("lattice", "TheoryGrid.build", "span"),
    ("lattice", "extension_edges", "span"),
    ("lattice", "first_appearance_theorem", "span"),
    ("lattice", "check_extension_monotonicity", "span"),
    ("reflection", "reflect_extend", "span"),
    ("reflection", "reflection_chain", "span"),
    ("observer", "step", "span"),
    ("world", "implement", "count"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.prove_requests: dict = {}

    def span(self, name: str, original):
        index = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self.stack

        def wrapper(*args, **kwargs):
            sid = len(fn)
            fn.append(index)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(sid)
            try:
                return original(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def count(self, name: str, module, attr: str, original):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            # inner recursion goes through the module global: unwrap it
            setattr(module, attr, original)
            try:
                return original(*args, **kwargs)
            finally:
                setattr(module, attr, wrapper)

        return wrapper

    def watch_prove(self, original, render):
        """Distinct (theory, goal, step bound) requests, and what they found."""
        requests = self.prove_requests

        def wrapper(theory, goal, max_steps=None):
            proof = original(theory, goal, max_steps)
            steps = theory.max_proof_steps if max_steps is None else max_steps
            key = (id(theory), render(goal), steps)
            if key not in requests:
                requests[key] = 0 if proof is None else len(proof.steps)
            return proof

        return wrapper

    def summary(self) -> dict:
        """Counts, inclusive seconds and self seconds per traced function."""
        n = len(self.fn)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for sid in range(n):
            name = self.names[self.fn[sid]]
            dur = self.end[sid] - self.start[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[sid]
            # inclusive time counts only the outermost span of a function
            p = self.parent[sid]
            nested = False
            while p >= 0:
                if self.fn[p] == self.fn[sid]:
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                out[f"{name}.s"] += dur
        for name, value in self.counts.items():
            out[f"{name}.calls"] = value
        found = [s for s in self.prove_requests.values() if s]
        out["theory.prove.distinct"] = len(self.prove_requests)
        out["theory.prove.found"] = len(found)
        out["theory.proof_steps"] = sum(found)
        out["trace.spans"] = n
        return out


def install() -> Tracer:
    """Wrap every target and rebind each reference in the loaded package."""
    tracer = Tracer()
    modules = {
        name: importlib.import_module(f"resbound.{name}")
        for name in {t[0] for t in TARGETS}
    }
    statements = modules["statements"]
    replaced: dict = {}
    for mod_name, attr, mode in TARGETS:
        module = modules[mod_name]
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth].__func__
            setattr(cls, meth, classmethod(tracer.span(name, original)))
            continue
        original = getattr(module, attr)
        if mode == "count":
            wrapper = tracer.count(name, module, attr, original)
        else:
            inner = original
            if name == "theory.prove":
                inner = tracer.watch_prove(original, statements.render)
            wrapper = tracer.span(name, inner)
        replaced[id(original)] = (original, wrapper)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "resbound" and not mod_name.startswith("resbound."):
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
    return tracer
