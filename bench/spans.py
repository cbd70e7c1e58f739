"""Span tracing of the `sepline` modules from outside the library.

`Tracer.install` replaces every public function of every `sepline` module
with a timing wrapper, at every name it is bound to: `solvers` imports
`sep_bitset` from `oracles` and `cli` imports `solve_axis`, and a call
through either name must be seen.  `uninstall` puts the originals back.

A span's inclusive time goes to `busy`; its time minus its wrapped children
goes to `self`.  Spans with no wrapped parent add to `top`, whose share of
an op's wall time is the trace coverage.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

# Entry layer: an op is a call of cli.main, so its own functions are the
# op and are not spans.
ENTRY_MODULE = "sepline.cli"

# Per-point predicates called O(n * L) times, where a wrapper would cost
# more than the call it measures.
LEAVES = {
    "sepline.geometry": {"line_side", "arc_contains", "arc_quadrants",
                         "point_signature", "circle_point_from_parameter",
                         "circle_parameter", "axis_coords", "general_line",
                         "line_through"},
    "sepline.decomposition": {"line_stabs_switch"},
    "sepline.serialization": {"rat_to_str", "rat_from_str", "line_to_doc",
                              "line_from_doc"},
}


def _short(qual: str) -> str:
    return qual[len("sepline."):]


def sepline_modules(pkg) -> dict[str, object]:
    mods = {pkg.__name__: pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        name = f"{pkg.__name__}.{info.name}"
        mods[name] = importlib.import_module(name)
    return mods


class Tracer:
    def __init__(self, pkg, hooks=None):
        """hooks: {"module.function": fn(tracer, args, kwargs, result)}, run
        after each call to record counts from its arguments and result."""
        self.modules = sepline_modules(pkg)
        self.hooks = hooks or {}
        self.originals: dict[str, object] = {}
        for mname, mod in self.modules.items():
            if mname == ENTRY_MODULE or mname == pkg.__name__:
                continue
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mname
                        and not name.startswith("_")
                        and name not in LEAVES.get(mname, ())):
                    self.originals[f"{_short(mname)}.{name}"] = fn
        by_id = {id(fn): qual for qual, fn in self.originals.items()}
        self.wrappers = {qual: self._wrap(qual, fn)
                         for qual, fn in self.originals.items()}
        # every (module, attribute) that holds a wrapped function
        self.bindings = [(mod, name, by_id[id(val)])
                         for mod in self.modules.values()
                         for name, val in vars(mod).items()
                         if id(val) in by_id]
        self.hook_errors: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.depth: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_under: Counter = Counter()   # (callee, immediate caller)
        self.counts: Counter = Counter()
        self.top = 0.0

    def install(self) -> None:
        for mod, name, qual in self.bindings:
            setattr(mod, name, self.wrappers[qual])

    def uninstall(self) -> None:
        for mod, name, qual in self.bindings:
            setattr(mod, name, self.originals[qual])

    def present(self, qual: str) -> bool:
        return qual in self.originals

    def _wrap(self, qual, fn):
        tracer = self
        hook = self.hooks.get(qual)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [qual, 0.0]
            stack.append(frame)
            tracer.depth[qual] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.depth[qual] -= 1
                if not tracer.depth[qual]:  # recursion counts once
                    tracer.busy[qual] += dt
                tracer.self_s[qual] += dt - frame[1]
                tracer.calls[qual] += 1
                tracer.calls_under[(qual, parent)] += 1
                if stack:
                    stack[-1][1] += dt
                else:
                    tracer.top += dt
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the library changed shape under the hook: report, go on
                    tracer.hook_errors[qual] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper
