"""Per-layer tracing from outside the package.

The tracer replaces selected public functions of the ``ehresmann`` modules
with timing wrappers, wherever a module holds a reference to them, and puts
the originals back on ``uninstall``.  Each wrapped call is a span; a span's
self time is its duration minus the time of the wrapped calls made inside
it.  Recursive calls of a function already on the stack pass straight
through, so recursion is one span.  Hot leaves (``expr.evaluate``, about
10^6 calls per holonomy) only update counters; other spans are kept in
memory, up to ``MAX_SPANS``, and written out by ``dump``.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# (module, attribute, layer name, hot leaf)
TARGETS = (
    ("expr", "evaluate", "expr.evaluate", True),
    ("expr", "_evaluate_scaled", "expr.evaluate", True),
    ("expr", "normalize", "expr.normalize", False),
    ("expr", "differentiate", "expr.differentiate", False),
    ("expr", "is_zero", "expr.is_zero", False),
    ("expr", "parse", "expr.parse", False),
    ("model", "load", "model.load", False),
    ("connection", "curvature", "connection.curvature", False),
    ("connection", "is_integrable", "connection.is_integrable", False),
    ("connection", "integral_section", "connection.integral_section", False),
    ("connection", "integral_section_residual", "connection.integral_section_residual", False),
    ("jetfield", "is_sopde", "jetfield.is_sopde", False),
    ("jetfield", "sopde_integrability_residuals", "jetfield.sopde_integrability_residuals", False),
    ("jetfield", "second_order_residual", "jetfield.second_order_residual", False),
    ("linear", "is_linear", "linear.is_linear", False),
    ("linear", "christoffels", "linear.christoffels", False),
    ("multivector", "same_class", "multivector.same_class", False),
    ("multivector", "is_transverse", "multivector.is_transverse", False),
    ("transport", "parallel_transport", "transport.parallel_transport", False),
    ("transport", "holonomy", "transport.holonomy", False),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))
MODULES = tuple(dict.fromkeys(layer.split(".")[0] for layer in LAYERS))
MAX_SPANS = 200_000


class _Layer:
    __slots__ = ("calls", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.active = False


class Tracer:
    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.errors = {module: 0 for module in MODULES}
        self.counts = {"is_zero_structural": 0, "rk4_steps": 0, "rhs_evals": 0}
        self.stack = []  # [child seconds, layer, span id, structural flag]
        self.spans = []
        self.dropped = 0
        self.op = 0
        self._next_id = 0
        self._plan = []  # (module, attribute, original, wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch the wrappers in; the first call finds every reference."""
        if not self._plan:
            import ehresmann  # noqa: F401  (loads every module)
            from ehresmann.errors import EhresmannError

            modules = [m for name, m in sys.modules.items()
                       if name == "ehresmann" or name.startswith("ehresmann.")]
            for module_name, attr, layer, hot in TARGETS:
                original = getattr(sys.modules[f"ehresmann.{module_name}"], attr)
                make = self._hot if hot else self._span
                wrapper = make(layer, original, EhresmannError)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._plan.append((module, key, original, wrapper))
        for module, key, _, wrapper in self._plan:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in reversed(self._plan):
            setattr(module, key, original)

    # -- wrappers ----------------------------------------------------------

    def _hot(self, layer, original, error_type):
        rec, stack = self.layers[layer], self.stack

        def wrapper(*args, **kwargs):
            if rec.active:
                return original(*args, **kwargs)
            rec.active = True
            frame = [0.0, layer, -1, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            except error_type:
                self._error(layer)
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                rec.active = False
                rec.calls += 1
                rec.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _span(self, layer, original, error_type):
        rec, stack = self.layers[layer], self.stack
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            if rec.active:
                return original(*args, **kwargs)
            if layer == "transport.parallel_transport":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts["rk4_steps"] += bound.arguments["steps"]
                self.counts["rhs_evals"] += 4 * bound.arguments["steps"]
            rec.active = True
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [0.0, layer, self._next_id, None]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except error_type:
                self._error(layer)
                raise
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                rec.active = False
                rec.calls += 1
                rec.self_s += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                    # share of is_zero calls decided by normalize alone
                    if (layer == "expr.normalize" and parent[1] == "expr.is_zero"
                            and parent[3] is None):
                        parent[3] = type(result).__name__ == "Const"
                if layer == "expr.is_zero" and frame[3]:
                    self.counts["is_zero_structural"] += 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((layer, start, end, frame[2],
                                       parent[2] if parent else 0, self.op))
                else:
                    self.dropped += 1

        return wrapper

    def _error(self, layer):
        """Count an error once, where it leaves its module."""
        module = layer.split(".")[0]
        caller = self.stack[-2][1] if len(self.stack) > 1 else None
        if caller is None or caller.split(".")[0] != module:
            self.errors[module] += 1

    # -- results -----------------------------------------------------------

    def snapshot(self):
        return {
            "layers": {k: [v.calls, v.self_s] for k, v in self.layers.items()},
            "errors": dict(self.errors),
            "counts": dict(self.counts),
        }

    def dump(self, path):
        data = self.snapshot()
        data["spans"] = self.spans
        data["dropped"] = self.dropped
        with open(path, "w") as handle:
            json.dump(data, handle)


def merge(snapshots):
    """Sum of several snapshots (for example one per CLI process)."""
    total = {"layers": {k: [0, 0.0] for k in LAYERS},
             "errors": {m: 0 for m in MODULES},
             "counts": {"is_zero_structural": 0, "rk4_steps": 0, "rhs_evals": 0}}
    for snap in snapshots:
        for k, (calls, self_s) in snap["layers"].items():
            total["layers"][k][0] += calls
            total["layers"][k][1] += self_s
        for k, v in snap["errors"].items():
            total["errors"][k] += v
        for k, v in snap["counts"].items():
            total["counts"][k] += v
    return total
