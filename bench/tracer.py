"""Outside-in tracer: spans around opx's public functions, no change to opx.

``Tracer.install`` wraps every function in the ``__all__`` of each layer
module, plus ``KernelContext.__init__`` and ``FamilySpec.coefficient``.
Modules bind names such as ``eval_table`` and ``gauss_rule`` at import
(``from .families import eval_table``), so the wrapper replaces the
function in every ``opx`` module namespace that holds it, not only in the
one that defines it.  ``uninstall`` restores the originals.

A span records its layer and the time its child spans cover; its self time
is its duration minus that.  A function that calls itself through its
module name (``render_json``) is one span: while it runs, its module name
is bound back to the original, so the recursion pays no tracing cost.  An
exception is counted in ``<layer>.errors`` where it leaves the layer: when
the span it leaves has no parent, or a parent in another layer.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import inspect
import sys
import types
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("families", "moments", "kernels", "quasi", "transforms", "ratios", "cli")
RECOVERY_POLYS = (
    "christoffel_recovery_poly",
    "geronimus_recovery_poly",
    "uvarov_recovery_poly",
    "order2_recovery_poly",
)
_INTEGRATE = "moments.integrate_until_stable"


def _calls_itself(fn) -> bool:
    """Whether module function ``fn`` looks up its own name as a global,
    nested code included."""
    if fn.__globals__.get(fn.__name__) is not fn:
        return False
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        if fn.__name__ in code.co_names:
            return True
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return False


class _Span:
    __slots__ = ("key", "layer", "child", "cap", "top")

    def __init__(self, key: str, layer: str):
        self.key = key
        self.layer = layer
        self.child = 0.0
        self.cap = 0  # integrate_until_stable: its max_order argument
        self.top = 0  # integrate_until_stable: highest rule order it ran


class Tracer:
    """Collects per-function and per-layer counters while installed."""

    def __init__(self):
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.keys: set[str] = set()  # the "<layer>.<name>" of every span source
        self._stack: list[_Span] = []
        self._undo: list[tuple[object, str, object]] = []
        # (family, m) pairs whose rule was built, weakly keyed by family like
        # the rule cache in opx.moments, so a cold call means a real eigensolve
        self._built_rules: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        moments = importlib.import_module("opx.moments")
        self._integrate_signature = inspect.signature(moments.integrate_until_stable)
        for layer in LAYERS:
            module = importlib.import_module(f"opx.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._rebind(fn, self._wrap(layer, f"{layer}.{name}", fn))
        kernels = importlib.import_module("opx.kernels")
        families = importlib.import_module("opx.families")
        self._patch(kernels.KernelContext, "__init__", "kernels", "kernels.KernelContext")
        self._patch(families.FamilySpec, "coefficient", "families", "families.coefficient")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "opx" or name.startswith("opx.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch(self, cls, attr: str, layer: str, key: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(layer, key, original))

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn):
        stack = self._stack
        stats = self.stats
        before = getattr(self, "_before_" + key.replace(".", "_"), None)
        after = getattr(self, "_after_" + key.replace(".", "_"), None)
        if key.split(".")[-1] in RECOVERY_POLYS:
            stats_key = "transforms.recovery_poly.calls"
        else:
            stats_key = key + ".calls"

        recursive = _calls_itself(fn)
        scope = fn.__globals__

        def wrapper(*args, **kwargs):
            span = _Span(key, layer)
            if before is not None:
                before(span, args, kwargs)
            stack.append(span)
            if recursive:
                scope[fn.__name__] = fn
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2].layer != layer:
                    stats[layer + ".errors"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                if recursive:
                    scope[fn.__name__] = wrapper
                stack.pop()
                own = elapsed - span.child
                stats[key + ".self_s"] += own
                stats[layer + ".self_s"] += own
                stats[stats_key] += 1
                if stack:
                    stack[-1].child += elapsed
            if after is not None:
                after(span, args, result)
            return result

        self.keys.add(key)
        return functools.update_wrapper(wrapper, fn)

    # -- per-function counters ----------------------------------------------

    def _before_moments_gauss_rule(self, span, args, kwargs):
        m = args[1] if len(args) > 1 else kwargs["m"]
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.key == _INTEGRATE:
            parent.top = max(parent.top, m)
            self.stats[_INTEGRATE + ".max_order"] = max(self.stats[_INTEGRATE + ".max_order"], m)

    def _after_moments_gauss_rule(self, span, args, result):
        built = self._built_rules.setdefault(args[0], set())
        if result.order not in built:
            built.add(result.order)
            self.stats["moments.gauss_rule.cold"] += 1
            self.stats["moments.gauss_rule.cold_nodes"] += result.order

    def _before_moments_integrate_until_stable(self, span, args, kwargs):
        bound = self._integrate_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        span.cap = bound.arguments["max_order"]

    def _after_moments_integrate_until_stable(self, span, args, result):
        # the order doubles, so the cap is reached when one more doubling
        # would pass max_order (equal to it when the start order divides it)
        self.stats[_INTEGRATE + ".cap_hits"] += 2 * span.top > span.cap

    def _before_families_eval_table(self, span, args, kwargs):
        xs = args[2] if len(args) > 2 else kwargs["xs"]
        self.stats["families.eval_table.points"] += np.size(xs)

    def _before_kernels_kernel_poly(self, span, args, kwargs):
        x = args[2] if len(args) > 2 else kwargs["x"]
        self.stats["kernels.kernel_poly.points"] += np.size(x)

    def _before_kernels_KernelContext(self, span, args, kwargs):
        n_max = args[3] if len(args) > 3 else kwargs["n_max"]
        self.stats["kernels.KernelContext.n_total"] += n_max

    def _after_ratios_kernel_ratio_limit(self, span, args, result):
        if not all(cmath.isfinite(v) for v in result):
            self.stats["ratios.kernel_ratio_limit.nonfinite"] += 1
