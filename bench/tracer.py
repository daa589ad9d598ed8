"""Outside-in tracer for kcalc: spans and counters from the benchmark's side.

kcalc modules import each other's names directly (``from .arith import
factorize``), so a function is reachable through several module attributes.
``Tracer`` replaces the original object under every ``kcalc.*`` attribute
that refers to it, records spans in memory while installed, and puts every
original back on exit.  No kcalc file is changed.

A span is ``(query, name, start, end, parent, size, error)``.  ``parent`` is
the index of the enclosing span (-1 at top level); ``size`` is the input size
the metric needs (bits for ``factorize``, the level n for
``membership_series`` and ``kernel_certificate``).  Self time is a span's
duration minus the durations of its direct children; the benchmark runs one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter

LAYERS = ("cli", "colimit", "odometer", "groupoid", "abelian", "arith")

# Functions timed with a span, as (module, attribute path).
SPANNED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("arith", "factorize"),
    ("arith", "multiplicative_order"),
    ("abelian", "LocalizedQuotient.reduce"),
    ("abelian", "tensor_cyclic_with_localized"),
    ("odometer", "membership_series"),
    ("odometer", "psi"),
    ("odometer", "kernel_certificate"),
    ("odometer", "k0_odometer"),
    ("odometer", "LocallyConstantFn.from_fractions"),
    ("colimit", "prime_power_order_witness"),
    ("colimit", "order_spectrum"),
    ("colimit", "distinguish_colimits"),
    ("colimit", "identify_cuntz_k_theory"),
    ("groupoid", "enumerate_arrows"),
    ("groupoid", "certify_no_isotropy"),
    ("groupoid", "product_with_af"),
)

# Functions only counted: they run too often for a span each.
COUNTED = (
    ("arith", "is_prime"),
    ("arith", "KPowerRational.__init__"),
    ("groupoid", "ArrowClass.__init__"),
    ("groupoid", "Cylinder.__init__"),
)

_SIZES = {
    "arith.factorize": lambda args: args[0].bit_length(),
    "odometer.membership_series": lambda args: args[0].level,
    "odometer.kernel_certificate": lambda args: args[1],
}


def kcalc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "kcalc" or name.startswith("kcalc.")]


class Tracer:
    """Context manager that traces kcalc while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.query = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._factorize_seen: set[int] = set()

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, path in SPANNED:
                self._rebind(module, path, self._spanned)
            for module, path in COUNTED:
                self._rebind(module, path, self._counted)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, module: str, path: str, make) -> None:
        owner = importlib.import_module(f"kcalc.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        name = f"{module}.{path}"
        if outer:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = make(name, fn)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            return
        original = getattr(owner, attr)
        wrapper = make(name, original)
        for mod in kcalc_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_of = _SIZES.get(name)
        is_factorize = name == "arith.factorize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = size_of(args) if size_of is not None else None
            if is_factorize:
                if args[0] in self._factorize_seen:
                    self.counts["arith.factorize.repeats"] += 1
                self._factorize_seen.add(args[0])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.query, name, start, end, parent, size, error)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for query, name, start, end, parent, size, error in self.spans:
                record = {"query": query, "name": name, "start": start, "end": end, "parent": parent}
                if size is not None:
                    record["size"] = size
                if error is not None:
                    record["error"] = error
                fh.write(json.dumps(record) + "\n")

    def totals(self) -> dict:
        """Aggregates over all spans: inclusive and self ms per name, per layer."""
        child_ms = [0.0] * len(self.spans)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000
        inclusive: Counter = Counter()
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        layer_self: Counter = Counter()
        for index, (_, name, start, end, parent, _, _) in enumerate(self.spans):
            ms = (end - start) * 1000
            own = ms - child_ms[index]
            calls[name] += 1
            self_ms[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if not self._has_ancestor(parent, name):
                inclusive[name] += ms
        return {"inclusive": inclusive, "self": self_ms, "calls": calls, "layer_self": layer_self}

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def sizes(self, name: str) -> list[tuple[int, float]]:
        return [(size, (end - start) * 1000) for _, n, start, end, _, size, _ in self.spans if n == name]

    def errors(self, name: str, error: str) -> int:
        return sum(1 for s in self.spans if s[1] == name and s[6] == error)


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(ms) against log(size); 0 with fewer than two sizes."""
    points = [(math.log(n), math.log(ms)) for n, ms in points if n > 0 and ms > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx
