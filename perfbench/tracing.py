"""Per-layer tracing of the ``bottfano`` modules from outside the program.

``Tracer.install`` rebinds each traced public function in every
``bottfano`` module namespace that holds it (``fan.det`` and
``lattice.det`` are the same function), and wraps ``__post_init__`` of
the traced dataclasses.  A wrapped call records a span: name, start, end
and the index of the enclosing span.  Spans stay in memory, in flat
arrays, until the run ends.  ``mu`` and ``nu`` are called millions of
times in a sweep, so they only count calls.

A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.  The
bookkeeping of a child call falls outside the child's interval and is
charged to the parent's self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

PACKAGE = "bottfano"
#: module -> public functions or dataclasses traced with spans.
SPANNED = {
    "lattice": ("det",),
    "tower": (
        "GeneralizedBottTower", "validate", "compute_b", "classify",
        "BottMatrix", "from_bott_matrix", "chary_condition",
    ),
    "enumeration": ("sweep", "chary_compare"),
    "fan": (
        "build_fan", "validate_smooth_complete", "primitive_collections_bruteforce",
        "primitive_relation", "batyrev_classify", "expected_primitive_relation",
    ),
    "cli": ("parse_document", "main"),
}
#: module -> functions whose calls are only counted.
COUNTED = {"lattice": ("mu", "nu")}

ENUMERATION_SPANS = ("enumeration.sweep", "enumeration.chary_compare")


#: span name -> (counter, amount read off the traced call's return value).
RESULT_COUNTERS = {
    "fan.build_fan": ("fan.cones_built", lambda fan: len(fan.max_cones)),
    "fan.primitive_collections_bruteforce": ("fan.collections_found", len),
    "enumeration.sweep": ("enumeration.candidates", lambda report: report.total),
    "enumeration.chary_compare": ("enumeration.candidates", lambda report: report.total),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [-1]
        self.counters: Counter[str] = Counter()
        self._bindings = self._wrap_all()

    def _wrap_all(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every rebinding."""
        bindings = []
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for short, attrs in table.items():
                for attr in attrs:
                    name = f"{short}.{attr}"
                    original = getattr(sys.modules[f"{PACKAGE}.{short}"], attr)
                    if isinstance(original, type):
                        hook = original.__dict__["__post_init__"]
                        bindings.append((original, "__post_init__", hook, make(hook, name)))
                        continue
                    wrapper = make(original, name)
                    for mod in modules:
                        for key, value in vars(mod).items():
                            if value is original:
                                bindings.append((mod, key, original, wrapper))
        return bindings

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)
        counters = self.counters
        counter, amount = RESULT_COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if counter is not None:
                counters[counter] += amount(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name: str):
        counters = self.counters

        def wrapper(*args):
            counters[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- analysis -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def summarize(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, int], float]:
        """Self seconds and calls per span name over spans [lo, hi), and
        the largest gap between a root span's duration and the sum of the
        self times in its tree."""
        own = array("d", (self.end[i] - self.start[i] for i in range(lo, hi)))
        self_s = array("d", own)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                self_s[p - lo] -= own[i - lo]
        root = array("l", bytes(8 * (hi - lo)))
        tree_self: Counter[int] = Counter()
        for i in range(lo, hi):
            p = self.parent[i]
            root[i - lo] = i if p < lo else root[p - lo]
            tree_self[root[i - lo]] += self_s[i - lo]
        gap = max((abs(tree_self[r] - own[r - lo]) for r in tree_self), default=0.0)
        seconds: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i in range(lo, hi):
            name = self.names[self.span_name[i]]
            seconds[name] += self_s[i - lo]
            calls[name] += 1
        return dict(seconds), dict(calls), gap

    def classify_calls_under_enumeration(self, lo: int, hi: int) -> int:
        classify = self.names.index("tower.classify")
        enum = {self.names.index(n) for n in ENUMERATION_SPANS}
        return sum(
            1 for i in range(lo, hi)
            if self.span_name[i] == classify and self.parent[i] >= 0
            and self.span_name[self.parent[i]] in enum
        )

    def write(self, path, pass_bounds: list[tuple[int, int]]) -> None:
        """All spans as tab-separated lines: pass, span, name, start,
        end, parent span (-1 for a root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("pass\tspan\tname\tstart\tend\tparent\n")
            for k, (lo, hi) in enumerate(pass_bounds):
                for i in range(lo, hi):
                    fh.write(f"{k}\t{i}\t{self.names[self.span_name[i]]}\t"
                             f"{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n")
