"""In-memory span tracer for the kmln layer functions.

The tracer replaces each layer function listed in LAYERS by a wrapper in
every loaded ``kmln`` module that holds the function by name, so a call is
recorded however it is looked up (``kmln.core.compose``,
``kmln.harness.compose``, ``kmln.compose``, ...).  The program's source is
not touched; uninstall() puts the original functions back.

A span is the tuple (name, start_ns, end_ns, parent, op, hit):
``parent`` is the index of the enclosing span or -1, ``op`` is the
benchmark's operation id current when the span closed, and ``hit`` is the
boolean outcome of a membership test (None for other functions).  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import namedtuple
from contextlib import contextmanager
from time import perf_counter_ns

#: The layer functions, by kmln module.  A metric is named
#: ``<module>.<function>.<calls|self_s|us_p50>``.
LAYERS = {
    "core": ("assemble", "disassemble", "compose", "numeric_rank",
             "random_params"),
    "families": ("construct", "membership", "sample_instance",
                 "closure_check", "rank_profile", "rank1_restrict"),
    "variants": ("sample_variant", "construct_variant", "variant_membership",
                 "matching_variants", "constraint_residual"),
    "classify": ("classify",),
    "documents": ("parse_document",),
    "harness": ("run_suite",),
}

#: The whole ``kmln verify`` process, recorded by child.py rather than by a
#: wrapper: it starts before ``import kmln``.
CLI_VERIFY = "cli.verify"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items()
                   for fn in fns) + (CLI_VERIFY,)

# Functions whose result is a membership decision; its truth is the span's
# ``hit`` and gives the layer's hit ratio.
_OUTCOMES = {
    "families.membership": lambda result: bool(result.member),
    "variants.variant_membership": bool,
}

Span = namedtuple("Span", "name start end parent op hit")


class Tracer:
    """Records a span around every call of a layer function while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def install(self):
        """Wrap every layer function in every loaded kmln module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "kmln" or name.startswith("kmln.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"kmln.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{module_name}.{fn_name}"
                wrapper = self._wrap(name, original, _OUTCOMES.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        """Put every original function back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, outcome):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op, None)
                raise
            end = perf_counter_ns()
            stack.pop()
            hit = None if outcome is None else outcome(result)
            spans[idx] = Span(name, start, end, parent, self.op, hit)
            return result

        return traced

    @contextmanager
    def span(self, name, start=None):
        """Record a span around a block; ``start`` may predate the block."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns() if start is None else start
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = Span(name, start, perf_counter_ns(), parent,
                                   self.op, None)



def spans_to_json(spans):
    """JSON-ready form of spans: a name table and one row per span."""
    names = sorted({s.name for s in spans})
    index = {name: i for i, name in enumerate(names)}
    return {"fields": ["name", "start_ns", "end_ns", "parent", "op", "hit"],
            "names": names,
            "spans": [[index[s.name], s.start, s.end, s.parent, s.op, s.hit]
                      for s in spans]}


def spans_from_json(data):
    names = data["names"]
    return [Span(names[row[0]], *row[1:]) for row in data["spans"]]


def self_times(spans):
    """Self time of each span in ns: its duration minus the part of its
    interval covered by its child spans."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        cursor = s.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, cursor), min(kid.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans):
    """Per-layer metrics: calls, self seconds and median inclusive
    microseconds per function, plus the membership hit ratios.  A function
    that was never called reads 0 on all three."""
    own = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    durations = {name: [] for name in SPAN_NAMES}
    hits = dict.fromkeys(_OUTCOMES, 0)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        self_ns[s.name] += t
        durations[s.name].append(s.end - s.start)
        if s.hit:
            hits[s.name] += 1
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        p50 = statistics.median(durations[name]) / 1e3 if durations[name] else 0.0
        out[f"{name}.us_p50"] = (p50, "us")
    for name in _OUTCOMES:
        ratio = hits[name] / calls[name] if calls[name] else 0.0
        out[f"{name}.hit_ratio"] = (ratio, "ratio")
    return out
