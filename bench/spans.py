"""Runtime span tracing of sglab from outside the package.

``install`` replaces sglab's public functions, public class- and static
methods, and dataclass ``__post_init__`` validators (named ``<Class>.init``)
with wrappers that record one span per call: name, start, end, parent and
whether it raised.  Every module-level binding of a wrapped function is
rebound, so by-name imports such as ``experiment.apply_operator`` and
``decoherence.haar_unitary`` are traced too.  Spans stay in memory; the
child process aggregates them with ``summarize`` when its run ends.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "sglab"
MODULES = ("cli", "experiment", "observables", "tensor", "decoherence", "reports", "sampling")

# format_value recurses once per report cell (four calls per local row);
# a span each would cost more than the rendering itself.  Its time stays
# in render_report's self time.
SKIP = frozenset({"reports.format_value"})

# render_report gets one span name per report format.
NAMERS = {
    "reports.render_report":
        lambda args, kwargs: "reports.render_report." + str(kwargs.get("fmt", args[1] if len(args) > 1 else "?")),
}

ROOT = "cli.main"


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, error].

    It also counts report rows and bytes at ``reports.emit_report``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        namer = NAMERS.get(name)

        def traced(*args, **kwargs):
            span = [name if namer is None else namer(args, kwargs), clock(), 0.0,
                    stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        if name == "reports.emit_report":
            return functools.wraps(fn)(self._count_emit(traced))
        return functools.wraps(fn)(traced)

    def _count_emit(self, traced):
        counts = self.counts

        def emit(report, path, *args, **kwargs):
            result = traced(report, path, *args, **kwargs)
            counts["reports.rows"] += len(report.rows)
            counts["reports.bytes"] += os.path.getsize(path)
            return result

        return emit


class AllocTracer:
    """Largest tracemalloc peak, above the level at entry, inside each wrapped call.

    Wrapped calls must not nest: each entry resets the tracemalloc peak.
    """

    def __init__(self):
        self.peak_bytes: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        peak = self.peak_bytes

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak[name] = max(peak[name], tracemalloc.get_traced_memory()[1] - base)

        return functools.wraps(fn)(traced)


def _targets():
    """(span name, owner, attribute, function, kind) for every traced callable."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                if name not in SKIP:
                    out.append((name, mod, attr, obj, "function"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, raw in vars(obj).items():
                    if cattr == "__post_init__":
                        out.append((f"{short}.{attr}.init", obj, cattr, raw, "function"))
                    elif cattr.startswith("_"):
                        continue
                    elif isinstance(raw, classmethod):
                        out.append((f"{short}.{attr}.{cattr}", obj, cattr, raw.__func__, "classmethod"))
                    elif isinstance(raw, staticmethod):
                        out.append((f"{short}.{attr}.{cattr}", obj, cattr, raw.__func__, "staticmethod"))
    return out


def install(tracer, only=None) -> None:
    """Wrap sglab's callables in place.

    ``only`` restricts wrapping to the named spans.  The package and its
    modules must already be imported.
    """
    wrapped = {}
    for name, owner, attr, fn, kind in _targets():
        if only is not None and name not in only:
            continue
        traced = tracer.wrap(name, fn)
        if kind == "classmethod":
            setattr(owner, attr, classmethod(traced))
        elif kind == "staticmethod":
            setattr(owner, attr, staticmethod(traced))
        else:
            setattr(owner, attr, traced)
            wrapped[fn] = traced
    # Rebind every by-name import of a wrapped function.
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(children):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered((start, end), children.get(i, []))
            for i, (name, start, end, parent, _) in enumerate(spans)]


def summarize(spans: list, op_wall_s: float) -> dict:
    """Per-span-name calls/self_s/errors, per-module self share, root coverage."""
    per_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
    per_module = defaultdict(float)
    root_s = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, parent, error = span
        entry = per_name[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["errors"] += int(error)
        per_module[name.split(".", 1)[0]] += self_s
        if parent < 0 and name == ROOT:
            root_s += end - start
    return {
        "spans": dict(sorted(per_name.items())),
        "module_self_share": {m: (per_module.get(m, 0.0) / op_wall_s if op_wall_s > 0 else 0.0)
                              for m in MODULES},
        "coverage_frac": root_s / op_wall_s if op_wall_s > 0 else 0.0,
        "span_count": len(spans),
    }
