"""In-memory span tracer for the lplimits benchmark.

`Tracer.install()` wraps every public function of the package's layer
modules and rebinds each place callers look it up: module attributes (so
``studies.solve`` and ``lp_core.solve`` both resolve to the wrapper) and
module-level dispatch dicts such as ``families._BUILDERS``.  Nothing under
``src/`` is edited; `uninstall()` restores the original objects.

Spans live in memory as (id, name, start, end, parent, attrs) and are written
out by the caller when the run ends.  The tracer is single-threaded: spans
nest strictly, which is what the self-time computation relies on.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager, nullcontext

PACKAGE = "lplimits"
LAYERS = ("families", "lp_core", "studies", "online_sim", "variational",
          "interval_opt")
BENCH = "bench"     # spans opened by the benchmark's own steps


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, sid, name, start, parent):
        self.id, self.name, self.start, self.parent = sid, name, start, parent
        self.end = None
        self.attrs = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "attrs": self.attrs}


class NullTracer:
    """Stand-in for untraced passes: steps open no span."""

    spans = ()

    def step(self, name):
        return nullcontext()


class Tracer:
    def __init__(self, annotate):
        """`annotate(name, args, kwargs, result)` returns a dict of span
        attributes (sizes, counts) or None; it runs after the span closes."""
        self.spans = []
        self._stack = []
        self._annotate = annotate
        self._undo = []

    def _open(self, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def step(self, name):
        span = self._open(f"{BENCH}.{name}")
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span)
                span.attrs["raised"] = True
                raise
            self._close(span)
            span.attrs.update(self._annotate(name, args, kwargs, result) or {})
            return result
        return traced

    def install(self) -> None:
        """Wrap the public functions defined in each layer module."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._rebind(mod.__dict__, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._rebind(obj, key, wrappers[id(val)][1])

    def _rebind(self, table, key, new) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = new

    def uninstall(self) -> None:
        while self._undo:
            table, key, old = self._undo.pop()
            table[key] = old

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its child spans."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out
