"""In-memory span recorder that wraps the library's public functions.

A ``Tracer`` replaces module attributes (``subforest.forest.train`` and the
names other modules imported it under) with wrappers that record one span
per call: name, start, end, parent span and operation id. Spans stay in a
list until ``write`` dumps them at the end of the run. Wrapping happens from
the benchmark's side only; the library is not modified, and a function that
a later version no longer has (or no longer calls) simply records no spans.

The tracer is single-threaded by design: the traced run is serial, because
spans recorded in pool workers would be lost with the worker.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op]
        self.op = None  # operation id stamped on new spans; None = not measured
        self.kept: dict = {}  # span name -> last return value, for names in `keep`
        self.keep: set = set()
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list = []

    # -------------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``module.attr``."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name in tracer.keep:
                tracer.kept[name] = out
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -------------------------------------------------------------- reading

    def by_op(self, name: str) -> dict:
        """op id -> list of (duration, span index) for spans called ``name``."""
        out: dict = {}
        for i, sp in enumerate(self.spans):
            if sp[0] == name and sp[4] is not None:
                out.setdefault(sp[4], []).append((sp[2] - sp[1], i))
        return out

    def self_times(self) -> list:
        """Per span: its duration minus the time covered by its direct children."""
        own = [sp[2] - sp[1] for sp in self.spans]
        for sp in self.spans:
            if sp[3] >= 0:
                own[sp[3]] -= sp[2] - sp[1]
        return own

    def write(self, path, stamp: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"stamp": stamp}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def wrapper_cost_s() -> float:
    """Seconds one recorded span adds, from timing a wrapped no-op."""
    calls = 20000

    class _Mod:
        @staticmethod
        def noop():
            return None

    plain = _Mod.noop
    t0 = perf_counter()
    for _ in range(calls):
        plain()
    base = perf_counter() - t0
    tr = Tracer()
    tr.op = 0
    tr.wrap(_Mod, "noop", "noop")
    wrapped = _Mod.noop
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    cost = perf_counter() - t0
    return max(cost - base, 0.0) / calls
