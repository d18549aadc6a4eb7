"""Spans around the calls into each sympcliff layer, recorded from outside.

Library code is not edited.  ``Tracer.install`` rebinds, inside the running
process only, the module-level names through which sympcliff modules call
one another (every public function, and every private function imported
into another module) to wrappers that record a span; ``uninstall`` puts the
original functions back.  Generator functions are left alone, because a
wrapper would time only the creation of the generator.

A span is (name, start ns, end ns, parent span).  Spans stay in memory, in
flat arrays, until ``summarize`` aggregates them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "sympcliff"


class Tracer:
    def __init__(self, exclude=()):
        self.exclude = set(exclude)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.results: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation, a CLI call)."""
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, measure=None):
        nid = self._id(name)
        open_, close = self._open, self._close
        sizes = self.results.setdefault(name, []) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if sizes is not None:
                sizes.append(measure(out))
            return out

        return traced

    def install(self, measure=None) -> None:
        """Rebind every sympcliff cross-module call site to a traced wrapper.

        measure maps a span name to a function of the wrapped call's return
        value whose results are kept in ``results[name]``.
        """
        measure = measure or {}
        wrappers: dict[int, object] = {}
        for modname, mod in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                home = fn.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if attr.startswith("_") and home == modname:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                name = "%s.%s" % (home.split(".", 1)[1], fn.__name__)
                if name in self.exclude:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, measure.get(name))
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def summarize(self, first: int = 0, last: int | None = None) -> "Summary":
        return Summary(self, first, len(self.start) if last is None else last)


class Summary:
    """Per-name aggregates over the spans with index in [first, last).

    For each span name: call count, inclusive ns and self ns (duration minus
    the part covered by child spans), split by whether the span sits under a
    benchmark root span named "op" or elsewhere (set-up).  ``under`` counts
    self ns per (name, nearest ancestor among a given set).
    """

    def __init__(self, tracer: Tracer, first: int, last: int):
        names = tracer.names
        start, end, parent, name = tracer.start, tracer.end, tracer.parent, tracer.name
        dur = [end[i] - start[i] for i in range(first, last)]
        child = [0] * (last - first)
        for i in range(first, last):
            p = parent[i]
            if p >= first:
                child[p - first] += dur[i - first]
        op_id = tracer._ids.get("op", -2)
        root_is_op = [False] * (last - first)
        for i in range(first, last):
            p = parent[i]
            root_is_op[i - first] = (name[i] == op_id if p < first
                                     else root_is_op[p - first])
        self.op = {}
        self.setup = {}
        self.op_latency_ns = []
        for i in range(first, last):
            j = i - first
            nm = names[name[i]]
            table = self.op if root_is_op[j] else self.setup
            calls, incl, self_ns = table.get(nm, (0, 0, 0))
            table[nm] = (calls + 1, incl + dur[j], self_ns + dur[j] - child[j])
            if name[i] == op_id and parent[i] < first:
                self.op_latency_ns.append(dur[j])
        self._tracer = tracer
        self._range = (first, last)
        self._self = [d - c for d, c in zip(dur, child)]

    def under(self, target: str, contexts: tuple[str, ...]) -> dict[str, tuple[int, int]]:
        """(calls, self ns) of spans named target, keyed by nearest ancestor
        named in contexts ("" when none)."""
        tr = self._tracer
        first, last = self._range
        ids = {tr._ids[c]: c for c in contexts if c in tr._ids}
        tid = tr._ids.get(target)
        out: dict[str, tuple[int, int]] = {}
        for i in range(first, last):
            if tr.name[i] != tid:
                continue
            ctx = ""
            p = tr.parent[i]
            while p >= first:
                if tr.name[p] in ids:
                    ctx = ids[tr.name[p]]
                    break
                p = tr.parent[p]
            calls, ns = out.get(ctx, (0, 0))
            out[ctx] = (calls + 1, ns + self._self[i - first])
        return out

    def counts(self) -> dict[str, int]:
        """Call count per span name, set-up and operations together."""
        out = {k: v[0] for k, v in self.setup.items()}
        for k, v in self.op.items():
            out[k] = out.get(k, 0) + v[0]
        return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
