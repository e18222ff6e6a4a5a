"""The benchmark's own spans, recorded around calls into ``repro``.

:func:`install` replaces public entry points of ``repro`` modules with
wrappers that record a span per call: name, start, end, parent span and
a request identifier that every span of one request shares (the
outermost span in a thread starts a new request).  Spans stay in memory
and are written out by :meth:`Recorder.dump`.  Nothing inside
``repro`` changes; the program's own built-in query tracing is left as
shipped.

A *counter* target records no span, only a sum (calls, or an amount
taken from the arguments), for boundaries crossed once per row.

Self time is a span's busy time minus the busy time of its direct
children.  A generator's span is busy only while a ``next()`` runs, so
time the consumer spends between items is not charged to it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (module, attribute path, span name, kind, attributes)
#: kind: "call" | "generator" | "calls" (count calls) | "count" (sum
#: ``n`` of a ``method(n, where)`` call, keyed by ``where``)
SERVER_TARGETS = [
    ("repro.client.server", "SSDMServer.ssdm_dispatch", "server.dispatch",
     "call", lambda args, kwargs: {"op": args[1].get("op")}),
    ("repro.governor", "AdmissionQueue.admit", "server.admission",
     "call", None),
    ("repro.ssdm", "SSDM.execute", "ssdm.execute", "call", None),
    ("repro.sparql.parser", "Parser.parse", "sparql.parse", "call", None),
    ("repro.algebra.translator", "translate", "algebra.translate",
     "call", None),
    ("repro.algebra.rewriter", "rewrite", "algebra.rewrite", "call", None),
    ("repro.algebra.optimizer", "optimize", "algebra.optimize",
     "call", None),
    ("repro.engine.eval", "QueryEngine.run", "engine.run",
     "generator", None),
    ("repro.engine.idjoin", "IdBGPMatcher.solve", "engine.idjoin",
     "call", None),
    ("repro.engine.update", "execute_update", "engine.update",
     "call", None),
    ("repro.rdf.graph", "Graph.freeze", "rdf.freeze", "call", None),
    ("repro.rdf.dataset", "Dataset.publish", "mvcc.publish", "call", None),
    ("repro.storage.durability", "WriteAheadLog.append",
     "durability.wal_append", "call", None),
    ("repro.storage.durability", "DatasetJournal.replay",
     "durability.replay", "call", None),
    ("repro.storage.apr", "APRResolver.resolve", "apr.resolve",
     "call", None),
    ("repro.storage.apr", "APRResolver.resolve_aggregate", "apr.resolve",
     "call", None),
    ("repro.storage.asei", "ArrayStore.get_chunk", "asei.fetch",
     "call", None),
    ("repro.storage.asei", "ArrayStore.get_chunks", "asei.fetch",
     "call", None),
    ("repro.storage.asei", "ArrayStore.get_chunk_ranges", "asei.fetch",
     "call", None),
    ("repro.storage.sqlstore", "SqlArrayStore.aggregate", "asei.fetch",
     "call", None),
    ("repro.governor", "ResourceScope.charge_rows",
     "governor.charged_rows", "count", None),
    ("os", "fsync", "durability.fsync", "calls", None),
]

CLIENT_TARGETS = [
    ("repro.client.server", "SSDMClient.query", "client.query",
     "call", None),
    ("repro.client.server", "SSDMClient.update", "client.update",
     "call", None),
]


class Span:
    __slots__ = ("sid", "name", "start", "end", "busy", "parent",
                 "request", "attrs")

    def __init__(self, sid, name, start, parent, request, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.busy = 0.0
        self.parent = parent
        self.request = request
        self.attrs = attrs

    def as_dict(self):
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "busy": self.busy, "parent": self.parent,
                "request": self.request, "attrs": self.attrs}


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, prefix, clock=time.perf_counter):
        self.prefix = prefix
        self.clock = clock
        #: recording switch; wrappers pass straight through when off
        self.active = False
        self.spans = []
        self.counters = defaultdict(float)
        self._counter_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, attrs=None, current=True):
        """Start a span under the thread's current span; returns it.

        ``current=False`` records the span without making it current,
        for a generator whose work starts at its first ``next()``.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids), name, self.clock(),
            parent.sid if parent is not None else None,
            parent.request if parent is not None
            else "%s%d" % (self.prefix, next(self._requests)),
            attrs,
        )
        self.spans.append(span)
        if current:
            stack.append(span)
        else:
            span.end = span.start
        return span

    def close(self, span):
        span.end = self.clock()
        span.busy += span.end - span.start
        self._stack().pop()

    def resume(self, span):
        """Make a generator's span current for one ``next()``."""
        self._stack().append(span)
        return self.clock()

    def pause(self, span, since):
        now = self.clock()
        span.busy += now - since
        span.end = now
        self._stack().pop()

    def count(self, name, amount=1):
        with self._counter_lock:
            self.counters[name] += amount

    def dump(self, path):
        """Write the record to ``path`` and start a fresh one."""
        spans, self.spans = self.spans, []
        with self._counter_lock:
            counters, self.counters = self.counters, defaultdict(float)
        with open(path, "w") as handle:
            json.dump({"spans": [s.as_dict() for s in spans],
                       "counters": dict(counters)}, handle)


def _wrap_call(recorder, name, fn, attrs):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.open(
            name, attrs(args, kwargs) if attrs is not None else None)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)
    return traced


def _wrap_generator(recorder, name, fn, attrs):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.open(
            name, attrs(args, kwargs) if attrs is not None else None,
            current=False)
        return _timed_items(recorder, span, fn(*args, **kwargs))
    return traced


def _timed_items(recorder, span, inner):
    while True:
        since = recorder.resume(span)
        try:
            item = next(inner)
        except StopIteration:
            return
        finally:
            recorder.pause(span, since)
        yield item


def _wrap_count(recorder, name, fn, calls_only):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if recorder.active:
            if calls_only:
                recorder.count(name)
            else:
                # charge_rows(n, where): keyed by where, summing n
                recorder.count("%s:%s" % (name, args[2]), args[1])
        return fn(*args, **kwargs)
    return counted


def install(recorder, targets):
    """Wrap every target.

    A module-level function is replaced wherever a loaded ``repro``
    module bound it by name (``from m import f``), so callers that
    imported it directly are traced too.
    """
    for module_name, path, name, kind, attrs in targets:
        module = importlib.import_module(module_name)
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        if kind == "call":
            wrapper = _wrap_call(recorder, name, original, attrs)
        elif kind == "generator":
            wrapper = _wrap_generator(recorder, name, original, attrs)
        else:
            wrapper = _wrap_count(recorder, name, original, kind == "calls")
        setattr(owner, parts[-1], wrapper)
        if owner is module and module_name != "os":
            _rebind(original, wrapper)


def _rebind(original, wrapper):
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapper)


# -- span arithmetic -------------------------------------------------------------


def load(path):
    with open(path) as handle:
        return json.load(handle)


def self_times(spans):
    """{sid: busy time minus the busy time of its direct children}."""
    own = {span["sid"]: span["busy"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent in own:
            own[parent] -= span["busy"]
    return own


def roots(spans):
    """{request id: the request's outermost span}."""
    out = {}
    for span in spans:
        if span["parent"] is None:
            out[span["request"]] = span
    return out
