"""Per-layer metrics of a traced run, named by ``repro`` module.

Times come from the benchmark's spans (see :mod:`tracing`), counts from
deltas of the server's ``stats`` op taken before and after the traced
phases.  A metric whose layer a workload does not reach reads 0.
"""

from __future__ import annotations

import loadgen
import sp2b
import tracing
from arrays import PATTERNS

#: (name, unit, better); each one's layer, workload and the end-to-end
#: metric it should move are mapped in perfbench/METRICS.md
PER_LAYER = [
    ("sparql.parse_ms", "ms", "lower"),
    ("sparql.parse_insert_ms_per_ktriple", "ms/ktriple", "lower"),
    ("algebra.translate_ms", "ms", "lower"),
    ("algebra.rewrite_ms", "ms", "lower"),
    ("algebra.optimize_ms", "ms", "lower"),
    ("engine.idjoin_ms", "ms", "lower"),
    ("engine.run_self_ms", "ms", "lower"),
    ("engine.bgp_rows_per_result", "rows/result", "lower"),
    ("ssdm.materialize_ms", "ms", "lower"),
    ("server.dispatch_ms", "ms", "lower"),
    ("client.wire_ms", "ms", "lower"),
    ("server.admission_wait_ms", "ms", "lower"),
    ("server.cpu_ms_per_request", "ms", "lower"),
    ("rdf.freeze_ms", "ms", "lower"),
    ("mvcc.publish_ms", "ms", "lower"),
    ("rdf.consolidations_per_kwrite", "count/kwrite", "lower"),
    ("rdf.index_bytes_per_triple", "B/triple", "lower"),
    ("mvcc.retained_versions", "count", "lower"),
    ("durability.wal_append_ms", "ms", "lower"),
    ("durability.fsyncs_per_write", "count/write", "lower"),
    ("durability.wal_bytes_per_triple", "B/triple", "lower"),
    ("durability.replay_ms", "ms", "lower"),
    ("apr.resolve_ms", "ms", "lower"),
    ("asei.fetch_ms", "ms", "lower"),
    ("asei.requests_per_query", "count/query", "lower"),
    ("asei.chunks_per_query", "count/query", "lower"),
    ("asei.bytes_per_query", "B/query", "lower"),
    ("apr.useful_byte_ratio", "ratio", "higher"),
    ("asei.aggregates_delegated", "count", "higher"),
    ("bufferpool.lookups", "count", "higher"),
    ("bufferpool.hit_ratio", "ratio", "higher"),
    ("bufferpool.evictions", "count", "lower"),
    ("governor.shed", "count", "lower"),
    ("governor.charged_rows_per_query", "rows/query", "lower"),
] + [
    ("query.%s.p50_ms" % name, "ms", "lower") for name in sp2b.QUERY_NAMES
] + [
    ("array.%s.p50_ms" % pattern, "ms", "lower") for pattern in PATTERNS
] + [
    ("tail.read_p99_ms", "ms", "lower"),
    ("tail.write_p99_ms", "ms", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.cpu_frac", "fraction", "lower"),
    ("trace.overhead_read_p50_ms", "ms", "lower"),
    ("trace.overhead_read_p99_ms", "ms", "lower"),
    ("trace.spans_per_request", "count", "lower"),
]

READ_OPS = ("query",)
WRITE_OPS = ("update",)


def _ratio(part, whole):
    return part / whole if whole else 0.0


class SpanTotals:
    """Busy and self time per span name, split by the request's op."""

    def __init__(self, dump):
        spans = dump["spans"]
        own = tracing.self_times(spans)
        op_of = {}
        for request, root in tracing.roots(spans).items():
            op_of[request] = (root.get("attrs") or {}).get("op")
        self.requests = {}
        for op in op_of.values():
            self.requests[op] = self.requests.get(op, 0) + 1
        self.busy = {}
        self.own = {}
        self.calls = {}
        for span in spans:
            self.calls[span["name"]] = self.calls.get(span["name"], 0) + 1
            key = (op_of.get(span["request"]), span["name"])
            self.busy[key] = self.busy.get(key, 0.0) + span["busy"]
            self.own[key] = self.own.get(key, 0.0) + own[span["sid"]]
        self.counters = dump["counters"]
        self.spans = len(spans)

    def count(self, ops):
        return sum(self.requests.get(op, 0) for op in ops)

    def total_ms(self, ops, name, own=False):
        """Milliseconds spent in ``name`` within requests of ``ops``."""
        table = self.own if own else self.busy
        return sum(table.get((op, name), 0.0) for op in ops) * 1000

    def ms_per(self, ops, name, own=False):
        """Milliseconds of ``name`` per request of ``ops``."""
        return _ratio(self.total_ms(ops, name, own), self.count(ops))

    def mean_ms(self, name):
        """Milliseconds per ``name`` span, whatever request it is in."""
        return _ratio(sum(v for (_, n), v in self.busy.items()
                          if n == name) * 1000, self.calls.get(name, 0))

    def charged(self, where=None):
        prefix = "governor.charged_rows:"
        return sum(v for k, v in self.counters.items()
                   if k.startswith(prefix)
                   and (where is None or k == prefix + where))


def _delta(before, after, *path):
    def dig(stats):
        for key in path:
            if stats is None:
                return 0
            stats = stats.get(key)
        return stats or 0
    return dig(after) - dig(before)


def _p50_by(samples, key):
    groups = {}
    for sample in samples:
        if sample.ok:
            groups.setdefault(key(sample.spec), []).append(sample.latency)
    return {name: loadgen.percentile(values, 0.5) * 1000
            for name, values in groups.items()}


def compute(run):
    """The per-layer metrics of one traced run (see ``run.traced``)."""
    ingest = SpanTotals(run.setup_dump)
    server = SpanTotals(run.phase_dump)
    client = SpanTotals(run.client_dump)
    replay = SpanTotals(run.recovery_dump)
    before, after = run.stats_before, run.stats_after
    reads = server.count(READ_OPS)
    writes = server.count(WRITE_OPS)
    written = _delta(before, after, "graph", "triples")
    inserts = _ratio(
        ingest.total_ms(WRITE_OPS, "sparql.parse")
        + server.total_ms(WRITE_OPS, "sparql.parse"),
        (run.inserted_at_setup + written) / 1000)
    fetched = _delta(before, after, "storage", "bytes_fetched")
    lookups = _delta(before, after, "buffer_pool", "lookups")
    # the untraced rounds, and the same rounds traced
    untraced = _open_samples(run.untraced)
    traced = _open_samples(run.traced)
    every_untraced = [s for result in run.untraced for s in result.samples]
    metrics = {
        "sparql.parse_ms": server.ms_per(READ_OPS, "sparql.parse"),
        "sparql.parse_insert_ms_per_ktriple": inserts,
        "algebra.translate_ms": server.ms_per(READ_OPS, "algebra.translate"),
        "algebra.rewrite_ms": server.ms_per(READ_OPS, "algebra.rewrite"),
        "algebra.optimize_ms": server.ms_per(READ_OPS, "algebra.optimize"),
        "engine.idjoin_ms": server.ms_per(READ_OPS, "engine.idjoin"),
        "engine.run_self_ms": server.ms_per(READ_OPS, "engine.run",
                                            own=True),
        "engine.bgp_rows_per_result": _ratio(
            server.charged("idjoin"),
            server.charged("result materialization")),
        "ssdm.materialize_ms": server.ms_per(READ_OPS, "ssdm.execute",
                                             own=True),
        "server.dispatch_ms": server.ms_per(READ_OPS, "server.dispatch"),
        "client.wire_ms": (client.mean_ms("client.query")
                           - server.ms_per(READ_OPS, "server.dispatch")),
        "server.admission_wait_ms": server.ms_per(
            READ_OPS + WRITE_OPS, "server.admission"),
        "server.cpu_ms_per_request": _ratio(run.server_cpu_s * 1000,
                                            len(every_untraced)),
        "rdf.freeze_ms": server.ms_per(WRITE_OPS, "rdf.freeze"),
        "mvcc.publish_ms": server.ms_per(WRITE_OPS, "mvcc.publish"),
        "rdf.consolidations_per_kwrite": _ratio(
            _delta(before, after, "mvcc", "consolidations"), writes / 1000),
        "rdf.index_bytes_per_triple": _ratio(
            after["graph"]["index_bytes"], after["graph"]["triples"]),
        "mvcc.retained_versions": after["mvcc"]["retained_versions"],
        "durability.wal_append_ms": server.ms_per(
            WRITE_OPS, "durability.wal_append"),
        "durability.fsyncs_per_write": _ratio(
            server.counters.get("durability.fsync", 0), writes),
        "durability.wal_bytes_per_triple": _ratio(
            _delta(before, after, "durability", "journal",
                   "bytes_appended"), written),
        "durability.replay_ms": replay.mean_ms("durability.replay"),
        "apr.resolve_ms": server.ms_per(READ_OPS, "apr.resolve"),
        "asei.fetch_ms": server.ms_per(READ_OPS, "asei.fetch"),
        "asei.requests_per_query": _ratio(
            _delta(before, after, "storage", "requests"), reads),
        "asei.chunks_per_query": _ratio(
            _delta(before, after, "storage", "chunks_fetched"), reads),
        "asei.bytes_per_query": _ratio(fetched, reads),
        "apr.useful_byte_ratio": _ratio(run.elements_returned * 8, fetched),
        "asei.aggregates_delegated": _delta(
            before, after, "storage", "aggregates_delegated"),
        "bufferpool.lookups": lookups,
        "bufferpool.hit_ratio": _ratio(
            _delta(before, after, "buffer_pool", "hits"), lookups),
        "bufferpool.evictions": _delta(before, after, "buffer_pool",
                                       "evictions"),
        "governor.shed": _delta(before, after, "server", "shed"),
        "governor.charged_rows_per_query": _ratio(server.charged(), reads),
        "tail.read_p99_ms": _latency_ms(untraced, 0.99),
        "tail.write_p99_ms": _latency_ms(untraced, 0.99, writes=True),
        "loadgen.lag_p99_ms": loadgen.percentile(
            [s.lag for s in untraced], 0.99) * 1000,
        "loadgen.cpu_frac": run.loadgen_cpu_frac,
        "trace.overhead_read_p50_ms": _latency_ms(traced, 0.5)
        - _latency_ms(untraced, 0.5),
        "trace.overhead_read_p99_ms": _latency_ms(traced, 0.99)
        - _latency_ms(untraced, 0.99),
        "trace.spans_per_request": _ratio(server.spans, reads + writes),
    }
    by_query = _p50_by(untraced, lambda spec: spec[1]
                       if spec[0] == "read" else None)
    for name in sp2b.QUERY_NAMES:
        metrics["query.%s.p50_ms" % name] = by_query.get(name, 0.0)
    by_pattern = _p50_by(untraced, lambda spec: spec[1].pattern
                         if spec[0] == "array" else None)
    for pattern in PATTERNS:
        metrics["array.%s.p50_ms" % pattern] = by_pattern.get(pattern, 0.0)
    return {name: float(value) for name, value in metrics.items()}


def _open_samples(results):
    return [sample for result in results if result.phase.loop == "open"
            for sample in result.samples]


def _latency_ms(samples, q, writes=False):
    """q-quantile of the phase's read (or write) latencies, 0 if none."""
    values = [s.latency for s in samples
              if (s.spec[0] == "write") == writes]
    return loadgen.percentile(values, q) * 1000 if values else 0.0
