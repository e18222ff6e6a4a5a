"""The two workloads and the run that measures them.

Every workload sets its server up, then runs its timed phases over two
connections ``rounds`` times.  After each round the measured run sets
up one more server from scratch, then SIGKILLs it and reopens it from
its WAL ``REOPENS`` times.  At the end it SIGKILLs the measured server,
reopens it and checks that every acknowledged write survived.  Phase
lengths are shares of the run's ``--seconds``; rates are fixed, so a
slower server shows as higher latency, not as less work offered.
Spreading samples over the whole run means a stretch of a slow machine
moves only some of the blocks, windows and set-ups whose median is
reported.

- ``sp2b-read``: the 12-query SP²Bench mix, open loop at ~35% of
  capacity, then closed loop, then 10-triple review notes on articles,
  which no query of the mix reads.
- ``array-sql``: subscript and ``ARRAY_SUM`` queries over 96 MiB of
  matrices in a file-backed SQLite array store, open loop, then closed
  loop, then metadata writes.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import statistics
import threading
import time
from contextlib import closing, contextmanager

import numpy as np

import arrays
import loadgen
import sp2b

CONNECTIONS = 2
#: crash recoveries of each set-up server, all replaying the same WAL
REOPENS = 2

#: The run length the phase shares below were laid out for; at this
#: length every workload sends >= 1,000 reads, so each read p99 has
#: >= 10 samples beyond it.
NOMINAL_SECONDS = 36


class Phase:
    """One timed phase: an open loop at ``rate``, or a closed loop;
    ``share`` is its length in seconds at ``NOMINAL_SECONDS``."""

    def __init__(self, name, loop, share, rate=None):
        self.name = name
        self.loop = loop
        self.share = share
        self.rate = rate

    def seconds(self, run_seconds):
        return run_seconds * self.share / NOMINAL_SECONDS

    def count(self, run_seconds):
        return max(2, round(self.rate * self.seconds(run_seconds)))


class Checks:
    """Attempted, failed and wrong answers of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []
        self._lock = threading.Lock()

    def count(self, samples):
        self.attempted += len(samples)
        self.failed += sum(1 for sample in samples if not sample.ok)
        for sample in samples:
            if not sample.ok:
                self.note("request failed: %s" % (sample.result,))

    def wrong_answer(self, what):
        with self._lock:
            self.wrong += 1
        self.note("wrong answer: %s" % what)

    def note(self, text):
        with self._lock:
            if len(self.notes) < 20:
                self.notes.append(text)


class Workload:
    """Inputs, phases and answer checks shared by the workloads."""

    name = None
    #: phases of one round, and how many rounds a run makes
    phases = ()
    rounds = 1
    array_store = False
    #: matrices the server ingests on a fresh start (array-sql)
    ingest_input = None

    def __init__(self, workdir, seed, checks):
        self.workdir = workdir
        self.seed = seed
        self.checks = checks
        self._servers = itertools.count(1)
        self._lock = threading.Lock()
        #: payloads of acknowledged writes, (text, triples, ...), in
        #: acknowledgement order
        self.acked = []
        self.unacked_triples = 0
        self.base_triples = 0

    # -- servers ------------------------------------------------------------------

    def start(self, trace=False):
        """A fresh server with the dataset loaded; returns (server,
        seconds from process start to the first answer, ingest rate in
        triples/s over the whole bulk load)."""
        data = os.path.join(self.workdir, "server%d" % next(self._servers))
        started = time.perf_counter()
        server = loadgen.ServerProcess(
            self.workdir, data, array_store=self.array_store,
            ingest=self.ingest_input, trace=trace)
        with _killed_on_error(server), closing(server.client()) as client:
            ingest = self.load(server, client)
            self.first_request(client)
            setup = time.perf_counter() - started
            self.base_triples = client.stats()["graph"]["triples"]
        return server, setup, ingest

    def load(self, server, client):
        """Load the dataset; returns the ingest rate."""
        return server.ready["ingest_tps"]

    def reopen(self, killed, trace=False):
        """Restart on a killed server's WAL; returns once it answers."""
        server = loadgen.ServerProcess(self.workdir, killed.data,
                                       array_store=self.array_store,
                                       trace=trace)
        with _killed_on_error(server), closing(server.client()) as client:
            self.first_request(client)
        return server

    def first_request(self, client):
        """One cheap query whose answer is checked."""
        raise NotImplementedError

    # -- requests -----------------------------------------------------------------

    def specs(self, phase, key, count):
        """``count`` requests for ``phase``; ``key`` (seed, phase name
        and round) seeds their order."""
        raise NotImplementedError

    def issue(self, client, spec):
        """Send one write (returns None) or one query (its result)."""
        client.update(spec[1][0])

    def observe(self, sample):
        kind, payload = sample.spec
        if kind != "write":
            if sample.ok:
                self.check_read(payload, sample.result)
            return
        with self._lock:
            if sample.ok:
                self.acked.append(payload)
            else:
                self.unacked_triples += payload[1]

    def check_read(self, payload, result):
        raise NotImplementedError

    # -- recovery -----------------------------------------------------------------

    def check_recovered(self, server, written=True):
        """Every acknowledged write (none on a set-up server, with
        ``written`` false) and the loaded data are present after
        reopening."""
        acked = self.acked if written else []
        unacked = self.unacked_triples if written else 0
        with closing(server.client()) as client:
            triples = client.stats()["graph"]["triples"]
            low = self.base_triples + sum(p[1] for p in acked)
            if not low <= triples <= low + unacked:
                self.checks.wrong_answer(
                    "%d triples after recovery, expected %d%s" % (
                        triples, low,
                        " (+ up to %d unacknowledged)" % unacked
                        if unacked else ""))
            self.check_recovered_sample(client, acked)

    def check_recovered_sample(self, client, acked):
        pass


@contextmanager
def _killed_on_error(server):
    try:
        yield
    except BaseException:
        server.kill()
        raise


# -- sp2b-read ----------------------------------------------------------------------


class Sp2bRead(Workload):
    """The SP²Bench-style graph, loaded over the wire, and its query mix."""

    name = "sp2b-read"
    # reads at ~35% of the ~190 req/s closed-loop capacity; notes at
    # ~20% of the ~450 writes/s capacity of 10-triple writes
    phases = (
        Phase("reads", "open", 3.4, rate=65.0),
        Phase("capacity", "closed", 1.6),
        Phase("writes", "open", 1, rate=90.0),
    )
    rounds = 6

    def __init__(self, workdir, seed, checks, scale=sp2b.SCALES["bench"]):
        super().__init__(workdir, seed, checks)
        self.scale = scale
        self.batches = list(sp2b.insert_batches(scale, sp2b.GRAPH_SEED))
        self.triples = sum(count for _, count in self.batches)
        self.oracle = sp2b.oracle_fingerprints(scale, sp2b.GRAPH_SEED)
        #: query name -> {hash of the decoded rows: already checked}
        self._seen = {name: set() for name in sp2b.QUERY_NAMES}
        self._notes = sp2b.notes(scale, seed)

    def load(self, server, client):
        started = time.perf_counter()
        for text, _ in self.batches:
            client.update(text)
        return self.triples / (time.perf_counter() - started)

    def first_request(self, client):
        result = client.query(sp2b.QUERY_TEXT["q01"])
        if len(result.rows) != self.scale.journals:
            self.checks.wrong_answer("q01 returned %d journals, expected %d"
                                     % (len(result.rows),
                                        self.scale.journals))

    def check_recovered_sample(self, client, acked):
        rng = random.Random("recovered:%d" % self.seed)
        for note in rng.sample(acked, min(20, len(acked))):
            got = sp2b.point_read_facts(
                client.query(sp2b.point_read(note.subject)))
            if got != note.facts:
                self.checks.wrong_answer(
                    "%s after recovery: %d of %d facts"
                    % (note.subject, len(got & note.facts), len(note.facts)))

    def specs(self, phase, key, count):
        if phase.name == "writes":
            return [("write", next(self._notes)) for _ in range(count)]
        return [("read", name) for name in sp2b.mix_schedule(key, count)]

    def issue(self, client, spec):
        if spec[0] == "read":
            return client.query(sp2b.QUERY_TEXT[spec[1]])
        return super().issue(client, spec)

    def check_read(self, name, result):
        # the server answers a query in a deterministic order, so equal
        # row tuples are the same answer; each distinct answer gets the
        # full order-insensitive fingerprint against the oracle
        digest = hash(tuple(result.rows))
        with self._lock:
            if digest in self._seen[name]:
                return
        if sp2b.fingerprint(result) != self.oracle[name]:
            self.checks.wrong_answer(
                "%s: %d rows/%s, oracle %d rows/%s"
                % ((name,) + sp2b.fingerprint(result) + self.oracle[name]))
            return
        with self._lock:
            self._seen[name].add(digest)


# -- array-sql ---------------------------------------------------------------------


class ArraySql(Workload):
    name = "array-sql"
    array_store = True
    # reads at ~35% of the ~170 req/s closed-loop capacity; notes, which
    # no array query reads, at ~27% of the ~310 writes/s note capacity
    phases = (
        Phase("reads", "open", 3.4, rate=60.0),
        Phase("capacity", "closed", 1.6),
        Phase("writes", "open", 1, rate=85.0),
    )
    rounds = 6

    def __init__(self, workdir, seed, checks, count=arrays.COUNT,
                 side=arrays.SIDE):
        super().__init__(workdir, seed, checks)
        self.count, self.side = count, side
        self.matrices = arrays.matrices(seed, self.count, self.side)
        self.ingest_input = os.path.join(workdir, "matrices.npy")
        np.save(self.ingest_input, self.matrices)
        self._notes = arrays.annotations(seed, self.count)
        #: one request per pattern, the element query first
        self._probes = sorted(
            arrays.requests(seed, len(arrays.PATTERNS), self.count,
                            self.side),
            key=lambda request: request.pattern != "element")
        self.elements_returned = 0

    def first_request(self, client):
        request = self._probes[0]
        self.check_read(request, client.query(request.text))

    def specs(self, phase, key, count):
        if phase.name == "writes":
            return [("write", next(self._notes)) for _ in range(count)]
        return [("array", request) for request in arrays.requests(
            key, count, self.count, self.side)]

    def issue(self, client, spec):
        if spec[0] == "array":
            return client.query(spec[1].text)
        return super().issue(client, spec)

    def check_read(self, request, result):
        if not arrays.check(request, result, self.matrices):
            self.checks.wrong_answer("%s of matrix %d differs from numpy"
                                     % (request.pattern, request.index))
            return
        with self._lock:
            self.elements_returned += arrays.expected_elements(request,
                                                               self.side)

    def check_recovered_sample(self, client, acked):
        for request in self._probes:
            self.check_read(request, client.query(request.text))


WORKLOADS = {cls.name: cls for cls in (Sp2bRead, ArraySql)}


# -- the measured run ----------------------------------------------------------------


class PhaseResult:
    def __init__(self, phase, samples, seconds):
        self.phase = phase
        self.samples = samples
        self.seconds = seconds

    def latencies(self, kinds):
        return [s.latency for s in self.samples if s.spec[0] in kinds]


def run_phase(workload, clients, phase, round_, run_seconds):
    # a collection of the generator's own set-up garbage must not land
    # inside the timed loop
    gc.collect()
    gc.freeze()
    seconds = phase.seconds(run_seconds)
    key = (workload.seed, phase.name, round_)
    if phase.loop == "open":
        specs = workload.specs(phase, key, phase.count(run_seconds))
        samples = loadgen.open_loop(clients, specs, phase.rate,
                                    workload.issue, workload.observe)
    else:
        # far more specs than a closed loop can use in ``seconds``
        specs = workload.specs(phase, key, max(64, int(seconds * 4000)))
        samples = loadgen.closed_loop(
            clients, specs, seconds, workload.issue, workload.observe)
    workload.checks.count(samples)
    return PhaseResult(phase, samples, seconds)


def run_round(workload, clients, round_, run_seconds):
    """Run one round's phases; returns their results in order."""
    return [run_phase(workload, clients, phase, round_, run_seconds)
            for phase in workload.phases]


def run_rounds(workload, clients, run_seconds):
    """Run every round; returns the phase results in the order they ran."""
    return [result for round_ in range(workload.rounds)
            for result in run_round(workload, clients, round_, run_seconds)]


READS = ("read", "array")
#: seconds per window of the closed loop's median throughput
CAPACITY_WINDOW = 0.25
#: requests per block of the open loop's median of block medians
LATENCY_BLOCK = 50


def end_to_end(results, setups, ingests, rss_mb, recoveries):
    """The user-visible metrics of one untraced run, and lines
    describing the samples behind them and the open-loop tails.

    A p50 is the median over blocks of ~``LATENCY_BLOCK`` consecutive
    requests of each block's median, and capacity the median over
    ``CAPACITY_WINDOW`` windows of answers per second, so a stretch of
    a slow machine that covers less than half of the run's blocks or
    windows barely moves them.  ``setups``, ``ingests`` and
    ``recoveries`` come from the set-ups and reopens spread over the
    run, and each is reported as its median.  p99 latencies are printed with their
    sample counts but are not end-to-end metrics: from run to run on a
    shared two-core VM they spread by 25-95% of their median, more
    than any regression bound (see METRICS.md).
    """
    reads, writes = [], []
    read_blocks, write_blocks, windows = [], [], []
    for result in results:
        if result.phase.loop == "open":
            for kind, pooled, blocks in ((READS, reads, read_blocks),
                                         (("write",), writes, write_blocks)):
                values = result.latencies(kind)
                pooled += values
                blocks += loadgen.block_medians(values, LATENCY_BLOCK)
        else:
            windows += loadgen.window_rates(result.samples, result.seconds,
                                            CAPACITY_WINDOW)
    metrics = {
        "setup_s": statistics.median(setups),
        "ingest_tps": statistics.median(ingests),
        "read_p50_ms": statistics.median(read_blocks) * 1000,
        "write_p50_ms": statistics.median(write_blocks) * 1000,
        "capacity_qps": statistics.median(windows),
        "server_rss_mb": rss_mb,
        "recovery_s": statistics.median(recoveries),
    }
    lines = ["%s samples: %s" % (name, " ".join("%.4g" % v for v in values))
             for name, values in (("setup_s", setups),
                                  ("ingest_tps", ingests),
                                  ("recovery_s", recoveries))]
    return metrics, lines + [tail_line(kind, values)
                             for kind, values in (("read", reads),
                                                  ("write", writes))]


def tail_line(kind, latencies):
    n = len(latencies)
    return "%s_p99_ms %.4f (%d samples, %d beyond%s)" % (
        kind, loadgen.percentile(latencies, 0.99) * 1000, n,
        loadgen.beyond(n, 0.99),
        "" if loadgen.supports(n, 0.99) else "; too few for a p99")
