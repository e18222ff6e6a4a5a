"""The load generator: server processes, open and closed loops, tails.

The generator is one process with at most two threads (the main thread
and one worker), each owning one ``SSDMClient`` connection, so it never
needs more than the machine's two cores between it and the server.
"""

from __future__ import annotations

import json
import math
import os
import select
import statistics
import subprocess
import sys
import threading
import time

from repro.client.server import SSDMClient
from repro.exceptions import SciSparqlError

HERE = os.path.dirname(os.path.abspath(__file__))
SERVER = os.path.join(HERE, "server.py")

#: Client-side bound on one request; a failed request is charged this
#: latency, so failures count against every latency limit.
CLIENT_TIMEOUT_S = 30.0
#: How long a server may take to print its ready line.
START_TIMEOUT_S = 60.0
#: Samples a tail percentile needs beyond it to be reported.
TAIL_SAMPLES = 10


# -- percentiles -----------------------------------------------------------------


def _rank(n, q):
    """1-based nearest rank of the q-quantile of n samples."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n, q):
    """How many of n samples lie beyond their q-quantile."""
    return n - _rank(n, q)


def supports(n, q):
    """Whether n samples support reporting the q-quantile."""
    return beyond(n, q) >= TAIL_SAMPLES


# -- the server process ----------------------------------------------------------


class ServerProcess:
    """``perfbench/server.py`` in its own process.

    The constructor returns once the server prints its ready line, so
    ``time.perf_counter()`` around it times process start to serving.
    """

    def __init__(self, workdir, data, array_store=False, ingest=None,
                 trace=False):
        os.makedirs(data, exist_ok=True)
        self.data = data
        command = [sys.executable, SERVER, "--data", data]
        if array_store:
            command.append("--array-store")
        if ingest is not None:
            command += ["--ingest", ingest]
        if trace:
            command.append("--trace")
        self._stderr = open(os.path.join(data, "server.err"), "w")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, cwd=workdir,
        )
        try:
            self.ready = self._read_line(START_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.port = self.ready["port"]

    def _read_line(self, timeout):
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError(
                "server process did not answer (exit code %s)"
                % self.proc.poll())
        return json.loads(line)

    def command(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        answer = self._read_line(CLIENT_TIMEOUT_S)
        if not answer.get("ok"):
            raise RuntimeError("server command %r failed: %r"
                               % (text, answer))
        return answer

    def client(self):
        # no retries: a shed or dropped request must show as a failure
        return SSDMClient("127.0.0.1", self.port,
                          timeout=CLIENT_TIMEOUT_S, retries=0)

    def _proc_file(self, name):
        with open("/proc/%d/%s" % (self.proc.pid, name)) as handle:
            return handle.read()

    def peak_rss_mb(self):
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/%d/status" % self.proc.pid)

    def cpu_seconds(self):
        # fields after the parenthesized command name; utime and stime
        # are the 14th and 15th fields of the whole line
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def kill(self):
        """SIGKILL: no shutdown code runs, only what was fsync'd stays."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self):
        """Close stdin, which the server takes as its shutdown order."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=CLIENT_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self._reap()

    def _reap(self):
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._stderr.close()


# -- issuing requests ------------------------------------------------------------


class Sample:
    """One request: what was sent, how late, how long, what came back,
    and when (``done``, seconds into its phase) the answer arrived."""

    __slots__ = ("spec", "latency", "lag", "ok", "result", "done")

    def __init__(self, spec, latency, lag, ok, result, done):
        self.spec = spec
        self.latency = latency
        self.lag = lag
        self.ok = ok
        self.result = result
        self.done = done


def _attempt(issue, client, spec):
    try:
        return True, issue(client, spec)
    except (SciSparqlError, OSError) as error:
        return False, error


def _run_workers(work, count):
    """Run ``work(index)`` for each index: 0 here, the rest in threads."""
    errors = []

    def guarded(index):
        try:
            work(index)
        except BaseException as error:     # re-raised in the caller
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(index,))
               for index in range(1, count)]
    for thread in threads:
        thread.start()
    guarded(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(clients, specs, rate, issue, observe):
    """Send ``specs[i]`` at ``start + i / rate``, whatever came before.

    Whichever connection is free takes the next arrival; when both are
    busy the arrival waits, and its latency still runs from when it was
    due, so a stall shows in every request it delays.  ``observe`` sees
    each sample after its clock has stopped.
    """
    samples = [None] * len(specs)
    lock = threading.Lock()
    cursor = iter(range(len(specs)))
    start = time.monotonic() + 0.02

    def work(index):
        client = clients[index]
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + i / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            ok, result = _attempt(issue, client, specs[i])
            done = time.monotonic()
            sample = samples[i] = Sample(
                specs[i], done - due if ok else CLIENT_TIMEOUT_S,
                sent - due, ok, result, done - start)
            observe(sample)
            if ok:
                sample.result = None       # checked: keep memory flat

    _run_workers(work, len(clients))
    return samples


def closed_loop(clients, specs, seconds, issue, observe):
    """Each connection sends its next spec as soon as the last answers.

    Connection k takes ``specs[k::len(clients)]`` in order until
    ``seconds`` have passed.
    """
    per_client = [[] for _ in clients]
    start = time.monotonic()
    end = start + seconds

    def work(index):
        client = clients[index]
        for spec in specs[index::len(clients)]:
            sent = time.monotonic()
            if sent >= end:
                return
            ok, result = _attempt(issue, client, spec)
            done = time.monotonic()
            sample = Sample(spec, done - sent if ok else CLIENT_TIMEOUT_S,
                            0.0, ok, result, done - start)
            per_client[index].append(sample)
            observe(sample)
            if ok:
                sample.result = None
        raise RuntimeError("closed loop ran out of requests")

    _run_workers(work, len(clients))
    return [sample for part in per_client for sample in part]


def window_rates(samples, seconds, window):
    """Answers per second in each ``window``-second window of a closed
    loop that ran ``seconds``.

    A window's rate is its answers after the first over the time from
    its first answer to its last.  A median of windows is not moved by
    a short stall of the machine the way a total over the phase is.
    """
    slots = [[] for _ in range(max(1, int(seconds / window)))]
    for sample in samples:
        slot = int(sample.done / window)
        if sample.ok and slot < len(slots):
            slots[slot].append(sample.done)
    return [(len(times) - 1) / (max(times) - min(times))
            if len(times) > 1 else 0.0 for times in slots]


def block_medians(values, size):
    """Medians of ``values`` cut into consecutive blocks of about
    ``size`` (the nearest whole number of blocks, sizes differing by at
    most one); none when ``values`` is empty."""
    if not values:
        return []
    blocks = max(1, round(len(values) / size))
    bounds = [len(values) * k // blocks for k in range(blocks + 1)]
    return [statistics.median(values[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]
