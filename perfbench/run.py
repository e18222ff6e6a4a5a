"""SSDM benchmark: one workload against a real server process.

    python3 perfbench/run.py --workload sp2b-read --seed 1 --seconds 36 \\
        --trace 0

Workloads: ``sp2b-read``, ``array-sql`` (see
``workloads.py`` and ``METRICS.md``).  The server runs the repository's
``src/`` in its own process; this process generates every input from
``--seed``, drives the server over two connections and checks every
answer.

``--trace 0`` prints the end-to-end metrics, measured with no benchmark
spans.  ``--trace 1`` runs once more with spans around the public entry
points of each ``repro`` layer, in both processes, and prints the
per-layer metrics instead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when any answer was wrong.

Work files go under ``perfbench/_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit); directions and bounds are in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("ingest_tps", "triples/s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("capacity_qps", "req/s"),
    ("server_rss_mb", "MB"),
    ("recovery_s", "s"),
]


def measure(workload, seconds):
    """Untraced run: one set-up, then each round followed by one more
    set-up from scratch, SIGKILLed and reopened from its WAL REOPENS
    times, so set-ups and recoveries are spread over the run; at the
    end a SIGKILL and reopen of the measured server."""
    from workloads import CONNECTIONS, REOPENS, end_to_end, run_round

    server, setup, ingest = workload.start()
    setups, ingests, recoveries, results = [setup], [ingest], [], []
    try:
        clients = [server.client() for _ in range(CONNECTIONS)]
        try:
            for round_ in range(workload.rounds):
                results += run_round(workload, clients, round_, seconds)
                fresh, setup, ingest = workload.start()
                setups.append(setup)
                ingests.append(ingest)
                try:
                    for _ in range(REOPENS):
                        fresh.kill()
                        started = time.perf_counter()
                        fresh = workload.reopen(fresh)
                        recoveries.append(time.perf_counter() - started)
                        workload.check_recovered(fresh, written=False)
                finally:
                    fresh.stop()
                shutil.rmtree(fresh.data)
        finally:
            for client in clients:
                client.close()
        rss_mb = server.peak_rss_mb()
        server.kill()
        started = time.perf_counter()
        server = workload.reopen(server)
        final = time.perf_counter() - started
        workload.check_recovered(server)
    finally:
        server.stop()
    metrics, lines = end_to_end(results, setups, ingests, rss_mb,
                                recoveries)
    return metrics, lines + [
        "measured server recovery (WAL with the run's writes): %.4f s"
        % final]


def measure_traced(workload, seconds, workdir):
    """Traced run: one set-up, the rounds untraced for reference, then
    the rounds with spans on, then a traced reopen."""
    import layers
    import tracing
    from workloads import CONNECTIONS, run_rounds

    recorder = tracing.Recorder("c")
    tracing.install(recorder, tracing.CLIENT_TARGETS)
    run = SimpleNamespace()

    def path(name):
        return os.path.join(workdir, name + ".json")

    server = None
    try:
        server, _, _ = workload.start(trace=True)
        server.command("trace off")
        server.command("dump " + path("setup"))
        run.inserted_at_setup = getattr(workload, "triples", 0)
        clients = [server.client() for _ in range(CONNECTIONS)]
        try:
            cpu = server.cpu_seconds()
            own_cpu = time.process_time()
            started = time.monotonic()
            run.untraced = run_rounds(workload, clients, seconds)
            run.loadgen_cpu_frac = (time.process_time() - own_cpu) \
                / (time.monotonic() - started)
            run.server_cpu_s = server.cpu_seconds() - cpu

            server.command("trace on")
            recorder.active = True
            run.stats_before = clients[0].stats()
            elements = getattr(workload, "elements_returned", 0)
            run.traced = run_rounds(workload, clients, seconds)
            run.elements_returned = getattr(
                workload, "elements_returned", 0) - elements
            run.stats_after = clients[0].stats()
            recorder.active = False
            server.command("dump " + path("phase"))
        finally:
            for client in clients:
                client.close()
        recorder.dump(path("client"))
        server.kill()
        server = workload.reopen(server, trace=True)
        workload.check_recovered(server)
        server.command("dump " + path("recovery"))
    finally:
        if server is not None:
            server.stop()
    for name in ("setup", "phase", "client", "recovery"):
        setattr(run, name + "_dump", tracing.load(path(name)))
    return layers.compute(run)


def main(argv=None, **sizes):
    """The command; ``sizes`` are keyword arguments of the workload's
    constructor that replace its dataset sizes (the tests run small
    ones)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sp2b-read", "array-sql"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("no SSDM sources at %s\n" % SRC)
        return 2
    for entry in (HERE, SRC):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    import layers
    from workloads import WORKLOADS, Checks

    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, checks,
                                            **sizes)
        if args.trace:
            values = measure_traced(workload, args.seconds, workdir)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values, lines = measure(workload, args.seconds)
            units = dict(END_TO_END)
            for line in lines:
                print(line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass                 # another run is still using it
        # finish the disk work of the deletion (hundreds of MB on
        # array-sql) now, not during the next run's measurements
        os.sync()

    for note in checks.notes:
        print(note)
    print("error_rate: %.6f (%d failed + %d wrong of %d attempted)" % (
        (checks.failed + checks.wrong) / max(1, checks.attempted),
        checks.failed, checks.wrong, checks.attempted))
    for name in units:
        print("%-40s %14.4f %s" % (name, values[name], units[name]))
    print(json.dumps({
        "correct": checks.wrong == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if checks.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
