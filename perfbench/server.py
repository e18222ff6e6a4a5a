"""The server process the benchmark drives.

    python3 perfbench/server.py --data DIR [--array-store]
        [--ingest FILE.npy] [--trace]

Opens ``SSDM.open(DIR/wal)`` (fsync on every WAL record, the default),
with a file-backed ``SqlArrayStore`` at ``DIR/arrays.db`` when
``--array-store`` is given, and serves it with a default ``SSDMServer``
on an ephemeral port.  ``--ingest`` first stores the matrices in FILE
through ``SSDM.add`` and checkpoints them into the WAL with
``SSDM.snapshot`` (``add`` itself writes no WAL record), so a reopen
recovers them from the WAL and the store.

The process prints one JSON line once it serves (``port``, ``pid``,
ingest rate), then obeys commands on stdin, one per line, answering
each with one JSON line:

- ``trace on`` / ``trace off``: resume or pause span recording
  (``--trace`` only; recording starts with the process, so a reopen's
  WAL replay is traced);
- ``dump PATH``: write the spans and counters recorded so far to PATH
  and start a fresh record;

and shuts down cleanly when stdin closes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for entry in (HERE, SRC):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def _ingest_arrays(ssdm, path):
    """Store the matrices of ``path`` with their metadata, then
    checkpoint; returns the ingest rate in triples/s over the whole
    store and checkpoint."""
    import numpy as np

    import arrays
    from repro import NumericArray, URI
    from repro.rdf.term import Literal

    data = np.load(path, mmap_mode="r")
    data_property = URI(arrays.P_DATA)
    triples = 0
    elapsed = 0.0
    for index in range(data.shape[0]):
        matrix = NumericArray(np.array(data[index]))
        started = time.perf_counter()
        subject = URI(arrays.matrix_uri(index))
        ssdm.add(subject, data_property, matrix)
        for _, predicate, value in arrays.metadata(index):
            ssdm.add(subject, URI(predicate),
                     URI(value) if predicate == arrays.P_EXPERIMENT
                     else Literal(value))
        elapsed += time.perf_counter() - started
        triples += 1 + len(arrays.metadata(index))
    started = time.perf_counter()
    ssdm.snapshot()
    elapsed += time.perf_counter() - started
    return triples / elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--array-store", action="store_true")
    parser.add_argument("--ingest", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder("s")
        tracing.install(recorder, tracing.SERVER_TARGETS)
        recorder.active = True

    from repro.client.server import SSDMServer
    from repro.ssdm import SSDM

    store = None
    if args.array_store:
        from repro.storage import SqlArrayStore
        store = SqlArrayStore(os.path.join(args.data, "arrays.db"))
    ssdm = SSDM.open(os.path.join(args.data, "wal"), array_store=store)
    ready = {"pid": os.getpid(), "ingest_tps": None}
    if args.ingest is not None:
        ready["ingest_tps"] = _ingest_arrays(ssdm, args.ingest)
    server = SSDMServer(ssdm, port=0)
    server.start()
    ready["port"] = server.server_address[1]
    _reply(ready)
    try:
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "trace" and recorder is not None:
                recorder.active = command[1:] == ["on"]
                _reply({"ok": True})
            elif command[0] == "dump" and recorder is not None:
                recorder.dump(command[1])
                _reply({"ok": True})
            else:
                _reply({"ok": False, "error": "unknown command %r" % line})
    finally:
        server.stop()
        ssdm.close()
        if store is not None:
            store.close()


def _reply(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
