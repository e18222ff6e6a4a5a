"""Array storage: the Array Storage Extensibility Interface and back-ends.

Chapter 6 of the dissertation: arrays too large (or too numerous) for main
memory are linearized, chunked, and stored in an external system behind the
*Array Storage Extensibility Interface* (ASEI).  Triple values then hold
:class:`~repro.arrays.ArrayProxy` descriptors, and the array-proxy-resolve
(APR) operator fetches exactly the chunks a query's view touches, using one
of four retrieval strategies:

- ``SINGLE``   — one back-end request per chunk;
- ``BUFFER``   — batch up to *buffer_size* chunk ids per request (IN-lists);
- ``SPD``      — run the Sequence Pattern Detector over the chunk-id stream
  and issue range requests for the arithmetic subsequences it finds;
- ``PREFETCH`` — SPD planning plus a parallel fetch pipeline through the
  process-wide, instrumented chunk :class:`BufferPool`.

Back-ends provided: in-memory (:class:`MemoryArrayStore`), binary files
(:class:`FileArrayStore`), and an RDBMS via SQLite
(:class:`SqlArrayStore`).

The durability layer (:mod:`repro.storage.durability`) adds a
write-ahead :class:`DatasetJournal` for the RDF image, checksummed chunk
reads in the persistent back-ends (corruption raises a typed ``CORRUPT``
error instead of returning wrong bytes), and ``verify()`` / ``repair()``
scans that quarantine damaged chunks.
"""

from repro.storage.asei import ArrayStore, StorageStats
from repro.storage.durability import (
    DatasetJournal,
    WriteAheadLog,
    atomic_write_bytes,
    payload_crc,
)
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.memory import MemoryArrayStore
from repro.storage.filestore import FileArrayStore
from repro.storage.sqlstore import SqlArrayStore
from repro.storage.sqlgraph import SqlTripleGraph
from repro.storage.apr import APRResolver, Strategy
from repro.storage.spd import SequencePatternDetector
from repro.storage.bufferpool import BufferPool, set_shared_pool, shared_pool

__all__ = [
    "ArrayStore",
    "StorageStats",
    "DatasetJournal",
    "WriteAheadLog",
    "atomic_write_bytes",
    "payload_crc",
    "FaultPlan",
    "SimulatedCrash",
    "MemoryArrayStore",
    "FileArrayStore",
    "SqlArrayStore",
    "SqlTripleGraph",
    "APRResolver",
    "Strategy",
    "SequencePatternDetector",
    "BufferPool",
    "shared_pool",
    "set_shared_pool",
]
