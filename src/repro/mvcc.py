"""MVCC snapshot reads keyed by the WAL sequence number.

Every admitted query reads an immutable :class:`DatasetVersion` — the
set of per-graph frozen states published by the single writer at the
last WAL-record boundary — so updates append freely while reads run
completely lock-free.  The pieces:

``DatasetVersion``
    One published version: ``seq`` (the WAL seq whose effects it
    contains), a per-graph table of frozen
    :class:`~repro.rdf.graph.GraphVersion` states, and the dataset
    change-stamp it was captured at.  Publication is a single
    reference assignment on the writer thread
    (:meth:`~repro.rdf.dataset.Dataset.publish`), so a reader that
    loads ``dataset._published`` once can never observe a half-applied
    update.

``Snapshot`` / ``SnapshotManager``
    A snapshot pins one version for the duration of a query.  The
    manager registers/releases snapshots, keeps a bounded ring of
    recently published versions (exact-seq replica reads), tracks the
    low-water seq, and *bounds retention*: when too many snapshots are
    live, or the pinned versions hold too many retired index bytes, the
    oldest readers are invalidated and observe a typed non-retryable
    :class:`~repro.exceptions.SnapshotGoneError` at their next graph
    access — never a silently inconsistent answer.  A WAL seq
    regression (log compaction rewrites the journal from seq 1, replica
    resync clears the dataset) invalidates every live snapshot for the
    same reason.

``snapshot_scope`` / ``current_snapshot``
    The ambient thread-local scope the engine's read paths consult,
    mirroring ``deadline_scope`` and the governor's ``ResourceScope``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.exceptions import SnapshotGoneError

#: Default bound on concurrently live snapshots before the oldest is
#: invalidated (one per admitted query; admission control keeps the
#: practical count far lower).
MAX_LIVE_SNAPSHOTS = 256

#: How many published versions stay addressable by exact seq for
#: ``execute(at_seq=...)`` replica reads, beyond those pinned live.
RETAIN_VERSIONS = 8


class DatasetVersion:
    """One immutable published state of a dataset.

    ``entries`` maps ``id(graph) -> (graph, GraphVersion)``; keeping
    the graph reference in the entry both prevents ``id()`` reuse while
    the version is alive and lets :meth:`version_of` verify identity.
    """

    __slots__ = ("seq", "entries", "stamp")

    def __init__(self, seq, entries, stamp):
        self.seq = seq
        self.entries = entries
        self.stamp = stamp

    def version_of(self, graph):
        """The frozen state of ``graph`` in this version, or None for
        graphs outside the dataset (e.g. query-local merged graphs)."""
        entry = self.entries.get(id(graph))
        if entry is not None and entry[0] is graph:
            return entry[1]
        return None

    def graph_versions(self):
        return [entry[1] for entry in self.entries.values()]


class Snapshot:
    """One reader's pin on a :class:`DatasetVersion`.

    ``version_of`` raises :class:`SnapshotGoneError` once the manager
    has reclaimed this snapshot, so a long reader fails loudly at its
    next graph access instead of mixing two versions.
    """

    __slots__ = ("manager", "version", "seq", "token", "gone", "released")

    def __init__(self, manager, version, token):
        self.manager = manager
        self.version = version
        self.seq = version.seq
        self.token = token
        self.gone = False
        self.released = False

    def check(self):
        if self.gone:
            raise SnapshotGoneError(
                "snapshot at seq %d was reclaimed (retention exceeded "
                "or version history reset); re-issue the read to get a "
                "fresh snapshot" % self.seq
            )

    def version_of(self, graph):
        """Frozen graph state at this snapshot, or None for graphs the
        version does not cover (reads then freeze the graph's current
        state)."""
        self.check()
        return self.version.version_of(graph)

    def release(self):
        if not self.released:
            self.released = True
            self.manager.release(self)


class SnapshotManager:
    """Registers per-query snapshots and bounds version retention."""

    def __init__(self, max_snapshots=MAX_LIVE_SNAPSHOTS,
                 retain_versions=RETAIN_VERSIONS,
                 max_retained_bytes=None):
        self.max_snapshots = max_snapshots
        self.retain_versions = retain_versions
        self.max_retained_bytes = max_retained_bytes
        self._lock = threading.Lock()
        self._live = {}          # token -> Snapshot, insertion-ordered
        self._recent = {}        # seq -> DatasetVersion ring
        self._next_token = 0
        self._last_seq = None
        self.acquired = 0
        self.snapshot_gone = 0
        self.regressions = 0

    # -- acquisition ----------------------------------------------------

    def acquire(self, version):
        """Pin ``version`` for one reader; returns the Snapshot."""
        with self._lock:
            self._next_token += 1
            snapshot = Snapshot(self, version, self._next_token)
            self._live[snapshot.token] = snapshot
            self.acquired += 1
            self._enforce_locked()
        return snapshot

    def release(self, snapshot):
        with self._lock:
            self._live.pop(snapshot.token, None)

    @contextmanager
    def reading(self, version):
        """Acquire a snapshot of ``version`` for the calling reader."""
        snapshot = self.acquire(version)
        try:
            yield snapshot
        finally:
            snapshot.release()

    # -- publication ----------------------------------------------------

    def note_published(self, version):
        """Record a newly published version (writer thread).

        Detects WAL seq regressions (journal compaction, replica
        resync) and invalidates every live snapshot — their versions
        belong to a history that no longer exists.
        """
        with self._lock:
            if self._last_seq is not None and version.seq < self._last_seq:
                self.regressions += 1
                self._recent.clear()
                for snapshot in self._live.values():
                    if not snapshot.gone:
                        snapshot.gone = True
                        self.snapshot_gone += 1
                self._live.clear()
            self._last_seq = version.seq
            self._recent[version.seq] = version
            while len(self._recent) > self.retain_versions:
                oldest = next(iter(self._recent))
                del self._recent[oldest]
            self._enforce_locked()

    def retained(self, seq):
        """The retained version published exactly at ``seq``, or None."""
        with self._lock:
            return self._recent.get(seq)

    # -- retention ------------------------------------------------------

    def _enforce_locked(self):
        while len(self._live) > self.max_snapshots:
            self._reclaim_oldest_locked()
        if self.max_retained_bytes is not None:
            while len(self._live) > 1 and \
                    self._retained_bytes_locked() > self.max_retained_bytes:
                self._reclaim_oldest_locked()

    def _reclaim_oldest_locked(self):
        token = next(iter(self._live))
        snapshot = self._live.pop(token)
        snapshot.gone = True
        self.snapshot_gone += 1

    def _retained_bytes_locked(self):
        seen = set()
        total = 0
        for snapshot in self._live.values():
            for gv in snapshot.version.graph_versions():
                total += gv.retained_nbytes(seen)
        return total

    def retained_bytes(self):
        """Bytes held only because snapshots pin retired versions.

        Counts index arrays (deduplicated across snapshots) that are no
        longer a graph's current base, plus overlay copies.  Feeds the
        resource governor's pressure signal.
        """
        with self._lock:
            return self._retained_bytes_locked()

    # -- observability --------------------------------------------------

    def low_water_seq(self):
        """Oldest seq still pinned by a live snapshot (None when idle)."""
        with self._lock:
            seqs = [s.seq for s in self._live.values() if not s.gone]
        return min(seqs) if seqs else None

    def live_count(self):
        with self._lock:
            return len(self._live)

    def stats(self):
        with self._lock:
            live = len(self._live)
            retained_versions = len(self._recent)
            retained_bytes = self._retained_bytes_locked()
            seqs = [s.seq for s in self._live.values() if not s.gone]
        return {
            "live_snapshots": live,
            "retained_versions": retained_versions,
            "retained_bytes": int(retained_bytes),
            "low_water_seq": min(seqs) if seqs else None,
            "last_published_seq": self._last_seq,
            "acquired": self.acquired,
            "snapshot_gone": self.snapshot_gone,
            "regressions": self.regressions,
        }


# -- ambient scope ------------------------------------------------------

_SCOPE = threading.local()


def current_snapshot():
    """The snapshot installed for the calling thread, or None."""
    return getattr(_SCOPE, "snapshot", None)


@contextmanager
def snapshot_scope(snapshot):
    """Install ``snapshot`` as the ambient snapshot for this thread.

    Every graph read (``Graph._reader``, used by ``Graph.triples`` and
    the idjoin fast path) consults :func:`current_snapshot` and reads
    the pinned version; scopes nest (a sub-query inherits the outer
    snapshot unless explicitly overridden).
    """
    previous = getattr(_SCOPE, "snapshot", None)
    _SCOPE.snapshot = snapshot
    try:
        yield snapshot
    finally:
        _SCOPE.snapshot = previous
