"""Process-wide, thread-safe buffer pool of fetched array chunks.

Generalizes the old per-resolver ``ChunkCache`` LRU map into the chunk
buffer SSDM shares between *all* array accesses (dissertation section
6.2): one byte-bounded LRU pool serves every ASEI back-end, every APR
resolver, and every concurrent workbench request.

Three capabilities distinguish it from a plain LRU map:

- **Pinning** — APR pins the chunks of a view for the duration of a
  resolve, so chunks fetched early are not evicted before assembly.
- **In-flight deduplication** — concurrent queries that need the same
  ``(array, chunk)`` never double-fetch: the first caller *claims* the
  chunk and others wait on its :class:`InFlightFetch`.
- **Instrumentation** — counters (hits, misses, prefetch-hits,
  wasted-prefetches, in-flight-waits, rejected, evictions, bytes in/out)
  surfaced through ``SSDM.stats()`` and the server's ``stats`` op, with
  the invariant ``hits + misses == lookups``.

Entries are keyed by a two-level dict ``array_key -> {chunk_id: buf}``
so per-array invalidation and pinning are O(chunks of that array), not
O(pool size).  ``array_key`` is any hashable value; stores namespace
their array ids with a per-instance token (``ArrayStore.pool_key``) so
one process-wide pool can serve many stores without id collisions.

Chunks larger than the pool's byte budget are rejected outright (and
counted) instead of being admitted and permanently blowing the budget.

Corrupt chunks never enter the pool: the checksummed store read paths
verify fetched bytes *before* publishing them (a mismatch raises
:class:`~repro.exceptions.CorruptionError` instead of returning data),
so a cached chunk is always one that passed verification.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import governor as gov
from repro import observability as obs

#: Default pool budget: generous enough for the benchmark working sets,
#: small enough to exercise eviction under real workloads.
DEFAULT_POOL_BYTES = 64 * 1024 * 1024


def _observe_pool(hits, misses):
    """Report demand lookups to the active trace and the metrics.

    Called *outside* the pool lock so instrumentation never extends the
    critical section every store in the process contends on.
    """
    if not hits and not misses:
        return
    obs.tick("pool_hit", hits=hits, misses=misses)
    registry = obs.metrics()
    if hits:
        registry.inc("pool_hits_total", hits)
    if misses:
        registry.inc("pool_misses_total", misses)


class InFlightFetch:
    """A chunk fetch owned by one thread that others may wait on."""

    __slots__ = ("event", "value", "error", "stale")

    def __init__(self):
        self.event = threading.Event()
        self.value = None
        self.error = None
        self.stale = False


class BufferPool:
    """Byte-bounded, thread-safe LRU pool of chunk buffers."""

    def __init__(self, max_bytes=DEFAULT_POOL_BYTES):
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        #: two-level map: array_key -> {chunk_id: buffer}
        self._arrays: Dict[object, Dict[int, object]] = {}
        #: global LRU order; values are the entry's byte size
        self._lru: "OrderedDict[Tuple[object, int], int]" = OrderedDict()
        self._pins: Dict[Tuple[object, int], int] = {}
        self._prefetched: Set[Tuple[object, int]] = set()
        self._inflight: Dict[Tuple[object, int], InFlightFetch] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.prefetch_hits = 0
        self.wasted_prefetches = 0
        self.inflight_waits = 0
        self.rejected = 0
        self.evictions = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def __len__(self):
        with self._lock:
            return len(self._lru)

    @property
    def current_bytes(self):
        with self._lock:
            return self._bytes

    # -- lookups -----------------------------------------------------------------

    def get(self, array_key, chunk_id):
        """One cached chunk, or None; counts a hit or a miss."""
        with self._lock:
            chunk = self._get_locked(array_key, chunk_id)
        hit = chunk is not None
        _observe_pool(1 if hit else 0, 0 if hit else 1)
        return chunk

    def _get_locked(self, array_key, chunk_id):
        bucket = self._arrays.get(array_key)
        chunk = None if bucket is None else bucket.get(chunk_id)
        if chunk is None:
            self.misses += 1
            return None
        key = (array_key, chunk_id)
        self._lru.move_to_end(key)
        self.hits += 1
        self.bytes_out += self._lru[key]
        if key in self._prefetched:
            self._prefetched.discard(key)
            self.prefetch_hits += 1
        return chunk

    def claim(self, array_key, chunk_ids, record=True):
        """Partition needed chunks into (cached, owned, waiting).

        ``cached`` maps chunk id -> buffer for resident chunks (counted
        as hits); ``owned`` lists ids this caller must fetch — they are
        registered in-flight and MUST be completed with :meth:`publish`
        or :meth:`fail`; ``waiting`` maps ids being fetched by another
        thread to the :class:`InFlightFetch` to :meth:`wait` on.

        ``record=False`` skips hit/miss accounting (used for
        speculative prefetch probes, which are not demand lookups).
        """
        cached: Dict[int, object] = {}
        owned: List[int] = []
        waiting: Dict[int, InFlightFetch] = {}
        with self._lock:
            bucket = self._arrays.get(array_key)
            for chunk_id in chunk_ids:
                chunk = None if bucket is None else bucket.get(chunk_id)
                if chunk is not None:
                    if record:
                        key = (array_key, chunk_id)
                        self._lru.move_to_end(key)
                        self.hits += 1
                        self.bytes_out += self._lru[key]
                        if key in self._prefetched:
                            self._prefetched.discard(key)
                            self.prefetch_hits += 1
                    cached[chunk_id] = chunk
                    continue
                if record:
                    self.misses += 1
                key = (array_key, chunk_id)
                fetch = self._inflight.get(key)
                if fetch is not None:
                    waiting[chunk_id] = fetch
                    if record:
                        self.inflight_waits += 1
                else:
                    self._inflight[key] = InFlightFetch()
                    owned.append(chunk_id)
        if record:
            _observe_pool(len(cached), len(owned) + len(waiting))
        return cached, owned, waiting

    @staticmethod
    def wait(fetch, timeout=None):
        """Block until another thread's fetch completes; returns the
        chunk buffer (raises the owner's error if the fetch failed)."""
        if not fetch.event.wait(timeout):
            raise TimeoutError("in-flight chunk fetch timed out")
        if fetch.error is not None:
            raise fetch.error
        return fetch.value

    # -- insertion ----------------------------------------------------------------

    def put(self, array_key, chunk_id, chunk, prefetched=False):
        """Admit one chunk; returns False if it was rejected (oversized).

        ``prefetched`` marks the entry as speculatively fetched: its
        first demand hit counts as a prefetch-hit, and eviction or
        invalidation before any hit counts as a wasted prefetch.
        """
        with self._lock:
            return self._put_locked(array_key, chunk_id, chunk, prefetched)

    def _put_locked(self, array_key, chunk_id, chunk, prefetched):
        nbytes = int(getattr(chunk, "nbytes", 0) or len(chunk))
        if nbytes > self.max_bytes:
            # an oversized chunk would permanently blow the byte budget
            self.rejected += 1
            return False
        key = (array_key, chunk_id)
        if key in self._lru:
            self._bytes -= self._lru[key]
            self._lru.move_to_end(key)
        self._arrays.setdefault(array_key, {})[chunk_id] = chunk
        self._lru[key] = nbytes
        self._bytes += nbytes
        self.bytes_in += nbytes
        if prefetched:
            self._prefetched.add(key)
        else:
            self._prefetched.discard(key)
        self._evict_locked()
        return True

    def publish(self, array_key, chunks, prefetched=False):
        """Deliver fetched chunks: admit them and wake any waiters.

        ``chunks`` maps chunk id -> buffer, as returned by the ASEI
        batch/range readers.  In-flight registrations for these ids are
        completed; ids invalidated while the fetch was in flight are
        delivered to waiters but not admitted to the pool.
        """
        with self._lock:
            for chunk_id, chunk in chunks.items():
                key = (array_key, chunk_id)
                fetch = self._inflight.pop(key, None)
                stale = fetch is not None and fetch.stale
                if not stale:
                    self._put_locked(array_key, chunk_id, chunk, prefetched)
                if fetch is not None:
                    fetch.value = chunk
                    fetch.event.set()

    def fail(self, array_key, chunk_ids, error):
        """Abort in-flight fetches, propagating ``error`` to waiters."""
        with self._lock:
            for chunk_id in chunk_ids:
                fetch = self._inflight.pop((array_key, chunk_id), None)
                if fetch is not None:
                    fetch.error = error
                    fetch.event.set()

    # -- pinning ------------------------------------------------------------------

    def pin(self, array_key, chunk_ids):
        """Protect chunks from eviction (counted; pins nest)."""
        with self._lock:
            for chunk_id in chunk_ids:
                key = (array_key, chunk_id)
                self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, array_key, chunk_ids):
        with self._lock:
            for chunk_id in chunk_ids:
                key = (array_key, chunk_id)
                count = self._pins.get(key, 0) - 1
                if count <= 0:
                    self._pins.pop(key, None)
                else:
                    self._pins[key] = count
            # apply any eviction deferred while the pins were held
            self._evict_locked()

    @contextmanager
    def pinned(self, array_key, chunk_ids):
        chunk_ids = list(chunk_ids)
        self.pin(array_key, chunk_ids)
        try:
            yield
        finally:
            self.unpin(array_key, chunk_ids)

    # -- eviction & invalidation ---------------------------------------------------

    def _evict_locked(self):
        # under governor pressure the pool evicts down to a shrunk soft
        # limit, yielding memory back before any query is killed; the
        # hard max_bytes admission rule in _put_locked is unchanged
        limit = gov.get_governor().pool_soft_limit(self.max_bytes)
        if self._bytes <= limit:
            return
        for key in list(self._lru):
            if self._bytes <= limit:
                break
            if self._pins.get(key):
                continue
            self._remove_locked(key, wasted=True)
            self.evictions += 1

    def _remove_locked(self, key, wasted):
        nbytes = self._lru.pop(key)
        array_key, chunk_id = key
        bucket = self._arrays.get(array_key)
        if bucket is not None:
            bucket.pop(chunk_id, None)
            if not bucket:
                self._arrays.pop(array_key, None)
        self._bytes -= nbytes
        if key in self._prefetched:
            self._prefetched.discard(key)
            if wasted:
                self.wasted_prefetches += 1

    def invalidate(self, array_key=None, chunk_id=None):
        """Drop one chunk, one array's chunks, or everything.

        Per-array invalidation walks only that array's bucket (O(chunks
        of the array)).  Fetches currently in flight for the target are
        marked stale so their results are not admitted after the fact.
        """
        with self._lock:
            if array_key is None:
                keys = list(self._lru)
            elif chunk_id is None:
                bucket = self._arrays.get(array_key, {})
                keys = [(array_key, cid) for cid in list(bucket)]
            else:
                keys = (
                    [(array_key, chunk_id)]
                    if chunk_id in self._arrays.get(array_key, {}) else []
                )
            for key in keys:
                self._remove_locked(key, wasted=True)
            for key, fetch in self._inflight.items():
                if array_key is None or key[0] == array_key:
                    if chunk_id is None or key[1] == chunk_id:
                        fetch.stale = True

    # -- reporting ----------------------------------------------------------------

    def stats(self):
        """Atomic snapshot of every counter plus occupancy."""
        with self._lock:
            return {
                "lookups": self.hits + self.misses,
                "hits": self.hits,
                "misses": self.misses,
                "prefetch_hits": self.prefetch_hits,
                "wasted_prefetches": self.wasted_prefetches,
                "inflight_waits": self.inflight_waits,
                "rejected": self.rejected,
                "evictions": self.evictions,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "entries": len(self._lru),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "pinned": len(self._pins),
                # bytes held down by pins right now; the pin-leak
                # regression tests assert this returns to zero after
                # every abort path (timeout, governor kill)
                "pinned_bytes": sum(
                    self._lru.get(key, 0) for key in self._pins
                ),
                "inflight": len(self._inflight),
            }

    def reset_counters(self):
        """Zero the traffic counters (occupancy is untouched)."""
        with self._lock:
            self.hits = self.misses = 0
            self.prefetch_hits = self.wasted_prefetches = 0
            self.inflight_waits = self.rejected = self.evictions = 0
            self.bytes_in = self.bytes_out = 0

    def __repr__(self):
        return "BufferPool(%r)" % (self.stats(),)


# -- the process-wide shared pool --------------------------------------------------

_shared: Optional[BufferPool] = None
_shared_lock = threading.Lock()


def shared_pool():
    """The process-wide buffer pool every store shares by default."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = BufferPool()
        return _shared


def set_shared_pool(pool):
    """Install a replacement shared pool; returns the previous one."""
    global _shared
    with _shared_lock:
        previous = _shared
        _shared = pool
        return previous
