"""ASEI back-ends: storage, retrieval strategies, SPD, cache, proxies.

The ``array_store`` fixture parametrizes over all three back-ends so every
test here runs against memory, file, and SQLite storage.
"""

import numpy as np
import pytest

from repro.arrays import ArrayProxy, NumericArray, Span
from repro.exceptions import StorageError
from repro.storage import (
    APRResolver, BufferPool, FileArrayStore, MemoryArrayStore,
    SequencePatternDetector, SqlArrayStore, Strategy,
)
from repro.storage.spd import detect_patterns

#: Byte budget of a per-resolver chunk cache in these tests.
CACHE_BYTES = 16 * 1024 * 1024


@pytest.fixture
def data():
    return np.arange(1000, dtype=np.float64).reshape(20, 50)


@pytest.fixture
def stored(array_store, data):
    return array_store.put(NumericArray(data))


class TestPutAndMeta:
    def test_put_returns_whole_proxy(self, stored, data):
        assert isinstance(stored, ArrayProxy)
        assert stored.shape == (20, 50)
        assert stored.is_whole_array()

    def test_meta(self, array_store, stored):
        meta = array_store.meta(stored.array_id)
        assert meta.shape == (20, 50)
        assert meta.element_type == "f8"
        assert meta.layout.element_count == 1000

    def test_unknown_array_id(self, array_store):
        with pytest.raises(StorageError):
            array_store.meta(999_999)

    def test_proxy_lookup(self, array_store, stored):
        again = array_store.proxy(stored.array_id)
        assert again == stored

    def test_stats_track_stores(self, array_store, data):
        before = array_store.stats.arrays_stored
        array_store.put(NumericArray(data))
        assert array_store.stats.arrays_stored == before + 1

    def test_int_array_roundtrip(self, array_store):
        proxy = array_store.put(NumericArray([[1, 2], [3, 4]]))
        out = proxy.resolve()
        assert out.to_nested_lists() == [[1, 2], [3, 4]]
        assert out.element_type == "i8"


class TestResolution:
    def test_whole_array(self, stored, data):
        out = stored.resolve()
        assert np.array_equal(out.to_numpy(), data)

    def test_row(self, stored, data):
        out = stored.subscript([3]).resolve()
        assert out.to_nested_lists() == data[3].tolist()

    def test_column(self, stored, data):
        out = stored.subscript([None, 7]).resolve()
        assert out.to_nested_lists() == data[:, 7].tolist()

    def test_block(self, stored, data):
        out = stored.subscript([Span(2, 5), Span(10, 14)]).resolve()
        assert out.to_nested_lists() == data[2:5, 10:14].tolist()

    def test_strided(self, stored, data):
        out = stored.subscript([Span(0, 20, 3), 0]).resolve()
        assert out.to_nested_lists() == data[::3, 0].tolist()

    def test_single_element(self, stored, data):
        assert stored.subscript([4, 9]).resolve() == data[4, 9]

    def test_transposed_view(self, stored, data):
        out = stored.transpose().resolve()
        assert np.array_equal(out.to_numpy(), data.T)

    def test_nested_lazy_subscripts(self, stored, data):
        view = stored.subscript([Span(5, 15)]).subscript([None, Span(0, 10)])
        out = view.resolve()
        assert np.array_equal(out.to_numpy(), data[5:15, 0:10])

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_all_strategies_same_answer(self, array_store, stored, data,
                                        strategy):
        resolver = APRResolver(array_store, strategy=strategy,
                               buffer_size=8)
        out = resolver.resolve([stored.subscript([None, 13])])[0]
        assert out.to_nested_lists() == data[:, 13].tolist()

    def test_bag_resolution_shares_requests(self, array_store, stored):
        resolver = APRResolver(array_store, strategy=Strategy.SPD)
        array_store.stats.reset()
        views = [stored.subscript([i]) for i in range(5)]
        outs = resolver.resolve(views)
        assert len(outs) == 5
        # five contiguous rows are one arithmetic chunk sequence
        assert array_store.stats.requests <= 2

    def test_foreign_proxy_rejected(self, array_store, data):
        other = MemoryArrayStore(chunk_bytes=256)
        foreign = other.put(NumericArray(data))
        resolver = APRResolver(array_store)
        with pytest.raises(StorageError):
            resolver.resolve([foreign])


class TestStrategyTraffic:
    """The round-trip counts the paper's Experiment 1 compares."""

    def test_single_issues_one_request_per_chunk(self, array_store, stored):
        array_store.stats.reset()
        APRResolver(array_store, strategy=Strategy.SINGLE).resolve(
            [stored.subscript([None, 0])]
        )
        stats = array_store.stats.snapshot()
        assert stats["requests"] == stats["chunks_fetched"]
        assert stats["requests"] > 1

    def test_buffer_batches(self, array_store, stored):
        array_store.stats.reset()
        APRResolver(
            array_store, strategy=Strategy.BUFFER, buffer_size=16
        ).resolve([stored.subscript([None, 0])])
        stats = array_store.stats.snapshot()
        assert stats["requests"] < stats["chunks_fetched"]

    def test_spd_beats_buffer_on_column(self, array_store, stored):
        view = stored.subscript([None, 0])
        array_store.stats.reset()
        APRResolver(
            array_store, strategy=Strategy.BUFFER, buffer_size=4
        ).resolve([view])
        buffered = array_store.stats.requests
        array_store.stats.reset()
        APRResolver(array_store, strategy=Strategy.SPD).resolve([view])
        assert array_store.stats.requests < buffered

    def test_spd_single_request_when_stride_aligns(self):
        # row stride 64 = exactly two 32-element chunks: the column's
        # chunk-id stream is one arithmetic sequence
        store = MemoryArrayStore(chunk_bytes=256)
        data = np.arange(20 * 64, dtype=np.float64).reshape(20, 64)
        proxy = store.put(NumericArray(data))
        store.stats.reset()
        out = APRResolver(store, strategy=Strategy.SPD).resolve(
            [proxy.subscript([None, 0])]
        )[0]
        assert store.stats.requests == 1
        assert out.to_nested_lists() == data[:, 0].tolist()

    def test_buffer_size_one_equals_single(self, array_store, stored):
        view = stored.subscript([None, 3])
        array_store.stats.reset()
        APRResolver(
            array_store, strategy=Strategy.BUFFER, buffer_size=1
        ).resolve([view])
        buffered = array_store.stats.requests
        array_store.stats.reset()
        APRResolver(array_store, strategy=Strategy.SINGLE).resolve([view])
        assert buffered == array_store.stats.requests


class TestAggregates:
    def test_whole_array_sum(self, array_store, stored, data):
        resolver = APRResolver(array_store)
        assert resolver.resolve_aggregate(stored, "sum") == pytest.approx(
            data.sum()
        )

    def test_view_avg(self, array_store, stored, data):
        resolver = APRResolver(array_store)
        view = stored.subscript([None, 4])
        assert resolver.resolve_aggregate(view, "avg") == pytest.approx(
            data[:, 4].mean()
        )

    def test_min_max(self, array_store, stored, data):
        resolver = APRResolver(array_store)
        assert resolver.resolve_aggregate(stored, "min") == data.min()
        assert resolver.resolve_aggregate(stored, "max") == data.max()

    def test_count(self, array_store, stored):
        resolver = APRResolver(array_store)
        assert resolver.resolve_aggregate(stored, "count") == 1000

    def test_unknown_op(self, array_store, stored):
        with pytest.raises(StorageError):
            APRResolver(array_store).resolve_aggregate(stored, "median")

    def test_delegation_counted(self, array_store, stored):
        if not array_store.supports_aggregates:
            pytest.skip("back-end does not delegate aggregates")
        array_store.stats.reset()
        APRResolver(array_store).resolve_aggregate(stored, "sum")
        assert array_store.stats.aggregates_delegated == 1


class TestPersistence:
    def test_file_store_reopen(self, tmp_path, data):
        store = FileArrayStore(str(tmp_path / "s"), chunk_bytes=256)
        proxy = store.put(NumericArray(data))
        array_id = proxy.array_id
        reopened = FileArrayStore(str(tmp_path / "s"), chunk_bytes=256)
        out = reopened.proxy(array_id).resolve()
        assert np.array_equal(out.to_numpy(), data)

    def test_sql_store_file_reopen(self, tmp_path, data):
        path = str(tmp_path / "arrays.db")
        store = SqlArrayStore(path, chunk_bytes=256)
        proxy = store.put(NumericArray(data))
        array_id = proxy.array_id
        store.close()
        reopened = SqlArrayStore(path, chunk_bytes=256)
        out = reopened.proxy(array_id).resolve()
        assert np.array_equal(out.to_numpy(), data)

    def test_file_store_id_recovery(self, tmp_path, data):
        store = FileArrayStore(str(tmp_path / "s"))
        first = store.put(NumericArray(data)).array_id
        reopened = FileArrayStore(str(tmp_path / "s"))
        second = reopened.put(NumericArray(data)).array_id
        assert second > first


class TestSPD:
    def test_pure_arithmetic_sequence(self):
        assert detect_patterns([0, 3, 6, 9]) == [("range", 0, 9, 3)]

    def test_short_run_stays_single(self):
        assert detect_patterns([0, 5]) == [("single", 0), ("single", 5)]

    def test_mixed(self):
        out = detect_patterns([0, 2, 4, 6, 11, 13])
        assert out == [("range", 0, 6, 2), ("single", 11), ("single", 13)]

    def test_run_break_restarts(self):
        out = detect_patterns([0, 1, 2, 3, 10, 11, 12, 13])
        assert out == [("range", 0, 3, 1), ("range", 10, 13, 1)]

    def test_decreasing_never_ranges(self):
        out = detect_patterns([9, 6, 3, 0])
        assert all(kind == "single" for kind, *_ in out)

    def test_min_run_respected(self):
        assert detect_patterns([0, 1, 2], min_run=4) == [
            ("single", 0), ("single", 1), ("single", 2)
        ]

    def test_empty_stream(self):
        assert detect_patterns([]) == []

    def test_single_element(self):
        assert detect_patterns([7]) == [("single", 7)]

    def test_invalid_min_run(self):
        with pytest.raises(ValueError):
            SequencePatternDetector(min_run=1)

    def test_streaming_matches_batch(self):
        stream = [0, 4, 8, 12, 13, 14, 15, 40]
        detector = SequencePatternDetector()
        streamed = []
        for cid in stream:
            streamed.extend(detector.feed(cid))
        streamed.extend(detector.flush())
        assert streamed == detect_patterns(stream)

    def test_coverage_equals_input(self):
        stream = [0, 2, 4, 6, 7, 8, 20, 25, 30, 35, 99]
        covered = []
        for emission in detect_patterns(stream):
            if emission[0] == "range":
                covered.extend(
                    range(emission[1], emission[2] + 1, emission[3])
                )
            else:
                covered.append(emission[1])
        assert covered == stream


class TestCache:
    def test_hit_after_put(self):
        cache = BufferPool(max_bytes=CACHE_BYTES)
        cache.put(1, 0, np.zeros(4))
        assert cache.get(1, 0) is not None
        assert cache.hits == 1

    def test_miss_counted(self):
        cache = BufferPool(max_bytes=CACHE_BYTES)
        assert cache.get(1, 0) is None
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = BufferPool(max_bytes=100)
        cache.put(1, 0, np.zeros(8))          # 64 bytes
        cache.put(1, 1, np.zeros(8))          # 64 bytes -> evicts chunk 0
        assert cache.get(1, 0) is None
        assert cache.get(1, 1) is not None

    def test_touch_refreshes_lru(self):
        cache = BufferPool(max_bytes=150)
        cache.put(1, 0, np.zeros(8))
        cache.put(1, 1, np.zeros(8))
        cache.get(1, 0)                        # refresh 0
        cache.put(1, 2, np.zeros(8))           # evicts 1, not 0
        assert cache.get(1, 0) is not None
        assert cache.get(1, 1) is None

    def test_invalidate_array(self):
        cache = BufferPool(max_bytes=CACHE_BYTES)
        cache.put(1, 0, np.zeros(4))
        cache.put(2, 0, np.zeros(4))
        cache.invalidate(1)
        assert cache.get(1, 0) is None
        assert cache.get(2, 0) is not None

    def test_invalidate_all(self):
        cache = BufferPool(max_bytes=CACHE_BYTES)
        cache.put(1, 0, np.zeros(4))
        cache.invalidate()
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_resolver_uses_cache(self, array_store, stored):
        cache = BufferPool(max_bytes=CACHE_BYTES)
        resolver = APRResolver(array_store, cache=cache)
        view = stored.subscript([None, 2])
        resolver.resolve([view])
        array_store.stats.reset()
        resolver.resolve([view])
        assert array_store.stats.requests == 0
        assert cache.hits > 0


class TestProxyValueSemantics:
    def test_equal_views_equal(self, array_store, stored):
        assert stored.subscript([1]) == stored.subscript([1])

    def test_different_views_differ(self, array_store, stored):
        assert stored.subscript([1]) != stored.subscript([2])

    def test_hashable(self, array_store, stored):
        assert len({stored.subscript([1]), stored.subscript([1])}) == 1

    def test_element_count(self, array_store, stored):
        assert stored.element_count == 1000
        assert stored.subscript([0]).element_count == 50

    def test_whole_array_flag(self, array_store, stored):
        assert stored.is_whole_array()
        assert not stored.subscript([0]).is_whole_array()
        assert not stored.transpose().is_whole_array()
