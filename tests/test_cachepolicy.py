"""Unit tests for the byte-budgeted result cache
(:mod:`repro.serve.cachepolicy`): byte accounting, LRU-by-bytes
eviction, the snapshot-invalidation audit and the ``result_cache=``
spec grammar.

The serving-layer integration (retire hooks, service stats threading)
is covered in ``test_serve_service.py``; everything here drives the
storage directly with fake results.
"""

import pytest

from repro.errors import UsageError
from repro.serve.cachepolicy import (
    DEFAULT_RESULT_CACHE_BYTES,
    ENTRY_OVERHEAD_BYTES,
    ResultCacheStorage,
    resolve_result_cache,
)


class FakeResult:
    """Stands in for a QueryResult: only ``serialize()`` matters."""

    def __init__(self, payload: str) -> None:
        self.payload = payload

    def serialize(self) -> str:
        return self.payload


def key(n: int, snapshot: int = 1, doc: str = "main") -> tuple:
    return (doc, snapshot, f"//q{n}", "auto", "serial")


def make_storage(max_bytes: int = 4096, **kwargs) -> ResultCacheStorage:
    return ResultCacheStorage(max_bytes, **kwargs)


class TestByteAccounting:
    def test_entries_charged_serialized_size_plus_overhead(self):
        storage = make_storage()
        assert storage.put(key(1), FakeResult("x" * 100))
        assert storage.entry_bytes(key(1)) == 100 + ENTRY_OVERHEAD_BYTES
        assert storage.put(key(2), FakeResult(""))
        # Zero-byte payloads still pay the fixed overhead.
        assert storage.entry_bytes(key(2)) == ENTRY_OVERHEAD_BYTES
        assert storage.stats()["bytes"] == 100 + 2 * ENTRY_OVERHEAD_BYTES

    def test_replacing_a_key_releases_the_old_charge(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("x" * 100))
        storage.put(key(1), FakeResult("y" * 10))
        assert len(storage) == 1
        assert storage.stats()["bytes"] == 10 + ENTRY_OVERHEAD_BYTES

    def test_multibyte_text_is_charged_in_utf8_bytes(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("é" * 10))   # 2 bytes each
        assert storage.entry_bytes(key(1)) == 20 + ENTRY_OVERHEAD_BYTES


class TestEviction:
    def test_lru_by_bytes_evicts_oldest_first(self):
        storage = make_storage(max_bytes=3 * ENTRY_OVERHEAD_BYTES)
        for n in (1, 2, 3):
            assert storage.put(key(n), FakeResult(""))
        assert len(storage) == 3
        storage.put(key(4), FakeResult(""))               # over budget
        assert storage.get(key(1)) is None                # oldest left
        assert storage.get(key(4)) is not None
        assert storage.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        storage = make_storage(max_bytes=2 * ENTRY_OVERHEAD_BYTES)
        storage.put(key(1), FakeResult(""))
        storage.put(key(2), FakeResult(""))
        storage.get(key(1))                               # 1 is now MRU
        storage.put(key(3), FakeResult(""))
        assert storage.get(key(1)) is not None
        assert storage.get(key(2)) is None

    def test_one_large_entry_evicts_many_small(self):
        storage = make_storage(max_bytes=2048)
        for n in range(4):
            storage.put(key(n), FakeResult("x" * 100))
        storage.put(key(9), FakeResult("x" * 1500))
        stats = storage.stats()
        assert stats["bytes"] <= stats["capacity_bytes"]
        assert storage.get(key(9)) is not None

    def test_max_entries_cap_still_applies(self):
        storage = make_storage(max_entries=2)
        for n in (1, 2, 3):
            storage.put(key(n), FakeResult(""))
        assert len(storage) == 2
        assert storage.get(key(1)) is None

    def test_entry_larger_than_budget_is_rejected(self):
        storage = make_storage(max_bytes=512)
        assert not storage.put(key(1), FakeResult("x" * 4096))
        assert len(storage) == 0
        assert storage.stats()["rejected"] == 1

    def test_disabled_storage_never_admits(self):
        storage = make_storage(max_bytes=0)
        assert not storage.enabled
        assert not storage.put(key(1), FakeResult("x"))
        assert storage.get(key(1)) is None


class TestAdmissionPolicy:
    def test_policy_knob_validation(self):
        """The budget knobs are validated; the deleted policy's per-entry
        knobs are refused rather than silently ignored."""
        with pytest.raises(UsageError, match="max_bytes"):
            ResultCacheStorage(-1)
        with pytest.raises(UsageError, match="max_entries"):
            ResultCacheStorage(1024, max_entries=-1)
        for knob, value in (("ttl_s", 2.5), ("max_entry_bytes", 1024)):
            with pytest.raises(UsageError,
                               match=f"unknown result_cache knobs: {knob}"):
                resolve_result_cache({"max_bytes": "1mb", knob: value})


class TestSnapshotInvalidation:
    def test_indexed_drop_with_clean_audit(self):
        storage = make_storage()
        for n in range(3):
            storage.put(key(n, snapshot=1), FakeResult("x"))
        storage.put(key(9, snapshot=2), FakeResult("y"))
        dropped = storage.invalidate_snapshot("main", 1)
        assert dropped == 3
        stats = storage.stats()
        assert stats["size"] == 1                         # snapshot 2 stays
        assert stats["invalidated"] == 3
        assert stats["audit"]["snapshots_invalidated"] == 1
        assert stats["audit"]["survivors"] == 0
        assert storage.get(key(0, snapshot=1)) is None
        assert storage.get(key(9, snapshot=2)) is not None

    def test_invalidation_is_per_document(self):
        storage = make_storage()
        storage.put(key(1, doc="a"), FakeResult("x"))
        storage.put(key(1, doc="b"), FakeResult("x"))
        assert storage.invalidate_snapshot("a", 1) == 1
        assert storage.get(key(1, doc="b")) is not None

    def test_audit_catches_an_index_hole(self):
        """Sabotage the snapshot index the way the pre-split bug class
        would (an entry the index forgot): the audit's full scan must
        still drop it and count the survivor."""
        storage = make_storage()
        storage.put(key(1), FakeResult("x"))
        storage.put(key(2), FakeResult("y"))
        storage._by_snapshot[("main", 1)].discard(key(2))  # the "bug"
        dropped = storage.invalidate_snapshot("main", 1)
        assert dropped == 2                               # audit caught it
        stats = storage.stats()
        assert stats["audit"]["survivors"] == 1
        assert stats["size"] == 0 and stats["bytes"] == 0

    def test_unknown_snapshot_is_a_noop_but_still_audited(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("x"))
        assert storage.invalidate_snapshot("main", 777) == 0
        stats = storage.stats()
        assert stats["audit"]["snapshots_invalidated"] == 1
        assert stats["audit"]["survivors"] == 0
        assert stats["size"] == 1


class TestCounters:
    def test_hits_and_misses_feed_the_hit_ratio(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("x"))
        storage.get(key(1))                               # hit
        storage.get(key(2))                               # miss
        stats = storage.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_ratio"] == 0.5


class TestResolveSpec:
    def test_none_builds_the_default(self):
        storage = resolve_result_cache(None)
        assert storage.max_bytes == DEFAULT_RESULT_CACHE_BYTES
        assert storage.max_entries is None

    @pytest.mark.parametrize(
        "spec", [0, False, "off", "none", "disabled", "0", " OFF "])
    def test_disabling_spellings(self, spec):
        assert resolve_result_cache(spec) is None

    @pytest.mark.parametrize("spec, expected", [
        (65536, 65536),
        ("64kb", 64 * 1024),
        ("16mb", 16 * 1024 ** 2),
        ("1.5kb", 1536),
        ("2gb", 2 * 1024 ** 3),
        ("4096", 4096),
        ("512b", 512),
    ])
    def test_byte_budget_spellings(self, spec, expected):
        assert resolve_result_cache(spec).max_bytes == expected

    def test_mapping_knobs(self):
        storage = resolve_result_cache({"max_bytes": "1mb",
                                        "max_entries": 32})
        assert storage.max_bytes == 1024 ** 2
        assert storage.max_entries == 32
        assert resolve_result_cache(
            {"max_entries": 8}).max_bytes == DEFAULT_RESULT_CACHE_BYTES

    def test_mapping_zeroes_disable(self):
        assert resolve_result_cache({"max_entries": 0}) is None
        assert resolve_result_cache({"max_bytes": 0}) is None

    def test_adaptive_knob(self):
        for value in (True, {"interval": 16, "grow_ratio": 0.5}):
            with pytest.raises(UsageError,
                               match="unknown result_cache knobs: adaptive"):
                resolve_result_cache({"adaptive": value})

    def test_policy_and_storage_specs(self):
        # A prebuilt storage is not a spec: the budget is the one input.
        with pytest.raises(UsageError, match="cannot interpret"):
            resolve_result_cache(ResultCacheStorage(1024))

    def test_unknown_knob_is_a_usage_error(self):
        with pytest.raises(UsageError,
                           match="unknown result_cache knobs: size"):
            resolve_result_cache({"max_bytes": "1mb", "size": 64})

    def test_bad_specs_are_usage_errors(self):
        with pytest.raises(UsageError, match="byte budget"):
            resolve_result_cache(-1)
        with pytest.raises(UsageError, match="cannot parse"):
            resolve_result_cache("sixty-four kb")
        with pytest.raises(UsageError, match="cannot interpret"):
            resolve_result_cache(3.14)
