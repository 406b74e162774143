"""Snapshot-keyed result cache: a byte-budgeted LRU with a retire audit.

PR 4's result cache was a bare ``OrderedDict`` capped by *entry count*
— no size accounting (a scalar aggregate and a whole serialized subtree
cost the same slot) and no proof that a retired snapshot's entries
actually left.  :class:`ResultCacheStorage` replaces it with one
mechanism that does four things:

* every entry is charged its *serialized byte size* (plus a fixed
  per-entry overhead, so a million empty results still account) — the
  tree-pattern survey's observation that XML query results range from
  scalars to whole subtrees is exactly why entries, not bytes, was the
  wrong unit;
* eviction is LRU **by bytes**, with an optional ``max_entries`` cap on
  top: inserts evict least-recently-used entries until both fit;
* an entry larger than the whole budget is rejected, not admitted (it
  would flush the cache and still not fit);
* a per-snapshot index maps ``(document, snapshot id)`` to the entry
  keys under it, so :meth:`~ResultCacheStorage.invalidate_snapshot` is
  proportional to the snapshot's entries, not the cache — and every
  invalidation *audits*: after the indexed drop it scans for survivors
  and counts them (the count must be zero; the serving tests pin it).

Metric families (process-wide, ``repro_result_cache_*``):

==============================================  ==============================
``repro_result_cache_bytes``                    gauge: bytes currently held
``repro_result_cache_evictions_total``          entries evicted by byte/entry
                                                pressure
``repro_result_cache_invalidated_total``        entries dropped by snapshot
                                                retirement
==============================================  ==============================

The facade spells the budget as the ``result_cache=`` spec (see
:func:`resolve_result_cache`): ``None``/``True`` for the default,
``0``/``"off"`` to disable, an int/``"64kb"``/``"16mb"`` byte budget, or
a mapping of ``max_bytes`` and ``max_entries``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping
from typing import Any

from repro.errors import UsageError
from repro.obs.metrics import REGISTRY

__all__ = [
    "DEFAULT_RESULT_CACHE_BYTES",
    "ENTRY_OVERHEAD_BYTES",
    "CacheEntry",
    "ResultCacheStorage",
    "default_result_sizer",
    "resolve_result_cache",
]

_CACHE_BYTES = REGISTRY.gauge(
    "repro_result_cache_bytes",
    "Bytes currently held by snapshot-keyed result caches")
_EVICTIONS = REGISTRY.counter(
    "repro_result_cache_evictions_total",
    "Result-cache entries evicted by byte/entry pressure")
_INVALIDATED = REGISTRY.counter(
    "repro_result_cache_invalidated_total",
    "Result-cache entries dropped by snapshot retirement")

#: Default byte budget when the ``result_cache=`` spec names none.
DEFAULT_RESULT_CACHE_BYTES = 16 * 1024 * 1024

#: Fixed per-entry charge on top of the serialized payload (key tuple,
#: dict slot, index membership) so zero-byte results still account.
ENTRY_OVERHEAD_BYTES = 256

_UNITS = {"b": 1, "kb": 1024, "mb": 1024 ** 2, "gb": 1024 ** 3}

#: The knobs a ``result_cache=`` mapping may name.
_KNOBS = ("max_bytes", "max_entries")


def default_result_sizer(result: Any) -> int:
    """Serialized byte size of one result — the unit entries are
    charged in.  Computed once at admission (on a worker thread, where
    the result was just produced), never on the hit path."""
    return len(result.serialize().encode("utf-8"))


class CacheEntry:
    """One stored result: payload, byte charge, snapshot."""

    __slots__ = ("key", "result", "nbytes", "snapshot_key")

    def __init__(self, key: tuple, result: Any, nbytes: int,
                 snapshot_key: tuple) -> None:
        self.key = key
        self.result = result
        self.nbytes = nbytes
        self.snapshot_key = snapshot_key


class ResultCacheStorage:
    """Byte-accounted entries, snapshot index, LRU eviction.

    Thread-safe; one instance is owned by each
    :class:`~repro.serve.service.QueryService`.
    """

    def __init__(self, max_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
                 max_entries: int | None = None) -> None:
        if max_bytes < 0:
            raise UsageError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and max_entries < 0:
            raise UsageError(
                f"max_entries must be >= 0, got {max_entries}")
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        #: (document name, snapshot id) -> keys cached under it.
        self._by_snapshot: dict[tuple, set[tuple]] = {}
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self.rejected = 0
        # The snapshot-invalidation audit ledger.
        self.snapshots_invalidated = 0
        self.audit_survivors = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether entries can be admitted at all."""
        return self.max_bytes > 0 and self.max_entries != 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """The ``result_cache`` section of ``service.stats()``."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "bytes": self.current_bytes,
                "capacity_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": (round(self.hits / lookups, 4)
                              if lookups else None),
                "evictions": self.evictions,
                "invalidated": self.invalidated,
                "rejected": self.rejected,
                "audit": {
                    "snapshots_invalidated": self.snapshots_invalidated,
                    "survivors": self.audit_survivors,
                },
            }

    def entry_bytes(self, key: tuple) -> int | None:
        """Byte charge of one live entry (tests/introspection)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.nbytes if entry is not None else None

    # ------------------------------------------------------------------
    # The data path.
    # ------------------------------------------------------------------

    def get(self, key: tuple) -> Any | None:
        """Look one key up; a hit becomes the most recently used."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.result

    def put(self, key: tuple, result: Any) -> bool:
        """Admit one result; returns whether it cached.

        ``key[0]`` / ``key[1]`` are the document name and snapshot id
        (the serving layer's key layout) — they index the entry for
        per-snapshot invalidation.  A result whose byte charge exceeds
        the whole budget is rejected.
        """
        if not self.enabled:
            return False
        nbytes = default_result_sizer(result) + ENTRY_OVERHEAD_BYTES
        if nbytes > self.max_bytes:
            with self._lock:
                self.rejected += 1
            return False
        entry = CacheEntry(key, result, nbytes, (key[0], key[1]))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._unindex_locked(old)
            self._evict_for_locked(nbytes)
            self._entries[key] = entry
            self._by_snapshot.setdefault(entry.snapshot_key,
                                         set()).add(key)
            self.current_bytes += nbytes
            _CACHE_BYTES.set(self.current_bytes)
        return True

    def invalidate_snapshot(self, name: str, snapshot_id: int) -> int:
        """Synchronously drop every entry of one retired snapshot.

        Runs inside the catalog's retire notification, so by the time
        ``unpin``/``commit`` returns there is no window in which a
        retired snapshot's results can still be served.  The drop is
        indexed (proportional to the snapshot's entries); the **audit**
        then scans the full cache for survivors — the count is kept and
        must stay zero (the regression test asserts it).
        """
        snapshot_key = (name, snapshot_id)
        with self._lock:
            keys = self._by_snapshot.pop(snapshot_key, set())
            dropped = 0
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self.current_bytes -= entry.nbytes
                    dropped += 1
            # Audit: prove the index covered everything.  A survivor
            # here means the index and the entry map disagreed — a
            # lifecycle bug the counter makes visible instead of letting
            # LRU pressure quietly paper over it.
            survivors = [key for key, entry in self._entries.items()
                         if entry.snapshot_key == snapshot_key]
            for key in survivors:
                entry = self._entries.pop(key)
                self.current_bytes -= entry.nbytes
                dropped += 1
            self.snapshots_invalidated += 1
            self.audit_survivors += len(survivors)
            self.invalidated += dropped
            _CACHE_BYTES.set(self.current_bytes)
        if dropped:
            _INVALIDATED.inc(dropped)
        return dropped

    # ------------------------------------------------------------------
    # Internals (lock held).
    # ------------------------------------------------------------------

    def _unindex_locked(self, entry: CacheEntry) -> None:
        """Release an entry already popped from the entry map."""
        keys = self._by_snapshot.get(entry.snapshot_key)
        if keys is not None:
            keys.discard(entry.key)
            if not keys:
                del self._by_snapshot[entry.snapshot_key]
        self.current_bytes -= entry.nbytes

    def _evict_for_locked(self, incoming: int) -> None:
        """Evict LRU entries until ``incoming`` bytes and one more entry
        fit the budget."""
        while self._entries and (
                self.current_bytes + incoming > self.max_bytes
                or (self.max_entries is not None
                    and len(self._entries) >= self.max_entries)):
            _key, entry = self._entries.popitem(last=False)
            self._unindex_locked(entry)
            self.evictions += 1
            _EVICTIONS.inc()


def _parse_bytes(text: str) -> int:
    """``"64kb"`` / ``"16mb"`` / ``"1048576"`` → bytes."""
    cleaned = text.strip().lower().replace("_", "")
    for suffix in ("gb", "mb", "kb", "b"):
        if cleaned.endswith(suffix):
            number = cleaned[:-len(suffix)].strip()
            try:
                return int(float(number) * _UNITS[suffix])
            except ValueError:
                break
    try:
        return int(cleaned)
    except ValueError:
        raise UsageError(
            f"cannot parse result-cache byte size {text!r} "
            "(expected e.g. 65536, \"64kb\", \"16mb\")") from None


def resolve_result_cache(spec: Any) -> ResultCacheStorage | None:
    """Resolve the facade's ``result_cache=`` spec into a storage.

    ================================  =================================
    spec                              meaning
    ================================  =================================
    ``None`` / ``True``               default 16 MiB byte-LRU
    ``0`` / ``False`` / ``"off"``     caching disabled (returns ``None``)
    ``int``                           byte budget
    ``"64kb"`` / ``"16mb"``           byte budget, unit-suffixed
    mapping                           ``max_bytes`` (int or unit
                                      string) and/or ``max_entries``
    ================================  =================================

    Every other spec raises :class:`~repro.errors.UsageError`.
    """
    if spec is None or spec is True:
        return ResultCacheStorage()
    if spec is False or (isinstance(spec, int) and spec == 0):
        return None
    if isinstance(spec, str):
        if spec.strip().lower() in ("off", "none", "disabled", "0"):
            return None
        return ResultCacheStorage(max_bytes=_parse_bytes(spec))
    if isinstance(spec, int):
        if spec < 0:
            raise UsageError(f"result_cache byte budget must be >= 0, "
                             f"got {spec}")
        return ResultCacheStorage(max_bytes=spec)
    if isinstance(spec, Mapping):
        unknown = sorted(str(name) for name in spec if name not in _KNOBS)
        if unknown:
            raise UsageError(
                "unknown result_cache knobs: " + ", ".join(unknown)
                + " (expected max_bytes, max_entries)")
        max_bytes = spec.get("max_bytes", DEFAULT_RESULT_CACHE_BYTES)
        if isinstance(max_bytes, str):
            max_bytes = _parse_bytes(max_bytes)
        max_entries = spec.get("max_entries")
        if max_entries == 0 or max_bytes == 0:
            return None
        return ResultCacheStorage(max_bytes=max_bytes,
                                  max_entries=max_entries)
    raise UsageError(
        f"cannot interpret result_cache spec {spec!r} (expected None, "
        "0/\"off\", a byte budget or a max_bytes/max_entries mapping)")
