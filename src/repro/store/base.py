"""The :class:`ResultStore` backend protocol.

A result store is a content-addressed mapping ``content_hash -> entry``
where an entry is a JSON-serializable value plus provenance metadata (the
campaign and cell that produced it, wall time, the code-version salt it was
computed under, and the cache schema). The campaign runner treats the store
as the single source of truth for completed cells: a hash that resolves is
never recomputed, which is what makes campaigns cacheable, resumable after
a crash, and shareable between clients.

Two backends ship with the repo:

- :class:`repro.store.json_store.JsonStore` — one JSON file per entry with
  a two-char directory fan-out (the original ``.repro_cache/`` layout);
- :class:`repro.store.sqlite_store.SqliteStore` — a single WAL-mode SQLite
  database, safe for many concurrent writer *processes*.

Both are addressed by store URL (``json:.repro_cache``,
``sqlite:results.db``; a bare path means JSON, preserving the historical
default) via :func:`repro.store.open_store`, and :func:`repro.store.migrate`
round-trips entries between any two backends with provenance preserved.

Store latencies are observable: while the :mod:`repro.obs` gate is on,
``store.get_ns`` / ``store.put_ns`` histograms in :data:`STORE_METRICS`
record every access, and the gated ``cache.corrupt`` counter counts entries
that were present on disk but undecodable (each corrupt path additionally
triggers a one-time :class:`RuntimeWarning`, mirroring
:func:`repro.faults.resolve_fault_plan`'s precedence warning).
"""

from __future__ import annotations

import os
import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

from repro.obs.events import EVENTS
from repro.obs.events import emit as emit_event
from repro.obs.gate import GATE
from repro.obs.registry import MetricsRegistry, register_process_registry, register_reset

#: Sentinel distinguishing "miss" from a stored ``None``.
MISS = object()


def cache_schema() -> int:
    """The current :data:`repro.runner.spec.CACHE_SCHEMA` (lazy import:
    ``repro.runner.cache`` re-exports this package, so a top-level import
    here would be circular through ``repro.runner``'s package init)."""
    from repro.runner.spec import CACHE_SCHEMA

    return CACHE_SCHEMA

#: Default JSON store root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Process-wide store instrumentation: ``store.get_ns`` / ``store.put_ns``
#: latency histograms and the ``cache.corrupt`` counter. Gated like every
#: other registry — with :mod:`repro.obs` disabled nothing here mutates.
STORE_METRICS = register_process_registry(MetricsRegistry("store"))


def code_salt() -> str:
    """The default code-version salt folded into every cache key.

    Combines the package version with the ``REPRO_CACHE_SALT`` environment
    variable (useful to force invalidation without touching the tree).
    """
    from repro import __version__  # lazy: avoid import cycles at package init

    extra = os.environ.get("REPRO_CACHE_SALT", "")
    return f"repro-{__version__}" + (f"+{extra}" if extra else "")


@dataclass
class CacheStats:
    """Access counters of one store handle (not of the backing data)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0


@dataclass(frozen=True)
class StoreEntry:
    """One stored result with its full provenance, as :meth:`ResultStore.entries`
    yields it and :func:`repro.store.migrate` copies it."""

    content_hash: str
    value: Any
    meta: Dict[str, Any] = field(default_factory=dict)
    salt: str = ""
    schema: int = field(default_factory=cache_schema)

    def to_wire(self) -> Dict[str, Any]:
        """A JSON-safe document for shipping this entry over a socket.

        The cluster result path (:mod:`repro.cluster`) sends these inside
        result frames; :meth:`from_wire` round-trips them exactly, so a
        remote worker's entry lands in the coordinator's store bit-for-bit
        identical to a locally computed one.
        """
        return {
            "content_hash": self.content_hash,
            "value": self.value,
            "meta": dict(self.meta),
            "salt": self.salt,
            "schema": self.schema,
        }

    @classmethod
    def from_wire(cls, doc: Dict[str, Any]) -> "StoreEntry":
        """Rebuild an entry from :meth:`to_wire` output (defensively typed:
        a malformed peer document raises ``ValueError``, never ``KeyError``)."""
        if not isinstance(doc, dict) or "content_hash" not in doc:
            raise ValueError(f"not a wire store entry: {doc!r}")
        return cls(
            content_hash=str(doc["content_hash"]),
            value=doc.get("value"),
            meta=dict(doc.get("meta") or {}),
            salt=str(doc.get("salt", "")),
            schema=int(doc.get("schema", 0)),
        )


# One-time marker for the corrupt-entry warning below. Per process, not per
# store: a corrupted cache directory typically has many bad files and one
# notice naming the first is enough. A forked pool worker inherits it
# already spent, so a fork hook re-arms it: each worker still warns once.
_CORRUPT_WARNED = False


@register_reset
def _rearm_corrupt_warning() -> None:
    global _CORRUPT_WARNED
    _CORRUPT_WARNED = False


os.register_at_fork(after_in_child=_rearm_corrupt_warning)


def note_corrupt_entry(location: str) -> None:
    """Record one undecodable store entry.

    Ticks the gated ``cache.corrupt`` counter in :data:`STORE_METRICS` and,
    once per process, emits a :class:`RuntimeWarning` naming the offending
    path — a corrupt entry is silently treated as a miss (and later
    overwritten) so without this signal a half-truncated cache looks like a
    slow one.
    """
    global _CORRUPT_WARNED
    STORE_METRICS.counter("cache.corrupt").inc()
    if EVENTS.active:
        emit_event("store.corrupt", location=location)
    if not _CORRUPT_WARNED:
        _CORRUPT_WARNED = True
        warnings.warn(
            f"corrupt result-store entry at {location}: treated as a miss and "
            "eligible for overwrite (further corrupt entries are only counted; "
            "see the 'cache.corrupt' obs counter)",
            RuntimeWarning,
            stacklevel=4,
        )


class ResultStore(ABC):
    """Abstract content-addressed result store.

    Subclasses implement the raw ``_load`` / ``_write`` / ``_delete`` /
    :meth:`entries` primitives; this base class owns the miss sentinel
    semantics, the hit/miss/write stats, the gated latency metrics, and
    provenance-preserving copies (:meth:`put_entry`).
    """

    #: ``"json"`` / ``"sqlite"`` — the URL scheme naming this backend.
    scheme: str = ""

    def __init__(self, salt: Optional[str] = None):
        self.salt = code_salt() if salt is None else salt
        self.stats = CacheStats()

    # -- backend primitives ------------------------------------------------

    @abstractmethod
    def _load(self, content_hash: str) -> Any:
        """Return the stored *entry dict* for ``content_hash`` or :data:`MISS`.

        Corrupt or schema-less entries are misses (after calling
        :func:`note_corrupt_entry`); this never raises for bad data.
        """

    @abstractmethod
    def _write(self, content_hash: str, entry: Dict[str, Any]) -> None:
        """Durably persist ``entry`` (atomic per entry; last writer wins)."""

    @abstractmethod
    def _delete(self, content_hash: str) -> bool:
        """Remove one entry; True when something was actually removed."""

    @abstractmethod
    def entries(self) -> Iterator[StoreEntry]:
        """Iterate every decodable entry, in ascending hash order."""

    @abstractmethod
    def _hashes(self) -> Iterator[str]:
        """Iterate every *stored* hash, in ascending order — including
        hashes whose entries are torn/corrupt and which :meth:`entries`
        therefore skips. :meth:`gc` sweeps this, not :meth:`entries`, so
        corrupt entries are reachable for removal."""

    @abstractmethod
    def location(self) -> str:
        """The backend's path operand (what follows ``scheme:`` in its URL)."""

    # -- derived public API ------------------------------------------------

    @property
    def url(self) -> str:
        return f"{self.scheme}:{self.location()}"

    def get(self, content_hash: str) -> Any:
        """Return the cached value for ``content_hash``, or :data:`MISS`."""
        if GATE.enabled:
            started = time.perf_counter_ns()
            entry = self._load(content_hash)
            STORE_METRICS.histogram("store.get_ns").observe(
                time.perf_counter_ns() - started
            )
        else:
            entry = self._load(content_hash)
        if entry is MISS:
            self.stats.misses += 1
            if EVENTS.active:
                emit_event("store.miss", hash=content_hash[:12])
            return MISS
        self.stats.hits += 1
        if EVENTS.active:
            emit_event("store.hit", hash=content_hash[:12])
        return entry["value"]

    def put(
        self, content_hash: str, value: Any, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Atomically persist ``value`` (must be JSON-serializable) under
        this store's salt and the current cache schema."""
        entry = {
            "value": value,
            "meta": dict(meta or {}),
            "salt": self.salt,
            "schema": cache_schema(),
        }
        if GATE.enabled:
            started = time.perf_counter_ns()
            self._write(content_hash, entry)
            STORE_METRICS.histogram("store.put_ns").observe(
                time.perf_counter_ns() - started
            )
        else:
            self._write(content_hash, entry)
        self.stats.writes += 1
        if EVENTS.active:
            emit_event("store.put", hash=content_hash[:12])

    def put_entry(self, entry: StoreEntry) -> None:
        """Persist a fully specified entry, preserving its original salt and
        schema — the :func:`repro.store.migrate` path."""
        self._write(
            entry.content_hash,
            {
                "value": entry.value,
                "meta": dict(entry.meta),
                "salt": entry.salt,
                "schema": entry.schema,
            },
        )
        self.stats.writes += 1

    def get_entry(self, content_hash: str) -> Optional[StoreEntry]:
        """The full entry (with provenance) for ``content_hash``, or None.
        Does not touch the hit/miss counters."""
        entry = self._load(content_hash)
        if entry is MISS:
            return None
        return StoreEntry(
            content_hash=content_hash,
            value=entry["value"],
            meta=dict(entry.get("meta") or {}),
            salt=str(entry.get("salt", "")),
            schema=int(entry.get("schema", 0)),
        )

    def __contains__(self, content_hash: str) -> bool:
        """Membership agrees with :meth:`get`: True only for entries that
        ``get`` would actually return (a corrupt or schema-less entry is a
        miss for both). Does not count toward hit/miss stats."""
        return self._load(content_hash) is not MISS

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def gc(self, keep_salt: Optional[str] = None) -> int:
        """Delete entries whose salt differs from ``keep_salt`` (default:
        this store's salt) — results computed by other code versions that
        can never be replayed again. Returns the number removed.

        Torn/corrupt entries are swept too: they can never be read back
        under *any* salt, so each one is counted (the gated
        ``cache.corrupt`` counter, via the backend's ``_load``) and then
        removed. Bad data never raises mid-sweep — ``_load`` decodes
        defensively and ``_delete`` tolerates races with concurrent
        writers.
        """
        keep = self.salt if keep_salt is None else keep_salt
        removed = 0
        for content_hash in list(self._hashes()):
            entry = self._load(content_hash)
            if entry is MISS:
                # Listed by the backend but undecodable (or deleted by a
                # concurrent sweep since listing): remove what's left.
                if self._delete(content_hash):
                    removed += 1
                continue
            if str(entry.get("salt", "")) != keep and self._delete(content_hash):
                removed += 1
        if EVENTS.active:
            emit_event("store.gc", removed=removed, url=self.url)
        return removed

    def close(self) -> None:
        """Release backend resources (connections); idempotent."""

    def describe(self) -> Dict[str, Any]:
        """A JSON-friendly summary: URL, entry count, per-salt breakdown."""
        by_salt: Dict[str, int] = {}
        total = 0
        for entry in self.entries():
            total += 1
            by_salt[entry.salt] = by_salt.get(entry.salt, 0) + 1
        return {
            "url": self.url,
            "entries": total,
            "salts": dict(sorted(by_salt.items())),
            "current_salt": self.salt,
        }
