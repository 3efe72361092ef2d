"""``repro.store`` — pluggable content-addressed result stores.

The campaign runner's result cache, generalized into a backend protocol
(:class:`ResultStore`) with two implementations:

- :class:`JsonStore` — one JSON file per entry under a fan-out directory
  (the historical ``.repro_cache/`` layout, still the default);
- :class:`SqliteStore` — a single WAL-mode SQLite database, safe for many
  concurrent writer processes and cheap to iterate/aggregate at scale.

Stores are addressed by **URL** anywhere a cache argument is accepted
(``run_campaign(cache=...)``, the CLI's ``--store``)::

    json:.repro_cache      # JSON backend rooted at .repro_cache/
    sqlite:results.db      # SQLite backend in results.db
    .repro_cache           # bare path: JSON (the historical default)

:func:`migrate` copies every entry between any two stores with provenance
(meta, salt, schema) preserved, so a filesystem cache can be consolidated
into SQLite — or extracted back — without recomputing a single cell::

    from repro.store import migrate, open_store

    n = migrate(open_store("json:.repro_cache"), open_store("sqlite:results.db"))

See ``docs/SERVICE.md`` for the full tour.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.store.base import (
    DEFAULT_CACHE_DIR,
    MISS,
    STORE_METRICS,
    CacheStats,
    ResultStore,
    StoreEntry,
    cache_schema,
    code_salt,
    note_corrupt_entry,
)
from repro.store.json_store import JsonStore
from repro.store.sqlite_store import SqliteStore

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_STORE_URL",
    "MISS",
    "STORE_METRICS",
    "CacheStats",
    "JsonStore",
    "ResultStore",
    "SqliteStore",
    "StoreEntry",
    "cache_schema",
    "code_salt",
    "migrate",
    "note_corrupt_entry",
    "open_store",
    "store_url",
]

#: The default store when none is named: the JSON backend in its historical
#: location.
DEFAULT_STORE_URL = f"json:{DEFAULT_CACHE_DIR}"

#: scheme -> backend class. New backends register here (and only here: URL
#: parsing, the CLI, and docs all render from this table).
BACKENDS = {
    JsonStore.scheme: JsonStore,
    SqliteStore.scheme: SqliteStore,
}

#: Schemes resolved on first use (import cost or optional deps). The
#: ``remote:`` proxy lives in :mod:`repro.cluster`, which must not load for
#: every plain file-backed campaign.
_LAZY_BACKENDS = {
    "remote": ("repro.cluster.remote_store", "RemoteStore"),
}


def _int_in_range(low: int, high: Optional[int] = None):
    def convert(key: str, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"store URL parameter {key}={text!r} is not an integer"
            ) from None
        if value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in {low}..{high}"
            raise ValueError(f"store URL parameter {key}={value} must be {bounds}")
        return value

    return convert


#: scheme -> {query key -> value converter}. ``open_store`` rejects any key
#: not listed here, so a typo (``?fanout=4`` on a sqlite URL, ``?fnaout=``
#: anywhere) fails loudly instead of being silently dropped.
_QUERY_PARAMS = {
    "json": {"fanout": _int_in_range(1, 8)},
    "sqlite": {"busy_timeout_ms": _int_in_range(1)},
    "remote": {},
}


def _parse_query(scheme: str, query: str) -> dict:
    allowed = _QUERY_PARAMS.get(scheme, {})
    params = {}
    for part in query.split("&"):
        if not part:
            continue
        key, _, text = part.partition("=")
        if key not in allowed:
            known = ", ".join(sorted(allowed)) or "none"
            raise ValueError(
                f"unknown store URL parameter {key!r} for scheme "
                f"{scheme!r} (known: {known})"
            )
        params[key] = allowed[key](key, text)
    return params


def store_url(spec: Union[str, ResultStore]) -> str:
    """Normalize ``spec`` to a ``scheme:path[?params]`` store URL.

    Bare paths (no known scheme prefix) mean the JSON backend, preserving
    the pre-URL behavior of every ``cache=`` argument. Query parameters
    (``sqlite:results.db?busy_timeout_ms=5000``, ``json:cache?fanout=3``)
    pass through; they are validated by :func:`open_store`.
    """
    if isinstance(spec, ResultStore):
        return spec.url
    text = str(spec)
    scheme, sep, rest = text.partition(":")
    if sep and (scheme in BACKENDS or scheme in _LAZY_BACKENDS):
        return f"{scheme}:{rest}" if rest else f"{scheme}:{_default_path(scheme)}"
    return f"json:{text or DEFAULT_CACHE_DIR}"


def _default_path(scheme: str) -> str:
    return DEFAULT_CACHE_DIR if scheme == "json" else "results.db"


def _backend_class(scheme: str):
    if scheme in BACKENDS:
        return BACKENDS[scheme]
    module_name, attr = _LAZY_BACKENDS[scheme]
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def open_store(
    spec: Union[None, str, "object", ResultStore], salt: Optional[str] = None
) -> Optional[ResultStore]:
    """Coerce a user-facing cache/store argument into a :class:`ResultStore`.

    ``None`` disables storage; an existing store passes through untouched
    (``salt`` must then be None — reopening with a different salt would
    silently change its keying); a string/path is parsed as a store URL,
    including backend tuning via query parameters::

        json:.repro_cache?fanout=3
        sqlite:results.db?busy_timeout_ms=5000
        remote:head-node:7341              # cluster coordinator proxy

    Unknown parameters (and out-of-range values) raise ``ValueError``.
    ``os.PathLike`` values are treated as bare JSON roots.
    """
    if spec is None:
        return None
    if isinstance(spec, ResultStore):
        if salt is not None and salt != spec.salt:
            raise ValueError(
                "open_store(salt=...) cannot re-salt an existing store; "
                "construct the backend with the salt instead"
            )
        return spec
    url = store_url(str(spec))
    scheme, _, rest = url.partition(":")
    # The operand may itself contain ':' (remote:HOST:PORT) — only a
    # trailing '?query' is split off, the rest is the operand.
    path, _, query = rest.partition("?")
    params = _parse_query(scheme, query)
    path = path or _default_path(scheme)
    return _backend_class(scheme)(path, salt=salt, **params)


def migrate(src: ResultStore, dst: ResultStore) -> int:
    """Copy every entry of ``src`` into ``dst``, preserving provenance.

    Values, metadata, and the original code-version salt/schema cross
    unchanged (a migrated entry hits the cache exactly when the original
    would have). Existing entries in ``dst`` under the same hash are
    overwritten — both sides are deterministic functions of the hash, so
    this is a no-op disagreement-wise. Returns the number of entries copied.
    """
    copied = 0
    for entry in src.entries():
        dst.put_entry(entry)
        copied += 1
    return copied
