"""Compile-result stores: the in-memory and the on-disk tier, one key space.

:class:`CompileCache` memoizes :class:`~repro.api.CompileResult` objects in
memory under ``CompileCache.key(request, backend)``: the request's terms,
register size and parameters plus the part of the config the backend reads
(the whole config unless the backend declares a narrower ``cache_config``).
:class:`PersistentCompileCache` stores them on disk content-addressed by the
same keys, so the two tiers agree on identity by construction.  The disk
store is also the :func:`~repro.api.compile_batch` checkpoint journal.
Entries live under a cache *root* directory, sharded by the leading hex
characters of the key's SHA-256 digest (:func:`cache_key_digest`) so no
single directory grows unbounded::

    root/
      3f/3fa8...e1.pkl      # one pickled entry per (request, backend) key
      a0/a09c...77.pkl

Three guarantees make the cache safe to share between processes:

* **Atomic writes.**  :meth:`put` pickles the entry into a temporary file in
  the destination shard and ``os.replace``-s it into place, so a concurrent
  reader sees either no entry or a complete one — never a torn write.
* **Version stamping.**  Every entry carries the cache's *version stamp*.
  The default stamp (:func:`golden_version_stamp`) hashes the golden
  regression files under ``tests/golden/`` together with the on-disk format
  version, so whenever compilation semantics change enough to move the pinned
  Table-I numbers, every previously written entry is recognized as stale and
  invalidated on read (or wholesale via :meth:`vacuum`) instead of being
  deserialized into wrong results.
* **Key verification.**  The full memoization key is stored inside the entry
  and compared on read, so a digest collision or a foreign file can never be
  served as a hit.

The cache is bounded: with ``max_entries`` set, :meth:`put` evicts the
least-recently-used entries (file mtime, refreshed on every hit) beyond the
bound.  Eviction tolerates concurrent removals, so many processes can share
one root.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro import faults
from repro.api.backend import CompileRequest, CompileResult, get_backend

#: A memoization key: (request fingerprint, canonical backend name).
CacheKey = Tuple[Hashable, str]


def cache_key_digest(key: CacheKey) -> str:
    """Stable SHA-256 content address of a memoization key (hex).

    A :data:`CacheKey` is a nest of primitives — ints, floats, strings,
    booleans, ``None`` and tuples (nested dataclasses such as
    :class:`~repro.hardware.topology.Topology` are flattened by the config
    fingerprint's ``dataclasses.astuple``) — so its ``repr`` is deterministic
    across processes and interpreter restarts.  :class:`PersistentCompileCache`
    uses this digest to shard and address entries.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@dataclass
class CompileCache:
    """In-memory memoization of compile results with hit/miss accounting.

    ``max_entries`` bounds the cache: when set, inserting beyond the bound
    evicts the least-recently-used entry (a :meth:`get` hit refreshes an
    entry's recency, :meth:`peek` does not) and increments ``evictions``,
    mirroring the bounded-cache convention of the SCF/integral caches.
    ``None`` (the default) keeps the historical unbounded behavior.
    """

    _store: Dict[CacheKey, CompileResult] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    max_entries: Optional[int] = None
    evictions: int = 0

    def __post_init__(self):
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be None or at least 1")

    @staticmethod
    def key(request: CompileRequest, backend_name: str) -> CacheKey:
        """Memoization key: the request's input plus the config the backend reads.

        A backend may declare ``cache_config(config)``, the part of the
        config its result depends on; without it, or when it returns the
        whole config, the key holds the whole config fingerprint.  The
        naive JW/BK flows return the topology and the baseline returns it
        too unless its PSO search runs, so sweeps over pipeline knobs and
        seeds share their entries.
        """
        backend = get_backend(backend_name)
        cache_config = getattr(backend, "cache_config", None)
        read = request.config if cache_config is None else cache_config(request.config)
        if read is request.config:
            return (request.fingerprint, backend.name)
        return (request.input_fingerprint, read, backend.name)

    def get(self, key: CacheKey) -> Optional[CompileResult]:
        result = self._store.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
            if self.max_entries is not None:  # refresh LRU recency
                self._store[key] = self._store.pop(key)
        return result

    def peek(self, key: CacheKey) -> Optional[CompileResult]:
        """Like :meth:`get` but without touching counters or LRU recency."""
        return self._store.get(key)

    def put(self, key: CacheKey, result: CompileResult) -> None:
        self._store.pop(key, None)  # re-insert at the most-recent position
        self._store[key] = result
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                del self._store[next(iter(self._store))]
                self.evictions += 1

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._store


#: Bumped whenever the on-disk entry layout changes; part of every stamp.
#: 2: CompileResult gained the ``stage_timings`` field.
#: 3: CompileResult gained the ``degraded``/``degraded_stages`` fields.
CACHE_FORMAT_VERSION = 3

#: The golden regression files the default version stamp is derived from.
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_version_stamp(golden_dir: Optional[Path] = None) -> str:
    """Cache version stamp tied to the golden regression files.

    Hashes the name and contents of every ``*.json`` under ``tests/golden/``
    (sorted, so the stamp is order-independent) together with
    :data:`CACHE_FORMAT_VERSION`.  The goldens pin the compiled Table-I
    numbers, so any change that moves compilation output also moves this
    stamp and wholesale-invalidates previously cached results.  A missing
    golden directory (e.g. an installed package without the test tree)
    degrades to a stamp over the format version alone.
    """
    digest = hashlib.sha256(f"format={CACHE_FORMAT_VERSION}".encode("utf-8"))
    directory = Path(golden_dir) if golden_dir is not None else GOLDEN_DIR
    if directory.is_dir():
        for path in sorted(directory.glob("*.json")):
            digest.update(path.name.encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class PersistentCompileCache:
    """Disk tier of the service lookup path and the batch checkpoint journal.

    Parameters
    ----------
    root:
        Cache directory, created if missing.  Safe to share between
        processes; every write is atomic.
    version:
        Version stamp accepted on read and written into new entries.
        Defaults to :func:`golden_version_stamp`.
    max_entries:
        LRU bound on the number of stored entries (``None`` = unbounded).
    shard_width:
        Leading hex characters of the key digest used as the shard directory
        name (2 → 256 shards).

    Counters (per instance, not persisted): ``hits``, ``misses``,
    ``stale_invalidations`` (version-stamp mismatches removed on read),
    ``corrupt_invalidations`` (unreadable entries removed on read),
    ``io_errors`` (OS-level read/write failures — permission flips, full
    disks, injected faults — which are *not* treated as corruption: the
    entry is left in place and the operation degrades to a miss) and
    ``evictions``.  ``fault_events`` sums the corruption and I/O counters;
    the service's disk circuit breaker watches its delta around every
    disk-tier operation.
    """

    def __init__(
        self,
        root,
        version: Optional[str] = None,
        max_entries: Optional[int] = None,
        shard_width: int = 2,
    ):
        if not 1 <= shard_width <= 8:
            raise ValueError("shard_width must be between 1 and 8")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or at least 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.version = version if version is not None else golden_version_stamp()
        self.max_entries = max_entries
        self.shard_width = shard_width
        self.hits = 0
        self.misses = 0
        self.stale_invalidations = 0
        self.corrupt_invalidations = 0
        self.io_errors = 0
        self.evictions = 0

    @property
    def fault_events(self) -> int:
        """Disk misbehaviors observed so far (corrupt entries + I/O errors)."""
        return self.corrupt_invalidations + self.io_errors

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def entry_path(self, key: CacheKey) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        digest = cache_key_digest(key)
        return self.root / digest[: self.shard_width] / f"{digest}.pkl"

    def _entry_paths(self) -> Iterator[Path]:
        """Every stored entry file (temporary write files never match)."""
        return self.root.glob("*/" + "*.pkl")

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _load(self, path: Path, key: Optional[CacheKey]) -> Optional[CompileResult]:
        """Read one entry, enforcing version and key; invalidate bad files."""
        try:
            faults.fire("disk.read", path=path)
            payload = pickle.loads(faults.mangle("disk.read", path.read_bytes()))
            version, stored_key = payload["version"], payload["key"]
            result = payload["result"]
        except FileNotFoundError:
            return None
        except OSError:
            # The disk itself misbehaved (permission flip, EIO, injected
            # fault).  The entry may be perfectly fine, so keep it and
            # degrade to a miss; the breaker above decides systemic policy.
            self.io_errors += 1
            return None
        except Exception:
            # Unreadable pickle (foreign file, interrupted pre-atomic-write
            # tooling, disk corruption): drop it rather than serve garbage.
            self.corrupt_invalidations += 1
            self._unlink(path)
            return None
        if version != self.version:
            self.stale_invalidations += 1
            self._unlink(path)
            return None
        if key is not None and stored_key != key:
            return None  # digest collision or foreign file under our name
        return result

    def get(self, key: CacheKey) -> Optional[CompileResult]:
        """The cached result for ``key``, or ``None`` (counted as a miss)."""
        path = self.entry_path(key)
        result = self._load(path, key)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)  # refresh LRU recency
        return result

    def peek(self, key: CacheKey) -> Optional[CompileResult]:
        """Like :meth:`get` but without counters or recency refresh."""
        return self._load(self.entry_path(key), key)

    def __contains__(self, key: CacheKey) -> bool:
        return self.peek(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: CacheKey, result: CompileResult) -> None:
        """Atomically store ``result`` under ``key`` and enforce the bound.

        OS-level write failures (full disk, permission flip, injected fault)
        count into ``io_errors`` and propagate as ``OSError`` — the caller
        decides whether a failed cache write is fatal (the service degrades;
        a direct user sees the error).
        """
        path = self.entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            faults.fire("disk.write", path=path)
            payload = faults.mangle(
                "disk.write",
                pickle.dumps(
                    {
                        "version": self.version,
                        "key": key,
                        "result": result,
                        "created_at": time.time(),
                    },
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            )
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)  # atomic: no torn files for readers
            except BaseException:
                self._unlink(Path(tmp_name))
                raise
        except OSError:
            self.io_errors += 1
            raise
        self._touch(path)  # stamp recency on the same clock the hits use
        if self.max_entries is not None:
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used entries beyond ``max_entries``.

        Lists the whole cache (O(entries)); fine at the bounded sizes the
        bound itself implies.  Concurrent removals by other processes are
        tolerated — an already-gone file simply doesn't count.
        """
        entries: List[Tuple[int, Path]] = []
        for path in self._entry_paths():
            try:
                # Integer nanoseconds, not the float st_mtime: float64 seconds
                # quantize to hundreds of nanoseconds at the current epoch and
                # would collapse the strictly-increasing stamps _touch writes.
                entries.append((path.stat().st_mtime_ns, path))
            except FileNotFoundError:
                continue
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        entries.sort()
        for _, path in entries[:excess]:
            if self._unlink(path):
                self.evictions += 1

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Inspection snapshot: sizes, version, per-shard entry counts."""
        per_shard: Dict[str, int] = {}
        total_bytes = 0
        entries = 0
        stale = 0
        for path in self._entry_paths():
            try:
                size = path.stat().st_size
                payload = pickle.loads(path.read_bytes())
                version = payload["version"]
            except Exception:
                continue  # unreadable or vanished mid-scan; vacuum handles it
            entries += 1
            total_bytes += size
            per_shard[path.parent.name] = per_shard.get(path.parent.name, 0) + 1
            if version != self.version:
                stale += 1
        return {
            "root": str(self.root),
            "version": self.version,
            "entries": entries,
            "stale_entries": stale,
            "total_bytes": total_bytes,
            "shards": dict(sorted(per_shard.items())),
            "max_entries": self.max_entries,
            "counters": {
                "hits": self.hits,
                "misses": self.misses,
                "stale_invalidations": self.stale_invalidations,
                "corrupt_invalidations": self.corrupt_invalidations,
                "io_errors": self.io_errors,
                "evictions": self.evictions,
            },
        }

    #: ``vacuum`` only removes ``.tmp`` write files older than this (seconds);
    #: younger ones may belong to a concurrent writer mid-``put``.
    TMP_MAX_AGE_S = 3600.0

    def vacuum(self, tmp_max_age_s: Optional[float] = None) -> int:
        """Remove stale entries and orphaned write files; return the count.

        An entry is stale when its version stamp doesn't match (or it cannot
        be read at all).  ``.tmp``-suffixed files are **never** judged as
        entries: a concurrent writer's mid-``put`` temporary must not be
        counted corrupt and deleted out from under it (the torn-write race
        this method used to lose).  Only ``.tmp`` files older than
        ``tmp_max_age_s`` — orphans of a crashed writer, which no live
        ``put`` can still be holding — are swept.
        """
        max_age = self.TMP_MAX_AGE_S if tmp_max_age_s is None else tmp_max_age_s
        removed = 0
        for path in list(self._entry_paths()):
            if path.name.endswith(".tmp"):
                continue  # never treat a mid-write temporary as an entry
            stale = False
            try:
                stale = pickle.loads(path.read_bytes())["version"] != self.version
            except FileNotFoundError:
                continue
            except Exception:
                stale = True  # unreadable counts as stale
            if stale and self._unlink(path):
                removed += 1
        self.stale_invalidations += removed
        now = time.time()
        for path in list(self.root.glob("*/*.tmp")):
            try:
                age_s = now - path.stat().st_mtime
            except FileNotFoundError:
                continue  # the writer finished (renamed) or another vacuum won
            if age_s > max_age and self._unlink(path):
                removed += 1
        return removed

    def clear(self) -> int:
        """Remove every entry (any version); return the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            if self._unlink(path):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Filesystem helpers tolerant of concurrent processes
    # ------------------------------------------------------------------
    @staticmethod
    def _unlink(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    # LRU recency stamps must be strictly increasing even when the clock is
    # coarse (1 s mtime granularity on some filesystems) or two hits land in
    # the same clock tick; otherwise a hot entry touched "at the same time"
    # as a cold one can lose the eviction sort and be dropped.
    _touch_lock = threading.Lock()
    _last_touch_ns = 0

    @classmethod
    def _touch(cls, path: Path) -> None:
        with cls._touch_lock:
            stamp = max(time.time_ns(), cls._last_touch_ns + 1)
            cls._last_touch_ns = stamp
        try:
            os.utime(path, ns=(stamp, stamp))
        except FileNotFoundError:
            pass  # evicted by a concurrent process between read and touch

    def __repr__(self) -> str:
        return (
            f"PersistentCompileCache(root={str(self.root)!r}, "
            f"version={self.version!r}, max_entries={self.max_entries})"
        )
