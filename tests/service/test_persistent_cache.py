"""Tests for the sharded, versioned, bounded on-disk compile cache."""

import multiprocessing
import os
import time

import pytest

from repro.api import CompileCache, CompileRequest, CompileResult, CompilerConfig
from repro.api.store import cache_key_digest
from repro.service import (
    CACHE_FORMAT_VERSION,
    PersistentCompileCache,
    golden_version_stamp,
)
from repro.vqe import ExcitationTerm

FAST = CompilerConfig(gamma_steps=5, sorting_population=8, sorting_generations=5, seed=0)


def make_key(index=0):
    request = CompileRequest(
        terms=(
            ExcitationTerm(creation=(4, 5), annihilation=(0, 1)),
            ExcitationTerm(creation=(2 + index,), annihilation=(0,)),
        ),
        n_qubits=16,
        config=FAST,
    )
    return CompileCache.key(request, "advanced")


def make_result(cnot_count=7):
    return CompileResult(
        backend="advanced", cnot_count=cnot_count, n_qubits=16,
        breakdown={"total": cnot_count},
    )


class TestVersionStamp:
    def test_stamp_is_deterministic(self, tmp_path):
        assert golden_version_stamp() == golden_version_stamp()

    def test_stamp_tracks_golden_contents(self, tmp_path):
        (tmp_path / "table1.json").write_text('{"a": 1}')
        before = golden_version_stamp(tmp_path)
        (tmp_path / "table1.json").write_text('{"a": 2}')
        assert golden_version_stamp(tmp_path) != before

    def test_missing_golden_dir_degrades_to_format_stamp(self, tmp_path):
        stamp = golden_version_stamp(tmp_path / "nope")
        assert stamp  # still a usable stamp
        assert f"format={CACHE_FORMAT_VERSION}" not in stamp  # hashed, not raw

    def test_default_stamp_covers_the_repo_goldens(self):
        # The default stamp must differ from the bare-format fallback,
        # proving it actually folded the tests/golden files in.
        assert golden_version_stamp() != golden_version_stamp("/no/such/dir")


class TestBasicRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        key, result = make_key(), make_result()
        assert cache.get(key) is None
        cache.put(key, result)
        assert cache.get(key) == result
        assert cache.hits == 1 and cache.misses == 1
        assert key in cache and len(cache) == 1

    def test_peek_does_not_touch_counters(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        key = make_key()
        assert cache.peek(key) is None
        cache.put(key, make_result())
        assert cache.peek(key) is not None
        assert cache.hits == 0 and cache.misses == 0

    def test_entries_shard_by_digest_prefix(self, tmp_path):
        cache = PersistentCompileCache(tmp_path, shard_width=2)
        keys = [make_key(i) for i in range(4)]
        for key in keys:
            cache.put(key, make_result())
        for key in keys:
            digest = cache_key_digest(key)
            assert (tmp_path / digest[:2] / f"{digest}.pkl").is_file()

    def test_survives_reopen(self, tmp_path):
        key, result = make_key(), make_result(11)
        PersistentCompileCache(tmp_path).put(key, result)
        assert PersistentCompileCache(tmp_path).get(key) == result

    def test_stored_key_mismatch_is_a_miss(self, tmp_path):
        # A foreign file under our digest name must never be served.
        cache = PersistentCompileCache(tmp_path)
        key, other = make_key(0), make_key(1)
        cache.put(other, make_result())
        path = cache.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(cache.entry_path(other), path)
        assert cache.get(key) is None

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="shard_width"):
            PersistentCompileCache(tmp_path, shard_width=0)
        with pytest.raises(ValueError, match="max_entries"):
            PersistentCompileCache(tmp_path, max_entries=0)

    def test_repr_names_root_and_version(self, tmp_path):
        cache = PersistentCompileCache(tmp_path, version="v1", max_entries=5)
        assert "v1" in repr(cache) and str(tmp_path) in repr(cache)


class TestVersionInvalidation:
    def test_stale_version_invalidated_on_read(self, tmp_path):
        key = make_key()
        PersistentCompileCache(tmp_path, version="A").put(key, make_result())
        cache = PersistentCompileCache(tmp_path, version="B")
        assert cache.get(key) is None
        assert cache.stale_invalidations == 1
        assert len(cache) == 0  # removed, not just skipped

    def test_vacuum_removes_stale_entries_wholesale(self, tmp_path):
        old = PersistentCompileCache(tmp_path, version="A")
        for index in range(3):
            old.put(make_key(index), make_result())
        new = PersistentCompileCache(tmp_path, version="B")
        new.put(make_key(9), make_result())
        assert new.vacuum() == 3
        assert len(new) == 1
        assert new.peek(make_key(9)) is not None

    def test_vacuum_treats_unreadable_entries_as_stale(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        cache.put(make_key(), make_result())
        path = cache.entry_path(make_key())
        path.write_bytes(b"not a pickle")
        assert cache.vacuum() == 1

    def test_corrupt_entry_removed_on_read(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        key = make_key()
        cache.put(key, make_result())
        cache.entry_path(key).write_bytes(b"\x80\x04 torn")
        assert cache.get(key) is None
        assert cache.corrupt_invalidations == 1
        assert len(cache) == 0


class TestEviction:
    def test_lru_eviction_beyond_max_entries(self, tmp_path):
        cache = PersistentCompileCache(tmp_path, max_entries=2)
        keys = [make_key(i) for i in range(3)]
        for index, key in enumerate(keys[:2]):
            cache.put(key, make_result(index))
            time.sleep(0.01)  # distinct mtimes on coarse filesystems
        assert cache.get(keys[0]) is not None  # refresh key 0's recency
        time.sleep(0.01)
        cache.put(keys[2], make_result(2))
        assert cache.evictions == 1
        assert cache.peek(keys[1]) is None  # LRU entry went
        assert cache.peek(keys[0]) is not None
        assert cache.peek(keys[2]) is not None

    def test_unbounded_by_default(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        for index in range(5):
            cache.put(make_key(index), make_result())
        assert len(cache) == 5 and cache.evictions == 0

    def test_same_second_hits_still_reorder_eviction(self, tmp_path, monkeypatch):
        """Regression: recency must survive a coarse (frozen) clock.

        With ``os.utime(path)`` stamping wall-clock mtimes, two hits inside
        the same clock tick (or on a filesystem with 1 s mtime granularity)
        tie in the eviction sort and a hot entry can be dropped.  The touch
        path must hand out strictly increasing nanosecond stamps even when
        ``time.time_ns`` never advances.
        """
        import repro.api.store as cache_module

        cache = PersistentCompileCache(tmp_path, max_entries=2)
        key_a, key_b, key_c = make_key(0), make_key(1), make_key(2)
        cache.put(key_a, make_result(0))
        cache.put(key_b, make_result(1))

        # Freeze the clock and flatten every existing mtime onto one tick,
        # simulating same-second granularity.
        frozen_ns = time.time_ns()
        monkeypatch.setattr(cache_module.time, "time_ns", lambda: frozen_ns)
        for key in (key_a, key_b):
            os.utime(cache.entry_path(key), ns=(frozen_ns, frozen_ns))

        # Hit B then A within the frozen tick: A must end up newest.
        assert cache.get(key_b) is not None
        assert cache.get(key_a) is not None
        mtime_a = cache.entry_path(key_a).stat().st_mtime_ns
        mtime_b = cache.entry_path(key_b).stat().st_mtime_ns
        assert mtime_a > mtime_b  # strictly increasing despite the frozen clock

        cache.put(key_c, make_result(2))
        assert cache.evictions == 1
        assert cache.peek(key_b) is None  # the older hit went
        assert cache.peek(key_a) is not None  # the hot entry survived
        assert cache.peek(key_c) is not None


class TestAdmin:
    def test_stats_reports_shards_and_sizes(self, tmp_path):
        cache = PersistentCompileCache(tmp_path, version="V")
        for index in range(4):
            cache.put(make_key(index), make_result())
        stats = cache.stats()
        assert stats["entries"] == 4
        assert stats["version"] == "V"
        assert stats["total_bytes"] > 0
        assert sum(stats["shards"].values()) == 4
        assert stats["stale_entries"] == 0
        assert stats["counters"]["evictions"] == 0

    def test_stats_counts_stale_entries(self, tmp_path):
        PersistentCompileCache(tmp_path, version="A").put(make_key(), make_result())
        stats = PersistentCompileCache(tmp_path, version="B").stats()
        assert stats["entries"] == 1 and stats["stale_entries"] == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        for index in range(3):
            cache.put(make_key(index), make_result())
        assert cache.clear() == 3
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Multi-process coherence (the atomic-write / shared-directory contract)
# ----------------------------------------------------------------------
N_WRITER_ROUNDS = 60
N_SHARED_KEYS = 4


def _writer_proc(root, worker_seed):
    """Hammer the same key set with atomic rewrites of valid entries."""
    cache = PersistentCompileCache(root, version="shared")
    for round_index in range(N_WRITER_ROUNDS):
        index = (worker_seed + round_index) % N_SHARED_KEYS
        cache.put(make_key(index), make_result(100 + index))


def _reader_proc(root, failures):
    """Read continuously; every hit must be a complete, correct entry."""
    cache = PersistentCompileCache(root, version="shared")
    for _ in range(N_WRITER_ROUNDS * 2):
        for index in range(N_SHARED_KEYS):
            result = cache.peek(make_key(index))
            if result is not None and result.cnot_count != 100 + index:
                failures.put((index, result.cnot_count))
    if cache.corrupt_invalidations:
        failures.put(("corrupt", cache.corrupt_invalidations))


class TestMultiProcess:
    def test_concurrent_writers_and_readers_see_only_complete_entries(self, tmp_path):
        context = multiprocessing.get_context("fork")
        failures = context.Queue()
        writers = [
            context.Process(target=_writer_proc, args=(str(tmp_path), seed))
            for seed in range(3)
        ]
        reader = context.Process(target=_reader_proc, args=(str(tmp_path), failures))
        for proc in writers + [reader]:
            proc.start()
        for proc in writers + [reader]:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert failures.empty(), f"reader saw torn/wrong entries: {failures.get()}"
        # Afterwards every shared key holds its final complete value.
        cache = PersistentCompileCache(tmp_path, version="shared")
        for index in range(N_SHARED_KEYS):
            assert cache.peek(make_key(index)).cnot_count == 100 + index

    def test_version_mismatch_across_processes_invalidates(self, tmp_path):
        context = multiprocessing.get_context("fork")
        writer = context.Process(target=_writer_proc, args=(str(tmp_path), 0))
        writer.start()
        writer.join(timeout=60)
        assert writer.exitcode == 0
        upgraded = PersistentCompileCache(tmp_path, version="new-goldens")
        assert upgraded.get(make_key(0)) is None
        assert upgraded.stale_invalidations == 1

    def test_no_temporary_files_left_behind(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        for index in range(4):
            cache.put(make_key(index), make_result())
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_failed_write_leaves_no_entry(self, tmp_path, monkeypatch):
        cache = PersistentCompileCache(tmp_path)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            cache.put(make_key(), make_result())
        monkeypatch.undo()
        assert cache.peek(make_key()) is None
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.io_errors == 1


class TestVacuumVsConcurrentWriters:
    """Regression: vacuum racing a writer must not eat mid-write temp files."""

    def _plant_tmp(self, cache, tmp_path, age_s=0.0):
        """A torn mid-write temporary, as mkstemp leaves it during put()."""
        shard = tmp_path / "ab"
        shard.mkdir(exist_ok=True)
        tmp_file = shard / "abcdef0123456789deadbeef.tmp"
        tmp_file.write_bytes(b"\x80\x04 torn mid-write")
        if age_s:
            past = time.time() - age_s
            os.utime(tmp_file, (past, past))
        return tmp_file

    def test_fresh_tmp_file_survives_vacuum(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        cache.put(make_key(), make_result())
        tmp_file = self._plant_tmp(cache, tmp_path)
        assert cache.vacuum() == 0
        assert tmp_file.exists()  # the concurrent writer keeps its file
        assert cache.peek(make_key()) is not None
        assert cache.stale_invalidations == 0

    def test_aged_tmp_orphan_is_swept(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        tmp_file = self._plant_tmp(cache, tmp_path, age_s=7200.0)
        assert cache.vacuum() == 1
        assert not tmp_file.exists()
        # Orphan sweeps are not stale-entry invalidations.
        assert cache.stale_invalidations == 0

    def test_tmp_age_threshold_is_configurable(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        tmp_file = self._plant_tmp(cache, tmp_path, age_s=10.0)
        assert cache.vacuum() == 0  # default hour-long grace
        assert tmp_file.exists()
        assert cache.vacuum(tmp_max_age_s=1.0) == 1
        assert not tmp_file.exists()


class TestIOErrorAccounting:
    def test_read_io_error_is_a_miss_that_keeps_the_entry(self, tmp_path, monkeypatch):
        from pathlib import Path

        cache = PersistentCompileCache(tmp_path)
        key = make_key()
        cache.put(key, make_result(13))
        real_read_bytes = Path.read_bytes

        def denied(self):
            raise PermissionError("injected permission flip")

        monkeypatch.setattr(Path, "read_bytes", denied)
        assert cache.get(key) is None  # degraded to a miss...
        monkeypatch.setattr(Path, "read_bytes", real_read_bytes)
        assert cache.io_errors == 1
        assert cache.corrupt_invalidations == 0
        result = cache.get(key)  # ...but the entry itself survived
        assert result is not None and result.cnot_count == 13

    def test_fault_events_totals_corruption_and_io(self, tmp_path):
        cache = PersistentCompileCache(tmp_path)
        key = make_key()
        cache.put(key, make_result())
        cache.entry_path(key).write_bytes(b"\x80\x04 torn")
        assert cache.get(key) is None
        cache.io_errors += 1  # as a service-layer OSError would count it
        assert cache.fault_events == cache.corrupt_invalidations + cache.io_errors == 2
        assert cache.stats()["counters"]["io_errors"] == 1
