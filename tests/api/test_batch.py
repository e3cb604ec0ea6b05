"""Tests for the batch compilation service and its memoization cache."""

import pytest

from repro.api import (
    CompileCache,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    compile_batch,
    register_backend,
    unregister_backend,
)
from repro.vqe import ExcitationTerm


def term(creation, annihilation):
    return ExcitationTerm(creation=tuple(creation), annihilation=tuple(annihilation))


FAST = CompilerConfig(gamma_steps=5, seed=0)


def make_request(shift=0, config=FAST):
    terms = (
        term((4 + shift, 5 + shift), (0, 1)),
        term((4 + shift, 7 + shift), (0, 3)),
        term((6,), (0,)),
    )
    return CompileRequest(terms=terms, n_qubits=8 + shift, config=config)


class CountingBackend:
    """Backend that counts how many times it actually compiles."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def compile(self, request):
        self.calls += 1
        return CompileResult(
            backend=self.name,
            cnot_count=7,
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": 7},
        )


@pytest.fixture
def counting():
    backend = CountingBackend()
    register_backend(backend)
    yield backend
    unregister_backend("counting")


class TestRequestFingerprint:
    def test_identical_requests_share_a_fingerprint(self):
        assert make_request().fingerprint == make_request().fingerprint

    def test_fingerprint_ignores_importance_metadata(self):
        plain = CompileRequest(terms=(term((2,), (0,)),))
        ranked = CompileRequest(
            terms=(ExcitationTerm(creation=(2,), annihilation=(0,), importance=0.5),)
        )
        assert plain.fingerprint == ranked.fingerprint

    def test_fingerprint_depends_on_terms_config_and_register(self):
        base = make_request()
        assert base.fingerprint != make_request(shift=1).fingerprint
        assert (
            base.fingerprint
            != make_request(config=FAST.replace(seed=1)).fingerprint
        )

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            CompileRequest(terms=())

    def test_parameter_count_validated(self):
        with pytest.raises(ValueError):
            CompileRequest(terms=(term((2,), (0,)),), parameters=(1.0, 2.0))


class TestCacheHits:
    def test_warm_cache_skips_recompilation(self, counting):
        cache = CompileCache()
        requests = [make_request(), make_request(shift=1)]

        cold = compile_batch(requests, backends="counting", cache=cache)
        assert counting.calls == 2
        assert cold.cache_hits == 0
        assert cold.cache_misses == 2

        warm = compile_batch(requests, backends="counting", cache=cache)
        assert counting.calls == 2  # nothing recompiled
        assert warm.cache_hits == 2
        assert warm.cache_misses == 0
        assert warm.results[0]["counting"] == cold.results[0]["counting"]

    def test_identical_requests_deduplicate_within_one_batch(self, counting):
        batch = compile_batch(
            [make_request(), make_request()], backends="counting"
        )
        assert counting.calls == 1
        assert batch.cache_hits == 1
        assert batch.cache_misses == 1
        assert (
            batch.results[0]["counting"].cnot_count
            == batch.results[1]["counting"].cnot_count
        )

    def test_alias_and_canonical_name_share_cache_entries(self):
        cache = CompileCache()
        request = make_request()
        compile_batch([request], backends="adv", cache=cache)
        warm = compile_batch([request], backends="advanced", cache=cache)
        assert warm.cache_hits == 1
        assert warm.cache_misses == 0

    def test_warm_batch_is_faster_than_cold(self):
        cache = CompileCache()
        requests = [make_request(), make_request(shift=1)]
        cold = compile_batch(requests, backends="advanced", cache=cache)
        warm = compile_batch(requests, backends="advanced", cache=cache)
        assert warm.cache_hits == len(requests)
        assert warm.wall_time_s < cold.wall_time_s

    def test_config_blind_backends_share_cache_across_configs(self):
        cache = CompileCache()
        base = make_request()
        swept = make_request(config=FAST.replace(gamma_steps=9))
        compile_batch([base], backends=("jw", "advanced"), cache=cache)
        warm = compile_batch([swept], backends=("jw", "advanced"), cache=cache)
        # JW ignores the config, so the sweep reuses its entry; the advanced
        # flow depends on it and must recompile.
        assert warm.cache_hits == 1
        assert warm.cache_misses == 1

    def test_cache_clear_resets_counters(self, counting):
        cache = CompileCache()
        compile_batch([make_request()], backends="counting", cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0


class TestBoundedCache:
    def test_lru_eviction_beyond_max_entries(self, counting):
        cache = CompileCache(max_entries=2)
        first, second, third = (make_request(shift) for shift in range(3))
        compile_batch([first, second], backends="counting", cache=cache)
        # Touch `first` so `second` is the least recently used entry.
        assert cache.get(CompileCache.key(first, "counting")) is not None
        compile_batch([third], backends="counting", cache=cache)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert CompileCache.key(second, "counting") not in cache
        assert CompileCache.key(first, "counting") in cache

    def test_evicted_entry_recompiles(self, counting):
        cache = CompileCache(max_entries=1)
        requests = [make_request(), make_request(shift=1)]
        compile_batch(requests, backends="counting", cache=cache)
        compile_batch([make_request()], backends="counting", cache=cache)
        assert counting.calls == 3  # the first request's entry was evicted

    def test_peek_does_not_refresh_recency(self, counting):
        cache = CompileCache(max_entries=2)
        first, second = make_request(), make_request(shift=1)
        compile_batch([first, second], backends="counting", cache=cache)
        cache.peek(CompileCache.key(first, "counting"))  # no recency refresh
        compile_batch([make_request(shift=2)], backends="counting", cache=cache)
        assert CompileCache.key(first, "counting") not in cache  # still LRU

    def test_clear_resets_evictions(self, counting):
        cache = CompileCache(max_entries=1)
        compile_batch(
            [make_request(), make_request(shift=1)], backends="counting", cache=cache
        )
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            CompileCache(max_entries=0)

    def test_unbounded_cache_never_evicts(self, counting):
        cache = CompileCache()
        compile_batch(
            [make_request(shift) for shift in range(4)],
            backends="counting",
            cache=cache,
        )
        assert len(cache) == 4 and cache.evictions == 0


class TestCacheKeyDigest:
    def test_digest_is_stable_and_hex(self):
        from repro.api import cache_key_digest

        key = CompileCache.key(make_request(), "advanced")
        digest = cache_key_digest(key)
        assert digest == cache_key_digest(key)
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_digest_separates_requests_backends_and_configs(self):
        from repro.api import cache_key_digest

        base = cache_key_digest(CompileCache.key(make_request(), "advanced"))
        assert base != cache_key_digest(CompileCache.key(make_request(1), "advanced"))
        assert base != cache_key_digest(CompileCache.key(make_request(), "baseline"))
        swept = make_request(config=FAST.replace(gamma_steps=9))
        assert base != cache_key_digest(CompileCache.key(swept, "advanced"))


class TestSpawnPlatformGuard:
    def test_custom_backend_with_non_fork_workers_raises_eagerly(
        self, counting, monkeypatch
    ):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
        with pytest.raises(RuntimeError, match="counting.*workers=1"):
            compile_batch([make_request()], backends="counting", workers=2)
        assert counting.calls == 0  # raised before compiling anything

    def test_default_backends_unaffected_by_start_method(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
        batch = compile_batch([make_request()], backends="jw", workers=2)
        assert batch.results[0]["jw"].cnot_count > 0

    def test_custom_backend_serial_unaffected(self, counting, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
        batch = compile_batch([make_request()], backends="counting", workers=1)
        assert batch.results[0]["counting"].cnot_count == 7


class TestMultiBackendBatches:
    def test_all_table1_flows_in_one_call(self):
        batch = compile_batch(
            [make_request()],
            backends=("jordan-wigner", "bravyi-kitaev", "baseline", "advanced"),
        )
        row = batch.results[0]
        assert set(row) == {"jordan-wigner", "bravyi-kitaev", "baseline", "advanced"}
        for name, result in row.items():
            assert result.backend == name
            assert result.cnot_count >= 0
            assert result.breakdown["total"] == result.cnot_count
        assert row["advanced"].cnot_count <= row["baseline"].cnot_count

    def test_cnot_counts_helper_accepts_aliases(self):
        batch = compile_batch([make_request()], backends=("gt", "adv"))
        assert batch.cnot_counts("gt") == batch.cnot_counts("baseline")

    def test_result_rows_accept_aliases(self):
        batch = compile_batch([make_request()], backends=("jw", "advanced"))
        row = batch.results[0]
        assert row["jw"] is row["jordan-wigner"]
        assert row["adv"] is row["advanced"]
        assert "jw" in row and "jordan-wigner" in row
        assert row.get("jw") is row["jordan-wigner"]
        assert row.get("no-such-backend") is None
        with pytest.raises(KeyError):
            row["no-such-backend"]

    def test_duplicate_backends_rejected(self):
        with pytest.raises(ValueError):
            compile_batch([make_request()], backends=("advanced", "adv"))

    def test_results_match_direct_backend_calls(self):
        from repro.api import get_backend

        request = make_request()
        batch = compile_batch([request], backends=("baseline", "advanced"))
        assert (
            batch.results[0]["advanced"].cnot_count
            == get_backend("advanced").compile(request).cnot_count
        )
        assert (
            batch.results[0]["baseline"].cnot_count
            == get_backend("baseline").compile(request).cnot_count
        )


class TestParallelWorkers:
    def test_process_pool_matches_serial_results(self):
        requests = [make_request(), make_request(shift=1), make_request(shift=2)]
        serial = compile_batch(requests, backends="advanced")
        parallel = compile_batch(requests, backends="advanced", workers=2)
        assert serial.cnot_counts("advanced") == parallel.cnot_counts("advanced")

    def test_caller_owned_executor_is_reused_across_batches(self):
        from concurrent.futures import ProcessPoolExecutor

        requests = [make_request(), make_request(shift=1)]
        serial = compile_batch(requests, backends="advanced")
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = compile_batch(requests, backends="advanced", executor=pool)
            second = compile_batch(
                [make_request(shift=2), make_request(shift=3)],
                backends="advanced",
                executor=pool,
            )
        assert first.cnot_counts("advanced") == serial.cnot_counts("advanced")
        assert all(result for row in second.results for result in row.values())
