"""Tests for the asyncio compile service: tiers, dedup, priorities, cancel."""

import asyncio
import time

import pytest

from repro.api import (
    CompileCache,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    register_backend,
    unregister_backend,
)
from repro.service import (
    CompileService,
    JobCancelledError,
    JobState,
    PersistentCompileCache,
    ServiceOverloadedError,
    UnknownJobError,
)
from repro.vqe import ExcitationTerm

FAST = CompilerConfig(gamma_steps=5, seed=0)


def make_request(index=0):
    return CompileRequest(
        terms=(
            ExcitationTerm(creation=(4, 5), annihilation=(0, 1)),
            ExcitationTerm(creation=(2 + index,), annihilation=(0,)),
        ),
        n_qubits=16,
        config=FAST,
    )


class RecordingBackend:
    """Instant fake backend that records every compile it actually runs."""

    name = "svc-recording"

    def __init__(self):
        self.compiled = []
        self.delay = 0.0
        self.error = None

    def compile(self, request):
        if self.error is not None:
            raise self.error
        if self.delay:
            time.sleep(self.delay)
        self.compiled.append(request.fingerprint)
        return CompileResult(
            backend=self.name,
            cnot_count=10 + len(request.terms),
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": 10 + len(request.terms)},
        )


@pytest.fixture
def backend():
    instance = RecordingBackend()
    register_backend(instance)
    yield instance
    unregister_backend(instance.name)


def run(coro):
    return asyncio.run(coro)


class TestJobApi:
    def test_submit_result_roundtrip(self, backend):
        async def scenario():
            async with CompileService() as service:
                job_id = await service.submit(make_request(), backend=backend.name)
                result = await service.result(job_id)
                status = service.status(job_id)
            return result, status

        result, status = run(scenario())
        assert result.cnot_count == 12
        assert status.state is JobState.DONE
        assert status.tier == "compute"
        assert status.backend == backend.name
        assert status.total_s is not None and status.total_s >= 0
        assert not status.deduplicated

    def test_compile_convenience(self, backend):
        async def scenario():
            async with CompileService() as service:
                return await service.compile(make_request(), backend=backend.name)

        assert run(scenario()).cnot_count == 12

    def test_unknown_job_rejected(self, backend):
        async def scenario():
            async with CompileService() as service:
                with pytest.raises(UnknownJobError):
                    service.status("job-999")
                with pytest.raises(UnknownJobError):
                    await service.result("job-999")
                assert (await service.submit(make_request(), backend.name)) == "job-0"

        run(scenario())

    def test_not_started_service_refuses_submits(self, backend):
        service = CompileService()
        with pytest.raises(RuntimeError, match="not started"):
            run(service.submit(make_request(), backend.name))

    def test_double_start_rejected(self, backend):
        async def scenario():
            async with CompileService() as service:
                with pytest.raises(RuntimeError, match="already started"):
                    await service.start()

        run(scenario())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            CompileService(n_workers=0)
        with pytest.raises(ValueError, match="max_queue"):
            CompileService(max_queue=0)

    def test_close_cancels_unfinished_futures(self, backend):
        async def scenario():
            backend.delay = 0.2
            service = await CompileService(n_workers=1).start()
            first = await service.submit(make_request(0), backend.name)
            second = await service.submit(make_request(1), backend.name)
            await asyncio.sleep(0.05)  # let the worker pick up the first job
            await service.close()
            return first, second, service

        first, second, service = run(scenario())
        assert service.status(second).state is JobState.CANCELLED


class TestTieredLookup:
    def test_memory_tier_serves_repeats(self, backend):
        async def scenario():
            async with CompileService() as service:
                await service.compile(make_request(), backend.name)
                await service.compile(make_request(), backend.name)
                return service.metrics.tier_counts

        tiers = run(scenario())
        assert tiers["compute"] == 1 and tiers["memory"] == 1
        assert len(backend.compiled) == 1

    def test_disk_tier_shared_across_service_instances(self, backend, tmp_path):
        async def scenario():
            async with CompileService(
                disk_cache=PersistentCompileCache(tmp_path, version="T")
            ) as first:
                cold = await first.compile(make_request(), backend.name)
            async with CompileService(
                disk_cache=PersistentCompileCache(tmp_path, version="T")
            ) as second:
                warm = await second.compile(make_request(), backend.name)
                tiers = dict(second.metrics.tier_counts)
                # A further repeat is promoted to the memory tier.
                await second.compile(make_request(), backend.name)
                tiers_after = dict(second.metrics.tier_counts)
            return cold, warm, tiers, tiers_after

        cold, warm, tiers, tiers_after = run(scenario())
        assert warm == cold
        assert tiers["disk"] == 1 and tiers["compute"] == 0
        assert tiers_after["memory"] == 1
        assert len(backend.compiled) == 1

    def test_memory_tier_can_be_disabled(self, backend):
        async def scenario():
            async with CompileService(use_memory_cache=False) as service:
                await service.compile(make_request(), backend.name)
                await service.compile(make_request(), backend.name)
                return service.metrics.tier_counts

        tiers = run(scenario())
        assert tiers["compute"] == 2  # no cache tier between repeats
        assert len(backend.compiled) == 2

    def test_snapshot_reports_all_tiers(self, backend, tmp_path):
        async def scenario():
            async with CompileService(
                disk_cache=PersistentCompileCache(tmp_path, version="T")
            ) as service:
                await service.compile(make_request(), backend.name)
                return service.snapshot()

        snapshot = run(scenario())
        assert snapshot["metrics"]["tiers"]["compute"] == 1
        assert snapshot["memory_cache"]["entries"] == 1
        assert snapshot["disk_cache"]["version"] == "T"
        assert snapshot["metrics"]["latency"]["compute"]["count"] == 1


class TestDeduplication:
    def test_identical_inflight_submits_share_one_compile(self, backend):
        async def scenario():
            async with CompileService(n_workers=2) as service:
                job_ids = [
                    await service.submit(make_request(), backend.name)
                    for _ in range(5)
                ]
                results = [await service.result(job_id) for job_id in job_ids]
                statuses = [service.status(job_id) for job_id in job_ids]
                return results, statuses, service.metrics.tier_counts

        results, statuses, tiers = run(scenario())
        assert len(backend.compiled) == 1
        assert tiers["compute"] == 1 and tiers["dedup"] == 4
        assert len({result.cnot_count for result in results}) == 1
        assert [status.deduplicated for status in statuses] == [False] + [True] * 4
        assert {status.tier for status in statuses[1:]} == {"dedup"}

    def test_distinct_requests_do_not_dedup(self, backend):
        async def scenario():
            async with CompileService() as service:
                jobs = [
                    await service.submit(make_request(index), backend.name)
                    for index in range(3)
                ]
                for job_id in jobs:
                    await service.result(job_id)
                return service.metrics.tier_counts

        tiers = run(scenario())
        assert tiers["compute"] == 3 and tiers["dedup"] == 0

    def test_resubmit_after_completion_hits_cache_not_dedup(self, backend):
        async def scenario():
            async with CompileService() as service:
                await service.compile(make_request(), backend.name)
                await service.compile(make_request(), backend.name)
                return service.metrics.tier_counts

        tiers = run(scenario())
        assert tiers["dedup"] == 0 and tiers["memory"] == 1


class TestPriorities:
    def test_lower_priority_value_compiles_first(self, backend):
        async def scenario():
            async with CompileService(n_workers=1) as service:
                # No await-yield between submits: the queue orders all three
                # before the single worker runs.
                low = await service.submit(make_request(0), backend.name, priority=5)
                high = await service.submit(make_request(1), backend.name, priority=0)
                mid = await service.submit(make_request(2), backend.name, priority=2)
                for job_id in (low, high, mid):
                    await service.result(job_id)
            return [fp for fp in backend.compiled]

        order = run(scenario())
        expected = [
            make_request(1).fingerprint,
            make_request(2).fingerprint,
            make_request(0).fingerprint,
        ]
        assert order == expected

    def test_equal_priorities_are_fifo(self, backend):
        async def scenario():
            async with CompileService(n_workers=1) as service:
                jobs = [
                    await service.submit(make_request(index), backend.name)
                    for index in range(3)
                ]
                for job_id in jobs:
                    await service.result(job_id)

        run(scenario())
        assert backend.compiled == [make_request(i).fingerprint for i in range(3)]


class TestBackpressure:
    def test_full_queue_rejects_with_overload_error(self, backend):
        async def scenario():
            async with CompileService(n_workers=1, max_queue=2) as service:
                accepted = []
                rejected = 0
                for index in range(5):
                    try:
                        accepted.append(
                            await service.submit(make_request(index), backend.name)
                        )
                    except ServiceOverloadedError:
                        rejected += 1
                for job_id in accepted:
                    await service.result(job_id)
                return len(accepted), rejected, service.metrics.snapshot()["rejections"]

        accepted, rejected, counted = run(scenario())
        assert accepted == 2 and rejected == 3 and counted == 3

    def test_dedup_joins_do_not_consume_queue_slots(self, backend):
        async def scenario():
            async with CompileService(n_workers=1, max_queue=1) as service:
                first = await service.submit(make_request(), backend.name)
                joined = await service.submit(make_request(), backend.name)
                await service.result(first)
                await service.result(joined)
                return service.metrics.snapshot()["rejections"]

        assert run(scenario()) == 0

    def test_queue_depth_peak_recorded(self, backend):
        async def scenario():
            async with CompileService(n_workers=1, max_queue=8) as service:
                jobs = [
                    await service.submit(make_request(index), backend.name)
                    for index in range(4)
                ]
                for job_id in jobs:
                    await service.result(job_id)
                snapshot = service.metrics.snapshot()
                return snapshot["queue_depth_peak"], snapshot["queue_depth"]

        peak, final = run(scenario())
        assert peak >= 3 and final == 0


class TestCancellation:
    def test_cancel_queued_job(self, backend):
        async def scenario():
            async with CompileService(n_workers=1) as service:
                keep = await service.submit(make_request(0), backend.name)
                drop = await service.submit(make_request(1), backend.name)
                assert service.cancel(drop) is True
                assert service.cancel(drop) is True  # idempotent
                await service.result(keep)
                await service.join()
                with pytest.raises(JobCancelledError):
                    await service.result(drop)
                return service.status(drop), service.metrics.snapshot()["cancellations"]

        status, cancellations = run(scenario())
        assert status.state is JobState.CANCELLED
        assert cancellations == 1
        assert len(backend.compiled) == 1  # the cancelled job never compiled

    def test_cancel_finished_job_returns_false(self, backend):
        async def scenario():
            async with CompileService() as service:
                job_id = await service.submit(make_request(), backend.name)
                await service.result(job_id)
                return service.cancel(job_id)

        assert run(scenario()) is False

    def test_cancelling_one_dedup_submitter_keeps_the_compile(self, backend):
        async def scenario():
            async with CompileService(n_workers=1) as service:
                primary = await service.submit(make_request(), backend.name)
                joiner = await service.submit(make_request(), backend.name)
                assert service.cancel(primary) is True
                result = await service.result(joiner)
                with pytest.raises(JobCancelledError):
                    await service.result(primary)
                return result, service.metrics.tier_counts

        result, tiers = run(scenario())
        assert result.cnot_count == 12
        assert len(backend.compiled) == 1
        assert tiers["dedup"] == 1

    def test_fully_cancelled_job_is_abandoned(self, backend):
        async def scenario():
            async with CompileService(n_workers=1) as service:
                primary = await service.submit(make_request(), backend.name)
                joiner = await service.submit(make_request(), backend.name)
                service.cancel(primary)
                service.cancel(joiner)
                await service.join()
                with pytest.raises(JobCancelledError):
                    await service.result(primary)
                return service.status(primary).state

        assert run(scenario()) is JobState.CANCELLED
        assert backend.compiled == []  # the compile never ran


class TestFailures:
    def test_backend_exception_propagates_and_is_counted(self, backend):
        async def scenario():
            backend.error = ValueError("bad molecule")
            async with CompileService() as service:
                job_id = await service.submit(make_request(), backend.name)
                with pytest.raises(ValueError, match="bad molecule"):
                    await service.result(job_id)
                return service.status(job_id), service.metrics.snapshot()["failures"]

        status, failures = run(scenario())
        assert status.state is JobState.FAILED
        assert failures == 1
        assert "bad molecule" in status.error

    def test_failure_is_not_cached(self, backend):
        async def scenario():
            backend.error = ValueError("flaky")
            async with CompileService() as service:
                job_id = await service.submit(make_request(), backend.name)
                with pytest.raises(ValueError):
                    await service.result(job_id)
                backend.error = None
                result = await service.compile(make_request(), backend.name)
                return result, service.metrics.tier_counts

        result, tiers = run(scenario())
        assert result.cnot_count == 12
        assert tiers["compute"] == 1  # retry recompiled, no poisoned cache


class TestRealBackends:
    def test_default_advanced_backend_through_the_service(self, tmp_path):
        async def scenario():
            disk = PersistentCompileCache(tmp_path, version="T")
            async with CompileService(disk_cache=disk) as service:
                first = await service.compile(make_request(), backend="advanced")
                again = await service.compile(make_request(), backend="adv")
                return first, again, service.metrics.tier_counts

        first, again, tiers = run(scenario())
        assert first == again  # alias shares the memoization key
        assert tiers["compute"] == 1 and tiers["memory"] == 1
