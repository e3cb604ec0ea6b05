"""Tests for the compile-service resilience layer.

Covers the policy objects (RetryPolicy, CircuitBreaker) in isolation and the
service-level behaviors built on them: per-job deadlines, retries of
transient compute failures, worker-crash recovery with pool replenishment,
disk-tier circuit breaking with graceful degradation, abandonment of
compilations nobody waits for anymore, draining shutdown, and the
``retry_after_s`` backpressure hint.
"""

import asyncio
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.api import (
    CompileRequest,
    CompileResult,
    CompilerConfig,
    register_backend,
    unregister_backend,
)
from repro.faults import InjectedFault, deactivate, inject
from repro.service import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    CompileService,
    JobCancelledError,
    JobState,
    JobTimedOut,
    PersistentCompileCache,
    RetryPolicy,
    ServiceDrainingError,
    ServiceOverloadedError,
    WorkerCrashed,
)
from repro.vqe import ExcitationTerm

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from serve import submit_with_backoff  # noqa: E402

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


class FlakyBackend:
    """Fails the first ``fail_first`` compiles with ``error``, then succeeds."""

    name = "res-flaky"

    def __init__(self, fail_first=0, error=None, delay=0.0):
        self.fail_first = fail_first
        self.error = error if error is not None else OSError("transient")
        self.delay = delay
        self.calls = 0

    def compile(self, request):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        if self.calls <= self.fail_first:
            raise self.error
        return CompileResult(
            backend=self.name,
            cnot_count=10 + len(request.terms),
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": 10 + len(request.terms)},
        )


@pytest.fixture
def flaky():
    instance = FlakyBackend()
    register_backend(instance)
    yield instance
    unregister_backend(instance.name)


@pytest.fixture(autouse=True)
def no_leaked_faults():
    deactivate()
    yield
    deactivate()


def run(coro):
    return asyncio.run(coro)


async def wait_until(predicate, timeout_s=5.0):
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        if time.perf_counter() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError, match="budget"):
            RetryPolicy(budget=-1)

    def test_default_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(WorkerCrashed("died"))
        assert policy.is_retryable(OSError("disk"))
        assert policy.is_retryable(InjectedFault("compute"))
        assert policy.is_retryable(ConnectionError("reset"))
        assert not policy.is_retryable(ValueError("deterministic"))

    def test_job_timed_out_never_retryable(self):
        # Even a policy that opts into TimeoutError must not retry an
        # already-expired deadline.
        policy = RetryPolicy(retryable=(TimeoutError,))
        assert policy.is_retryable(TimeoutError("generic"))
        assert not policy.is_retryable(JobTimedOut("job-1", 0.5))

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5, multiplier=2.0, jitter=0.0)
        delays = [policy.delay_s(n) for n in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_deterministic_per_token(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.delay_s(1, "token-a") == policy.delay_s(1, "token-a")
        assert policy.delay_s(1, "token-a") != policy.delay_s(1, "token-b")
        base = RetryPolicy(jitter=0.0).delay_s(1)
        assert base <= policy.delay_s(1, "token-a") <= base * 1.5

    def test_negative_retry_index_rejected(self):
        with pytest.raises(ValueError, match="retry_index"):
            RetryPolicy().delay_s(-1)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout_s"):
            CircuitBreaker(reset_timeout_s=-1)
        with pytest.raises(ValueError, match="probe_successes"):
            CircuitBreaker(probe_successes=0)

    def test_opens_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        breaker.record_success()  # resets the streak
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_half_open_after_reset_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 9.9
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()
        assert breaker.state == BREAKER_HALF_OPEN

    def test_probe_successes_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, probe_successes=2, clock=clock
        )
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_HALF_OPEN  # one probe is not enough
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()  # the reset clock restarted at reopen

    def test_transition_callback_sequence(self):
        clock = FakeClock()
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout_s=1.0,
            probe_successes=1,
            clock=clock,
            on_transition=lambda old, new: seen.append((old, new)),
        )
        breaker.record_failure()
        clock.now = 2.0
        breaker.allow()
        breaker.record_success()
        assert seen == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_state_codes_and_repr(self):
        breaker = CircuitBreaker(failure_threshold=1)
        assert breaker.state_code == 0
        breaker.record_failure()
        assert breaker.state_code == 2
        assert "open" in repr(breaker)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_queued_job_times_out(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.3)
            slow.name = "res-slow-q"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1) as service:
                    blocker = await service.submit(make_request(0), backend=slow.name)
                    queued = await service.submit(
                        make_request(1), backend=slow.name, deadline_s=0.05
                    )
                    with pytest.raises(JobTimedOut) as info:
                        await service.result(queued)
                    assert info.value.job_id == queued
                    status = service.status(queued)
                    await service.result(blocker)  # the blocker is unaffected
                    return status, service.metrics.snapshot()["resilience"]["timeouts"]
            finally:
                unregister_backend(slow.name)

        status, timeouts = run(scenario())
        assert status.state is JobState.TIMED_OUT
        assert "deadline" in status.error
        assert timeouts == 1

    def test_in_flight_job_times_out(self):
        async def scenario():
            slow = FlakyBackend(delay=0.3)
            slow.name = "res-slow-f"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1) as service:
                    job = await service.submit(
                        make_request(), backend=slow.name, deadline_s=0.05
                    )
                    await wait_until(lambda: slow.calls == 1)
                    with pytest.raises(JobTimedOut):
                        await service.result(job)
                    assert service.status(job).state is JobState.TIMED_OUT
                    # The abandoned compute was disconnected from the worker:
                    # the next job must not wait the full 0.3 s blocker out.
                    assert service.metrics.snapshot()["resilience"]["abandonments"] == 1
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_dedup_joiner_deadline_is_independent(self):
        async def scenario():
            slow = FlakyBackend(delay=0.2)
            slow.name = "res-slow-d"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1) as service:
                    patient = await service.submit(make_request(), backend=slow.name)
                    hurried = await service.submit(
                        make_request(), backend=slow.name, deadline_s=0.05
                    )
                    assert service.status(hurried).deduplicated
                    with pytest.raises(JobTimedOut):
                        await service.result(hurried)
                    result = await service.result(patient)
                    assert result.cnot_count == 12
                    assert slow.calls == 1  # still one shared compile
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_default_deadline_applies(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.3)
            slow.name = "res-slow-def"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1, default_deadline_s=0.05) as service:
                    job = await service.submit(make_request(), backend=slow.name)
                    with pytest.raises(JobTimedOut):
                        await service.result(job)
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_deadline_validation(self, flaky):
        async def scenario():
            async with CompileService() as service:
                with pytest.raises(ValueError, match="deadline_s"):
                    await service.submit(make_request(), flaky.name, deadline_s=0.0)

        run(scenario())
        with pytest.raises(ValueError, match="default_deadline_s"):
            CompileService(default_deadline_s=-1.0)

    def test_finished_job_is_not_expired(self, flaky):
        async def scenario():
            async with CompileService(n_workers=1) as service:
                job = await service.submit(make_request(), flaky.name, deadline_s=5.0)
                result = await service.result(job)
                return result, service.metrics.snapshot()["resilience"]["timeouts"]

        result, timeouts = run(scenario())
        assert result.cnot_count == 12
        assert timeouts == 0


# ----------------------------------------------------------------------
# Retries
# ----------------------------------------------------------------------
class TestRetries:
    def test_transient_failures_retried_to_success(self):
        async def scenario():
            backend = FlakyBackend(fail_first=2)
            backend.name = "res-flaky-2"
            register_backend(backend)
            try:
                policy = RetryPolicy(max_attempts=3, base_delay_s=0.001)
                async with CompileService(n_workers=1, retry_policy=policy) as service:
                    result = await service.compile(make_request(), backend=backend.name)
                    retries = service.metrics.snapshot()["resilience"]["retries"]
                    return result, backend.calls, retries
            finally:
                unregister_backend(backend.name)

        result, calls, retries = run(scenario())
        assert result.cnot_count == 12
        assert calls == 3
        assert retries == 2

    def test_exhausted_attempts_fail_with_last_error(self):
        async def scenario():
            backend = FlakyBackend(fail_first=99)
            backend.name = "res-flaky-x"
            register_backend(backend)
            try:
                policy = RetryPolicy(max_attempts=2, base_delay_s=0.001)
                async with CompileService(n_workers=1, retry_policy=policy) as service:
                    job = await service.submit(make_request(), backend=backend.name)
                    with pytest.raises(OSError, match="transient"):
                        await service.result(job)
                    snapshot = service.metrics.snapshot()
                    return (
                        backend.calls,
                        snapshot["resilience"]["retries"],
                        snapshot["failures"],
                    )
            finally:
                unregister_backend(backend.name)

        calls, retries, failures = run(scenario())
        assert calls == 2
        assert retries == 1
        assert failures == 1

    def test_deterministic_errors_not_retried(self):
        async def scenario():
            backend = FlakyBackend(fail_first=99, error=ValueError("bad molecule"))
            backend.name = "res-flaky-v"
            register_backend(backend)
            try:
                async with CompileService(n_workers=1) as service:
                    job = await service.submit(make_request(), backend=backend.name)
                    with pytest.raises(ValueError, match="bad molecule"):
                        await service.result(job)
                    return backend.calls, service.metrics.snapshot()["resilience"]["retries"]
            finally:
                unregister_backend(backend.name)

        calls, retries = run(scenario())
        assert calls == 1
        assert retries == 0

    def test_retry_budget_limits_service_wide_retries(self):
        async def scenario():
            backend = FlakyBackend(fail_first=99)
            backend.name = "res-flaky-b"
            register_backend(backend)
            try:
                policy = RetryPolicy(max_attempts=5, base_delay_s=0.001, budget=1)
                async with CompileService(n_workers=1, retry_policy=policy) as service:
                    for index in range(2):
                        job = await service.submit(make_request(index), backend=backend.name)
                        with pytest.raises(OSError):
                            await service.result(job)
                    snap = service.snapshot()
                    return backend.calls, snap["metrics"]["resilience"]["retries"], snap
            finally:
                unregister_backend(backend.name)

        calls, retries, snap = run(scenario())
        assert retries == 1  # the budget, not 2 * (max_attempts - 1)
        assert calls == 3  # job 1: try + 1 retry; job 2: single try
        assert snap["retry_policy"]["budget_remaining"] == 0

    def test_dedup_joiners_get_retried_result(self):
        async def scenario():
            backend = FlakyBackend(fail_first=1, delay=0.05)
            backend.name = "res-flaky-j"
            register_backend(backend)
            try:
                policy = RetryPolicy(max_attempts=3, base_delay_s=0.001)
                async with CompileService(n_workers=1, retry_policy=policy) as service:
                    first = await service.submit(make_request(), backend=backend.name)
                    second = await service.submit(make_request(), backend=backend.name)
                    results = await asyncio.gather(
                        service.result(first), service.result(second)
                    )
                    assert results[0] == results[1]
                    assert backend.calls == 2  # one failure + one shared success
                    assert service.metrics.tier_counts["dedup"] == 1
            finally:
                unregister_backend(backend.name)

        run(scenario())


# ----------------------------------------------------------------------
# Worker-crash recovery
# ----------------------------------------------------------------------
class CrashOnceBackend:
    """Kills its hosting process unless the sentinel file already exists.

    Registered in the parent and inherited by fork-started pool workers; the
    sentinel lives on disk so the *retried* compile (in a fresh worker of the
    replenished pool) sees that the crash already happened and succeeds.
    """

    name = "res-crash-once"

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def compile(self, request):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("crashed")
            os._exit(87)
        return CompileResult(
            backend=self.name,
            cnot_count=10 + len(request.terms),
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": 10 + len(request.terms)},
        )


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="custom backends reach pool workers only under fork",
)
class TestWorkerCrashRecovery:
    def test_crash_is_scoped_retried_and_pool_replenished(self, tmp_path):
        async def scenario():
            backend = CrashOnceBackend(tmp_path / "crashed.sentinel")
            register_backend(backend)
            try:
                policy = RetryPolicy(max_attempts=3, base_delay_s=0.001)
                async with CompileService(
                    n_workers=1,
                    retry_policy=policy,
                    executor_factory=lambda: ProcessPoolExecutor(max_workers=1),
                ) as service:
                    result = await service.compile(make_request(), backend=backend.name)
                    assert result.cnot_count == 12
                    assert service.metrics.snapshot()["resilience"]["worker_crashes"] == 1
                    assert service.metrics.snapshot()["resilience"]["retries"] == 1
                    # The replenished pool keeps serving.
                    result2 = await service.compile(make_request(1), backend=backend.name)
                    assert result2.cnot_count == 12
            finally:
                unregister_backend(backend.name)

        run(scenario())

    def test_crash_without_retries_surfaces_worker_crashed(self, tmp_path):
        async def scenario():
            backend = CrashOnceBackend(tmp_path / "crash2.sentinel")
            backend.name = "res-crash-once-2"
            register_backend(backend)
            try:
                async with CompileService(
                    n_workers=1,
                    retry_policy=RetryPolicy(max_attempts=1),
                    executor_factory=lambda: ProcessPoolExecutor(max_workers=1),
                ) as service:
                    job = await service.submit(make_request(), backend=backend.name)
                    with pytest.raises(WorkerCrashed):
                        await service.result(job)
                    assert service.status(job).state is JobState.FAILED
                    # The crash poisoned neither the service nor later jobs.
                    result = await service.compile(make_request(1), backend=backend.name)
                    assert result.cnot_count == 12
            finally:
                unregister_backend(backend.name)

        run(scenario())


class TestExecutorOwnership:
    def test_executor_and_factory_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="executor_factory"):
            CompileService(
                executor=ProcessPoolExecutor(max_workers=1),
                executor_factory=lambda: ProcessPoolExecutor(max_workers=1),
            )


# ----------------------------------------------------------------------
# Disk circuit breaker
# ----------------------------------------------------------------------
class TestDiskBreaker:
    def test_breaker_opens_degrades_and_recovers(self, flaky, tmp_path):
        async def scenario():
            disk = PersistentCompileCache(tmp_path)
            breaker = CircuitBreaker(
                failure_threshold=2, reset_timeout_s=0.05, probe_successes=1
            )
            async with CompileService(
                disk_cache=disk,
                use_memory_cache=False,
                n_workers=1,
                breaker=breaker,
                retry_policy=RetryPolicy(max_attempts=1),
            ) as service:
                with inject("disk.read=error:1.0;disk.write=error:1.0", seed=3):
                    for index in range(3):
                        result = await service.compile(make_request(index), flaky.name)
                        assert result is not None  # degraded, never failed
                resilience = service.metrics.snapshot()["resilience"]
                assert resilience["breaker_opens"] >= 1
                assert resilience["disk_faults"] >= 2
                assert resilience["disk_degraded"] >= 1
                assert resilience["breaker_state"] == 2
                assert service.snapshot()["breaker"]["state"] == BREAKER_OPEN

                await asyncio.sleep(0.06)  # let the breaker half-open
                await service.compile(make_request(9), flaky.name)
                resilience = service.metrics.snapshot()["resilience"]
                assert resilience["breaker_closes"] >= 1
                assert resilience["breaker_state"] == 0

                # Healed: the disk tier serves again.
                await service.compile(make_request(9), flaky.name)
                assert service.metrics.tier_counts["disk"] == 1

        run(scenario())

    def test_corrupt_entries_count_as_disk_faults(self, flaky, tmp_path):
        async def scenario():
            disk = PersistentCompileCache(tmp_path)
            async with CompileService(
                disk_cache=disk, use_memory_cache=False, n_workers=1
            ) as service:
                await service.compile(make_request(), flaky.name)
                with inject("disk.read=corrupt:1.0", seed=5):
                    result = await service.compile(make_request(), flaky.name)
                assert result is not None
                assert service.metrics.snapshot()["resilience"]["disk_faults"] == 1
                assert disk.corrupt_invalidations == 1

        run(scenario())

    def test_failed_disk_write_does_not_fail_the_job(self, flaky, tmp_path):
        async def scenario():
            disk = PersistentCompileCache(tmp_path)
            async with CompileService(
                disk_cache=disk,
                use_memory_cache=False,
                n_workers=1,
                retry_policy=RetryPolicy(max_attempts=1),
            ) as service:
                with inject("disk.write=error:1.0", seed=1):
                    result = await service.compile(make_request(), flaky.name)
                assert result.cnot_count == 12
                assert service.metrics.snapshot()["resilience"]["disk_faults"] == 1
                assert disk.io_errors == 1
                assert len(disk) == 0  # nothing was persisted

        run(scenario())

    def test_no_breaker_without_disk_cache(self):
        assert CompileService().breaker is None

    def test_user_transition_callback_is_chained(self, flaky, tmp_path):
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1, on_transition=lambda old, new: seen.append(new)
        )
        service = CompileService(
            disk_cache=PersistentCompileCache(tmp_path), breaker=breaker
        )
        breaker.record_failure()
        assert seen == [BREAKER_OPEN]
        assert service.metrics.snapshot()["resilience"]["breaker_opens"] == 1


# ----------------------------------------------------------------------
# Cancellation, abandonment, overload and shutdown
# ----------------------------------------------------------------------
class TestAbandonment:
    def test_cancel_in_flight_submitter_detaches_it(self):
        async def scenario():
            slow = FlakyBackend(delay=0.2)
            slow.name = "res-ab-1"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1) as service:
                    keeper = await service.submit(make_request(), backend=slow.name)
                    leaver = await service.submit(make_request(), backend=slow.name)
                    await wait_until(lambda: slow.calls == 1)
                    assert service.cancel(leaver) is True  # even though in flight
                    with pytest.raises(JobCancelledError):
                        await service.result(leaver)
                    result = await service.result(keeper)
                    assert result.cnot_count == 12
                    # The keeper still waited, so nothing was abandoned.
                    assert service.metrics.snapshot()["resilience"]["abandonments"] == 0
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_cancelling_every_submitter_abandons_the_compute(self):
        async def scenario():
            slow = FlakyBackend(delay=0.3)
            slow.name = "res-ab-2"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1) as service:
                    first = await service.submit(make_request(), backend=slow.name)
                    second = await service.submit(make_request(), backend=slow.name)
                    await wait_until(lambda: slow.calls == 1)
                    assert service.cancel(first) and service.cancel(second)
                    assert service.metrics.snapshot()["resilience"]["abandonments"] == 1
                    assert service.metrics.snapshot()["cancellations"] == 2
                    # The worker must be free well before the 0.3 s compute
                    # would have finished: a follow-up job completes promptly.
                    start = time.perf_counter()
                    await service.compile(make_request(1), backend=slow.name)
                    assert time.perf_counter() - start < 2.0
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_queued_group_fully_cancelled_is_skipped(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.2)
            slow.name = "res-ab-3"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1) as service:
                    blocker = await service.submit(make_request(0), backend=slow.name)
                    queued = await service.submit(make_request(1), backend=slow.name)
                    assert service.cancel(queued)
                    await service.result(blocker)
                    await service.join()
                    assert slow.calls == 1  # the cancelled job never compiled
                    assert service.metrics.snapshot()["resilience"]["abandonments"] == 1
            finally:
                unregister_backend(slow.name)

        run(scenario())


class TestOverloadHint:
    def test_retry_after_reflects_queue_depth_and_compute_history(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.05)
            slow.name = "res-ov-1"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1, max_queue=1) as service:
                    await service.compile(make_request(0), backend=slow.name)
                    blocker = await service.submit(make_request(1), backend=slow.name)
                    await wait_until(lambda: slow.calls == 2)
                    queued = await service.submit(make_request(2), backend=slow.name)
                    with pytest.raises(ServiceOverloadedError) as info:
                        await service.submit(make_request(3), backend=slow.name)
                    assert info.value.retry_after_s is not None
                    # depth 1 × p50 ≈ 0.05 s / 1 worker, floored at 0.05.
                    assert 0.05 <= info.value.retry_after_s < 5.0
                    await asyncio.gather(service.result(blocker), service.result(queued))
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_retry_after_defaults_without_compute_history(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.1)
            slow.name = "res-ov-2"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1, max_queue=1) as service:
                    blocker = await service.submit(make_request(0), backend=slow.name)
                    await wait_until(lambda: slow.calls == 1)
                    queued = await service.submit(make_request(1), backend=slow.name)
                    with pytest.raises(ServiceOverloadedError) as info:
                        await service.submit(make_request(2), backend=slow.name)
                    assert info.value.retry_after_s == pytest.approx(0.2)
                    await asyncio.gather(service.result(blocker), service.result(queued))
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_serve_client_backs_off_and_succeeds(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.02)
            slow.name = "res-ov-3"
            register_backend(slow)
            try:
                async with CompileService(n_workers=1, max_queue=1) as service:
                    job_ids = [
                        await submit_with_backoff(service, make_request(i), slow.name)
                        for i in range(5)
                    ]
                    results = [await service.result(job_id) for job_id in job_ids]
                    assert len(results) == 5
                    # The backoff actually engaged.
                    assert service.metrics.snapshot()["rejections"] > 0
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_serve_client_gives_up_eventually(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=1.5)  # long enough to stay full through backoff
            slow.name = "res-ov-4"
            register_backend(slow)
            try:
                service = await CompileService(n_workers=1, max_queue=1).start()
                try:
                    await service.submit(make_request(0), backend=slow.name)
                    await wait_until(lambda: slow.calls == 1)  # worker picked it up
                    await service.submit(make_request(1), backend=slow.name)
                    with pytest.raises(ServiceOverloadedError, match="backoff retries"):
                        await submit_with_backoff(
                            service, make_request(2), slow.name, max_retries=2
                        )
                finally:
                    await service.close()
            finally:
                unregister_backend(slow.name)

        run(scenario())


class TestShutdown:
    def test_drain_finishes_in_flight_and_queued_work(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.05)
            slow.name = "res-sh-1"
            register_backend(slow)
            try:
                service = await CompileService(n_workers=1).start()
                running = await service.submit(make_request(0), backend=slow.name)
                queued = await service.submit(make_request(1), backend=slow.name)
                await service.shutdown(drain=True)
                for job_id in (running, queued):
                    status = service.status(job_id)
                    assert status.state is JobState.DONE, status
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_draining_service_refuses_submits(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.2)
            slow.name = "res-sh-2"
            register_backend(slow)
            try:
                service = await CompileService(n_workers=1).start()
                job = await service.submit(make_request(), backend=slow.name)
                result_task = asyncio.create_task(service.result(job))
                await wait_until(lambda: slow.calls == 1)
                drain_task = asyncio.create_task(service.shutdown(drain=True))
                await asyncio.sleep(0.01)
                with pytest.raises(ServiceDrainingError):
                    await service.submit(make_request(1), backend=slow.name)
                assert (await result_task).cnot_count == 12
                await drain_task
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_drain_timeout_cancels_stragglers(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.5)
            slow.name = "res-sh-3"
            register_backend(slow)
            try:
                service = await CompileService(n_workers=1).start()
                job = await service.submit(make_request(), backend=slow.name)
                await wait_until(lambda: slow.calls == 1)
                start = time.perf_counter()
                await service.shutdown(drain=True, timeout_s=0.05)
                assert time.perf_counter() - start < 0.4  # did not wait out 0.5 s
                assert service.status(job).state is JobState.CANCELLED
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_shutdown_without_drain_cancels_immediately(self, flaky):
        async def scenario():
            slow = FlakyBackend(delay=0.3)
            slow.name = "res-sh-4"
            register_backend(slow)
            try:
                service = await CompileService(n_workers=1).start()
                job = await service.submit(make_request(), backend=slow.name)
                await wait_until(lambda: slow.calls == 1)
                await service.shutdown(drain=False)
                assert service.status(job).state is JobState.CANCELLED
            finally:
                unregister_backend(slow.name)

        run(scenario())

    def test_queue_fault_site_fires_in_submit(self, flaky):
        async def scenario():
            async with CompileService() as service:
                with inject("queue=error:1.0", seed=1):
                    with pytest.raises(InjectedFault):
                        await service.submit(make_request(), flaky.name)
                result = await service.compile(make_request(), flaky.name)
                assert result is not None

        run(scenario())
