"""Tests for the compile service's backend fallback chains."""

import asyncio
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import (
    CompileCache,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    StageFailure,
    compile_batch,
    register_backend,
    unregister_backend,
)
from repro.obs.tracer import tracing
from repro.service import CompileService, RetryPolicy
from repro.vqe import ExcitationTerm

FAST = CompilerConfig(gamma_steps=5, seed=0)

#: One attempt, no backoff: the fallback chain engages immediately, keeping
#: these tests fast and focused on the chain itself.
NO_RETRIES = RetryPolicy(max_attempts=1)


def make_request(index=0):
    return CompileRequest(
        terms=(
            ExcitationTerm(creation=(4, 5), annihilation=(0, 1)),
            ExcitationTerm(creation=(2 + index,), annihilation=(0,)),
        ),
        n_qubits=16,
        config=FAST,
    )


class BreakingBackend:
    """Backend whose compile always fails with the typed stage failure."""

    name = "svc-breaking"

    def __init__(self):
        self.calls = 0
        self.error = StageFailure("sort", RuntimeError("synthetic break"))

    def compile(self, request):
        self.calls += 1
        raise self.error


class RescueBackend:
    """Healthy fallback backend; records what it compiled."""

    name = "svc-rescue"

    def __init__(self, cnot=13, broken=False):
        self.compiled = []
        self.broken = broken

    def compile(self, request):
        if self.broken:
            raise StageFailure("transform", RuntimeError("rescue break"))
        self.compiled.append(request.fingerprint)
        return CompileResult(
            backend=self.name,
            cnot_count=13,
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": 13},
        )


class SecondRescueBackend(RescueBackend):
    name = "svc-rescue-2"

    def compile(self, request):
        self.compiled.append(request.fingerprint)
        return CompileResult(
            backend=self.name,
            cnot_count=17,
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": 17},
        )


@pytest.fixture
def breaking():
    backend = BreakingBackend()
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


@pytest.fixture
def rescue():
    backend = RescueBackend()
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


@pytest.fixture
def rescue2():
    backend = SecondRescueBackend()
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


def run(coro):
    return asyncio.run(coro)


class TestServiceFallback:
    def test_fallback_serves_every_submitter(self, breaking, rescue):
        async def scenario():
            async with CompileService(
                fallback=("svc-rescue",), retry_policy=NO_RETRIES
            ) as service:
                job_id = await service.submit(make_request(), backend="svc-breaking")
                result = await service.result(job_id)
                status = service.status(job_id)
                snapshot = service.metrics.snapshot()
            return result, status, snapshot

        result, status, snapshot = run(scenario())
        assert result.backend == "svc-rescue"
        assert result.cnot_count == 13
        assert status.tier == "compute"
        assert snapshot["resilience"]["fallbacks"] == 1
        assert snapshot["failures"] == 0
        assert breaking.calls == 1

    def test_fallback_result_cached_under_its_own_key(self, breaking, rescue):
        async def scenario():
            async with CompileService(
                fallback=("svc-rescue",), retry_policy=NO_RETRIES
            ) as service:
                await service.compile(make_request(), backend="svc-breaking")
                return service.memory_cache

        memory_cache = run(scenario())
        request = make_request()
        # Cache honesty: nothing under the failed primary backend's key.
        assert CompileCache.key(request, "svc-breaking") not in memory_cache
        assert CompileCache.key(request, "svc-rescue") in memory_cache

    def test_chain_walks_past_a_broken_fallback(self, breaking, rescue, rescue2):
        rescue.broken = True

        async def scenario():
            async with CompileService(
                fallback=("svc-rescue", "svc-rescue-2"), retry_policy=NO_RETRIES
            ) as service:
                result = await service.compile(make_request(), backend="svc-breaking")
                return result, service.metrics.snapshot()["resilience"]["fallbacks"]

        result, fallbacks = run(scenario())
        assert result.backend == "svc-rescue-2"
        assert fallbacks == 1  # one substitution, however long the chain walk

    def test_empty_chain_surfaces_the_primary_failure(self, breaking):
        async def scenario():
            async with CompileService(retry_policy=NO_RETRIES) as service:
                job_id = await service.submit(make_request(), backend="svc-breaking")
                with pytest.raises(StageFailure):
                    await service.result(job_id)
                return service.metrics.snapshot()

        snapshot = run(scenario())
        assert snapshot["failures"] == 1
        assert snapshot["resilience"]["fallbacks"] == 0

    def test_non_retryable_error_skips_the_chain(self, breaking, rescue):
        breaking.error = ValueError("synthetic input rejection")

        async def scenario():
            async with CompileService(
                fallback=("svc-rescue",), retry_policy=NO_RETRIES
            ) as service:
                job_id = await service.submit(make_request(), backend="svc-breaking")
                with pytest.raises(ValueError):
                    await service.result(job_id)

        run(scenario())
        assert rescue.compiled == []  # validation errors never burn the chain

    def test_exhausted_chain_reraises_the_primary_error(self, breaking, rescue):
        rescue.broken = True

        async def scenario():
            async with CompileService(
                fallback=("svc-rescue",), retry_policy=NO_RETRIES
            ) as service:
                job_id = await service.submit(make_request(), backend="svc-breaking")
                with pytest.raises(StageFailure) as info:
                    await service.result(job_id)
                return info.value.stage

        # Submitters see the primary backend's error, not the last fallback's.
        assert run(scenario()) == "sort"

    def test_fallback_emits_a_span(self, breaking, rescue):
        async def scenario():
            async with CompileService(
                fallback=("svc-rescue",), retry_policy=NO_RETRIES
            ) as service:
                await service.compile(make_request(), backend="svc-breaking")

        with tracing() as tracer:
            run(scenario())
            spans = [s for s in tracer.all_spans() if s.name == "job.fallback"]
        assert spans and spans[0].attributes["backend"] == "svc-rescue"


class OSErrorBackend:
    """Backend whose compile fails with a (transient-looking) I/O error."""

    name = "svc-oserror"

    def __init__(self):
        self.calls = 0

    def compile(self, request):
        self.calls += 1
        raise OSError("synthetic disk hiccup")


@pytest.fixture
def oserror():
    backend = OSErrorBackend()
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


class TestOneJobRunner:
    def test_oserror_falls_back_inside_the_worker_round_trip(self, oserror, rescue):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.001)

        async def scenario(fallback):
            async with CompileService(fallback=fallback, retry_policy=policy) as service:
                job_id = await service.submit(make_request(), backend="svc-oserror")
                try:
                    result = await service.result(job_id)
                except OSError:
                    result = None
                return result, service.metrics.snapshot()["resilience"]

        # With a chain, the I/O error falls back at once: no service retry.
        result, resilience = run(scenario(("svc-rescue",)))
        assert result.backend == "svc-rescue"
        assert oserror.calls == 1
        assert resilience["retries"] == 0
        assert resilience["fallbacks"] == 1

        # Without one, the retry policy still retries the backend.
        oserror.calls = 0
        result, resilience = run(scenario(()))
        assert result is None
        assert oserror.calls == 3
        assert resilience["retries"] == 2

    def test_batch_and_service_share_span_and_cache_key(self, breaking, rescue):
        request = make_request()
        batch_cache = CompileCache()
        with tracing() as tracer:
            compile_batch(
                [request], backends="svc-breaking", cache=batch_cache,
                fallback=("svc-rescue",),
            )
            batch_spans = [s for s in tracer.all_spans() if s.name == "job.fallback"]

        async def scenario():
            async with CompileService(
                fallback=("svc-rescue",), retry_policy=NO_RETRIES
            ) as service:
                await service.compile(request, backend="svc-breaking")
                return service.memory_cache

        with tracing() as tracer:
            service_cache = run(scenario())
            service_spans = [s for s in tracer.all_spans() if s.name == "job.fallback"]

        (batch_span,) = batch_spans
        (service_span,) = service_spans
        assert batch_span.attributes == service_span.attributes == {
            "backend": "svc-rescue",
            "replaces": "svc-breaking",
        }
        honest_key = CompileCache.key(request, "svc-rescue")
        for cache in (batch_cache, service_cache):
            assert honest_key in cache
            assert CompileCache.key(request, "svc-breaking") not in cache

    def test_crashed_worker_reruns_the_rest_of_the_chain(self, breaking, rescue):
        class CrashingExecutor(Executor):
            """Kills the worker of every job whose chain starts at the primary."""

            def submit(self, fn, *args):
                future = Future()
                if args[0][0] == "svc-breaking":
                    future.set_exception(BrokenProcessPool("worker died"))
                else:
                    future.set_result(fn(*args))
                return future

        async def scenario():
            async with CompileService(
                executor=CrashingExecutor(),
                fallback=("svc-rescue",),
                retry_policy=NO_RETRIES,
            ) as service:
                result = await service.compile(make_request(), backend="svc-breaking")
                return result, service.metrics.snapshot()["resilience"]

        with tracing() as tracer:
            result, resilience = run(scenario())
            spans = [s for s in tracer.all_spans() if s.name == "job.fallback"]
        assert result.backend == "svc-rescue"
        assert resilience["worker_crashes"] == 1
        assert resilience["fallbacks"] == 1
        assert [s.attributes["replaces"] for s in spans] == ["svc-breaking"]
        assert breaking.calls == 0  # the "worker" died before compiling
