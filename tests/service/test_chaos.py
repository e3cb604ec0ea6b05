"""Chaos property suite: seeded fault plans over a mixed-priority workload.

Hypothesis draws a fault-plan seed; for each seed a 50-job workload of mixed
priorities, deduplicated repeats and per-job deadlines runs through a
:class:`CompileService` while ``disk.read`` / ``disk.write`` / ``compute``
faults fire at the injected probabilities.  The liveness and correctness
properties the resilience layer must uphold:

* **every future resolves** — a result, a :class:`JobTimedOut`, or a typed
  error; never a hang (the whole workload is hard-capped by ``wait_for``);
* **successful results are bit-identical** to a fault-free run of the same
  workload — faults may slow or fail a job but can never corrupt an answer;
* the service survives to serve a clean job afterwards.
"""

import asyncio
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CompileRequest,
    CompileResult,
    CompilerConfig,
    register_backend,
    unregister_backend,
)
from repro.faults import deactivate, inject
from repro.service import (
    CircuitBreaker,
    CompileService,
    JobTimedOut,
    PersistentCompileCache,
    RetryPolicy,
)
from repro.vqe import ExcitationTerm

FAST = CompilerConfig(gamma_steps=5, seed=0)

#: 50 jobs over 10 distinct requests: repeats exercise dedup/memory/disk.
N_JOBS = 50
N_DISTINCT = 10

CHAOS_SPEC = (
    "disk.read=error:0.2;disk.read=corrupt:0.1;"
    "disk.write=error:0.2;disk.write=corrupt:0.1;"
    "compute=error:0.2;compute=delay:0.2:0.002"
)


def make_request(index):
    return CompileRequest(
        terms=(
            ExcitationTerm(creation=(4, 5), annihilation=(0, 1)),
            ExcitationTerm(creation=(2 + index,), annihilation=(0,)),
        ),
        n_qubits=16,
        config=FAST,
    )


class DeterministicBackend:
    """Instant fake backend whose result is a pure function of the request."""

    name = "chaos-backend"

    def compile(self, request):
        cnot = 10 + sum(term.creation[0] for term in request.terms)
        return CompileResult(
            backend=self.name,
            cnot_count=cnot,
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": cnot},
        )


@pytest.fixture(scope="module")
def backend():
    instance = DeterministicBackend()
    register_backend(instance)
    yield instance
    unregister_backend(instance.name)


@pytest.fixture(autouse=True)
def no_leaked_faults():
    deactivate()
    yield
    deactivate()


def workload():
    """The fixed 50-job mixed-priority workload (index, priority, deadline)."""
    jobs = []
    for slot in range(N_JOBS):
        index = slot % N_DISTINCT
        priority = slot % 3
        deadline_s = 5.0 if slot % 7 == 0 else None  # generous: tests liveness
        jobs.append((index, priority, deadline_s))
    return jobs


async def run_workload(backend, tmp_path, plan_spec=None, plan_seed=0):
    """Submit the workload; returns {slot: result-or-exception}."""
    disk = PersistentCompileCache(tmp_path)
    service = CompileService(
        disk_cache=disk,
        n_workers=2,
        max_queue=N_JOBS + 1,
        retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.001, max_delay_s=0.01),
        breaker=CircuitBreaker(failure_threshold=3, reset_timeout_s=0.02),
    )
    async with service:
        async def drive():
            job_ids = []
            for index, priority, deadline_s in workload():
                job_ids.append(
                    await service.submit(
                        make_request(index),
                        backend=backend.name,
                        priority=priority,
                        deadline_s=deadline_s,
                    )
                )
            return await asyncio.gather(
                *(service.result(job_id) for job_id in job_ids),
                return_exceptions=True,
            )

        if plan_spec is None:
            outcomes = await asyncio.wait_for(drive(), timeout=60)
        else:
            with inject(plan_spec, seed=plan_seed):
                outcomes = await asyncio.wait_for(drive(), timeout=60)
        # Liveness of the service itself: a clean job still completes.
        clean = await asyncio.wait_for(
            service.compile(make_request(99), backend=backend.name), timeout=60
        )
        assert clean is not None
    return dict(enumerate(outcomes))


class TestChaos:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_every_future_resolves_and_survivors_are_bit_identical(
        self, seed, backend, tmp_path_factory
    ):
        tmp_path = tmp_path_factory.mktemp(f"chaos-{seed}")
        baseline = asyncio.run(
            run_workload(backend, tmp_path_factory.mktemp(f"clean-{seed}"))
        )
        assert all(isinstance(r, CompileResult) for r in baseline.values())

        outcomes = asyncio.run(
            run_workload(backend, tmp_path, plan_spec=CHAOS_SPEC, plan_seed=seed)
        )
        assert len(outcomes) == N_JOBS  # zero hangs: gather returned everything
        for slot, outcome in outcomes.items():
            if isinstance(outcome, CompileResult):
                # Bit-identical to the fault-free run of the same slot.
                assert pickle.dumps(outcome) == pickle.dumps(baseline[slot]), slot
            else:
                # Typed, expected failure modes only.
                assert isinstance(outcome, (OSError, JobTimedOut)), (slot, outcome)

    def test_fault_free_run_is_all_success(self, backend, tmp_path):
        outcomes = asyncio.run(run_workload(backend, tmp_path))
        assert all(isinstance(r, CompileResult) for r in outcomes.values())
        results = {}
        for slot, outcome in outcomes.items():
            results.setdefault(slot % N_DISTINCT, set()).add(pickle.dumps(outcome))
        # Dedup/caching never changes an answer: one payload per request.
        assert all(len(payloads) == 1 for payloads in results.values())
