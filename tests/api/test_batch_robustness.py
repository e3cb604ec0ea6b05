"""Batch hardening: fallback chains, failure isolation, checkpointed resume."""

import os
import pickle
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.api import (
    CompileCache,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    PersistentCompileCache,
    StageFailure,
    cache_key_digest,
    compile_batch,
    golden_version_stamp,
    register_backend,
    unregister_backend,
)
from repro.api import batch as batch_module
from repro.faults import deactivate, inject
from repro.obs.metrics import get_metrics
from repro.obs.tracer import tracing
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


class ExplodingBackend:
    """Backend whose pipeline always breaks with a typed stage failure."""

    name = "exploder"

    def __init__(self):
        self.calls = 0

    def compile(self, request):
        self.calls += 1
        raise StageFailure("sort", RuntimeError("synthetic stage break"))


class RejectingBackend:
    """Backend that rejects its input — a non-retryable validation error."""

    name = "rejecting"

    def compile(self, request):
        raise ValueError("synthetic input rejection")


class FlakyBackend:
    """Backend that fails while ``broken`` is True, then compiles normally."""

    name = "flaky"

    def __init__(self):
        self.broken = True
        self.calls = 0

    def compile(self, request):
        self.calls += 1
        if self.broken:
            raise StageFailure("gamma_search", RuntimeError("flaky break"))
        return CompileResult(
            backend=self.name,
            cnot_count=11,
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": 11},
        )


class SelectiveBackend:
    """Backend that fails only requests of one size; compiles the rest."""

    name = "selective"

    def __init__(self, broken_n_qubits):
        self.broken_n_qubits = broken_n_qubits
        self.calls = 0

    def compile(self, request):
        self.calls += 1
        if request.resolved_n_qubits == self.broken_n_qubits:
            raise StageFailure("transform", RuntimeError("selective break"))
        return CompileResult(
            backend=self.name,
            cnot_count=5,
            n_qubits=request.resolved_n_qubits,
            breakdown={"total": 5},
        )


@pytest.fixture
def exploder():
    backend = ExplodingBackend()
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


@pytest.fixture
def rejecting():
    backend = RejectingBackend()
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


@pytest.fixture
def flaky():
    backend = FlakyBackend()
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


@pytest.fixture
def selective():
    backend = SelectiveBackend(broken_n_qubits=9)
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


class TestFallbackChain:
    def test_fallback_completes_the_job(self, exploder):
        cache = CompileCache()
        batch = compile_batch(
            [make_request()], backends="exploder", cache=cache, fallback=("advanced",)
        )
        row = batch.results[0]
        assert row["exploder"].backend == "advanced"  # row key stays the request's
        digest = cache_key_digest(CompileCache.key(make_request(), "exploder"))
        (record,) = batch.report.fallbacks
        assert record.digest == digest
        assert record.failed == ("exploder",)
        assert record.succeeded == "advanced"
        assert batch.report.compiled == [digest]
        assert not batch.report.failed

    def test_fallback_result_cached_under_its_own_backend_key(self, exploder):
        cache = CompileCache()
        request = make_request()
        compile_batch(
            [request], backends="exploder", cache=cache, fallback=("advanced",)
        )
        # Cache honesty: the failed primary's key must stay empty, the
        # fallback's result lives under the fallback backend's own key.
        assert CompileCache.key(request, "exploder") not in cache
        assert CompileCache.key(request, "advanced") in cache

    def test_chain_tried_in_order(self, exploder, rejecting, flaky):
        flaky.broken = False
        batch = compile_batch(
            [make_request()],
            backends="exploder",
            fallback=("rejecting", "flaky"),
        )
        (record,) = batch.report.fallbacks
        assert record.failed == ("exploder", "rejecting")
        assert record.succeeded == "flaky"
        assert batch.results[0]["exploder"].cnot_count == 11

    def test_non_retryable_error_skips_the_chain(self, rejecting, flaky):
        flaky.broken = False
        with pytest.raises(ValueError, match="synthetic input rejection"):
            compile_batch(
                [make_request()], backends="rejecting", fallback=("flaky",)
            )
        assert flaky.calls == 0  # validation errors never burn the chain

    def test_primary_backend_not_retried_as_its_own_fallback(self, exploder):
        with pytest.raises(StageFailure):
            compile_batch([make_request()], backends="exploder", fallback=("exploder",))
        assert exploder.calls == 1

    def test_exhausted_chain_collects_every_attempt(self, exploder, flaky):
        batch = compile_batch(
            [make_request()],
            backends="exploder",
            fallback=("flaky",),
            on_error="collect",
        )
        (failure,) = batch.report.failed
        assert failure.backend == "exploder"
        assert [name for name, _ in failure.attempts] == ["exploder", "flaky"]
        assert "StageFailure" in failure.error
        assert not batch.report.fallbacks

    def test_fallbacks_counted_and_traced(self, exploder):
        counter = get_metrics().counter("batch.fallbacks")
        before = counter.value
        with tracing() as tracer:
            compile_batch([make_request()], backends="exploder", fallback=("advanced",))
            spans = [s for s in tracer.all_spans() if s.name == "job.fallback"]
        assert counter.value == before + 1
        assert spans and spans[0].attributes["backend"] == "advanced"


class TestRunJob:
    def test_primary_success_has_no_attempts(self, flaky):
        flaky.broken = False
        outcome = batch_module.run_job(("flaky", "advanced"), make_request())
        assert outcome.backend == "flaky"
        assert outcome.attempts == ()
        assert outcome.spans is None

    def test_fallback_reports_producer_and_attempts(self, exploder):
        outcome = batch_module.run_job(("exploder", "advanced"), make_request())
        assert outcome.backend == outcome.result.backend == "advanced"
        assert [name for name, _ in outcome.attempts] == ["exploder"]
        assert "StageFailure" in outcome.attempts[0][1]

    def test_exhausted_chain_reraises_the_primary_error(self, exploder, rejecting):
        with pytest.raises(StageFailure) as info:
            batch_module.run_job(("exploder", "rejecting"), make_request())
        assert [name for name, _ in info.value.attempts] == ["exploder", "rejecting"]

    def test_attempts_survive_the_process_boundary(self, exploder):
        with pytest.raises(StageFailure) as info:
            batch_module.run_job(("exploder",), make_request())
        shipped = pickle.loads(pickle.dumps(info.value))
        assert shipped.stage == "sort"
        assert shipped.attempts == info.value.attempts

    def test_rerun_after_a_crash_counts_every_backend_as_a_fallback(self, flaky):
        flaky.broken = False
        crash = (("advanced", "BrokenProcessPool()"),)
        with tracing() as tracer:
            outcome = batch_module.run_job(("flaky",), make_request(), crash)
            spans = [s for s in tracer.all_spans() if s.name == "job.fallback"]
        assert outcome.attempts == crash
        assert [s.attributes for s in spans] == [
            {"backend": "flaky", "replaces": "advanced"}
        ]

    def test_chain_puts_the_primary_first_once(self):
        chain = batch_module.backend_chain("advanced", ("baseline", "advanced", "jw"))
        assert chain == ("advanced", "baseline", "jw")


class TestFailureIsolation:
    def test_raise_mode_propagates_the_typed_failure(self, exploder):
        with pytest.raises(StageFailure) as info:
            compile_batch([make_request()], backends="exploder")
        assert info.value.stage == "sort"

    def test_collect_mode_finishes_the_batch(self, selective):
        requests = [make_request(), make_request(shift=1), make_request(shift=2)]
        batch = compile_batch(requests, backends="selective", on_error="collect")
        assert batch.results[0]["selective"].cnot_count == 5
        assert batch.results[2]["selective"].cnot_count == 5
        # The failed job is absent from its row, not silently filled.
        assert "selective" not in batch.results[1]
        assert batch.results[1].get("selective") is None
        (failure,) = batch.report.failed
        assert failure.digest == cache_key_digest(
            CompileCache.key(requests[1], "selective")
        )
        assert batch.report.failed_digests == (failure.digest,)
        assert len(batch.report.compiled) == 2

    def test_collect_mode_counts_failures(self, exploder):
        counter = get_metrics().counter("batch.failures")
        before = counter.value
        compile_batch([make_request()], backends="exploder", on_error="collect")
        assert counter.value == before + 1

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            compile_batch([make_request()], on_error="ignore")

    def test_report_empty_on_a_fully_cached_batch(self):
        cache = CompileCache()
        requests = [make_request()]
        compile_batch(requests, backends="advanced", cache=cache)
        warm = compile_batch(requests, backends="advanced", cache=cache)
        assert warm.cache_hits == 1
        assert not warm.report.compiled
        assert not warm.report.skipped
        assert not warm.report.failed
        assert not warm.report.fallbacks


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records shutdown args."""

    last = None

    def __init__(self, max_workers=None):
        type(self).last = self
        self.shutdown_calls = []

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # delivered via future.result(), as a pool would
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append({"wait": wait, "cancel_futures": cancel_futures})


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(batch_module, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.last = None
    yield RecordingPool


class CrashingPool(RecordingPool):
    """A pool whose worker dies on every job whose chain starts at ``victim``."""

    victim = "advanced"

    def submit(self, fn, *args):
        if args[0][0] != self.victim:
            return super().submit(fn, *args)
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future


class TestWorkerCrash:
    def test_rest_of_the_chain_runs_in_process(self, flaky):
        flaky.broken = False
        batch = compile_batch(
            [make_request(), make_request(shift=1)],
            backends="advanced",
            executor=CrashingPool(),
            fallback=("flaky",),
        )
        assert [row["advanced"].backend for row in batch.results] == ["flaky", "flaky"]
        assert flaky.calls == 2
        for record in batch.report.fallbacks:
            assert record.failed == ("advanced",)
            assert record.succeeded == "flaky"

    def test_crash_without_a_chain_fails_with_the_pool_error(self):
        batch = compile_batch(
            [make_request(), make_request(shift=1)],
            backends="advanced",
            executor=CrashingPool(),
            on_error="collect",
        )
        assert len(batch.report.failed) == 2
        for failure in batch.report.failed:
            assert "BrokenProcessPool" in failure.error
            assert [name for name, _ in failure.attempts] == ["advanced"]


class TestExecutorCleanup:
    def test_pool_shut_down_after_a_clean_batch(self, recording_pool):
        requests = [make_request(), make_request(shift=1)]
        batch = compile_batch(requests, backends="advanced", workers=2)
        assert len(batch.report.compiled) == 2
        assert recording_pool.last.shutdown_calls == [
            {"wait": True, "cancel_futures": True}
        ]

    def test_pool_shut_down_when_a_job_raises(self, recording_pool, exploder):
        requests = [make_request(), make_request(shift=1)]
        with pytest.raises(StageFailure):
            compile_batch(requests, backends="exploder", workers=2)
        # The finally-clause shutdown must cancel pending work and join.
        assert recording_pool.last.shutdown_calls == [
            {"wait": True, "cancel_futures": True}
        ]

    def test_caller_owned_executor_is_not_shut_down(self, recording_pool, exploder):
        executor = RecordingPool()
        with pytest.raises(StageFailure):
            compile_batch(
                [make_request(), make_request(shift=1)],
                backends="exploder",
                executor=executor,
            )
        assert executor.shutdown_calls == []  # the caller owns its lifecycle


class TestCheckpointResume:
    def test_resume_serves_journaled_jobs_without_recompiling(self, flaky, tmp_path):
        flaky.broken = False
        requests = [make_request(), make_request(shift=1), make_request(shift=2)]
        first = compile_batch(requests, backends="flaky", checkpoint_dir=tmp_path)
        assert flaky.calls == 3
        assert len(first.report.compiled) == 3

        resumed = compile_batch(requests, backends="flaky", checkpoint_dir=tmp_path)
        assert flaky.calls == 3  # zero recompiles: the journal served everything
        assert sorted(resumed.report.skipped) == sorted(first.report.compiled)
        assert not resumed.report.compiled
        assert [row["flaky"] for row in resumed.results] == [
            row["flaky"] for row in first.results
        ]

    def test_partial_run_resumes_only_missing_jobs(self, selective, tmp_path):
        requests = [make_request(), make_request(shift=2), make_request(shift=1)]
        # In-process jobs run in request order: two complete and journal,
        # then the third (shift=1 → 9 qubits) raises and aborts the batch.
        with pytest.raises(StageFailure):
            compile_batch(requests, backends="selective", checkpoint_dir=tmp_path)
        assert selective.calls == 3

        selective.broken_n_qubits = None  # "fixed" — resume over the same journal
        resumed = compile_batch(requests, backends="selective", checkpoint_dir=tmp_path)
        assert selective.calls == 4  # exactly the one missing job recompiled
        assert len(resumed.report.skipped) == 2
        assert len(resumed.report.compiled) == 1
        assert all(row["selective"].cnot_count == 5 for row in resumed.results)

    def test_skipped_jobs_count_into_metrics(self, flaky, tmp_path):
        flaky.broken = False
        counter = get_metrics().counter("batch.checkpoint.skipped")
        compile_batch([make_request()], backends="flaky", checkpoint_dir=tmp_path)
        before = counter.value
        compile_batch([make_request()], backends="flaky", checkpoint_dir=tmp_path)
        assert counter.value == before + 1

    def test_fallback_results_resume_under_the_primary_key(
        self, exploder, tmp_path
    ):
        requests = [make_request()]
        first = compile_batch(
            requests,
            backends="exploder",
            fallback=("advanced",),
            checkpoint_dir=tmp_path,
        )
        assert exploder.calls == 1
        resumed = compile_batch(
            requests,
            backends="exploder",
            fallback=("advanced",),
            checkpoint_dir=tmp_path,
        )
        # Resume must serve the journaled fallback result verbatim, not
        # retry the (still broken) primary backend.
        assert exploder.calls == 1
        assert not resumed.report.fallbacks
        assert resumed.report.skipped == first.report.compiled
        assert resumed.results[0]["exploder"] == first.results[0]["exploder"]
        assert resumed.results[0]["exploder"].backend == "advanced"

    def test_checkpoint_write_fault_degrades_instead_of_aborting(
        self, flaky, tmp_path
    ):
        flaky.broken = False
        counter = get_metrics().counter("batch.checkpoint.errors")
        before = counter.value
        try:
            with inject("checkpoint.write=error:1.0") as plan:
                batch = compile_batch(
                    [make_request(), make_request(shift=1)],
                    backends="flaky",
                    checkpoint_dir=tmp_path,
                )
        finally:
            deactivate()
        # Every job still completed; only resumability was lost.
        assert len(batch.report.compiled) == 2
        assert not batch.report.failed
        assert counter.value == before + 2
        # The fault fires before the write: nothing half-journaled.
        assert plan.fired_total("checkpoint.write") == 2
        assert len(PersistentCompileCache(tmp_path)) == 0

        resumed = compile_batch(
            [make_request(), make_request(shift=1)],
            backends="flaky",
            checkpoint_dir=tmp_path,
        )
        assert not resumed.report.skipped  # nothing was journaled
        assert flaky.calls == 4

    def test_fault_free_journal_writes_fire_nothing(self, flaky, tmp_path):
        flaky.broken = False
        try:
            with inject("checkpoint.write=error:0.0") as plan:
                compile_batch([make_request()], backends="flaky", checkpoint_dir=tmp_path)
        finally:
            deactivate()
        assert plan.evaluations["checkpoint.write"] == 1
        assert plan.fired_total() == 0
        assert len(PersistentCompileCache(tmp_path)) == 1

    def test_journal_leaves_no_temp_files(self, flaky, tmp_path):
        flaky.broken = False
        requests = [make_request(shift=shift) for shift in range(5)]
        compile_batch(requests, backends="flaky", checkpoint_dir=tmp_path)
        assert len(PersistentCompileCache(tmp_path)) == 5
        leftovers = [
            path for path in tmp_path.rglob("*") if path.is_file() and "tmp" in path.name
        ]
        assert leftovers == []

    def test_stale_version_records_are_recompiled(self, flaky, tmp_path):
        flaky.broken = False
        request = make_request()
        key = CompileCache.key(request, "flaky")
        stale = CompileResult(
            backend="flaky", cnot_count=999, n_qubits=8, breakdown={"total": 999}
        )
        PersistentCompileCache(tmp_path, version="older-code").put(key, stale)
        batch = compile_batch([request], backends="flaky", checkpoint_dir=tmp_path)
        # A journal written under a different code state never resumes: the
        # stale record is invalidated on read, the job recompiles and the
        # fresh result replaces it.
        assert flaky.calls == 1
        assert not batch.report.skipped
        assert batch.report.compiled == [cache_key_digest(key)]
        assert batch.results[0]["flaky"].cnot_count == 11
        # The fresh record carries the golden-derived stamp.
        journal = PersistentCompileCache(tmp_path, version=golden_version_stamp())
        assert journal.peek(key).cnot_count == 11

    def test_journal_survives_a_new_process(self, tmp_path):
        requests = [make_request(), make_request(shift=1)]
        requests_file = tmp_path / "requests.pkl"
        requests_file.write_bytes(pickle.dumps(requests))
        journal = tmp_path / "journal"
        script = (
            "import pickle, sys\n"
            "from repro.api import compile_batch\n"
            "requests = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "compile_batch(requests, backends='advanced', checkpoint_dir=sys.argv[2])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        subprocess.run(
            [sys.executable, "-c", script, str(requests_file), str(journal)],
            check=True,
            env=env,
            timeout=120,
        )
        resumed = compile_batch(requests, backends="advanced", checkpoint_dir=journal)
        assert not resumed.report.compiled  # every job came from the journal
        assert sorted(resumed.report.skipped) == sorted(
            cache_key_digest(CompileCache.key(request, "advanced"))
            for request in requests
        )
        fresh = compile_batch(requests, backends="advanced")
        assert resumed.cnot_counts("advanced") == fresh.cnot_counts("advanced")
