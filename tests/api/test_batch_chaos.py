"""Chaos test: a batch killed mid-run resumes bit-identically from its journal.

A 50-job batch runs on a real process pool under an injected ``pool.worker``
kill schedule (workers die via ``os._exit`` at a deterministic draw), then
resumes over the same checkpoint directory with faults off.  The resumed
batch must serve every journaled job verbatim — zero recompiles — and the
merged outcome must be bit-identical to an uninterrupted run.
"""

import multiprocessing
import zlib
from random import Random

import pytest

from repro.api import CompileRequest, CompilerConfig, compile_batch
from repro.faults import deactivate, inject
from repro.vqe import ExcitationTerm

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool children inherit the active fault plan only under fork",
)

N_JOBS = 50
FAULT_SEED = 2
KILL_PROBABILITY = 0.15
CHAOS_SPEC = f"seed={FAULT_SEED};pool.worker=kill:{KILL_PROBABILITY}"

#: Tiny but real advanced-pipeline compiles; distinct seeds make 50 distinct
#: cache keys while keeping each job a few milliseconds.
TINY = CompilerConfig(gamma_steps=1, coloring_orders=1)


def make_requests():
    terms = (
        ExcitationTerm(creation=(4, 5), annihilation=(0, 1)),
        ExcitationTerm(creation=(6,), annihilation=(2,)),
    )
    return [
        CompileRequest(terms=terms, n_qubits=8, config=TINY.replace(seed=index))
        for index in range(N_JOBS)
    ]


def first_kill_draw():
    """The draw index at which the injected kill schedule first fires.

    Mirrors the per-site stream construction of ``FaultPlan``: every forked
    worker inherits the same fresh stream, so each dies at the start of its
    ``k``-th job.  The test needs ``k >= 2`` (some jobs complete before the
    pool breaks) and ``k`` small enough that not all 50 jobs finish.
    """
    rng = Random(zlib.crc32(f"{FAULT_SEED}:pool.worker".encode("utf-8")))
    return next(i for i in range(1, 1000) if rng.random() < KILL_PROBABILITY)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    deactivate()
    yield
    deactivate()


def test_kill_schedule_precondition():
    assert 2 <= first_kill_draw() <= N_JOBS // 4  # seed choice stays valid


def test_batch_killed_mid_run_resumes_bit_identical(tmp_path):
    requests = make_requests()

    with inject(CHAOS_SPEC):
        killed = compile_batch(
            requests,
            backends="advanced",
            workers=2,
            checkpoint_dir=tmp_path,
            on_error="collect",
        )
    deactivate()

    # The pool broke mid-batch: some jobs finished (and were journaled the
    # moment they did), the rest failed with the broken-pool error.
    assert killed.report.compiled, "no job survived before the kill"
    assert killed.report.failed, "the kill schedule never fired"
    assert len(killed.report.compiled) + len(killed.report.failed) == N_JOBS
    assert not killed.report.skipped

    resumed = compile_batch(
        requests,
        backends="advanced",
        workers=2,
        checkpoint_dir=tmp_path,
        on_error="collect",
    )

    # Zero recompiles of journaled jobs: exactly the survivors are skipped,
    # exactly the broken-pool victims are compiled, nothing fails.
    assert not resumed.report.failed
    assert set(resumed.report.skipped) == set(killed.report.compiled)
    assert set(resumed.report.compiled) == set(killed.report.failed_digests)

    clean = compile_batch(requests, backends="advanced", workers=1)
    assert len(resumed.results) == len(clean.results) == N_JOBS
    for resumed_row, clean_row in zip(resumed.results, clean.results):
        assert resumed_row["advanced"] == clean_row["advanced"]
        assert (
            resumed_row["advanced"].breakdown == clean_row["advanced"].breakdown
        )
        assert (
            resumed_row["advanced"].degraded is clean_row["advanced"].degraded
        )
    assert resumed.cnot_counts("advanced") == clean.cnot_counts("advanced")


def test_resume_of_a_complete_journal_compiles_nothing(tmp_path):
    requests = make_requests()[:8]
    first = compile_batch(
        requests, backends="advanced", workers=2, checkpoint_dir=tmp_path
    )
    assert len(first.report.compiled) == 8

    resumed = compile_batch(
        requests, backends="advanced", workers=2, checkpoint_dir=tmp_path
    )
    assert sorted(resumed.report.skipped) == sorted(first.report.compiled)
    assert not resumed.report.compiled
    assert resumed.cnot_counts("advanced") == first.cnot_counts("advanced")
