"""Chaos benchmark: the resilience gate for the compile service.

Runs a pinned-seed :mod:`repro.faults` plan — 20 % ``disk.read`` /
``disk.write`` / ``compute`` error injection plus byte corruption and small
delays — against a 50-job mixed-priority workload on a 1-worker
:class:`~repro.service.CompileService` and enforces the resilience
contract.  Each site's fault *draw sequence* is an exact function of the
pinned seed; the op-level interleaving still shifts a little run to run
because the breaker's reset timeout is wall-clock (a lookup landing just
inside vs. outside the window is skipped vs. probed), so every gate below
is a threshold, not an exact count:

* **completion** — every job finishes successfully despite the injection
  (retries absorb compute faults; the breaker degrades disk faults): the
  completion rate must be exactly 100 %;
* **correctness** — every chaos-run result is bit-identical (pickle bytes)
  to the fault-free run of the same workload: faults may slow a job, never
  corrupt an answer;
* **breaker cycle** — the disk-tier circuit breaker must both *open* under
  the fault burst and *recover* (close) afterwards, proving degradation and
  re-admission both happen;
* **deadline liveness** — jobs submitted with a deadline resolve within
  deadline + slack; nothing hangs;
* **bounded retry cost** — the p99 total latency added by the chaos run over
  the clean run stays under ``P99_ADDED_CEILING_MS``;
* **zero disabled overhead** — with no plan active, a ``faults.fire()`` call
  must cost under ``DISABLED_OVERHEAD_CEILING_NS`` on top of a no-op call,
  preserving the ``repro.obs``-style disabled-path contract.

A second scenario gates the *batch* robustness layer: a 50-job
:func:`~repro.api.compile_batch` run on a 2-worker process pool is killed
mid-run by a pinned ``pool.worker`` kill schedule (workers die via
``os._exit``), then resumed over the same checkpoint directory — a
:class:`~repro.api.PersistentCompileCache` journal — with faults off.
Gates: the resume completes every job (rate exactly 100 %), recompiles
**zero** journaled jobs (ceiling 0) and at most the jobs the kill lost
(ceiling = kill victims), and the merged outcome is bit-identical to an
uninterrupted run.  The scenario needs the ``fork`` start method (pool
children inherit the active plan); elsewhere it is reported as skipped and
its gates don't apply.

The chaos run executes under an enabled tracer; the span forest (including
``service.retry`` and ``service.breaker`` events) is exported as a Chrome
trace to ``TRACE_chaos.json`` and the metric report to ``BENCH_chaos.json``;
the ``chaos-bench`` CI job uploads both and fails on any violated gate.

Usage:
    PYTHONPATH=src python benchmarks/bench_chaos.py [--output BENCH_chaos.json]
                                                    [--trace TRACE_chaos.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import pickle
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import faults  # noqa: E402
from repro.api import (  # noqa: E402
    CompileRequest,
    CompilerConfig,
    PersistentCompileCache,
    compile_batch,
)
from repro.faults import inject  # noqa: E402
from repro.obs import chrome_trace, validate_chrome_trace  # noqa: E402
from repro.obs.tracer import tracing  # noqa: E402
from repro.service import CircuitBreaker, CompileService, RetryPolicy  # noqa: E402
from repro.vqe import ExcitationTerm  # noqa: E402

#: Pinned plan seed: the whole fault schedule (and hence the report) replays.
CHAOS_SEED = 13

#: 20 % error injection on the disk and compute sites, plus corruption/delay.
CHAOS_SPEC = (
    "disk.read=error:0.2;disk.read=corrupt:0.1;"
    "disk.write=error:0.2;disk.write=corrupt:0.1;"
    "compute=error:0.2;compute=delay:0.2:0.002"
)

#: The workload: 50 jobs over 10 distinct requests, priorities 0-2.
N_JOBS = 50
N_DISTINCT = 10
#: Every 7th job carries this deadline; all must finish well inside it.
DEADLINE_S = 30.0
DEADLINE_SLACK_S = 1.0

#: Gate ceilings.
P99_ADDED_CEILING_MS = 500.0
DISABLED_OVERHEAD_CEILING_NS = 1000.0

#: Retry/breaker tuning for the chaos run (also part of the pinned schedule).
RETRY_POLICY = RetryPolicy(max_attempts=6, base_delay_s=0.002, max_delay_s=0.02)
BREAKER = dict(failure_threshold=2, reset_timeout_s=0.01, probe_successes=1)

#: Batch-resume scenario: pinned kill schedule for the 2-worker process pool.
#: With this seed every forked worker dies at the start of its 7th job, so a
#: deterministic slice of the batch survives (and is journaled) before the
#: pool breaks.
BATCH_N_JOBS = 50
BATCH_KILL_SEED = 2
BATCH_KILL_SPEC = f"seed={BATCH_KILL_SEED};pool.worker=kill:0.15"


def workload_requests():
    """10 distinct fast requests (small config sizes keep the gate quick)."""
    config = CompilerConfig(gamma_steps=5, seed=0)
    return [
        CompileRequest(
            terms=(
                ExcitationTerm(creation=(10, 11), annihilation=(0, 1)),
                ExcitationTerm(creation=(6 + index,), annihilation=(index % 6,)),
            ),
            n_qubits=16,
            config=config,
        )
        for index in range(N_DISTINCT)
    ]


def workload_slots():
    """(request index, priority, deadline) per job slot — fixed, mixed.

    Jobs run in waves of ``N_DISTINCT`` (each wave awaited before the next is
    submitted), so repeat waves are served by the *disk* tier rather than
    collapsing into one deduplicated in-flight group — which is exactly the
    traffic the circuit breaker must see to be exercised.
    """
    return [
        (slot % N_DISTINCT, slot % 3, DEADLINE_S if slot % 7 == 0 else None)
        for slot in range(N_JOBS)
    ]


def result_payload(result) -> bytes:
    """The semantically meaningful result bytes, for bit-identity checks.

    ``CompileResult`` carries compare-excluded volatile fields
    (``wall_time_s``, ``stage_timings``, backend-native ``details``) that
    legitimately differ run to run; correctness is identity of everything
    the caller consumes: counts, breakdown and routing metrics.
    """
    return pickle.dumps(
        (
            result.backend,
            result.cnot_count,
            result.n_qubits,
            sorted(result.breakdown.items()),
            result.routing,
        )
    )


async def run_workload(cache_dir: str, plan_spec: str = None) -> dict:
    """Run the 50-job workload; returns outcomes + service metrics."""
    requests = workload_requests()
    service = CompileService(
        disk_cache=PersistentCompileCache(cache_dir),
        use_memory_cache=False,  # every job exercises the disk tier
        n_workers=1,  # single worker: jobs (and their fault draws) run in order
        max_queue=N_JOBS + 1,
        retry_policy=RETRY_POLICY,
        breaker=CircuitBreaker(**BREAKER),
    )
    outcomes, elapsed = [], []
    async with service:
        async def drive():
            slots = workload_slots()
            for wave_start in range(0, N_JOBS, N_DISTINCT):
                wave = slots[wave_start : wave_start + N_DISTINCT]
                job_ids = []
                for index, priority, deadline_s in wave:
                    job_ids.append(
                        await service.submit(
                            requests[index],
                            priority=priority,
                            deadline_s=deadline_s,
                        )
                    )
                for job_id in job_ids:
                    start = time.perf_counter()
                    try:
                        outcomes.append(await service.result(job_id))
                    except Exception as exc:  # typed failure, still a resolution
                        outcomes.append(exc)
                    elapsed.append(time.perf_counter() - start)

        if plan_spec is None:
            await asyncio.wait_for(drive(), timeout=600)
        else:
            with inject(plan_spec, seed=CHAOS_SEED) as plan:
                await asyncio.wait_for(drive(), timeout=600)
        snapshot = service.snapshot()
    report = {
        "outcomes": outcomes,
        "elapsed_s": elapsed,
        "metrics": snapshot["metrics"],
    }
    if plan_spec is not None:
        report["faults_fired"] = {
            f"{site}.{action}": count
            for (site, action), count in sorted(plan.fired.items())
        }
    return report


def batch_requests():
    """50 distinct tiny advanced-pipeline jobs (distinct seeds, shared terms)."""
    config = CompilerConfig(gamma_steps=1, coloring_orders=1)
    terms = (
        ExcitationTerm(creation=(4, 7), annihilation=(0, 3)),
        ExcitationTerm(creation=(6,), annihilation=(2,)),
    )
    return [
        CompileRequest(terms=terms, n_qubits=8, config=config.replace(seed=index))
        for index in range(BATCH_N_JOBS)
    ]


def run_batch_scenario():
    """Kill a checkpointed pool batch mid-run, resume it, gate the outcome.

    Returns the scenario report, or ``None`` when the platform's process
    start method isn't ``fork`` (the kill schedule can't reach pool children
    there, so the scenario — and its gates — don't apply).
    """
    if multiprocessing.get_start_method() != "fork":
        return None
    requests = batch_requests()
    with tempfile.TemporaryDirectory(prefix="bench-chaos-batch-") as checkpoint_dir:
        with inject(BATCH_KILL_SPEC):
            killed = compile_batch(
                requests,
                backends="advanced",
                workers=2,
                checkpoint_dir=checkpoint_dir,
                on_error="collect",
            )
        resumed = compile_batch(
            requests,
            backends="advanced",
            workers=2,
            checkpoint_dir=checkpoint_dir,
            on_error="collect",
        )
    clean = compile_batch(requests, backends="advanced", workers=1)

    rows_complete = sum(1 for row in resumed.results if "advanced" in row)
    bit_identical = rows_complete == BATCH_N_JOBS and all(
        result_payload(resumed_row["advanced"]) == result_payload(clean_row["advanced"])
        for resumed_row, clean_row in zip(resumed.results, clean.results)
    )
    #: Journaled jobs the resume re-executed anyway — must be zero.
    journaled_recompiles = len(
        set(killed.report.compiled) - set(resumed.report.skipped)
    )
    return {
        "n_jobs": BATCH_N_JOBS,
        "survived_kill": len(killed.report.compiled),
        "failed_by_kill": len(killed.report.failed),
        "resume_skipped": len(resumed.report.skipped),
        "resume_recompiled": len(resumed.report.compiled),
        "resume_failed": len(resumed.report.failed),
        "journaled_recompiles": journaled_recompiles,
        "completion_rate": rows_complete / BATCH_N_JOBS,
        "bit_identical_to_clean": bit_identical,
    }


def measure_disabled_overhead(calls: int = 200_000) -> float:
    """Per-call ns cost of faults.fire() with no active plan, minus a no-op."""
    assert faults.active_plan() is None

    def noop(site):
        pass

    def time_loop(fn):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn("compute")
        return (time.perf_counter_ns() - start) / calls

    time_loop(noop)  # warm both paths
    time_loop(faults.fire)
    baseline_ns = min(time_loop(noop) for _ in range(3))
    fire_ns = min(time_loop(faults.fire) for _ in range(3))
    return max(0.0, fire_ns - baseline_ns)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument("--trace", default=None, help="write the Chrome trace here")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench-chaos-clean-") as clean_dir:
        clean = asyncio.run(run_workload(clean_dir))
    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as chaos_dir:
        with tracing() as tracer:
            chaos = asyncio.run(run_workload(chaos_dir, plan_spec=CHAOS_SPEC))
        trace = chrome_trace(tracer, process_name="bench_chaos")
    n_trace_events = validate_chrome_trace(trace)

    successes = [o for o in chaos["outcomes"] if not isinstance(o, Exception)]
    completion_rate = len(successes) / N_JOBS
    bit_identical = all(
        isinstance(chaos_out, Exception)
        or result_payload(chaos_out) == result_payload(clean_out)
        for chaos_out, clean_out in zip(chaos["outcomes"], clean["outcomes"])
    )
    deadline_elapsed = [
        chaos["elapsed_s"][slot]
        for slot, (_, _, deadline_s) in enumerate(workload_slots())
        if deadline_s is not None
    ]
    deadline_ok = max(deadline_elapsed) <= DEADLINE_S + DEADLINE_SLACK_S

    resilience = chaos["metrics"]["resilience"]
    clean_p99 = clean["metrics"]["latency"]["total"]["p99_ms"]
    chaos_p99 = chaos["metrics"]["latency"]["total"]["p99_ms"]
    added_p99_ms = chaos_p99 - clean_p99
    overhead_ns = measure_disabled_overhead()
    batch = run_batch_scenario()

    report = {
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "plan": {"seed": CHAOS_SEED, "spec": CHAOS_SPEC, "breaker": BREAKER,
                 "retry_max_attempts": RETRY_POLICY.max_attempts},
        "workload": {"n_jobs": N_JOBS, "n_distinct": N_DISTINCT,
                     "deadline_s": DEADLINE_S},
        "clean": {"metrics": clean["metrics"]},
        "chaos": {
            "metrics": chaos["metrics"],
            "faults_fired": chaos["faults_fired"],
        },
        "trace_events": n_trace_events,
        "summary": {
            "completion_rate": completion_rate,
            "bit_identical_to_clean": bit_identical,
            "breaker_opens": resilience["breaker_opens"],
            "breaker_closes": resilience["breaker_closes"],
            "retries": resilience["retries"],
            "disk_faults": resilience["disk_faults"],
            "disk_degraded": resilience["disk_degraded"],
            "deadline_jobs_within_slack": deadline_ok,
            "clean_p99_ms": clean_p99,
            "chaos_p99_ms": chaos_p99,
            "added_p99_ms": round(added_p99_ms, 3),
            "disabled_fire_overhead_ns": round(overhead_ns, 1),
        },
        "batch_resume": batch if batch is not None else {
            "skipped": "process start method is not fork"
        },
        "gates": {
            "completion_rate": 1.0,
            "added_p99_ceiling_ms": P99_ADDED_CEILING_MS,
            "disabled_overhead_ceiling_ns": DISABLED_OVERHEAD_CEILING_NS,
            "breaker_opens_min": 1,
            "breaker_closes_min": 1,
            "batch_resume_completion_rate": 1.0,
            "batch_journaled_recompiles_ceiling": 0,
            "batch_survived_kill_min": 1,
            "batch_failed_by_kill_min": 1,
        },
    }

    output = Path(args.output) if args.output else REPO_ROOT / "BENCH_chaos.json"
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    trace_path = Path(args.trace) if args.trace else REPO_ROOT / "TRACE_chaos.json"
    trace_path.write_text(json.dumps(trace) + "\n")

    summary = report["summary"]
    print(f"completion          : {completion_rate:.0%} of {N_JOBS} jobs "
          f"(retries used: {summary['retries']})")
    print(f"correctness         : bit-identical to clean run = {bit_identical}")
    print(f"breaker             : opened {summary['breaker_opens']}x, "
          f"closed {summary['breaker_closes']}x "
          f"({summary['disk_faults']} disk faults, "
          f"{summary['disk_degraded']} degraded lookups)")
    print(f"p99 added latency   : {summary['added_p99_ms']:9.3f} ms "
          f"(ceiling {P99_ADDED_CEILING_MS:.0f} ms)")
    print(f"disabled fire()     : {summary['disabled_fire_overhead_ns']:9.1f} ns/call "
          f"(ceiling {DISABLED_OVERHEAD_CEILING_NS:.0f} ns)")
    if batch is None:
        batch_ok = True
        print("batch resume        : skipped (process start method is not fork)")
    else:
        batch_ok = (
            batch["completion_rate"] == 1.0
            and batch["bit_identical_to_clean"]
            and batch["journaled_recompiles"] == 0
            and batch["resume_failed"] == 0
            and batch["survived_kill"] >= 1
            and batch["failed_by_kill"] >= 1
            and batch["resume_recompiled"] <= batch["failed_by_kill"]
        )
        print(f"batch resume        : {batch['survived_kill']} journaled before kill, "
              f"{batch['failed_by_kill']} lost, "
              f"{batch['resume_recompiled']} recompiled on resume "
              f"({batch['journaled_recompiles']} journaled recompiles, ceiling 0), "
              f"bit-identical = {batch['bit_identical_to_clean']}")
    print(f"wrote {output} and {trace_path} ({n_trace_events} trace events)")

    ok = (
        completion_rate == 1.0
        and bit_identical
        and deadline_ok
        and summary["breaker_opens"] >= 1
        and summary["breaker_closes"] >= 1
        and added_p99_ms <= P99_ADDED_CEILING_MS
        and overhead_ns <= DISABLED_OVERHEAD_CEILING_NS
        and batch_ok
    )
    print(f"chaos gates: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
