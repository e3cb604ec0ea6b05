"""Compile-service benchmark: tier hit rates, tail latency, dedup, backpressure.

Where ``bench_compile.py`` measures single-call compile latency, this harness
measures the **service** quantities the ``repro.service`` layer exists for —
what repeat traffic costs once results persist across processes:

* ``cold`` — a fresh :class:`~repro.service.CompileService` over an empty
  cache directory compiles a workload of distinct requests (tier =
  ``compute``); the per-job backend compile time is the baseline.
* ``memory_warm`` — the same session resubmits the workload and must serve
  it entirely from the in-memory tier.
* ``disk_warm`` — a **second process** (a subprocess of this script with
  ``--child``) opens the now-populated cache directory with a cold memory
  cache and replays the workload.  Enforced floors: at least
  ``DISK_HIT_RATE_FLOOR`` of its jobs are served from the disk tier, at a
  mean latency at least ``WARM_SPEEDUP_FLOOR`` times faster than the cold
  backend compile.
* ``dedup`` — ``DEDUP_SUBMITTERS`` identical requests submitted
  concurrently against an empty service must trigger **exactly one** backend
  compile; the rest join the in-flight future (tier = ``dedup``).
* ``backpressure`` — a 1-worker service with a tiny queue receives a burst;
  the overflow must be rejected with ``ServiceOverloadedError``, not
  buffered.

Results (latency histograms with p50/p95/p99 per section, queue depth,
cache counters) are written to ``BENCH_service.json`` and uploaded as a CI
artifact by the ``service-bench`` job; the floors above fail the job when
violated.

Usage:
    PYTHONPATH=src python benchmarks/bench_service.py [--output BENCH_service.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import CompileCache, CompileRequest, CompilerConfig  # noqa: E402
from repro.service import (  # noqa: E402
    CompileService,
    PersistentCompileCache,
    ServiceOverloadedError,
)
from repro.vqe import ExcitationTerm  # noqa: E402

#: Warm disk hits must be at least this many times faster than cold compiles.
WARM_SPEEDUP_FLOOR = 10.0
#: Fraction of the second process's repeat workload the disk tier must serve.
DISK_HIT_RATE_FLOOR = 0.9
#: Identical concurrent submits that must collapse into exactly one compile.
DEDUP_SUBMITTERS = 12

#: Requests in the repeat workload (distinct molecules/configs stand-ins).
N_DISTINCT = 5


def workload_requests(n_distinct: int = N_DISTINCT):
    """Distinct, deterministic 12-qubit requests at the default config sizes.

    The double excitations are shared; one single excitation varies per
    request, so every request has a distinct fingerprint but comparable
    compile cost (a few hundred ms cold — the regime the Table-I molecules
    occupy after PR 4/5).
    """
    config = CompilerConfig(seed=0)
    requests = []
    for index in range(n_distinct):
        terms = (
            ExcitationTerm(creation=(6, 7), annihilation=(0, 1)),
            ExcitationTerm(creation=(6, 9), annihilation=(0, 3)),
            ExcitationTerm(creation=(8, 11), annihilation=(2, 5)),
            ExcitationTerm(creation=(6 + index % 6,), annihilation=(index % 6,)),
        )
        requests.append(CompileRequest(terms=terms, n_qubits=12, config=config))
    return requests


async def run_workload(service: CompileService, requests) -> list:
    job_ids = [await service.submit(request) for request in requests]
    return [await service.result(job_id) for job_id in job_ids]


# ----------------------------------------------------------------------
# Child mode: the "second process" of the disk_warm section.
# ----------------------------------------------------------------------
async def child_replay(cache_dir: str, n_distinct: int) -> dict:
    """Replay the workload over a populated cache dir with cold memory."""
    disk = PersistentCompileCache(cache_dir)
    async with CompileService(
        disk_cache=disk, memory_cache=CompileCache()
    ) as service:
        results = await run_workload(service, workload_requests(n_distinct))
        metrics = service.metrics
        served = metrics.served
        return {
            "jobs": served,
            "tiers": dict(metrics.tier_counts),
            "disk_hit_rate": metrics.hit_rate("disk"),
            "latency_total": metrics.total.summary(),
            "cnot_counts": [result.cnot_count for result in results],
        }


# ----------------------------------------------------------------------
# Parent sections
# ----------------------------------------------------------------------
async def bench_cold_and_memory(cache_dir: str) -> tuple:
    requests = workload_requests()
    disk = PersistentCompileCache(cache_dir)
    async with CompileService(disk_cache=disk) as service:
        cold_results = await run_workload(service, requests)
        cold = {
            "jobs": service.metrics.served,
            "tiers": dict(service.metrics.tier_counts),
            "compute_latency": service.metrics.compute.summary(),
            "total_latency": service.metrics.total.summary(),
            "cnot_counts": [result.cnot_count for result in cold_results],
        }
        before = dict(service.metrics.tier_counts)
        warm_results = await run_workload(service, requests)
        warm_tiers = {
            tier: count - before[tier]
            for tier, count in service.metrics.tier_counts.items()
        }
        memory_warm = {
            "jobs": sum(warm_tiers.values()),
            "tiers": warm_tiers,
            "cnot_counts": [result.cnot_count for result in warm_results],
        }
    return cold, memory_warm


def bench_disk_warm(cache_dir: str) -> dict:
    """Spawn the second process and collect its replay report."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = Path(handle.name)
    try:
        subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--child",
                "--cache-dir",
                cache_dir,
                "--n-distinct",
                str(N_DISTINCT),
                "--child-out",
                str(out_path),
            ],
            check=True,
            timeout=600,
        )
        return json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)


async def bench_dedup() -> dict:
    request = workload_requests(1)[0]
    async with CompileService() as service:
        job_ids = await asyncio.gather(
            *[service.submit(request) for _ in range(DEDUP_SUBMITTERS)]
        )
        results = await asyncio.gather(
            *[service.result(job_id) for job_id in job_ids]
        )
        metrics = service.metrics
        return {
            "submitters": DEDUP_SUBMITTERS,
            "compiles": metrics.tier_counts["compute"],
            "dedup_joins": metrics.tier_counts["dedup"],
            "distinct_results": len({result.cnot_count for result in results}),
        }


async def bench_backpressure() -> dict:
    requests = workload_requests()
    max_queue = 2
    async with CompileService(n_workers=1, max_queue=max_queue) as service:
        accepted, rejected = [], 0
        # No await between submits: the queue fills before any worker runs.
        for request in requests:
            try:
                accepted.append(await service.submit(request))
            except ServiceOverloadedError:
                rejected += 1
        await asyncio.gather(*[service.result(job_id) for job_id in accepted])
        snapshot = service.metrics.snapshot()
        return {
            "burst": len(requests),
            "max_queue": max_queue,
            "accepted": len(accepted),
            "rejected": rejected,
            "rejections_counted": snapshot["rejections"],
            "queue_depth_peak": snapshot["queue_depth_peak"],
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, help="write JSON here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--n-distinct", type=int, default=N_DISTINCT,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        report = asyncio.run(child_replay(args.cache_dir, args.n_distinct))
        Path(args.child_out).write_text(json.dumps(report))
        return

    with tempfile.TemporaryDirectory(prefix="bench-service-") as cache_dir:
        cold, memory_warm = asyncio.run(bench_cold_and_memory(cache_dir))
        disk_warm = bench_disk_warm(cache_dir)
    dedup = asyncio.run(bench_dedup())
    backpressure = asyncio.run(bench_backpressure())

    cold_compile_ms = cold["compute_latency"]["mean_ms"]
    warm_total_ms = disk_warm["latency_total"]["mean_ms"]
    speedup = cold_compile_ms / warm_total_ms
    results_identical = disk_warm["cnot_counts"] == cold["cnot_counts"]

    report = {
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": {"n_distinct": N_DISTINCT, "n_qubits": 12, "n_terms": 4},
        "cold": cold,
        "memory_warm": memory_warm,
        "disk_warm": disk_warm,
        "dedup": dedup,
        "backpressure": backpressure,
        "summary": {
            "cold_compile_mean_ms": cold_compile_ms,
            "disk_warm_total_mean_ms": warm_total_ms,
            "warm_speedup": round(speedup, 2),
            "disk_hit_rate": disk_warm["disk_hit_rate"],
            "results_identical_across_processes": results_identical,
        },
        "floors": {
            "warm_speedup": WARM_SPEEDUP_FLOOR,
            "disk_hit_rate": DISK_HIT_RATE_FLOOR,
            "dedup_compiles": 1,
        },
    }

    output = Path(args.output) if args.output else REPO_ROOT / "BENCH_service.json"
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"cold compile        : {cold_compile_ms:9.3f} ms/job "
          f"({cold['jobs']} jobs, all tier=compute)")
    print(f"second-process disk : {warm_total_ms:9.3f} ms/job "
          f"(disk hit rate {disk_warm['disk_hit_rate']:.0%}, "
          f"floor {DISK_HIT_RATE_FLOOR:.0%})")
    print(f"warm speedup        : {speedup:9.1f}x (floor {WARM_SPEEDUP_FLOOR:.0f}x)")
    print(f"dedup               : {dedup['submitters']} submits -> "
          f"{dedup['compiles']} compile(s), {dedup['dedup_joins']} joins")
    print(f"backpressure        : {backpressure['rejected']} of "
          f"{backpressure['burst']} burst submits rejected "
          f"(queue bound {backpressure['max_queue']})")
    print(f"wrote {output}")

    ok = (
        speedup >= WARM_SPEEDUP_FLOOR
        and disk_warm["disk_hit_rate"] >= DISK_HIT_RATE_FLOOR
        and dedup["compiles"] == 1
        and dedup["dedup_joins"] == DEDUP_SUBMITTERS - 1
        and results_identical
        and backpressure["rejected"] > 0
    )
    print(f"service floors: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
