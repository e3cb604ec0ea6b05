"""Measure one workload, check its outputs and print the result line.

``run.py`` checks that the checkout has ``src/repro`` and puts it on the
path before importing this module; everything here may import ``repro``.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.obs import (
    chrome_trace,
    get_metrics,
    trace_document,
    tracing,
    validate_chrome_trace,
    write_trace,
)

import layers
from checks import Ledger
from speed import one_vcpu, scaled_seconds
from workloads import WORKLOADS, clear_chemistry_caches

#: Fresh-interpreter imports and input builds per run; setup_s adds their
#: medians.
SETUP_REPEATS = 3
#: Layer counters read from the process-wide obs registry around each pass.
REGISTRY_COUNTERS = ("chemistry.scf.cache_hits", "chemistry.scf.cache_misses")
#: Per-pass workload counters; a workload that does not touch the layer
#: reports 0.
PASS_STATS = (
    "batch.cache_hits",
    "batch.cache_misses",
    "service.tier.memory",
    "service.tier.disk",
    "service.tier.compute",
    "service.tier.dedup",
    "service.wait_ms_p50",
    "service.compute_ms_p50",
    "service.memory.evictions",
    "service.disk.entries",
)


def nearest_rank(values, q):
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100 * len(ordered))))
    return ordered[rank - 1]


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def counters():
    registry = get_metrics()
    return {name: registry.counter(name).value for name in REGISTRY_COUNTERS}


def measure(workload, seconds, trace):
    """Timed passes until ``seconds`` elapse (and ``min_passes`` are done).

    With ``trace`` every second pass runs traced, so the traced and untraced
    walls of one process give the tracing overhead.  Returns the passes as
    ``(traced, PassResult, counter deltas)`` and the exported span forest of
    the traced ones.
    """
    passes = []
    with tracing(enabled=False) as tracer:
        deadline = time.perf_counter() + seconds
        while len(passes) < workload.min_passes or time.perf_counter() < deadline:
            traced = trace and len(passes) % 2 == 1
            # The outputs kept for checking must not make later passes'
            # garbage collections slower: park everything alive so far.
            gc.collect()
            gc.freeze()
            before = counters()
            tracer.enabled = traced
            try:
                with tracer.span("bench.pass", workload=workload.name, index=len(passes)):
                    result = workload.run_pass()
            finally:
                tracer.enabled = False
            after = counters()
            delta = {name: after[name] - before[name] for name in after}
            passes.append((traced, result, delta))
        return passes, tracer.export()


def end_to_end_metrics(workload, passes, ledger, setup_s):
    """The user-visible metrics; times are at nominal host speed (speed.py)."""
    jobs = [job for _, result, _ in passes for job in result.jobs]
    latencies = [job.latency_s * job.speed for job in jobs]
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(jobs) / sum(result.adjusted_wall_s for _, result, _ in passes),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * nearest_rank(latencies, workload.tail_percentile),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "advanced_cnots": ledger.counts()["advanced_cnots"],
        "verified_frac": ledger.verified / ledger.checked if ledger.checked else 0.0,
    }


def per_layer_metrics(passes, spans, ledger, attempted, failed):
    """Per-pass layer metrics from the traced passes; times at nominal speed."""
    traced = [(result, delta) for is_traced, result, delta in passes if is_traced]
    untraced = [result for is_traced, result, _ in passes if not is_traced]
    roots = [root for root in spans if root["name"] == "bench.pass"]
    values = dict.fromkeys(layers.SELF_TIME_SPANS, 0.0)
    for (result, _), root in zip(traced, roots):
        scale = result.adjusted_wall_s / result.wall_s / len(traced)
        for name, seconds in layers.layer_self_times([root]).items():
            values[name] += seconds * scale
    for name in REGISTRY_COUNTERS:
        values[name] = mean(delta[name] for _, delta in traced)
    for name in PASS_STATS:
        values[name] = mean(result.stats.get(name, 0) for result, _ in traced)
    tiers = ("memory", "disk", "compute", "dedup")
    served = sum(values[f"service.tier.{tier}"] for tier in tiers)
    useful = served - values["service.tier.compute"]
    values["service.hit_frac"] = useful / served if served else 0.0
    values.update(ledger.counts())
    values["bench.failed_frac"] = failed / attempted
    values["obs.tracing_overhead_frac"] = (
        statistics.median(result.adjusted_wall_s for result, _ in traced)
        / statistics.median(result.adjusted_wall_s for result in untraced)
        - 1.0
    )
    values["obs.unattributed_frac"] = mean(layers.unattributed_frac(root) for root in roots)
    return values


def print_rows(rows):
    for row in sorted(rows, key=lambda row: row["input"]):
        cnots = row["cnots"]
        stages = row.get("stage_s_median", {})
        print(
            f"  {'/'.join(str(part) for part in row['input']):<14}"
            f" jw={cnots.get('jordan-wigner', '-'):>4} bk={cnots.get('bravyi-kitaev', '-'):>4}"
            f" gt={cnots.get('baseline', '-'):>4} adv={cnots.get('advanced', '-'):>4}"
            f" 2q-depth={row.get('two_qubit_depth', '-'):>4}"
            f" gamma={stages.get('gamma_search', 0.0) * 1e3:7.1f}ms"
            f" sort={stages.get('sort', 0.0) * 1e3:7.1f}ms"
            f" job={row['latency_s_median'] * 1e3:8.1f}ms"
        )


def import_once(root: Path) -> None:
    """Start a fresh interpreter that imports everything the benchmark does."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import harness"
    subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "perfbench")],
        check=True,
    )


def set_up(workload, root: Path) -> float:
    """Set the workload up; returns ``setup_s``, at nominal host speed.

    Process start to the first timed job is: a fresh interpreter importing
    the benchmark and the package, building the inputs, and the declared
    warm-up.  The first two are repeated and their medians taken.
    """
    imports, builds = [], []
    with one_vcpu():
        for _ in range(SETUP_REPEATS):
            imports.append(scaled_seconds(lambda: import_once(root)))
        for _ in range(SETUP_REPEATS):
            clear_chemistry_caches()
            builds.append(scaled_seconds(workload.prepare))
    return statistics.median(imports) + statistics.median(builds) + scaled_seconds(workload.warm)


def main(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, out_dir)
    try:
        setup_s = set_up(workload, root)
        passes, spans = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()

    ledger = Ledger()
    jobs = [job for _, result, _ in passes for job in result.jobs]
    for job in jobs:
        ledger.add(job)
    attempted = len(jobs)
    failed_jobs = [job for job in jobs if job.error is not None]
    problems = ledger.problems()
    correct = not failed_jobs and not problems and ledger.checked > 0

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    rows = ledger.rows()
    (out_dir / f"{stem}.rows.json").write_text(json.dumps(rows, indent=1))
    if workload.name != "service_mixed":
        print(f"{workload.name}: per-input ledger ({len(rows)} rows)")
        print_rows(rows)

    if args.trace:
        section = "per_layer"
        values = per_layer_metrics(passes, spans, ledger, attempted, len(failed_jobs))
        document = trace_document(spans, metrics=get_metrics(), label=stem)
        write_trace(out_dir / f"{stem}.trace.json", document)
        chrome = chrome_trace(spans, process_name=f"perfbench {workload.name}")
        validate_chrome_trace(chrome)
        (out_dir / f"{stem}.chrome.json").write_text(json.dumps(chrome))
    else:
        section = "end_to_end"
        values = end_to_end_metrics(workload, passes, ledger, setup_s)

    metrics = {}
    for entry in spec[section]:
        value = values.get(entry["name"])
        if value is None:
            print(f"perfbench: metric {entry['name']!r} was not computed", file=sys.stderr)
            return 3
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<28} {value:>14.6g} {entry['unit']}")
    print(
        f"{workload.name}: {len(passes)} passes, {attempted} jobs, {len(failed_jobs)} failed, "
        f"{ledger.verified}/{ledger.checked} outputs verified, setup {setup_s:.3f}s; "
        f"unscaled: {attempted / sum(r.wall_s for _, r, _ in passes):.4g} jobs/s, "
        f"p50 {1e3 * statistics.median(job.latency_s for job in jobs):.4g} ms, "
        f"median host speed factor {statistics.median(job.speed for job in jobs):.3f}"
    )
    for job in failed_jobs[:3]:
        print(f"perfbench: job {job.key} failed:\n{job.error}", file=sys.stderr)
    for problem in problems[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_jobs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1
