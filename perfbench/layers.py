"""Per-layer self times from a ``repro.obs`` span forest.

The benchmark opens ``bench.<layer>.<call>`` spans around every public call
it makes; the program's own spans (``chemistry.scf``, ``compile.<backend>``,
``pipeline.<stage>``, ``batch.compile_batch``, ``hardware.route``,
``verify.check``, ``service.*``) nest beneath them.  A span's *self time* is
its duration minus the part of that interval its children cover, so every
traced second lands in exactly one span, and a layer metric is the summed
self time of the spans that belong to that layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

PIPELINE_STAGES = (
    "classify",
    "schedule_hybrid",
    "gamma_search",
    "transform",
    "sort",
    "account",
)

#: Self-time metric -> the span names whose self time it sums.
SELF_TIME_SPANS: Dict[str, Tuple[str, ...]] = {
    "chemistry.scf_s": ("bench.chemistry.scf", "chemistry.scf"),
    "chemistry.hamiltonian_s": ("bench.chemistry.hamiltonian",),
    "vqe.select_terms_s": ("bench.vqe.select_terms",),
    "backend.jordan-wigner_s": (
        "bench.backend.jordan-wigner",
        "compile.jordan-wigner",
    ),
    "backend.bravyi-kitaev_s": (
        "bench.backend.bravyi-kitaev",
        "compile.bravyi-kitaev",
    ),
    "backend.baseline_s": ("bench.backend.baseline", "compile.baseline"),
    # pipeline.run is the advanced backend's own overhead around its stages.
    "backend.advanced_s": ("bench.backend.advanced", "compile.advanced", "pipeline.run"),
    "batch.compile_batch_s": (
        "bench.batch.compile_batch",
        "batch.compile_batch",
        "batch.fallback",
    ),
    **{f"pipeline.{stage}_s": (f"pipeline.{stage}",) for stage in PIPELINE_STAGES},
    "circuits.synthesize_s": ("bench.circuits.synthesize",),
    "hardware.route_s": ("bench.hardware.route", "hardware.route"),
    "verify.check_s": ("bench.verify.check", "verify.check"),
}

SpanDict = Dict


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def _clipped(span: SpanDict, lo: float, hi: float) -> Tuple[float, float]:
    return max(span["start_s"], lo), min(span["end_s"], hi)


def self_time(span: SpanDict) -> float:
    """Span duration minus the union of its children's intervals (clipped)."""
    lo, hi = span["start_s"], span["end_s"]
    children = [_clipped(child, lo, hi) for child in span.get("children", [])]
    covered = _union_length((a, b) for a, b in children if b > a)
    return max(0.0, (hi - lo) - covered)


def walk(span: SpanDict) -> Iterator[SpanDict]:
    yield span
    for child in span.get("children", []):
        yield from walk(child)


def self_times_by_name(roots: List[SpanDict]) -> Dict[str, float]:
    """Summed self seconds per span name over a span forest."""
    totals: Dict[str, float] = {}
    for root in roots:
        for span in walk(root):
            totals[span["name"]] = totals.get(span["name"], 0.0) + self_time(span)
    return totals


def layer_self_times(roots: List[SpanDict]) -> Dict[str, float]:
    """Every :data:`SELF_TIME_SPANS` metric, summed over the forest."""
    by_name = self_times_by_name(roots)
    return {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_SPANS.items()
    }


def unattributed_frac(pass_span: SpanDict) -> float:
    """Share of a pass's wall time that no layer span covers.

    Layer spans are the pass span's children (the ``bench.<layer>.<call>``
    spans and, on the service, the ``service.job`` spans of its worker
    tasks); what they leave uncovered is the benchmark's own loop overhead.
    """
    lo, hi = pass_span["start_s"], pass_span["end_s"]
    wall = hi - lo
    if wall <= 0:
        return 0.0
    covered = _union_length(
        _clipped(child, lo, hi) for child in pass_span.get("children", [])
    )
    return max(0.0, wall - covered) / wall
