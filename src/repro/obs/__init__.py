"""repro.obs — unified tracing, metrics and profiling substrate.

One observability layer shared by every subsystem (the compile pipeline, the
chemistry caches, routing, the verify engines and the compile service):

* **Tracing** (:mod:`repro.obs.tracer`) — :class:`Tracer`/:class:`Span` with
  contextvar propagation (spans nest correctly across asyncio workers) and an
  explicit export/adopt protocol that collects spans back from process-pool
  workers.  Disabled (the default) it is a near-zero-overhead no-op; enable
  with ``REPRO_TRACE=1``, :func:`enable_tracing`, or a :func:`tracing` scope.
* **Metrics** (:mod:`repro.obs.metrics`) — :class:`Counter` / :class:`Gauge`
  / bounded :class:`Histogram` in a process-global :class:`MetricsRegistry`;
  always on, cheap enough for hot paths, JSON-serializable snapshots.
  :class:`~repro.service.metrics.ServiceMetrics` is built on these.
* **Exporters** (:mod:`repro.obs.export`) — native JSON trace documents,
  Chrome trace-event JSON (viewable in Perfetto), and a human-readable span
  tree; rendered by ``tools/trace_report.py``.

>>> from repro.obs import tracing, render_span_tree
>>> with tracing() as tracer:
...     result = get_backend("advanced").compile(request)
>>> print(render_span_tree(tracer))
"""

from repro.obs.export import (
    chrome_trace,
    load_trace_document,
    render_span_tree,
    trace_document,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from repro.obs.tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    span,
    tracing,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "chrome_trace",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "get_metrics",
    "get_tracer",
    "load_trace_document",
    "render_span_tree",
    "set_tracer",
    "span",
    "trace_document",
    "tracing",
    "tracing_enabled",
    "validate_chrome_trace",
    "write_trace",
]
