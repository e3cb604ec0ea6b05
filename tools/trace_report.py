"""Render, summarize, or convert a native :mod:`repro.obs` trace document.

Reads a trace written by ``run_table1 --trace`` or ``write_trace`` (the
native shape: versioned span forest + metrics snapshot) and renders it in
one of three formats:

* ``text`` (default) — the indented span tree with durations, percentages
  and attributes, followed by the metrics snapshot;
* ``summary`` — one aggregate row per span name (count, total/mean/max ms)
  across the whole forest, widest totals first, then the Γ-search effort
  (``evaluations``, ``cache_hits`` and ``walks``) summed over the
  ``pipeline.gamma_search`` spans;
* ``chrome`` — Chrome trace-event JSON, schema-validated before writing,
  loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Usage:
    PYTHONPATH=src python tools/trace_report.py benchmarks/trace_table1.json
    PYTHONPATH=src python tools/trace_report.py trace.json --format summary
    PYTHONPATH=src python tools/trace_report.py trace.json --format chrome \
        --output trace.chrome.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.obs import (
    chrome_trace,
    load_trace_document,
    render_span_tree,
    validate_chrome_trace,
    write_trace,
)


def walk_spans(spans):
    """Every span dict of the forest, depth-first."""
    for span in spans:
        yield span
        yield from walk_spans(span.get("children", []))


def gamma_search_effort(document) -> List[str]:
    """Lines of the Γ-search effort summed over the ``pipeline.gamma_search`` spans.

    No lines when the forest has no such span; a span that carries no
    effort (no fermionic terms to search) adds 0.
    """
    spans = [s for s in walk_spans(document["spans"]) if s["name"] == "pipeline.gamma_search"]
    if not spans:
        return []
    lines = ["", f"gamma search effort ({len(spans)} spans):"]
    for key in ("evaluations", "cache_hits", "walks"):
        total = sum(span.get("attributes", {}).get(key, 0) for span in spans)
        lines.append(f"  {key} = {total}")
    return lines


def summarize(document) -> str:
    """Aggregate table: one row per span name across the whole forest."""
    totals = {}
    for span in walk_spans(document["spans"]):
        duration_ms = (span["end_s"] - span["start_s"]) * 1e3
        entry = totals.setdefault(span["name"], {"count": 0, "total": 0.0, "max": 0.0})
        entry["count"] += 1
        entry["total"] += duration_ms
        entry["max"] = max(entry["max"], duration_ms)
    if not totals:
        return "(no spans collected)"
    lines = [f"{'span':<36}{'count':>7}{'total ms':>12}{'mean ms':>10}{'max ms':>10}"]
    lines.append("-" * len(lines[0]))
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["total"]):
        lines.append(
            f"{name:<36}{entry['count']:>7}{entry['total']:>12.3f}"
            f"{entry['total'] / entry['count']:>10.3f}{entry['max']:>10.3f}"
        )
    return "\n".join(lines + gamma_search_effort(document))


def render_metrics(document) -> str:
    metrics = document.get("metrics") or {}
    if not metrics:
        return ""
    lines = ["", "metrics:"]
    for name, value in sorted(metrics.items()):
        lines.append(f"  {name} = {value}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", type=Path, help="native trace document (JSON)")
    parser.add_argument(
        "--format",
        choices=("text", "summary", "chrome"),
        default="text",
        help="rendering: span tree, aggregate table, or Chrome trace JSON",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write here instead of stdout (required target for artifacts)",
    )
    args = parser.parse_args()

    try:
        document = load_trace_document(json.loads(args.trace.read_text()))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        raise SystemExit(1)

    if args.format == "chrome":
        label = document.get("label") or "repro"
        chrome = chrome_trace(document["spans"], process_name=label)
        n_events = validate_chrome_trace(chrome)
        if args.output is not None:
            write_trace(args.output, chrome)
            print(f"Wrote {args.output} ({n_events} spans)")
        else:
            print(json.dumps(chrome, indent=2))
        return

    if args.format == "summary":
        rendered = summarize(document)
    else:
        rendered = render_span_tree(document["spans"]) + render_metrics(document)
    if args.output is not None:
        args.output.write_text(rendered + "\n")
        print(f"Wrote {args.output}")
    else:
        print(rendered)


if __name__ == "__main__":
    main()
