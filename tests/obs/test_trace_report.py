"""``tools/trace_report.py --format summary``: span rows, Γ-search effort, sort memo hits."""

import sys
from pathlib import Path

import pytest

from repro.api import CompileCache, CompileRequest, CompilerConfig, compile_batch, get_backend
from repro.obs import trace_document, tracing, write_trace
from repro.vqe import ExcitationTerm

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import trace_report  # noqa: E402

TERMS = (
    ExcitationTerm(creation=(4, 6), annihilation=(0, 2)),
    ExcitationTerm(creation=(5, 7), annihilation=(1, 3)),
    ExcitationTerm(creation=(4, 7), annihilation=(0, 3)),
)


def summary_of(requests, backend, tmp_path, monkeypatch, capsys):
    with tracing() as tracer:
        for request in requests:
            get_backend(backend).compile(request)
    path = tmp_path / "trace.json"
    write_trace(path, trace_document(tracer, label="test"))
    monkeypatch.setattr(sys, "argv", ["trace_report.py", str(path), "--format", "summary"])
    trace_report.main()
    spans = [span for root in tracer.roots for span in root.walk()]
    return capsys.readouterr().out.splitlines(), spans


def test_summary_sums_the_gamma_search_effort(tmp_path, monkeypatch, capsys):
    requests = [
        CompileRequest(terms=TERMS, n_qubits=8, config=CompilerConfig(seed=seed, gamma_steps=12))
        for seed in (0, 1)
    ]
    lines, spans = summary_of(requests, "advanced", tmp_path, monkeypatch, capsys)
    searches = [span for span in spans if span.name == "pipeline.gamma_search"]
    assert len(searches) == 2
    totals = {
        key: sum(span.attributes[key] for span in searches)
        for key in ("evaluations", "cache_hits", "walks")
    }
    assert totals["evaluations"] + totals["cache_hits"] == 2 * 13
    assert 2 <= totals["walks"] <= totals["evaluations"]
    start = lines.index("gamma search effort (2 spans):")
    assert lines[start + 1:start + 4] == [
        f"  evaluations = {totals['evaluations']}",
        f"  cache_hits = {totals['cache_hits']}",
        f"  walks = {totals['walks']}",
    ]
    assert any(line.startswith("pipeline.gamma_search ") for line in lines[:start])
    # Direct compiles run under no sort memo.
    assert lines[start + 4:] == ["", "sort memo (2 sorts):", "  memo_hits = 0"]


def test_summary_counts_the_sorts_the_memo_served(tmp_path, monkeypatch, capsys):
    # Same fermionic terms, the second request adds a bosonic one: one sort.
    bosonic = ExcitationTerm(creation=(6, 7), annihilation=(2, 3))
    requests = [
        CompileRequest(terms=terms, n_qubits=8, config=CompilerConfig(gamma_steps=0))
        for terms in (TERMS, TERMS + (bosonic,))
    ]
    cache = CompileCache()
    with tracing() as tracer:
        for request in requests:
            compile_batch([request], cache=cache)
    path = tmp_path / "trace.json"
    write_trace(path, trace_document(tracer, label="test"))
    monkeypatch.setattr(sys, "argv", ["trace_report.py", str(path), "--format", "summary"])
    trace_report.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(cache.sort_memo) == 1
    assert lines[-3:] == ["", "sort memo (2 sorts):", "  memo_hits = 1"]


@pytest.mark.parametrize("backend", ["jordan-wigner", "baseline"])
def test_summary_without_a_gamma_search_prints_no_effort(backend, tmp_path, monkeypatch, capsys):
    request = CompileRequest(terms=TERMS, n_qubits=8)
    lines, _ = summary_of([request], backend, tmp_path, monkeypatch, capsys)
    assert lines[0].startswith("span")
    assert not any("gamma search effort" in line for line in lines)
    assert not any("sort memo" in line for line in lines)
