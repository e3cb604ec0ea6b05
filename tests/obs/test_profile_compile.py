"""Smoke test of ``tools/profile_compile.py`` on one backend: cold runs profile the chemistry."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import profile_compile  # noqa: E402


def span_names(spans):
    for span in spans:
        yield span["name"]
        yield from span_names(span.get("children", []))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_backend_report_traces_chemistry_only_when_cold(warm, tmp_path, monkeypatch, capsys):
    report_path = tmp_path / "report.json"
    argv = ["profile_compile.py", "H2", "--backend", "advanced", "--json", str(report_path)]
    monkeypatch.setattr(sys, "argv", argv + (["--warm"] if warm else []))
    profile_compile.main()
    output = capsys.readouterr().out
    assert f"(advanced, {'warm' if warm else 'cold'})" in output
    report = json.loads(report_path.read_text())
    assert (report["backend"], report["warm"]) == ("advanced", warm)
    names = set(span_names(report["trace"]["spans"]))
    assert ("chemistry.scf" in names) == (not warm)
    assert {"compile.advanced", "pipeline.gamma_search", "pipeline.sort"} <= names
