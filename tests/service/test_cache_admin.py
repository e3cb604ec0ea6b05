"""Smoke tests for the cache-admin and serve command-line tools."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import cache_admin  # noqa: E402
import serve  # noqa: E402

from repro.api import CompileCache, CompileRequest, CompileResult, CompilerConfig
from repro.service import PersistentCompileCache
from repro.vqe import ExcitationTerm

FAST = CompilerConfig(gamma_steps=5, seed=0)


def populate(root, n_entries=3, version="V"):
    cache = PersistentCompileCache(root, version=version)
    for index in range(n_entries):
        request = CompileRequest(
            terms=(ExcitationTerm(creation=(2 + index,), annihilation=(0,)),),
            n_qubits=8,
            config=FAST,
        )
        cache.put(
            CompileCache.key(request, "advanced"),
            CompileResult(backend="advanced", cnot_count=index, n_qubits=8),
        )
    return cache


class TestCacheAdmin:
    def test_stats_reports_entries_and_shards(self, tmp_path, capsys):
        populate(tmp_path)
        exit_code = cache_admin.main(
            ["stats", str(tmp_path), "--version-stamp", "V"]
        )
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert report["entries"] == 3
        assert report["stale_entries"] == 0
        assert sum(report["shards"].values()) == 3

    def test_vacuum_removes_stale_entries(self, tmp_path, capsys):
        populate(tmp_path, version="old")
        exit_code = cache_admin.main(
            ["vacuum", str(tmp_path), "--version-stamp", "new"]
        )
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert report["removed_stale_entries"] == 3
        assert report["entries"] == 0

    def test_clear_removes_everything(self, tmp_path, capsys):
        populate(tmp_path)
        exit_code = cache_admin.main(["clear", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert report["removed_entries"] == 3
        assert report["entries"] == 0

    def test_missing_directory_fails_for_mutating_commands(self, tmp_path, capsys):
        exit_code = cache_admin.main(["vacuum", str(tmp_path / "missing")])
        assert exit_code == 1
        assert "does not exist" in capsys.readouterr().err


class TestServe:
    def test_serve_session_populates_and_reuses_the_cache(self, tmp_path, capsys):
        base = ["--molecule", "H2", "--n-terms", "2", "--cache-dir", str(tmp_path)]
        assert serve.main(base + ["--repeat", "2"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["metrics"]["tiers"]["compute"] == 2
        assert first["metrics"]["tiers"]["dedup"] == 2  # the repeat round joined
        assert len(first["jobs"]) == 4

        # A second session over the same directory serves from disk.
        assert serve.main(base + ["--repeat", "1"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["metrics"]["tiers"]["compute"] == 0
        assert second["metrics"]["tiers"]["disk"] == 2
        assert second["metrics"]["cache_hit_rate"] == 1.0
