"""Layering: the compilation API sits below the compile service.

``repro.service`` builds on ``repro.api`` (stores, job runner, batch layer);
the reverse edge would be an import cycle.  The scan walks every import in
every module under ``repro/api`` — module level, inside functions and
behind ``TYPE_CHECKING`` guards alike — so a lazily imported service module
cannot hide from it.
"""

import ast
from pathlib import Path

import repro.api

API_DIR = Path(repro.api.__file__).parent


def imported_modules(path: Path):
    """Every module name an import statement anywhere in ``path`` names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_api_module_imports_the_service():
    paths = sorted(API_DIR.rglob("*.py"))
    assert any(path.name == "batch.py" for path in paths)  # the scan sees the package
    offenders = {
        f"{path.name}: {name}"
        for path in paths
        for name in imported_modules(path)
        if name == "repro.service" or name.startswith("repro.service.")
    }
    assert not offenders, f"repro.api must not import repro.service: {sorted(offenders)}"
