"""Layering: which packages may not import which.

* ``repro.service`` builds on ``repro.api`` (stores, job runner, batch
  layer); the reverse edge would be an import cycle.
* ``repro.verify`` checks what the compiler in ``repro.transforms`` produced,
  so it must not share the compiler's conjugation code: a shared sign rule
  would make a sign error invisible to the verifier.
* ``repro.chemistry.integrals`` builds on basis functions, so
  ``repro.chemistry.basis`` must not import it back: both take the Hermite
  expansion and primitive overlap from the leaf ``repro.chemistry.hermite``.

The scan walks every import in every module of a package — module level,
inside functions and behind ``TYPE_CHECKING`` guards alike — so a lazily
imported module cannot hide from it.
"""

import ast
from pathlib import Path

import repro.api
import repro.chemistry
import repro.verify

API_DIR = Path(repro.api.__file__).parent
CHEMISTRY_DIR = Path(repro.chemistry.__file__).parent
VERIFY_DIR = Path(repro.verify.__file__).parent


def imported_modules(path: Path):
    """Every module name an import statement anywhere in ``path`` names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def offending_imports(package_dir: Path, forbidden: str):
    """``"file: module"`` for every import of ``forbidden`` or its submodules."""
    return {
        f"{path.name}: {name}"
        for path in sorted(package_dir.rglob("*.py"))
        for name in imported_modules(path)
        if name == forbidden or name.startswith(forbidden + ".")
    }


def test_no_api_module_imports_the_service():
    assert (API_DIR / "batch.py").exists()  # the scan sees the package
    offenders = offending_imports(API_DIR, "repro.service")
    assert not offenders, f"repro.api must not import repro.service: {sorted(offenders)}"


def test_no_verify_module_imports_the_transforms():
    assert (VERIFY_DIR / "tableau.py").exists()  # the scan sees the package
    offenders = offending_imports(VERIFY_DIR, "repro.transforms")
    assert not offenders, f"repro.verify must not import repro.transforms: {sorted(offenders)}"


def test_basis_does_not_import_the_integrals():
    basis_imports = set(imported_modules(CHEMISTRY_DIR / "basis.py"))
    assert "repro.chemistry.hermite" in basis_imports  # the scan sees the import
    assert "repro.chemistry.integrals" not in basis_imports
    leaf_imports = set(imported_modules(CHEMISTRY_DIR / "hermite.py"))
    assert not {name for name in leaf_imports if name.startswith("repro.")}
