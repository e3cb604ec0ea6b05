"""Layering: which packages may not import which.

* ``repro.service`` builds on ``repro.api`` (stores, job runner, batch
  layer); the reverse edge would be an import cycle.
* ``repro.verify`` checks what the compiler in ``repro.transforms`` produced,
  so it must not share the compiler's conjugation code: a shared sign rule
  would make a sign error invisible to the verifier.
* ``repro.chemistry.integrals`` builds on basis functions, so
  ``repro.chemistry.basis`` must not import it back: both take the Hermite
  expansion and primitive overlap from the leaf ``repro.chemistry.hermite``.
* No module of the package imports networkx, which is a test-side oracle
  only, and compiling on every backend loads neither the VQE driver nor the
  simulator nor the scipy modules only they use.
* The package has one operator representation, symplectic bit-planes: no
  module defines or imports the dict operator algebra (``FermionOperator``,
  ``QubitOperator``, ``FermionQubitTransform``), which lives in the test
  tree's ``operator_oracle`` as the oracle of the bit-plane kernels.

The scan walks every import in every module of a package — module level,
inside functions and behind ``TYPE_CHECKING`` guards alike — so a lazily
imported module cannot hide from it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import operator_oracle
import repro
import repro.api
import repro.chemistry
import repro.verify

API_DIR = Path(repro.api.__file__).parent
CHEMISTRY_DIR = Path(repro.chemistry.__file__).parent
VERIFY_DIR = Path(repro.verify.__file__).parent
PACKAGE_DIR = Path(repro.__file__).parent


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


def test_no_module_imports_networkx():
    assert (PACKAGE_DIR / "optimizers" / "graph_coloring.py").exists()
    offenders = offending_imports(PACKAGE_DIR, "networkx")
    assert not offenders, f"networkx is test-only: {sorted(offenders)}"


#: The dict operator algebra: test-tree oracle only.
DICT_ALGEBRA_NAMES = {"FermionOperator", "QubitOperator", "FermionQubitTransform"}


def bound_names(path: Path):
    """Every name ``path`` defines, assigns or imports (the last dotted part, and any alias)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]
                if alias.asname:
                    yield alias.asname
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_no_module_defines_or_imports_the_dict_operator_algebra():
    oracle_names = set(bound_names(Path(operator_oracle.__file__)))
    assert DICT_ALGEBRA_NAMES <= oracle_names  # the scan sees the definitions
    offenders = {
        f"{path.relative_to(PACKAGE_DIR)}: {name}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for name in bound_names(path)
        if name in DICT_ALGEBRA_NAMES
    }
    assert not offenders, f"the dict operator algebra is test-only: {sorted(offenders)}"


#: Compiles hybrid, bosonic and fermionic terms (coloring, Γ blocks, sort) on
#: the four backends in a fresh interpreter, then lists the modules loaded.
BOUNDARY_SCRIPT = """
import sys
import repro, repro.api, repro.service
from repro.api import CompileRequest, get_backend
from repro.vqe import ExcitationTerm
terms = tuple(ExcitationTerm(creation=c, annihilation=a) for c, a in [
    ((8, 11), (2, 3)), ((10, 11), (2, 5)), ((12, 13), (4, 7)), ((12, 15), (6, 7)),
    ((10, 13), (4, 5)), ((8, 9), (0, 1)), ((8, 13), (0, 3)), ((14,), (6,)),
])
for name in ("jordan-wigner", "bravyi-kitaev", "baseline", "advanced"):
    assert get_backend(name).compile(CompileRequest(terms=terms)).cnot_count > 0
print(" ".join(sys.modules))
"""

#: Modules only the VQE driver, the simulator or the test oracles need.
NOT_ON_COMPILE_PATH = (
    "scipy.optimize", "scipy.sparse", "networkx", "repro.simulator", "repro.vqe.vqe",
)


def test_compiling_loads_no_vqe_simulator_or_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_SCRIPT],
        env={"PYTHONPATH": str(PACKAGE_DIR.parent), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "repro.core.hybrid_encoding" in loaded  # the listing sees the compile path
    assert not loaded & set(NOT_ON_COMPILE_PATH), sorted(loaded & set(NOT_ON_COMPILE_PATH))


def test_vqe_driver_names_resolve_on_first_access():
    import repro.vqe
    from repro.vqe import vqe as driver

    for name in ("adaptive_vqe", "optimize_ansatz", "UccAnsatz", "VqeResult",
                 "AdaptiveVqeResult", "hamiltonian_sparse_matrix"):
        assert name in repro.vqe.__all__
        assert getattr(repro.vqe, name) is getattr(driver, name)
    with pytest.raises(AttributeError, match="not_a_driver_name"):
        repro.vqe.not_a_driver_name
