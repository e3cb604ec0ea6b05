"""Integral engine: bit-identity of the cached and table kernels, memoization."""

import numpy as np

from repro.chemistry import (
    build_molecular_hamiltonian,
    build_sto3g_basis,
    clear_integral_caches,
    clear_scf_cache,
    make_molecule,
    molecule_fingerprint,
    run_rhf,
    shell_pair_data,
)
from repro.chemistry.hermite import _hermite_expansion_direct, hermite_expansion
from repro.chemistry.integrals import (
    build_electron_repulsion_tensor,
    electron_repulsion,
    integral_cache_stats,
)
from repro.obs import tracing
from scalar_integrals import (
    _boys_function_direct,
    _hermite_coulomb_direct,
    boys_function,
    electron_repulsion_scalar,
    hermite_coulomb,
)


def lih_basis():
    return build_sto3g_basis(make_molecule("LiH"))


class TestVectorizedElectronRepulsion:
    def test_bit_identical_to_scalar_on_sp_quartets(self):
        # Li 1s, Li 2s, Li 2px, H 1s: covers s-only and p-bearing quartets.
        basis = lih_basis()
        functions = [basis[0], basis[1], basis[2], basis[5]]
        for a in functions:
            for b in functions:
                for c in functions:
                    for d in functions:
                        assert electron_repulsion(a, b, c, d) == electron_repulsion_scalar(a, b, c, d)

    def test_empty_basis_gives_empty_tensor(self):
        assert build_electron_repulsion_tensor([]).shape == (0, 0, 0, 0)

    def test_memoized_kernels_equal_direct_recursion(self):
        args_expansion = (1, 1, 1, 0.7, 5.0, 1.3)
        args_coulomb = (1, 0, 1, 0, 2.0, 0.1, -0.2, 0.3, 0.14)
        clear_integral_caches()
        for _ in range(2):  # computed, then served from cache
            assert hermite_expansion(*args_expansion) == _hermite_expansion_direct(*args_expansion)
            assert hermite_coulomb(*args_coulomb) == _hermite_coulomb_direct(*args_coulomb)
            assert boys_function(2, 0.8) == _boys_function_direct(2, 0.8)


class TestShellPairCache:
    def test_pair_data_is_cached_and_clearable(self):
        basis = lih_basis()
        clear_integral_caches()
        first = shell_pair_data(basis[0], basis[2])
        again = shell_pair_data(basis[0], basis[2])
        assert first is again
        clear_integral_caches()
        fresh = shell_pair_data(basis[0], basis[2])
        assert fresh is not first

    def test_pair_cache_is_bounded(self, monkeypatch):
        from repro.chemistry import integrals

        basis = lih_basis()
        clear_integral_caches()
        monkeypatch.setattr(integrals, "_SHELL_PAIR_CACHE_MAX_ENTRIES", 2)
        shell_pair_data(basis[0], basis[1])
        shell_pair_data(basis[1], basis[2])
        shell_pair_data(basis[2], basis[3])
        assert len(integrals._SHELL_PAIR_CACHE) == 2

    def test_pair_tables_match_scalar_expansion(self):
        basis = lih_basis()
        fa, fb = basis[1], basis[2]  # s-p pair on one centre: the x axis has a zero table
        pair = shell_pair_data(fa, fb)
        for axis in range(3):
            l1, l2 = fa.lmn[axis], fb.lmn[axis]
            separation = fa.center[axis] - fb.center[axis]
            tables = dict(pair.terms[axis])
            for t in range(l1 + l2 + 1):
                expected = [
                    [hermite_expansion(l1, l2, t, separation, alpha, beta) for beta in fb.exponents]
                    for alpha in fa.exponents
                ]
                if t in tables:
                    assert tables[t].tolist() == expected
                else:  # only all-zero tables are dropped
                    assert not np.any(expected)
        assert [t for t, _ in pair.terms[0]] == [1]


class TestColdCacheContract:
    """``clear_integral_caches()`` before a solve must make it fully cold."""

    @staticmethod
    def cold_lih_solve():
        clear_integral_caches()
        with tracing() as tracer:
            result = run_rhf(make_molecule("LiH"), use_cache=False)
        (span,) = [s for r in tracer.roots for s in r.walk() if s.name == "chemistry.scf"]
        return result, dict(span.attributes)

    def test_clear_leaves_every_integral_memo_empty(self):
        from repro.chemistry import integrals

        self.cold_lih_solve()
        def sizes():
            return {k: v for k, v in integral_cache_stats().items() if k.endswith(".size")}

        assert set(sizes()) == {"hermite_expansion.size", "shell_pair.size"}
        assert all(sizes().values())
        clear_integral_caches()
        assert not any(sizes().values())
        assert not integrals._SHELL_PAIR_CACHE
        assert hermite_expansion.cache_info().currsize == 0

    def test_second_cold_solve_repeats_bytes_and_span_deltas(self):
        first, first_span = self.cold_lih_solve()
        second, second_span = self.cold_lih_solve()
        for name in ("overlap", "core_hamiltonian", "electron_repulsion", "orbital_coefficients"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert first.energy == second.energy
        assert first_span == second_span
        # Unique function quartets, and the distinct geometry quartets they sit on.
        assert second_span["eri.quartets"] == 231
        assert second_span["eri.coulomb_tables"] == 22
        assert second_span["integrals.shell_pair.misses"] == 36


class TestScfMemoization:
    def test_run_rhf_memoizes_per_molecule(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        first = run_rhf(molecule)
        again = run_rhf(make_molecule("H2"))
        assert first is again

    def test_use_cache_false_recomputes(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        first = run_rhf(molecule)
        fresh = run_rhf(molecule, use_cache=False)
        assert fresh is not first
        assert fresh.energy == first.energy

    def test_clear_scf_cache_forgets(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        first = run_rhf(molecule)
        clear_scf_cache()
        assert run_rhf(molecule) is not first

    def test_explicit_basis_bypasses_cache(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        cached = run_rhf(molecule)
        explicit = run_rhf(molecule, basis=build_sto3g_basis(molecule))
        assert explicit is not cached
        assert explicit.energy == cached.energy

    def test_different_solver_settings_get_distinct_entries(self):
        clear_scf_cache()
        molecule = make_molecule("H2")
        default = run_rhf(molecule)
        damped = run_rhf(molecule, damping=0.2)
        assert default is not damped

    def test_molecule_fingerprint_distinguishes_geometry(self):
        assert molecule_fingerprint(make_molecule("H2")) != molecule_fingerprint(
            make_molecule("LiH")
        )
        assert molecule_fingerprint(make_molecule("H2")) == molecule_fingerprint(
            make_molecule("H2")
        )

    def test_same_geometry_different_name_is_not_conflated(self):
        # A cache hit must never return a result labeled with another
        # caller's molecule name (the name flows into Hamiltonian/report rows).
        clear_scf_cache()
        first = make_molecule("H2")
        renamed = make_molecule("H2")
        renamed.name = "H2-copy"
        cached = run_rhf(first)
        other = run_rhf(renamed)
        assert other is not cached
        assert other.molecule.name == "H2-copy"
        assert other.energy == cached.energy

    def test_scf_cache_is_bounded(self, monkeypatch):
        from repro.chemistry import hartree_fock

        clear_scf_cache()
        monkeypatch.setattr(hartree_fock, "_SCF_CACHE_MAX_ENTRIES", 1)
        h2 = run_rhf(make_molecule("H2"))
        lih = run_rhf(make_molecule("LiH"))
        assert len(hartree_fock._SCF_CACHE) == 1
        # The H2 entry was evicted (FIFO); LiH is the survivor.
        assert run_rhf(make_molecule("LiH")) is lih
        assert run_rhf(make_molecule("H2")) is not h2


class TestHamiltonianMemoization:
    def test_memoized_per_active_space(self):
        clear_scf_cache()
        scf = run_rhf(make_molecule("LiH"))
        frozen = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
        assert build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1) is frozen
        full = build_molecular_hamiltonian(scf)
        assert full is not frozen
        assert full.n_spin_orbitals == frozen.n_spin_orbitals + 2

    def test_use_cache_false_recomputes(self):
        clear_scf_cache()
        scf = run_rhf(make_molecule("H2"))
        first = build_molecular_hamiltonian(scf)
        fresh = build_molecular_hamiltonian(scf, use_cache=False)
        assert fresh is not first
        assert np.array_equal(fresh.one_body, first.one_body)
        assert np.array_equal(fresh.two_body, first.two_body)
