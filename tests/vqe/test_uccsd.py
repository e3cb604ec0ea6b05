"""Unit tests for UCCSD excitation terms and their classification."""

import pytest

from repro.operators import FermionOperator
from repro.vqe import ExcitationTerm, is_spin_pair, uccsd_excitation_terms


class TestSpinPairs:
    def test_same_spatial_orbital_pairs(self):
        assert is_spin_pair(0, 1)
        assert is_spin_pair(5, 4)
        assert not is_spin_pair(1, 2)
        assert not is_spin_pair(0, 2)


class TestExcitationTerm:
    def test_indices_sorted(self):
        term = ExcitationTerm(creation=(5, 2), annihilation=(1, 0))
        assert term.creation == (2, 5)
        assert term.annihilation == (0, 1)

    def test_single_and_double_flags(self):
        assert ExcitationTerm(creation=(2,), annihilation=(0,)).is_single
        assert ExcitationTerm(creation=(2, 3), annihilation=(0, 1)).is_double

    def test_validation(self):
        with pytest.raises(ValueError):
            ExcitationTerm(creation=(1, 2, 3), annihilation=(0, 4, 5))
        with pytest.raises(ValueError):
            ExcitationTerm(creation=(1, 1), annihilation=(0, 2))
        with pytest.raises(ValueError):
            ExcitationTerm(creation=(1,), annihilation=(1,))
        with pytest.raises(ValueError):
            ExcitationTerm(creation=(1, 2), annihilation=(0,))

    @pytest.mark.parametrize("creation, annihilation", [
        ((-1,), (0,)),
        ((0,), (-1,)),
        ((2, -3), (0, 1)),
        ((2, 3), (-1, 1)),
    ])
    def test_negative_indices_rejected(self, creation, annihilation):
        with pytest.raises(ValueError, match="non-negative"):
            ExcitationTerm(creation=creation, annihilation=annihilation)

    def test_encoding_classes(self):
        bosonic = ExcitationTerm(creation=(2, 3), annihilation=(0, 1))
        hybrid = ExcitationTerm(creation=(2, 3), annihilation=(0, 5))
        fermionic = ExcitationTerm(creation=(2, 5), annihilation=(0, 7))
        single = ExcitationTerm(creation=(2,), annihilation=(0,))
        assert bosonic.encoding_class == "bosonic"
        assert hybrid.encoding_class == "hybrid"
        assert fermionic.encoding_class == "fermionic"
        assert single.encoding_class == "fermionic"

    def test_paper_hybrid_example(self):
        """Appendix A: h0 = a†_9 a†_12 a_3 a_4 is hybrid via its (3,4)… pair?

        With 0-indexed interleaved spin orbitals the paper's pairs are the
        (even, even+1) pairs; a†_2 a†_3 c_5 c_6 from Fig. 3(a) is hybrid when
        only the creation pair is a spin pair.
        """
        term = ExcitationTerm(creation=(2, 3), annihilation=(5, 8))
        assert term.creation_is_spin_pair
        assert not term.annihilation_is_spin_pair
        assert term.encoding_class == "hybrid"

    def test_generator_is_anti_hermitian(self):
        term = ExcitationTerm(creation=(2, 3), annihilation=(0, 1))
        generator = term.generator(0.7)
        assert (generator + generator.hermitian_conjugate()).normal_ordered().is_zero

    def test_excitation_operator_structure(self):
        term = ExcitationTerm(creation=(4,), annihilation=(1,))
        assert term.excitation_operator(2.0) == FermionOperator.single_excitation(4, 1, 2.0)

    def test_spin_orbitals_and_max(self):
        term = ExcitationTerm(creation=(2, 7), annihilation=(0, 1))
        assert term.spin_orbitals == (0, 1, 2, 7)
        assert term.max_spin_orbital() == 7


class TestTermEnumeration:
    def test_h2_counts(self):
        terms = uccsd_excitation_terms(4, 2)
        singles = [t for t in terms if t.is_single]
        doubles = [t for t in terms if t.is_double]
        # Spin-preserving: 2 singles (0->2, 1->3) and 1 double (01 -> 23).
        assert len(singles) == 2
        assert len(doubles) == 1

    def test_excludes_spin_flips(self):
        terms = uccsd_excitation_terms(4, 2)
        assert all(
            sum(i % 2 for i in t.creation) == sum(i % 2 for i in t.annihilation)
            for t in terms
        )

    def test_non_spin_preserving_enumeration_is_larger(self):
        preserving = uccsd_excitation_terms(6, 2)
        free = uccsd_excitation_terms(6, 2, spin_preserving=False)
        assert len(free) > len(preserving)

    def test_singles_can_be_excluded(self):
        terms = uccsd_excitation_terms(6, 2, include_singles=False)
        assert all(t.is_double for t in terms)

    def test_invalid_electron_count(self):
        with pytest.raises(ValueError):
            uccsd_excitation_terms(4, 9)
