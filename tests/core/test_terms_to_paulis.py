"""The closed-form expansion kernel against the QubitOperator reference.

:func:`repro.core.terms_to_rotations` expands excitation terms on symplectic
bit-masks with integer phases; :func:`repro.core.excitation_to_rotations`
multiplies the ladder images out as :class:`~repro.operators.QubitOperator`
dicts.  Every compiler (and ``perfbench``'s own multiset check) reads the
former, so the reference here is the scalar path, compared bit for bit:
string, ``angle.hex()``, ``term_index`` and order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import excitation_to_rotations, terms_to_rotations
from repro.core import terms_to_paulis
from repro.core.terms_to_paulis import (
    ANGLE_TOLERANCE,
    PauliRotation,
    RotationPlanes,
    jordan_wigner_rotations,
)
from repro.operators import PackedPaulis
from repro.transforms import (
    BravyiKitaevTransform,
    FermionQubitTransform,
    JordanWignerTransform,
    LinearEncodingTransform,
    ParityTransform,
    cnot_network_matrix,
    identity_matrix,
)
from repro.vqe import ExcitationTerm

#: The drop boundary sits at θ = 4·tol for doubles (angle θ/4) and θ = tol
#: for singles (angle θ); both sides of each, exactly.
BOUNDARY_PARAMETERS = [
    value
    for edge in (ANGLE_TOLERANCE, 4 * ANGLE_TOLERANCE)
    for magnitude in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0))
    for value in (magnitude, -magnitude)
]

SPECIAL_PARAMETERS = [
    0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 1e300, -1e300,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-12, -1e-12, 4e-10, 1e-10,
    *BOUNDARY_PARAMETERS,
]

parameters = st.one_of(
    st.sampled_from(SPECIAL_PARAMETERS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-9, max_value=1e-9),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@st.composite
def excitation_terms(draw, n_qubits):
    rank = draw(st.sampled_from((1, 2)))
    modes = draw(st.lists(
        st.integers(0, n_qubits - 1), min_size=2 * rank, max_size=2 * rank, unique=True
    ))
    return ExcitationTerm(creation=tuple(modes[:rank]), annihilation=tuple(modes[rank:]))


@st.composite
def transforms(draw, n_qubits):
    kind = draw(st.sampled_from(("jw", "bk", "parity", "gamma", "identity-gamma")))
    if kind == "jw":
        return JordanWignerTransform(n_qubits)
    if kind == "bk":
        return BravyiKitaevTransform(n_qubits)
    if kind == "parity":
        return ParityTransform(n_qubits)
    if kind == "identity-gamma":
        return LinearEncodingTransform(identity_matrix(n_qubits))
    # A random invertible Γ as the matrix of a random CNOT network.
    pair = st.tuples(st.integers(0, n_qubits - 1), st.integers(0, n_qubits - 1)).filter(
        lambda cnot: cnot[0] != cnot[1]
    )
    cnots = draw(st.lists(pair, min_size=1, max_size=3 * n_qubits))
    return LinearEncodingTransform(cnot_network_matrix(n_qubits, cnots))


@st.composite
def requests(draw):
    n_qubits = draw(st.one_of(st.integers(4, 12), st.integers(60, 72)))
    terms = draw(st.lists(excitation_terms(n_qubits), max_size=5))
    thetas = draw(st.lists(parameters, min_size=len(terms), max_size=len(terms)))
    return terms, draw(transforms(n_qubits)), thetas


def reference(terms, transform, thetas):
    rotations = []
    for index, (term, theta) in enumerate(zip(terms, thetas)):
        rotations += excitation_to_rotations(term, transform, theta, term_index=index)
    return rotations


def fingerprint(rotations):
    return [
        (rotation.string, type(rotation.angle), rotation.angle.hex(), rotation.term_index)
        for rotation in rotations
    ]


class TestAgainstScalarReference:
    @given(requests())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, request):
        terms, transform, thetas = request
        rotations = terms_to_rotations(terms, transform, thetas)
        expected = fingerprint(reference(terms, transform, thetas))
        # The planes read as a sequence: indexing, then iteration, of items
        # typed as the scalar path types them.
        assert isinstance(rotations, RotationPlanes)
        assert len(rotations) == len(expected)
        assert fingerprint(rotations[i] for i in range(len(rotations))) == expected
        assert fingerprint(rotations) == expected
        assert all(
            type(rotation) is PauliRotation and type(rotation.term_index) is int
            for rotation in rotations
        )

    @pytest.mark.parametrize("transform", [
        JordanWignerTransform(70), BravyiKitaevTransform(70), ParityTransform(70),
    ], ids=["jw", "bk", "parity"])
    def test_word_boundary_terms(self, transform):
        """Modes on both sides of the 64-qubit word edge, at θ = 1 and θ = −0.3."""
        terms = [
            ExcitationTerm(creation=(64, 69), annihilation=(3, 63)),
            ExcitationTerm(creation=(65,), annihilation=(0,)),
            ExcitationTerm(creation=(66, 67), annihilation=(62, 63)),
        ]
        for thetas in ([1.0] * 3, [-0.3] * 3):
            rotations = terms_to_rotations(terms, transform, thetas)
            assert len(rotations) == 8 + 2 + 8
            assert fingerprint(rotations) == fingerprint(reference(terms, transform, thetas))

    def test_angles_are_the_closed_form(self):
        """Doubles rotate by ∓θ/4 and singles by ∓θ, exactly."""
        theta = 0.1
        double = ExcitationTerm(creation=(4, 5), annihilation=(0, 2))
        single = ExcitationTerm(creation=(3,), annihilation=(1,))
        rotations = terms_to_rotations([double, single], JordanWignerTransform(6), [theta] * 2)
        assert {abs(r.angle) for r in rotations if r.term_index == 0} == {theta / 4}
        assert {abs(r.angle) for r in rotations if r.term_index == 1} == {theta}

    def test_jordan_wigner_planes_are_the_rotations(self):
        """The kernel's JW planes hold the rotations, each term in expansion order."""
        terms = [
            ExcitationTerm(creation=(5, 7), annihilation=(0, 2)),
            ExcitationTerm(creation=(6,), annihilation=(1,)),
        ]
        planes = jordan_wigner_rotations(terms, 8, [0.7, -1.1])
        rotations = terms_to_rotations(terms, JordanWignerTransform(8), [0.7, -1.1])
        assert planes.term_index.tolist() == [0] * 8 + [1] * 2
        assert sorted(zip(planes.strings.to_strings(), planes.angles.tolist())) == sorted(
            (r.string, r.angle) for r in rotations
        )


@pytest.fixture
def fresh_memo():
    """An empty per-term memo before and after the test."""
    terms_to_paulis._term_planes.cache_clear()
    yield terms_to_paulis._term_planes
    terms_to_paulis._term_planes.cache_clear()


@st.composite
def repeated_requests(draw):
    """Terms drawn with repeats from a small pool, at a few θ values including 0.

    Every term fits 64 qubits, so the request compiles on one packed word
    (64 qubits) and on two (65) alike.
    """
    pool = draw(st.lists(excitation_terms(64), min_size=1, max_size=3))
    thetas = st.sampled_from([0.0, -0.0, 1.0, 0.3, -0.3, 1e-11])
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), thetas), max_size=8))
    return [term for term, _ in pairs], [theta for _, theta in pairs]


class TestTermMemo:
    """Each term's expansion is memoized per (term, θ, packed word count)."""

    @given(repeated_requests(), st.sampled_from([64, 65]))
    @settings(max_examples=150, deadline=None)
    def test_memoized_expansion_matches_the_scalar_reference(self, request, n_qubits):
        terms, thetas = request
        transform = JordanWignerTransform(n_qubits)
        expected = fingerprint(reference(terms, transform, thetas))
        # Twice: the second call is served entirely from the memo.
        for _ in range(2):
            assert fingerprint(terms_to_rotations(terms, transform, thetas)) == expected
            planes = jordan_wigner_rotations(terms, n_qubits, thetas)
            assert planes.strings.n_words == (n_qubits + 63) // 64
            assert sorted(fingerprint(planes)) == sorted(expected)

    def test_one_term_under_two_thetas_and_widths(self, fresh_memo):
        term = ExcitationTerm(creation=(40, 63), annihilation=(2, 5))
        for n_qubits in (64, 65):
            for theta in (0.5, -2.0):
                expected = reference([term], JordanWignerTransform(n_qubits), [theta])
                rotations = terms_to_rotations([term], JordanWignerTransform(n_qubits), [theta])
                assert fingerprint(rotations) == fingerprint(expected)
        assert fresh_memo.cache_info().misses == 4

    def test_closed_form_runs_once_per_distinct_term(self, fresh_memo):
        single = ExcitationTerm(creation=(3,), annihilation=(0,))
        double = ExcitationTerm(creation=(4, 5), annihilation=(0, 1))
        terms = [single, double, single, double, single]
        thetas = [1.0, 1.0, 1.0, 0.0, 1.0]
        first = jordan_wigner_rotations(terms, 6, thetas)
        second = jordan_wigner_rotations(terms, 8, thetas)
        info = fresh_memo.cache_info()
        assert (info.misses, info.hits) == (3, 7)
        # θ = 0 drops every string of the fourth term.
        assert first.term_index.tolist() == [0] * 2 + [1] * 8 + [2] * 2 + [4] * 2
        np.testing.assert_array_equal(first.strings.x, second.strings.x)
        assert (first.strings.n_qubits, second.strings.n_qubits) == (6, 8)

    def test_writing_into_returned_planes_changes_no_later_result(self, fresh_memo):
        terms = [ExcitationTerm(creation=(4, 5), annihilation=(0, 1))] * 2
        thetas = [0.7, 0.7]
        expected = fingerprint(reference(terms, JordanWignerTransform(6), thetas))
        for planes in (
            jordan_wigner_rotations(terms, 6, thetas),
            terms_to_rotations(terms, JordanWignerTransform(6), thetas),
        ):
            planes.strings.x[:] = 0
            planes.strings.z[:] = 0
            planes.angles[:] = 0.0
            planes.term_index[:] = 9
        assert fingerprint(terms_to_rotations(terms, JordanWignerTransform(6), thetas)) == (
            expected
        )
        for row in fresh_memo((4, 5), (0, 1), 0.7, 1):
            assert not row.flags.writeable

    def test_empty_request_keeps_dtypes_and_width(self):
        planes = jordan_wigner_rotations([], 70)
        assert planes.strings.x.shape == (0, 2) and planes.strings.x.dtype == np.uint64
        assert planes.angles.dtype == np.float64 and planes.term_index.dtype == np.int64


class _DoublingTransform(FermionQubitTransform):
    """A transform that is not a linear encoding: JW ladder images scaled by two."""

    def annihilation_operator(self, mode):
        return 2.0 * JordanWignerTransform(self.n_modes).annihilation_operator(mode)


class TestCallContract:
    def test_mode_outside_register_raises_before_any_work(self, monkeypatch):
        def no_work(ladders):
            raise AssertionError("expanded a term before validating the register")

        monkeypatch.setattr(terms_to_paulis, "_ladder_product", no_work)
        monkeypatch.setattr(terms_to_paulis, "_term_planes", no_work)
        terms = [
            ExcitationTerm(creation=(2,), annihilation=(0,)),
            ExcitationTerm(creation=(4, 6), annihilation=(0, 1)),
        ]
        for transform in (JordanWignerTransform(6), BravyiKitaevTransform(6)):
            with pytest.raises(ValueError, match="mode 6 but transform covers only 6"):
                terms_to_rotations(terms, transform)

    def test_non_linear_encoding_raises_type_error(self):
        terms = [ExcitationTerm(creation=(2,), annihilation=(0,))]
        with pytest.raises(TypeError, match="_DoublingTransform"):
            terms_to_rotations(terms, _DoublingTransform(3))
        # The scalar reference still takes any transform.
        assert len(excitation_to_rotations(terms[0], _DoublingTransform(3))) == 2

    @pytest.mark.parametrize("transform", [
        JordanWignerTransform(5), BravyiKitaevTransform(5),
        LinearEncodingTransform(cnot_network_matrix(5, [(0, 3), (4, 1)])),
    ], ids=["jw", "bk", "gamma"])
    def test_empty_term_list(self, transform):
        assert len(terms_to_rotations([], transform)) == 0
        assert len(terms_to_rotations([], transform, [])) == 0

    def test_parameter_count_must_match(self):
        terms = [ExcitationTerm(creation=(2,), annihilation=(0,))]
        with pytest.raises(ValueError, match="one parameter per excitation term"):
            terms_to_rotations(terms, JordanWignerTransform(3), [1.0, 2.0])

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_raises(self, theta):
        terms = [ExcitationTerm(creation=(2,), annihilation=(0,))] * 2
        with pytest.raises(ValueError, match="of term 1 is not finite"):
            terms_to_rotations(terms, BravyiKitaevTransform(3), [0.5, theta])

    def test_non_anti_hermitian_generator_raises(self, monkeypatch, fresh_memo):
        """A phase slip of one power of i turns the coefficients real; it must not compile."""
        ladder_product = terms_to_paulis._ladder_product

        def slipped(ladders):
            x, z, base, annihilated = ladder_product(ladders)
            return x, z, base + 1, annihilated

        monkeypatch.setattr(terms_to_paulis, "_ladder_product", slipped)
        terms = [ExcitationTerm(creation=(3, 4), annihilation=(0, 1), importance=0.5)]
        message = (
            "generator of ExcitationTerm(a^3 a^4 a0 a1, class=hybrid) "
            "produced a non-anti-hermitian coefficient (0.125+0j)"
        )
        with pytest.raises(ValueError) as raised:
            terms_to_rotations(terms, JordanWignerTransform(5))
        assert str(raised.value) == message
        # Below the tolerance a real part is as negligible as an imaginary one.
        assert len(terms_to_rotations(terms, JordanWignerTransform(5), [1e-11])) == 0


class TestConjugatePlanes:
    def test_signs_match_operator_conjugation(self):
        transform = BravyiKitaevTransform(9)
        jw = JordanWignerTransform(9)
        term = ExcitationTerm(creation=(5, 8), annihilation=(0, 3))
        image = jw.transform(term.generator(1.0))
        planes, signs = transform.conjugate_planes(PackedPaulis.from_strings(image.terms))
        conjugated = transform.conjugate(image)
        for string, sign, coefficient in zip(
            planes.to_strings(), signs.tolist(), image.terms.values()
        ):
            assert conjugated.terms[string] == sign * coefficient
        assert set(np.unique(signs).tolist()) <= {-1, 1}
