"""Property-based differential tests: symplectic engine vs legacy label semantics.

The bit-packed :class:`~repro.operators.pauli.PauliString` core must be an
exact drop-in for the historical label-tuple implementation.  These tests
keep a minimal copy of the legacy semantics (per-qubit dictionary lookups, as
the seed code implemented them) and assert on random strings — including
strings wider than one 64-bit word — that products, phases, commutation,
hermiticity, matrix exports, hashing and the total order all agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.circuits import Circuit, cnot, interface_cnot_reduction
from repro.operators import (
    PackedPaulis,
    PauliString,
    SameTargetSavings,
    lexicographic_order,
    linear_encoding_image,
    weight_vector,
)
from repro.operators.pauli import PAULI_MATRICES, _PAULI_PRODUCTS
from repro.transforms import cnot_network_matrix, gf2_inverse
from repro.verify import CliffordTableau


# ----------------------------------------------------------------------
# Legacy reference semantics (label tuples + per-qubit dict lookups)
# ----------------------------------------------------------------------
def legacy_multiply(a: str, b: str):
    phase = complex(1.0)
    labels = []
    for la, lb in zip(a, b):
        factor, product = _PAULI_PRODUCTS[(la, lb)]
        phase *= factor
        labels.append(product)
    return phase, "".join(labels)


def legacy_commutes(a: str, b: str) -> bool:
    anticommuting = sum(
        1 for la, lb in zip(a, b) if la != "I" and lb != "I" and la != lb
    )
    return anticommuting % 2 == 0


def legacy_dense(label: str) -> np.ndarray:
    matrix = sparse.identity(1, format="csr", dtype=complex)
    for single in label:
        matrix = sparse.kron(
            matrix, sparse.csr_matrix(PAULI_MATRICES[single]), format="csr"
        )
    return matrix.toarray()


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def labels(n_min=1, n_max=8):
    return st.text(alphabet="IXYZ", min_size=n_min, max_size=n_max)


def label_pairs(n_min=1, n_max=8):
    """Two equal-length random label strings."""
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.tuples(labels(n, n), labels(n, n))
    )


#: Wide strings cross the 64-qubit word boundary of the packed batch layout.
WIDE = st.integers(60, 70).flatmap(lambda n: st.tuples(labels(n, n), labels(n, n)))


# ----------------------------------------------------------------------
# Scalar engine vs legacy semantics
# ----------------------------------------------------------------------
class TestScalarAgainstLegacy:
    @given(label_pairs())
    @settings(max_examples=150, deadline=None)
    def test_product_label_and_phase(self, pair):
        a, b = pair
        phase, product = PauliString(a).multiply(PauliString(b))
        legacy_phase, legacy_label = legacy_multiply(a, b)
        assert product.to_label() == legacy_label
        assert phase == legacy_phase

    @given(WIDE)
    @settings(max_examples=30, deadline=None)
    def test_product_label_and_phase_wide(self, pair):
        a, b = pair
        phase, product = PauliString(a).multiply(PauliString(b))
        legacy_phase, legacy_label = legacy_multiply(a, b)
        assert product.to_label() == legacy_label
        assert phase == legacy_phase

    @given(label_pairs())
    @settings(max_examples=150, deadline=None)
    def test_commutation(self, pair):
        a, b = pair
        assert PauliString(a).commutes_with(PauliString(b)) == legacy_commutes(a, b)

    @given(labels(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_dense_and_sparse_match_kronecker(self, label):
        string = PauliString(label)
        reference = legacy_dense(label)
        assert np.allclose(string.to_dense(), reference)
        assert np.allclose(string.to_sparse().toarray(), reference)

    @given(labels(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_hermiticity_and_unitarity(self, label):
        matrix = PauliString(label).to_dense()
        assert np.allclose(matrix, matrix.conj().T)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(matrix.shape[0]))

    @given(labels(1, 70))
    @settings(max_examples=80, deadline=None)
    def test_weight_support_roundtrip(self, label):
        string = PauliString(label)
        assert string.weight == sum(1 for c in label if c != "I")
        assert string.support == tuple(i for i, c in enumerate(label) if c != "I")
        assert string.to_label() == label
        assert tuple(string) == tuple(label)

    @given(labels(1, 70))
    @settings(max_examples=80, deadline=None)
    def test_hash_stability(self, label):
        # Equal strings hash equal no matter how they were constructed.
        via_labels = PauliString(label)
        via_masks = PauliString.from_bitmasks(
            len(label), via_labels.x_mask, via_labels.z_mask
        )
        via_dict = PauliString.from_dict(
            len(label), {i: c for i, c in enumerate(label) if c != "I"}
        )
        assert via_labels == via_masks == via_dict
        assert hash(via_labels) == hash(via_masks) == hash(via_dict)
        assert len({via_labels, via_masks, via_dict}) == 1

    @given(st.lists(labels(3, 3), min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_order_matches_label_tuples(self, label_list):
        strings = sorted(PauliString(label) for label in label_list)
        reference = sorted(tuple(label) for label in label_list)
        assert [tuple(s.labels) for s in strings] == reference

    def test_order_across_lengths_matches_tuple_prefix_rule(self):
        assert PauliString("IX") < PauliString("IXZ")
        assert not PauliString("IXZ") < PauliString("IX")
        assert PauliString("IY") > PauliString("IXZ")


# ----------------------------------------------------------------------
# Batched (numpy-packed) engine vs the scalar engine
# ----------------------------------------------------------------------
class TestBatchedAgainstScalar:
    @given(st.integers(1, 70).flatmap(
        lambda n: st.lists(labels(n, n), min_size=1, max_size=6)
    ))
    @settings(max_examples=60, deadline=None)
    def test_packing_and_weight_vector(self, label_list):
        strings = [PauliString(label) for label in label_list]
        packed = PackedPaulis.from_strings(strings)
        assert [s.to_label() for s in packed.to_strings()] == label_list
        assert weight_vector(packed).tolist() == [s.weight for s in strings]

    @given(st.integers(2, 70).flatmap(
        lambda n: st.lists(labels(n, n), min_size=1, max_size=5)
    ))
    @settings(max_examples=60, deadline=None)
    def test_pairs_match_scalar_rule(self, label_list):
        """Every ordered pair of (string, support qubit) vertices, as the GTSP
        enumerates them: the diagonal, the same-target blocks and the zeros
        between different targets, across the 64-qubit word boundary."""
        strings = [PauliString(label) for label in label_list]
        vertices = [(i, t) for i, string in enumerate(strings) for t in string.support]
        if not vertices:
            return
        rows, targets = zip(*vertices)
        matrix = SameTargetSavings(strings).pairs(rows, targets)
        packed = SameTargetSavings(PackedPaulis.from_strings(strings))
        assert np.array_equal(matrix, packed.pairs(rows, targets))
        for a, (i, t) in enumerate(vertices):
            for b, (j, u) in enumerate(vertices):
                assert matrix[a, b] == interface_cnot_reduction(
                    strings[i], t, strings[j], u
                )

    @pytest.mark.parametrize(
        "target", [1, -1, 2, 64], ids=["off-support", "negative", "at-n-qubits", "past-n-qubits"]
    )
    def test_pairs_reject_bad_targets(self, target):
        savings = SameTargetSavings([PauliString("XZ"), PauliString("XI")])
        with pytest.raises(ValueError, match=f"target {target} not in support of XI"):
            savings.pairs([0, 1], [0, target])
        with pytest.raises(ValueError, match="not in support of XI"):
            interface_cnot_reduction(PauliString("XZ"), 0, PauliString("XI"), target)

    def test_pairs_shapes(self):
        savings = SameTargetSavings([PauliString("XZ")])
        assert savings.pairs([], []).shape == (0, 0)
        with pytest.raises(ValueError, match="one target per row"):
            savings.pairs([0], [0, 1])

    @given(st.integers(2, 70).flatmap(
        lambda n: st.lists(labels(n, n), min_size=1, max_size=6)
    ))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_pairs(self, label_list):
        """Rows of the per-target tables equal the pair matrix on every
        same-target pair, and the scalar rule's interface-CNOT cap never
        binds there: a saving is at most 2 both ≤ w_i + w_j - 2."""
        strings = [PauliString(label) for label in label_list]
        vertices = [(i, t) for i, string in enumerate(strings) for t in string.support]
        if not vertices:
            return
        savings = SameTargetSavings(PackedPaulis.from_strings(strings))
        matrix = savings.pairs(*zip(*vertices))
        weights = weight_vector(strings)
        for a, (i, t) in enumerate(vertices):
            row = savings.on_target(t)[i]
            for b, (j, u) in enumerate(vertices):
                if u != t:
                    continue
                assert row[j] == matrix[a, b]
                assert row[j] <= 2 * savings.both[i, j] <= weights[i] + weights[j] - 2


    @given(
        st.integers(2, 70).flatmap(
            lambda n: st.lists(labels(n, n), min_size=1, max_size=6)
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_consecutive_is_the_pairs_superdiagonal(self, label_list, data):
        """Any vertex sequence, repeats and target changes included."""
        strings = [PauliString(label) for label in label_list]
        vertices = [(i, t) for i, string in enumerate(strings) for t in string.support]
        if not vertices:
            return
        sequence = data.draw(st.lists(st.sampled_from(vertices), max_size=12), label="sequence")
        rows = [row for row, _ in sequence]
        targets = [target for _, target in sequence]
        savings = SameTargetSavings(PackedPaulis.from_strings(strings))
        consecutive = savings.consecutive(rows, targets)
        assert consecutive.dtype == np.int64 and consecutive.shape == (max(len(rows) - 1, 0),)
        assert np.array_equal(consecutive, np.diagonal(savings.pairs(rows, targets), 1))

    @pytest.mark.parametrize(
        "target", [1, -1, 2, 64], ids=["off-support", "negative", "at-n-qubits", "past-n-qubits"]
    )
    def test_consecutive_rejects_bad_targets_as_pairs_does(self, target):
        savings = SameTargetSavings([PauliString("XZ"), PauliString("XI")])
        with pytest.raises(ValueError, match=f"target {target} not in support of XI"):
            savings.consecutive([0, 1], [0, target])
        with pytest.raises(ValueError, match="one target per row"):
            savings.consecutive([0], [0, 1])

    @given(
        st.integers(2, 70).flatmap(
            lambda n: st.lists(labels(n, n), min_size=1, max_size=6)
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_read_the_pairs_matrix(self, label_list, data):
        """Each run's matrix is the tail-rows × head-columns block of the
        pairs matrix over tails followed by heads."""
        strings = [PauliString(label) for label in label_list]
        vertices = [(i, t) for i, string in enumerate(strings) for t in string.support]
        if not vertices:
            return
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="sizes")
        count = sum(sizes)
        vertex_lists = st.lists(st.sampled_from(vertices), min_size=count, max_size=count)
        tails = data.draw(vertex_lists, label="tails")
        heads = data.draw(st.one_of(st.just(tails), vertex_lists), label="heads")
        savings = SameTargetSavings(PackedPaulis.from_strings(strings))
        tail_vertices, head_vertices = tuple(zip(*tails)), tuple(zip(*heads))
        blocks = savings.blocks(tail_vertices, head_vertices, sizes)
        matrix = savings.pairs(*zip(*(tails + heads)))
        offset = 0
        for size, block in zip(sizes, blocks):
            run = slice(offset, offset + size)
            head_run = slice(count + offset, count + offset + size)
            assert np.array_equal(block, matrix[run, head_run])
            offset += size
        assert len(blocks) == len(sizes)

    def test_blocks_reject_bad_targets_and_lengths(self):
        savings = SameTargetSavings([PauliString("XZ"), PauliString("XI")])
        with pytest.raises(ValueError, match="target 1 not in support of XI"):
            savings.blocks(([0], [0]), ([1], [1]), [1])
        with pytest.raises(ValueError, match="sum\\(sizes\\) vertices"):
            savings.blocks(([0, 1], [0, 0]), ([1], [0]), [1])
        with pytest.raises(ValueError, match="sum\\(sizes\\) vertices"):
            savings.blocks(([0, 1], [0, 0]), ([1, 0], [0, 0]), [3])

    def test_memoized_savings_leave_no_reference_cycle(self):
        """Strings and their memoized savings are freed by reference counting
        alone; a cycle would hold the tables until a collector pass."""
        import gc
        import weakref

        packed = PackedPaulis.from_strings([PauliString("XZ"), PauliString("ZX")])
        packed.same_target_savings.on_target(0)
        alive = weakref.ref(packed)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del packed
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_tables_built_for_rows_only(self):
        """``pairs``, ``blocks`` and ``consecutive`` count their pairs from
        the planes; the (m, m) tables appear on the first ``on_target``."""
        savings = SameTargetSavings([PauliString("XZ"), PauliString("XX"), PauliString("ZX")])
        savings.consecutive([0, 1, 2], [0, 0, 1])
        savings.blocks(([0, 1], [0, 0]), ([1, 0], [0, 0]), [2])
        savings.pairs([0, 1, 2], [0, 0, 1])
        assert "tables" not in vars(savings)
        savings.on_target(0)
        assert "tables" in vars(savings)


class TestSameTargetSavings:
    @pytest.mark.parametrize(
        "source, other, target, saving",
        [
            # Good collision, equal letters on the target and the other qubit.
            ("XX", "XX", 0, 2),
            # X against Z on the target: bad, only the shared qubit saves.
            ("XX", "ZX", 0, 1),
            ("ZZ", "ZZ", 1, 2),
            # Y and X both carry an X component: good, the equal Z saves too.
            ("YZ", "XZ", 0, 2),
            ("XYZ", "XXX", 0, 2),
        ],
    )
    def test_worked_rows(self, source, other, target, saving):
        savings = SameTargetSavings([PauliString(source), PauliString(other)])
        assert savings.on_target(target)[0, 1] == saving

    def test_tables_on_the_diagonal(self):
        strings = [PauliString(label) for label in ("XIZY", "IIZI", "YYYY")]
        savings = SameTargetSavings(strings)
        weights = weight_vector(strings)
        assert np.array_equal(np.diag(savings.both), weights - 1)
        assert np.array_equal(np.diag(savings.equal), weights)
        assert np.array_equal(savings.both, savings.both.T)
        assert np.array_equal(savings.equal, savings.equal.T)

    def test_letter_codes(self):
        savings = SameTargetSavings([PauliString("IXZY")])
        assert savings.letters[:, 0].tolist() == [0, 1, 2, 3]

    def test_pauli_strings_and_packed_planes_agree(self):
        strings = [PauliString(label) for label in ("XYZI", "ZZXX", "IYIY")]
        direct = SameTargetSavings(strings)
        packed = SameTargetSavings(PackedPaulis.from_strings(strings))
        for name in ("both", "equal", "letters"):
            assert np.array_equal(getattr(direct, name), getattr(packed, name))
        assert np.array_equal(direct.on_target(2), packed.on_target(2))


# ----------------------------------------------------------------------
# Linear-encoding map on bit-planes vs the Clifford tableau
# ----------------------------------------------------------------------
class TestLinearEncodingImage:
    @given(
        st.integers(2, 70).flatmap(
            lambda n: st.tuples(
                st.integers(0, 2**32 - 1),
                st.lists(labels(n, n), min_size=1, max_size=6, unique=True),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_tableau_conjugation(self, case):
        """x -> Γx, z -> Γ^{-T}z equals conjugating by a CNOT circuit for Γ."""
        seed, label_list = case
        n = len(label_list[0])
        rng = np.random.default_rng(seed)
        cnots = [tuple(int(q) for q in rng.choice(n, 2, replace=False)) for _ in range(2 * n)]
        gamma = cnot_network_matrix(n, cnots)
        strings = [PauliString(label) for label in label_list]
        image = linear_encoding_image(strings, gamma, gf2_inverse(gamma))

        tableau = CliffordTableau.from_circuit(Circuit(n, [cnot(c, t) for c, t in cnots]))
        expected = [tableau.conjugate(string)[1] for string in strings]
        assert image.to_strings() == expected
        assert image.n_words == PackedPaulis.from_strings(strings).n_words

    @pytest.mark.parametrize("n", [3, 64, 100])
    def test_empty_collection_keeps_the_register(self, n):
        identity = np.eye(n, dtype=np.uint8)
        image = linear_encoding_image([], identity, identity)
        assert (len(image), image.n_qubits, image.n_words) == (0, n, -(-n // 64))

    def test_identity_is_a_no_op(self):
        strings = [PauliString("XYZI"), PauliString("ZZIX")]
        identity = np.eye(4, dtype=np.uint8)
        image = linear_encoding_image(strings, identity, identity)
        assert image.to_strings() == strings

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="3×3"):
            linear_encoding_image([PauliString("XYZ")], np.eye(2), np.eye(2))


class TestLexicographicOrder:
    @given(st.integers(1, 70).flatmap(
        lambda n: st.lists(labels(n, n), min_size=1, max_size=10)
    ))
    @settings(max_examples=60, deadline=None)
    def test_matches_pauli_string_sort(self, label_list):
        strings = [PauliString(label) for label in label_list]
        order = lexicographic_order(strings)
        assert [strings[i] for i in order] == sorted(strings)

    @given(
        st.lists(st.tuples(st.integers(0, 3), labels(5, 5)), min_size=1, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_groups_are_the_primary_key(self, items):
        groups = [group for group, _ in items]
        strings = [PauliString(label) for _, label in items]
        order = lexicographic_order(PackedPaulis.from_strings(strings), groups=groups)
        expected = sorted(range(len(items)), key=lambda i: (groups[i], strings[i]))
        assert [(groups[i], strings[i]) for i in order] == [
            (groups[i], strings[i]) for i in expected
        ]
