"""The greedy walk and the Γ search against their per-step references.

``greedy_walk_reference`` keeps the walk as it was before it built one
same-target table per visited target: it gathers a savings row at every
step.  The package walk must visit the same vertices, take the same first
maxima and return the same cost, with and without a distance matrix.

Along a seeded simulated-annealing walk, the Γ search carries every
block's GF(2) inverse instead of inverting candidates, and hands the cost
a transform built on trust from the carried pair: every carried inverse
must equal ``gf2_inverse`` of its block.  ``GreedySortingCost`` memoizes
the walk on the label-ordered encoded strings, so every score it returns
must equal a fresh ``greedy_sort`` of the rotations a fully checked
``LinearEncodingTransform(Γ)`` yields, the search must return what it
returns under an unmemoized cost, and the walk must run once per distinct
label-ordered string set.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import greedy_walk_reference as reference
import repro.core.gamma_search as gamma_search
from repro.core import GreedySortingCost, search_block_diagonal_gamma
from repro.core.advanced_sorting import greedy_sort, greedy_walk
from repro.core.terms_to_paulis import jordan_wigner_rotations, terms_to_rotations
from repro.hardware import Topology
from repro.operators import PackedPaulis, PauliString
from repro.transforms import LinearEncodingTransform, gf2_inverse, identity_matrix
from repro.vqe import ExcitationTerm


@st.composite
def string_sets(draw):
    """Up to 24 non-identity strings on 2..10 qubits, letter-heavy or sparse."""
    n = draw(st.integers(2, 10))
    alphabet = draw(st.sampled_from(["IXYZ", "IIIXYZ", "IZ", "IIXZ"]))
    label = st.text(alphabet, min_size=n, max_size=n).filter(lambda text: set(text) != {"I"})
    labels = draw(st.lists(label, min_size=1, max_size=24))
    return PackedPaulis.from_strings(PauliString(text) for text in labels)


@settings(max_examples=200, deadline=None)
@given(string_sets(), st.sampled_from([None, "line", "ring"]))
def test_walk_matches_the_per_step_reference(strings, layout):
    distance = None
    if layout is not None:
        distance = getattr(Topology, layout)(strings.n_qubits).distance_matrix
    walk = greedy_walk(strings, distance)
    expected = reference.greedy_walk(strings, distance)
    assert (walk.rows, walk.targets, walk.cost) == (
        expected.rows, expected.targets, expected.cost
    )
    assert all(type(value) is int for value in walk.rows + walk.targets + [walk.cost])


@st.composite
def excitation_sets(draw):
    """4..12 orbitals, 1..6 singles and doubles, with or without parameters."""
    n = draw(st.integers(4, 12))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        rank = draw(st.sampled_from([1, 2, 2]))
        indices = draw(st.permutations(range(n)))[: 2 * rank]
        terms.append(
            ExcitationTerm(creation=tuple(indices[:rank]), annihilation=tuple(indices[rank:]))
        )
    parameters = draw(
        st.none()
        | st.lists(
            st.sampled_from([0.0, 1.0, -0.5, 0.3]), min_size=len(terms), max_size=len(terms)
        )
    )
    return n, terms, parameters


def fresh_score(terms, gamma, parameters, topology):
    """The objective from scratch: transform, then ``greedy_sort``."""
    rotations = terms_to_rotations(terms, LinearEncodingTransform(gamma), parameters)
    return greedy_sort(rotations, topology).objective()


def ordered_strings_key(strings):
    return strings.x.tobytes() + strings.z.tobytes()


def counting_walks():
    """A list of the strings every walk gets, and the patch of the cost's walk that fills it."""
    walked = []

    def counted_walk(strings, distance_matrix=None):
        walked.append(ordered_strings_key(strings))
        return greedy_walk(strings, distance_matrix)

    return walked, mock.patch.object(gamma_search, "greedy_walk", counted_walk)


@settings(max_examples=40, deadline=None)
@given(excitation_sets(), st.integers(0, 2**32 - 1), st.booleans())
def test_annealing_carries_exact_inverses_and_scores(case, seed, on_line):
    n, terms, parameters = case
    topology = Topology.line(n) if on_line else None
    cost = GreedySortingCost(terms, n, parameters, topology=topology)
    update = gamma_search._random_elementary_update
    updates, scores = [], []

    def checked_update(block, inverse, rng):
        update(block, inverse, rng)
        updates.append(inverse.tobytes() == gf2_inverse(block).tobytes())

    def checked_cost(transform):
        score = cost(transform)
        scores.append((
            transform._gamma_inverse.tobytes() == gf2_inverse(transform.gamma).tobytes(),
            score == fresh_score(terms, transform.gamma, parameters, topology),
        ))
        return score

    with mock.patch.object(gamma_search, "_random_elementary_update", checked_update):
        result = search_block_diagonal_gamma(
            terms, n, checked_cost, n_steps=30, rng=np.random.default_rng(seed)
        )
    assert len(updates) == result.n_steps
    assert len(scores) == result.n_evaluations
    assert all(updates)
    assert all(inverse and score for inverse, score in scores)


@settings(max_examples=40, deadline=None)
@given(excitation_sets(), st.integers(0, 2**32 - 1), st.booleans())
def test_walk_memo_changes_nothing_but_the_walk_count(case, seed, on_line):
    """The memoized search returns what the unmemoized one does, and walks
    each distinct label-ordered string set exactly once."""
    n, terms, parameters = case
    topology = Topology.line(n) if on_line else None
    planes = jordan_wigner_rotations(terms, n, parameters)
    cost = GreedySortingCost(terms, n, parameters, topology=topology)
    encodings = set()
    walked, patch = counting_walks()

    def recorded_cost(transform):
        encodings.add(ordered_strings_key(planes.encoded(transform).strings))
        return cost(transform)

    with patch:
        memoized = search_block_diagonal_gamma(
            terms, n, recorded_cost, n_steps=40, rng=np.random.default_rng(seed)
        )
    unmemoized = search_block_diagonal_gamma(
        terms, n, lambda transform: fresh_score(terms, transform.gamma, parameters, topology),
        n_steps=40, rng=np.random.default_rng(seed),
    )
    fields = ("cnot_count", "n_steps", "degraded", "n_evaluations", "n_cache_hits")
    assert memoized.gamma.tobytes() == unmemoized.gamma.tobytes()
    assert [getattr(memoized, f) for f in fields] == [getattr(unmemoized, f) for f in fields]
    assert sorted(walked) == sorted(encodings)
    assert len(walked) == len(set(walked)) == cost.n_walks
    assert 1 <= cost.n_walks <= memoized.n_evaluations


def test_gammas_that_permute_a_terms_strings_share_one_walk():
    """Swapping modes 4 and 6 maps the strings of a†4 a†6 a2 a0 onto a
    permutation of themselves: the raw images differ, the label-ordered
    strings do not, so the second Γ is scored without a walk."""
    n = 7
    terms = [ExcitationTerm(creation=(4, 6), annihilation=(0, 2))]
    swap = identity_matrix(n)
    swap[[4, 6]] = swap[[6, 4]]
    identity, swapped = LinearEncodingTransform(identity_matrix(n)), LinearEncodingTransform(swap)
    planes = jordan_wigner_rotations(terms, n)
    raw, _ = swapped.conjugate_planes(planes.strings)
    assert raw.x.tobytes() + raw.z.tobytes() != ordered_strings_key(planes.strings)
    assert ordered_strings_key(planes.encoded(swapped).strings) == ordered_strings_key(
        planes.encoded(identity).strings
    )

    for topology in (None, Topology.line(n)):
        cost = GreedySortingCost(terms, n, topology=topology)
        walked, patch = counting_walks()
        with patch:
            scores = [cost(identity), cost(swapped), cost(identity)]
        assert scores == [fresh_score(terms, swap, None, topology)] * 3
        assert len(walked) == cost.n_walks == 1
