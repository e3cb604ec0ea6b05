"""The greedy walk and the Γ search against their per-step references.

``greedy_walk_reference`` keeps the walk as it was before it built one
same-target table per visited target: it gathers a savings row at every
step.  The package walk must visit the same vertices, take the same first
maxima and return the same cost, with and without a distance matrix.

Along a seeded simulated-annealing walk, the Γ search carries every
block's GF(2) inverse instead of inverting candidates, and hands the cost
a transform built on trust from the carried pair: every carried inverse
must equal ``gf2_inverse`` of its block, and every score must equal
``GreedySortingCost`` under a fully checked ``LinearEncodingTransform(Γ)``.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import greedy_walk_reference as reference
import repro.core.gamma_search as gamma_search
from repro.core import GreedySortingCost, search_block_diagonal_gamma
from repro.core.advanced_sorting import greedy_walk
from repro.hardware import Topology
from repro.operators import PackedPaulis, PauliString
from repro.transforms import LinearEncodingTransform, gf2_inverse
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
    n = draw(st.integers(4, 12))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        rank = draw(st.sampled_from([1, 2, 2]))
        indices = draw(st.permutations(range(n)))[: 2 * rank]
        terms.append(
            ExcitationTerm(creation=tuple(indices[:rank]), annihilation=tuple(indices[rank:]))
        )
    return n, terms


@settings(max_examples=40, deadline=None)
@given(excitation_sets(), st.integers(0, 2**32 - 1), st.booleans())
def test_annealing_carries_exact_inverses_and_scores(case, seed, on_line):
    n, terms = case
    topology = Topology.line(n) if on_line else None
    cost = GreedySortingCost(terms, n, topology=topology)
    update = gamma_search._random_elementary_update
    updates, scores = [], []

    def checked_update(block, inverse, rng):
        update(block, inverse, rng)
        updates.append(inverse.tobytes() == gf2_inverse(block).tobytes())

    def checked_cost(transform):
        score = cost(transform)
        scores.append((
            transform._gamma_inverse.tobytes() == gf2_inverse(transform.gamma).tobytes(),
            score == cost(LinearEncodingTransform(transform.gamma)),
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
