"""Tests for the block-diagonal Γ simulated-annealing search (Sec. III-C)."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BaselineCompiler
from repro.circuits import interface_cnot_reduction
from repro.core import (
    GreedySortingCost,
    TermBlockCost,
    assemble_gamma,
    excitation_topology_blocks,
    greedy_sort,
    search_block_diagonal_gamma,
    terms_to_rotations,
)
from repro.hardware import Topology
from repro.operators import routed_vertex_cost_vector, weight_vector
from repro.core.gamma_search import (
    FINAL_TEMPERATURE,
    INITIAL_TEMPERATURE,
    MAX_BLOCK_SIZE,
    _random_elementary_update,
)
from repro.transforms import (
    LinearEncodingTransform,
    gf2_inverse,
    gf2_matmul,
    is_invertible,
    random_invertible_matrix,
)
from repro.vqe import ExcitationTerm


def term(creation, annihilation):
    return ExcitationTerm(creation=tuple(creation), annihilation=tuple(annihilation))


class TestTopologyBlocks:
    def test_appendix_c_example(self):
        """Appendix C: terms a†_9 a†_8 a_3 a_1 and a†_6 a†_5 a_2 a_1 (shifted to 0-based)."""
        terms = [term((7, 8), (0, 2)), term((4, 5), (0, 1))]
        blocks = excitation_topology_blocks(terms, n_qubits=9)
        block_sets = sorted(tuple(b) for b in blocks)
        assert block_sets == [(0, 1, 2), (4, 5), (7, 8)]

    def test_singletons_excluded(self):
        terms = [term((4,), (0,))]
        assert excitation_topology_blocks(terms, n_qubits=6) == []

    def test_large_components_split(self):
        terms = [
            term((4, 5), (0, 1)),
            term((5, 6), (1, 2)),
            term((6, 7), (2, 3)),
        ]
        blocks = excitation_topology_blocks(terms, n_qubits=8, max_block_size=3)
        assert all(2 <= len(block) <= 3 for block in blocks)
        covered = sorted(i for block in blocks for i in block)
        # The leftover singleton of each split component stays out of any block
        # (those modes are simply left untouched by Γ).
        assert covered == [0, 1, 2, 4, 5, 6]

    @given(
        st.lists(
            st.tuples(st.sets(st.integers(0, 13), min_size=2, max_size=2),
                      st.sets(st.integers(0, 13), min_size=2, max_size=2)),
            max_size=8,
        ),
        st.lists(st.integers(0, 13), max_size=2),
        st.integers(0, 14),
        st.integers(2, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_networkx_components(self, doubles, singles, n_qubits, max_block_size):
        """Union-find blocks equal the networkx components' chunks, in
        ``nx.connected_components`` order, also for indices past ``n_qubits``."""
        terms = [term(sorted(c), sorted(a)) for c, a in doubles if not c & a]
        terms += [term((index,), ((index + 1) % 14,)) for index in singles]
        graph = nx.Graph()
        graph.add_nodes_from(range(n_qubits))
        for t in terms:
            if t.is_double:
                graph.add_edge(*t.creation)
                graph.add_edge(*t.annihilation)
        expected = [
            chunk
            for component in nx.connected_components(graph)
            for indices in [sorted(component)] if len(indices) >= 2
            for start in range(0, len(indices), max_block_size)
            for chunk in [indices[start:start + max_block_size]] if len(chunk) >= 2
        ]
        assert excitation_topology_blocks(terms, n_qubits, max_block_size) == expected

    def test_assemble_gamma_invertible(self):
        blocks = [[0, 1], [3, 4, 5]]
        matrices = [np.array([[1, 1], [0, 1]]), np.eye(3, dtype=np.uint8)]
        gamma = assemble_gamma(6, blocks, matrices)
        assert is_invertible(gamma)
        assert gamma[0, 1] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_assemble_gamma_equals_product_of_embedded_blocks(self, seed):
        """Writing disjoint blocks in place gives the same bytes as the GF(2)
        product of one identity-embedded block per matrix."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        order = rng.permutation(n)
        cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(1, 4)), replace=False))
        blocks = [sorted(int(i) for i in chunk) for chunk in np.split(order, cuts)]
        blocks = [block for block in blocks if len(block) > 1]
        matrices = [random_invertible_matrix(len(block), rng) for block in blocks]
        expected = np.eye(n, dtype=np.uint8)
        for block, matrix in zip(blocks, matrices):
            embedded = np.eye(n, dtype=np.uint8)
            for row, i in enumerate(block):
                for col, j in enumerate(block):
                    embedded[i, j] = matrix[row, col]
            expected = gf2_matmul(embedded, expected)
        gamma = assemble_gamma(n, blocks, matrices)
        assert gamma.dtype == expected.dtype
        assert gamma.tobytes() == expected.tobytes()


class TestElementaryUpdate:
    @pytest.mark.parametrize("size", range(2, MAX_BLOCK_SIZE + 1))
    def test_adds_one_other_row_and_stays_invertible(self, size):
        """One row gains another, and the carried inverse stays the block's
        GF(2) inverse, step after step."""
        rng = np.random.default_rng(size)
        matrix = random_invertible_matrix(size, rng)
        inverse = gf2_inverse(matrix)
        for _ in range(20):
            updated, updated_inverse = matrix.copy(), inverse.copy()
            _random_elementary_update(updated, updated_inverse, rng)
            changed = np.flatnonzero((updated != matrix).any(axis=1))
            assert len(changed) == 1
            row = changed[0]
            sources = [
                col for col in range(size)
                if col != row and np.array_equal(updated[row], matrix[row] ^ matrix[col])
            ]
            assert sources
            assert is_invertible(updated)
            assert updated_inverse.tobytes() == gf2_inverse(updated).tobytes()
            matrix, inverse = updated, updated_inverse


class TestGammaSearch:
    def setup_method(self):
        self.terms = [
            term((4, 6), (0, 2)),
            term((5, 7), (1, 3)),
            term((4, 7), (0, 3)),
        ]
        self.n_qubits = 8

    def cost(self, transform):
        rotations = terms_to_rotations(self.terms, transform)
        return greedy_sort(rotations).cnot_count

    def gamma_cost(self, gamma):
        return self.cost(LinearEncodingTransform(gamma))

    def test_search_returns_invertible_gamma(self):
        result = search_block_diagonal_gamma(
            self.terms, self.n_qubits, self.cost, n_steps=10,
            rng=np.random.default_rng(0),
        )
        assert is_invertible(result.gamma)
        assert result.cnot_count > 0

    def test_search_never_worse_than_identity(self):
        identity_cost = self.gamma_cost(np.eye(self.n_qubits, dtype=np.uint8))
        result = search_block_diagonal_gamma(
            self.terms, self.n_qubits, self.cost, n_steps=20,
            rng=np.random.default_rng(1),
        )
        assert result.cnot_count <= identity_cost

    def test_no_blocks_returns_identity(self):
        singles = [term((4,), (0,))]
        result = search_block_diagonal_gamma(
            singles, 6, lambda transform: 1.0, n_steps=5, rng=np.random.default_rng(2)
        )
        assert np.array_equal(result.gamma, np.eye(6, dtype=np.uint8))
        assert result.blocks == []
        assert (result.n_evaluations, result.n_cache_hits) == (1, 0)

    def test_zero_steps_scores_the_identity_alone(self):
        calls = []

        def cost(transform):
            calls.append(transform.gamma.copy())
            return self.cost(transform)

        result = search_block_diagonal_gamma(
            self.terms, self.n_qubits, cost, n_steps=0, rng=np.random.default_rng(0)
        )
        identity = np.eye(self.n_qubits, dtype=np.uint8)
        assert result.blocks
        assert np.array_equal(result.gamma, identity)
        assert len(calls) == 1 and np.array_equal(calls[0], identity)
        assert (result.n_steps, result.degraded) == (0, False)
        assert result.cnot_count == self.gamma_cost(identity)

    def test_search_effort_counts_every_energy_call(self):
        """The initial Γ and every proposal are scored once each, either by
        a distinct objective call or by a memo hit."""
        calls = []

        def cost(transform):
            calls.append(transform.gamma.tobytes())
            return self.cost(transform)

        result = search_block_diagonal_gamma(
            self.terms, self.n_qubits, cost, n_steps=25,
            rng=np.random.default_rng(4),
        )
        assert result.n_evaluations == len(calls) == len(set(calls))
        assert result.n_evaluations + result.n_cache_hits == result.n_steps + 1

    def test_blocks_are_capped_at_the_module_size(self):
        chain = [term((i + 8, i + 9), (i, i + 1)) for i in range(7)]
        result = search_block_diagonal_gamma(
            chain, 16, lambda transform: float(transform.gamma.sum()), n_steps=5,
            rng=np.random.default_rng(5),
        )
        assert result.blocks == excitation_topology_blocks(chain, 16)
        assert max(len(block) for block in result.blocks) == MAX_BLOCK_SIZE

    def test_hot_walk_accepts_uphill_moves_but_keeps_the_best(self):
        """Γ = I is the optimum of a cost counting ones; early, hot steps
        still accept worse candidates, and the best stays the identity."""
        scored = []

        def cost(transform):
            scored.append(transform.gamma.sum())
            return float(transform.gamma.sum())

        result = search_block_diagonal_gamma(
            self.terms, self.n_qubits, cost, n_steps=30, rng=np.random.default_rng(6)
        )
        assert max(scored) > self.n_qubits + 1
        assert np.array_equal(result.gamma, np.eye(self.n_qubits, dtype=np.uint8))
        assert result.cnot_count == self.n_qubits

    def test_reported_cost_matches_gamma(self):
        result = search_block_diagonal_gamma(
            self.terms, self.n_qubits, self.cost, n_steps=15,
            rng=np.random.default_rng(3),
        )
        assert np.isclose(result.cnot_count, self.gamma_cost(result.gamma))


def reference_walk(blocks, n_qubits, cost, n_steps, rng):
    """The documented Metropolis walk, re-derived without the memo.

    Per step: the block index, the row and column of an elementary row
    addition (the column redrawn while it equals the row), and a uniform
    draw only for an uphill move; T = T0 (Tf/T0)^(step/(n_steps-1)).
    Returns the best Γ, its cost and the Γ bytes of every proposal.
    """
    def full(matrices):
        gamma = np.eye(n_qubits, dtype=np.uint8)
        for block, matrix in zip(blocks, matrices):
            for row, i in enumerate(block):
                gamma[i, block] = matrix[row]
        return gamma

    current = [np.eye(len(block), dtype=np.uint8) for block in blocks]
    current_cost = cost(full(current))
    best, best_cost = full(current), current_cost
    proposals = [best.tobytes()]
    for step in range(n_steps):
        fraction = step / (n_steps - 1) if n_steps > 1 else 0.0
        temperature = INITIAL_TEMPERATURE * (FINAL_TEMPERATURE / INITIAL_TEMPERATURE) ** fraction
        index = int(rng.integers(len(blocks)))
        size = len(blocks[index])
        row = rng.integers(size)
        col = rng.integers(size)
        while col == row:
            col = rng.integers(size)
        candidate = [matrix.copy() for matrix in current]
        candidate[index][row] ^= candidate[index][col]
        gamma = full(candidate)
        proposals.append(gamma.tobytes())
        delta = cost(gamma) - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current, current_cost = candidate, current_cost + delta
            if current_cost < best_cost:
                best, best_cost = gamma, current_cost
    return best, best_cost, proposals


class TestAnnealingWalk:
    TERMS = [term((4, 6), (0, 2)), term((5, 7), (1, 3)), term((4, 7), (0, 3))]
    WEIGHTS = np.random.default_rng(99).integers(0, 4, (8, 8))

    def cost(self, gamma):
        return float((self.WEIGHTS * gamma).sum())

    @pytest.mark.parametrize(
        "seed, n_steps", [(0, 1), (1, 2), (2, 3), (3, 25), (4, 60), (5, 120)]
    )
    def test_matches_the_reference_walk_draw_for_draw(self, seed, n_steps):
        scored = []

        def cost(transform):
            scored.append(transform.gamma.tobytes())
            return self.cost(transform.gamma)

        rng = np.random.default_rng(seed)
        result = search_block_diagonal_gamma(self.TERMS, 8, cost, n_steps=n_steps, rng=rng)
        reference_rng = np.random.default_rng(seed)
        best, best_cost, proposals = reference_walk(
            result.blocks, 8, self.cost, n_steps, reference_rng
        )
        assert result.gamma.tobytes() == best.tobytes()
        assert result.cnot_count == best_cost
        assert scored == list(dict.fromkeys(proposals))
        assert result.n_cache_hits == len(proposals) - len(scored)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


@st.composite
def excitation_terms(draw, n_qubits):
    """A single or double excitation on ``n_qubits`` spin orbitals."""
    rank = draw(st.sampled_from([1, 2]))
    indices = draw(st.permutations(range(n_qubits)))[: 2 * rank]
    return term(indices[:rank], indices[rank:])


@st.composite
def gamma_cost_cases(draw):
    n = draw(st.integers(4, 10))
    terms = draw(st.lists(excitation_terms(n), min_size=1, max_size=6))
    parameters = draw(
        st.none()
        | st.lists(
            st.sampled_from([0.0, 1.0, -0.5, 0.3, 2.0]),
            min_size=len(terms),
            max_size=len(terms),
        )
    )
    return n, terms, parameters, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


def vertex_matrix_walk(rotations, topology):
    """Reference greedy walk over the dense vertex savings matrix.

    Vertices are (rotation, ascending target) pairs and their savings come
    from the scalar :func:`interface_cnot_reduction`, pair by pair, so the
    oracle shares no code with the batched kernel the walk reads.  From the first rotation's
    last support qubit, each step takes the first maximum of the savings row
    (minus the routed vertex costs under a ``topology``) over the vertices of
    unvisited rotations.  Returns the ordered ``(rotation, target)`` pairs
    and the path cost.
    """
    vertices = [
        (index, target)
        for index, rotation in enumerate(rotations)
        for target in rotation.string.support
    ]
    strings = [rotations[index].string for index, _ in vertices]
    targets = [target for _, target in vertices]
    savings = np.array(
        [
            [interface_cnot_reduction(a, s, b, t) for b, t in zip(strings, targets)]
            for a, s in zip(strings, targets)
        ]
    )
    if topology is None:
        costs = 2 * (weight_vector(strings) - 1)
        preference = savings
    else:
        costs = routed_vertex_cost_vector(strings, targets, topology.distance_matrix)
        preference = savings - costs[None, :]
    path = [len(rotations[0].string.support) - 1]
    visited = {0}
    while len(visited) < len(rotations):
        open_rows = [row for row, (index, _) in enumerate(vertices) if index not in visited]
        scores = preference[path[-1], open_rows]
        path.append(open_rows[int(np.argmax(scores))])
        visited.add(vertices[path[-1]][0])
    cost = costs[path].sum() - savings[path[:-1], path[1:]].sum()
    ordered = [(rotations[vertices[row][0]], vertices[row][1]) for row in path]
    return ordered, float(cost)


class TestGreedySortingCost:
    @given(gamma_cost_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_transform_and_greedy_sort(self, case):
        """The objective and ``greedy_sort`` both equal the vertex-matrix walk
        over the rotations the transform yields, at a random block-diagonal
        Γ and at I."""
        n, terms, parameters, seed, on_line = case
        rng = np.random.default_rng(seed)
        blocks = excitation_topology_blocks(terms, n)
        gamma = assemble_gamma(
            n, blocks, [random_invertible_matrix(len(block), rng) for block in blocks]
        )
        topology = Topology.line(n) if on_line else None
        cost = GreedySortingCost(terms, n, parameters, topology=topology)
        for candidate in (gamma, np.eye(n, dtype=np.uint8)):
            rotations = terms_to_rotations(
                terms, LinearEncodingTransform(candidate), parameters
            )
            if not rotations:
                assert cost(LinearEncodingTransform(candidate)) == 0.0
                continue
            ordered, expected = vertex_matrix_walk(rotations, topology)
            assert cost(LinearEncodingTransform(candidate)) == expected
            result = greedy_sort(rotations, topology=topology)
            assert result.ordered_rotations == ordered
            assert result.objective() == expected

    @given(gamma_cost_cases(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_term_block_cost_matches_baseline_compiler(self, case, bosonic):
        """The baseline PSO objective equals a full baseline compile under Γ:
        random upper-triangular Γ (the PSO's search space), with and without
        bosonic compression, with a spin-paired double that compresses."""
        n, terms, _, seed, _ = case
        terms = [*terms, term((2, 3), (0, 1))]
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, (n, n)), 1).astype(np.uint8)
        cost = TermBlockCost(terms, n, use_bosonic_encoding=bosonic)
        for gamma in (upper | np.eye(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)):
            compiler = BaselineCompiler(use_bosonic_encoding=bosonic, transform_matrix=gamma)
            assert cost(gamma) == compiler.compile(terms, n).cnot_count

    @given(gamma_cost_cases(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_term_block_cost_memo_is_exact_on_block_diagonal_walks(self, case, bosonic):
        """Along a random walk of elementary row additions inside the blocks
        of a block-diagonal Γ, the memoized within-term orders score every
        candidate exactly as the unmemoized solve does."""
        from unittest import mock

        import repro.core.advanced_sorting as advanced_sorting

        n, terms, _, seed, _ = case
        rng = np.random.default_rng(seed)
        cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, 3)), replace=False))
        blocks = [block for block in np.split(np.arange(n), cuts) if len(block) > 1]
        cost = TermBlockCost(terms, n, use_bosonic_encoding=bosonic)
        gamma = np.eye(n, dtype=np.uint8)
        walk = [gamma.copy()]
        for _ in range(6 if blocks else 0):
            block = blocks[int(rng.integers(len(blocks)))]
            target, source = rng.choice(block, size=2, replace=False)
            gamma[target] ^= gamma[source]
            walk.append(gamma.copy())
        memoized = [cost(candidate) for candidate in walk + walk[::-1]]
        unmemoized_order = advanced_sorting._block_order.__wrapped__
        with mock.patch.object(advanced_sorting, "_block_order", unmemoized_order):
            solved = [cost(candidate) for candidate in walk + walk[::-1]]
        assert memoized == solved

    def test_all_rotations_dropped_costs_zero(self):
        terms = [term((4, 6), (0, 2)), term((5,), (1,))]
        cost = GreedySortingCost(terms, 8, parameters=[0.0, 0.0])
        assert cost(LinearEncodingTransform(np.eye(8, dtype=np.uint8))) == 0.0

    def test_parameter_count_checked(self):
        with pytest.raises(ValueError, match="one parameter per excitation term"):
            GreedySortingCost([term((4, 6), (0, 2))], 8, parameters=[1.0, 2.0])
