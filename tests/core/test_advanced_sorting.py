"""Tests for the GTSP-based advanced sorting (Sec. III-B, Appendix B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.advanced_sorting as advanced_sorting
from repro.circuits import interface_cnot_reduction, sequence_cnot_count
from repro.core import (
    PauliRotation,
    RotationPlanes,
    advanced_sort,
    baseline_order_cnot_count,
    build_sorting_problem,
    greedy_sort,
    term_block_order,
)
from repro.core.advanced_sorting import greedy_walk
from repro.hardware import Topology
from repro.operators import PackedPaulis, PauliString, routed_vertex_cost_vector


def packed(*labels):
    return PackedPaulis.from_strings(PauliString(label) for label in labels)


def rotation(label, angle=0.1, term_index=0):
    return PauliRotation(string=PauliString(label), angle=angle, term_index=term_index)


def planes(rotations):
    """Hand-built rotations on packed bit-planes, the sort's input."""
    rotations = list(rotations)
    return RotationPlanes(
        PackedPaulis.from_strings(r.string for r in rotations),
        np.array([r.angle for r in rotations], dtype=np.float64),
        np.array([r.term_index for r in rotations], dtype=np.int64),
    )


class TestSortingProblem:
    def test_appendix_b_clusters(self):
        """Appendix B: three 8-qubit strings and their valid target sets."""
        rotations = planes([
            rotation("IIXXYXII"),
            rotation("IIXXXYII"),
            rotation("XXIIIIXY"),
        ])
        problem = build_sorting_problem(rotations)
        assert problem.n_clusters == 3
        targets = [sorted(t for _, t in cluster) for cluster in problem.clusters]
        assert targets[0] == [2, 3, 4, 5]
        assert targets[1] == [2, 3, 4, 5]
        assert targets[2] == [0, 1, 6, 7]

    def test_appendix_b_edge_weight(self):
        """The edge ([P0, t=2], [P1, t=2]) costs P1's 6 CNOTs minus 4 saved ones."""
        rotations = planes([rotation("IIXXYXII"), rotation("IIXXXYII")])
        problem = build_sorting_problem(rotations)
        # Rows 0..3 are rotation 0 on targets 2..5, row 4 is rotation 1 on 2.
        assert problem.clusters[0][0] == (0, 2) and problem.clusters[1][0] == (1, 2)
        assert problem.matrix[0, 4] == 6.0 - 4.0
        assert problem.start_weights.tolist() == [6] * 8

    def test_identity_rotation_rejected(self):
        with pytest.raises(ValueError):
            build_sorting_problem(planes([rotation("III")]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_sorting_problem(planes([]))


class TestAdvancedSort:
    def test_single_rotation(self):
        result = advanced_sort(planes([rotation("XXYZ")]))
        assert result.cnot_count == 6
        assert len(result.ordered_rotations) == 1

    def test_empty_input(self):
        result = advanced_sort(planes([]))
        assert result.cnot_count == 0

    def test_figure_four_pair_prefers_shared_fourth_target(self):
        """Advanced sorting discovers the 7-CNOT solution of Fig. 4(a)."""
        rotations = planes([rotation("XXXY"), rotation("XXYX")])
        result = advanced_sort(rotations)
        assert result.cnot_count == 7

    def test_never_worse_than_naive_order(self):
        labels = ["XXZI", "XYZI", "IZZX", "ZZXX", "XXII"]
        rotations = planes(rotation(label, term_index=i) for i, label in enumerate(labels))
        result = advanced_sort(rotations)
        assert result.cnot_count <= baseline_order_cnot_count(rotations)

    def test_sorted_sequence_covers_all_rotations(self):
        labels = ["XXZI", "XYZI", "IZZX"]
        rotations = planes(rotation(label, term_index=i) for i, label in enumerate(labels))
        result = advanced_sort(rotations)
        sorted_labels = sorted(r.string.to_label() for r, _ in result.ordered_rotations)
        assert sorted_labels == sorted(labels)

    @pytest.mark.parametrize("on_line", [False, True])
    def test_cost_is_the_objective_and_never_worse_than_a_seed(self, on_line):
        labels = ["XXZI", "IYZX", "ZIIX", "XIYI", "ZXXZ", "YYII"]
        rotations = planes(rotation(label, term_index=i // 2) for i, label in enumerate(labels))
        topology = Topology.line(4) if on_line else None
        result = advanced_sort(rotations, topology=topology)
        assert result.cnot_count == sequence_cnot_count(result.targeted_strings())
        assert sorted(id(r) for r, _ in result.ordered_rotations) == sorted(map(id, rotations))
        for tour in advanced_sorting.sort_seed_tours(rotations, topology=topology):
            seed = advanced_sorting._finalize_sorting(rotations, tour, topology)
            assert result.objective() <= seed.objective()

    def test_targets_always_in_support(self):
        labels = ["XXZI", "IYZX", "ZIIX", "XIYI"]
        rotations = planes(rotation(label, term_index=i) for i, label in enumerate(labels))
        result = advanced_sort(rotations)
        for rot, target in result.ordered_rotations:
            assert target in rot.string.support


class TestGreedySort:
    def test_matches_advanced_on_identical_strings(self):
        rotations = planes(rotation("XXZZ", term_index=i) for i in range(3))
        greedy = greedy_sort(rotations)
        advanced = advanced_sort(rotations)
        # Three identical exponentials merge into one: 6 CNOTs total.
        assert greedy.cnot_count == 6
        assert advanced.cnot_count == 6

    def test_empty(self):
        assert greedy_sort(planes([])).cnot_count == 0

    def test_never_worse_than_naive(self):
        rng = np.random.default_rng(5)
        labels = ["XXZI", "XYZI", "IZZX", "ZZXX"]
        rotations = planes(rotation(label, term_index=i) for i, label in enumerate(labels))
        assert greedy_sort(rotations).cnot_count <= baseline_order_cnot_count(rotations)

    def test_covers_all_rotations(self):
        labels = ["XXZI", "XYZI", "IZZX", "ZZXX"]
        rotations = planes(rotation(label, term_index=i) for i, label in enumerate(labels))
        result = greedy_sort(rotations)
        assert len(result.ordered_rotations) == len(labels)

    def test_identity_rotation_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            greedy_sort(planes([rotation("XZ"), rotation("II")]))


def nested_loop_greedy(rotations, topology=None):
    """Reference: the greedy sort as a plain nested loop over every pair.

    Starts at the first rotation's last support qubit; each step takes the
    first (rotation index, ascending target) vertex of an unvisited rotation
    with the largest saving, or under a topology the smallest routed cost
    minus saving.
    """

    def vertex_cost(string, target):
        if topology is None:
            return 0
        return int(routed_vertex_cost_vector([string], [target], topology.distance_matrix)[0])

    sequence = [(0, rotations[0].string.support[-1])]
    visited = {0}
    while len(visited) < len(rotations):
        current_index, current_target = sequence[-1]
        best = None
        for index, candidate in enumerate(rotations):
            if index in visited:
                continue
            for target in candidate.string.support:
                score = interface_cnot_reduction(
                    rotations[current_index].string, current_target,
                    candidate.string, target,
                ) - vertex_cost(candidate.string, target)
                if best is None or score > best[0]:
                    best = (score, index, target)
        sequence.append(best[1:])
        visited.add(best[1])
    return [(rotations[index], target) for index, target in sequence]


class TestGreedyWalk:
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(
                    lambda label: set(label) != {"I"}
                ),
                min_size=1,
                max_size=8,
            )
        ),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_greedy_sort_matches_nested_loop(self, labels, on_line):
        rotations = planes(rotation(label, term_index=i) for i, label in enumerate(labels))
        topology = Topology.line(len(labels[0])) if on_line else None
        result = greedy_sort(rotations, topology=topology)
        assert result.ordered_rotations == nested_loop_greedy(rotations, topology)

    def test_ties_go_to_the_lowest_row(self):
        # No two strings share a qubit, so every step saves nothing and takes
        # the lowest unvisited string's lowest support qubit.
        walk = greedy_walk(packed("ZIII", "IXXI", "IIIZ"))
        assert (walk.rows, walk.targets) == ([0, 1, 2], [0, 1, 3])
        assert walk.cost == 2

    def test_visits_one_vertex_per_rotation(self):
        # The start (0, 2) saves most before string 1's second vertex (1, 2).
        # String 2 saves nothing after it, and string 1's first vertex, though
        # first in vertex order, is closed once string 1 is visited.
        walk = greedy_walk(packed("XXX", "XIX", "IZI"))
        assert (walk.rows, walk.targets) == ([0, 1, 2], [2, 2, 1])
        assert walk.cost == 6 - 2

    def test_single_string(self):
        walk = greedy_walk(packed("IXZY"))
        assert (walk.rows, walk.targets, walk.cost) == ([0], [3], 4)
        # On a line the ladder from qubit 0 to target 3 costs 2 (2·3 - 1).
        routed = greedy_walk(packed("XIIY"), Topology.line(4).distance_matrix)
        assert (routed.rows, routed.targets, routed.cost) == ([0], [3], 10)

    def test_identity_string_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            greedy_walk(packed("XZ", "II"))

    def test_empty_input(self):
        walk = greedy_walk(PackedPaulis.from_strings([]))
        assert (walk.rows, walk.targets, walk.cost) == ([], [], 0)

    def test_routed_walk_takes_the_cheaper_ladder(self):
        # "ZZIZ" saves nothing after (0, 3) on any target, so the all-to-all
        # walk takes its lowest support qubit; on a line the ladder to qubit 1
        # (cost 8) beats those to qubits 0 (12) and 3 (16).
        strings = packed("IIIZ", "ZZIZ")
        walk = greedy_walk(strings)
        assert (walk.rows, walk.targets, walk.cost) == ([0, 1], [3, 0], 4)
        routed = greedy_walk(strings, Topology.line(4).distance_matrix)
        assert (routed.rows, routed.targets, routed.cost) == ([0, 1], [3, 1], 8)


def block_order(labels, term_index, ordered=True):
    strings = [PauliString(label) for label in labels]
    order = term_block_order(PackedPaulis.from_strings(strings), term_index, ordered)
    sequence = [(strings[row], target) for row, target in zip(order.rows, order.targets)]
    return order, sequence


@st.composite
def term_blocks(draw):
    n = draw(st.integers(2, 6))
    label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda l: set(l) != {"I"})
    labels = draw(st.lists(label, min_size=1, max_size=14))
    term_index = draw(
        st.lists(st.integers(0, 3), min_size=len(labels), max_size=len(labels))
    )
    return labels, term_index


class TestTermBlockOrder:
    def test_empty_input(self):
        order = term_block_order(PackedPaulis.from_strings([]), [])
        assert order.rows.tolist() == [] and order.targets.tolist() == []
        assert order.cnot_count == 0

    def test_permutation_tie_takes_first_permutation(self):
        """Orders (0, 2, 1) and (1, 2, 0) both save 3 on target 0; the first
        in ``itertools.permutations`` order wins."""
        labels = ["YIZI", "XYIY", "ZXYY"]
        strings = [PauliString(label) for label in labels]
        saved = {
            order: sum(
                interface_cnot_reduction(strings[a], 0, strings[b], 0)
                for a, b in zip(order, order[1:])
            )
            for order in [(0, 2, 1), (1, 2, 0)]
        }
        assert saved == {(0, 2, 1): 3, (1, 2, 0): 3}
        order, sequence = block_order(labels, [0, 0, 0])
        assert order.rows.tolist() == [0, 2, 1]
        assert order.targets.tolist() == [0, 0, 0]
        assert order.cnot_count == sequence_cnot_count(sequence)

    def test_no_common_support_falls_back_to_last_support(self):
        """Term 0 shares no qubit: each string keeps its last support qubit,
        and the block's group key is its first string's target (3), so the
        shared-target term 1 (key 2) is chained first."""
        order, _ = block_order(["IIZZ", "XXII", "IXXI", "ZIYI"], [0, 0, 1, 1])
        assert order.rows.tolist() == [2, 3, 0, 1]
        assert order.targets.tolist() == [2, 2, 3, 1]
        unordered, _ = block_order(["IIZZ", "XXII", "IXXI", "ZIYI"], [0, 0, 1, 1], False)
        assert unordered.rows.tolist() == [0, 1, 2, 3]
        assert unordered.targets.tolist() == [3, 1, 2, 2]

    def test_large_term_takes_tsp_path(self, monkeypatch):
        labels = ["XXXY", "XXYX", "XYXX", "YXXX", "YYYX", "YYXY", "XYYY"]
        tours = []
        solve_tsp = advanced_sorting.solve_tsp

        def recording(vertices, weight, rng=None):
            tours.append(solve_tsp(vertices, weight, rng=rng))
            return tours[-1]

        monkeypatch.setattr(advanced_sorting, "solve_tsp", recording)
        order, sequence = block_order(labels, [0] * len(labels))
        (tour,) = tours
        assert sorted(tour) == list(range(len(labels)))
        assert order.rows.tolist() == tour
        assert order.targets.tolist() == [3] * len(labels)
        assert order.cnot_count == sequence_cnot_count(sequence)

    @given(term_blocks(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_count_is_the_sequence_cost(self, case, ordered):
        labels, term_index = case
        order, sequence = block_order(labels, term_index, ordered)
        assert sorted(order.rows.tolist()) == list(range(len(labels)))
        assert order.cnot_count == sequence_cnot_count(sequence)
        if not ordered:
            assert order.rows.tolist() == np.argsort(term_index, kind="stable").tolist()
