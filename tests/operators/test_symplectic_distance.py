"""Distance-weighted costs and GTSP weights: vectorized vs scalar reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import interface_cnot_reduction
from repro.core import RotationPlanes, build_sorting_problem
from repro.hardware import Topology
from repro.operators import (
    PackedPaulis,
    PauliString,
    routed_vertex_cost_vector,
    support_matrix,
)


def labels(n: int, min_weight: int = 1):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(
        lambda s: sum(c != "I" for c in s) >= min_weight
    )


def scalar_vertex_cost(string: PauliString, target: int, distance: np.ndarray) -> int:
    return 2 * sum(
        2 * int(distance[q, target]) - 1 for q in string.support if q != target
    )


class TestSupportMatrix:
    @given(st.lists(labels(6, min_weight=0), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_string_support(self, label_list):
        strings = [PauliString(label) for label in label_list]
        matrix = support_matrix(strings)
        assert matrix.shape == (len(strings), 6)
        for row, string in zip(matrix, strings):
            assert set(np.flatnonzero(row)) == set(string.support)

    def test_wide_strings_cross_word_boundary(self):
        label = "I" * 63 + "X" + "Z" * 2 + "I" * 4
        matrix = support_matrix([PauliString(label)])
        assert set(np.flatnonzero(matrix[0])) == {63, 64, 65}

    def test_empty_collection(self):
        assert support_matrix([]).shape == (0, 0)


class TestRoutedVertexCost:
    @pytest.mark.parametrize(
        "topology",
        [Topology.line(6), Topology.ring(6), Topology.grid(2, 3), Topology.all_to_all(6)],
        ids=lambda t: t.name,
    )
    def test_matches_scalar_reference(self, topology):
        rng = np.random.default_rng(0)
        strings, targets = [], []
        for _ in range(12):
            label = "".join(rng.choice(list("IXYZ"), size=6))
            if set(label) == {"I"}:
                label = "X" + label[1:]
            string = PauliString(label)
            strings.append(string)
            targets.append(int(rng.choice(string.support)))
        costs = routed_vertex_cost_vector(strings, targets, topology.distance_matrix)
        expected = [
            scalar_vertex_cost(s, t, topology.distance_matrix)
            for s, t in zip(strings, targets)
        ]
        np.testing.assert_array_equal(costs, expected)

    def test_all_to_all_collapses_to_template_cost(self):
        full = Topology.all_to_all(5)
        strings = [PauliString("XZYXI"), PauliString("ZZIII"), PauliString("IIIIX")]
        targets = [string.support[-1] for string in strings]
        costs = routed_vertex_cost_vector(strings, targets, full.distance_matrix)
        np.testing.assert_array_equal(
            costs, [2 * (s.weight - 1) for s in strings]
        )

    def test_validation(self):
        line = Topology.line(4)
        with pytest.raises(ValueError, match="one target per string"):
            routed_vertex_cost_vector([PauliString("XXXX")], [0, 1], line.distance_matrix)
        with pytest.raises(ValueError, match="cannot cover"):
            routed_vertex_cost_vector(
                [PauliString("XXXXXX")], [0], line.distance_matrix
            )
        split = Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="unreachable"):
            routed_vertex_cost_vector([PauliString("XXXX")], [0], split.distance_matrix)
        assert routed_vertex_cost_vector([], [], line.distance_matrix).shape == (0,)


class TestSortingProblemWeights:
    @pytest.mark.parametrize(
        "topology",
        [Topology.line(6), Topology.ring(6), Topology.grid(2, 3), Topology.all_to_all(6)],
        ids=lambda t: t.name,
    )
    def test_routed_cost_minus_scalar_savings(self, topology):
        """Edge ``[a, b]`` costs vertex b's steered ladder minus the ω-rule
        saving of b right after a, for every vertex pair."""
        rng = np.random.default_rng(1)
        strings = []
        for _ in range(6):
            label = "".join(rng.choice(list("IXYZ"), size=6))
            if set(label) == {"I"}:
                label = "Y" + label[1:]
            strings.append(PauliString(label))
        rotations = RotationPlanes(
            PackedPaulis.from_strings(strings), np.full(6, 0.1), np.arange(6)
        )
        problem = build_sorting_problem(rotations, topology=topology)
        vertices = [vertex for cluster in problem.clusters for vertex in cluster]
        costs = [
            scalar_vertex_cost(rotations[index].string, target, topology.distance_matrix)
            for index, target in vertices
        ]
        np.testing.assert_array_equal(problem.start_weights, costs)
        for a, (i, t) in enumerate(vertices):
            for b, (j, u) in enumerate(vertices):
                saving = interface_cnot_reduction(
                    rotations[i].string, t, rotations[j].string, u
                )
                assert problem.weight_matrix[a, b] == costs[b] - saving


class TestPackedInputs:
    """The routed cost takes a PackedPaulis as well as PauliStrings."""

    def test_packed_matches_strings(self):
        line = Topology.line(70)
        labels_ = ["X" + "Z" * 64 + "YIIII", "I" * 63 + "XZZIIIY", "Z" * 70]
        strings = [PauliString(label) for label in labels_]
        targets = [64, 64, 69]
        packed = PackedPaulis.from_strings(strings)
        assert packed.n_words == 2
        distance = line.distance_matrix
        np.testing.assert_array_equal(
            routed_vertex_cost_vector(packed, targets, distance),
            routed_vertex_cost_vector(strings, targets, distance),
        )

    def test_packed_validation(self):
        packed = PackedPaulis.from_strings([PauliString("XI")])
        with pytest.raises(ValueError, match="one target per string"):
            routed_vertex_cost_vector(packed, [0, 1], Topology.line(2).distance_matrix)
