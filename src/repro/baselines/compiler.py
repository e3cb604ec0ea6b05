"""Prior-art baseline compiler ([8], [9] in the paper).

Reproduces the compilation strategy the paper improves upon, the "GT"
(generalized transformation) column of Table I:

* **Bosonic encoding only** — a double excitation whose creation *and*
  annihilation index pairs are both same-spatial-orbital spin pairs is
  compiled in compressed form at 2 CNOTs; hybrid terms are not compressed.
* **Term-block order** — every other term is expanded into Pauli strings
  that share one target qubit, ordered inside the term and chained greedily
  between terms grouped by target.  The rule lives in one kernel on packed
  bit-planes, :func:`repro.core.advanced_sorting.term_block_order`.
* **Fermion-to-qubit transformation matrix** — an upper-triangular GL(N,2)
  matrix searched with binary particle swarm optimization, scored by
  :class:`repro.core.gamma_search.TermBlockCost`.

The plain JW/BK columns (:func:`naive_rotation_sequence`) run the same
kernel unordered: no compression, terms and strings in expansion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.advanced_sorting import term_block_order
from repro.core.gamma_search import TermBlockCost
from repro.core.hybrid_encoding import BOSONIC_TERM_CNOT_COST
from repro.core.terms_to_paulis import RotationPlanes, required_qubits, terms_to_rotations
from repro.operators import PauliString
from repro.optimizers import binary_particle_swarm
from repro.transforms import FermionQubitTransform, LinearEncodingTransform, identity_matrix
from repro.vqe import ExcitationTerm

#: One compiled exponential: (string, angle, target).
TargetedRotation = Tuple[PauliString, float, int]


def _term_block_sequence(
    rotations: RotationPlanes, ordered: bool
) -> Tuple[List[TargetedRotation], int]:
    """The rotations in :func:`term_block_order`, with the sequence's CNOTs."""
    order = term_block_order(rotations.strings, rotations.term_index, ordered=ordered)
    sequence = [
        (rotations[row].string, rotations[row].angle, target)
        for row, target in zip(order.rows.tolist(), order.targets.tolist())
    ]
    return sequence, order.cnot_count


@dataclass
class BaselineCompilationResult:
    """Outcome of the baseline compilation of an excitation-term list."""

    cnot_count: int
    bosonic_terms: List[ExcitationTerm]
    bosonic_cnot_count: int
    ordered_rotations: List[Tuple[PauliString, int]]
    rotation_cnot_count: int
    transform_matrix: np.ndarray
    #: The same sequence as ``ordered_rotations`` with the rotation angles
    #: included, shaped for :func:`repro.circuits.exponential_sequence_circuit`
    #: so differential tests can synthesize the compiled unitary.
    ordered_exponentials: List[TargetedRotation] = field(default_factory=list)

    @property
    def n_compressed_terms(self) -> int:
        return len(self.bosonic_terms)


class BaselineCompiler:
    """The prior-art compilation flow (GT column of Table I).

    Parameters
    ----------
    use_bosonic_encoding:
        Compress fully-paired double excitations at 2 CNOTs each (the baseline
        always does; disable only for the plain JW/BK reference columns).
    transform_matrix:
        Upper-triangular GL(N,2) matrix to use; identity (Jordan-Wigner) when
        omitted.  Use :meth:`search_transform` to run the PSO search.
    """

    def __init__(
        self,
        use_bosonic_encoding: bool = True,
        transform_matrix: Optional[np.ndarray] = None,
    ):
        self.use_bosonic_encoding = use_bosonic_encoding
        self.transform_matrix = transform_matrix

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        terms: Sequence[ExcitationTerm],
        n_qubits: Optional[int] = None,
        parameters: Optional[Sequence[float]] = None,
    ) -> BaselineCompilationResult:
        """Compile an ordered excitation-term list and count CNOTs."""
        terms = list(terms)
        if not terms:
            raise ValueError("cannot compile an empty term list")
        if n_qubits is None:
            n_qubits = required_qubits(terms)

        if self.transform_matrix is None:
            gamma = identity_matrix(n_qubits)
        else:
            gamma = np.asarray(self.transform_matrix, dtype=np.uint8)

        bosonic_terms: List[ExcitationTerm] = []
        uncompressed: List[ExcitationTerm] = []
        uncompressed_parameters: List[float] = []
        for index, term in enumerate(terms):
            if self.use_bosonic_encoding and term.encoding_class == "bosonic":
                bosonic_terms.append(term)
            else:
                uncompressed.append(term)
                uncompressed_parameters.append(
                    1.0 if parameters is None else parameters[index]
                )
        bosonic_cnots = BOSONIC_TERM_CNOT_COST * len(bosonic_terms)

        rotations = terms_to_rotations(
            uncompressed, LinearEncodingTransform(gamma), uncompressed_parameters
        )
        ordered, rotation_cnots = _term_block_sequence(rotations, ordered=True)
        return BaselineCompilationResult(
            cnot_count=bosonic_cnots + rotation_cnots,
            bosonic_terms=bosonic_terms,
            bosonic_cnot_count=bosonic_cnots,
            ordered_rotations=[(string, target) for string, _, target in ordered],
            rotation_cnot_count=rotation_cnots,
            transform_matrix=gamma,
            ordered_exponentials=ordered,
        )

    # ------------------------------------------------------------------
    # Transformation search (PSO over upper-triangular matrices)
    # ------------------------------------------------------------------
    def search_transform(
        self,
        terms: Sequence[ExcitationTerm],
        n_qubits: Optional[int] = None,
        n_particles: int = 10,
        iterations: int = 15,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Search the strictly-upper-triangular bits of Γ with binary PSO.

        Sets :attr:`transform_matrix` to the best matrix found and returns it.
        """
        terms = list(terms)
        if n_qubits is None:
            n_qubits = required_qubits(terms)
        rng = rng or np.random.default_rng()
        upper_indices = [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)]

        def bits_to_matrix(bits: np.ndarray) -> np.ndarray:
            matrix = identity_matrix(n_qubits)
            for bit, (i, j) in zip(bits, upper_indices):
                matrix[i, j] = int(bit)
            return matrix

        cost = TermBlockCost(terms, n_qubits, self.use_bosonic_encoding)
        result = binary_particle_swarm(
            lambda bits: cost(bits_to_matrix(bits)),
            n_bits=len(upper_indices),
            n_particles=n_particles,
            iterations=iterations,
            rng=rng,
            initial_position=np.zeros(len(upper_indices), dtype=np.uint8),
        )
        self.transform_matrix = bits_to_matrix(result.best_position)
        return self.transform_matrix


def naive_rotation_sequence(
    terms: Sequence[ExcitationTerm],
    transform: FermionQubitTransform,
    parameters: Optional[Sequence[float]] = None,
) -> List[TargetedRotation]:
    """The exact ``(string, angle, target)`` sequence the naive flow compiles.

    Terms are Trotterized in the given order, every Pauli string of a term
    shares the term's common target qubit, and strings keep their
    deterministic expansion order: the unordered :func:`term_block_order`.
    The sequence feeds straight into
    :func:`repro.circuits.exponential_sequence_circuit`, which is how the
    differential tests reconstruct the JW/BK reference unitaries.
    """
    rotations = terms_to_rotations(list(terms), transform, parameters)
    return _term_block_sequence(rotations, ordered=False)[0]


def naive_cnot_count(
    terms: Sequence[ExcitationTerm],
    transform: FermionQubitTransform,
    parameters: Optional[Sequence[float]] = None,
) -> int:
    """Reference compilation used for the JW and BK columns of Table I.

    No compression and no ordering optimization: only cancellations between
    consecutive rotations of :func:`naive_rotation_sequence` are credited.
    """
    rotations = terms_to_rotations(list(terms), transform, parameters)
    return term_block_order(rotations.strings, rotations.term_index, ordered=False).cnot_count
