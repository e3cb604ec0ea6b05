"""Qubit operators: complex linear combinations of Pauli strings.

:class:`QubitOperator` is the qubit-side counterpart of
:class:`~repro.operators.fermion.FermionOperator`.  Fermion-to-qubit
transforms produce ``QubitOperator`` instances, the circuit synthesis layer
consumes their ``(PauliString, coefficient)`` items, and the simulator exports
them to sparse matrices for exact energy evaluation.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.operators.pauli import PauliString

if TYPE_CHECKING:
    from scipy import sparse

#: Coefficients smaller than this magnitude are dropped during simplification.
COEFFICIENT_TOLERANCE = 1e-12


class QubitOperator:
    """A complex linear combination of :class:`PauliString` terms.

    Parameters
    ----------
    n_qubits:
        Number of qubits every contained string is defined on.
    terms:
        Optional initial ``{PauliString: coefficient}`` mapping.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: Dict[PauliString, complex] | None = None):
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        self.n_qubits = int(n_qubits)
        self.terms: Dict[PauliString, complex] = {}
        if terms:
            for string, coeff in terms.items():
                self._check_string(string)
                coeff = complex(coeff)
                if abs(coeff) > COEFFICIENT_TOLERANCE:
                    self.terms[string] = coeff

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n_qubits: int) -> "QubitOperator":
        """Return the zero operator on ``n_qubits`` qubits."""
        return cls(n_qubits)

    @classmethod
    def identity(cls, n_qubits: int, coefficient: complex = 1.0) -> "QubitOperator":
        """Return ``coefficient`` times the identity operator."""
        return cls(n_qubits, {PauliString.identity(n_qubits): coefficient})

    @classmethod
    def from_pauli_string(
        cls, string: PauliString, coefficient: complex = 1.0
    ) -> "QubitOperator":
        """Wrap a single Pauli string with a coefficient."""
        return cls(string.n_qubits, {string: coefficient})

    @classmethod
    def from_label(
        cls, label: str, coefficient: complex = 1.0
    ) -> "QubitOperator":
        """Build a single-term operator from a label such as ``"IXYZ"``."""
        string = PauliString(label)
        return cls(string.n_qubits, {string: coefficient})

    # ------------------------------------------------------------------
    # Validation / introspection
    # ------------------------------------------------------------------
    def _check_string(self, string: PauliString) -> None:
        if not isinstance(string, PauliString):
            raise TypeError(f"expected PauliString, got {type(string).__name__}")
        if string.n_qubits != self.n_qubits:
            raise ValueError(
                f"Pauli string on {string.n_qubits} qubits does not match operator on {self.n_qubits}"
            )

    @property
    def is_zero(self) -> bool:
        """True if the operator has no terms above the coefficient tolerance."""
        return not any(abs(c) > COEFFICIENT_TOLERANCE for c in self.terms.values())

    @property
    def constant(self) -> complex:
        """Coefficient of the identity string."""
        return self.terms.get(PauliString.identity(self.n_qubits), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Tuple[PauliString, complex]]:
        return iter(self.terms.items())

    def pauli_strings(self) -> Tuple[PauliString, ...]:
        """Deterministically ordered tuple of the contained strings."""
        return tuple(sorted(self.terms.keys()))

    def max_weight(self) -> int:
        """Largest Pauli weight among the contained strings."""
        if not self.terms:
            return 0
        return max(string.weight for string in self.terms)

    def total_cnot_upper_bound(self) -> int:
        """Sum of ``2 (w - 1)`` over non-identity strings.

        This is the CNOT count of exponentiating every string independently
        with the standard staircase template and no inter-string cancellation,
        i.e. the completely unoptimized compilation cost.
        """
        return sum(2 * (s.weight - 1) for s in self.terms if s.weight >= 2)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _iadd_term(self, string: PauliString, coefficient: complex) -> None:
        new = self.terms.get(string, 0.0) + coefficient
        if abs(new) > COEFFICIENT_TOLERANCE:
            self.terms[string] = new
        elif string in self.terms:
            del self.terms[string]

    def copy(self) -> "QubitOperator":
        new = QubitOperator(self.n_qubits)
        new.terms = dict(self.terms)
        return new

    def __add__(self, other) -> "QubitOperator":
        result = self.copy()
        result += other
        return result

    def __radd__(self, other) -> "QubitOperator":
        return self.__add__(other)

    def __iadd__(self, other) -> "QubitOperator":
        if isinstance(other, QubitOperator):
            if other.n_qubits != self.n_qubits:
                raise ValueError("cannot add operators on different qubit counts")
            for string, coeff in other.terms.items():
                self._iadd_term(string, coeff)
            return self
        if isinstance(other, numbers.Number):
            self._iadd_term(PauliString.identity(self.n_qubits), complex(other))
            return self
        return NotImplemented

    def __sub__(self, other) -> "QubitOperator":
        return self + (-1.0) * other

    def __rsub__(self, other) -> "QubitOperator":
        return (-1.0) * self + other

    def __neg__(self) -> "QubitOperator":
        return (-1.0) * self

    def __mul__(self, other) -> "QubitOperator":
        if isinstance(other, numbers.Number):
            other = complex(other)
            result = QubitOperator(self.n_qubits)
            if abs(other) > COEFFICIENT_TOLERANCE:
                for string, coeff in self.terms.items():
                    result.terms[string] = coeff * other
            return result
        if isinstance(other, QubitOperator):
            if other.n_qubits != self.n_qubits:
                raise ValueError("cannot multiply operators on different qubit counts")
            result = QubitOperator(self.n_qubits)
            for string_a, coeff_a in self.terms.items():
                for string_b, coeff_b in other.terms.items():
                    phase, product = string_a.multiply(string_b)
                    result._iadd_term(product, phase * coeff_a * coeff_b)
            return result
        return NotImplemented

    def __rmul__(self, other) -> "QubitOperator":
        if isinstance(other, numbers.Number):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other) -> "QubitOperator":
        if isinstance(other, numbers.Number):
            return self * (1.0 / complex(other))
        return NotImplemented

    def commutator(self, other: "QubitOperator") -> "QubitOperator":
        """Return ``[self, other] = self other - other self``."""
        return self * other - other * self

    def hermitian_conjugate(self) -> "QubitOperator":
        """Return the hermitian conjugate (Pauli strings are hermitian)."""
        return QubitOperator(
            self.n_qubits, {s: c.conjugate() for s, c in self.terms.items()}
        )

    def is_hermitian(self, tolerance: float = 1e-10) -> bool:
        """True if every coefficient is real to within ``tolerance``."""
        return all(abs(c.imag) <= tolerance for c in self.terms.values())

    def is_anti_hermitian(self, tolerance: float = 1e-10) -> bool:
        """True if every coefficient is purely imaginary to within ``tolerance``."""
        return all(abs(c.real) <= tolerance for c in self.terms.values())

    def compress(self, tolerance: float = COEFFICIENT_TOLERANCE) -> "QubitOperator":
        """Return a copy with coefficients below ``tolerance`` removed."""
        return QubitOperator(
            self.n_qubits, {s: c for s, c in self.terms.items() if abs(c) > tolerance}
        )

    # ------------------------------------------------------------------
    # Matrix export
    # ------------------------------------------------------------------
    def to_sparse(self) -> sparse.csr_matrix:
        """Return the ``2**n x 2**n`` sparse matrix of the operator.

        Every Pauli string is a signed permutation matrix (one entry per
        column), so the export assembles chunks of terms as COO triplets —
        ``row = column ⊕ x``, ``value = coeff · i^{|Y|} · (-1)^{|z ∧ column|}``
        — and lets the CSR conversion sum duplicates, instead of building and
        adding per-string Kronecker products.
        """
        from scipy import sparse

        dim = 2 ** self.n_qubits
        matrix = sparse.csr_matrix((dim, dim), dtype=complex)
        if not self.terms:
            return matrix
        columns = np.arange(dim, dtype=np.int64)
        # Chunked accumulation bounds the COO scratch memory on operators
        # with many terms while keeping the number of sparse additions low.
        chunk_rows = []
        chunk_data = []
        chunk_cols = []

        def flush():
            nonlocal matrix, chunk_rows, chunk_data, chunk_cols
            if not chunk_rows:
                return
            chunk = sparse.coo_matrix(
                (
                    np.concatenate(chunk_data),
                    (np.concatenate(chunk_rows), np.concatenate(chunk_cols)),
                ),
                shape=(dim, dim),
            ).tocsr()
            matrix = matrix + chunk
            chunk_rows, chunk_data, chunk_cols = [], [], []

        max_chunk_entries = 1 << 21
        per_term_budget = max(1, max_chunk_entries // dim)
        for string, coeff in self.terms.items():
            rows, values = string.signed_permutation()
            chunk_rows.append(rows)
            chunk_cols.append(columns)
            chunk_data.append(coeff * values)
            if len(chunk_rows) >= per_term_budget:
                flush()
        flush()
        return matrix

    def to_dense(self) -> np.ndarray:
        """Return the dense matrix of the operator (small systems only)."""
        return self.to_sparse().toarray()

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, numbers.Number):
            other = QubitOperator.identity(self.n_qubits, complex(other))
        if not isinstance(other, QubitOperator):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            return False
        difference = self - other
        return all(abs(c) <= 1e-10 for c in difference.terms.values())

    def __hash__(self):
        raise TypeError("QubitOperator is mutable and unhashable")

    def __repr__(self) -> str:
        if not self.terms:
            return f"QubitOperator.zero({self.n_qubits})"
        parts = [
            f"{coeff} * {string.to_label()}"
            for string, coeff in sorted(self.terms.items(), key=lambda kv: kv[0])
        ]
        return " + ".join(parts)
