"""The dict operator algebra: the tests' oracle for every operator kernel in ``src/``.

``src/`` has one operator representation, symplectic bit-planes.  This module
keeps the textbook one beside it, written the slow and obvious way, so the
fast kernels have something independent to be compared with:

* :class:`FermionOperator` — sums of products of fermionic ladder operators,
  with normal ordering and hermitian conjugation;
* :class:`QubitOperator` — sums of :class:`~repro.operators.PauliString`
  with full multiplication and a sparse-matrix export;
* :class:`FermionQubitTransform` and its two transforms:
  :class:`DictJordanWigner` multiplies Jordan-Wigner ladder images out, and
  :class:`DictLinearEncoding` conjugates them by a
  :class:`~repro.transforms.LinearEncodingTransform`'s Γ;
* the Hamiltonian and UCC generators of ``src/`` as :class:`FermionOperator`
  (:func:`hamiltonian_operator`, :func:`excitation_operator`,
  :func:`generator`) and the statevector helpers that take these operators
  (:func:`fermion_sparse`, :func:`apply_qubit_operator`, ...), which work on
  the full ``2**n`` register: :func:`prepare_state` applies each UCC factor
  with ``expm_multiply`` and :func:`sector` cuts out a particle-number sector.

Every test directory imports it as ``operator_oracle``: ``tests/conftest.py``
and ``benchmarks/conftest.py`` put ``tests/`` on the import path.
"""

from __future__ import annotations

import abc
import numbers
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from repro.chemistry import MolecularHamiltonian
from repro.chemistry.hamiltonian import INTEGRAL_TOLERANCE
from repro.operators import PackedPaulis, PauliString
from repro.simulator import GroundStateResult
from repro.simulator import ground_state as sparse_ground_state
from repro.transforms import BravyiKitaevTransform, LinearEncodingTransform, ParityTransform
from repro.vqe import ExcitationTerm


# ----------------------------------------------------------------------
# Fermionic operators
# ----------------------------------------------------------------------
#: A single ladder operator: ``(orbital_index, is_creation)``.
LadderOperator = Tuple[int, bool]

#: A product of ladder operators, applied right-to-left like matrices.
FermionTerm = Tuple[LadderOperator, ...]

#: Coefficients smaller than this magnitude are dropped during simplification.
COEFFICIENT_TOLERANCE = 1e-12


def _validate_term(term: Iterable) -> FermionTerm:
    """Normalize and validate a fermionic term specification.

    Accepts an iterable of ``(orbital, is_creation)`` pairs where the second
    element may be a bool or the integers 0/1 (annihilation/creation).
    """
    normalized = []
    for action in term:
        if not isinstance(action, (tuple, list)) or len(action) != 2:
            raise TypeError(
                f"each ladder operator must be an (orbital, is_creation) pair, got {action!r}"
            )
        orbital, dagger = action
        if not isinstance(orbital, numbers.Integral) or orbital < 0:
            raise ValueError(f"orbital index must be a non-negative integer, got {orbital!r}")
        normalized.append((int(orbital), bool(dagger)))
    return tuple(normalized)


class FermionOperator:
    """A complex linear combination of products of fermionic ladder operators.

    Parameters
    ----------
    term:
        Optional initial term as an iterable of ``(orbital, is_creation)``
        pairs.  ``None`` produces the zero operator; the empty tuple produces
        a multiple of the identity.
    coefficient:
        Complex coefficient of the initial term.
    """

    __slots__ = ("terms",)

    def __init__(self, term: Iterable | None = None, coefficient: complex = 1.0):
        self.terms: Dict[FermionTerm, complex] = {}
        if term is not None:
            coefficient = complex(coefficient)
            if abs(coefficient) > 0.0:
                self.terms[_validate_term(term)] = coefficient

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "FermionOperator":
        """Return the zero operator (no terms)."""
        return cls()

    @classmethod
    def identity(cls, coefficient: complex = 1.0) -> "FermionOperator":
        """Return ``coefficient`` times the identity operator."""
        return cls((), coefficient)

    @classmethod
    def creation(cls, orbital: int, coefficient: complex = 1.0) -> "FermionOperator":
        """Return ``coefficient * a†_orbital``."""
        return cls(((orbital, True),), coefficient)

    @classmethod
    def annihilation(cls, orbital: int, coefficient: complex = 1.0) -> "FermionOperator":
        """Return ``coefficient * a_orbital``."""
        return cls(((orbital, False),), coefficient)

    @classmethod
    def number(cls, orbital: int, coefficient: complex = 1.0) -> "FermionOperator":
        """Return the number operator ``coefficient * a†_orbital a_orbital``."""
        return cls(((orbital, True), (orbital, False)), coefficient)

    @classmethod
    def from_terms(cls, terms: Dict[FermionTerm, complex]) -> "FermionOperator":
        """Build an operator directly from a ``{term: coefficient}`` mapping."""
        op = cls()
        for term, coeff in terms.items():
            coeff = complex(coeff)
            if abs(coeff) > COEFFICIENT_TOLERANCE:
                op.terms[_validate_term(term)] = coeff
        return op

    @classmethod
    def single_excitation(
        cls, p: int, r: int, coefficient: complex = 1.0
    ) -> "FermionOperator":
        """Return the single excitation ``coefficient * a†_p a_r``."""
        return cls(((p, True), (r, False)), coefficient)

    @classmethod
    def double_excitation(
        cls, p: int, q: int, r: int, s: int, coefficient: complex = 1.0
    ) -> "FermionOperator":
        """Return the double excitation ``coefficient * a†_p a†_q a_r a_s``."""
        return cls(((p, True), (q, True), (r, False), (s, False)), coefficient)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        """True if the operator has no terms above the coefficient tolerance."""
        return not any(abs(c) > COEFFICIENT_TOLERANCE for c in self.terms.values())

    @property
    def constant(self) -> complex:
        """Coefficient of the identity term."""
        return self.terms.get((), 0.0 + 0.0j)

    def many_body_order(self) -> int:
        """Largest number of ladder operators appearing in any term."""
        if not self.terms:
            return 0
        return max(len(term) for term in self.terms)

    def max_orbital(self) -> int:
        """Largest orbital index appearing in the operator, or -1 if none."""
        indices = [orb for term in self.terms for orb, _ in term]
        return max(indices) if indices else -1

    def orbitals(self) -> Tuple[int, ...]:
        """Sorted tuple of all orbital indices appearing in the operator."""
        return tuple(sorted({orb for term in self.terms for orb, _ in term}))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Tuple[FermionTerm, complex]]:
        return iter(self.terms.items())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _iadd_term(self, term: FermionTerm, coefficient: complex) -> None:
        new = self.terms.get(term, 0.0) + coefficient
        if abs(new) > COEFFICIENT_TOLERANCE:
            self.terms[term] = new
        elif term in self.terms:
            del self.terms[term]

    def __add__(self, other) -> "FermionOperator":
        result = self.copy()
        result += other
        return result

    def __radd__(self, other) -> "FermionOperator":
        return self.__add__(other)

    def __iadd__(self, other) -> "FermionOperator":
        if isinstance(other, FermionOperator):
            for term, coeff in other.terms.items():
                self._iadd_term(term, coeff)
            return self
        if isinstance(other, numbers.Number):
            self._iadd_term((), complex(other))
            return self
        return NotImplemented

    def __sub__(self, other) -> "FermionOperator":
        return self + (-1.0) * other

    def __rsub__(self, other) -> "FermionOperator":
        return (-1.0) * self + other

    def __neg__(self) -> "FermionOperator":
        return (-1.0) * self

    def __mul__(self, other) -> "FermionOperator":
        if isinstance(other, numbers.Number):
            result = FermionOperator()
            other = complex(other)
            if abs(other) > COEFFICIENT_TOLERANCE:
                for term, coeff in self.terms.items():
                    result.terms[term] = coeff * other
            return result
        if isinstance(other, FermionOperator):
            result = FermionOperator()
            for term_a, coeff_a in self.terms.items():
                for term_b, coeff_b in other.terms.items():
                    result._iadd_term(term_a + term_b, coeff_a * coeff_b)
            return result
        return NotImplemented

    def __rmul__(self, other) -> "FermionOperator":
        if isinstance(other, numbers.Number):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other) -> "FermionOperator":
        if isinstance(other, numbers.Number):
            return self * (1.0 / complex(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "FermionOperator":
        if not isinstance(exponent, numbers.Integral) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = FermionOperator.identity()
        for _ in range(int(exponent)):
            result = result * self
        return result

    def copy(self) -> "FermionOperator":
        new = FermionOperator()
        new.terms = dict(self.terms)
        return new

    def hermitian_conjugate(self) -> "FermionOperator":
        """Return the hermitian conjugate (dagger) of the operator."""
        result = FermionOperator()
        for term, coeff in self.terms.items():
            conj_term = tuple((orb, not dag) for orb, dag in reversed(term))
            result._iadd_term(conj_term, coeff.conjugate())
        return result

    def anti_hermitian_part(self) -> "FermionOperator":
        """Return ``self - self†``, the anti-hermitian generator used in UCC."""
        return self - self.hermitian_conjugate()

    def is_hermitian(self, tolerance: float = 1e-10) -> bool:
        """Check hermiticity by comparing normal-ordered forms."""
        difference = (self - self.hermitian_conjugate()).normal_ordered()
        return all(abs(c) <= tolerance for c in difference.terms.values())

    def compress(self, tolerance: float = COEFFICIENT_TOLERANCE) -> "FermionOperator":
        """Return a copy with coefficients below ``tolerance`` removed."""
        result = FermionOperator()
        for term, coeff in self.terms.items():
            if abs(coeff) > tolerance:
                result.terms[term] = coeff
        return result

    # ------------------------------------------------------------------
    # Normal ordering
    # ------------------------------------------------------------------
    def normal_ordered(self) -> "FermionOperator":
        """Return the normal-ordered form of the operator.

        Creation operators are moved to the left of annihilation operators and
        each group is sorted by descending orbital index, picking up the
        appropriate fermionic signs and contraction terms from the canonical
        anti-commutation relations ``{a_i, a†_j} = δ_ij``.
        """
        result = FermionOperator()
        for term, coeff in self.terms.items():
            result += _normal_ordered_term(term, coeff)
        return result.compress()

    # ------------------------------------------------------------------
    # Display / comparison
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, numbers.Number):
            other = FermionOperator.identity(complex(other))
        if not isinstance(other, FermionOperator):
            return NotImplemented
        difference = (self - other).normal_ordered()
        return all(abs(c) <= 1e-10 for c in difference.terms.values())

    def __hash__(self):
        raise TypeError("FermionOperator is mutable and unhashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "FermionOperator.zero()"
        parts = []
        for term, coeff in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            if not term:
                parts.append(f"{coeff}")
                continue
            ops = " ".join(f"a{'^' if dag else ''}{orb}" for orb, dag in term)
            parts.append(f"{coeff} [{ops}]")
        return " + ".join(parts)


def _normal_ordered_term(term: FermionTerm, coefficient: complex) -> FermionOperator:
    """Normal order a single product of ladder operators via bubble passes."""
    result = FermionOperator()
    # Work queue of (term, coefficient) pairs still to be ordered.
    stack = [(list(term), coefficient)]
    while stack:
        ops, coeff = stack.pop()
        swapped = True
        aborted = False
        while swapped:
            swapped = False
            for i in range(len(ops) - 1):
                (orb_a, dag_a), (orb_b, dag_b) = ops[i], ops[i + 1]
                if not dag_a and dag_b:
                    # a_i a†_j = δ_ij - a†_j a_i
                    if orb_a == orb_b:
                        contracted = ops[:i] + ops[i + 2:]
                        stack.append((contracted, coeff))
                    ops[i], ops[i + 1] = ops[i + 1], ops[i]
                    coeff = -coeff
                    swapped = True
                    break
                if dag_a == dag_b and orb_a == orb_b:
                    # a†a† = 0 and aa = 0 for the same orbital.
                    aborted = True
                    break
                if dag_a == dag_b and orb_a < orb_b:
                    # Sort descending within each block (pure anti-commutation).
                    ops[i], ops[i + 1] = ops[i + 1], ops[i]
                    coeff = -coeff
                    swapped = True
                    break
            if aborted:
                break
        if not aborted:
            result._iadd_term(tuple(ops), coeff)
    return result


def normal_ordered(operator: FermionOperator) -> FermionOperator:
    """Module-level convenience wrapper around :meth:`FermionOperator.normal_ordered`."""
    return operator.normal_ordered()


# ----------------------------------------------------------------------
# Qubit operators
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Fermion-to-qubit transforms
# ----------------------------------------------------------------------
class FermionQubitTransform(abc.ABC):
    """Abstract fermion-to-qubit transformation on a fixed number of modes.

    A transformation maps a :class:`FermionOperator` on ``n_modes`` spin
    orbitals to a :class:`QubitOperator` on ``n_modes`` qubits while
    preserving the operator algebra (anti-commutation relations) and hence the
    spectrum of any transformed Hamiltonian.
    """

    def __init__(self, n_modes: int):
        if n_modes <= 0:
            raise ValueError("n_modes must be positive")
        self.n_modes = int(n_modes)

    @property
    def n_qubits(self) -> int:
        """Number of qubits in the image (equal to the number of modes)."""
        return self.n_modes

    @abc.abstractmethod
    def annihilation_operator(self, mode: int) -> QubitOperator:
        """Return the qubit image of the annihilation operator ``a_mode``."""

    def creation_operator(self, mode: int) -> QubitOperator:
        """Return the qubit image of the creation operator ``a†_mode``."""
        return self.annihilation_operator(mode).hermitian_conjugate()

    def transform(self, operator: FermionOperator) -> QubitOperator:
        """Map a fermionic operator to its qubit image under this transform."""
        result = QubitOperator.zero(self.n_qubits)
        for term, coefficient in operator.terms.items():
            product = QubitOperator.identity(self.n_qubits, coefficient)
            for mode, is_creation in term:
                if mode >= self.n_modes:
                    raise ValueError(
                        f"operator acts on mode {mode} but transform covers only {self.n_modes} modes"
                    )
                factor = (
                    self.creation_operator(mode)
                    if is_creation
                    else self.annihilation_operator(mode)
                )
                product = product * factor
            result += product
        return result.compress()

    def __call__(self, operator: FermionOperator) -> QubitOperator:
        return self.transform(operator)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_modes={self.n_modes})"


class DictJordanWigner(FermionQubitTransform):
    """Jordan-Wigner: ``a_j = Z_0 ⊗ ... ⊗ Z_{j-1} ⊗ σ⁻_j`` with ``σ⁻ = (X + iY) / 2``."""

    def annihilation_operator(self, mode: int) -> QubitOperator:
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} out of range for {self.n_modes} modes")
        n = self.n_qubits
        # The Z chain is a run of low bits; the mode qubit carries X (or Y =
        # X and Z bits together).
        z_chain = (1 << mode) - 1
        mode_bit = 1 << mode
        x_string = PauliString.from_bitmasks(n, mode_bit, z_chain)
        y_string = PauliString.from_bitmasks(n, mode_bit, z_chain | mode_bit)
        return QubitOperator(n, {x_string: 0.5, y_string: 0.5j})


class DictLinearEncoding(FermionQubitTransform):
    """The Jordan-Wigner dict image conjugated by ``U_Γ`` of ``encoding``.

    Conjugation reads ``encoding``'s
    :meth:`~repro.transforms.LinearEncodingTransform.conjugate_planes`, so
    this oracle checks the compiler's closed-form Jordan-Wigner planes, not
    its Γ map; ``tests/verify`` checks the Γ map against a Clifford tableau.
    """

    def __init__(self, encoding: LinearEncodingTransform):
        super().__init__(encoding.n_modes)
        self.encoding = encoding
        self._jordan_wigner = DictJordanWigner(self.n_modes)

    def annihilation_operator(self, mode: int) -> QubitOperator:
        return self.conjugate(self._jordan_wigner.annihilation_operator(mode))

    def transform(self, operator: FermionOperator) -> QubitOperator:
        # Conjugating the full JW image once is cheaper than conjugating each
        # ladder-operator factor separately.
        return self.conjugate(self._jordan_wigner.transform(operator))

    def conjugate(self, operator: QubitOperator) -> QubitOperator:
        """``U_Γ O U_Γ†``, term by term in input order, signed by the Y-count rule."""
        if self.encoding.is_identity_encoding:
            return operator
        image, signs = self.encoding.conjugate_planes(PackedPaulis.from_strings(operator.terms))
        # Conjugation permutes the Pauli strings, so no two terms collide.
        return QubitOperator(
            operator.n_qubits,
            {
                string: sign * coefficient
                for string, sign, coefficient in zip(
                    image.to_strings(), signs.tolist(), operator.terms.values()
                )
            },
        )


def _mode_count(operator: FermionOperator, n_modes: Optional[int]) -> int:
    """``n_modes``, or the smallest register holding every mode ``operator`` touches."""
    if n_modes is None:
        n_modes = operator.max_orbital() + 1
        if n_modes <= 0:
            raise ValueError("cannot infer the mode count of a constant operator; pass n_modes")
    return n_modes


def jordan_wigner(operator: FermionOperator, n_modes: Optional[int] = None) -> QubitOperator:
    """Transform ``operator`` under Jordan-Wigner on ``n_modes`` modes."""
    return DictJordanWigner(_mode_count(operator, n_modes)).transform(operator)


def bravyi_kitaev(operator: FermionOperator, n_modes: Optional[int] = None) -> QubitOperator:
    """Transform ``operator`` with the Bravyi-Kitaev linear encoding."""
    return DictLinearEncoding(BravyiKitaevTransform(_mode_count(operator, n_modes))).transform(
        operator
    )


def parity_transform(operator: FermionOperator, n_modes: Optional[int] = None) -> QubitOperator:
    """Transform ``operator`` with the parity linear encoding."""
    return DictLinearEncoding(ParityTransform(_mode_count(operator, n_modes))).transform(operator)


def generalized_transform(operator: FermionOperator, gamma: np.ndarray) -> QubitOperator:
    """Transform ``operator`` with the generalized (Γ-conjugated JW) encoding."""
    return DictLinearEncoding(LinearEncodingTransform(gamma)).transform(operator)


# ----------------------------------------------------------------------
# The operators of src/ as FermionOperator
# ----------------------------------------------------------------------
def hamiltonian_operator(hamiltonian: MolecularHamiltonian) -> FermionOperator:
    """``E_const + Σ h_pq a†_p a_q + ½ Σ ⟨pq|rs⟩ a†_p a†_q a_s a_r`` above the tolerance."""
    operator = FermionOperator.identity(hamiltonian.constant)
    n = hamiltonian.n_spin_orbitals
    for p in range(n):
        for q in range(n):
            coefficient = hamiltonian.one_body[p, q]
            if abs(coefficient) > INTEGRAL_TOLERANCE:
                operator += FermionOperator(((p, True), (q, False)), coefficient)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    coefficient = 0.5 * hamiltonian.two_body[p, q, r, s]
                    if abs(coefficient) > INTEGRAL_TOLERANCE:
                        operator += FermionOperator(
                            ((p, True), (q, True), (s, False), (r, False)),
                            coefficient,
                        )
    return operator


def excitation_operator(term: ExcitationTerm, coefficient: float = 1.0) -> FermionOperator:
    """The bare excitation ``T`` of ``term`` (not yet anti-hermitian)."""
    if term.is_single:
        return FermionOperator.single_excitation(
            term.creation[0], term.annihilation[0], coefficient
        )
    p, q = term.creation
    # Stored as a†_p a†_q a_s a_r with (r, s) = annihilation indices; the
    # exact index order only affects the sign convention of θ.
    r, s = term.annihilation
    return FermionOperator.double_excitation(p, q, s, r, coefficient)


def generator(term: ExcitationTerm, parameter: float = 1.0) -> FermionOperator:
    """Anti-hermitian generator ``θ (T - T†)`` of the ansatz factor of ``term``."""
    excitation = excitation_operator(term, parameter)
    return excitation - excitation.hermitian_conjugate()


# ----------------------------------------------------------------------
# Statevector helpers on these operators
# ----------------------------------------------------------------------
def fermion_sparse(operator: FermionOperator, n_modes: int) -> sparse.csr_matrix:
    """Sparse matrix of a fermionic operator under the Jordan-Wigner encoding."""
    return jordan_wigner(operator, n_modes=n_modes).to_sparse()


def number_operator_sparse(n_qubits: int) -> sparse.csr_matrix:
    """Sparse total particle-number operator in the Jordan-Wigner encoding."""
    total = FermionOperator.zero()
    for mode in range(n_qubits):
        total += FermionOperator.number(mode)
    return fermion_sparse(total, n_qubits)


def apply_pauli_string(
    string: PauliString, state: np.ndarray, coefficient: complex = 1.0
) -> np.ndarray:
    """Return ``coefficient · P |state⟩`` without building a matrix.

    The Pauli string permutes basis indices by XOR with its X mask (in index
    bit order) and multiplies each amplitude by ``i^{|Y|} (-1)^{|z ∧ b|}``.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.size != 2 ** string.n_qubits:
        raise ValueError("operator and state dimensions do not match")
    rows, values = string.signed_permutation()
    # out[rows[c]] = values[c] * state[c]; XOR permutations are involutions,
    # so gathering through `rows` scatters to the right places.
    return coefficient * (values * state)[rows]


def apply_qubit_operator(operator: QubitOperator, state: np.ndarray) -> np.ndarray:
    """Return ``operator |state⟩`` as a sum of permutation applications."""
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.size != 2 ** operator.n_qubits:
        raise ValueError("operator and state dimensions do not match")
    result = np.zeros_like(state)
    for string, coefficient in operator.terms.items():
        result += apply_pauli_string(string, state, coefficient)
    return result


def expectation_value(operator: QubitOperator, state: np.ndarray) -> float:
    """Real part of ``⟨state| operator |state⟩``, matrix-free."""
    state = np.asarray(state, dtype=complex).reshape(-1)
    return float(np.real(np.vdot(state, apply_qubit_operator(operator, state))))


def sector(n_modes: int, n_particles: int) -> np.ndarray:
    """Basis indices of the ``n_particles`` sector: the Jordan-Wigner states whose
    popcount, the number of occupied modes, is ``n_particles``, in ascending order."""
    occupations = np.array([bin(index).count("1") for index in range(2**n_modes)])
    indices = np.flatnonzero(occupations == n_particles)
    if indices.size == 0:
        raise ValueError(f"no basis states with {n_particles} particles")
    return indices


def hartree_fock_state(n_modes: int, n_electrons: int) -> np.ndarray:
    """Full-register Jordan-Wigner Hartree-Fock determinant: modes ``0..N−1`` filled."""
    state = np.zeros(2**n_modes, dtype=complex)
    state[((1 << n_electrons) - 1) << (n_modes - n_electrons)] = 1.0
    return state


def prepare_state(
    terms: Iterable[ExcitationTerm], parameters: Iterable[float], n_modes: int, n_electrons: int
) -> np.ndarray:
    """``Π_k exp(θ_k (T_k − T_k†)) |HF⟩`` on the full register, each factor by ``expm_multiply``."""
    state = hartree_fock_state(n_modes, n_electrons)
    for term, parameter in zip(terms, parameters):
        state = expm_multiply(fermion_sparse(generator(term, parameter), n_modes), state)
    return state


def ground_state(
    operator: Union[QubitOperator, sparse.spmatrix], n_particles: Optional[int] = None
) -> GroundStateResult:
    """Lowest eigenpair of a full-register operator, optionally in a particle-number sector.

    With ``n_particles`` the matrix is cut down to :func:`sector` first, and the
    returned state has the sector's dimension.
    """
    matrix = operator.to_sparse() if isinstance(operator, QubitOperator) else operator
    if n_particles is not None:
        indices = sector(matrix.shape[0].bit_length() - 1, n_particles)
        matrix = sparse.csr_matrix(matrix)[np.ix_(indices, indices)]
    return sparse_ground_state(matrix)
