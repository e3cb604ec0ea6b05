"""Fermionic ladder-operator algebra.

A :class:`FermionOperator` is a complex linear combination of products of
fermionic creation and annihilation operators acting on spin orbitals labelled
by non-negative integers.  Individual products are represented by a
:class:`FermionTerm`, an immutable tuple of ``(orbital, is_creation)`` pairs.

The implementation mirrors the second-quantization conventions used in the
paper: a double excitation term reads ``a†_p a†_q a_r a_s`` and the
anti-hermitian generator used in UCCSD circuits is ``T - T†``.

Example
-------
>>> op = FermionOperator.creation(2) * FermionOperator.annihilation(0)
>>> op += 0.5 * FermionOperator.identity()
>>> sorted(op.terms.items())
[((), (0.5+0j)), (((2, True), (0, False)), (1+0j))]
"""

from __future__ import annotations

import numbers
from typing import Dict, Iterable, Iterator, Sequence, Tuple

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
