"""UCCSD excitation terms.

The unitary coupled-cluster singles-doubles ansatz is built from excitation
terms ``Z1 = Σ θ_pr a†_p a_r`` (singles, virtual p, occupied r) and
``Z2 = Σ θ_pqrs a†_p a†_q a_r a_s`` (doubles).  Each term contributes the
anti-hermitian generator ``θ (T - T†)`` to the Trotterized ansatz circuit.

The classes here carry exactly the index structure the paper's optimizations
act on: whether the creation (or annihilation) pair of a double excitation is
a same-spatial-orbital spin pair ``(2p, 2p+1)`` decides whether the term is
bosonic, hybrid or fermionic (Sec. III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.operators import FermionOperator


def is_spin_pair(index_low: int, index_high: int) -> bool:
    """True if the two spin orbitals are the α/β pair of one spatial orbital.

    With interleaved spin ordering that means ``(2k, 2k+1)``; this is the
    "spin degree of freedom" pair symmetry the paper restricts its bosonic and
    hybrid compression to.
    """
    low, high = sorted((index_low, index_high))
    return high == low + 1 and low % 2 == 0


@dataclass(frozen=True)
class ExcitationTerm:
    """A single UCCSD excitation term ``a†_{c1} (a†_{c2}) a_{a1} (a_{a2})``.

    Parameters
    ----------
    creation:
        Spin orbitals the excitation creates particles in (1 for singles,
        2 for doubles), stored in ascending order.
    annihilation:
        Spin orbitals the excitation annihilates particles from, ascending.
    importance:
        Optional HMP2 ranking weight (larger = more important).
    """

    creation: Tuple[int, ...]
    annihilation: Tuple[int, ...]
    importance: float = 0.0

    def __post_init__(self):
        creation = tuple(sorted(int(i) for i in self.creation))
        annihilation = tuple(sorted(int(i) for i in self.annihilation))
        if len(creation) != len(annihilation):
            raise ValueError("creation and annihilation index counts must match")
        if len(creation) not in (1, 2):
            raise ValueError("only single and double excitations are supported")
        if len(set(creation)) != len(creation) or len(set(annihilation)) != len(annihilation):
            raise ValueError("repeated indices in an excitation term")
        if set(creation) & set(annihilation):
            raise ValueError("creation and annihilation indices must be disjoint")
        if min(creation + annihilation) < 0:
            raise ValueError("spin-orbital indices must be non-negative")
        object.__setattr__(self, "creation", creation)
        object.__setattr__(self, "annihilation", annihilation)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_single(self) -> bool:
        return len(self.creation) == 1

    @property
    def is_double(self) -> bool:
        return len(self.creation) == 2

    @property
    def creation_is_spin_pair(self) -> bool:
        """True if the creation indices form a same-spatial-orbital spin pair."""
        return self.is_double and is_spin_pair(*self.creation)

    @property
    def annihilation_is_spin_pair(self) -> bool:
        """True if the annihilation indices form a same-spatial-orbital spin pair."""
        return self.is_double and is_spin_pair(*self.annihilation)

    @property
    def encoding_class(self) -> str:
        """Paper classification: ``"bosonic"``, ``"hybrid"`` or ``"fermionic"``.

        Doubles whose creation *and* annihilation pairs are both spin pairs are
        bosonic (both pairs compressible); exactly one spin pair makes the term
        hybrid; everything else (and every single excitation) is fermionic.
        """
        if not self.is_double:
            return "fermionic"
        pair_flags = (self.creation_is_spin_pair, self.annihilation_is_spin_pair)
        if all(pair_flags):
            return "bosonic"
        if any(pair_flags):
            return "hybrid"
        return "fermionic"

    @property
    def spin_orbitals(self) -> Tuple[int, ...]:
        """All spin orbitals the term touches, ascending."""
        return tuple(sorted(self.creation + self.annihilation))

    def max_spin_orbital(self) -> int:
        return max(self.spin_orbitals)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def excitation_operator(self, coefficient: float = 1.0) -> FermionOperator:
        """The bare excitation ``T`` (not yet anti-hermitian)."""
        if self.is_single:
            return FermionOperator.single_excitation(
                self.creation[0], self.annihilation[0], coefficient
            )
        p, q = self.creation
        # Store as a†_p a†_q a_s a_r with (r, s) = annihilation indices; the
        # exact index order only affects the sign convention of θ.
        r, s = self.annihilation
        return FermionOperator.double_excitation(p, q, s, r, coefficient)

    def generator(self, parameter: float = 1.0) -> FermionOperator:
        """Anti-hermitian generator ``θ (T - T†)`` of the ansatz factor."""
        excitation = self.excitation_operator(parameter)
        return excitation - excitation.hermitian_conjugate()

    def __repr__(self) -> str:
        daggers = " ".join(f"a^{i}" for i in self.creation)
        plain = " ".join(f"a{i}" for i in self.annihilation)
        return f"ExcitationTerm({daggers} {plain}, class={self.encoding_class})"


def uccsd_excitation_terms(
    n_spin_orbitals: int,
    n_electrons: int,
    include_singles: bool = True,
    spin_preserving: bool = True,
) -> List[ExcitationTerm]:
    """Enumerate all UCCSD excitation terms for a Hartree-Fock reference.

    Occupied spin orbitals are ``0 .. n_electrons - 1``; virtual ones are the
    rest.  With ``spin_preserving`` (default) only excitations conserving the
    z-projection of spin are generated, matching standard UCCSD.
    """
    if n_electrons < 0 or n_electrons > n_spin_orbitals:
        raise ValueError("invalid electron count")
    occupied = list(range(n_electrons))
    virtual = list(range(n_electrons, n_spin_orbitals))
    terms: List[ExcitationTerm] = []

    def spin(index: int) -> int:
        return index % 2

    if include_singles:
        for i in occupied:
            for a in virtual:
                if spin_preserving and spin(i) != spin(a):
                    continue
                terms.append(ExcitationTerm(creation=(a,), annihilation=(i,)))

    for index_i, i in enumerate(occupied):
        for j in occupied[index_i + 1:]:
            for index_a, a in enumerate(virtual):
                for b in virtual[index_a + 1:]:
                    if spin_preserving and spin(i) + spin(j) != spin(a) + spin(b):
                        continue
                    terms.append(ExcitationTerm(creation=(a, b), annihilation=(i, j)))
    return terms
