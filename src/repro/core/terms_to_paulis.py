"""Conversion of excitation terms to targeted Pauli-string exponentials.

Both the baseline and the advanced compiler Trotterize each excitation term's
anti-hermitian generator into a product of Pauli-string exponentials.  This
module performs the conversion under any linear-encoding fermion-to-qubit
transform and keeps track of the rotation angles (the variational parameters
θ only rescale the angles, so the CNOT counts are parameter-independent).

The scalar reference, ``excitation_to_rotations`` in
``tests/core/test_terms_to_paulis.py``, builds the generator ``θ (T − T†)``
as a dict of ladder-operator products and multiplies its Pauli-dict image
out with the test tree's operator algebra.
:func:`terms_to_rotations`, which every compiler calls, multiplies nothing
and returns :class:`RotationPlanes`, the rotations on packed bit-planes that
the sorts and the Γ search read; they unpack into :class:`PauliRotation`
items only where a caller reads items.  Under Jordan-Wigner a ladder
operator is ``½ (X ± i Y)`` on its mode times a Z chain below it, so the
product of the ``k`` ladder images of ``T`` (k = 2 or 4) is a sum of ``2^k``
Pauli strings, one per choice of X or Y at every factor.
:func:`jordan_wigner_rotations` writes each string's bit-masks and its
phase, an integer power of i, in closed form (:func:`_ladder_product`), and
does the same for ``T†``.  A term expands independently of the others, so
each term's rows are memoized per ``(term, θ, packed word count)``
(:func:`_term_planes`) and a request concatenates them: a sweep that
compiles the same terms on every backend, prefix and config seed runs the
closed form once per term.

**Exactness.**  Every ladder half is ±½ or ±½i, so a string's coefficient in
``θ (T − T†)`` is ``θ 2^{-k} (i^{e_T} − i^{e_D})`` with integer phases
``e_T``, ``e_D``.  Where the two terms cancel (``e_T = e_D``) the string
drops; where ``e_T`` is odd and ``e_D = e_T + 2`` the coefficient is
``±2i θ 2^{-k}`` and the angle ``−2 Im`` is ``∓θ 2^{2−k}``, one product of
θ with a power of two.  The reference path
only ever scales θ by powers of two and adds exact zeros or equal halves, so
both paths yield the same float bit for bit (angles at or below
:data:`ANGLE_TOLERANCE`, where the reference also drops coefficients under
its own 1e-12 cut, are dropped either way).  A real part would mean the
generator is not anti-hermitian; it raises :class:`ValueError` as the
reference does.

**Linear encodings only.**  A transform must be a
:class:`~repro.transforms.LinearEncodingTransform` (Jordan-Wigner is the
one with ``Γ = I``).  For ``Γ ≠ I`` the whole
request's Jordan-Wigner planes are mapped by one
:meth:`~repro.transforms.LinearEncodingTransform.conjugate_planes` call,
which applies the Y-count sign rule; every term's strings are then put in
:class:`~repro.operators.PauliString` order.  That step is
:meth:`RotationPlanes.encoded`; the Γ-search objectives run it per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.operators import PackedPaulis, PauliString, lexicographic_order
from repro.operators.symplectic import WORD_BITS
from repro.transforms import LinearEncodingTransform
from repro.vqe import ExcitationTerm

#: Imaginary-coefficient tolerance when extracting rotation angles.
ANGLE_TOLERANCE = 1e-10

#: ``i^e`` as (real, imaginary) integers, indexed by ``e mod 4``.
_POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class PauliRotation:
    """A single Pauli rotation ``exp(-i angle/2 · string)`` awaiting a target choice.

    ``term_index`` records which excitation term produced the rotation so that
    baseline (per-term) orderings can be reconstructed.
    """

    string: PauliString
    angle: float
    term_index: int


def _ladder_product(ladders: Sequence[Tuple[int, bool]]) -> Tuple[int, int, int, int]:
    """The Jordan-Wigner image of a product of ladder operators on distinct modes.

    ``ladders`` lists ``(mode, is_creation)`` left to right.  Factor ``f`` is
    ``½ (X_m + c_f i Y_m) Z_{<m}`` with ``c_f = −1`` for a creation and ``+1``
    for an annihilation operator.  Choosing Y at the factors of a mode set
    ``S`` gives the string with planes ``(x, z ⊕ S)``, where ``(x, z)`` is
    the all-X choice, and the coefficient ``2^{-k} i^e``.  Summing the
    phase rule of :meth:`~repro.operators.PauliString.multiply`,
    ``|Y_1| + |Y_2| − |Y_{12}| + 2 |z_1 ∧ x_2|``, over the product gives
    ``e = Σ_f (b_f (c_f + 1) + 2 |z_{<f} ∧ x_f|) − |x ∧ (z ⊕ S)|`` with
    ``b_f = [m_f ∈ S]``.  On distinct modes the cross term does not depend
    on ``S`` and ``c_f + 1`` is 0 for a creation and 2 for an annihilation,
    so ``e = base + 2 |S ∧ annihilated| − |x ∧ (z ⊕ S)|``.

    Returns ``(x, z, base, annihilated)``.
    """
    x = z = base = annihilated = 0
    for mode, is_creation in ladders:
        base += 2 * ((z >> mode) & 1)
        bit = 1 << mode
        x |= bit
        z ^= bit - 1
        if not is_creation:
            annihilated |= bit
    return x, z, base, annihilated


@dataclass(frozen=True, eq=False)
class RotationPlanes(Sequence[PauliRotation]):
    """Pauli rotations on packed bit-planes: row ``i`` of ``strings`` rotates by ``angles[i]``.

    ``term_index[i]`` is the excitation term that produced row ``i``; rows
    are grouped by term, ascending.  As a read-only sequence, item ``i`` is
    row ``i`` as a :class:`PauliRotation` (Python ``float`` angle, ``int``
    term index), all unpacked on first access and cached.
    """

    strings: PackedPaulis
    angles: np.ndarray
    term_index: np.ndarray

    def __len__(self) -> int:
        return len(self.strings)

    def __getitem__(self, index):
        return self._rotations[index]

    @cached_property
    def _rotations(self) -> List[PauliRotation]:
        columns = (self.strings.to_strings(), self.angles.tolist(), self.term_index.tolist())
        return list(map(PauliRotation, *columns))

    def encoded(self, transform: LinearEncodingTransform) -> "RotationPlanes":
        """Jordan-Wigner planes mapped by Γ, each term's rows in label order.

        For ``Γ ≠ I`` the planes go through one
        :meth:`~repro.transforms.LinearEncodingTransform.conjugate_planes`
        call and the angles take its signs; conjugation only flips signs, so
        the dropped rotations do not depend on Γ.  The result is what
        :func:`terms_to_rotations` returns under ``transform``.
        """
        strings, angles = self.strings, self.angles
        if not transform.is_identity_encoding:
            strings, signs = transform.conjugate_planes(strings)
            angles = signs * angles
        order = lexicographic_order(strings, groups=self.term_index)
        return RotationPlanes(strings.take(order), angles[order], self.term_index[order])


#: Distinct ``(term, θ, word count)`` expansions :func:`_term_planes` keeps:
#: an entry holds at most 16 strings, so the memo stays under ~4 MB.
TERM_PLANES_CACHE_SIZE = 4096


@lru_cache(maxsize=TERM_PLANES_CACHE_SIZE, typed=True)
def _term_planes(
    creation: Tuple[int, ...], annihilation: Tuple[int, ...], theta: float, n_words: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One term's Jordan-Wigner ``(x, z, angles)`` rows, read-only, in expansion order.

    A term expands independently of the others, so every compile of it at
    this θ and packed width shares one expansion (``typed``: equal θ of
    different types, such as ``float`` and ``numpy.float32``, are distinct
    keys, as their products may round differently).  A real part above
    :data:`ANGLE_TOLERANCE` raises :class:`ValueError`, which the caller
    prefixes with the term.
    """
    # T = a†_p (a†_q) (a_s) a_r, the index order of the simulator's UCC
    # generators, and T† reverses it with every dagger flipped.
    ladders = [(mode, True) for mode in creation]
    ladders += [(mode, False) for mode in reversed(annihilation)]
    x, z, base_t, annihilated_t = _ladder_product(ladders)
    _, _, base_d, annihilated_d = _ladder_product(
        [(mode, not is_creation) for mode, is_creation in reversed(ladders)]
    )
    unit = 2.0 ** -len(ladders)
    z_masks: List[int] = []
    angles: List[float] = []
    selection = 0
    while True:
        string_z = z ^ selection
        y_count = (x & string_z).bit_count()
        t_real, t_imag = _POWERS_OF_I[
            (base_t + 2 * (selection & annihilated_t).bit_count() - y_count) & 3
        ]
        # −T†: the minus sign is the extra 2 in the exponent.
        d_real, d_imag = _POWERS_OF_I[
            (base_d + 2 * (selection & annihilated_d).bit_count() - y_count + 2) & 3
        ]
        real, imag = t_real + d_real, t_imag + d_imag
        if real and abs(theta * unit * real) > ANGLE_TOLERANCE:
            coefficient = complex(theta * unit * real, theta * unit * imag)
            raise ValueError(f"produced a non-anti-hermitian coefficient {coefficient}")
        angle = theta * (-2 * imag * unit)
        if abs(angle) > ANGLE_TOLERANCE:
            z_masks.append(string_z)
            angles.append(angle)
        # Next subset of the mode set x.
        selection = (selection - x) & x
        if not selection:
            break
    packed = PackedPaulis.from_masks(WORD_BITS * n_words, [x] * len(z_masks), z_masks)
    rows = (packed.x, packed.z, np.array(angles, dtype=np.float64))
    for row in rows:
        row.flags.writeable = False
    return rows


def jordan_wigner_rotations(
    terms: Sequence[ExcitationTerm],
    n_qubits: int,
    parameters: Optional[Sequence[float]] = None,
) -> RotationPlanes:
    """The Jordan-Wigner rotations of ``terms``, each term's strings in expansion order.

    The strings, angles and drops are those of :func:`terms_to_rotations`
    under ``JordanWignerTransform(n_qubits)``; only the order inside a term
    differs.  ``parameters`` defaults to θ = 1 for every term and must be
    finite.  Raises :class:`ValueError` before any work if a term acts on a
    mode ≥ ``n_qubits`` or the parameter count is not the term count.  Each
    term's rows come from the per-term memo :func:`_term_planes`; the
    returned arrays are fresh.
    """
    if parameters is None:
        parameters = [1.0] * len(terms)
    if len(parameters) != len(terms):
        raise ValueError("one parameter per excitation term is required")
    top = max((term.max_spin_orbital() for term in terms), default=-1)
    if top >= n_qubits:
        raise ValueError(
            f"operator acts on mode {top} but transform covers only {n_qubits} modes"
        )
    for index, theta in enumerate(parameters):
        if not math.isfinite(theta):
            raise ValueError(f"parameter {theta!r} of term {index} is not finite")
    n_words = max(1, -(-n_qubits // WORD_BITS))
    # An empty first row fixes the width and dtypes when no term is given.
    empty = np.zeros((0, n_words), dtype=np.uint64)
    rows = [(empty, empty, np.zeros(0))]
    for term, theta in zip(terms, parameters):
        try:
            rows.append(_term_planes(term.creation, term.annihilation, theta, n_words))
        except ValueError as error:
            raise ValueError(f"generator of {term} {error}") from None
    x, z, angles = (np.concatenate(column) for column in zip(*rows))
    counts = [len(term_angles) for _, _, term_angles in rows[1:]]
    return RotationPlanes(
        strings=PackedPaulis(n_qubits, x, z),
        angles=angles,
        term_index=np.repeat(np.arange(len(terms), dtype=np.int64), counts),
    )


def terms_to_rotations(
    terms: Sequence[ExcitationTerm],
    transform: LinearEncodingTransform,
    parameters: Optional[Sequence[float]] = None,
) -> RotationPlanes:
    """Expand an ordered list of excitation terms into Pauli rotations.

    Returns, as :class:`RotationPlanes`, what concatenating the scalar
    reference (module docstring) over the terms returns — the same
    strings, angles, term indices and order — from the closed-form kernel
    :func:`jordan_wigner_rotations` and :meth:`RotationPlanes.encoded`.
    ``transform`` must be a :class:`~repro.transforms.LinearEncodingTransform`
    (Jordan-Wigner included); any other transform raises :class:`TypeError`.
    """
    if not isinstance(transform, LinearEncodingTransform):
        raise TypeError(
            f"terms_to_rotations needs a linear encoding, not {type(transform).__name__}"
        )
    return jordan_wigner_rotations(terms, transform.n_modes, parameters).encoded(transform)


def required_qubits(terms: Sequence[ExcitationTerm]) -> int:
    """Smallest register size covering every term."""
    if not terms:
        return 0
    return max(term.max_spin_orbital() for term in terms) + 1
