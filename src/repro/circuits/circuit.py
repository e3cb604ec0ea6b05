"""Quantum circuit container with CNOT accounting.

The circuit is a flat, ordered list of :class:`~repro.circuits.gates.Gate`
objects on a fixed register size.  The figure of merit throughout the paper is
the number of CNOT gates, exposed here as :attr:`Circuit.cnot_count`.

Simulation (``to_unitary`` / ``apply_to_statevector``) runs on a
tensor-contraction engine: the state (or the identity operator) is held as a
``(2,)*n`` (or ``(2,)*2n``) tensor and every gate is one ``np.tensordot``
contraction of its 2x2/4x4 matrix against the acted-on axes — no gate is ever
embedded into a dense ``2**n x 2**n`` matrix.  A fusion pass
(:func:`_fused_operations`) first merges runs of gates sharing at most two
qubits into a single 2x2/4x4 matrix, so long single-qubit chains and
basis-change/CNOT sandwiches cost one contraction instead of many.

Derived metrics (``cnot_count``, ``depth`` …) are memoized per circuit and
invalidated on every :meth:`append` (hence also ``extend``; ``compose``,
``copy`` and slicing build fresh circuits), so hot consumers — routing
metrics, Table-I accounting, benchmarks — pay the gate walk once.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.gates import Gate

#: Independent seeds for the ``equals_up_to_global_phase`` random probes.
_PROBE_SEEDS = (0x5EED, 0x5EED << 1, 0x5EED << 2)

#: Cap on the probe early-reject threshold: for unitaries U, V and a unit
#: probe ψ the deviation ||<Uψ|Vψ>| - 1| never exceeds 1, so an uncapped
#: ``dim * tolerance`` bound is vacuous at large dim.
_PROBE_DEVIATION_CAP = 0.1

_IDENTITY_2 = np.eye(2, dtype=complex)
_SWAP_4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class Circuit:
    """An ordered sequence of gates on ``n_qubits`` qubits."""

    __slots__ = ("n_qubits", "_gates", "_metrics")

    def __init__(self, n_qubits: int, gates: Optional[Iterable[Gate]] = None):
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = int(n_qubits)
        self._gates: List[Gate] = []
        self._metrics: Dict[str, object] = {}
        if gates:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append a gate, validating its qubits fit in the register."""
        if not isinstance(gate, Gate):
            raise TypeError(f"expected Gate, got {type(gate).__name__}")
        for qubit in gate.qubits:
            if not 0 <= qubit < self.n_qubits:
                raise ValueError(
                    f"gate {gate} acts outside a register of {self.n_qubits} qubits"
                )
        self._gates.append(gate)
        if self._metrics:
            self._metrics.clear()
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append every gate from an iterable."""
        for gate in gates:
            self.append(gate)
        return self

    def compose(self, other: "Circuit") -> "Circuit":
        """Return a new circuit running ``self`` then ``other``."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot compose circuits on different register sizes")
        return Circuit(self.n_qubits, list(self._gates) + list(other._gates))

    def inverse(self) -> "Circuit":
        """Return the inverse circuit (reversed order of inverted gates)."""
        return Circuit(self.n_qubits, [gate.inverse() for gate in reversed(self._gates)])

    def copy(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self._gates))

    def __add__(self, other: "Circuit") -> "Circuit":
        return self.compose(other)

    # ------------------------------------------------------------------
    # Accounting (memoized; every cache entry dies on the next append)
    # ------------------------------------------------------------------
    def _memo(self, key: str, compute):
        cached = self._metrics.get(key)
        if cached is None:
            cached = compute()
            self._metrics[key] = cached
        return cached

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""
        return self._memo("gates", lambda: tuple(self._gates))

    @property
    def cnot_count(self) -> int:
        """Number of CNOT gates — the paper's primary cost metric."""
        return self._memo(
            "cnot_count", lambda: sum(1 for gate in self._gates if gate.is_cnot)
        )

    @property
    def two_qubit_count(self) -> int:
        """Number of two-qubit gates of any kind."""
        return self._memo(
            "two_qubit_count",
            lambda: sum(1 for gate in self._gates if gate.is_two_qubit),
        )

    @property
    def single_qubit_count(self) -> int:
        """Number of single-qubit gates."""
        return self._memo(
            "single_qubit_count",
            lambda: sum(1 for gate in self._gates if gate.is_single_qubit),
        )

    def count(self, name: str) -> int:
        """Number of gates with the given name."""
        return self.gate_histogram().get(name.upper(), 0)

    def _critical_path(self, two_qubit_only: bool) -> int:
        frontier = [0] * self.n_qubits
        for gate in self._gates:
            if two_qubit_only and not gate.is_two_qubit:
                continue
            layer = 1 + max(frontier[q] for q in gate.qubits)
            for q in gate.qubits:
                frontier[q] = layer
        return max(frontier, default=0)

    def depth(self) -> int:
        """Circuit depth assuming gates on disjoint qubits run in parallel."""
        return self._memo("depth", lambda: self._critical_path(two_qubit_only=False))

    def two_qubit_depth(self) -> int:
        """Depth counting only two-qubit gates (single-qubit gates are free).

        The critical-path length over CNOT/CZ/SWAP layers — the figure that
        dominates execution time and decoherence on hardware, reported by the
        routing benchmarks alongside :attr:`cnot_count`.
        """
        return self._memo(
            "two_qubit_depth", lambda: self._critical_path(two_qubit_only=True)
        )

    def gate_histogram(self) -> dict:
        """Gate counts by name, e.g. ``{"CNOT": 12, "H": 4, "RZ": 3}``.

        The returned dict is a fresh copy on every call; mutating it cannot
        poison the cache.
        """

        def compute():
            histogram: dict = {}
            for gate in self._gates:
                histogram[gate.name] = histogram.get(gate.name, 0) + 1
            return histogram

        return dict(self._memo("gate_histogram", compute))

    def qubits_used(self) -> Tuple[int, ...]:
        """Sorted tuple of qubits touched by at least one gate."""
        return tuple(sorted({q for gate in self._gates for q in gate.qubits}))

    def parameters(self) -> Tuple[float, ...]:
        """All rotation angles, in gate order."""
        return tuple(g.parameter for g in self._gates if g.parameter is not None)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Circuit(self.n_qubits, self._gates[index])
        return self._gates[index]

    # ------------------------------------------------------------------
    # Simulation / verification
    # ------------------------------------------------------------------
    def to_unitary(self) -> np.ndarray:
        """Dense unitary of the circuit (qubit 0 is the most significant bit).

        The identity operator is held as a ``(2,)*2n`` tensor (row axes first)
        and every fused operation is contracted against the row axes — one
        small ``tensordot`` per fused gate group, never an embedded
        ``2**n x 2**n`` gate matrix or a dense matmul.  Intended for
        verification on small registers; the cost is ``O(4**n_qubits)``
        memory.
        """
        n = self.n_qubits
        dim = 2 ** n
        tensor = np.eye(dim, dtype=complex).reshape((2,) * (2 * n))
        for qubits, matrix in self._fused():
            tensor = _apply_matrix_to_tensor(tensor, matrix, qubits, 2 * n)
        return tensor.reshape(dim, dim)

    def apply_to_statevector(self, state: np.ndarray) -> np.ndarray:
        """Apply the circuit to a statevector of length ``2**n_qubits``."""
        state = np.asarray(state, dtype=complex).reshape((2,) * self.n_qubits)
        for qubits, matrix in self._fused():
            state = _apply_matrix_to_tensor(state, matrix, qubits, self.n_qubits)
        return state.reshape(-1)

    def _fused(self) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
        """Fused operation list, memoized like the other derived metrics."""
        return self._memo("fused_ops", lambda: _fused_operations(self._gates))

    def equals_up_to_global_phase(self, other: "Circuit", tolerance: float = 1e-8) -> bool:
        """True if the two circuits implement the same unitary up to global phase.

        A cheap pre-check first applies both circuits to a few fixed
        pseudo-random statevectors: genuinely different unitaries almost
        surely move them to states with overlap magnitude well below one, so
        the ``O(4**n)`` full-unitary comparison only runs for (near-)equal
        circuits.  The pre-check threshold is scaled so any pair the full
        entrywise check could accept is never rejected early — but it is
        capped, because the naive ``dim * tolerance`` Frobenius bound grows
        past the largest possible overlap deviation once ``dim`` is large,
        which would make the probe vacuous and send every comparison to the
        dense check.  Independent probes keep the false-accept odds of the
        cheap path negligible.
        """
        if other.n_qubits != self.n_qubits:
            return False
        dim = 2 ** self.n_qubits
        # Entrywise deviation <= tolerance on U†V - phase·I bounds the probe
        # overlap deviation by dim * tolerance (Frobenius bound); the cap
        # keeps the pre-check decisive at large dim, where the uncapped bound
        # exceeds the maximum deviation any probe could ever show.
        threshold = min(dim * tolerance, _PROBE_DEVIATION_CAP) + 1e-9
        for seed in _PROBE_SEEDS:
            rng = np.random.default_rng(seed)
            probe = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            probe /= np.linalg.norm(probe)
            overlap = np.vdot(
                self.apply_to_statevector(probe), other.apply_to_statevector(probe)
            )
            if abs(abs(overlap) - 1.0) > threshold:
                return False
        u, v = self.to_unitary(), other.to_unitary()
        product = u.conj().T @ v
        phase = product[0, 0]
        if abs(abs(phase) - 1.0) > tolerance:
            return False
        return np.allclose(product, phase * np.eye(product.shape[0]), atol=tolerance)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Circuit(n_qubits={self.n_qubits}, gates={len(self._gates)}, "
            f"cnots={self.cnot_count})"
        )

    def summary(self) -> str:
        """One gate per line, for debugging and documentation examples."""
        return "\n".join(repr(gate) for gate in self._gates)


class _FusionGroup:
    """A run of gates confined to at most two qubits, fused into one matrix."""

    __slots__ = ("qubits", "gates", "position", "alive")

    def __init__(self, qubits: set, gates: List[Gate], position: int):
        self.qubits = qubits
        self.gates = gates
        self.position = position
        self.alive = True


def _fused_operations(gates: Sequence[Gate]) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
    """Greedy adjacent-gate fusion: maximal runs sharing <= 2 qubits.

    Scans the gate list once, keeping for every qubit the most recent group
    acting on it.  A gate joins (and possibly merges) existing groups when the
    union of their qubit supports stays within two qubits AND each absorbed
    group is still the *last* group on every one of its qubits — that
    invariant guarantees no group emitted later touches the absorbed group's
    qubits, so moving its gates forward to the merge point crosses only
    disjoint (hence commuting) operations.  The merged group keeps the
    position of its latest member, preserving the circuit ordering exactly.
    """
    groups: List[_FusionGroup] = []
    last_on: Dict[int, _FusionGroup] = {}
    for gate in gates:
        owners: List[_FusionGroup] = []
        for qubit in gate.qubits:
            owner = last_on.get(qubit)
            if owner is not None and owner not in owners:
                owners.append(owner)
        union = set(gate.qubits)
        for owner in owners:
            union.update(owner.qubits)
        mergeable = (
            owners
            and len(union) <= 2
            and all(
                all(last_on.get(q) is owner for q in owner.qubits)
                for owner in owners
            )
        )
        if mergeable:
            # Fuse into the most recently *created* owner (owners arrive in
            # gate-qubit order, which need not match creation order); earlier
            # owners' gates are prepended — owners are pairwise disjoint, so
            # their relative order is free, and nothing created after any
            # owner touches its qubits, so moving gates forward to the latest
            # owner's position crosses only commuting groups.
            target = max(owners, key=lambda owner: owner.position)
            for owner in owners:
                if owner is target:
                    continue
                target.gates[:0] = owner.gates
                owner.alive = False
            target.qubits = union
            target.gates.append(gate)
            for qubit in union:
                last_on[qubit] = target
        else:
            group = _FusionGroup(set(gate.qubits), [gate], len(groups))
            groups.append(group)
            for qubit in gate.qubits:
                last_on[qubit] = group
    return [
        (tuple(sorted(group.qubits)), _group_matrix(tuple(sorted(group.qubits)), group.gates))
        for group in groups
        if group.alive
    ]


def _group_matrix(qubits: Tuple[int, ...], gates: List[Gate]) -> np.ndarray:
    """Fused matrix of a gate run on its (sorted) qubit tuple, qubit-0-as-MSB."""
    if len(qubits) == 1:
        if len(gates) == 1:
            return gates[0].matrix()
        matrix = _IDENTITY_2
        for gate in gates:
            matrix = gate.matrix() @ matrix
        return matrix
    if len(gates) == 1 and gates[0].qubits == qubits:
        return gates[0].matrix()
    position = {qubit: index for index, qubit in enumerate(qubits)}
    matrix = np.eye(4, dtype=complex)
    for gate in gates:
        small = gate.matrix()
        if gate.is_single_qubit:
            if position[gate.qubits[0]] == 0:
                small = np.kron(small, _IDENTITY_2)
            else:
                small = np.kron(_IDENTITY_2, small)
        elif position[gate.qubits[0]] == 1:
            # Wire order reversed relative to the sorted group tuple.
            small = _SWAP_4 @ small @ _SWAP_4
        matrix = small @ matrix
    return matrix


def _apply_matrix_to_tensor(
    tensor: np.ndarray, matrix: np.ndarray, axes: Tuple[int, ...], total: int
) -> np.ndarray:
    """Contract a 2x2/4x4 matrix against the given axes of a ``(2,)*total`` tensor."""
    k = len(axes)
    matrix = matrix.reshape((2,) * (2 * k))
    # Contract the matrix's input legs with the tensor's axes; tensordot
    # places the output legs first, followed by the untouched axes in their
    # original relative order.
    tensor = np.tensordot(matrix, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    # Build the permutation that puts the new axes (0..k-1) back at `axes`.
    permutation = []
    rest = iter(range(k, total))
    for axis in range(total):
        if axis in axes:
            permutation.append(axes.index(axis))
        else:
            permutation.append(next(rest))
    return np.transpose(tensor, permutation)
