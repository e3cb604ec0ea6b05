"""The unified compilation interface: requests, results, protocol, registry.

Every Table-I compilation flow — Jordan-Wigner, Bravyi-Kitaev, the prior-art
baseline and the advanced Fig. 2 pipeline — is exposed as a
:class:`CompilerBackend`: an object with a ``name`` and a
``compile(request) -> CompileResult`` method.  Backends are looked up by
string key in a process-wide registry, so benchmarks, examples and the batch
service iterate over flows uniformly instead of hand-wiring each entry point:

>>> from repro.api import CompileRequest, get_backend
>>> result = get_backend("advanced").compile(CompileRequest(terms=terms))
>>> result.cnot_count, result.breakdown["fermionic"]

New encodings plug in by registering a backend; no caller changes needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Protocol, Tuple, runtime_checkable

from repro.api.config import CompilerConfig
from repro.core.config import fields_state
from repro.core.terms_to_paulis import required_qubits
from repro.hardware.routing import RoutingMetrics
from repro.vqe import ExcitationTerm


@dataclass(frozen=True)
class CompileRequest:
    """One compilation job: an excitation-term list plus its configuration.

    Frozen and hashable so identical requests deduplicate in caches.  The
    ``importance`` metadata of the terms is deliberately excluded from the
    :attr:`fingerprint` — it never influences compilation, only term
    selection, which happens before a request is built.
    """

    terms: Tuple[ExcitationTerm, ...]
    n_qubits: Optional[int] = None
    parameters: Optional[Tuple[float, ...]] = None
    config: CompilerConfig = field(default_factory=CompilerConfig)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a compile request needs at least one excitation term")
        if self.parameters is not None:
            parameters = tuple(float(p) for p in self.parameters)
            if len(parameters) != len(self.terms):
                raise ValueError("one parameter per excitation term is required")
            if not all(math.isfinite(p) for p in parameters):
                raise ValueError(f"parameters must be finite, got {parameters}")
            object.__setattr__(self, "parameters", parameters)
        if not isinstance(self.config, CompilerConfig):
            raise TypeError("config must be a CompilerConfig")
        topology = self.config.topology
        if topology is not None and topology.n_qubits < self.resolved_n_qubits:
            raise ValueError(
                f"topology {topology.name!r} has {topology.n_qubits} qubits but "
                f"the request needs {self.resolved_n_qubits}; pick a topology "
                f"with at least {self.resolved_n_qubits} qubits"
            )

    @property
    def resolved_n_qubits(self) -> int:
        """Explicit register size, or the smallest one covering every term."""
        if self.n_qubits is not None:
            return self.n_qubits
        return required_qubits(list(self.terms))

    @cached_property
    def input_fingerprint(self) -> Tuple:
        """Hashable identity of the compilation input, config excluded.

        Cache keys of backends that declare a ``cache_config`` narrower than
        the whole config (the naive JW/BK flows, the baseline without PSO)
        pair it with that part, so config sweeps share one cache entry per
        term list.  Computed once per request, like :attr:`fingerprint`.
        """
        terms_key = tuple((term.creation, term.annihilation) for term in self.terms)
        return (terms_key, self.n_qubits, self.parameters)

    @cached_property
    def fingerprint(self) -> Tuple:
        """Hashable identity of the compilation input (backend-independent)."""
        return self.input_fingerprint + (self.config.fingerprint,)

    def __getstate__(self):
        return fields_state(self)


@dataclass(frozen=True)
class CompileResult:
    """Common result shape every backend returns.

    ``details`` carries the backend's native result object (e.g. an
    :class:`~repro.core.pipeline.AdvancedCompilationResult`) for callers that
    need flow-specific data; it is excluded from equality so results cache and
    compare on the headline numbers.  ``routing`` holds the
    :class:`~repro.hardware.routing.RoutingMetrics` of the synthesized
    circuit when the request's config carried a topology (``None``
    otherwise); for the advanced flow the routed circuit covers the
    fermionic segment — compressed bosonic/hybrid segments are
    cost-accounted, not synthesized.  ``stage_timings`` maps pipeline stage
    name → wall seconds for staged flows (the advanced pipeline), ``None``
    for single-step flows; ``run_table1 --trace`` and the obs span tree
    report from it.

    ``degraded`` is True when any optimizer stage hit its anytime budget
    (``CompilerConfig.gamma_budget_steps`` / ``sorting_budget_rounds``)
    and returned its best-so-far answer; ``degraded_stages`` names the
    truncated stages.  A degraded result is still a valid, verifiable
    circuit — the flag reports that the configured search effort was cut
    short, not that the output is wrong.  Both are excluded from equality:
    a degraded compile of the same request may legitimately report a
    different (no better) CNOT count, and equality keeps meaning "same
    headline numbers".
    """

    backend: str
    cnot_count: int
    n_qubits: int
    breakdown: Dict[str, int] = field(compare=False, default_factory=dict)
    wall_time_s: float = field(compare=False, default=0.0)
    details: Any = field(compare=False, default=None, repr=False)
    routing: Optional["RoutingMetrics"] = field(compare=False, default=None)
    stage_timings: Optional[Dict[str, float]] = field(
        compare=False, default=None, repr=False
    )
    degraded: bool = field(compare=False, default=False)
    degraded_stages: Optional[Tuple[str, ...]] = field(compare=False, default=None)


@runtime_checkable
class CompilerBackend(Protocol):
    """Anything that compiles a :class:`CompileRequest` into a :class:`CompileResult`.

    A backend may also define ``cache_config(config)``, returning the part of
    the config its result depends on; :meth:`repro.api.CompileCache.key`
    keys on that part instead of the whole config.
    """

    @property
    def name(self) -> str:
        """Canonical registry key of the backend."""
        ...

    def compile(self, request: CompileRequest) -> CompileResult:
        ...


class BackendRegistrationError(ValueError):
    """Raised when a backend name (or alias) is already taken."""


_REGISTRY: Dict[str, CompilerBackend] = {}
_CANONICAL: Dict[str, str] = {}  # alias -> canonical name (canonical maps to itself)


def register_backend(
    backend: CompilerBackend,
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> CompilerBackend:
    """Register a backend under its ``name`` plus optional aliases.

    Re-registering a taken name raises :class:`BackendRegistrationError`
    unless ``replace=True``.  Returns the backend so the call can be used as a
    statement or chained.
    """
    names = (backend.name,) + tuple(aliases)
    if not replace:
        taken = [key for key in names if key in _CANONICAL]
        if taken:
            raise BackendRegistrationError(
                f"backend name(s) already registered: {taken}; "
                "pass replace=True to override"
            )
    _REGISTRY[backend.name] = backend
    for key in names:
        _CANONICAL[key] = backend.name
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend and every alias pointing at it (mostly for tests)."""
    canonical = _CANONICAL.get(name, name)
    _REGISTRY.pop(canonical, None)
    for key in [key for key, value in _CANONICAL.items() if value == canonical]:
        del _CANONICAL[key]


def get_backend(name: str) -> CompilerBackend:
    """Look a backend up by canonical name or alias."""
    canonical = _CANONICAL.get(name)
    if canonical is None:
        raise KeyError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    return _REGISTRY[canonical]


def canonical_backend_name(name: str) -> str:
    """Resolve an alias to the canonical registry name (used in cache keys)."""
    return get_backend(name).name


def available_backends() -> List[str]:
    """Sorted canonical names of every registered backend."""
    return sorted(_REGISTRY)
