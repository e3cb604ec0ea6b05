"""VQE layer: UCCSD excitation terms, HMP2 ordering and the adaptive loop of Fig. 1.

The compilers need only :class:`ExcitationTerm` and the HMP2 ranking.  The
VQE driver (:func:`adaptive_vqe`, :func:`optimize_ansatz`,
:class:`UccAnsatz`, :class:`VqeResult`, :class:`AdaptiveVqeResult`, and
:func:`hamiltonian_sparse_matrix` from :mod:`repro.simulator`) lives in
:mod:`repro.vqe.vqe` and is imported on first access to any of those names,
which is when ``scipy.optimize``, ``scipy.sparse`` and :mod:`repro.simulator`
load.
"""

from importlib import import_module

from repro.vqe.hmp2 import hmp2_ranked_terms, select_ansatz_terms
from repro.vqe.uccsd import ExcitationTerm, is_spin_pair, uccsd_excitation_terms

_DRIVER_NAMES = (
    "UccAnsatz",
    "VqeResult",
    "AdaptiveVqeResult",
    "optimize_ansatz",
    "adaptive_vqe",
    "hamiltonian_sparse_matrix",
)

__all__ = [
    "ExcitationTerm",
    "is_spin_pair",
    "uccsd_excitation_terms",
    "hmp2_ranked_terms",
    "select_ansatz_terms",
    *_DRIVER_NAMES,
]


def __getattr__(name: str):
    if name in _DRIVER_NAMES:
        return getattr(import_module("repro.vqe.vqe"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
