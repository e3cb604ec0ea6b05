"""Unified compilation API: backends, registry, staged config, batch service.

This package is the front door for compiling excitation-term lists.  The four
Table-I flows (and any future encoding) hide behind one protocol:

>>> from repro.api import CompileRequest, CompilerConfig, get_backend
>>> request = CompileRequest(terms=terms, config=CompilerConfig(seed=0))
>>> result = get_backend("advanced").compile(request)
>>> result.cnot_count, result.breakdown, result.backend, result.wall_time_s

Batches of requests, with memoization and optional process parallelism:

>>> from repro.api import CompileCache, compile_batch
>>> cache = CompileCache()
>>> batch = compile_batch(requests, backends=("jw", "bk", "gt", "advanced"),
...                       workers=4, cache=cache)

See :mod:`repro.api.backend` for the protocol/registry,
:mod:`repro.api.backends` for the default adapters,
:mod:`repro.api.store` for the in-memory and on-disk result stores and
:mod:`repro.api.batch` for the batch service and its job runner.
"""

from repro.api.backend import (
    BackendRegistrationError,
    CompileRequest,
    CompileResult,
    CompilerBackend,
    available_backends,
    canonical_backend_name,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.api.backends import (
    DEFAULT_BACKEND_NAMES,
    AdvancedBackend,
    BaselineBackend,
    NaiveTransformBackend,
    compiled_rotation_sequence,
    register_default_backends,
)
from repro.api.batch import (
    FALLBACK_RETRYABLE,
    BackendResults,
    BatchReport,
    BatchResult,
    FallbackRecord,
    JobFailure,
    WorkerCrashed,
    compile_batch,
)
from repro.api.config import CompilerConfig
from repro.api.store import (
    CompileCache,
    PersistentCompileCache,
    cache_key_digest,
    golden_version_stamp,
)
from repro.core.pipeline import StageFailure

__all__ = [
    "BackendRegistrationError",
    "BackendResults",
    "BatchReport",
    "BatchResult",
    "CompileCache",
    "FALLBACK_RETRYABLE",
    "FallbackRecord",
    "JobFailure",
    "PersistentCompileCache",
    "WorkerCrashed",
    "StageFailure",
    "CompileRequest",
    "CompileResult",
    "CompilerBackend",
    "CompilerConfig",
    "DEFAULT_BACKEND_NAMES",
    "AdvancedBackend",
    "BaselineBackend",
    "NaiveTransformBackend",
    "available_backends",
    "cache_key_digest",
    "canonical_backend_name",
    "compile_batch",
    "compiled_rotation_sequence",
    "get_backend",
    "golden_version_stamp",
    "register_backend",
    "register_default_backends",
    "unregister_backend",
]
