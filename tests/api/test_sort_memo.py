"""The sort memo a :class:`CompileCache` shares across its in-process compiles.

An ansatz that grows one HMP2 term at a time keeps the same fermionic class
once the new terms are bosonic or hybrid, so ``compile_batch`` sorts each
distinct fermionic rotation set once per cache.  Every result must still
equal a direct compile, inputs that differ in anything the sort reads must
not share an entry, and nothing outside ``compile_batch``'s in-process path
may see the memo.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.advanced_sorting as advanced_sorting
from repro.api import (
    DEFAULT_BACKEND_NAMES,
    CompileCache,
    CompileRequest,
    CompilerConfig,
    compile_batch,
    compiled_rotation_sequence,
    get_backend,
)
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.core import RotationPlanes, terms_to_rotations
from repro.core.advanced_sorting import (
    SortMemo,
    SortingResult,
    sort_memo_key,
    sort_memo_scope,
)
from repro.hardware import Topology
from repro.obs import tracing
from repro.transforms import JordanWignerTransform
from repro.vqe import select_ansatz_terms

#: The adaptive sweeps of ``tools/output_digest.py``.
SWEEPS = {"LiH": range(1, 31), "BeH2": range(4, 13)}


@pytest.fixture(scope="module")
def rankings():
    """``molecule -> (n_qubits, whole HMP2 ranking)``, one frozen core orbital."""
    ranked = {}
    for molecule in SWEEPS:
        hamiltonian = build_molecular_hamiltonian(
            run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
        )
        ranked[molecule] = (hamiltonian.n_spin_orbitals, select_ansatz_terms(hamiltonian, None))
    return ranked


def sweep_request(rankings, molecule, n_terms, config=None):
    n_qubits, ranking = rankings[molecule]
    return CompileRequest(
        terms=ranking[:n_terms],
        n_qubits=n_qubits,
        config=config if config is not None else CompilerConfig(),
    )


def observable(result, request):
    """Everything a compile result says, bar wall-clock fields."""
    details = result.details
    sorting = getattr(details, "sorting", None)
    gamma = getattr(details, "gamma", None)
    return (
        result.backend,
        result.cnot_count,
        result.n_qubits,
        sorted(result.breakdown.items()),
        result.degraded,
        result.degraded_stages,
        [
            (string.to_label(), angle, target)
            for string, angle, target in compiled_rotation_sequence(
                result, request.terms, request.parameters
            )
        ],
        None
        if sorting is None
        else (sorting.cnot_count, sorting.routed_cost_estimate, sorting.degraded),
        None if gamma is None else gamma.tobytes(),
    )


def assert_equals_direct(batch_result, request):
    direct = get_backend(batch_result.backend).compile(request)
    assert observable(batch_result, request) == observable(direct, request)


@pytest.fixture
def sort_calls(monkeypatch):
    """Counts the GTSP searches that actually run."""
    calls = []
    solve = advanced_sorting.solve_gtsp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(advanced_sorting, "solve_gtsp", counting)
    return calls


def test_sweeps_through_one_cache_equal_direct_compiles(rankings):
    cache = CompileCache()
    for seed in (0, 1, 2):
        config = CompilerConfig(seed=seed)
        for molecule, term_counts in SWEEPS.items():
            for n_terms in term_counts:
                request = sweep_request(rankings, molecule, n_terms, config)
                batch = compile_batch([request], backends=DEFAULT_BACKEND_NAMES, cache=cache)
                for name in DEFAULT_BACKEND_NAMES:
                    assert_equals_direct(batch.results[0][name], request)
    # Far fewer distinct sorts than advanced compiles.
    assert 0 < len(cache.sort_memo) < 3 * sum(map(len, SWEEPS.values()))


def test_lih_sweep_at_two_config_seeds_runs_eight_sorts(rankings, sort_calls):
    requests = [
        sweep_request(rankings, "LiH", n_terms, CompilerConfig(seed=seed))
        for seed in (0, 1)
        for n_terms in SWEEPS["LiH"]
    ]
    for request in requests:
        get_backend("advanced").compile(request)
    direct_sorts = len(sort_calls)
    sort_calls.clear()
    cache = CompileCache()
    for request in requests:
        compile_batch([request], backends=DEFAULT_BACKEND_NAMES, cache=cache)
    # The first 6 terms hold no fermionic one, so 2 x 24 of the 60 direct
    # compiles sort.  Through the cache, steps 25..30 repeat step 24 (LiH
    # has 24 HMP2 terms) and are cache hits; of the 36 sorts left, the
    # fermionic class has at most 8 terms and Γ = I at both config seeds.
    assert direct_sorts == 48
    assert len(sort_calls) == 8
    assert len(cache.sort_memo) == 8


def test_a_hit_shares_the_stored_rotations(rankings):
    cache = CompileCache()
    sortings = [
        compile_batch([sweep_request(rankings, "LiH", n)], cache=cache)
        .results[0]["advanced"].details.sorting
        for n in (14, 20, 21)
    ]
    assert len(cache.sort_memo) == 1  # same fermionic class, one sort
    assert len({id(sorting) for sorting in sortings}) == 3
    assert all(
        sorting.ordered_rotations is sortings[0].ordered_rotations for sorting in sortings
    )


def test_requests_differing_in_what_the_sort_reads_do_not_share_an_entry(rankings, sort_calls):
    base = sweep_request(rankings, "LiH", 14)
    n_qubits = base.resolved_n_qubits
    variants = [
        base,
        dataclasses.replace(base, parameters=tuple(0.5 for _ in base.terms)),
        dataclasses.replace(base, config=base.config.replace(topology=Topology.line(n_qubits))),
        dataclasses.replace(base, config=base.config.replace(topology=Topology.ring(n_qubits))),
        dataclasses.replace(base, config=base.config.replace(sorting_budget_rounds=1)),
    ]
    cache = CompileCache()
    rows = []
    for count, request in enumerate(variants, start=1):
        rows += compile_batch([request], cache=cache).results
        assert len(cache.sort_memo) == count
        assert len(sort_calls) == count
    for row, request in zip(rows, variants):
        assert_equals_direct(row["advanced"], request)
    routed = [row["advanced"].details.sorting.routed_cost_estimate for row in rows[2:4]]
    assert None not in routed


def test_a_fresh_cache_has_an_empty_memo_and_clear_empties_it(rankings):
    cache = CompileCache()
    assert len(cache.sort_memo) == 0
    compile_batch([sweep_request(rankings, "LiH", 8)], cache=cache)
    assert len(cache.sort_memo) == 1
    cache.clear()
    assert len(cache) == 0 and len(cache.sort_memo) == 0


def test_max_entries_bounds_the_memo(rankings):
    cache = CompileCache(max_entries=2)
    assert cache.sort_memo.max_entries == 2
    # Each of LiH's terms 7, 8 and 9 is fermionic: three distinct sorts.
    for n_terms in (7, 8, 9):
        compile_batch([sweep_request(rankings, "LiH", n_terms)], cache=cache)
        assert len(cache.sort_memo) == min(n_terms - 6, 2)


def test_the_key_holds_everything_the_sort_reads(rankings):
    n_qubits, ranking = rankings["LiH"]
    planes = terms_to_rotations(ranking[6:9], JordanWignerTransform(n_qubits))
    wider = terms_to_rotations(ranking[6:9], JordanWignerTransform(n_qubits + 1))
    line = Topology.line(n_qubits)
    base = sort_memo_key(planes, None, None)
    assert sort_memo_key(
        RotationPlanes(planes.strings, planes.angles.copy(), planes.term_index.copy()), None, None
    ) == base
    variants = [
        sort_memo_key(wider, None, None),
        sort_memo_key(
            RotationPlanes(planes.strings, -planes.angles, planes.term_index), None, None
        ),
        sort_memo_key(
            RotationPlanes(planes.strings, planes.angles, np.zeros_like(planes.term_index)),
            None,
            None,
        ),
        sort_memo_key(planes, line, None),
        sort_memo_key(planes, Topology.ring(n_qubits), None),
        sort_memo_key(planes, None, 1),
    ]
    assert len({base, *variants}) == 1 + len(variants)
    # Equal distance matrices share a key, whichever Topology object holds them.
    assert sort_memo_key(planes, Topology.line(n_qubits), None) == variants[3]


def test_the_memo_evicts_the_least_recently_used_entry():
    memo = SortMemo(max_entries=2)
    results = [SortingResult(ordered_rotations=[], cnot_count=i) for i in range(3)]
    memo.put("a", results[0])
    memo.put("b", results[1])
    assert memo.get("a") is results[0]  # refreshes "a"
    memo.put("c", results[2])
    assert len(memo) == 2
    assert memo.get("b") is None
    assert memo.get("a") is results[0] and memo.get("c") is results[2]


def test_direct_compiles_never_consult_the_memo(rankings, sort_calls):
    request = sweep_request(rankings, "LiH", 8)
    cache = CompileCache()
    compile_batch([request], cache=cache)
    assert len(sort_calls) == 1
    get_backend("advanced").compile(request)
    assert len(sort_calls) == 2
    with sort_memo_scope(cache.sort_memo):
        get_backend("advanced").compile(request)
    assert len(sort_calls) == 2  # only a scope makes the memo visible
    assert advanced_sorting._SORT_MEMO.get() is None


def test_pool_workers_compile_without_the_memo(rankings):
    cache = CompileCache()
    requests = [sweep_request(rankings, "LiH", n) for n in (14, 20)]
    batch = compile_batch(requests, cache=cache, workers=2)
    assert len(cache.sort_memo) == 0
    for row, request in zip(batch.results, requests):
        assert_equals_direct(row["advanced"], request)


def test_the_sort_span_says_whether_the_memo_served_it(rankings):
    cache = CompileCache()
    with tracing() as tracer:
        for n_terms in (14, 20):
            compile_batch([sweep_request(rankings, "LiH", n_terms)], cache=cache)
        get_backend("advanced").compile(sweep_request(rankings, "LiH", 21))
    sorts = [span for span in tracer.all_spans() if span.name == "pipeline.sort"]
    assert [span.attributes["memo_hit"] for span in sorts] == [False, True, False]
