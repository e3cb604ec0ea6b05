"""Cache keys hold the config a backend reads, and fingerprints are computed once.

Each backend declares the part of the config its result depends on
(``cache_config``); :meth:`repro.api.CompileCache.key` pairs the request's
input fingerprint with it.  The advanced, JW and BK keys, and those of
custom backends, must stay the ones persisted caches and batch journals
were written under; the literal digests below pin them.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.api import (
    CompileCache,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    cache_key_digest,
    compile_batch,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.hardware import Topology
from repro.vqe import ExcitationTerm

TERMS = (
    ExcitationTerm(creation=(4, 5), annihilation=(0, 1)),
    ExcitationTerm(creation=(5,), annihilation=(1,)),
)
ROUTED = CompilerConfig(seed=3, gamma_steps=7, topology=Topology.line(6))

#: ``cache_key_digest`` of every default backend's key for the two requests
#: of :func:`pinned_requests`, as the keys were before backends declared
#: ``cache_config`` (the baseline's keys have since narrowed on purpose).
PINNED_DIGESTS = {
    ("default", "jw"): "b1d7ebdf9008fa8c3b54938afa5e657eabeecb4ce27d293dc19b633ef21ee957",
    ("default", "bk"): "0643510649630ed189010a7983a81c975570fafbd25980c5fd4f8e5fbcfdae98",
    ("default", "adv"): "2f78f1dc83c75e1b29470e72b6b1c414271b93e70924c7b67ab9d2f8862bd57a",
    ("routed", "jw"): "85c91489d0068437aaa2b6dd89a50d1c1c78142c844ddb6a891e5fb2061e9d53",
    ("routed", "bk"): "fb9e518d2512fe4a40ff5e35f932268e0eaf276337fa5e4f65974f16428f9618",
    ("routed", "adv"): "f03dbf502358a844d7cfac8f39e230298b02179e18771308c4f07f432b375f84",
}


def pinned_requests():
    return {
        label: CompileRequest(terms=TERMS, n_qubits=6, parameters=(0.5, -1.0), config=config)
        for label, config in (("default", CompilerConfig()), ("routed", ROUTED))
    }


def request(config=CompilerConfig(), n_qubits=6):
    return CompileRequest(terms=TERMS, n_qubits=n_qubits, config=config)


class ConfigReadingBackend:
    """A custom backend without ``cache_config``: its key keeps the whole config."""

    name = "config-reading"

    def compile(self, request):
        return CompileResult(backend=self.name, cnot_count=1, n_qubits=6)


class TestKeysStayPersisted:
    @pytest.mark.parametrize("label, backend", sorted(PINNED_DIGESTS))
    def test_digest_equals_the_recorded_one(self, label, backend):
        key = CompileCache.key(pinned_requests()[label], backend)
        assert cache_key_digest(key) == PINNED_DIGESTS[label, backend]

    @pytest.mark.parametrize("config", [CompilerConfig(), ROUTED], ids=["default", "routed"])
    def test_keys_follow_the_historical_formula(self, config):
        req = request(config)
        assert CompileCache.key(req, "adv") == (req.fingerprint, "advanced")
        for name in ("jordan-wigner", "bravyi-kitaev"):
            assert CompileCache.key(req, name) == (
                req.input_fingerprint, config.topology, name
            )

    def test_custom_backend_keys_hold_the_whole_config(self):
        register_backend(ConfigReadingBackend())
        try:
            req = request(ROUTED)
            assert CompileCache.key(req, "config-reading") == (
                req.fingerprint, "config-reading"
            )
            assert CompileCache.key(req, "config-reading") != CompileCache.key(
                request(ROUTED.replace(seed=4)), "config-reading"
            )
        finally:
            unregister_backend("config-reading")


class TestBaselineKeys:
    SWEEP = [
        CompilerConfig(),
        CompilerConfig(seed=1),
        CompilerConfig(seed=None, gamma_steps=3, coloring_orders=2),
        CompilerConfig(gamma_budget_steps=4, sorting_budget_rounds=0),
        CompilerConfig(baseline_pso_particles=3),
    ]

    def test_shared_across_seeds_and_advanced_knobs_without_pso(self):
        keys = {CompileCache.key(request(config), "gt") for config in self.SWEEP}
        assert len(keys) == 1

    def test_split_by_seed_and_pso_fields_with_pso(self):
        pso = CompilerConfig(baseline_pso_iterations=2)
        configs = [
            pso,
            pso.replace(seed=1),
            pso.replace(baseline_pso_particles=3),
            pso.replace(baseline_pso_iterations=3),
            pso.replace(topology=Topology.line(6)),
        ]
        keys = {CompileCache.key(request(config), "gt") for config in configs}
        assert len(keys) == len(configs)
        # Knobs the baseline never reads still share its entry.
        assert CompileCache.key(request(pso.replace(gamma_steps=3)), "gt") == (
            CompileCache.key(request(pso), "gt")
        )

    @pytest.mark.parametrize("name", ["jw", "bk", "gt"])
    def test_topology_separates_keys(self, name):
        keys = {
            CompileCache.key(request(CompilerConfig(topology=topology)), name)
            for topology in (None, Topology.line(6), Topology.ring(6))
        }
        assert len(keys) == 3

    def test_register_size_separates_keys(self):
        assert CompileCache.key(request(), "gt") != CompileCache.key(
            request(n_qubits=7), "gt"
        )


class TestBatchSharesTheBaseline:
    def test_two_config_seeds_compile_the_baseline_once(self, monkeypatch):
        backend = get_backend("baseline")
        calls = []
        compile_once = backend.compile
        monkeypatch.setattr(
            backend, "compile", lambda req: calls.append(req) or compile_once(req)
        )
        seeds = [request(CompilerConfig(seed=seed, gamma_steps=5)) for seed in (0, 1)]
        cache = CompileCache()
        batch = compile_batch(seeds, backends=("jw", "gt", "adv"), cache=cache)
        assert len(calls) == 1
        # jw and gt are served from the seed-0 entries; adv compiles twice.
        assert batch.cache_misses == 4 and batch.cache_hits == 2
        for row, req in zip(batch.results, seeds):
            served, fresh = row["baseline"], compile_once(req)
            assert served.cnot_count == fresh.cnot_count
            assert served.breakdown == fresh.breakdown
            assert (
                served.details.ordered_exponentials == fresh.details.ordered_exponentials
            )
            np.testing.assert_array_equal(
                served.details.transform_matrix, fresh.details.transform_matrix
            )


class TestFingerprintsComputedOnce:
    def test_config_fingerprint_calls_astuple_once(self, monkeypatch):
        calls = []
        astuple = dataclasses.astuple
        monkeypatch.setattr(
            dataclasses, "astuple", lambda obj: calls.append(obj) or astuple(obj)
        )
        config = CompilerConfig(seed=5)
        req = request(config)
        for name in ("jw", "bk", "gt", "adv", "adv"):
            CompileCache.key(req, name)
        request(config).fingerprint
        assert len(calls) == 1
        assert req.fingerprint is req.fingerprint
        assert req.input_fingerprint is req.input_fingerprint

    def test_equality_hash_pickling_and_replace_unchanged(self):
        warm, cold = request(ROUTED), request(ROUTED)
        warm.fingerprint, warm.config.fingerprint
        assert warm == cold and hash(warm) == hash(cold)
        # The cached values stay out of the pickle, so it is byte-identical
        # to a never-fingerprinted request's and round-trips to an equal one.
        assert pickle.dumps(warm) == pickle.dumps(cold)
        restored = pickle.loads(pickle.dumps(warm))
        assert "fingerprint" not in vars(restored)
        assert restored == warm and restored.fingerprint == warm.fingerprint
        changed = warm.config.replace(seed=4)
        assert changed.fingerprint == dataclasses.astuple(changed)
        assert changed.fingerprint != warm.config.fingerprint
        moved = dataclasses.replace(warm, parameters=(0.5, 0.25))
        assert moved.fingerprint == moved.input_fingerprint + (ROUTED.fingerprint,)
        assert moved.fingerprint != warm.fingerprint
