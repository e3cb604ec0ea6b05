"""End-to-end instrumentation: spans/counters from compile, route, verify, serve."""

import asyncio

import pytest

from repro.api import (
    CompileCache,
    CompileRequest,
    CompilerConfig,
    compile_batch,
    get_backend,
)
from repro.api.batch import run_job
from repro.chemistry import (
    build_molecular_hamiltonian,
    clear_scf_cache,
    make_molecule,
    run_rhf,
)
from repro.circuits import Circuit
from repro.circuits.gates import cnot
from repro.hardware import route_circuit, topology_for
from repro.hardware.routing import naive_route_circuit
from repro.hardware.synthesis import routed_exponential_sequence_circuit
from repro.obs import get_metrics, tracing
from repro.operators import PauliString
from repro.service import CompileService
from repro.verify import check_equivalence
from repro.vqe import ExcitationTerm

FAST = CompilerConfig(gamma_steps=5, sorting_population=8, sorting_generations=5, seed=0)

#: The six Fig. 2 stages the pipeline must cover in every trace.
PIPELINE_STAGES = (
    "pipeline.classify",
    "pipeline.schedule_hybrid",
    "pipeline.gamma_search",
    "pipeline.transform",
    "pipeline.sort",
    "pipeline.account",
)


def small_request(index=0):
    return CompileRequest(
        terms=(
            ExcitationTerm(creation=(4, 5), annihilation=(0, 1)),
            ExcitationTerm(creation=(2 + index,), annihilation=(0,)),
        ),
        n_qubits=8,
        config=FAST,
    )


def names_of(tracer):
    return [span.name for span in (s for root in tracer.roots for s in root.walk())]


class TestCompileSpans:
    def test_advanced_compile_covers_all_six_stages(self):
        with tracing() as tracer:
            result = get_backend("advanced").compile(small_request())
        names = names_of(tracer)
        assert names[0] == "compile.advanced"
        assert "pipeline.run" in names
        for stage in PIPELINE_STAGES:
            assert stage in names, stage
        (root,) = tracer.roots
        assert root.attributes["cnot_count"] == result.cnot_count

    def test_stage_timings_on_the_result(self):
        result = get_backend("advanced").compile(small_request())
        assert result.stage_timings is not None
        assert sorted(result.stage_timings) == sorted(
            stage.split(".", 1)[1] for stage in PIPELINE_STAGES
        )
        assert all(seconds >= 0.0 for seconds in result.stage_timings.values())

    def test_naive_and_baseline_backends_open_spans(self):
        request = small_request()
        with tracing() as tracer:
            get_backend("jw").compile(request)
            get_backend("baseline").compile(request)
        roots = [root.name for root in tracer.roots]
        assert roots == ["compile.jordan-wigner", "compile.baseline"]

    def test_disabled_tracer_collects_no_spans(self):
        """The no-op regression: an untraced compile must add zero spans."""
        with tracing(enabled=False) as tracer:
            result = get_backend("advanced").compile(small_request())
        assert tracer.roots == []
        assert tracer.export() == []
        assert result.stage_timings  # timings are collected regardless

    def test_compile_batch_span_counts_jobs(self):
        with tracing() as tracer:
            compile_batch([small_request()], backends=("jw", "advanced"))
        (root,) = tracer.roots
        assert root.name == "batch.compile_batch"
        assert root.attributes["n_requests"] == 1
        assert root.attributes["n_jobs"] == 2
        assert root.attributes["backends"] == "jordan-wigner,advanced"
        children = [child.name for child in root.children]
        assert children == ["compile.jordan-wigner", "compile.advanced"]

    def test_compile_batch_collects_worker_spans_from_the_pool(self):
        requests = [small_request(0), small_request(1)]
        with tracing() as tracer:
            batch = compile_batch(requests, backends="advanced", workers=2)
        assert len(batch.results) == 2
        (root,) = tracer.roots
        adopted = [child.name for child in root.children]
        assert adopted == ["compile.advanced", "compile.advanced"]
        for child in root.children:
            assert root.start <= child.start
            assert any(g.name == "pipeline.run" for g in child.walk())

    def test_run_job_exports_the_worker_forest(self):
        outcome = run_job(("advanced",), small_request(), collect_spans=True)
        assert outcome.result.backend == "advanced"
        spans = outcome.spans
        assert [span["name"] for span in spans] == ["compile.advanced"]
        assert spans[0]["start_s"] >= 0.0


class TestChemistryInstrumentation:
    def test_scf_span_carries_cache_deltas(self):
        with tracing() as tracer:
            run_rhf(make_molecule("H2"), use_cache=False)
        scf_spans = [s for root in tracer.roots for s in root.walk() if s.name == "chemistry.scf"]
        (span,) = scf_spans
        assert span.attributes["molecule"] == "H2"
        assert span.attributes["converged"] is True
        assert span.attributes["n_iterations"] >= 1
        assert any(key.startswith("integrals.") for key in span.attributes)

    def test_scf_cache_counters(self):
        hits = get_metrics().counter("chemistry.scf.cache_hits")
        misses = get_metrics().counter("chemistry.scf.cache_misses")
        clear_scf_cache()
        hits_before, misses_before = hits.value, misses.value
        run_rhf(make_molecule("H2"))
        run_rhf(make_molecule("H2"))
        assert misses.value == misses_before + 1
        assert hits.value == hits_before + 1

    def test_hamiltonian_span_and_counters(self):
        hits = get_metrics().counter("chemistry.hamiltonian.cache_hits")
        hits_before = hits.value
        scf = run_rhf(make_molecule("H2"), use_cache=False)
        with tracing() as tracer:
            first = build_molecular_hamiltonian(scf)
            second = build_molecular_hamiltonian(scf)
        assert second is first
        assert hits.value == hits_before + 1
        (span,) = [s for r in tracer.roots for s in r.walk() if s.name == "chemistry.hamiltonian"]
        assert span.attributes["molecule"] == "H2"
        assert span.attributes["n_frozen"] == 0


class TestHardwareInstrumentation:
    def circuit(self):
        circuit = Circuit(4)
        circuit.append(cnot(0, 3))
        circuit.append(cnot(1, 2))
        return circuit

    def test_route_span_and_counters(self):
        calls = get_metrics().counter("hardware.route.calls")
        swaps = get_metrics().counter("hardware.route.swaps")
        calls_before, swaps_before = calls.value, swaps.value
        topology = topology_for("line", 4)
        with tracing() as tracer:
            sabre = route_circuit(self.circuit(), topology)
            naive = naive_route_circuit(self.circuit(), topology)
        spans = {s.attributes["strategy"]: s for r in tracer.roots for s in r.walk()}
        assert set(spans) == {"sabre", "naive"}
        assert spans["sabre"].name == spans["naive"].name == "hardware.route"
        assert spans["sabre"].attributes["n_swaps"] == sabre.n_swaps
        assert spans["naive"].attributes["n_swaps"] == naive.n_swaps
        assert spans["sabre"].attributes["topology"] == "line-4"
        assert calls.value == calls_before + 2
        assert swaps.value == swaps_before + sabre.n_swaps + naive.n_swaps

    def test_steered_synthesis_span(self):
        topology = topology_for("line", 4)
        sequence = [(PauliString("ZZZZ"), 0.3, None)]
        with tracing() as tracer:
            circuit = routed_exponential_sequence_circuit(sequence, topology)
        (span,) = [s for r in tracer.roots for s in r.walk()]
        assert span.name == "hardware.steered_synthesis"
        assert span.attributes["n_terms"] == 1
        assert span.attributes["n_gates"] == len(circuit.gates)


class TestVerifyInstrumentation:
    def test_span_and_counters_follow_the_dispatch(self):
        verdicts = get_metrics().counter("verify.verdict.equivalent")
        tableau = get_metrics().counter("verify.engine.tableau")
        verdicts_before, tableau_before = verdicts.value, tableau.value
        a = Circuit(3)
        a.append(cnot(0, 1))
        b = Circuit(3)
        b.append(cnot(0, 1))
        with tracing() as tracer:
            report = check_equivalence(a, b)
        assert report.equivalent
        (span,) = [s for r in tracer.roots for s in r.walk()]
        assert span.name == "verify.check"
        assert span.attributes["engine"] == report.engine == "tableau"
        assert span.attributes["equivalent"] is True
        assert span.attributes["requested"] == "auto"
        assert tableau.value == tableau_before + 1
        assert verdicts.value == verdicts_before + 1

    def test_forced_engine_recorded(self):
        a = Circuit(2)
        b = Circuit(2)
        with tracing() as tracer:
            check_equivalence(a, b, engine="dense")
        (span,) = tracer.roots
        assert span.attributes["requested"] == "dense"
        assert span.attributes["engine"] == "dense"
        different = get_metrics().counter("verify.verdict.different")
        before = different.value
        check_equivalence(Circuit(2), Circuit(3))
        assert different.value == before + 1


class TestServiceInstrumentation:
    def run(self, coro):
        return asyncio.run(coro)

    def test_traced_job_covers_lookup_compute_and_worker_spans(self):
        async def main():
            with tracing() as tracer:
                async with CompileService() as service:
                    job = await service.submit(small_request(), backend="advanced")
                    await service.result(job)
                    repeat = await service.submit(small_request(), backend="advanced")
                    await service.result(repeat)
            return tracer

        tracer = self.run(main())
        jobs = [root for root in tracer.roots if root.name == "service.job"]
        assert len(jobs) == 2
        cold, warm = jobs
        assert cold.attributes["tier"] == "compute"
        assert warm.attributes["tier"] == "memory"
        cold_children = [child.name for child in cold.children]
        assert cold_children == ["service.lookup", "service.compute"]
        compute = cold.children[1]
        adopted = [child.name for child in compute.children]
        assert adopted == ["compile.advanced"]
        assert any(s.name == "pipeline.sort" for s in compute.walk())
        assert [child.name for child in warm.children] == ["service.lookup"]

    def test_untraced_service_collects_nothing(self):
        async def main():
            with tracing(enabled=False) as tracer:
                async with CompileService() as service:
                    result = await service.compile(small_request(), backend="advanced")
            return tracer, result

        tracer, result = self.run(main())
        assert tracer.roots == []
        assert result.cnot_count > 0
