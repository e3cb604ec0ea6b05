"""Tests for the deterministic fault-injection subsystem (repro.faults)."""

import os
import pickle
import time

import pytest

from repro import faults
from repro.faults import (
    ACTIONS,
    FAULTS_ENV_VAR,
    KILL_EXIT_CODE,
    SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
    activate,
    active_plan,
    deactivate,
    inject,
    parse_plan,
    plan_from_env,
)
from repro.faults import plan as plan_module


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """Every test starts and ends with fault injection disabled."""
    deactivate()
    yield
    deactivate()


class TestFaultRule:
    def test_valid_rule(self):
        rule = FaultRule(site="disk.read", action="error", probability=0.5)
        assert rule.site == "disk.read"

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="disk.nope", action="error", probability=0.5)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="disk.read", action="explode", probability=0.5)

    @pytest.mark.parametrize("probability", [-0.1, 1.5])
    def test_probability_bounds(self, probability):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="disk.read", action="error", probability=probability)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultRule(site="compute", action="delay", probability=1.0, delay_s=-1)

    def test_max_fires_validation(self):
        with pytest.raises(ValueError, match="max_fires"):
            FaultRule(site="compute", action="error", probability=1.0, max_fires=0)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        rule = FaultRule(site="disk.read", action="error", probability=0.5)
        one = FaultPlan([rule], seed=7)
        two = FaultPlan([rule], seed=7)
        draws = [one._should_fire(rule) for _ in range(64)]
        assert draws == [two._should_fire(rule) for _ in range(64)]
        assert any(draws) and not all(draws)

    def test_different_seeds_differ(self):
        rule = FaultRule(site="disk.read", action="error", probability=0.5)
        one = FaultPlan([rule], seed=1)
        two = FaultPlan([rule], seed=2)
        assert [one._should_fire(rule) for _ in range(64)] != [
            two._should_fire(rule) for _ in range(64)
        ]

    def test_sites_draw_from_independent_streams(self):
        # Traffic at one site must not perturb another site's schedule.
        read = FaultRule(site="disk.read", action="error", probability=0.5)
        write = FaultRule(site="disk.write", action="error", probability=0.5)
        quiet = FaultPlan([read, write], seed=3)
        noisy = FaultPlan([read, write], seed=3)
        for _ in range(100):  # extra disk.write draws on the noisy plan only
            noisy._should_fire(write)
        assert [quiet._should_fire(read) for _ in range(64)] == [
            noisy._should_fire(read) for _ in range(64)
        ]


class TestFire:
    def test_error_action_raises_injected_fault(self):
        plan = FaultPlan([FaultRule("queue", "error", 1.0)])
        with pytest.raises(InjectedFault) as info:
            plan.fire("queue")
        assert info.value.site == "queue"
        assert isinstance(info.value, OSError)  # disk-fault realism contract

    def test_zero_probability_never_fires(self):
        plan = FaultPlan([FaultRule("queue", "error", 0.0)])
        for _ in range(100):
            plan.fire("queue")
        assert plan.fired_total() == 0
        assert plan.evaluations["queue"] == 100

    def test_max_fires_caps_activations(self):
        plan = FaultPlan([FaultRule("queue", "error", 1.0, max_fires=2)])
        fired = 0
        for _ in range(10):
            try:
                plan.fire("queue")
                fired += 0
            except InjectedFault:
                fired += 1
        assert fired == 2
        assert plan.fired_total("queue") == 2

    def test_delay_action_sleeps(self):
        plan = FaultPlan([FaultRule("compute", "delay", 1.0, delay_s=0.02)])
        start = time.perf_counter()
        plan.fire("compute")
        assert time.perf_counter() - start >= 0.02

    def test_unknown_site_rejected(self):
        plan = FaultPlan([])
        with pytest.raises(ValueError, match="unknown fault site"):
            plan.fire("nope")

    def test_kill_suppressed_in_main_process(self):
        plan = FaultPlan([FaultRule("pool.worker", "kill", 1.0)])
        plan.fire("pool.worker")  # must not take the test runner down
        assert plan.fired[("pool.worker", "kill-suppressed")] == 1

    def test_kill_exits_pool_children(self, monkeypatch):
        exits = []
        monkeypatch.setattr(plan_module, "_in_pool_child", lambda: True)
        monkeypatch.setattr(os, "_exit", lambda code: exits.append(code))
        plan = FaultPlan([FaultRule("pool.worker", "kill", 1.0)])
        plan.fire("pool.worker")
        assert exits == [KILL_EXIT_CODE]


class TestMangle:
    def test_corrupt_mangles_bytes_unpicklably(self):
        plan = FaultPlan([FaultRule("disk.write", "corrupt", 1.0)])
        payload = pickle.dumps({"answer": 42})
        mangled = plan.mangle("disk.write", payload)
        assert mangled != payload
        assert len(mangled) < len(payload)
        with pytest.raises(Exception):
            pickle.loads(mangled)  # never a plausible-but-wrong payload

    def test_corrupt_leaves_empty_data_alone(self):
        plan = FaultPlan([FaultRule("disk.write", "corrupt", 1.0)])
        assert plan.mangle("disk.write", b"") == b""

    def test_non_corrupt_rules_ignored_by_mangle(self):
        plan = FaultPlan([FaultRule("disk.write", "error", 1.0)])
        assert plan.mangle("disk.write", b"data") == b"data"

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan([]).mangle("nope", b"data")


class TestSpecParsing:
    def test_full_grammar(self):
        plan = parse_plan("seed=7; disk.read=error:0.2 ;compute=delay:0.3:0.05")
        assert plan.seed == 7
        assert len(plan.rules) == 2
        assert plan.rules[1].action == "delay"
        assert plan.rules[1].delay_s == pytest.approx(0.05)

    def test_seed_argument_overridden_by_clause(self):
        assert parse_plan("seed=9;queue=error:1.0", seed=1).seed == 9
        assert parse_plan("queue=error:1.0", seed=1).seed == 1

    def test_empty_clauses_skipped(self):
        assert parse_plan(";;queue=error:1.0;;").rules[0].site == "queue"

    @pytest.mark.parametrize(
        "spec", ["gibberish", "disk.read=error", "disk.read=error:0.1:0.2:0.3"]
    )
    def test_bad_clause_rejected(self, spec):
        with pytest.raises(ValueError, match="bad fault clause"):
            parse_plan(spec)

    def test_plan_from_env(self):
        assert plan_from_env({}) is None
        assert plan_from_env({FAULTS_ENV_VAR: "  "}) is None
        plan = plan_from_env({FAULTS_ENV_VAR: "seed=3;disk.read=error:0.5"})
        assert plan is not None and plan.seed == 3


class TestActivation:
    def test_hooks_are_noops_when_disabled(self):
        assert active_plan() is None
        faults.fire("queue")  # nothing active: must not raise
        data = b"payload"
        assert faults.mangle("disk.read", data) is data  # identity, not a copy

    def test_activate_and_deactivate_return_previous(self):
        plan = FaultPlan([])
        assert activate(plan) is None
        assert active_plan() is plan
        assert deactivate() is plan
        assert active_plan() is None

    def test_inject_scopes_and_restores(self):
        outer = FaultPlan([])
        activate(outer)
        with inject("queue=error:1.0", seed=5) as plan:
            assert active_plan() is plan
            with pytest.raises(InjectedFault):
                faults.fire("queue")
        assert active_plan() is outer

    def test_inject_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with inject(FaultPlan([])):
                raise RuntimeError("boom")
        assert active_plan() is None

    def test_inject_accepts_ready_plan(self):
        plan = FaultPlan([FaultRule("queue", "error", 1.0)], seed=11)
        with inject(plan) as active:
            assert active is plan

    def test_fired_total_breaks_down_by_site(self):
        plan = FaultPlan(
            [FaultRule("queue", "error", 1.0), FaultRule("compute", "delay", 1.0)]
        )
        with pytest.raises(InjectedFault):
            plan.fire("queue")
        plan.fire("compute")
        assert plan.fired_total("queue") == 1
        assert plan.fired_total("compute") == 1
        assert plan.fired_total() == 2
        assert "fired=2" in repr(plan)

    def test_registry_constants_are_consistent(self):
        assert set(SITES) == {
            "disk.read",
            "disk.write",
            "compute",
            "pool.worker",
            "queue",
            "scf",
            "stage.gamma",
            "stage.sort",
            "checkpoint.write",
        }
        assert set(ACTIONS) == {"error", "corrupt", "delay", "kill"}


class TestSiteIntegration:
    """The batch-robustness sites fire inside the code paths they name."""

    def test_every_new_site_parses(self):
        plan = parse_plan(
            "scf=error:1.0;stage.gamma=error:1.0;"
            "stage.sort=error:1.0;checkpoint.write=error:1.0"
        )
        assert [rule.site for rule in plan.rules] == [
            "scf",
            "stage.gamma",
            "stage.sort",
            "checkpoint.write",
        ]

    def test_scf_site_fires_in_run_rhf(self):
        from repro.chemistry import make_molecule, run_rhf

        with inject("scf=error:1.0"):
            with pytest.raises(InjectedFault) as info:
                run_rhf(make_molecule("H2"), use_cache=False)
        assert info.value.site == "scf"

    def test_stage_gamma_site_surfaces_as_a_stage_failure(self):
        from repro.api import CompilerConfig
        from repro.core import AdvancedPipeline, StageFailure
        from repro.vqe import ExcitationTerm

        # Non-adjacent index pairs: classifies fermionic, so the Γ-search and
        # sort stages actually run (bosonic/hybrid terms bypass them).
        terms = (ExcitationTerm(creation=(4, 7), annihilation=(0, 3)),)
        config = CompilerConfig(gamma_steps=2, seed=0)
        with inject("stage.gamma=error:1.0"):
            with pytest.raises(StageFailure) as info:
                AdvancedPipeline(config).run(terms, n_qubits=8)
        assert info.value.stage == "gamma_search"
        assert isinstance(info.value.__cause__, InjectedFault)

    def test_stage_sort_site_surfaces_as_a_stage_failure(self):
        from repro.api import CompilerConfig
        from repro.core import AdvancedPipeline, StageFailure
        from repro.vqe import ExcitationTerm

        # Non-adjacent index pairs: classifies fermionic, so the Γ-search and
        # sort stages actually run (bosonic/hybrid terms bypass them).
        terms = (ExcitationTerm(creation=(4, 7), annihilation=(0, 3)),)
        config = CompilerConfig(gamma_steps=2, seed=0)
        with inject("stage.sort=error:1.0"):
            with pytest.raises(StageFailure) as info:
                AdvancedPipeline(config).run(terms, n_qubits=8)
        assert info.value.stage == "sort"
        assert isinstance(info.value.__cause__, InjectedFault)

    def test_stage_failure_pickles_across_process_boundaries(self):
        from repro.core import StageFailure

        original = StageFailure("sort", RuntimeError("boom"))
        restored = pickle.loads(pickle.dumps(original))
        assert isinstance(restored, StageFailure)
        assert restored.stage == "sort"
        assert restored.args == original.args
