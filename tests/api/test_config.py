"""Tests for the frozen CompilerConfig."""

import dataclasses

import pytest

from repro.api import CompilerConfig


class TestDefaults:
    def test_default_matches_historical_pipeline_knobs(self):
        config = CompilerConfig()
        assert config.gamma_steps == 40
        assert config.coloring_orders == 20
        assert config.sorting_budget_rounds is None
        assert config.seed == 0
        assert config.baseline_pso_iterations == 0

    def test_eight_fields(self):
        assert len(dataclasses.fields(CompilerConfig)) == 8

    def test_no_feature_switches(self):
        # Ablations are stage substitutions, never config fields.
        names = {field.name for field in dataclasses.fields(CompilerConfig)}
        assert not {name for name in names if name.startswith("use_")}

    def test_frozen(self):
        config = CompilerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.gamma_steps = 99


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("gamma_steps", -1),
            ("sorting_budget_rounds", -1),
            ("coloring_orders", 0),
            ("baseline_pso_particles", 0),
            ("baseline_pso_iterations", -1),
            ("seed", -5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            CompilerConfig(**{field: value})

    def test_replace_revalidates(self):
        config = CompilerConfig()
        with pytest.raises(ValueError):
            config.replace(gamma_steps=-1)

    def test_seed_none_allowed(self):
        assert CompilerConfig(seed=None).seed is None


class TestHashability:
    def test_usable_as_dict_key(self):
        table = {CompilerConfig(): "default", CompilerConfig(seed=7): "seeded"}
        assert table[CompilerConfig()] == "default"
        assert table[CompilerConfig(seed=7)] == "seeded"

    def test_equality_is_field_wise(self):
        assert CompilerConfig() == CompilerConfig()
        assert CompilerConfig() != CompilerConfig(gamma_steps=41)
        assert hash(CompilerConfig()) == hash(CompilerConfig())

    def test_fingerprint_distinguishes_configs(self):
        assert CompilerConfig().fingerprint != CompilerConfig(seed=1).fingerprint

    def test_replace_returns_new_config(self):
        config = CompilerConfig()
        changed = config.replace(coloring_orders=5)
        assert config.coloring_orders == 20
        assert changed.coloring_orders == 5
        assert changed != config
