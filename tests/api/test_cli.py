"""Tests for repro.api.cli (the scenario command-line entry point)."""

import json

import pytest

from repro.api.cli import constrain_to_scale, load_spec, main
from repro.api.registry import Registry
from repro.api.session import unaccepted_parameters
from repro.api.specs import ScenarioSpec
from repro.experiments.config import TINY_SCALE


@pytest.fixture(scope="module")
def tiny_scenario_path(repo_root):
    return repo_root / "examples" / "scenarios" / "tiny.json"


class TestCommands:
    def test_validate_checked_in_scenario(self, tiny_scenario_path, capsys):
        assert main(["validate", str(tiny_scenario_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_components_lists_registries(self, capsys):
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        assert "sensorscope" in out and "als" in out and "drcell" in out

    def test_run_tiny_scenario(self, tiny_scenario_path, tmp_path, capsys):
        save_dir = tmp_path / "saved"
        code = main(
            ["run", str(tiny_scenario_path), "--scale", "tiny", "--save", str(save_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluation" in out and "temperature" in out and "pm25" in out
        assert (save_dir / "scenario.json").exists()

    def test_missing_scenario_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_spec(tmp_path / "absent.json")


class TestScaleConstraint:
    def test_effort_knobs_are_capped(self, tiny_scenario_path, tmp_path):
        spec = load_spec(tiny_scenario_path)
        inflated = spec.replace(
            training=spec.training.__class__(
                mode=spec.training.mode, episodes=1000, drcell=spec.training.drcell
            ),
            max_test_cycles=10_000,
        )
        constrained = constrain_to_scale(inflated, TINY_SCALE)
        assert constrained.training.episodes == TINY_SCALE.episodes
        assert constrained.max_test_cycles == TINY_SCALE.max_test_cycles
        assert (
            constrained.inference.params["iterations"] <= TINY_SCALE.als_iterations
        )
        assert (
            constrained.assessor.params["max_loo_cells"] <= TINY_SCALE.max_loo_cells
        )

    def test_constrained_spec_still_round_trips(self, tiny_scenario_path):
        spec = constrain_to_scale(load_spec(tiny_scenario_path), TINY_SCALE)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        json.loads(spec.to_json())  # plain JSON


class TestSlotLevelScaleConstraint:
    def test_slot_pinned_components_are_clamped_too(self, tiny_scenario_path):
        import dataclasses

        from repro.api.specs import AssessorSpec, InferenceSpec

        spec = load_spec(tiny_scenario_path)
        pinned = spec.replace(
            slots=tuple(
                dataclasses.replace(
                    slot,
                    inference=InferenceSpec("als", {"iterations": 500}),
                    assessor=AssessorSpec("loo_bayesian", {"max_loo_cells": 480}),
                )
                for slot in spec.slots
            )
        )
        constrained = constrain_to_scale(pinned, TINY_SCALE)
        for slot in constrained.slots:
            assert slot.inference.params["iterations"] <= TINY_SCALE.als_iterations
            assert slot.assessor.params["max_loo_cells"] <= TINY_SCALE.max_loo_cells


class TestValidateParams:
    """``validate`` rejects a param the component's factory cannot take,
    which ``run`` would otherwise only hit when it builds the component."""

    def write(self, tmp_path, tiny_scenario_path, edit):
        data = json.loads(tiny_scenario_path.read_text(encoding="utf-8"))
        edit(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def test_als_backend_param_fails_naming_it(self, tmp_path, tiny_scenario_path, capsys):
        path = self.write(
            tmp_path,
            tiny_scenario_path,
            lambda data: data["inference"]["params"].update(backend="numpy"),
        )
        assert main(["validate", path]) == 1
        assert "backend" in capsys.readouterr().err

    def test_slot_level_params_are_checked_too(self, tmp_path, tiny_scenario_path, capsys):
        def edit(data):
            data["slots"][1]["dataset"]["params"]["strange"] = 3
            data["slots"][0]["assessor"] = {"name": "oracle", "params": {}}

        assert main(["validate", self.write(tmp_path, tiny_scenario_path, edit)]) == 1
        err = capsys.readouterr().err
        assert "dataset 'uair'" in err and "strange" in err

    def test_session_switches_pass(self, tmp_path, tiny_scenario_path):
        def edit(data):
            data["slots"][0]["policy"]["params"]["train"] = False
            data["slots"][1]["inference"] = {"name": "committee", "params": {"rank": 2}}

        assert main(["validate", self.write(tmp_path, tiny_scenario_path, edit)]) == 0

    def test_a_kwargs_factory_accepts_any_key(self):
        registry = Registry("widget")
        registry.register("loose", lambda size=1, **extra: None)
        registry.register("strict", lambda size=1: None)
        assert unaccepted_parameters(registry, "loose", {"anything": 1}) == []
        assert unaccepted_parameters(registry, "strict", {"size": 2, "b": 0, "a": 0}) == ["a", "b"]


class TestServeCommand:
    def test_serve_tiny_scenario(self, tiny_scenario_path, capsys):
        code = main(
            ["serve", str(tiny_scenario_path), "--scale", "tiny", "--replicas", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served evaluation" in out
        assert "decision server" in out
        assert "cache:" in out
        # tiny scale: serve_campaigns=4 over 2 slots → 2 replicas fit exactly.
        assert "temperature@1" in out and "pm25@1" in out

    def test_serve_clamps_replicas_and_batch(self):
        from repro.api.cli import clamp_serve_knobs

        replicas, max_batch, max_inflight = clamp_serve_knobs(
            TINY_SCALE, n_campaigns=2, replicas=100, max_batch=1024, max_inflight=1024
        )
        assert replicas == TINY_SCALE.serve_campaigns // 2
        assert max_batch == TINY_SCALE.serve_max_batch
        assert max_inflight == TINY_SCALE.serve_max_inflight
        # Never clamp below one replica, even for oversized scenarios.
        replicas, _, max_inflight = clamp_serve_knobs(
            TINY_SCALE, n_campaigns=100, replicas=5, max_batch=8
        )
        assert replicas == 1
        # Omitted fairness knob resolves to the scale's cap; explicit
        # requests floor at one.
        assert max_inflight == TINY_SCALE.serve_max_inflight
        _, _, max_inflight = clamp_serve_knobs(
            TINY_SCALE, n_campaigns=2, replicas=1, max_batch=8, max_inflight=0
        )
        assert max_inflight == 1


class TestLearnerKnobs:
    def test_clamp_caps_requests_at_the_scale(self):
        from repro.api.cli import clamp_learner_knobs

        publish, capacity, minibatch = clamp_learner_knobs(
            TINY_SCALE, publish_every=1000, replay_capacity=10**6, minibatch=4096
        )
        assert publish == TINY_SCALE.learner_publish_every
        assert capacity == TINY_SCALE.learner_replay_capacity
        assert minibatch == TINY_SCALE.learner_minibatch

    def test_clamp_defaults_to_scale_values_and_floors_at_one(self):
        from repro.api.cli import clamp_learner_knobs

        publish, capacity, minibatch = clamp_learner_knobs(TINY_SCALE)
        assert (publish, capacity, minibatch) == (
            TINY_SCALE.learner_publish_every,
            TINY_SCALE.learner_replay_capacity,
            TINY_SCALE.learner_minibatch,
        )
        publish, _, _ = clamp_learner_knobs(TINY_SCALE, publish_every=0)
        assert publish == 1

    def test_apply_caps_served_online_slots_only(self, tiny_scenario_path):
        import dataclasses

        from repro.api.cli import apply_learner_knobs
        from repro.api.specs import PolicySpec

        spec = load_spec(tiny_scenario_path)
        # First slot: served_online with one pinned knob (small) and one
        # oversized pin; second slot keeps its non-learner policy.
        slots = list(spec.slots)
        slots[0] = dataclasses.replace(
            slots[0],
            policy=PolicySpec(
                "served_online",
                {"steps_per_publish": 2, "replay_capacity": 10**6},
            ),
        )
        capped = apply_learner_knobs(
            spec.replace(slots=tuple(slots)),
            steps_per_publish=8,
            replay_capacity=512,
            minibatch=16,
        )
        params = capped.slots[0].policy.params
        assert params["steps_per_publish"] == 2  # smaller pin wins
        assert params["replay_capacity"] == 512  # oversized pin clamped
        assert params["minibatch"] == 16  # unpinned knob filled in
        assert capped.slots[1].policy.params == spec.slots[1].policy.params
        assert ScenarioSpec.from_json(capped.to_json()) == capped

    def test_apply_without_knobs_is_identity(self, tiny_scenario_path):
        from repro.api.cli import apply_learner_knobs

        spec = load_spec(tiny_scenario_path)
        assert apply_learner_knobs(spec) is spec
