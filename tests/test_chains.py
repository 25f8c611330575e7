"""Chain runner: builtin specs, paired execution, classification, attribution."""

import dataclasses

import pytest

import agvsim.chains
from agvsim.chains import (
    CHAIN_FOLDER,
    ChainSpec,
    ChainStage,
    OutcomeClass,
    StageKind,
    Trigger,
    builtin_chain,
    builtin_chains,
    load_chain_spec,
    run_chain,
)
from agvsim.cavstack import Layer
from agvsim.domain import ConfigError, Role, ThreatId, shipped_files
from agvsim.scenario import load_shipped, shipped_scenarios
from agvsim.runner import run_episodes
from agvsim.serialize import digest_of
from agvsim.threats import Surface, ThreatInjection
from agvsim.trace import classify_outcome
from test_incremental import comparable_view


@pytest.fixture(scope="module")
def base_scenario():
    return load_shipped("chain-base")


class TestBuiltinChains:
    def test_exactly_six_shipped_chains(self):
        assert len(builtin_chains()) == 6

    def test_chain_1_stage_shape(self):
        spec = builtin_chain("chain-1")
        kinds = [stage.kind for stage in spec.stages]
        assert kinds == [StageKind.INJECT, StageKind.OBSERVE, StageKind.OBSERVE]
        assert spec.stages[0].injection.threat is ThreatId.T1

    def test_chain_4_first_stage_is_perception_layer(self):
        spec = builtin_chain("chain-4")
        stage = spec.stages[0]
        assert stage.injection.surface is Surface.LAYER
        assert stage.injection.threat is ThreatId.X_PERCEPTION
        assert Layer.PERCEPTION.value == "Perception"

    def test_chain_2_cross_role_sequence(self):
        spec = builtin_chain("chain-2")
        threats = [s.injection.threat for s in spec.stages if s.injection is not None]
        assert threats == [ThreatId.T9, ThreatId.T12]

    def test_all_builtin_specs_validate(self):
        builtin_chains()  # each spec checks itself when it is built

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            builtin_chain("chain-99")

    def test_exact_id_or_unique_prefix_only(self):
        assert builtin_chain("chain-3").id == "chain-3-hallucination-compounding"
        assert builtin_chain("chain-6-spoofed-v2x-closure").id == "chain-6-spoofed-v2x-closure"
        with pytest.raises(KeyError, match="ambiguous"):
            builtin_chain("chain-")

    def test_the_shipped_specs_are_pinned(self):
        # taken from the Python table the spec files replaced: a loader that
        # drops or defaults a field of any stage moves it
        assert digest_of(tuple(builtin_chains())) == "e449c33f8b4a9bbe"

    def test_each_shipped_file_is_named_by_its_chain_id(self):
        # a lookup by id or prefix matches file stems and parses no other file
        paths = shipped_files(CHAIN_FOLDER)
        assert len(paths) == 6
        for stem, path in paths.items():
            assert load_chain_spec(path).id == stem

    def test_a_lookup_loads_only_the_file_it_matches(self, monkeypatch):
        loaded = []
        load = agvsim.chains.load_chain_spec
        monkeypatch.setattr(agvsim.chains, "load_chain_spec", lambda path: loaded.append(path.stem) or load(path))
        builtin_chain("chain-5")
        assert loaded == ["chain-5-phantom-object"]


class TestChainValidation:
    def test_trigger_dag_ordering_enforced(self):
        stage = ChainStage(
            kind=StageKind.OBSERVE, trigger=Trigger(after_stage=1), probe="route-pref-changed"
        )
        with pytest.raises(ValueError, match="earlier stage"):
            ChainSpec(id="bad", stages=(stage,), episode_length=3)

    def test_inject_stage_cannot_wait_on_observe(self):
        observe = ChainStage(
            kind=StageKind.OBSERVE, trigger=Trigger(at_step=0), probe="route-pref-changed"
        )
        inject = ChainStage(
            kind=StageKind.INJECT,
            trigger=Trigger(after_stage=0),
            injection=ThreatInjection(ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0}),
        )
        with pytest.raises(ValueError, match="inject stages"):
            ChainSpec(id="bad", stages=(observe, inject), episode_length=3)

    def test_illegal_stage_injection_rejected(self):
        with pytest.raises(ValueError, match="may not target"):
            ThreatInjection(ThreatId.T1, Surface.LOGS, {"value_kph": 45.0})

    def test_unknown_probe_rejected(self):
        stage = ChainStage(kind=StageKind.OBSERVE, trigger=Trigger(at_step=0), probe="nonsense")
        with pytest.raises(ValueError, match="unknown probe"):
            ChainSpec(id="bad", stages=(stage,), episode_length=3)

    @pytest.mark.parametrize("stage", [
        ChainStage(StageKind.INJECT, Trigger(at_step=4), ThreatInjection(
            ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0},
        )),
        ChainStage(StageKind.OBSERVE, Trigger(at_step=9), probe="route-pref-changed"),
    ], ids=["inject-at-length", "observe-past-length"])
    def test_a_trigger_past_the_last_step_is_rejected(self, stage):
        # such a stage could never act, and the chain would run as NoEffect
        message = rf"chain 'late' stage 0: at_step {stage.trigger.at_step} is past the last step, 3"
        with pytest.raises(ValueError, match=message):
            ChainSpec(id="late", stages=(stage,), episode_length=4)
        last = dataclasses.replace(stage, trigger=Trigger(at_step=3))
        ChainSpec(id="late", stages=(last,), episode_length=4)

    def test_a_key_the_stage_would_drop_is_rejected(self):
        injection = ThreatInjection(ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0})
        with pytest.raises(ValueError, match="observe stages need a probe and take no injection"):
            ChainStage(StageKind.OBSERVE, Trigger(at_step=0), injection, "route-pref-changed")
        with pytest.raises(ValueError, match="inject stages need an injection and take no probe"):
            ChainStage(StageKind.INJECT, Trigger(at_step=0), injection, "route-pref-changed")

    @pytest.mark.parametrize("trigger,message", [
        ("{at_step: 0, after_stage: 0}", "trigger needs exactly one of at_step / after_stage"),
        ("{}", "trigger needs exactly one of at_step / after_stage"),
        ("{at_step: -1}", "at_step must be >= 0, got -1"),
    ], ids=["both-keys", "neither-key", "negative-step"])
    def test_a_bad_trigger_in_a_file_is_a_config_error_at_the_trigger(self, tmp_path, trigger, message):
        path = tmp_path / "bad.yaml"
        path.write_text(
            f"id: bad\nepisode_length: 4\nstages:\n"
            f"  - {{kind: observe, trigger: {trigger}, probe: route-pref-changed}}\n"
        )
        with pytest.raises(ConfigError) as raised:
            load_chain_spec(path)
        assert (raised.value.where, raised.value.message) == (f"{path}.stages[0].trigger", message)

    def test_a_stage_injection_acts_from_its_trigger_on(self, base_scenario):
        # an injection carries no window: the trigger alone decides when a stage acts
        stage = ChainStage(
            kind=StageKind.INJECT,
            trigger=Trigger(at_step=1),
            injection=ThreatInjection(ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0}),
        )
        spec = ChainSpec(id="from-step-1", stages=(stage,), episode_length=4)
        propagation, _ = run_chain(spec, base_scenario)
        assert propagation.outcome is OutcomeClass.MISALIGNED_APPROVED
        assert propagation.stage_deltas[0].fired_step == 1
        assert [len(record.effects) for record in propagation.attacked.steps] == [0, 1, 1, 1]


class TestRunChain:
    def test_chain_1_paired_oracle(self, base_scenario):
        propagation, baseline = run_chain(builtin_chain("chain-1"), base_scenario)
        attacked = propagation.attacked
        # cap enters intent at the poisoning step, target drops, verdicts unchanged
        assert attacked.steps[0].intent.active_caps_kph == (45.0,)
        assert baseline.steps[0].intent.active_caps_kph == ()
        assert all(
            a.approved.target_speed_kph < b.approved.target_speed_kph
            for a, b in zip(attacked.steps, baseline.steps)
        )
        assert attacked.verdict_sequence() == baseline.verdict_sequence()
        assert propagation.outcome is OutcomeClass.MISALIGNED_APPROVED
        assert propagation.stealth

    def test_chain_2_route_delta_with_clean_verdicts(self, base_scenario):
        propagation, baseline = run_chain(builtin_chain("chain-2"), base_scenario)
        routes_attacked = [s.approved.route_pref for s in propagation.attacked.steps]
        routes_baseline = [s.approved.route_pref for s in baseline.steps]
        assert routes_baseline == ["default"] * 4
        assert "detour-around-R7" in routes_attacked
        assert propagation.attacked.verdict_sequence() == baseline.verdict_sequence()
        assert propagation.outcome is OutcomeClass.MISALIGNED_APPROVED

    def test_a_poisoned_external_limit_reaches_the_approved_target(self, base_scenario):
        # chain-2 with its T12 edit setting the limit the forged External envelope carries
        spec = builtin_chain("chain-2")
        poison = ThreatInjection(ThreatId.T12, Surface.INTER_AGENT_MSG, {
            "target": "external", "edits": [{"field": "speed_limit_kph", "op": "Set", "value": 30.0}],
        })
        stages = (spec.stages[0], dataclasses.replace(spec.stages[1], injection=poison), spec.stages[2])
        propagation, baseline = run_chain(dataclasses.replace(spec, stages=stages), base_scenario)
        attacked = propagation.attacked
        external = [[e.payload for e in r.envelopes if e.sender is Role.EXTERNAL] for r in attacked.steps]
        assert external == [[{}]] + [[{"speed_limit_kph": 30.0}]] * 3
        assert [r.approved.target_speed_kph for r in attacked.steps] == [81, 30.0, 30.0, 30.0]
        assert [r.approved.target_speed_kph for r in baseline.steps] == [81] * 4
        stage = propagation.stage_deltas[1]
        assert (stage.fired_step, stage.changed_fields) == (1, ("approved", "dsa_context", "submissions"))

    def test_an_observe_stage_after_one_that_never_hits_never_fires(self, base_scenario):
        # with no injection the route never changes, so neither probe hits
        spec = ChainSpec(id="idle", episode_length=4, stages=(
            ChainStage(StageKind.OBSERVE, Trigger(at_step=0), probe="route-pref-changed"),
            ChainStage(StageKind.OBSERVE, Trigger(after_stage=0), probe="route-pref-changed"),
        ))
        propagation, _ = run_chain(spec, base_scenario)
        waiting = propagation.stage_deltas[1]
        assert (waiting.fired_step, waiting.changed_fields, waiting.detail) == (None, (), "upstream stage never fired")

    def test_stage_firing_cascade(self, base_scenario):
        propagation, _ = run_chain(builtin_chain("chain-2"), base_scenario)
        fired = [d.fired_step for d in propagation.stage_deltas]
        assert fired[0] == 0          # forged identity lands immediately
        assert fired[1] == 1          # poisoning waits for the spoof to take effect
        assert fired[2] is not None and fired[2] >= 1

    def test_stage_fired_step_is_the_runners_not_a_static_twin(self, base_scenario):
        # a static T8 strips the log at step 0, so the stage's own strip
        # there finds nothing and only takes effect at step 1
        static = ThreatInjection(ThreatId.T8, Surface.LOGS, {"mode": "strip-provenance"})
        scenario = dataclasses.replace(base_scenario, injections=((static, (0, 0)),))
        stage = ChainStage(
            kind=StageKind.INJECT,
            trigger=Trigger(at_step=0),
            injection=ThreatInjection(ThreatId.T8, Surface.LOGS, {}),
        )
        spec = ChainSpec(id="t8-twin", stages=(stage,), episode_length=4)
        propagation, _ = run_chain(spec, scenario)
        assert propagation.stage_deltas[0].fired_step == 1

    @pytest.mark.parametrize("name", sorted(shipped_scenarios()))
    def test_snapshot_count_equals_episode_length(self, name):
        scenario = load_shipped(name)
        for spec in builtin_chains():
            propagation, baseline = run_chain(spec, scenario)
            assert len(propagation.attacked.steps) == len(baseline.steps) == spec.episode_length, spec.id

    @pytest.mark.parametrize(
        "name", [n for n in sorted(shipped_scenarios()) if len(load_shipped(n).requests) == 3]
    )
    def test_a_chains_baseline_is_the_plain_baseline_of_its_cycled_scenario(self, name):
        # 3 requests under a 4-step chain: the fourth step takes the first request again
        scenario = load_shipped(name)
        cycled = dataclasses.replace(scenario, episodes=1, requests=scenario.requests + scenario.requests[:1])
        expected = run_episodes(cycled, with_injections=False).to_json()
        for spec in builtin_chains():
            assert spec.episode_length == 4, spec.id
            _, baseline = run_chain(spec, scenario)
            assert baseline.to_json() == expected, spec.id

    def test_empty_chain_is_no_effect(self, base_scenario):
        empty = ChainSpec(id="empty", stages=(), episode_length=3)
        propagation, baseline = run_chain(empty, base_scenario)
        assert propagation.outcome is OutcomeClass.NO_EFFECT
        assert propagation.attacked.to_json() == dataclasses.replace(
            baseline, injected=True
        ).to_json()

    def test_all_shipped_chains_classify_misaligned_approved(self, base_scenario):
        for spec in builtin_chains():
            propagation, _ = run_chain(spec, base_scenario)
            assert propagation.outcome is OutcomeClass.MISALIGNED_APPROVED, spec.id

    def test_target_150_chain_blocked_by_sc(self, base_scenario):
        speedster = ChainSpec(
            id="target-150",
            episode_length=3,
            stages=(
                ChainStage(
                    kind=StageKind.INJECT,
                    trigger=Trigger(at_step=0),
                    injection=ThreatInjection(
                        ThreatId.T13, Surface.AGENT_POLICY,
                        {"agent": "DSA", "policy": "rogue-speedster"},
                    ),
                ),
            ),
        )
        propagation, _ = run_chain(speedster, base_scenario)
        assert propagation.outcome is OutcomeClass.BLOCKED_BY_SC
        assert not propagation.stealth

    def test_delta_attribution_exactly_one_stage_per_field(self, base_scenario):
        # every changed field is claimed by exactly one inject stage
        from agvsim.threats import delta_footprint
        from agvsim.trace import step_deltas

        for spec in builtin_chains():
            propagation, baseline = run_chain(spec, base_scenario)
            footprints = [
                (i, set(delta_footprint(stage.injection)))
                for i, stage in enumerate(spec.stages)
                if stage.kind is StageKind.INJECT
            ]
            for delta in step_deltas(propagation.attacked, baseline):
                for name in delta.changed_paths:
                    owners = [i for i, fp in footprints if name in fp]
                    assert len(owners) == 1, (spec.id, name, owners)

    def test_pairing_prefix_identical_before_first_stage(self, base_scenario):
        # move the single stage later: pre-injection steps must hash identically
        spec = builtin_chain("chain-6")
        delayed = dataclasses.replace(
            spec,
            stages=(dataclasses.replace(spec.stages[0], trigger=Trigger(at_step=2)),)
            + spec.stages[1:],
        )
        propagation, baseline = run_chain(delayed, base_scenario)
        for a, b in zip(propagation.attacked.steps[:2], baseline.steps[:2]):
            assert comparable_view(a) == comparable_view(b)


class TestClassifyOutcome:
    def test_identical_runs_classify_no_effect(self, base_scenario):
        config = dataclasses.replace(base_scenario, episodes=1)
        a = run_episodes(config, with_injections=False)
        b = run_episodes(config, with_injections=False)
        assert classify_outcome(a, b) is OutcomeClass.NO_EFFECT
