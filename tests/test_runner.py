"""Episode engine: determinism, pairing, structural trust-boundary invariants."""

import copy
import dataclasses
import gc
import pickle
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import agvsim.scenario
import agvsim.runner
from agvsim.chains import ChainSpec, ChainStage, StageKind, Trigger, builtin_chains, run_chain
from agvsim.domain import DEFAULT_ADMISSION, FIELD_RANGES, Authority, Role, ThreatId
from agvsim.pipeline import AgentTuning, Decision, MemoryEntry
from agvsim.report import compare, render_csv, render_json
from agvsim.scenario import ConfigError, load_shipped, parse_scenario, shipped_scenarios
from agvsim.runner import run_episodes
from agvsim.serialize import digest_of
from agvsim.threats import Phase, Surface, ThreatInjection, injection_phase
from agvsim.trace import TracePairingError, stealth_check, step_deltas

from test_golden import open_campaign
from test_payload_properties import BASE, KEY_VALUES

SHIPPED = sorted(shipped_scenarios())
FIXTURES = [name for name in SHIPPED if name.startswith("threat-")]


def paired(name: str):
    config = load_shipped(name)
    return (
        run_episodes(config, with_injections=False),
        run_episodes(config, with_injections=True),
        config,
    )


def approved_targets(trace) -> tuple[float, ...]:
    return tuple(record.approved.target_speed_kph for record in trace.steps)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        config = load_shipped("case1-highway-routine")
        a = run_episodes(config, with_injections=True)
        b = run_episodes(config, with_injections=True)
        assert a.to_json() == b.to_json()

    def test_seed_override_changes_nothing_observable_without_randomness(self):
        config = load_shipped("threat-t02")
        a = run_episodes(config, with_injections=True, seed=1)
        b = run_episodes(config, with_injections=True, seed=2)
        # no seeded randomness in this scenario: only the recorded seed differs
        assert approved_targets(a) == approved_targets(b)
        assert a.seed == 1 and b.seed == 2

    def test_t15_outcome_depends_only_on_seed(self):
        config = load_shipped("threat-t15")
        partial = dataclasses.replace(
            config,
            injections=tuple(
                (dataclasses.replace(inj, payload={**inj.payload, "framing_weight": 0.5}), window)
                for inj, window in config.injections
            ),
        )
        runs = [run_episodes(partial, with_injections=True, seed=5) for _ in range(2)]
        assert runs[0].to_json() == runs[1].to_json()

    def test_rerun_of_one_config_object_is_identical_after_t12_edits_t9_patch(self):
        # a T12 hazards edit of a forged T9 context message must not grow the
        # configured patch's own list, nor the logged copy of it
        hazard = {"kind": "debris", "distance_m": 40.0, "confidence": 0.8}
        config = parse_scenario({
            "id": "t9-t12-hazards",
            "mode": "Autonomous",
            "agency": 3,
            "seed": 7,
            "episodes": 2,
            "world": {"speed_limit_kph": 90.0, "road_class": "Highway", "vehicle_speed_kph": 72.0},
            "requests": [{"urgency_tag": "Routine", "destination": "commute"}],
            "injections": [
                {"threat": "T9", "surface": "IdentityField", "window": [0, 1],
                 "payload": {"claimed": "CavStack", "target": "context",
                             "context_patch": {"hazards_add": [hazard]}}},
                {"threat": "T12", "surface": "InterAgentMsg", "window": [0, 1],
                 "payload": {"target": "external",
                             "edits": [{"field": "hazards", "op": "InjectRecord", "value": hazard}]}},
            ],
        })
        payloads = copy.deepcopy([inj.payload for inj, _ in config.injections])

        def export() -> str:
            attacked = run_episodes(config, with_injections=True)
            return render_json(compare(run_episodes(config, with_injections=False), attacked))

        first = export()
        assert export() == first
        assert [inj.payload for inj, _ in config.injections] == payloads
        attacked = run_episodes(config, with_injections=True)
        assert [len(r.dsa_context.hazards) for r in attacked.steps] == [2, 2]
        logged = [e.payload for r in attacked.steps for e in r.envelopes if e.sender is Role.EXTERNAL]
        assert [len(p["hazards_add"]) for p in logged] == [2, 2]


class TestBaselinePurity:
    def test_baseline_invariant_to_injection_list(self):
        config = load_shipped("threat-t01")
        stripped = dataclasses.replace(config, injections=())
        with_list = run_episodes(config, with_injections=False)
        without_list = run_episodes(stripped, with_injections=False)
        assert with_list.to_json() == without_list.to_json()

    def test_baseline_has_no_effect_records(self):
        baseline, _, _ = paired("case1-highway-routine")
        assert all(not record.effects for record in baseline.steps)


class TestTrustBoundaries:
    def test_clean_run_has_no_spoofed_envelopes(self):
        baseline, _, _ = paired("case1-highway-urgent")
        for record in baseline.steps:
            assert record.spoofed_envelopes == 0
            for env in record.envelopes:
                assert env.claimed_sender is env.sender

    def test_provenance_hops_strictly_increasing(self):
        baseline, attacked, _ = paired("case1-highway-urgent")
        for trace in (baseline, attacked):
            for record in trace.steps:
                for env in record.envelopes:
                    steps = [s for _, s in env.provenance]
                    assert steps == sorted(steps)
                    assert len(set(steps)) == len(steps)

    def test_verdicts_only_originate_from_safety_check(self):
        baseline, _, _ = paired("case1-highway-urgent")
        for record in baseline.steps:
            for env in record.envelopes:
                if env.authority is Authority.VERDICT_ONLY:
                    assert env.sender is Role.SAFETY_CHECK
                if env.sender is Role.SAFETY_CHECK:
                    assert env.authority is Authority.VERDICT_ONLY

    def test_approved_always_sanctioned_by_final_verdict(self):
        for name in ("case1-highway-routine", "threat-t13", "threat-xv2x"):
            _, attacked, _ = paired(name)
            for record in attacked.steps:
                final = record.verdicts[-1]
                if final.decision is Decision.APPROVE:
                    assert record.approved == record.submissions[-1]
                elif final.decision is Decision.SUBSTITUTE:
                    assert record.approved == final.substitute
                else:
                    pytest.fail("episode completed on a Revise verdict")

    def test_world_truth_unchanged_by_any_shipped_attack(self):
        # a run's two world digests are one digest taken when read, so only a
        # copy taken before the runs can show that they left the world as it was
        configs = [load_shipped(name) for name in SHIPPED] + [open_campaign(name) for name in FIXTURES]
        assert len(configs) == len(SHIPPED) + 19
        for config in configs:
            before = copy.deepcopy(config.world)
            run_episodes(config, with_injections=False)
            run_episodes(config, with_injections=True)
            assert config.world == before, config.id

    def test_world_truth_fields_cannot_be_assigned(self):
        world = load_shipped("case2-highway").world
        for field in dataclasses.fields(world):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(world, field.name, getattr(world, field.name))


class TestPersistence:
    def test_persistent_memory_crosses_episodes(self):
        _, attacked, config = paired("threat-t01")
        assert config.episodes == 2
        episode1 = [r for r in attacked.steps if r.episode == 1]
        assert all(r.approved.target_speed_kph == 45.0 for r in episode1)
        assert all(not r.effects for r in episode1)  # influence carried over, not re-injected

    def test_non_persistent_injection_resets_next_episode(self):
        config = load_shipped("threat-t01")
        volatile = dataclasses.replace(
            config,
            injections=tuple(
                (dataclasses.replace(inj, persistent=False), window) for inj, window in config.injections
            ),
        )
        baseline = run_episodes(volatile, with_injections=False)
        attacked = run_episodes(volatile, with_injections=True)
        deltas = step_deltas(attacked, baseline)
        episode1 = [d for d in deltas if d.episode == 1]
        assert all(not d.changed_paths for d in episode1)


def window_0_0(name: str, persistent: bool | None = None):
    """A threat fixture over 2 episodes with each injection active at global step 0 only.

    Gives {global step: changed fields} of the steps that deviate from the
    baseline, and the global steps that carry effect records. `persistent`,
    when given, replaces each injection's flag.
    """
    config = load_shipped(name)
    config = dataclasses.replace(config, episodes=2, injections=tuple(
        (inj if persistent is None else dataclasses.replace(inj, persistent=persistent), (0, 0))
        for inj, _ in config.injections
    ))
    assert config.steps_per_episode == 3
    baseline = run_episodes(config, with_injections=False)
    attacked = run_episodes(config, with_injections=True)
    deviating = {d.global_step: d.changed_paths for d in step_deltas(attacked, baseline) if d.changed_paths}
    return deviating, [r.global_step for r in attacked.steps if r.effects]


class TestEffectLifetimes:
    """How long what an injection leaves behind outlives its window (README § Scenario files)."""

    @pytest.mark.parametrize("name, persistent, steps", [
        ("threat-t01", False, [0, 1, 2]),
        ("threat-t01", True, [0, 1, 2, 3, 4, 5]),
        ("threat-t02", None, [0, 1, 2]),
        ("threat-t05", True, [0, 1, 2, 3, 4, 5]),
    ])
    def test_memory_entries_last_the_episode_and_cross_it_only_when_persistent(self, name, persistent, steps):
        deviating, effects = window_0_0(name, persistent)
        assert sorted(deviating) == steps
        assert all("memory_digest" in paths for paths in deviating.values())
        assert effects == [0]

    def test_t11_tuning_lasts_the_rest_of_the_run(self):
        deviating, effects = window_0_0("threat-t11")
        assert sorted(deviating) == [0, 1, 2, 3, 4, 5]
        assert all(deviating[g] == ("approved", "submissions", "tuning_digest") for g in range(1, 6))
        assert effects == [0]

    def test_t15_framing_lasts_the_rest_of_the_episode(self):
        deviating, effects = window_0_0("threat-t15")
        assert sorted(deviating) == [0, 1, 2]
        assert effects == [0]

    @pytest.mark.parametrize("name", [
        "threat-t03", "threat-t04", "threat-t05", "threat-t06", "threat-t07", "threat-t08", "threat-t09",
        "threat-t10", "threat-t12", "threat-t13", "threat-t14",
        "threat-xcompute", "threat-xcontrolfeedback", "threat-xperception", "threat-xv2x",
    ])
    def test_every_other_effect_stays_in_its_window(self, name):
        deviating, effects = window_0_0(name)
        assert set(deviating) <= {0}
        assert effects == [0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([r.value for r in Role if r not in DEFAULT_ADMISSION[Authority.CONTEXT_ONLY]]),
    KEY_VALUES["context_patch"],
)
def test_a_context_envelope_from_an_unadmitted_claimed_sender_is_rejected(claimed, patch):
    # the admission gate, not the patch, decides: nothing merges, whatever the patch says
    payload = {"claimed": claimed, "target": "context", "context_patch": patch}
    try:
        config = parse_scenario(
            {**BASE, "injections": [{"threat": "T9", "surface": "IdentityField", "window": [1, 2],
                                     "payload": payload}]},
            "unadmitted-context",
        )
    except ConfigError:
        assume(False)
    baseline = run_episodes(config, with_injections=False)
    attacked = run_episodes(config, with_injections=True)
    for a, b in zip(attacked.steps, baseline.steps):
        forged = any(e.threat is ThreatId.T9 for e in a.effects)
        assert forged == (a.global_step in (1, 2))
        assert (a.rejected_envelopes, b.rejected_envelopes) == (int(forged), 0)
        assert a.dsa_context == b.dsa_context


def cyclic_garbage(work) -> int:
    """The objects in reference cycles that `work()` leaves unreachable, run with the collector off.

    `work` runs once before, so that lazy imports and process-wide caches
    are in place and only what a run itself drops is counted.
    """
    work()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def export_every_shipped_pair() -> None:
    for name in SHIPPED:
        report = compare(*paired(name)[:2])
        render_csv(report)
        render_json(report)


def run_every_builtin_chain() -> None:
    scenario = load_shipped("chain-base")
    for spec in builtin_chains():
        run_chain(spec, scenario)


class TestCollectorPause:
    """`run_episodes` pauses the cyclic collector, which is safe only while a run makes no cyclic garbage."""

    def test_shipped_pairs_and_their_exports_make_no_cyclic_garbage(self):
        assert cyclic_garbage(export_every_shipped_pair) == 0

    def test_builtin_chains_make_no_cyclic_garbage(self):
        assert cyclic_garbage(run_every_builtin_chain) == 0

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def callers_setting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_the_step_loop_runs_paused_and_the_callers_setting_comes_back(self, callers_setting, monkeypatch):
        seen = []
        policy = agvsim.runner.run_pa_policy

        def spy(*args):
            seen.append(gc.isenabled())
            return policy(*args)

        monkeypatch.setattr(agvsim.runner, "run_pa_policy", spy)
        run_episodes(load_shipped("threat-t01"), with_injections=True)
        assert gc.isenabled() is callers_setting
        assert seen == [False] * 6

    def test_a_raise_in_the_step_loop_restores_the_callers_setting(self, callers_setting, monkeypatch):
        def fail(*args):
            raise RuntimeError("planted")

        monkeypatch.setattr(agvsim.runner, "run_pa_policy", fail)
        with pytest.raises(RuntimeError, match="planted"):
            run_episodes(load_shipped("threat-t01"), with_injections=True)
        assert gc.isenabled() is callers_setting


def test_every_memory_entry_holds_a_float(monkeypatch):
    # the store digests `repr(value)`, so 45 and 45.0 would compare equal and digest apart
    built = []
    init = MemoryEntry.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(MemoryEntry, "__init__", spy)
    export_every_shipped_pair()
    for name in FIXTURES:
        config = open_campaign(name)
        run_episodes(config, with_injections=False)
        run_episodes(config, with_injections=True)
    run_every_builtin_chain()
    # the runner's adopted tool advice and T1 (External), and T5 (PersonalAgent)
    assert {e.origin for e in built} == {Role.EXTERNAL, Role.PERSONAL_AGENT}
    assert {type(e.value) for e in built} == {float}


class TestStealthCheck:
    def test_case_study_attack_is_stealthy(self):
        baseline, attacked, _ = paired("case1-highway-routine")
        assert stealth_check(attacked, baseline) is True

    def test_bound_violating_policy_is_not_stealthy(self):
        import agvsim.trace as trace
        from agvsim.threats import ThreatInjection
        from agvsim.domain import ThreatId

        config = load_shipped("chain-base")
        speedster = dataclasses.replace(
            config,
            injections=(
                (
                    ThreatInjection(
                        threat=ThreatId.T13,
                        surface=Surface.AGENT_POLICY,
                        payload={"agent": "DSA", "policy": "rogue-speedster"},
                    ),
                    (0, 3),
                ),
            ),
        )
        baseline = run_episodes(speedster, with_injections=False)
        attacked = run_episodes(speedster, with_injections=True)
        assert stealth_check(attacked, baseline) is False
        assert trace.classify_outcome(attacked, baseline) is trace.OutcomeClass.BLOCKED_BY_SC

    def test_a_rogue_urgent_pa_is_a_stealthy_misaligned_approval(self):
        # every routine trip is reframed as urgent: the intent asks for the limit and the SC approves it
        import agvsim.trace as trace

        config = load_shipped("threat-t13")
        rogue = ThreatInjection(ThreatId.T13, Surface.AGENT_POLICY, {"agent": "PA", "policy": "rogue-urgent"})
        config = dataclasses.replace(config, injections=((rogue, (0, 2)),))
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)

        def read(run):
            return [(r.intent.urgency, r.intent.desired_speed_kph, r.approved.target_speed_kph) for r in run.steps]

        assert read(attacked) == [(1.0, 90.0, 90.0)] * 3
        assert read(baseline) == [(0.4, 81, 81)] * 3
        assert [len(r.effects) for r in attacked.steps] == [1, 1, 1]
        assert trace.classify_outcome(attacked, baseline) is trace.OutcomeClass.MISALIGNED_APPROVED
        assert stealth_check(attacked, baseline) is True

    def test_noop_injection_is_stealthy(self):
        baseline, attacked, _ = paired("threat-t08")
        assert stealth_check(attacked, baseline) is True

    def test_unpaired_traces_rejected(self):
        a, _, _ = paired("case1-highway-routine")
        b, _, _ = paired("case2-highway")
        with pytest.raises(TracePairingError):
            stealth_check(a, b)


class TestLogsAndAttribution:
    def test_t8_strips_origin_hops_from_log(self):
        baseline, attacked, _ = paired("threat-t08")
        clean = baseline.steps[0].envelopes
        stripped = attacked.steps[0].envelopes
        assert any(len(env.provenance) > 1 for env in clean)
        assert all(len(env.provenance) == 1 for env in stripped)
        # behavior itself is untouched: attribution failure only
        assert approved_targets(attacked) == approved_targets(baseline)

    def test_deltas_stay_within_injection_footprint(self):
        from agvsim.threats import delta_footprint

        for name in ("threat-t01", "threat-t07", "threat-xv2x", "threat-t06"):
            baseline, attacked, config = paired(name)
            footprint = set().union(*(delta_footprint(inj) for inj, _ in config.injections))
            for delta in step_deltas(attacked, baseline):
                assert set(delta.changed_paths) <= footprint, (name, delta.changed_paths)

    def test_zero_step_scenario_yields_empty_trace(self):
        config = dataclasses.replace(load_shipped("chain-base"), requests=())
        trace = run_episodes(config, with_injections=False)
        assert trace.steps == ()


def window_1_1(injection: dict):
    """A three-request, one-episode scenario with one injection active at step 1 only."""
    return parse_scenario({
        "id": "window-1-1",
        "mode": "Autonomous",
        "agency": 4,
        "seed": 7,
        "world": {"speed_limit_kph": 80.0, "road_class": "Highway", "vehicle_speed_kph": 72.0},
        "requests": [{"urgency_tag": "Routine", "destination": "commute"}] * 3,
        "injections": [{**injection, "window": [1, 1]}],
    })


class TestWindows:
    """The runner's active list is the one check of an injection's window."""

    def test_layer_transform_changes_only_the_contexts_of_its_window(self):
        config = window_1_1({"threat": "XV2X", "surface": "Layer", "payload": {
            "transforms": [{"field": "speed_limit_kph", "op": "Set", "value": 40.0}],
        }})
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        changed = [
            a.global_step for a, b in zip(attacked.steps, baseline.steps)
            if (a.pa_context, a.dsa_context) != (b.pa_context, b.dsa_context)
        ]
        assert changed == [1]
        assert attacked.steps[1].pa_context.speed_limit_kph == 40.0

    def test_injection_leaves_effect_records_only_in_its_window(self):
        config = window_1_1({"threat": "T1", "surface": "PAMemory", "payload": {"value_kph": 45.0}})
        attacked = run_episodes(config, with_injections=True)
        assert [(r.global_step, e.step, e.threat) for r in attacked.steps for e in r.effects] == [(1, 1, ThreatId.T1)]

    def test_both_fail_when_every_injection_is_always_active(self, monkeypatch):
        monkeypatch.setattr(agvsim.scenario, "_parse_window", lambda value, where: (0, 2**31 - 1))
        with pytest.raises(AssertionError):
            self.test_layer_transform_changes_only_the_contexts_of_its_window()
        with pytest.raises(AssertionError):
            self.test_injection_leaves_effect_records_only_in_its_window()


def t11_config(injections: list[tuple[str, float, tuple[int, int]]], episodes: int):
    """`chain-base` (4 requests) with one T11 injection per (knob, value, window)."""
    return parse_scenario({
        "id": "t11-sequence",
        "mode": "Autonomous",
        "agency": 4,
        "seed": 401,
        "episodes": episodes,
        "world": {"speed_limit_kph": 90.0, "road_class": "Highway", "vehicle_speed_kph": 72.0},
        "requests": [{"urgency_tag": "Routine", "destination": "commute"}] * 4,
        "injections": [
            {"threat": "T11", "surface": "ToolOutput", "window": list(window),
             "payload": {"config_field": knob, "config_value": value}}
            for knob, value, window in injections
        ],
    })


def expected_tuning_digests(injections: list[tuple[str, float, tuple[int, int]]], steps: int) -> list[str]:
    """Per global step, the digest of a fresh tuning with every knob applied so far, in list order."""
    knobs: dict[str, float] = {}
    out = []
    for g in range(steps):
        for knob, value, (start, end) in injections:
            if start <= g <= end:
                knobs[knob] = value
        out.append(digest_of(AgentTuning(**knobs)))
    return out


@st.composite
def t11_injections(draw, horizon: int) -> list[tuple[str, float, tuple[int, int]]]:
    """1-4 T11 injections over one or two knobs, so later ones often rewrite earlier ones.

    Values include each knob's range ends, and both zeros for the urgency knobs.
    """
    knobs = draw(st.lists(st.sampled_from(list(FIELD_RANGES[AgentTuning])), min_size=1, max_size=2, unique=True))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        knob = draw(st.sampled_from(knobs))
        lo, hi = FIELD_RANGES[AgentTuning][knob]
        ends = [lo, hi, 0.0, -0.0] if lo == 0.0 else [lo, hi]
        value = draw(st.one_of(st.sampled_from(ends), st.floats(lo, hi)))
        start = draw(st.integers(0, horizon - 1))
        out.append((knob, value, (start, draw(st.integers(start, horizon - 1)))))
    return out


class TestTuningDigest:
    def test_negative_zero_knob_gets_its_own_digest(self):
        # 0.0 == -0.0 and both hash alike, but they serialise differently
        injections = [
            ("pa_routine_urgency", 0.0, (0, 1)),
            ("pa_routine_urgency", -0.0, (2, 3)),
        ]
        attacked = run_episodes(t11_config(injections, 1), with_injections=True)
        got = [r.tuning_digest for r in attacked.steps]
        assert got == expected_tuning_digests(injections, 4)
        assert got[1] != got[2]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t11_injections(horizon=8))
    def test_tuning_digest_follows_every_t11_injection(self, injections):
        attacked = run_episodes(t11_config(injections, 2), with_injections=True)
        assert [r.tuning_digest for r in attacked.steps] == expected_tuning_digests(injections, 8)


# the order the runner applies phases in within a step
PHASE_ORDER = (Phase.LAYER, Phase.PRE_PA, Phase.PRE_DSA, Phase.POST_STEP)
CHAIN_STEPS = 4  # one pass over chain-base's requests


@cache
def fixture_injection(name: str):
    return load_shipped(name).injections[0][0]


@st.composite
def placements(draw) -> list[tuple[str, bool, tuple[int, int]]]:
    """2-4 fixture injections in drawn order, each (fixture, as a chain stage, (start, end))."""
    placed = []
    for name in draw(st.lists(st.sampled_from(FIXTURES), min_size=2, max_size=4)):
        start = draw(st.integers(0, CHAIN_STEPS - 1))
        placed.append((name, draw(st.booleans()), (start, draw(st.integers(start, CHAIN_STEPS - 1)))))
    return placed


class TestEffectOrder:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(placements())
    def test_effects_run_phase_by_phase_in_active_list_order(self, placed):
        # a scenario injection acts in its window, a chain stage from its
        # start step on; the active list holds the scenario's injections
        # first, then the stages, each in the order given
        windows = [(fixture_injection(name), window) for name, as_stage, window in placed if not as_stage]
        stages = [
            ChainStage(StageKind.INJECT, Trigger(at_step=start), fixture_injection(name), label=name)
            for name, as_stage, (start, _) in placed if as_stage
        ]
        config = dataclasses.replace(load_shipped("chain-base"), injections=tuple(windows))
        propagation, _ = run_chain(ChainSpec("order", tuple(stages), CHAIN_STEPS), config)
        for record in propagation.attacked.steps:
            g = record.global_step
            active = [inj for inj, (start, end) in windows if start <= g <= end]
            active += [stage.injection for stage in stages if stage.trigger.at_step <= g]
            phases = [injection_phase(inj) for inj in active]
            expected = [
                (inj.threat, inj.surface)
                for phase in PHASE_ORDER for inj, at in zip(active, phases) if at is phase
            ]
            assert [(e.threat, e.surface) for e in record.effects] == expected, g


GRANT_ROLES = (Role.PERSONAL_AGENT, Role.DRIVING_STRATEGY_AGENT)


@cache
def t3_injection(role: Role) -> ThreatInjection:
    return ThreatInjection(
        ThreatId.T3, Surface.INTER_AGENT_MSG,
        {"grant_role": role.value, "context_patch": {"speed_limit_kph": 55.0}},
    )


@st.composite
def t3_placements(draw) -> list[tuple[Role, bool, tuple[int, int]]]:
    """1-4 T3 injections, each (grant role, as a chain stage, (start, end)); windows often share a step."""
    placed = []
    for _ in range(draw(st.integers(1, 4))):
        role = draw(st.sampled_from(GRANT_ROLES))
        start = draw(st.integers(0, CHAIN_STEPS - 1))
        placed.append((role, draw(st.booleans()), (start, draw(st.integers(start, CHAIN_STEPS - 1)))))
    return placed


def expected_admission_digest(grants: set[Role]) -> str:
    """The digest of the default table with `grants` added to the context senders, written as the export writes it."""
    table = {
        authority.value: sorted(r.value for r in (roles | grants if authority is Authority.CONTEXT_ONLY else roles))
        for authority, roles in DEFAULT_ADMISSION.items()
    }
    return digest_of(table)


class TestAdmissionDigest:
    # static: a planted fault calls it too, and hypothesis wants one executor per test
    @staticmethod
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(t3_placements())
    def test_admission_digest_follows_every_t3_grant(placed):
        # a scenario injection grants in its window, a chain stage from its start step on
        windows = [(t3_injection(role), window) for role, as_stage, window in placed if not as_stage]
        stages = [
            ChainStage(StageKind.INJECT, Trigger(at_step=start), t3_injection(role), label=role.value)
            for role, as_stage, (start, _) in placed if as_stage
        ]
        config = dataclasses.replace(load_shipped("chain-base"), injections=tuple(windows))
        propagation, _ = run_chain(ChainSpec("admission", tuple(stages), CHAIN_STEPS), config)
        got = [r.admission_digest for r in propagation.attacked.steps]
        expected = []
        for g in range(CHAIN_STEPS):
            grants = {
                role for role, as_stage, (start, end) in placed if start <= g and (as_stage or g <= end)
            }
            expected.append(expected_admission_digest(grants))
        assert got == expected


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_injections_survive_pickle_and_deepcopy(name):
    # `args` is a derived field: copies and pickles must carry it, equal
    for inj, _ in load_shipped(name).injections:
        for copied in (pickle.loads(pickle.dumps(inj)), copy.deepcopy(inj)):
            assert copied == inj
            assert copied.args == inj.args
