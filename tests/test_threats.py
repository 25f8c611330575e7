"""Threat registry: legality map, injector effects, stealth, user model."""

import ast
import dataclasses
import inspect
import math
import textwrap

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agvsim.cavstack import Layer
from agvsim.domain import (
    FIELD_RANGES,
    Authority,
    ConfigError,
    ContextSummary,
    DEFAULT_ADMISSION,
    Hazard,
    MAX_SPEED_LIMIT_KPH,
    MIN_SPEED_KPH,
    RoadClass,
    Role,
    ThreatId,
    UserRequest,
    VehicleFeedback,
)
from agvsim.pipeline import AgentTuning, MemoryStore, SPEED_CAP_KEY
from agvsim.runner import run_episodes
from agvsim.scenario import load_shipped, parse_scenario, shipped_scenarios
from agvsim.threats import (
    THREATS,
    PipelineState,
    SimulatedUserState,
    Surface,
    ThreatInjection,
    ToolOutput,
    USER_ATTENTION_BUDGET,
    apply,
    apply_context_patch,
    confirm_urgency,
    delta_footprint,
    legal_surfaces,
    to_layer_perturbations,
)
from agvsim.trace import StepRecord
from test_payload_properties import KEY_VALUES, texts


# Malformed payloads: each used to load and then fail inside the episode loop,
# export NaN or Infinity, or pass an unknown key or a bool count unnoticed.
MALFORMED_PAYLOADS = [
    (ThreatId.T6, Surface.PA_INPUT, {"desired_speed_kph": -5}),
    (ThreatId.T6, Surface.PA_INPUT, {"desired_speed_kph": "fast"}),
    (ThreatId.T14, Surface.USER_CHANNEL, {"requests": [{"urgency_tag": "Foo", "destination": "x"}]}),
    (ThreatId.T11, Surface.TOOL_OUTPUT, {"config_field": "pa_routine_factor", "config_value": math.inf}),
    (ThreatId.T11, Surface.TOOL_OUTPUT, {"config_field": "pa_urgent_urgency", "config_value": 5}),
    (ThreatId.T3, Surface.INTER_AGENT_MSG, {
        "grant_role": "PersonalAgent",
        "context_patch": {"hazards_add": [{"kind": "debris", "distance_m": 30, "confidence": 5}]},
    }),
    (ThreatId.T12, Surface.INTER_AGENT_MSG, {
        "target": "external", "edits": [{"field": "speed_limit_kph", "op": "Set", "value": "abc"}],
    }),
    (ThreatId.T12, Surface.INTER_AGENT_MSG, {
        "target": "external",
        "edits": [{"field": "hazards", "op": "InjectRecord", "value": {"kind": "debris", "confidence": 0.9}}],
    }),
    (ThreatId.T1, Surface.PA_MEMORY, {"value_kph": math.inf}),
    (ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0, "junk": 1}),
    (ThreatId.T10, Surface.USER_CHANNEL, {"noise_queries": True}),
    (ThreatId.X_PERCEPTION, Surface.LAYER, {
        "transforms": [{"field": "speed_limit_kph", "op": "Set", "value": math.nan}],
    }),
    (ThreatId.X_CONTROL_FEEDBACK, Surface.LAYER, {
        "transforms": [{"field": "speed_kph", "op": "Set", "value": math.nan}],
    }),
    # a limit this small underflowed to a 0 kph target under the hazard slowdown
    (ThreatId.T3, Surface.INTER_AGENT_MSG, {
        "grant_role": "DrivingStrategyAgent",
        "context_patch": {
            "speed_limit_kph": 5e-324,
            "hazards_add": [{"kind": "debris", "distance_m": 30, "confidence": 0.9}],
        },
    }),
]


def summary(limit: float = 90.0) -> ContextSummary:
    return ContextSummary(speed_limit_kph=limit, road_class=RoadClass.HIGHWAY)


def make_state(urgency: str = "Routine") -> PipelineState:
    return PipelineState(
        memory=MemoryStore(),
        request=UserRequest(urgency_tag=urgency, destination="commute"),
        pa_context=summary(),
        dsa_context=summary(),
        feedback=VehicleFeedback(speed_kph=72.0),
        tool_output=ToolOutput(),
        user=SimulatedUserState(seed=1),
        tuning=AgentTuning(),
    )


def injection(threat: ThreatId, surface: Surface, payload: dict, persistent=False, layer=None) -> ThreatInjection:
    return ThreatInjection(threat=threat, surface=surface, payload=payload, persistent=persistent, layer=layer)


class TestLegalityMap:
    # per-threat legal surfaces; the registry rejects everything else at load
    EXPECTED = {
        ThreatId.T1: {Surface.PA_MEMORY},
        ThreatId.T2: {Surface.TOOL_OUTPUT},
        ThreatId.T3: {Surface.INTER_AGENT_MSG},
        ThreatId.T4: {Surface.PA_INPUT, Surface.LAYER},
        ThreatId.T5: {Surface.PA_INPUT},
        ThreatId.T6: {Surface.PA_INPUT},
        ThreatId.T7: {Surface.DSA_WEIGHTS},
        ThreatId.T8: {Surface.LOGS},
        ThreatId.T9: {Surface.IDENTITY_FIELD},
        ThreatId.T10: {Surface.USER_CHANNEL},
        ThreatId.T11: {Surface.TOOL_OUTPUT},
        ThreatId.T12: {Surface.INTER_AGENT_MSG},
        ThreatId.T13: {Surface.AGENT_POLICY},
        ThreatId.T14: {Surface.USER_CHANNEL},
        ThreatId.T15: {Surface.USER_CHANNEL},
        ThreatId.X_PERCEPTION: {Surface.LAYER},
        ThreatId.X_V2X: {Surface.LAYER},
        ThreatId.X_COMPUTE: {Surface.LAYER},
        ThreatId.X_CONTROL_FEEDBACK: {Surface.LAYER},
    }

    @pytest.mark.parametrize("threat", list(ThreatId))
    def test_legal_surfaces(self, threat):
        assert legal_surfaces(threat) == self.EXPECTED[threat]

    def test_illegal_pair_rejected_at_load(self):
        with pytest.raises(ValueError, match="may not target"):
            ThreatInjection(ThreatId.T1, Surface.TOOL_OUTPUT, {"value_kph": 45.0})

    def test_cross_layer_threat_layer_is_implied(self):
        inj = injection(
            ThreatId.X_V2X, Surface.LAYER,
            {"transforms": [{"field": "speed_limit_kph", "op": "Set", "value": 40.0}]},
        )
        assert to_layer_perturbations(inj)[0].layer is Layer.V2X

    def test_conflicting_layer_tag_rejected(self):
        with pytest.raises(ValueError, match="bound to layer"):
            ThreatInjection(
                ThreatId.X_V2X, Surface.LAYER,
                {"transforms": [{"field": "speed_limit_kph", "op": "Set", "value": 40.0}]},
                layer=Layer.PERCEPTION,
            )

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            ThreatInjection(ThreatId.T1, Surface.PA_MEMORY, {"value_kph": -5})
        with pytest.raises(ValueError):
            ThreatInjection(ThreatId.T7, Surface.DSA_WEIGHTS, {"speed_weight": 2.0})
        with pytest.raises(ValueError):
            ThreatInjection(ThreatId.T13, Surface.AGENT_POLICY, {"agent": "DSA", "policy": "nope"})
        with pytest.raises(ValueError):
            ThreatInjection(ThreatId.T12, Surface.INTER_AGENT_MSG, {"target": "external", "edits": [5]})
        for threat, surface, payload in MALFORMED_PAYLOADS:
            with pytest.raises(ValueError):
                ThreatInjection(threat, surface, payload)
        with pytest.raises(ValueError, match="ControlFeedback-layer field 'completeness'"):
            ThreatInjection(
                ThreatId.T4, Surface.LAYER, {"completeness_factor": 0.5}, layer=Layer.CONTROL_FEEDBACK,
            )

    def test_payload_is_parsed_once_per_injection(self):
        inj = injection(ThreatId.T14, Surface.USER_CHANNEL, {"requests": [
            {"urgency_tag": "Urgent", "destination": "a"},
            {"urgency_tag": "Routine", "destination": "b", "desired_speed_kph": 55},
        ]})
        requests = inj.args
        assert requests[-1] == UserRequest(urgency_tag="Routine", destination="b", desired_speed_kph=55)
        assert isinstance(requests[-1].desired_speed_kph, float)  # typed numbers are floats, as the world's
        for step in range(3):
            apply(inj, make_state(), step)
        assert inj.args is requests


def fixture_payload(threat: ThreatId) -> dict:
    """The payload of `threat` in its shipped `threat-*` fixture."""
    name = f"threat-{threat.value.lower()}" if threat.is_cross_layer else f"threat-t{int(threat.value[1:]):02d}"
    return next(inj.payload for inj, _ in load_shipped(name).injections if inj.threat is threat)


FIXTURE_PAYLOADS = {threat: fixture_payload(threat) for threat in ThreatId}
CHAIN_BASE = load_shipped("chain-base")


@st.composite
def placements(draw) -> tuple[ThreatId, Surface, Layer | None]:
    """A threat on any surface, drawn from its legal ones half the time, with any layer tag or none."""
    threat = draw(st.sampled_from(list(ThreatId)))
    legal = sorted(legal_surfaces(threat), key=lambda s: s.value)
    surface = draw(st.sampled_from(legal) | st.sampled_from(list(Surface)))
    return threat, surface, draw(st.sampled_from([None, *Layer]))


class TestBuiltInCode:
    """An injection built in Python is checked as a loaded one is, when it is built."""

    def test_an_illegal_surface_is_rejected_naming_the_legal_ones(self):
        with pytest.raises(ValueError, match=r"^T1 may not target surface ToolOutput; legal: \['PAMemory'\]$"):
            ThreatInjection(ThreatId.T1, Surface.TOOL_OUTPUT, {"value_kph": 45.0})

    def test_t1_on_the_layer_surface_is_rejected(self):
        # built, it would reach the layer functions, which read its parsed payload as transforms
        with pytest.raises(ValueError, match="^T1 may not target surface Layer"):
            ThreatInjection(ThreatId.T1, Surface.LAYER, {"value_kph": 45.0})

    def test_a_malformed_payload_is_a_config_error_naming_its_field(self):
        with pytest.raises(ConfigError, match=r"^T7 payload\.speed_weight: must be a finite number in \[0\.001, 1\]"):
            ThreatInjection(ThreatId.T7, Surface.DSA_WEIGHTS, {"speed_weight": 5})

    @given(placements())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_an_injection_is_rejected_when_built_or_runs(self, placement):
        threat, surface, layer = placement
        if surface not in legal_surfaces(threat):
            with pytest.raises(ValueError, match=f"may not target surface {surface.value}"):
                ThreatInjection(threat, surface, FIXTURE_PAYLOADS[threat], layer=layer)
            return
        try:
            inj = ThreatInjection(threat, surface, FIXTURE_PAYLOADS[threat], layer=layer)
        except ValueError:
            return  # a layer tag that does not fit the threat or the surface
        steps = CHAIN_BASE.steps_per_episode
        config = dataclasses.replace(CHAIN_BASE, injections=((inj, (0, steps - 1)),))
        trace = run_episodes(config, with_injections=True)
        assert [e.threat for record in trace.steps for e in record.effects] == [threat] * steps


class TestApplyEffects:
    def test_t1_memory_poisoning_inserts_cap_45(self):
        state = make_state()
        inj = injection(ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0})
        record = apply(inj, state, 0)
        assert not record.warning
        assert record.before_digest != record.after_digest
        assert state.memory.speed_caps() == [(SPEED_CAP_KEY, 45.0)]

    def test_t1_is_idempotent_within_a_store(self):
        state = make_state()
        inj = injection(ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0})
        apply(inj, state, 0)
        second = apply(inj, state, 1)
        assert second.before_digest == second.after_digest
        assert len(state.memory.entries) == 1

    def test_t4_multiplies_completeness(self):
        state = make_state()
        inj = injection(ThreatId.T4, Surface.PA_INPUT, {"completeness_factor": 0.5})
        apply(inj, state, 0)
        assert state.pa_context.completeness == 0.5

    def test_t6_rewrites_request(self):
        state = make_state(urgency="Urgent")
        inj = injection(ThreatId.T6, Surface.PA_INPUT, {"urgency_tag": "Routine", "destination": "mall"})
        apply(inj, state, 0)
        assert state.request.urgency_tag == "Routine"
        assert state.request.destination == "mall"

    def test_t9_spoofed_envelope_mismatch_flag(self):
        state = make_state()
        inj = injection(ThreatId.T9, Surface.IDENTITY_FIELD, {"claimed": "User", "target": "user"})
        apply(inj, state, 0)
        forged = state.envelopes[-1]
        assert forged.sender is Role.EXTERNAL
        assert forged.claimed_sender is Role.USER
        assert forged.spoofed

    def test_t9_context_patch_rides_on_forged_identity(self):
        state = make_state()
        inj = injection(
            ThreatId.T9, Surface.IDENTITY_FIELD,
            {"claimed": "CavStack", "target": "context", "context_patch": {"speed_limit_kph": 60.0}},
        )
        apply(inj, state, 0)
        env = state.envelopes[-1]
        assert env.authority is Authority.CONTEXT_ONLY
        assert env.payload == {"speed_limit_kph": 60.0}

    def test_t3_grants_context_authority(self):
        state = make_state()
        assert Role.PERSONAL_AGENT not in DEFAULT_ADMISSION[Authority.CONTEXT_ONLY]
        inj = injection(
            ThreatId.T3, Surface.INTER_AGENT_MSG,
            {"grant_role": "PersonalAgent", "context_patch": {"speed_limit_kph": 55.0}},
        )
        apply(inj, state, 0)
        assert Role.PERSONAL_AGENT in state.admission[Authority.CONTEXT_ONLY]
        assert Role.PERSONAL_AGENT not in DEFAULT_ADMISSION[Authority.CONTEXT_ONLY]  # a new table, not an edit
        assert not state.envelopes[-1].spoofed  # the identity is honest, the grant is wrong

    def test_t11_mutates_exactly_one_tuning_field(self):
        state = make_state()
        defaults = AgentTuning()
        inj = injection(
            ThreatId.T11, Surface.TOOL_OUTPUT,
            {"config_field": "dsa_hazard_confidence_min", "config_value": 2.0},
        )
        apply(inj, state, 0)
        assert state.tuning.dsa_hazard_confidence_min == 2.0
        for name in FIELD_RANGES[AgentTuning]:
            if name != "dsa_hazard_confidence_min":
                assert getattr(state.tuning, name) == getattr(defaults, name)

    def test_t12_external_target_without_envelope_warns(self):
        state = make_state()
        inj = injection(
            ThreatId.T12, Surface.INTER_AGENT_MSG,
            {"target": "external", "edits": [{"field": "closures", "op": "InjectRecord", "value": "R7"}]},
        )
        record = apply(inj, state, 0)
        assert record.warning

    def test_t12_context_target_edits_summary(self):
        state = make_state()
        inj = injection(
            ThreatId.T12, Surface.INTER_AGENT_MSG,
            {"target": "context", "edits": [{"field": "speed_limit_kph", "op": "Set", "value": 60.0}]},
        )
        apply(inj, state, 0)
        assert state.dsa_context.speed_limit_kph == 60.0

    def test_t13_swaps_policy(self):
        state = make_state()
        inj = injection(ThreatId.T13, Surface.AGENT_POLICY, {"agent": "DSA", "policy": "rogue-crawl"})
        apply(inj, state, 0)
        assert state.dsa_policy == "rogue-crawl"
        assert state.pa_policy == "default"

    @pytest.mark.parametrize("inj", [
        ThreatInjection(ThreatId.T4, Surface.LAYER, {"completeness_factor": 0.5}, layer=Layer.PERCEPTION),
        ThreatInjection(
            ThreatId.X_V2X, Surface.LAYER,
            {"transforms": [{"field": "speed_limit_kph", "op": "Set", "value": 30.0}]},
        ),
        ThreatInjection(
            ThreatId.X_CONTROL_FEEDBACK, Surface.LAYER,
            {"transforms": [{"field": "speed_kph", "op": "Add", "value": 10.0}]},
        ),
    ], ids=["T4", "XV2X", "XControlFeedback"])
    def test_layer_surface_injection_is_not_applied_to_a_state(self, inj):
        # Layer-surface injections act inside the layer functions, before fusion
        state = make_state()
        with pytest.raises(ValueError, match="layer functions"):
            apply(inj, state, 0)
        assert state.pa_context == summary() and state.feedback == VehicleFeedback(speed_kph=72.0)

    def test_determinism_of_effect_records(self):
        records = []
        for _ in range(2):
            state = make_state()
            inj = injection(ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0})
            records.append(apply(inj, state, 0))
        assert records[0] == records[1]


def reference_context_patch(summary: ContextSummary, patch: dict) -> ContextSummary:
    """The reference merge: a patch applied by rules of its own, one replace per patch key."""
    if "speed_limit_kph" in patch:
        summary = dataclasses.replace(summary, speed_limit_kph=float(patch["speed_limit_kph"]))
    if patch.get("closures_add"):
        merged = list(summary.closures)
        for c in patch["closures_add"]:
            if c not in merged:
                merged.append(c)
        summary = dataclasses.replace(summary, closures=tuple(merged))
    if patch.get("hazards_add"):
        hazards = list(summary.hazards)
        for h in patch["hazards_add"]:
            hazards.append(Hazard(h["kind"], float(h["distance_m"]), float(h["confidence"])))
        summary = dataclasses.replace(summary, hazards=tuple(hazards))
    return summary


# closures and hazard kinds from the patch strategy's texts, so a patch meets ones already there
contexts = st.builds(
    ContextSummary,
    speed_limit_kph=st.floats(MIN_SPEED_KPH, MAX_SPEED_LIMIT_KPH),
    road_class=st.sampled_from(list(RoadClass)),
    hazards=st.lists(st.builds(Hazard, texts, st.floats(0, 300), st.floats(0, 1)), max_size=2).map(tuple),
    closures=st.lists(texts, max_size=3, unique=True).map(tuple),
    traffic_density=st.floats(0, 1),
    completeness=st.floats(0, 1),
)
AT_R7_DEBRIS = ContextSummary(90.0, RoadClass.HIGHWAY, (Hazard("debris", 30.0, 0.9),), ("R7",))


# Every edit of a context summary goes through `apply_summary_transform`. These
# two are functions, not methods: the plants in `test_planted.py` call them too.


@given(contexts, KEY_VALUES["context_patch"])
@example(AT_R7_DEBRIS, {
    "speed_limit_kph": 60, "closures_add": ["R7", "R9", "R9"],
    "hazards_add": [{"kind": "debris", "distance_m": 30, "confidence": 0.9}],
})
@settings(max_examples=100, derandomize=True, deadline=None)
def test_a_patch_merges_as_the_reference_does(context, patch):
    try:  # the schema every patch passes before an envelope carries it
        inj = injection(ThreatId.T9, Surface.IDENTITY_FIELD, {"claimed": "CavStack", "context_patch": patch})
    except ConfigError:
        return
    checked = inj.args[2]
    assert apply_context_patch(context, checked) == reference_context_patch(context, checked)


@given(contexts, st.floats(0, 1, exclude_min=True, exclude_max=True))
@example(AT_R7_DEBRIS, 0.5)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_t4_on_pa_input_scales_completeness_alone(context, factor):
    state = make_state()
    state.pa_context = context
    apply(injection(ThreatId.T4, Surface.PA_INPUT, {"completeness_factor": factor}), state, 0)
    assert state.pa_context == dataclasses.replace(context, completeness=context.completeness * factor)


class TestSimulatedUser:
    def test_true_answer_within_budget(self):
        user = SimulatedUserState(seed=0)
        assert confirm_urgency(user, 0, "Urgent") == "Urgent"

    def test_noise_floods_degrade_to_default(self):
        user = SimulatedUserState(seed=0)
        assert confirm_urgency(user, USER_ATTENTION_BUDGET, "Urgent") == "Routine"

    def test_noise_below_budget_is_harmless(self):
        user = SimulatedUserState(seed=0)
        assert confirm_urgency(user, 2, "Urgent") == "Urgent"

    @pytest.mark.parametrize("n", [5, 10**9])
    def test_noise_flood_is_counted_not_looped(self, n):
        user = SimulatedUserState(seed=0)
        assert confirm_urgency(user, n, "Urgent") == "Routine"
        # the runner records the flood and the real question, one step at a time
        doc = yaml.safe_load(shipped_scenarios()["threat-t10"].read_text())
        doc["injections"][0].update(window=[0, 1], payload={"noise_queries": n})
        trace = run_episodes(parse_scenario(doc, "flood"), with_injections=True)
        assert [r.user_queries for r in trace.steps] == [n + 1, n + 1, 1]

    def test_framing_bias_full_weight_always_adopts(self):
        user = SimulatedUserState(seed=0, framing_bias=1.0, framing_answer="Routine")
        assert confirm_urgency(user, 0, "Urgent") == "Routine"

    def test_framing_bias_is_seed_deterministic(self):
        answers_a = []
        answers_b = []
        for answers in (answers_a, answers_b):
            user = SimulatedUserState(seed=99, framing_bias=0.5, framing_answer="Routine")
            for _ in range(20):
                answers.append(confirm_urgency(user, 0, "Urgent"))
        assert answers_a == answers_b
        assert set(answers_a) == {"Routine", "Urgent"}  # the draw actually varies


class TestFootprints:
    def test_every_threat_has_a_footprint(self):
        samples = {
            ThreatId.T1: injection(ThreatId.T1, Surface.PA_MEMORY, {"value_kph": 45.0}),
            ThreatId.T9: injection(ThreatId.T9, Surface.IDENTITY_FIELD, {"claimed": "CavStack", "target": "context"}),
            ThreatId.X_V2X: injection(
                ThreatId.X_V2X, Surface.LAYER,
                {"transforms": [{"field": "speed_limit_kph", "op": "Set", "value": 40.0}]},
            ),
        }
        for inj in samples.values():
            assert delta_footprint(inj)

    def test_neutral_t9_footprint_excludes_behavior(self):
        neutral = injection(ThreatId.T9, Surface.IDENTITY_FIELD, {"claimed": "CavStack", "target": "context"})
        assert "approved" not in delta_footprint(neutral)
        loaded = injection(
            ThreatId.T9, Surface.IDENTITY_FIELD,
            {"claimed": "CavStack", "target": "context", "context_patch": {"speed_limit_kph": 60.0}},
        )
        assert "approved" in delta_footprint(loaded)

    def test_every_footprint_name_is_a_step_record_field(self):
        # chain attribution reads these names: a renamed field would drop out of it silently
        names = {f.name for f in dataclasses.fields(StepRecord)} | {"envelope_count"}
        loaded = {"claimed": "CavStack", "target": "context", "context_patch": {"speed_limit_kph": 60.0}}
        extras = [
            injection(ThreatId.T4, Surface.PA_INPUT, {"completeness_factor": 0.5}),
            injection(ThreatId.T4, Surface.LAYER, {"completeness_factor": 0.5}, layer=Layer.PERCEPTION),
            injection(ThreatId.T9, Surface.IDENTITY_FIELD, {"claimed": "CavStack", "target": "context"}),
            injection(ThreatId.T9, Surface.IDENTITY_FIELD, loaded),
        ]
        assert {inj.threat for inj in extras} == {t for t, spec in THREATS.items() if spec.footprint_extra}
        for threat, spec in THREATS.items():
            assert set(spec.footprint) <= names, threat
        for inj in extras:
            assert set(THREATS[inj.threat].footprint_extra(inj)) <= names, inj

    def test_persistent_is_set_exactly_where_the_injector_reads_it(self):
        def reads_persistent(act) -> bool:
            tree = ast.parse(textwrap.dedent(inspect.getsource(act)))
            inj = tree.body[0].args.args[0].arg
            return any(
                isinstance(node, ast.Attribute) and node.attr == "persistent"
                and isinstance(node.value, ast.Name) and node.value.id == inj
                for node in ast.walk(tree)
            )

        readers = {t for t, spec in THREATS.items() if spec.act is not None and reads_persistent(spec.act)}
        assert readers == {t for t, spec in THREATS.items() if spec.persistent}
        assert readers  # a walk that found nothing would match a table with no readers
