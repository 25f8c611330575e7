"""PA / DSA / SC behavior: policy rules, verdicts, and composition."""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agvsim.pipeline
from agvsim.domain import ContextSummary, Hazard, RoadClass, Role, UserRequest, VehicleFeedback
from agvsim.pipeline import (
    ACCEL_WINDOW_S,
    KPH_PER_MPS,
    Decision,
    MemoryEntry,
    MemoryKind,
    MemoryStore,
    Rulebook,
    SPEED_CAP_KEY,
    SafetyVerdict,
    StrategyProposal,
    dsa_propose,
    pa_interpret,
    sc_validate,
    sc_violations,
    validate_with_revision,
)
from agvsim.runner import run_episodes
from agvsim.scenario import parse_scenario


def ctx(limit: float, hazards=(), density: float = 0.0) -> ContextSummary:
    return ContextSummary(
        speed_limit_kph=limit,
        road_class=RoadClass.HIGHWAY,
        hazards=tuple(hazards),
        traffic_density=density,
    )


def fb(speed: float = 72.0, braking: float = 0.0) -> VehicleFeedback:
    return VehicleFeedback(speed_kph=speed, braking=braking)


def cap_entry(value: float, step: int = 0) -> MemoryEntry:
    return MemoryEntry(SPEED_CAP_KEY, MemoryKind.CONSTRAINT, value, Role.EXTERNAL, step)


class TestPersonalAgent:
    def test_routine_uses_ninety_percent_of_limit(self):
        intent = pa_interpret(UserRequest("Routine", "office"), MemoryStore(), ctx(100.0))
        assert intent.desired_speed_kph == 90
        assert intent.active_caps_kph == ()

    def test_urgent_with_memory_cap(self):
        memory = MemoryStore((cap_entry(45.0),))
        intent = pa_interpret(UserRequest("Urgent", "hospital"), memory, ctx(80.0))
        assert intent.desired_speed_kph == 80.0
        assert intent.active_caps_kph == (45.0,)
        assert intent.urgency == 1.0

    def test_two_caps_effective_minimum(self):
        memory = MemoryStore().adopt(cap_entry(45.0)).adopt(cap_entry(60.0, step=1))
        intent = pa_interpret(UserRequest("Routine", "office"), memory, ctx(50.0))
        assert intent.active_caps_kph == (45.0, 60.0)
        assert intent.effective_cap == 45.0

    def test_explicit_request_speed_wins(self):
        intent = pa_interpret(
            UserRequest("Routine", "office", desired_speed_kph=64.0), MemoryStore(), ctx(100.0)
        )
        assert intent.desired_speed_kph == 64.0

    def test_rounding_is_half_up(self):
        # 0.9 * 89 = 80.1 -> 80; 0.9 * 55 = 49.5 -> 50
        assert pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(89.0)).desired_speed_kph == 80
        assert pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(55.0)).desired_speed_kph == 50

    def test_degenerate_limit_keeps_desired_positive(self):
        intent = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(0.3))
        assert intent.desired_speed_kph > 0

    def test_urgency_and_comfort_are_complementary(self):
        routine = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(90.0))
        urgent = pa_interpret(UserRequest("Urgent", "x"), MemoryStore(), ctx(90.0))
        assert routine.urgency == 0.4 and routine.comfort_weight == 0.6
        assert urgent.urgency == 1.0 and urgent.comfort_weight == 0.0

    def test_intent_has_no_maneuver_fields(self):
        intent = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(90.0))
        fields = set(intent.__dataclass_fields__)
        assert not fields & {"lane_change_intent", "accel_mps2", "target_speed_kph", "headway_s"}


class TestDrivingStrategyAgent:
    def test_equal_min_values(self):
        intent = pa_interpret(UserRequest("Routine", "x", desired_speed_kph=90.0), MemoryStore(), ctx(90.0))
        proposal = dsa_propose(intent, ctx(90.0), fb())
        assert proposal.target_speed_kph == 90.0

    def test_memory_cap_binds(self):
        memory = MemoryStore((cap_entry(45.0),))
        intent = pa_interpret(UserRequest("Urgent", "x"), memory, ctx(80.0))
        proposal = dsa_propose(intent, ctx(80.0), fb())
        assert proposal.target_speed_kph == 45.0
        assert ("intent.effective_cap", "target-min") in proposal.justification

    def test_spoofed_limit_binds(self):
        intent = pa_interpret(UserRequest("Routine", "x", desired_speed_kph=90.0), MemoryStore(), ctx(90.0))
        proposal = dsa_propose(intent, ctx(40.0), fb())
        assert proposal.target_speed_kph == 40.0
        assert ("context.speed_limit_kph", "target-min") in proposal.justification

    def test_credible_near_hazard_halves_target(self):
        hazard = Hazard(kind="debris", distance_m=50.0, confidence=0.9)
        intent = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(90.0))
        proposal = dsa_propose(intent, ctx(90.0, hazards=[hazard]), fb())
        assert proposal.target_speed_kph == 81 * 0.5
        assert ("context.hazards", "hazard-slowdown") in proposal.justification

    def test_distant_or_uncertain_hazards_ignored(self):
        far = Hazard(kind="debris", distance_m=150.0, confidence=0.9)
        vague = Hazard(kind="debris", distance_m=50.0, confidence=0.4)
        intent = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(90.0))
        assert dsa_propose(intent, ctx(90.0, hazards=[far]), fb()).target_speed_kph == 81
        assert dsa_propose(intent, ctx(90.0, hazards=[vague]), fb()).target_speed_kph == 81

    def test_reported_heavy_braking_degrades_profile(self):
        intent = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(90.0))
        proposal = dsa_propose(intent, ctx(90.0), fb(braking=1.0))
        assert proposal.target_speed_kph == 81 * 0.5
        assert ("feedback.braking", "degraded-profile") in proposal.justification

    def test_headway_grows_with_density(self):
        intent = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(90.0))
        assert dsa_propose(intent, ctx(90.0, density=0.0), fb()).headway_s == 1.0
        assert dsa_propose(intent, ctx(90.0, density=0.6), fb()).headway_s == 1.6

    def test_closure_changes_route_preference(self):
        intent = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(90.0))
        summary = ContextSummary(
            speed_limit_kph=90.0, road_class=RoadClass.HIGHWAY, closures=("R7",)
        )
        proposal = dsa_propose(intent, summary, fb())
        assert proposal.route_pref == "detour-around-R7"

    def test_justification_never_empty(self):
        intent = pa_interpret(UserRequest("Routine", "x"), MemoryStore(), ctx(90.0))
        assert dsa_propose(intent, ctx(90.0), fb()).justification


def proposal(target: float, headway: float = 1.5) -> StrategyProposal:
    return StrategyProposal(
        target_speed_kph=target,
        headway_s=headway,
        justification=(("intent.desired_speed_kph", "target-min"),),
    )


def test_a_proposal_out_of_bounds_is_rejected():
    with pytest.raises(ValueError, match="target speed"):
        proposal(0.0)
    with pytest.raises(ValueError, match="headway"):
        proposal(45.0, headway=0.4)
    with pytest.raises(ValueError, match="justification"):
        StrategyProposal(target_speed_kph=45.0, headway_s=1.5)


class TestSafetyCheck:
    def test_all_bounds_satisfied_approves(self):
        verdict = sc_validate(proposal(45.0), fb(40.0), Rulebook(), 80.0)
        assert verdict.decision is Decision.APPROVE
        assert verdict.reason == ""

    def test_abs_max_violation_revises(self):
        verdict = sc_validate(proposal(150.0), fb(), Rulebook(), 200.0)
        assert verdict.decision is Decision.REVISE
        assert verdict.reason == "abs_max"

    def test_second_submission_substitutes_clamp(self):
        verdict = sc_validate(proposal(150.0), fb(), Rulebook(), 200.0, revision_count=1)
        assert verdict.decision is Decision.SUBSTITUTE
        assert verdict.substitute.target_speed_kph == 130.0

    def test_claimed_context_limit_is_the_only_limit_checked(self):
        # the SC never cross-checks the claimed limit against ground truth
        verdict = sc_validate(proposal(39.0), fb(40.0), Rulebook(), 40.0)
        assert verdict.decision is Decision.APPROVE

    def test_violation_order_reports_first(self):
        rules = Rulebook()
        low_headway = StrategyProposal(
            target_speed_kph=150.0, headway_s=0.5,
            justification=(("intent.desired_speed_kph", "target-min"),),
        )
        assert sc_validate(low_headway, fb(), rules, 10.0).reason == "abs_max"

    def test_accel_window_bound(self):
        rules = Rulebook()
        max_jump = rules.max_accel_mps2 * ACCEL_WINDOW_S * KPH_PER_MPS  # 108 kph
        ok = sc_validate(proposal(10.0 + max_jump), fb(10.0), rules, 200.0)
        assert ok.decision is Decision.APPROVE
        too_fast = sc_validate(proposal(10.0 + max_jump + 1), fb(10.0), rules, 200.0)
        assert too_fast.decision is Decision.REVISE
        assert too_fast.reason == "max_accel"

    def test_statelessness_identical_inputs_identical_verdicts(self):
        args = (proposal(150.0), fb(), Rulebook(), 90.0)
        first = sc_validate(*args)
        for _ in range(5):
            assert sc_validate(*args) == first
        # the revise->substitute rule is keyed to an explicit input
        assert sc_validate(*args, revision_count=1).decision is Decision.SUBSTITUTE
        assert sc_validate(*args).decision is Decision.REVISE

    def test_verdict_invariants_enforced(self):
        with pytest.raises(ValueError):
            SafetyVerdict(decision=Decision.APPROVE, reason="abs_max")
        with pytest.raises(ValueError):
            SafetyVerdict(decision=Decision.SUBSTITUTE, reason="abs_max", substitute=None)

    def test_soundness_over_random_proposals(self):
        # seeded bulk check; the full 10^4 run lives in the acceptance suite
        rng = random.Random(4242)
        rules = Rulebook()
        for _ in range(2000):
            p = StrategyProposal(
                target_speed_kph=rng.uniform(0.5, 250.0),
                headway_s=rng.uniform(0.5, 4.0),
                justification=(("intent.desired_speed_kph", "target-min"),),
            )
            feedback = fb(rng.uniform(0.0, 200.0))
            claimed = rng.uniform(0.5, 200.0)
            verdict = sc_validate(p, feedback, rules, claimed, revision_count=rng.randint(0, 1))
            if verdict.decision is Decision.APPROVE:
                assert not sc_violations(p, feedback, rules, claimed)
            elif verdict.decision is Decision.SUBSTITUTE:
                assert not sc_violations(verdict.substitute, feedback, rules, claimed)


def scenario(limit: float, speed: float = 72.0, requests=(("Routine", None),), injections=(), hazards=()):
    """An in-memory scenario: one world, one step per (urgency, desired speed) request."""
    return parse_scenario({
        "id": "composition",
        "mode": "Autonomous",
        "agency": 4,
        "seed": 0,
        "world": {
            "speed_limit_kph": limit, "road_class": "Highway", "vehicle_speed_kph": speed,
            "hazards": list(hazards),
        },
        "requests": [
            {"urgency_tag": tag, "destination": "x", "desired_speed_kph": desired}
            for tag, desired in requests
        ],
        "injections": list(injections),
    })


def cap_injection(value: float) -> dict:
    return {"threat": "T1", "surface": "PAMemory", "payload": {"value_kph": value}}


def first_step(config, with_injections: bool = True):
    return run_episodes(config, with_injections).steps[0]


@st.composite
def worlds_and_requests(draw):
    """A world whose binding limit (claimed or absolute) is reachable from the
    vehicle's speed within one acceleration window, else no compliant proposal
    exists and the step raises PipelineError; plus 1-4 requests."""
    limit = draw(st.floats(min_value=0.1, max_value=200.0))
    reachable = min(limit, Rulebook().abs_max_speed_kph) + 100.0
    speed = draw(st.floats(min_value=0.0, max_value=reachable))
    hazards = draw(st.lists(st.builds(
        dict,
        kind=st.sampled_from(["debris", "stalled-vehicle"]),
        distance_m=st.floats(min_value=0.0, max_value=300.0),
        confidence=st.floats(min_value=0.0, max_value=1.0),
    ), max_size=2))
    requests = draw(st.lists(st.tuples(
        st.sampled_from(["Routine", "Urgent"]),
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=240.0)),
    ), min_size=1, max_size=4))
    return scenario(limit, speed, requests, hazards=hazards)


class TestPipelineComposition:
    """The PA -> DSA -> SC step as `run_episodes` composes it."""

    def test_clean_routine_limit_90(self):
        step = first_step(scenario(90.0))
        assert step.approved.target_speed_kph == 81
        assert step.verdicts[-1].decision is Decision.APPROVE

    def test_cap_45_urgent_limit_80(self):
        step = first_step(scenario(80.0, requests=[("Urgent", None)], injections=[cap_injection(45.0)]))
        assert step.approved.target_speed_kph == 45.0

    def test_degenerate_limit_floor_respected(self):
        step = first_step(scenario(0.1, speed=0.0, requests=[("Urgent", None)]))
        assert step.approved.target_speed_kph == 0.1

    def test_revision_loop_terminates_with_compliant_approval(self):
        rules = Rulebook()
        submissions, verdicts, approved = validate_with_revision(
            proposal(150.0), fb(), rules, 90.0
        )
        assert [v.decision for v in verdicts][0] is Decision.REVISE
        assert not sc_violations(approved, fb(), rules, 90.0)
        assert len(submissions) == 2

    @pytest.mark.parametrize(
        "target,headway,speed,limit,decisions,reasons,approved",
        [
            # the resubmission fixes the headway alone
            (60.0, 0.6, 60.0, 90.0, ("Revise", "Approve"), ("min_headway", ""), (60.0, 1.0)),
            # the resubmission fixes the speed, then the substitute fixes the headway
            (150.0, 0.6, 130.0, 200.0, ("Revise", "Substitute"), ("abs_max", "min_headway"), (130.0, 1.0)),
            # the resubmission pulls the target down to the claimed limit itself
            (100.0, 1.0, 100.0, 90.0, ("Revise", "Approve"), ("context_limit", ""), (90.0, 1.0)),
        ],
        ids=["headway", "speed-then-headway", "context-limit"],
    )
    def test_each_revision_path_approves_what_its_rules_allow(
        self, target, headway, speed, limit, decisions, reasons, approved
    ):
        _, verdicts, result = validate_with_revision(proposal(target, headway), fb(speed), Rulebook(), limit)
        assert tuple(v.decision.value for v in verdicts) == decisions
        assert tuple(v.reason for v in verdicts) == reasons
        assert (result.target_speed_kph, result.headway_s) == approved

    @given(config=worlds_and_requests())
    @settings(max_examples=150, deadline=None)
    def test_approved_always_passes_all_rules(self, config):
        rules = Rulebook()
        for step in run_episodes(config, False).steps:
            assert sc_violations(step.approved, step.feedback, rules, step.dsa_context.speed_limit_kph) == []

    @given(cap=st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_adding_a_cap_never_increases_approved_target(self, cap):
        config = scenario(90.0, injections=[cap_injection(cap)])
        base = first_step(config, with_injections=False)
        capped = first_step(config, with_injections=True)
        assert capped.approved.target_speed_kph <= base.approved.target_speed_kph

    def test_determinism(self):
        config = scenario(88.0, speed=70.0, requests=[("Urgent", None)], injections=[cap_injection(60.0)])
        assert run_episodes(config, True) == run_episodes(config, True)


class TestMemoryStore:
    def test_append_only_ordering(self):
        empty = MemoryStore()
        first = empty.adopt(cap_entry(45.0))
        memory = first.adopt(cap_entry(60.0, step=1))
        assert [e.value for e in memory.entries] == [45.0, 60.0]
        assert (empty.entries, [e.value for e in first.entries]) == ((), [45.0])

    def test_carry_over_keeps_only_persistent(self):
        memory = MemoryStore((
            cap_entry(45.0),
            MemoryEntry(SPEED_CAP_KEY, MemoryKind.CONSTRAINT, 30.0, Role.EXTERNAL, 0, persistent=True),
        ))
        carried = memory.carry_over()
        assert [e.value for e in carried.entries] == [30.0]
        assert len(memory.entries) == 2

    def test_non_cap_entries_not_treated_as_caps(self):
        memory = MemoryStore().adopt(MemoryEntry("preferred_music", MemoryKind.PREFERENCE, "jazz", Role.USER, 0))
        assert memory.speed_caps() == []

    def test_adopt_skips_same_key_value_and_origin(self):
        memory = MemoryStore().adopt(cap_entry(45.0))
        assert memory.adopt(cap_entry(45.0, step=3)) is memory
        for entry in (MemoryEntry(SPEED_CAP_KEY, MemoryKind.CONSTRAINT, 45.0, Role.PERSONAL_AGENT, 3), cap_entry(60.0)):
            adopted = memory.adopt(entry)
            assert adopted is not memory
            memory = adopted
        assert [(e.value, e.origin) for e in memory.entries] == [
            (45.0, Role.EXTERNAL), (45.0, Role.PERSONAL_AGENT), (60.0, Role.EXTERNAL),
        ]

    def test_digest_tracks_content(self):
        a, b = MemoryStore(), MemoryStore()
        assert a.digest() == b.digest()
        c = a.adopt(cap_entry(45.0))
        assert c.digest() != b.digest()
        assert a.digest() == b.digest()

    def test_a_store_is_frozen(self):
        memory = MemoryStore((cap_entry(45.0),))
        for name in ("entries", "_digest", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(memory, name, ())
            with pytest.raises(FrozenInstanceError):
                delattr(memory, name)
        assert memory.entries == (cap_entry(45.0),)

    def test_stores_with_equal_entries_are_equal(self):
        digested = MemoryStore().adopt(cap_entry(45.0))
        digested.digest()
        fresh = MemoryStore((cap_entry(45.0),))
        assert digested == fresh and hash(digested) == hash(fresh)
        assert digested != MemoryStore((cap_entry(45.0, step=1),)) and digested != MemoryStore()
        assert "_digest" not in repr(digested)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_a_copy_keeps_the_cached_digest(self, clone, monkeypatch):
        memory = MemoryStore((cap_entry(45.0), cap_entry(60.0, step=1)))
        digest = memory.digest()
        copied = clone(memory)
        assert copied == memory and copied.entries == memory.entries
        monkeypatch.setattr(agvsim.pipeline, "digest_of", None)  # a copy that digested again would raise
        assert copied.digest() == digest
