"""Domain vocabulary: envelopes, agency buckets, admission rules and field ranges."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agvsim.cavstack import WorldTruth
from agvsim.domain import (
    DEFAULT_ADMISSION,
    FIELD_RANGES,
    AgencyBucket,
    Authority,
    ConfigError,
    ContextSummary,
    Hazard,
    MessageEnvelope,
    Role,
    ThreatId,
    UserRequest,
    VehicleFeedback,
    RoadClass,
    admitted,
    agency_bucket,
    make_envelope,
)
from agvsim.pipeline import AgentTuning, IntentDescriptor
from agvsim.scenario import parse_scenario
import test_scenario
from test_scenario import DOC, HAZARD_POSITIONS, REQUEST_POSITIONS, _inject


class TestAgencyLevels:
    @pytest.mark.parametrize("level", [-1, 6, 42, True, 2.0, "3"])
    def test_out_of_range_rejected(self, level):
        with pytest.raises(ValueError, match="agency level must be"):
            agency_bucket(level)

    @pytest.mark.parametrize(
        "level,bucket",
        [
            (0, AgencyBucket.LOW), (1, AgencyBucket.LOW),
            (2, AgencyBucket.MEDIUM), (3, AgencyBucket.MEDIUM),
            (4, AgencyBucket.HIGH), (5, AgencyBucket.HIGH),
        ],
    )
    def test_bucket_mapping(self, level, bucket):
        assert agency_bucket(level) is bucket

    @given(st.integers(min_value=0, max_value=4))
    def test_bucket_monotone_nondecreasing(self, level):
        order = list(AgencyBucket)
        assert order.index(agency_bucket(level + 1)) >= order.index(agency_bucket(level))


class TestEnvelopes:
    def test_construction_identity(self):
        env = make_envelope(Role.PERSONAL_AGENT, Authority.INTENT_ONLY, {"goal": "commute"}, 0)
        assert env.claimed_sender is Role.PERSONAL_AGENT
        assert env.provenance == ((Role.PERSONAL_AGENT, 0),)
        assert not env.spoofed

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            make_envelope(Role.USER, Authority.INTENT_ONLY, None, -1)

    def test_empty_provenance_rejected(self):
        with pytest.raises(ValueError, match="provenance"):
            MessageEnvelope(Role.USER, Role.USER, Authority.INTENT_ONLY, None, (), 0)

    def test_safety_check_cannot_send_intent(self):
        # authority mismatch is refused at pipeline admission
        env = make_envelope(Role.SAFETY_CHECK, Authority.INTENT_ONLY, None, 0)
        assert not admitted(env, DEFAULT_ADMISSION)

    def test_verdict_authority_limited_to_safety_check(self):
        for role in Role:
            env = make_envelope(role, Authority.VERDICT_ONLY, None, 0)
            assert admitted(env, DEFAULT_ADMISSION) == (role is Role.SAFETY_CHECK)

    def test_spoofing_is_claimed_vs_actual_mismatch(self):
        env = make_envelope(Role.EXTERNAL, Authority.CONTEXT_ONLY, {}, 0)
        assert not env.spoofed and not admitted(env, DEFAULT_ADMISSION)
        import dataclasses

        forged = dataclasses.replace(env, claimed_sender=Role.CAV_STACK)
        assert forged.spoofed and admitted(forged, DEFAULT_ADMISSION)


class TestThreatIds:
    def test_fifteen_agentic_plus_four_cross_layer(self):
        agentic = [t for t in ThreatId if not t.is_cross_layer]
        cross = [t for t in ThreatId if t.is_cross_layer]
        assert len(agentic) == 15
        assert len(cross) == 4


class TestValueTypes:
    def test_context_summary_bounds(self):
        with pytest.raises(ValueError):
            ContextSummary(speed_limit_kph=0.0, road_class=RoadClass.URBAN)
        with pytest.raises(ValueError):
            ContextSummary(speed_limit_kph=250.0, road_class=RoadClass.URBAN)
        with pytest.raises(ValueError):
            ContextSummary(speed_limit_kph=50.0, road_class=RoadClass.URBAN, completeness=1.5)

    def test_hazard_confidence_bounds(self):
        with pytest.raises(ValueError):
            Hazard(kind="debris", distance_m=10.0, confidence=1.2)

    def test_feedback_bounds(self):
        with pytest.raises(ValueError):
            VehicleFeedback(speed_kph=-1.0)
        with pytest.raises(ValueError):
            VehicleFeedback(speed_kph=10.0, braking=2.0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            UserRequest(urgency_tag="Casual", destination="x")
        with pytest.raises(ValueError):
            UserRequest(urgency_tag="Routine", destination="x", desired_speed_kph=0.0)

    def test_values_are_immutable(self):
        summary = ContextSummary(speed_limit_kph=90.0, road_class=RoadClass.HIGHWAY)
        with pytest.raises(AttributeError):
            summary.speed_limit_kph = 40.0  # type: ignore[misc]


# one record of each ranged kind, every field inside its range
SAMPLES = {
    ContextSummary: ContextSummary(90.0, RoadClass.URBAN),
    VehicleFeedback: VehicleFeedback(50.0),
    Hazard: Hazard("debris", 30.0, 0.9),
    UserRequest: UserRequest("Routine", "office", 50.0),
    WorldTruth: WorldTruth(90.0, RoadClass.URBAN, 50.0),
    IntentDescriptor: IntentDescriptor(50.0, 0.4, 0.6, "office"),
    AgentTuning: AgentTuning(),
}
TABLE_FIELDS = [(kind, name) for kind, ranges in FIELD_RANGES.items() for name in ranges]


def _world(**edit) -> dict:
    return {"world": {**DOC["world"], **edit}}


def _placed(positions: dict, record: dict, name: str) -> list:
    """A writer for each place a document writes `record`, that sets its field `name` to the value."""
    return [lambda v, place=place: place({**record, name: v})[0] for place in positions.values()]


# each place a document writes a table field: (record, field) -> the document edits that write the value
WRITERS = {
    (ContextSummary, "speed_limit_kph"): [
        lambda v: _world(speed_limit_kph=v),
        lambda v: _inject("T5", "PAInput", {"context_patch": {"speed_limit_kph": v}}),
        lambda v: _inject("T12", "InterAgentMsg", {
            "target": "external", "edits": [{"field": "speed_limit_kph", "op": "Set", "value": v}],
        }),
    ],
    (Hazard, "distance_m"): _placed(HAZARD_POSITIONS, test_scenario.TestOneRule.HAZARD, "distance_m"),
    (Hazard, "confidence"): _placed(HAZARD_POSITIONS, test_scenario.TestOneRule.HAZARD, "confidence"),
    (UserRequest, "desired_speed_kph"): [
        *_placed(REQUEST_POSITIONS, test_scenario.TestOneRule.REQUEST, "desired_speed_kph"),
        lambda v: _inject("T1", "PAMemory", {"value_kph": v}),
    ],
    (WorldTruth, "true_speed_limit_kph"): [lambda v: _world(speed_limit_kph=v)],
    (WorldTruth, "vehicle_true_speed_kph"): [lambda v: _world(vehicle_speed_kph=v)],
    **{
        (AgentTuning, knob): [
            lambda v, knob=knob: _inject("T11", "ToolOutput", {"config_field": knob, "config_value": v}),
        ]
        for knob in FIELD_RANGES[AgentTuning]
    },
}


def _load(edit: dict):
    return parse_scenario({**DOC, **edit}, "<test>")


class TestFieldRanges:
    """A ranged field obeys its one `FIELD_RANGES` range in a record built in Python and in every document."""

    @pytest.mark.parametrize("side", ["lo", "hi"])
    @pytest.mark.parametrize("kind,name", TABLE_FIELDS, ids=[f"{k.__name__}.{n}" for k, n in TABLE_FIELDS])
    def test_a_bound_is_legal_and_the_next_float_outside_it_is_not(self, kind, name, side):
        lo, hi = FIELD_RANGES[kind][name]
        bound = lo if side == "lo" else hi
        outside = math.nextafter(bound, -math.inf if side == "lo" else math.inf)
        assert getattr(dataclasses.replace(SAMPLES[kind], **{name: bound}), name) == bound
        if outside != bound:  # no float lies past infinity
            with pytest.raises(ValueError, match=rf"^{kind.__name__}\.{name} must be in "):
                dataclasses.replace(SAMPLES[kind], **{name: outside})
        for write in WRITERS.get((kind, name), ()):
            if bound == math.inf:  # a hazard may lie infinitely far, but a document writes finite numbers
                with pytest.raises(ConfigError, match="must be a finite number"):
                    _load(write(bound))
            elif side == "hi" and name == "vehicle_true_speed_kph":
                # the world's vehicle speed has a tighter rule of its own: a reachable compliant speed
                with pytest.raises(ConfigError, match="no rule-compliant speed is reachable"):
                    _load(write(bound))
            else:
                _load(write(bound))
            if outside != bound:
                with pytest.raises(ConfigError, match="must be a finite number"):
                    _load(write(outside))

    def test_a_record_built_in_python_obeys_the_range_its_file_form_does(self):
        with pytest.raises(ValueError, match=r"^ContextSummary\.speed_limit_kph must be in \[0\.1, 200\]"):
            ContextSummary(0.05, RoadClass.URBAN)
        with pytest.raises(ConfigError, match=r"world\.speed_limit_kph: must be a finite number in \[0\.1, 200\]"):
            _load(_world(speed_limit_kph=0.05))
        with pytest.raises(ValueError, match=r"^UserRequest\.desired_speed_kph must be in \[0\.1, "):
            UserRequest("Routine", "x", 0.05)
        with pytest.raises(ValueError, match=r"^VehicleFeedback\.speed_kph must be in \[0, "):
            VehicleFeedback(speed_kph=math.inf, accel_mps2=math.nan)
        with pytest.raises(ValueError, match=r"^VehicleFeedback\.accel_mps2 must be in "):
            VehicleFeedback(speed_kph=10.0, accel_mps2=math.nan)
        # a knob has its range in Python too: an infinite factor used to build, and overflow in `pa_interpret`
        with pytest.raises(ValueError, match=r"^AgentTuning\.pa_routine_factor must be in \[0\.001, 1000\], got inf"):
            AgentTuning(pa_routine_factor=math.inf)
        with pytest.raises(ConfigError, match=r"config_value: must be a finite number in \[0\.001, 1000\], got inf"):
            _load(_inject("T11", "ToolOutput", {"config_field": "pa_routine_factor", "config_value": math.inf}))
