"""Domain vocabulary: envelopes, agency buckets, and admission rules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agvsim.domain import (
    AgencyBucket,
    Authority,
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
        assert not admitted(env)

    def test_verdict_authority_limited_to_safety_check(self):
        for role in Role:
            env = make_envelope(role, Authority.VERDICT_ONLY, None, 0)
            assert admitted(env) == (role is Role.SAFETY_CHECK)

    def test_spoofing_is_claimed_vs_actual_mismatch(self):
        env = make_envelope(Role.EXTERNAL, Authority.CONTEXT_ONLY, {}, 0)
        assert not env.spoofed and not admitted(env)
        import dataclasses

        forged = dataclasses.replace(env, claimed_sender=Role.CAV_STACK)
        assert forged.spoofed and admitted(forged)


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
