"""Shared vocabulary for the agentic-vehicle simulator.

Roles, agency levels, driving modes, threat identifiers, message envelopes
with identity/provenance, and the world/context value types exchanged across
trust boundaries. Everything here is an immutable value; instances are safe
to share across concurrent episode runners.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum


def is_finite_number(value: object) -> bool:
    """A non-bool int or float that is a finite float: no NaN, no infinity, no int too large for a float."""
    big = sys.float_info.max
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -big <= value <= big


class Role(str, Enum):
    """Participants in the pipeline and its surroundings."""

    PERSONAL_AGENT = "PersonalAgent"
    DRIVING_STRATEGY_AGENT = "DrivingStrategyAgent"
    SAFETY_CHECK = "SafetyCheck"
    CAV_STACK = "CavStack"
    USER = "User"
    EXTERNAL = "External"


class DrivingMode(str, Enum):
    MANUAL = "Manual"
    AUTONOMOUS = "Autonomous"


class AgencyBucket(str, Enum):
    """Coarse capability grouping used by the severity context tables."""

    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


@dataclass(frozen=True)
class AgencyLevel:
    """Capability level on the 0-5 scale (reactive tools up to general agents)."""

    level: int

    def __post_init__(self) -> None:
        if not isinstance(self.level, int) or isinstance(self.level, bool):
            raise ValueError(f"agency level must be an integer, got {self.level!r}")
        if not 0 <= self.level <= 5:
            raise ValueError(f"agency level must be in [0, 5], got {self.level}")


def agency_bucket(level: AgencyLevel | int) -> AgencyBucket:
    """Map a 0-5 agency level onto the Low/Medium/High table contexts.

    0-1 -> Low, 2-3 -> Medium, 4-5 -> High. Total and monotone.
    """
    value = level.level if isinstance(level, AgencyLevel) else AgencyLevel(level).level
    if value <= 1:
        return AgencyBucket.LOW
    if value <= 3:
        return AgencyBucket.MEDIUM
    return AgencyBucket.HIGH


class ThreatId(str, Enum):
    """The fifteen agentic threats plus the four cross-layer attack vectors."""

    T1 = "T1"    # memory poisoning
    T2 = "T2"    # tool misuse
    T3 = "T3"    # privilege compromise
    T4 = "T4"    # resource overload
    T5 = "T5"    # cascading hallucinations
    T6 = "T6"    # intent breaking
    T7 = "T7"    # misaligned / deceptive behaviors
    T8 = "T8"    # repudiation / untraceability
    T9 = "T9"    # identity spoofing
    T10 = "T10"  # overwhelming the human in the loop
    T11 = "T11"  # unexpected remote code execution
    T12 = "T12"  # agent communication poisoning
    T13 = "T13"  # rogue agents
    T14 = "T14"  # human attacks on multi-agent systems
    T15 = "T15"  # human manipulation
    X_PERCEPTION = "XPerception"
    X_V2X = "XV2X"
    X_COMPUTE = "XCompute"
    X_CONTROL_FEEDBACK = "XControlFeedback"

    @property
    def is_cross_layer(self) -> bool:
        return self.value.startswith("X")


AGENTIC_THREATS: tuple[ThreatId, ...] = tuple(t for t in ThreatId if not t.is_cross_layer)
CROSS_LAYER_THREATS: tuple[ThreatId, ...] = tuple(t for t in ThreatId if t.is_cross_layer)


class Authority(str, Enum):
    """What kind of content an envelope is allowed to carry."""

    INTENT_ONLY = "IntentOnly"
    PROPOSAL_ONLY = "ProposalOnly"
    VERDICT_ONLY = "VerdictOnly"
    CONTEXT_ONLY = "ContextOnly"


class RoadClass(str, Enum):
    HIGHWAY = "Highway"
    ARTERIAL = "Arterial"
    RING_ROAD = "RingRoad"
    RESIDENTIAL = "Residential"
    URBAN = "Urban"


class SourceLayer(str, Enum):
    PERCEPTION = "Perception"
    V2X = "V2X"
    MAP_SERVICE = "MapService"
    FUSION = "Fusion"


@dataclass(frozen=True)
class Hazard:
    """One perceived hazard record inside a context summary."""

    kind: str
    distance_m: float
    confidence: float  # [0, 1]

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"hazard confidence must be in [0, 1], got {self.confidence}")
        if self.distance_m < 0:
            raise ValueError(f"hazard distance must be >= 0, got {self.distance_m}")


# The least speed or speed limit a scenario may state (the layer arithmetic
# clamps limits to it too), so no product of speeds and factors underflows to 0.
MIN_SPEED_KPH = 0.1
MAX_SPEED_LIMIT_KPH = 200.0


@dataclass(frozen=True)
class ContextSummary:
    """Environmental digest consumed by the agents.

    completeness stays 1.0 except under a resource-overload degradation;
    it is a scalar knob, not per-field dropout.
    """

    speed_limit_kph: float          # (0, 200]
    road_class: RoadClass
    hazards: tuple[Hazard, ...] = ()
    closures: tuple[str, ...] = ()  # road-segment ids
    traffic_density: float = 0.0    # [0, 1]
    source_layer: SourceLayer = SourceLayer.FUSION
    completeness: float = 1.0       # [0, 1]

    def __post_init__(self) -> None:
        if not 0.0 < self.speed_limit_kph <= MAX_SPEED_LIMIT_KPH:
            raise ValueError(
                f"speed limit must be in (0, {MAX_SPEED_LIMIT_KPH}], got {self.speed_limit_kph}"
            )
        if not 0.0 <= self.traffic_density <= 1.0:
            raise ValueError(f"traffic density must be in [0, 1], got {self.traffic_density}")
        if not 0.0 <= self.completeness <= 1.0:
            raise ValueError(f"completeness must be in [0, 1], got {self.completeness}")


@dataclass(frozen=True)
class VehicleFeedback:
    """Control-layer telemetry as reported to the agents (not ground truth)."""

    speed_kph: float
    accel_mps2: float = 0.0
    steering_deg: float = 0.0
    braking: float = 0.0       # [0, 1]
    reported_by: str = "control-layer"

    def __post_init__(self) -> None:
        if self.speed_kph < 0:
            raise ValueError(f"speed must be >= 0, got {self.speed_kph}")
        if not 0.0 <= self.braking <= 1.0:
            raise ValueError(f"braking must be in [0, 1], got {self.braking}")


@dataclass(frozen=True)
class MessageEnvelope:
    """Inter-role message with identity and provenance.

    `sender` is ground truth, observable only by the harness; in-pipeline
    admission reads `claimed_sender`. Spoofing is exactly the condition
    claimed_sender != sender.
    """

    sender: Role
    claimed_sender: Role
    authority: Authority
    payload: object
    provenance: tuple[tuple[Role, int], ...]  # append-only (role, step) hops
    step: int

    def __post_init__(self) -> None:
        if not self.provenance:
            raise ValueError("provenance must be non-empty")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")

    @property
    def spoofed(self) -> bool:
        return self.claimed_sender is not self.sender

    def with_hop(self, role: Role, step: int) -> MessageEnvelope:
        """Return a copy with one more provenance hop appended."""
        return MessageEnvelope(
            sender=self.sender,
            claimed_sender=self.claimed_sender,
            authority=self.authority,
            payload=self.payload,
            provenance=self.provenance + ((role, step),),
            step=self.step,
        )


def make_envelope(sender: Role, authority: Authority, payload: object, step: int) -> MessageEnvelope:
    """Construct a fresh, honestly-labelled envelope with a single-hop provenance."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return MessageEnvelope(
        sender=sender,
        claimed_sender=sender,
        authority=authority,
        payload=payload,
        provenance=((sender, step),),
        step=step,
    )


# Which claimed senders may originate each envelope kind. SafetyCheck only
# ever emits verdicts; nothing else may. Admission reads the claimed sender,
# never the ground-truth one.
DEFAULT_ADMISSION: dict[Authority, frozenset[Role]] = {
    Authority.INTENT_ONLY: frozenset({Role.USER, Role.PERSONAL_AGENT}),
    Authority.PROPOSAL_ONLY: frozenset({Role.DRIVING_STRATEGY_AGENT}),
    Authority.VERDICT_ONLY: frozenset({Role.SAFETY_CHECK}),
    Authority.CONTEXT_ONLY: frozenset({Role.CAV_STACK}),
}


def admitted(envelope: MessageEnvelope, policy: dict[Authority, frozenset[Role]] | None = None) -> bool:
    """Admission check at the pipeline boundary, based on claimed identity."""
    table = DEFAULT_ADMISSION if policy is None else policy
    return envelope.claimed_sender in table.get(envelope.authority, frozenset())


@dataclass(frozen=True)
class UserRequest:
    """One user trip request, as scripted per step in a scenario."""

    urgency_tag: str                        # "Routine" | "Urgent"
    destination: str
    desired_speed_kph: float | None = None  # explicit override, optional

    def __post_init__(self) -> None:
        if self.urgency_tag not in ("Routine", "Urgent"):
            raise ValueError(f"urgency_tag must be Routine or Urgent, got {self.urgency_tag!r}")
        if self.desired_speed_kph is not None and self.desired_speed_kph <= 0:
            raise ValueError(f"desired speed must be > 0, got {self.desired_speed_kph}")
