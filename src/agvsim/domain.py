"""Shared vocabulary for the agentic-vehicle simulator.

Roles, agency levels, driving modes, threat identifiers, message envelopes
with identity/provenance, and the world/context value types exchanged across
trust boundaries. Everything here is an immutable value; instances are safe
to share across concurrent episode runners. `ConfigError` and the schema
helpers that every loader parses file values with live here too, so a value
is judged by one rule wherever a document writes it; so does `PipelineError`,
so the CLI catches both without loading the pipeline, and so does
`shipped_files`, the one lister of the YAML files the package ships.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Collection, Mapping, TypeVar

E = TypeVar("E", bound=Enum)
T = TypeVar("T")


class ConfigError(ValueError):
    """A configuration value failed parsing, schema or legality checks; `where` is its field path."""

    def __init__(self, where: str, message: str) -> None:
        self.where = where
        self.message = message
        super().__init__(f"{where}: {message}")


class PipelineError(RuntimeError):
    """Raised when no rule-compliant proposal can be produced for a step."""


def is_finite_number(value: object) -> bool:
    """A non-bool int or float that is a finite float: no NaN, no infinity, no int too large for a float."""
    big = sys.float_info.max
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -big <= value <= big


def shipped_files(folder: str) -> dict[str, Path]:
    """The YAML files shipped in the package folder `folder`, keyed by file stem, in stem order."""
    root = resources.files(__package__).joinpath(folder)
    entries = sorted((e for e in root.iterdir() if e.name.endswith(".yaml")), key=lambda e: e.name)
    return {entry.name[: -len(".yaml")]: Path(str(entry)) for entry in entries}


# ---------------------------------------------------------------------------
# the schema vocabulary of every file value: each check returns the value,
# typed, or raises ConfigError naming the field path `where`


def mapping(value: Any, where: str, required: Collection[str] = (), optional: Collection[str] = ()) -> dict:
    """`value` as a mapping holding every `required` key and no key outside `required` and `optional`;
    an unknown key is named in the path."""
    if not isinstance(value, dict):
        raise ConfigError(where, f"expected a mapping, got {type(value).__name__}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ConfigError(where, f"missing required keys: {sorted(missing)}")
    unknown = sorted(set(value) - set(required) - set(optional), key=str)
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}", f"unknown keys: {unknown}")
    return value


def sequence(value: Any, where: str, item: Callable[[Any, str], T], min_len: int = 0) -> tuple[T, ...]:
    """`value` as a list of at least `min_len` items, each parsed by `item` at `where[i]`."""
    if not isinstance(value, list) or len(value) < min_len:
        raise ConfigError(where, f"expected a list{f' of at least {min_len} items' if min_len else ''}")
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def number(value: Any, where: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """`value` as a float: a finite number, not a bool, in [lo, hi]."""
    if not (is_finite_number(value) and lo <= value <= hi):
        span = "" if lo == -math.inf else f" >= {lo:g}" if hi == math.inf else f" in [{lo:g}, {hi:g}]"
        raise ConfigError(where, f"must be a finite number{span}, got {value!r}")
    return float(value)


def integer(value: Any, where: str, lo: int | None = None) -> int:
    """`value` as an int, not a bool, of at least `lo`."""
    if not isinstance(value, int) or isinstance(value, bool) or (lo is not None and value < lo):
        raise ConfigError(where, f"must be an integer{'' if lo is None else f' >= {lo}'}, got {value!r}")
    return value


def string(value: Any, where: str, choices: Collection[str] | None = None) -> str:
    """`value` as a str, one of `choices` when they are given."""
    if not isinstance(value, str) or (choices is not None and value not in choices):
        want = "a string" if choices is None else f"one of {list(choices)}"
        raise ConfigError(where, f"must be {want}, got {value!r}")
    return value


def member(enum: type[E], value: Any, where: str) -> E:
    """The member of `enum` whose value is `value`."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(where, f"{value!r} is not one of {[m.value for m in enum]}") from None


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

# The most global steps one run may take: a scenario's episodes times its
# requests, or a chain's episode length. A run keeps every step record, a few
# KB per paired step, so a run at this limit stays well under a gigabyte.
MAX_RUN_STEPS = 100_000


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


def make_envelope(sender: Role, authority: Authority, payload: object, step: int) -> MessageEnvelope:
    """Construct a fresh, honestly-labelled envelope with a single-hop provenance."""
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
# never the ground-truth one. Read-only: an attack (T3) builds a new table.
DEFAULT_ADMISSION: Mapping[Authority, frozenset[Role]] = MappingProxyType({
    Authority.INTENT_ONLY: frozenset({Role.USER, Role.PERSONAL_AGENT}),
    Authority.PROPOSAL_ONLY: frozenset({Role.DRIVING_STRATEGY_AGENT}),
    Authority.VERDICT_ONLY: frozenset({Role.SAFETY_CHECK}),
    Authority.CONTEXT_ONLY: frozenset({Role.CAV_STACK}),
})


def admitted(envelope: MessageEnvelope, policy: Mapping[Authority, frozenset[Role]] | None = None) -> bool:
    """Admission check at the pipeline boundary, based on claimed identity."""
    table = DEFAULT_ADMISSION if policy is None else policy
    return envelope.claimed_sender in table.get(envelope.authority, frozenset())


URGENCY_TAGS = ("Routine", "Urgent")


@dataclass(frozen=True)
class UserRequest:
    """One user trip request, as scripted per step in a scenario."""

    urgency_tag: str                        # one of URGENCY_TAGS
    destination: str
    desired_speed_kph: float | None = None  # explicit override, optional

    def __post_init__(self) -> None:
        if self.urgency_tag not in URGENCY_TAGS:
            raise ValueError(f"urgency_tag must be Routine or Urgent, got {self.urgency_tag!r}")
        if self.desired_speed_kph is not None and self.desired_speed_kph <= 0:
            raise ValueError(f"desired speed must be > 0, got {self.desired_speed_kph}")


# ---------------------------------------------------------------------------
# the two record parsers shared by the world, the requests and the payloads


def parse_hazard(value: Any, where: str) -> Hazard:
    """A hazard record: exactly a string `kind`, `distance_m` >= 0 and `confidence` in [0, 1]."""
    h = mapping(value, where, required=("kind", "distance_m", "confidence"))
    return Hazard(
        kind=string(h["kind"], f"{where}.kind"),
        distance_m=number(h["distance_m"], f"{where}.distance_m", 0.0),
        confidence=number(h["confidence"], f"{where}.confidence", 0.0, 1.0),
    )


def parse_request(value: Any, where: str) -> UserRequest:
    """A user request: a string `destination`, an urgency tag and an optional speed of at least MIN_SPEED_KPH."""
    r = mapping(value, where, required=("urgency_tag", "destination"), optional=("desired_speed_kph",))
    desired = r.get("desired_speed_kph")
    return UserRequest(
        urgency_tag=string(r["urgency_tag"], f"{where}.urgency_tag", URGENCY_TAGS),
        destination=string(r["destination"], f"{where}.destination"),
        desired_speed_kph=(
            None if desired is None else number(desired, f"{where}.desired_speed_kph", MIN_SPEED_KPH)
        ),
    )
