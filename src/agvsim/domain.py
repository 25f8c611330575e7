"""Shared vocabulary for the agentic-vehicle simulator.

Roles, agency buckets, driving modes, threat identifiers, message envelopes
with identity/provenance, and the world/context value types exchanged across
trust boundaries. Everything here is an immutable value; instances are safe
to share across concurrent episode runners. `ConfigError` and the schema
helpers that every loader parses file values with live here too, so a value
is judged by one rule wherever a document writes it; so does `PipelineError`,
so the CLI catches both without loading the pipeline, so does
`shipped_files`, the one lister of the YAML files the package ships, and so
does `record`, the decorator of every frozen value class in the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from reprlib import recursive_repr
from types import MappingProxyType
from typing import Any, Callable, Collection, Mapping, TypeVar

E = TypeVar("E", bound=Enum)
T = TypeVar("T")
_FINITE = sys.float_info.max


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
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -_FINITE <= value <= _FINITE


def shipped_files(folder: str) -> dict[str, Path]:
    """The YAML files shipped in the package folder `folder`, keyed by file stem, in stem order."""
    root = resources.files(__package__).joinpath(folder)
    entries = sorted((e for e in root.iterdir() if e.name.endswith(".yaml")), key=lambda e: e.name)
    return {entry.name[: -len(".yaml")]: Path(str(entry)) for entry in entries}


# The least speed or speed limit a scenario may state, so no product of speeds
# and factors underflows to 0, and the greatest speed limit.
MIN_SPEED_KPH = 0.1
MAX_SPEED_LIMIT_KPH = 200.0
_UNIT, _ANY = (0.0, 1.0), (-_FINITE, _FINITE)

# The legal range [lo, hi] of each ranged record field, by record, in field
# order: `record` enters each field declared `ranged`, and the record's own
# `__init__`, the layer clamps and the loaders read the range here alone.
# Telemetry and speeds stay finite, so hostile layer arithmetic (Set 1e308,
# then Scale 10) saturates instead of reaching inf.
FIELD_RANGES: dict[type, dict[str, tuple[float, float]]] = {}


def ranged(lo: float, hi: float, default: Any = MISSING) -> Any:
    """A record field whose value lies in [lo, hi]; one whose default is `None` may also be `None`."""
    return field(default=default, metadata={"range": (lo, hi)})


def _out_of_range(value: Any) -> ValueError:
    """The error naming the first ranged field of the record `value` outside its range."""
    name, (lo, hi) = next(
        (n, r) for n, r in FIELD_RANGES[type(value)].items()
        if getattr(value, n) is not None and not r[0] <= getattr(value, n) <= r[1]
    )
    return ValueError(f"{type(value).__name__}.{name} must be in [{lo:g}, {hi:g}], got {getattr(value, name)!r}")


def record(cls: type[T]) -> type[T]:
    """`cls` as a frozen value class with slots, whose `__init__` stores each field through its slot.

    A record keeps its fields in slots, with no instance dict and no weakref
    slot, so a field reads at full speed and an instance holds no dict for
    the cyclic collector to track. A frozen dataclass's own `__init__`
    stores each field through `object.__setattr__`, several times the cost
    of a plain store. What a step or a paired analysis calls builds its
    records by position, in field order, since a keyword is matched against
    the parameter names and `type.__call__` gathers keywords into a dict;
    loaders and tests keep keywords. This `__init__` takes the same
    parameters and defaults, stores the fields in field order through their
    slots' member descriptors, and then calls `__post_init__` when the class
    has one. A *ranged* field, declared `ranged(lo, hi)`, enters
    `FIELD_RANGES[cls]`, and `__init__` refuses a value outside its range
    last, with `_out_of_range`. A *derived* field,
    declared `field(default=<plain>, init=False, compare=False, repr=False)`,
    is no parameter: `__init__` stores its default, and the class sets it
    once with `object.__setattr__`; equality, hashing and every export leave
    it out, and copies and pickles carry it. A data descriptor that the class
    body puts on a field, such as `threats._DigestField`, stays in front of
    the field's slot and is given the slot's member descriptor as `slot`.
    Setting or deleting any attribute raises `FrozenInstanceError`.

    `dataclass` is applied for the field table alone and writes no method,
    so `fields`, `replace` and `is_dataclass` work on records as on any
    dataclass; `__dataclass_params__` describes only that table (it reads
    `frozen=False`, `eq=False`). `record` then builds the slotted class once,
    compiles its `__init__`, `__eq__` and `__hash__` in one `exec`, with
    equality and hashing as a frozen dataclass writes them, and gives it the
    shared `__repr__`, `__getstate__` and `__setstate__`, which read the
    field table as a frozen slotted dataclass's do. The class statement made
    the first class, so a record's methods use neither zero-argument
    `super()` nor `__class__`, which would still name it.
    """
    dataclass(init=False, repr=False, eq=False)(cls)
    table = fields(cls)
    body = {name: value for name, value in vars(cls).items() if name not in ("__dict__", "__weakref__")}
    held = {f.name: body.pop(f.name, None) for f in table}
    body.update(
        __slots__=tuple(held), __qualname__=cls.__qualname__, __repr__=_record_repr,
        __getstate__=_record_getstate, __setstate__=_record_setstate,
        # a record has no attribute but its fields, so both always refuse
        __setattr__=_frozen_setattr, __delattr__=_frozen_delattr,
    )
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    ranges = {f.name: f.metadata["range"] for f in table if "range" in f.metadata}
    if ranges:
        FIELD_RANGES[cls] = ranges
    for name, method in _record_methods(cls).items():
        setattr(cls, name, method)
    for name, view in held.items():
        if hasattr(type(view), "__set__"):
            view.slot = vars(cls)[name]
            setattr(cls, name, view)
    return cls


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@recursive_repr()
def _record_repr(self: object) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{type(self).__qualname__}({shown})"


def _record_getstate(self: object) -> list:
    return [getattr(self, f.name) for f in fields(self)]


def _record_setstate(self: object, state: list) -> None:
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)


def _record_methods(cls: type) -> dict[str, Callable]:
    """The `__init__`, `__eq__` and `__hash__` of the record class `cls`, compiled from its fields with one `exec`.

    A field takes a plain default or none, and is stored by `_set_<name>`,
    its slot's `__set__`, even where a data descriptor will stand in front of
    the slot; a derived field is stored its default. After `__post_init__`,
    one comparison chain holds each ranged field's parameter to its range in
    `FIELD_RANGES`. The local `__self` cannot clash with a field name, which
    the class body would have mangled. `__eq__` compares, and `__hash__`
    hashes, the compared fields as one tuple, as a frozen dataclass's do.
    """
    params, stores, checks, namespace = ["__self"], [], [], {"_out_of_range": _out_of_range}
    ranges, table = FIELD_RANGES.get(cls, {}), fields(cls)
    for f in table:
        derived = not f.init
        if f.kw_only or f.default_factory is not MISSING or derived and (f.default is MISSING or f.compare or f.repr):
            raise TypeError(f"{cls.__name__}.{f.name}: a record field takes a plain default or none; see `record`")
        if f.default is not MISSING:
            namespace[f"_default_{f.name}"] = f.default
        if not derived:
            params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
        namespace[f"_set_{f.name}"] = vars(cls)[f.name].__set__
        stores.append(f"    _set_{f.name}(__self, {f'_default_{f.name}' if derived else f.name})")
        if f.name in ranges:
            namespace[f"_lo_{f.name}"], namespace[f"_hi_{f.name}"] = ranges[f.name]
            check = f"_lo_{f.name} <= {f.name} <= _hi_{f.name}"
            checks.append(f"({f.name} is None or {check})" if f.default is None else check)
    if hasattr(cls, "__post_init__"):
        stores.append("    __self.__post_init__()")
    if checks:
        stores.append(f"    if not ({' and '.join(checks)}):\n        raise _out_of_range(__self)")
    mine, theirs = (f"({''.join(f'{side}.{f.name},' for f in table if f.compare)})" for side in ("self", "other"))
    exec(
        f"def __init__({', '.join(params)}):\n" + "\n".join(stores) + "\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {mine} == {theirs}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({mine})\n",
        namespace,
    )
    methods = {name: namespace[name] for name in ("__init__", "__eq__", "__hash__")}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    return methods


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
    """`value` as a float: a finite number, not a bool, in [lo, hi]; the error omits a `hi` no finite float exceeds."""
    if not (is_finite_number(value) and lo <= value <= hi):
        span = "" if lo == -math.inf else f" >= {lo:g}" if hi >= _FINITE else f" in [{lo:g}, {hi:g}]"
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


def identifier(value: Any, where: str) -> str:
    """`value` as a str with a character other than whitespace: a scenario's or a chain's id, which its exports name."""
    text = string(value, where)
    if not text.strip():
        raise ConfigError(where, f"must be a non-blank string, got {text!r}")
    return text


def checked(where: str, make: Callable[..., T], /, *args: Any, **kwargs: Any) -> T:
    """`make(*args, **kwargs)`; a ValueError from its checks becomes a ConfigError at `where`, a ConfigError passes."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


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


def agency_bucket(value: int) -> AgencyBucket:
    """Map an agency level, 0-5 (reactive tools up to general agents), onto the Low/Medium/High table contexts.

    0-1 -> Low, 2-3 -> Medium, 4-5 -> High: monotone. Any other value, a bool too, raises ValueError.
    """
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 5:
        raise ValueError(f"agency level must be an integer in [0, 5], got {value!r}")
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


@record
class Hazard:
    """One perceived hazard record inside a context summary."""

    kind: str
    distance_m: float = ranged(0.0, math.inf)
    confidence: float = ranged(*_UNIT)


# The most global steps one run may take: a scenario's episodes times its
# requests, or a chain's episode length. A run keeps every step record, a few
# KB per paired step, so a run at this limit stays well under a gigabyte.
MAX_RUN_STEPS = 100_000


@record
class ContextSummary:
    """Environmental digest consumed by the agents.

    completeness stays 1.0 except under a resource-overload degradation;
    it is a scalar knob, not per-field dropout.
    """

    speed_limit_kph: float = ranged(MIN_SPEED_KPH, MAX_SPEED_LIMIT_KPH)
    road_class: RoadClass
    hazards: tuple[Hazard, ...] = ()
    closures: tuple[str, ...] = ()  # road-segment ids
    traffic_density: float = ranged(*_UNIT, default=0.0)
    source_layer: SourceLayer = SourceLayer.FUSION
    completeness: float = ranged(*_UNIT, default=1.0)


@record
class VehicleFeedback:
    """Control-layer telemetry as reported to the agents (not ground truth)."""

    speed_kph: float = ranged(0.0, _FINITE)
    accel_mps2: float = ranged(*_ANY, default=0.0)
    steering_deg: float = ranged(*_ANY, default=0.0)
    braking: float = ranged(*_UNIT, default=0.0)
    reported_by: str = "control-layer"


@record
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
    return MessageEnvelope(sender, sender, authority, payload, ((sender, step),), step)


# Which claimed senders may originate each envelope kind. SafetyCheck only
# ever emits verdicts; nothing else may. Admission reads the claimed sender,
# never the ground-truth one. Read-only: an attack (T3) builds a new table.
DEFAULT_ADMISSION: Mapping[Authority, frozenset[Role]] = MappingProxyType({
    Authority.INTENT_ONLY: frozenset({Role.USER, Role.PERSONAL_AGENT}),
    Authority.PROPOSAL_ONLY: frozenset({Role.DRIVING_STRATEGY_AGENT}),
    Authority.VERDICT_ONLY: frozenset({Role.SAFETY_CHECK}),
    Authority.CONTEXT_ONLY: frozenset({Role.CAV_STACK}),
})


def admitted(envelope: MessageEnvelope, policy: Mapping[Authority, frozenset[Role]]) -> bool:
    """Admission check at the pipeline boundary by the table `policy`, based on claimed identity."""
    return envelope.claimed_sender in policy.get(envelope.authority, frozenset())


ROUTINE, URGENT = "Routine", "Urgent"
URGENCY_TAGS = (ROUTINE, URGENT)


@record
class UserRequest:
    """One user trip request, as scripted per step in a scenario."""

    urgency_tag: str                        # one of URGENCY_TAGS
    destination: str
    desired_speed_kph: float | None = ranged(MIN_SPEED_KPH, _FINITE, default=None)  # explicit override, optional

    def __post_init__(self) -> None:
        if self.urgency_tag not in URGENCY_TAGS:
            raise ValueError(f"urgency_tag must be Routine or Urgent, got {self.urgency_tag!r}")


# ---------------------------------------------------------------------------
# the two record parsers shared by the world, the requests and the payloads


def parse_hazard(value: Any, where: str) -> Hazard:
    """A hazard record: exactly a string `kind` and a finite `distance_m` and `confidence` in their ranges."""
    h = mapping(value, where, required=("kind", "distance_m", "confidence"))
    ranges = FIELD_RANGES[Hazard]
    return Hazard(
        kind=string(h["kind"], f"{where}.kind"),
        distance_m=number(h["distance_m"], f"{where}.distance_m", *ranges["distance_m"]),
        confidence=number(h["confidence"], f"{where}.confidence", *ranges["confidence"]),
    )


def parse_request(value: Any, where: str) -> UserRequest:
    """A user request: a string `destination`, an urgency tag and an optional speed in its range."""
    r = mapping(value, where, required=("urgency_tag", "destination"), optional=("desired_speed_kph",))
    desired = r.get("desired_speed_kph")
    speeds = FIELD_RANGES[UserRequest]["desired_speed_kph"]
    return UserRequest(
        urgency_tag=string(r["urgency_tag"], f"{where}.urgency_tag", URGENCY_TAGS),
        destination=string(r["destination"], f"{where}.destination"),
        desired_speed_kph=None if desired is None else number(desired, f"{where}.desired_speed_kph", *speeds),
    )
