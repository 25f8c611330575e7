"""Scenario configuration: schema-validated YAML documents.

Unknown keys are rejected everywhere, threat/surface legality is enforced at
load time, and every error names the offending field (plus the source line
for parse errors) so a broken scenario never reaches the episode loop.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import yaml

from .cavstack import Layer, WorldTruth
from .chains import OPEN_WINDOW, ChainSpec, ChainStage, StageKind, Trigger, builtin_chain, validate_chain
from .domain import (
    AgencyLevel,
    DrivingMode,
    Hazard,
    MAX_SPEED_LIMIT_KPH,
    RoadClass,
    ThreatId,
    UserRequest,
)
from .threats import Surface, ThreatInjection, validate_injection

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A scenario document failed parsing, schema, or legality checks."""

    def __init__(self, where: str, message: str) -> None:
        self.where = where
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    id: str
    mode: DrivingMode     # scenario metadata, not engine input
    agency: AgencyLevel   # scenario metadata, not engine input
    world: WorldTruth
    requests: tuple[UserRequest, ...]
    seed: int
    episodes: int = 1
    injections: tuple[ThreatInjection, ...] = ()
    chains: tuple[ChainSpec, ...] = ()
    expected_outcome: str | None = None  # fixture metadata, not engine input

    @property
    def steps_per_episode(self) -> int:
        return len(self.requests)


def _expect_mapping(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(where, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(data: dict, required: set[str], optional: set[str], where: str) -> None:
    missing = required - set(data)
    if missing:
        raise ConfigError(where, f"missing required keys: {sorted(missing)}")
    unknown = set(data) - required - optional
    if unknown:
        raise ConfigError(where, f"unknown keys: {sorted(unknown)}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(data: dict, key: str, where: str, required: bool = True, default: float = 0.0) -> float:
    if key not in data:
        if required:
            raise ConfigError(where, f"missing {key}")
        return default
    value = data[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key}", f"expected a number, got {value!r}")
    return float(value)


def _parse_hazard(data: object, where: str) -> Hazard:
    mapping = _expect_mapping(data, where)
    _check_keys(mapping, {"kind", "distance_m", "confidence"}, set(), where)
    try:
        return Hazard(
            kind=str(mapping["kind"]),
            distance_m=_number(mapping, "distance_m", where),
            confidence=_number(mapping, "confidence", where),
        )
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_world(data: object, where: str) -> WorldTruth:
    mapping = _expect_mapping(data, where)
    _check_keys(
        mapping,
        {"speed_limit_kph", "road_class", "vehicle_speed_kph"},
        {"hazards", "closures"},
        where,
    )
    try:
        road = RoadClass(mapping["road_class"])
    except ValueError as exc:
        raise ConfigError(
            f"{where}.road_class",
            f"{mapping['road_class']!r} is not one of {[r.value for r in RoadClass]}",
        ) from exc
    closures = mapping.get("closures", [])
    if not isinstance(closures, list) or not all(isinstance(c, str) for c in closures):
        raise ConfigError(f"{where}.closures", "expected a list of segment-id strings")
    hazards = mapping.get("hazards", [])
    if not isinstance(hazards, list):
        raise ConfigError(f"{where}.hazards", "expected a list of hazard records")
    limit = _number(mapping, "speed_limit_kph", where)
    if not 0.0 < limit <= MAX_SPEED_LIMIT_KPH:  # also rejects .nan
        raise ConfigError(
            f"{where}.speed_limit_kph", f"must be in (0, {MAX_SPEED_LIMIT_KPH:g}], got {limit!r}"
        )
    speed = _number(mapping, "vehicle_speed_kph", where)
    if not 0.0 <= speed < math.inf:
        raise ConfigError(f"{where}.vehicle_speed_kph", f"must be finite and >= 0, got {speed!r}")
    return WorldTruth(
        true_speed_limit_kph=limit,
        road_class=road,
        vehicle_true_speed_kph=speed,
        true_hazards=tuple(
            _parse_hazard(h, f"{where}.hazards[{i}]") for i, h in enumerate(hazards)
        ),
        true_closures=tuple(closures),
    )


def _parse_request(data: object, where: str) -> UserRequest:
    mapping = _expect_mapping(data, where)
    _check_keys(mapping, {"urgency_tag", "destination"}, {"desired_speed_kph"}, where)
    desired = mapping.get("desired_speed_kph")
    if desired is not None:
        desired = _number(mapping, "desired_speed_kph", where)
    try:
        return UserRequest(
            urgency_tag=str(mapping["urgency_tag"]),
            destination=str(mapping["destination"]),
            desired_speed_kph=desired,
        )
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_window(value: object, where: str) -> tuple[int, int]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(_is_int(v) for v in value)
    ):
        raise ConfigError(where, f"window must be [start, end] integers, got {value!r}")
    return (value[0], value[1])


def _parse_injection(data: object, where: str) -> ThreatInjection:
    mapping = _expect_mapping(data, where)
    _check_keys(mapping, {"threat", "surface", "payload"}, {"window", "persistent", "layer"}, where)
    try:
        threat = ThreatId(mapping["threat"])
    except ValueError as exc:
        raise ConfigError(
            f"{where}.threat", f"{mapping['threat']!r} is not a known threat id"
        ) from exc
    try:
        surface = Surface(mapping["surface"])
    except ValueError as exc:
        raise ConfigError(
            f"{where}.surface", f"{mapping['surface']!r} is not a known surface"
        ) from exc
    layer = None
    if "layer" in mapping:
        try:
            layer = Layer(mapping["layer"])
        except ValueError as exc:
            raise ConfigError(f"{where}.layer", f"{mapping['layer']!r} is not a layer") from exc
    payload = mapping["payload"]
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}.payload", "payload must be a mapping")
    window = (0, 0)
    if "window" in mapping:
        window = _parse_window(mapping["window"], f"{where}.window")
    persistent = mapping.get("persistent", False)
    if not isinstance(persistent, bool):
        raise ConfigError(f"{where}.persistent", f"must be true or false, got {persistent!r}")
    injection = ThreatInjection(
        threat=threat,
        surface=surface,
        payload=payload,
        window=window,
        persistent=persistent,
        layer=layer,
    )
    try:
        validate_injection(injection)
    except ValueError as exc:
        raise ConfigError(where, f"illegal injection: {exc}") from exc
    return injection


def _parse_trigger(data: object, where: str) -> Trigger:
    mapping = _expect_mapping(data, where)
    _check_keys(mapping, set(), {"at_step", "after_stage"}, where)
    for key, value in mapping.items():
        if not _is_int(value):
            raise ConfigError(f"{where}.{key}", f"must be an integer, got {value!r}")
    try:
        return Trigger(
            at_step=mapping.get("at_step"),
            after_stage=mapping.get("after_stage"),
        )
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_chain_stage(data: object, where: str) -> ChainStage:
    mapping = _expect_mapping(data, where)
    _check_keys(mapping, {"kind", "trigger"}, {"injection", "probe", "label"}, where)
    try:
        kind = StageKind(mapping["kind"])
    except ValueError as exc:
        raise ConfigError(f"{where}.kind", "must be inject or observe") from exc
    injection = None
    if "injection" in mapping:
        injection = _parse_injection(mapping["injection"], f"{where}.injection")
        # chain-stage activation is gated by the trigger, not the window
        injection = replace(injection, window=OPEN_WINDOW)
    trigger = _parse_trigger(mapping["trigger"], f"{where}.trigger")
    try:
        return ChainStage(
            kind=kind,
            trigger=trigger,
            injection=injection,
            probe=mapping.get("probe"),
            label=str(mapping.get("label", "")),
        )
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def parse_chain_spec(data: object, where: str) -> ChainSpec:
    mapping = _expect_mapping(data, where)
    _check_keys(mapping, {"id", "stages", "episode_length"}, set(), where)
    stages = mapping["stages"]
    if not isinstance(stages, list):
        raise ConfigError(f"{where}.stages", "expected a list of stages")
    episode_length = mapping["episode_length"]
    if not _is_int(episode_length) or episode_length < 1:
        raise ConfigError(f"{where}.episode_length", "must be an integer >= 1")
    spec = ChainSpec(
        id=str(mapping["id"]),
        stages=tuple(
            _parse_chain_stage(s, f"{where}.stages[{i}]") for i, s in enumerate(stages)
        ),
        episode_length=episode_length,
    )
    try:
        validate_chain(spec)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc
    return spec


def _parse_chain_ref(data: object, where: str) -> ChainSpec:
    if isinstance(data, str):
        try:
            return builtin_chain(data)
        except KeyError as exc:
            raise ConfigError(where, exc.args[0]) from exc
    return parse_chain_spec(data, where)


_OUTCOMES = {"NoEffect", "MisalignedApproved", "BlockedBySC"}


def parse_scenario(data: object, source: str = "<memory>") -> ScenarioConfig:
    """Validate a parsed YAML document into a ScenarioConfig."""
    mapping = _expect_mapping(data, source)
    _check_keys(
        mapping,
        {"id", "mode", "agency", "seed", "world", "requests"},
        {"episodes", "injections", "chains", "expected_outcome"},
        source,
    )
    try:
        mode = DrivingMode(mapping["mode"])
    except ValueError as exc:
        raise ConfigError(f"{source}.mode", "must be Manual or Autonomous") from exc
    agency_raw = mapping["agency"]
    if not _is_int(agency_raw):
        raise ConfigError(f"{source}.agency", f"must be an integer 0-5, got {agency_raw!r}")
    try:
        agency = AgencyLevel(agency_raw)
    except ValueError as exc:
        raise ConfigError(f"{source}.agency", str(exc)) from exc
    seed = mapping["seed"]
    if not _is_int(seed):
        raise ConfigError(f"{source}.seed", f"must be an integer, got {seed!r}")
    episodes = mapping.get("episodes", 1)
    if not _is_int(episodes) or episodes < 1:
        raise ConfigError(f"{source}.episodes", f"must be an integer >= 1, got {episodes!r}")
    requests_raw = mapping["requests"]
    if not isinstance(requests_raw, list):
        raise ConfigError(f"{source}.requests", "expected a list of requests (may be empty)")
    injections_raw = mapping.get("injections", [])
    if not isinstance(injections_raw, list):
        raise ConfigError(f"{source}.injections", "expected a list")
    chains_raw = mapping.get("chains", [])
    if not isinstance(chains_raw, list):
        raise ConfigError(f"{source}.chains", "expected a list")
    expected = mapping.get("expected_outcome")
    if expected is not None and expected not in _OUTCOMES:
        raise ConfigError(
            f"{source}.expected_outcome", f"must be one of {sorted(_OUTCOMES)}, got {expected!r}"
        )

    config = ScenarioConfig(
        id=str(mapping["id"]),
        mode=mode,
        agency=agency,
        world=_parse_world(mapping["world"], f"{source}.world"),
        requests=tuple(
            _parse_request(r, f"{source}.requests[{i}]") for i, r in enumerate(requests_raw)
        ),
        seed=seed,
        episodes=episodes,
        injections=tuple(
            _parse_injection(inj, f"{source}.injections[{i}]")
            for i, inj in enumerate(injections_raw)
        ),
        chains=tuple(
            _parse_chain_ref(c, f"{source}.chains[{i}]") for i, c in enumerate(chains_raw)
        ),
        expected_outcome=expected,
    )
    logger.debug("loaded scenario %s from %s", config.id, source)
    return config


def _read_yaml(path: Path) -> object:
    """Read and parse one UTF-8 YAML file; every failure is a ConfigError naming the path."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(location, f"parse error: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and fully validate one scenario file."""
    path = Path(path)
    return parse_scenario(_read_yaml(path), str(path))


def load_chain_spec(path: str | Path) -> ChainSpec:
    """Load and fully validate one chain spec file."""
    path = Path(path)
    return parse_chain_spec(_read_yaml(path), str(path))


def shipped_scenarios() -> dict[str, Path]:
    """Scenario files bundled with the package, keyed by scenario id."""
    root = resources.files("agvsim").joinpath("scenarios")
    paths = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            paths[entry.name[: -len(".yaml")]] = Path(str(entry))
    return paths


def load_shipped(name: str) -> ScenarioConfig:
    try:
        path = shipped_scenarios()[name]
    except KeyError as exc:
        raise ConfigError(name, "no shipped scenario with this id") from exc
    return load_scenario(path)
