"""Scenario configuration: schema-validated YAML documents.

Unknown keys are rejected everywhere, threat/surface legality is enforced at
load time, and every error names the offending field (plus the source line
for parse errors) so a broken scenario never reaches the episode loop.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .cavstack import Layer, WorldTruth
from .domain import (
    FIELD_RANGES,
    ConfigError,
    DrivingMode,
    MAX_RUN_STEPS,
    RoadClass,
    ThreatId,
    UserRequest,
    agency_bucket,
    checked,
    identifier,
    integer,
    mapping,
    member,
    number,
    parse_hazard,
    record,
    parse_request,
    sequence,
    shipped_files,
    string,
)
from .pipeline import Rulebook, speed_window
from .threats import Surface, ThreatInjection
from .trace import OutcomeClass


class _UniqueKeys:
    """Loader mixin: reject a mapping that repeats a scalar key; `<<` merges still override."""

    def flatten_mapping(self, node: yaml.MappingNode) -> None:
        # a mapping is flattened before it is built and again wherever it is
        # merged: only the first time are its keys as written
        if not hasattr(node, "keys_checked"):
            node.keys_checked = True  # type: ignore[attr-defined]
            seen: set[tuple[str, str]] = set()
            for key, _ in node.value:
                if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                    if (key.tag, key.value) in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"duplicate key {key.value!r}", key.start_mark
                        )
                    seen.add((key.tag, key.value))
        super().flatten_mapping(node)  # type: ignore[misc]


# libyaml's parser when PyYAML was built with it; both parsers build values
# with the same SafeConstructor
_YAML_LOADER = type("_YAML_LOADER", (_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})


# far deeper than any schema nests, and far inside the recursion limit that
# `str`, `repr` and the parsers meet on a nested value
MAX_DEPTH = 64


def _check_depth(data: object, where: str) -> None:
    """Reject a document whose lists and mappings nest more than MAX_DEPTH deep.

    The walk keeps its own stack, and a container shared through YAML
    aliases is walked again only when reached deeper than before, so a
    self-referencing alias is rejected as too deep. The error names the
    top-level key the nesting sits under.
    """
    deepest: dict[int, int] = {}
    stack = [(data, 0, where)]
    while stack:
        value, depth, path = stack.pop()
        if not isinstance(value, (dict, list)) or deepest.get(id(value), -1) >= depth:
            continue
        if depth >= MAX_DEPTH:
            raise ConfigError(path, f"lists and mappings nest more than {MAX_DEPTH} deep")
        deepest[id(value)] = depth
        items = value.items() if isinstance(value, dict) else enumerate(value)
        stack.extend((child, depth + 1, f"{path}.{key}" if depth == 0 else path) for key, child in items)


@record
class ScenarioConfig:
    """A parsed scenario: the world, the requests of each episode, the seed and the injections with windows."""

    id: str
    mode: DrivingMode     # scenario metadata, not engine input
    agency: int           # 0-5; scenario metadata, not engine input
    world: WorldTruth
    requests: tuple[UserRequest, ...]
    seed: int
    episodes: int = 1
    # each injection with its window: [start, end] inclusive, in global steps
    injections: tuple[tuple[ThreatInjection, tuple[int, int]], ...] = ()
    expected_outcome: str | None = None  # fixture metadata, not engine input

    @property
    def steps_per_episode(self) -> int:
        return len(self.requests)


def _parse_world(data: object, where: str) -> WorldTruth:
    world = mapping(data, where, ("speed_limit_kph", "road_class", "vehicle_speed_kph"), ("hazards", "closures"))
    ranges = FIELD_RANGES[WorldTruth]
    limit = number(world["speed_limit_kph"], f"{where}.speed_limit_kph", *ranges["true_speed_limit_kph"])
    speed = number(world["vehicle_speed_kph"], f"{where}.vehicle_speed_kph", *ranges["vehicle_true_speed_kph"])
    # with the SC's speed window empty at the world's own speed and limit, every step raises PipelineError;
    # then its lower edge is the speed less the widest jump, and its upper edge min(limit, abs_max)
    rules = Rulebook()
    lo, hi = speed_window(speed, limit, rules)
    if lo > hi:
        raise ConfigError(
            f"{where}.vehicle_speed_kph",
            f"{speed:g} is more than {speed - lo:.6g} kph above min(limit, {rules.abs_max_speed_kph:g}) = {hi:g}, "
            "so no rule-compliant speed is reachable",
        )
    return WorldTruth(
        true_speed_limit_kph=limit,
        road_class=member(RoadClass, world["road_class"], f"{where}.road_class"),
        vehicle_true_speed_kph=speed,
        true_hazards=sequence(world.get("hazards", []), f"{where}.hazards", parse_hazard),
        true_closures=sequence(world.get("closures", []), f"{where}.closures", string),
    )


def _parse_window(value: object, where: str) -> tuple[int, int]:
    window = sequence(value, where, integer)
    if len(window) != 2 or not 0 <= window[0] <= window[1]:
        raise ConfigError(where, f"window must be [start, end] integers with 0 <= start <= end, got {value!r}")
    return window[0], window[1]


def _parse_scheduled_injection(data: object, where: str) -> tuple[ThreatInjection, tuple[int, int]]:
    """A scenario injection and its window, `[0, 0]` when the file gives none."""
    window: object = [0, 0]
    if isinstance(data, dict) and "window" in data:
        data = dict(data)
        window = data.pop("window")
    return _parse_injection(data, where), _parse_window(window, f"{where}.window")


def _parse_injection(data: object, where: str) -> ThreatInjection:
    inj = mapping(data, where, ("threat", "surface", "payload"), ("persistent", "layer"))
    persistent = inj.get("persistent", False)
    if not isinstance(persistent, bool):
        raise ConfigError(f"{where}.persistent", f"must be true or false, got {persistent!r}")
    threat = member(ThreatId, inj["threat"], f"{where}.threat")
    surface = member(Surface, inj["surface"], f"{where}.surface")
    layer = member(Layer, inj["layer"], f"{where}.layer") if "layer" in inj else None
    try:
        return ThreatInjection(threat, surface, inj["payload"], persistent, layer)
    except ConfigError as exc:  # a field of "<threat> payload" or "<threat> persistent": name it by its path
        raise ConfigError(f"{where}.{exc.where.partition(' ')[2]}", exc.message) from exc
    except ValueError as exc:
        raise ConfigError(where, f"illegal injection: {exc}") from exc


_OUTCOMES = sorted(outcome.value for outcome in OutcomeClass)


def parse_scenario(data: object, source: str = "<memory>") -> ScenarioConfig:
    """Validate a parsed YAML document into a ScenarioConfig."""
    _check_depth(data, source)
    doc = mapping(
        data, source, ("id", "mode", "agency", "seed", "world", "requests"),
        ("episodes", "injections", "expected_outcome"),
    )
    agency = integer(doc["agency"], f"{source}.agency")
    checked(f"{source}.agency", agency_bucket, agency)
    expected = doc.get("expected_outcome")
    config = ScenarioConfig(
        id=identifier(doc["id"], f"{source}.id"),
        mode=member(DrivingMode, doc["mode"], f"{source}.mode"),
        agency=agency,
        world=_parse_world(doc["world"], f"{source}.world"),
        requests=sequence(doc["requests"], f"{source}.requests", parse_request),
        seed=integer(doc["seed"], f"{source}.seed"),
        episodes=integer(doc.get("episodes", 1), f"{source}.episodes", 1),
        injections=sequence(doc.get("injections", []), f"{source}.injections", _parse_scheduled_injection),
        expected_outcome=None if expected is None else string(expected, f"{source}.expected_outcome", _OUTCOMES),
    )
    steps = config.episodes * config.steps_per_episode
    if steps > MAX_RUN_STEPS:
        raise ConfigError(
            f"{source}.episodes",
            f"episodes x requests = {config.episodes} x {config.steps_per_episode} = {steps} steps; "
            f"a run may take at most {MAX_RUN_STEPS}",
        )
    for i, (_, (start, _)) in enumerate(config.injections):
        if start >= steps:  # an end past the run is fine: the injection acts until the run ends
            raise ConfigError(
                f"{source}.injections[{i}].window",
                f"starts at global step {start}, but episodes x requests = "
                f"{config.episodes} x {config.steps_per_episode} = {steps} steps, so it would never act",
            )
    return config


def _read_yaml(path: Path) -> object:
    """Read and parse one UTF-8 YAML file; every failure is a ConfigError naming the path."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        # one line: PyYAML's problem, without its context and source excerpts
        location = str(path)
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            location = f"{path}:{mark.line + 1}:{mark.column + 1}"
        elif isinstance(exc, yaml.reader.ReaderError):
            # the first character the reader refuses; libyaml counts `position` in bytes
            offset = text.find(chr(exc.character))
            line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
            location = f"{path}:{line}:{column}"
        problem = getattr(exc, "problem", None) or str(exc).split("\n", 1)[0]
        raise ConfigError(location, f"parse error: {problem}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and fully validate one scenario file."""
    path = Path(path)
    return parse_scenario(_read_yaml(path), str(path))


def shipped_scenarios() -> dict[str, Path]:
    """Scenario files bundled with the package, keyed by scenario id."""
    return shipped_files("scenarios")


def load_shipped(name: str) -> ScenarioConfig:
    """The shipped scenario with the id `name`; KeyError when none has it."""
    path = shipped_scenarios().get(name)
    if path is None:
        raise KeyError("no shipped scenario with this id")
    return load_scenario(path)
