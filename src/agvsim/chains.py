"""Multi-stage attack chains and propagation analysis.

A chain is data: an ordered list of stages, each either an injection or an
observation probe, with triggers that fire at a fixed step or once an earlier
stage has taken effect. Running a chain produces a paired (attacked,
baseline) run plus per-stage delta records that link each stage to the
pipeline-state changes it caused. Chain spec files are read here too, with
the scenario loader's YAML reader and injection parser, so a scenario never
loads chain code; the six built-in chains are such files, shipped in
`data/chains`.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from itertools import cycle, islice
from pathlib import Path
from typing import Callable

# the module, not its function: a caller that wraps `runner.run_episodes`
# sees chain runs too
from . import runner
from .domain import MAX_RUN_STEPS, ConfigError, checked, integer, mapping, member, record, sequence, shipped_files, string
from .scenario import ScenarioConfig, _check_depth, _parse_injection, _read_yaml
from .threats import ThreatInjection, delta_footprint
from .trace import EpisodeTrace, OutcomeClass, StepRecord, _outcome, classify_outcome, stealth_check, step_deltas


@record
class Trigger:
    """When a stage activates: at a fixed step, or after another stage fires."""

    at_step: int | None = None
    after_stage: int | None = None

    def __post_init__(self) -> None:
        if (self.at_step is None) == (self.after_stage is None):
            raise ValueError("trigger needs exactly one of at_step / after_stage")
        if self.at_step is not None and self.at_step < 0:
            raise ValueError(f"at_step must be >= 0, got {self.at_step}")


class StageKind(str, Enum):
    INJECT = "inject"
    OBSERVE = "observe"


@record
class ChainStage:
    """One stage of a chain: an injection to act, or a probe to observe, from its trigger on."""

    kind: StageKind
    trigger: Trigger
    injection: ThreatInjection | None = None  # inject stages
    probe: str | None = None                  # observe stages
    label: str = ""                           # e.g. the threat tag this stage realizes

    def __post_init__(self) -> None:
        if self.kind is StageKind.INJECT and (self.injection is None or self.probe is not None):
            raise ValueError("inject stages need an injection and take no probe")
        if self.kind is StageKind.OBSERVE and (self.probe is None or self.injection is not None):
            raise ValueError("observe stages need a probe and take no injection")


@record
class ChainSpec:
    """A chain, checked when it is built: every trigger inside the episode,
    triggers ordered as a DAG, and every probe known."""

    id: str
    stages: tuple[ChainStage, ...]
    episode_length: int

    def __post_init__(self) -> None:
        if not 1 <= self.episode_length <= MAX_RUN_STEPS:
            raise ValueError(f"episode_length must be in [1, {MAX_RUN_STEPS}], got {self.episode_length}")
        for i, stage in enumerate(self.stages):
            where = f"chain {self.id!r} stage {i}"
            if stage.trigger.at_step is not None and stage.trigger.at_step >= self.episode_length:
                raise ValueError(
                    f"{where}: at_step {stage.trigger.at_step} is past the last step, "
                    f"{self.episode_length - 1}; the stage could never act"
                )
            if stage.trigger.after_stage is not None:
                k = stage.trigger.after_stage
                if not 0 <= k < i:
                    raise ValueError(f"{where}: after_stage {k} must reference an earlier stage")
                if stage.kind is StageKind.INJECT and self.stages[k].kind is not StageKind.INJECT:
                    raise ValueError(f"{where}: inject stages may only wait on inject stages")
            if stage.kind is StageKind.OBSERVE and stage.probe not in PROBES:
                raise ValueError(f"{where}: unknown probe {stage.probe!r}")


# ---------------------------------------------------------------------------
# chain spec files: the same schema rules as scenario files


def _parse_trigger(data: object, where: str) -> Trigger:
    trigger = mapping(data, where, optional=("at_step", "after_stage"))
    steps = {key: integer(value, f"{where}.{key}") for key, value in trigger.items()}
    return checked(where, Trigger, **steps)


def _parse_chain_stage(data: object, where: str) -> ChainStage:
    stage = mapping(data, where, ("kind", "trigger"), ("injection", "probe", "label"))
    kind = member(StageKind, stage["kind"], f"{where}.kind")
    injection = None
    if "injection" in stage:
        data = stage["injection"]
        if isinstance(data, dict) and "window" in data:
            raise ConfigError(f"{where}.injection.window", "a chain stage acts from its trigger on and takes no window")
        injection = _parse_injection(data, f"{where}.injection")
    trigger = _parse_trigger(stage["trigger"], f"{where}.trigger")
    probe = string(stage["probe"], f"{where}.probe") if "probe" in stage else None
    label = string(stage.get("label", ""), f"{where}.label")
    return checked(where, ChainStage, kind, trigger, injection, probe, label=label)


def parse_chain_spec(data: object, where: str) -> ChainSpec:
    _check_depth(data, where)
    chain = mapping(data, where, ("id", "stages", "episode_length"))
    chain_id = string(chain["id"], f"{where}.id")
    stages = sequence(chain["stages"], f"{where}.stages", _parse_chain_stage)
    episode_length = integer(chain["episode_length"], f"{where}.episode_length", 1)
    return checked(where, ChainSpec, chain_id, stages, episode_length)


def load_chain_spec(path: str | Path) -> ChainSpec:
    """Load and fully validate one chain spec file."""
    path = Path(path)
    return parse_chain_spec(_read_yaml(path), str(path))


class ChainSchedule:
    """Trigger resolution for one run of a chain: which stages fired, and when.

    The episode runner marks each inject stage at the step its injection
    first takes effect; `run_chain` then adds the probe hits, so observe
    stages resolve through the same `start_step`.
    """

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        self.fired: dict[int, int] = {}  # stage index -> global step of first effect or probe hit

    def start_step(self, index: int) -> int | None:
        trigger = self.spec.stages[index].trigger
        if trigger.at_step is not None:
            return trigger.at_step
        upstream = self.fired.get(trigger.after_stage)  # type: ignore[arg-type]
        return None if upstream is None else upstream + 1

    def active_injections(self, step: int) -> list[tuple[int, ThreatInjection]]:
        active = []
        for i, stage in enumerate(self.spec.stages):
            if stage.kind is not StageKind.INJECT:
                continue
            start = self.start_step(i)
            if start is not None and step >= start:
                assert stage.injection is not None
                active.append((i, stage.injection))
        return active

    def mark_fired(self, index: int, step: int) -> None:
        self.fired.setdefault(index, step)


# ---------------------------------------------------------------------------
# observation probes: (attacked step, baseline step) -> whether the probe hits


PROBES: dict[str, Callable[[StepRecord, StepRecord], bool]] = {
    "intent-caps-changed": lambda a, b: a.intent.active_caps_kph != b.intent.active_caps_kph,
    "intent-desired-changed": lambda a, b: a.intent.desired_speed_kph != b.intent.desired_speed_kph,
    "context-limit-changed": lambda a, b: a.dsa_context.speed_limit_kph != b.dsa_context.speed_limit_kph,
    "hazard-count-changed": lambda a, b: len(a.dsa_context.hazards) != len(b.dsa_context.hazards),
    "approved-target-below-baseline": lambda a, b: a.approved.target_speed_kph < b.approved.target_speed_kph,
    "route-pref-changed": lambda a, b: a.approved.route_pref != b.approved.route_pref,
}


@record
class StageDelta:
    """What one stage changed, relative to the paired baseline."""

    stage_index: int
    kind: StageKind
    label: str
    fired_step: int | None          # first effect (inject) or first probe hit
    changed_fields: tuple[str, ...]  # step-record fields attributed to this stage
    detail: str = ""


@record
class PropagationTrace:
    """The paired runs of a chain plus per-stage attribution and the stealth flag."""

    chain_id: str
    stage_deltas: tuple[StageDelta, ...]
    stealth: bool
    outcome: OutcomeClass
    attacked: EpisodeTrace
    baseline: EpisodeTrace


def run_chain(
    spec: ChainSpec,
    scenario: ScenarioConfig,
    seed: int | None = None,
) -> tuple[PropagationTrace, EpisodeTrace]:
    """Execute a chain over a scenario as a paired run and attribute deltas.

    The pair runs one episode of the chain's length over the scenario's
    requests, cycled. The baseline is the plain baseline of that scenario;
    the attacked run adds the chain's stages (and the scenario's own
    injections).
    """
    if not scenario.requests:
        raise ConfigError(scenario.id, f"no requests to drive {spec.episode_length} steps per episode")
    base = replace(scenario, episodes=1, requests=tuple(islice(cycle(scenario.requests), spec.episode_length)))
    schedule = ChainSchedule(spec)
    attacked = runner.run_episodes(base, with_injections=True, chain=schedule, seed=seed)
    baseline = runner.run_episodes(base, with_injections=False, seed=seed)

    deltas = step_deltas(attacked, baseline)
    all_changed: dict[int, set[str]] = {
        d.global_step: set(d.changed_paths) for d in deltas if d.changed_paths
    }

    stage_deltas = []
    for i, stage in enumerate(spec.stages):
        start = schedule.start_step(i)
        if start is None:
            stage_deltas.append(
                StageDelta(i, stage.kind, stage.label, None, (), detail="upstream stage never fired")
            )
        elif stage.kind is StageKind.INJECT:
            assert stage.injection is not None
            fired = schedule.fired.get(i)
            footprint = delta_footprint(stage.injection)
            touched = sorted(
                {
                    name
                    for step, names in all_changed.items()
                    if fired is not None and step >= fired
                    for name in names
                    if name in footprint
                }
            )
            stage_deltas.append(
                StageDelta(
                    i, stage.kind, stage.label, fired, tuple(touched),
                    detail=stage.injection.threat.value,
                )
            )
        else:
            probe = PROBES[stage.probe]  # type: ignore[index]
            hit = next(
                (a.global_step for a, b in zip(attacked.steps, baseline.steps)
                 if a.global_step >= start and probe(a, b)),
                None,
            )
            if hit is not None:
                schedule.mark_fired(i, hit)
            stage_deltas.append(
                StageDelta(i, stage.kind, stage.label, hit, (), detail=stage.probe or "")
            )

    stealth = stealth_check(attacked, baseline)
    propagation = PropagationTrace(
        chain_id=spec.id,
        stage_deltas=tuple(stage_deltas),
        stealth=stealth,
        outcome=_outcome(attacked, baseline, stealth),
        attacked=attacked,
        baseline=baseline,
    )
    return propagation, baseline


# ---------------------------------------------------------------------------
# the six shipped chains: spec files under data/chains, named by their ids

CHAIN_FOLDER = "data/chains"


def builtin_chains() -> list[ChainSpec]:
    """The four cross-role chains plus the two cross-layer illustrations, in id order."""
    return [load_chain_spec(path) for path in shipped_files(CHAIN_FOLDER).values()]


def builtin_chain(chain_id: str) -> ChainSpec:
    """A shipped chain by exact id or by a prefix that names one chain only; loads that file alone.
    KeyError when no shipped chain, or more than one, matches."""
    paths = shipped_files(CHAIN_FOLDER)
    matches = [chain_id] if chain_id in paths else [stem for stem in paths if stem.startswith(chain_id)]
    if not matches:
        raise KeyError("no shipped chain with this id or prefix")
    if len(matches) > 1:
        raise KeyError(f"ambiguous chain {chain_id!r} matches {', '.join(matches)}")
    return load_chain_spec(paths[matches[0]])
