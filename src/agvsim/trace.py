"""Episode traces: per-step snapshots, pairing checks, stealth, and deltas.

A baseline and an attacked run share seed and inputs except injections, so
field-wise diffs of their step records attribute exactly what each attack
changed. Stealth is the property that the SC verdict sequence is unchanged
relative to the paired baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .domain import MessageEnvelope, UserRequest, ContextSummary, VehicleFeedback
from .pipeline import IntentDescriptor, SafetyVerdict, StrategyProposal
from .serialize import canonical_json, digest_of, leaf_paths, to_jsonable
from .threats import InjectionEffectRecord, ToolOutput


class TracePairingError(ValueError):
    """Raised when two traces are compared that are not a baseline/attacked pair."""


@dataclass(frozen=True)
class StepRecord:
    """Everything observable about one pipeline step."""

    episode: int
    step: int            # within the episode
    global_step: int
    request: UserRequest                 # as the PA received it (post attacks)
    pa_context: ContextSummary
    dsa_context: ContextSummary
    feedback: VehicleFeedback
    tool_output: ToolOutput
    intent: IntentDescriptor
    submissions: tuple[StrategyProposal, ...]
    verdicts: tuple[SafetyVerdict, ...]
    approved: StrategyProposal
    envelopes: tuple[MessageEnvelope, ...]
    rejected_envelopes: int              # refused admission this step
    spoofed_envelopes: int               # claimed_sender != sender this step
    user_queries: int
    policies: tuple[str, str]            # (pa, dsa) policy names
    memory_digest: str
    tuning_digest: str
    admission_digest: str
    log_digest: str
    effects: tuple[InjectionEffectRecord, ...] = ()

    def comparable_view(self) -> dict:
        """JSON-able view used for paired diffs; excludes the oracle trail."""
        view = to_jsonable(self)
        assert isinstance(view, dict)
        view.pop("effects")
        view["envelope_count"] = len(self.envelopes)
        view.pop("envelopes")  # envelope content mirrors other fields
        return view


@dataclass(frozen=True)
class EpisodeTrace:
    """Deterministic record of one scenario run (all episodes)."""

    scenario_id: str
    seed: int
    injected: bool
    episodes: int
    steps_per_episode: int
    steps: tuple[StepRecord, ...]
    world_digest_before: str
    world_digest_after: str

    def verdict_sequence(self) -> tuple[str, ...]:
        return tuple(v.decision.value for record in self.steps for v in record.verdicts)

    def approved_targets(self) -> tuple[float, ...]:
        return tuple(record.approved.target_speed_kph for record in self.steps)

    def episode_steps(self, episode: int) -> tuple[StepRecord, ...]:
        return tuple(r for r in self.steps if r.episode == episode)

    def digest(self) -> str:
        return digest_of(self)

    def to_json(self, indent: int | None = 2) -> str:
        return canonical_json(self, indent=indent)


def check_paired(attacked: EpisodeTrace, baseline: EpisodeTrace) -> None:
    """Reject comparisons of traces that do not form a baseline/attacked pair."""
    if attacked.scenario_id != baseline.scenario_id:
        raise TracePairingError(
            f"unpaired traces: scenario {attacked.scenario_id!r} vs {baseline.scenario_id!r}"
        )
    if attacked.seed != baseline.seed:
        raise TracePairingError(f"unpaired traces: seed {attacked.seed} vs {baseline.seed}")
    if len(attacked.steps) != len(baseline.steps):
        raise TracePairingError(
            f"unpaired traces: {len(attacked.steps)} vs {len(baseline.steps)} steps"
        )


def stealth_check(attacked: EpisodeTrace, baseline: EpisodeTrace) -> bool:
    """True iff the SC verdict sequence is identical to the paired baseline."""
    check_paired(attacked, baseline)
    return attacked.verdict_sequence() == baseline.verdict_sequence()


@dataclass(frozen=True)
class StepDelta:
    """Leaf-level differences between paired step records."""

    episode: int
    step: int
    global_step: int
    changed_paths: tuple[str, ...]

    def prefixes(self) -> set[str]:
        return {path.split(".", 1)[0] for path in self.changed_paths}


# the fields of `comparable_view` that are diffed leaf by leaf
_DIFFED_FIELDS = tuple(f.name for f in fields(StepRecord) if f.name not in ("envelopes", "effects"))


def step_deltas(attacked: EpisodeTrace, baseline: EpisodeTrace) -> list[StepDelta]:
    """Field-wise diff of every paired step, in step order.

    Gives the leaf paths on which the two records' `comparable_view`s differ.
    Every field is a frozen dataclass, tuple, string or number, so equal
    fields have equal leaves: only a field that differs is flattened.
    """
    check_paired(attacked, baseline)
    deltas = []
    for a, b in zip(attacked.steps, baseline.steps):
        changed = []
        for name in _DIFFED_FIELDS:
            a_value, b_value = getattr(a, name), getattr(b, name)
            if a_value == b_value:
                continue
            a_leaves = leaf_paths(to_jsonable(a_value), name)
            b_leaves = leaf_paths(to_jsonable(b_value), name)
            changed.extend(
                path
                for path in a_leaves.keys() | b_leaves.keys()
                if a_leaves.get(path) != b_leaves.get(path)
            )
        if len(a.envelopes) != len(b.envelopes):
            changed.append("envelope_count")
        deltas.append(
            StepDelta(
                episode=a.episode,
                step=a.step,
                global_step=a.global_step,
                changed_paths=tuple(sorted(changed)),
            )
        )
    return deltas
