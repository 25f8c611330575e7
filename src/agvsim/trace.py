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
from .serialize import canonical_json
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

    def to_json(self) -> str:
        return canonical_json(self)


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
    """The step-record fields on which paired steps differ."""

    episode: int
    step: int
    global_step: int
    changed_paths: tuple[str, ...]  # field names, sorted


# the fields compared: all but the oracle trail and the envelopes, whose
# content mirrors other fields and of which only the count is compared
_DIFFED_FIELDS = tuple(f.name for f in fields(StepRecord) if f.name not in ("envelopes", "effects"))


def step_deltas(attacked: EpisodeTrace, baseline: EpisodeTrace) -> list[StepDelta]:
    """Field-wise diff of every paired step, in step order.

    Gives the names of the fields on which the two records differ, with
    `envelope_count` standing for the envelopes.
    """
    check_paired(attacked, baseline)
    deltas = []
    for a, b in zip(attacked.steps, baseline.steps):
        changed = [name for name in _DIFFED_FIELDS if getattr(a, name) != getattr(b, name)]
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
