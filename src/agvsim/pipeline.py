"""Rule-based Personal Agent, Driving Strategy Agent, and Safety Check.

The three stages compose into a forward pipeline: the PA turns a user request
plus memory into an abstract intent, the DSA turns intent plus context into a
policy-level proposal, and the stateless SC gates the proposal against a fixed
rulebook. The SC reads only what the proposal and the claimed context say; it
never sees ground truth, which is exactly why semantically corrupted but
physically safe proposals sail through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .domain import ContextSummary, PipelineError, Role, UserRequest, VehicleFeedback
from .serialize import digest_of

KPH_PER_MPS = 3.6
# Horizon over which the SC converts a speed-target jump into an implied
# acceleration. Pure convention; the rulebook bound is in m/s^2.
ACCEL_WINDOW_S = 10.0

SPEED_CAP_KEY = "speed_cap_kph"

# SC rule identifiers, in check order. Revise reports the first violated one.
RULE_ABS_MAX = "abs_max"
RULE_CONTEXT_LIMIT = "context_limit"
RULE_MAX_ACCEL = "max_accel"
RULE_MIN_HEADWAY = "min_headway"


class MemoryKind(str, Enum):
    PREFERENCE = "Preference"
    CONSTRAINT = "Constraint"
    HISTORY = "History"


@dataclass(frozen=True)
class MemoryEntry:
    key: str
    kind: MemoryKind
    value: object
    origin: Role
    inserted_step: int
    persistent: bool = False  # carried across episodes only when set


class MemoryStore:
    """Long-term memory as a value: nothing edits a store, `adopt` returns another."""

    def __init__(self, entries: tuple[MemoryEntry, ...] = ()) -> None:
        self.entries = tuple(entries)
        self._digest: str | None = None  # of `entries`, taken when first asked for

    def adopt(self, entry: MemoryEntry) -> MemoryStore:
        """This store when an entry with the same key, value and origin is held, else one with `entry` added."""
        if any(e.key == entry.key and e.value == entry.value and e.origin is entry.origin for e in self.entries):
            return self
        return MemoryStore(self.entries + (entry,))

    def speed_caps(self) -> list[tuple[str, float]]:
        """All speed-cap constraint entries as (key, kph), insertion order."""
        return [
            (e.key, float(e.value))  # type: ignore[arg-type]
            for e in self.entries
            if e.kind is MemoryKind.CONSTRAINT and e.key == SPEED_CAP_KEY
        ]

    def carry_over(self) -> MemoryStore:
        """The store of the entries flagged persistent: this one, digest and all, when every entry is."""
        if all(e.persistent for e in self.entries):
            return self
        return MemoryStore(tuple(e for e in self.entries if e.persistent))

    def digest(self) -> str:
        if self._digest is None:
            self._digest = digest_of(
                [[e.key, e.kind, repr(e.value), e.origin, e.inserted_step, e.persistent] for e in self.entries]
            )
        return self._digest


@dataclass(frozen=True)
class IntentDescriptor:
    """PA output: abstract goals only, never maneuvers."""

    desired_speed_kph: float
    urgency: float               # [0, 1]
    comfort_weight: float        # [0, 1]
    destination_tag: str
    active_caps_kph: tuple[float, ...] = ()
    derived_from: tuple[str, ...] = ()  # memory keys consulted

    def __post_init__(self) -> None:
        if self.desired_speed_kph <= 0:
            raise ValueError(f"desired speed must be > 0, got {self.desired_speed_kph}")
        if not 0.0 <= self.urgency <= 1.0:
            raise ValueError(f"urgency must be in [0, 1], got {self.urgency}")
        if not 0.0 <= self.comfort_weight <= 1.0:
            raise ValueError(f"comfort weight must be in [0, 1], got {self.comfort_weight}")

    @property
    def effective_cap(self) -> float | None:
        return min(self.active_caps_kph) if self.active_caps_kph else None


class LaneChange(str, Enum):
    NONE = "None"
    LEFT = "Left"
    RIGHT = "Right"


@dataclass(frozen=True)
class StrategyProposal:
    """DSA output: target speed, spacing, and route intent with a rule trace."""

    target_speed_kph: float
    headway_s: float
    lane_change_intent: LaneChange = LaneChange.NONE
    route_pref: str = "default"
    justification: tuple[tuple[str, str], ...] = ()  # (input-id, rule-id) pairs

    def __post_init__(self) -> None:
        if self.target_speed_kph <= 0:
            raise ValueError(f"target speed must be > 0, got {self.target_speed_kph}")
        if self.headway_s < 0.5:
            raise ValueError(f"headway must be >= 0.5 s, got {self.headway_s}")
        if not self.justification:
            raise ValueError("justification must be non-empty")


class Decision(str, Enum):
    APPROVE = "Approve"
    REVISE = "Revise"
    SUBSTITUTE = "Substitute"


@dataclass(frozen=True)
class SafetyVerdict:
    decision: Decision
    reason: str = ""  # first violated rule id; empty on Approve
    substitute: StrategyProposal | None = None

    def __post_init__(self) -> None:
        if self.decision is Decision.APPROVE and self.reason:
            raise ValueError("Approve verdicts carry no reason")
        if self.decision is Decision.SUBSTITUTE and self.substitute is None:
            raise ValueError("Substitute verdicts must carry a substitute proposal")


@dataclass(frozen=True)
class Rulebook:
    """Fixed physical/regulatory envelopes enforced by the SC."""

    abs_max_speed_kph: float = 130.0
    max_accel_mps2: float = 3.0
    min_headway_s: float = 1.0

    def __post_init__(self) -> None:
        for name in ("abs_max_speed_kph", "max_accel_mps2", "min_headway_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"rulebook bound {name} must be > 0")


@dataclass(frozen=True)
class AgentTuning:
    """Calibration knobs of the rule agents (frozen: a remote-code-execution
    style attack, T11, replaces the tuning with a copy that differs in
    exactly one field, so a changed tuning is a new object)."""

    pa_routine_factor: float = 0.9       # routine trips aim below the limit
    pa_routine_urgency: float = 0.4
    pa_urgent_urgency: float = 1.0
    dsa_hazard_confidence_min: float = 0.5
    dsa_hazard_distance_m: float = 100.0
    dsa_slowdown_factor: float = 0.5     # hazard / degraded-profile multiplier
    dsa_headway_base_s: float = 1.0

    def field_names(self) -> tuple[str, ...]:
        return tuple(self.__dataclass_fields__)

    @staticmethod
    def knob_range(name: str) -> tuple[float, float]:
        """The closed range a knob accepts: [0, 1] for an urgency, as for the intent's;
        [0.001, 1000] for the others, so products of knobs and speeds stay finite and > 0."""
        return (0.0, 1.0) if name.endswith("_urgency") else (1e-3, 1e3)


def max_delta_kph(rules: Rulebook) -> float:
    """The widest speed-target jump the acceleration rule admits, shrunk
    fractionally so values clamped to it re-validate despite float rounding."""
    return rules.max_accel_mps2 * ACCEL_WINDOW_S * KPH_PER_MPS * (1.0 - 1e-9)


def round_half_up(value: float) -> float:
    return math.floor(value + 0.5)


def pa_interpret(
    request: UserRequest,
    memory: MemoryStore,
    context: ContextSummary,
    tuning: AgentTuning | None = None,
) -> IntentDescriptor:
    """Interpret a user request into an abstract intent descriptor.

    Desired speed: the explicit request value when given; otherwise the
    claimed speed limit for urgent trips, or routine_factor * limit rounded
    to the nearest 1 kph for routine ones (kept positive on degenerate
    limits). All speed-cap constraints in memory become active caps.
    """
    tuning = tuning or AgentTuning()
    if request.desired_speed_kph is not None:
        desired = float(request.desired_speed_kph)
    elif request.urgency_tag == "Urgent":
        desired = context.speed_limit_kph
    else:
        desired = round_half_up(tuning.pa_routine_factor * context.speed_limit_kph)
        if desired <= 0:  # rounding may hit zero on sub-1 kph limits
            desired = tuning.pa_routine_factor * context.speed_limit_kph
    urgency = tuning.pa_urgent_urgency if request.urgency_tag == "Urgent" else tuning.pa_routine_urgency
    caps = memory.speed_caps()
    return IntentDescriptor(
        desired_speed_kph=desired,
        urgency=urgency,
        comfort_weight=round(1.0 - urgency, 6),
        destination_tag=request.destination,
        active_caps_kph=tuple(value for _, value in caps),
        derived_from=tuple(key for key, _ in caps),
    )


def dsa_propose(
    intent: IntentDescriptor,
    context: ContextSummary,
    feedback: VehicleFeedback,
    rules: Rulebook | None = None,
    tuning: AgentTuning | None = None,
) -> StrategyProposal:
    """Turn intent plus context into a policy-level proposal.

    Target speed is the minimum of desired speed, effective memory cap, and
    the claimed speed limit; a credible nearby hazard or a heavy-braking
    feedback reading further halves it. The justification cites every input
    that bound the minimum plus each extra rule that fired.
    """
    tuning = tuning or AgentTuning()
    rules = rules or Rulebook()

    candidates: list[tuple[str, float]] = [("intent.desired_speed_kph", intent.desired_speed_kph)]
    if intent.effective_cap is not None:
        candidates.append(("intent.effective_cap", intent.effective_cap))
    candidates.append(("context.speed_limit_kph", context.speed_limit_kph))

    target = min(value for _, value in candidates)
    justification: list[tuple[str, str]] = [
        (input_id, "target-min") for input_id, value in candidates if value == target
    ]

    if any(
        h.confidence >= tuning.dsa_hazard_confidence_min
        and h.distance_m <= tuning.dsa_hazard_distance_m
        for h in context.hazards
    ):
        target *= tuning.dsa_slowdown_factor
        justification.append(("context.hazards", "hazard-slowdown"))

    if feedback.braking >= 0.5:  # reported heavy braking -> degraded profile
        target *= tuning.dsa_slowdown_factor
        justification.append(("feedback.braking", "degraded-profile"))

    headway = max(rules.min_headway_s, tuning.dsa_headway_base_s + context.traffic_density)
    justification.append(("context.traffic_density", "headway-spacing"))

    if context.closures:
        route = "detour-around-" + sorted(context.closures)[0]
        justification.append(("context.closures", "route-detour"))
    else:
        route = "default"

    return StrategyProposal(
        target_speed_kph=target,
        headway_s=headway,
        lane_change_intent=LaneChange.NONE,
        route_pref=route,
        justification=tuple(justification),
    )


def sc_violations(
    proposal: StrategyProposal,
    feedback: VehicleFeedback,
    rules: Rulebook,
    context_limit_claimed: float,
) -> list[str]:
    """All violated rule ids, in fixed check order."""
    violations = []
    if proposal.target_speed_kph > rules.abs_max_speed_kph:
        violations.append(RULE_ABS_MAX)
    if proposal.target_speed_kph > context_limit_claimed:
        violations.append(RULE_CONTEXT_LIMIT)
    implied_accel = abs(proposal.target_speed_kph - feedback.speed_kph) / KPH_PER_MPS / ACCEL_WINDOW_S
    if implied_accel > rules.max_accel_mps2:
        violations.append(RULE_MAX_ACCEL)
    if proposal.headway_s < rules.min_headway_s:
        violations.append(RULE_MIN_HEADWAY)
    return violations


def _clamped_substitute(
    proposal: StrategyProposal,
    feedback: VehicleFeedback,
    rules: Rulebook,
    context_limit_claimed: float,
    reason: str,
) -> StrategyProposal | None:
    """Conservative clamp of the proposal into the SC-feasible box.

    Returns None when the box is empty (e.g. the claimed limit is
    unreachable within the acceleration window), in which case the SC keeps
    revising instead of emitting a non-compliant substitute.
    """
    delta = max_delta_kph(rules)
    lo = max(0.0, feedback.speed_kph - delta)
    hi = min(rules.abs_max_speed_kph, context_limit_claimed, feedback.speed_kph + delta)
    if hi <= 0 or lo > hi:
        return None
    target = min(max(proposal.target_speed_kph, lo), hi)
    if target <= 0:
        return None
    return replace(
        proposal,
        target_speed_kph=target,
        headway_s=max(proposal.headway_s, rules.min_headway_s),
        justification=proposal.justification + (("sc.bounds", "clamp-" + reason),),
    )


def sc_validate(
    proposal: StrategyProposal,
    feedback: VehicleFeedback,
    rules: Rulebook,
    context_limit_claimed: float,
    revision_count: int = 0,
) -> SafetyVerdict:
    """Deterministic, stateless safety gate.

    Approves iff every rulebook bound holds against the *claimed* context
    limit (ground truth is invisible here by design). Otherwise revises with
    the first violated rule id; once one revision has already happened for
    this proposal lineage (`revision_count` >= 1, an explicit input rather
    than hidden state), it substitutes the proposal clamped to all bounds.
    """
    violations = sc_violations(proposal, feedback, rules, context_limit_claimed)
    if not violations:
        return SafetyVerdict(decision=Decision.APPROVE)
    reason = violations[0]
    if revision_count >= 1:
        substitute = _clamped_substitute(proposal, feedback, rules, context_limit_claimed, reason)
        if substitute is not None and not sc_violations(substitute, feedback, rules, context_limit_claimed):
            return SafetyVerdict(decision=Decision.SUBSTITUTE, reason=reason, substitute=substitute)
    return SafetyVerdict(decision=Decision.REVISE, reason=reason)


def tighten_proposal(
    proposal: StrategyProposal,
    reason: str,
    feedback: VehicleFeedback,
    rules: Rulebook,
    context_limit_claimed: float,
) -> StrategyProposal:
    """DSA's single resubmission: pull the violated bound into compliance."""
    target = proposal.target_speed_kph
    headway = proposal.headway_s
    if reason == RULE_ABS_MAX:
        target = min(target, rules.abs_max_speed_kph)
    elif reason == RULE_CONTEXT_LIMIT:
        target = min(target, context_limit_claimed)
    elif reason == RULE_MAX_ACCEL:
        delta = max_delta_kph(rules)
        target = min(max(target, feedback.speed_kph - delta, 0.0), feedback.speed_kph + delta)
    elif reason == RULE_MIN_HEADWAY:
        headway = rules.min_headway_s
    return replace(
        proposal,
        target_speed_kph=target,
        headway_s=headway,
        justification=proposal.justification + (("sc.verdict", "tightened-" + reason),),
    )


def validate_with_revision(
    proposal: StrategyProposal,
    feedback: VehicleFeedback,
    rules: Rulebook,
    context_limit_claimed: float,
) -> tuple[tuple[StrategyProposal, ...], tuple[SafetyVerdict, ...], StrategyProposal]:
    """Submit a proposal to the SC, resubmitting once on Revise.

    Returns (submissions, verdicts, approved). The approved proposal always
    satisfies every SC rule; an unsatisfiable step raises PipelineError.
    """
    submissions = [proposal]
    verdicts = [sc_validate(proposal, feedback, rules, context_limit_claimed)]
    if verdicts[0].decision is Decision.APPROVE:
        return tuple(submissions), tuple(verdicts), proposal

    revised = tighten_proposal(proposal, verdicts[0].reason, feedback, rules, context_limit_claimed)
    submissions.append(revised)
    second = sc_validate(revised, feedback, rules, context_limit_claimed, revision_count=1)
    verdicts.append(second)
    if second.decision is Decision.APPROVE:
        return tuple(submissions), tuple(verdicts), revised
    if second.decision is Decision.SUBSTITUTE:
        assert second.substitute is not None
        return tuple(submissions), tuple(verdicts), second.substitute
    raise PipelineError(
        f"no rule-compliant proposal reachable (last violation: {second.reason})"
    )

