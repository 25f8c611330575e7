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
from dataclasses import field
from enum import Enum

from .domain import (
    FIELD_RANGES, URGENT, ContextSummary, PipelineError, Role, UserRequest, VehicleFeedback, ranged, record,
)
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


# Loading an enum member through its class costs several times a plain
# global load (`EnumType` defines `__getattr__`), and `.value` is a property;
# so the agents and the SC read their members from module constants and a
# member's text from one member -> text table per enum.
_CONSTRAINT = MemoryKind.CONSTRAINT


@record
class MemoryEntry:
    """One long-term memory item: a keyed number, its kind, its origin and the step it came in."""

    key: str
    kind: MemoryKind
    value: float
    origin: Role
    inserted_step: int
    persistent: bool = False  # carried across episodes only when set


@record
class MemoryStore:
    """Long-term memory as a value: nothing edits a store, `adopt` returns another; equal entries, equal stores."""

    entries: tuple[MemoryEntry, ...] = ()
    _digest: str = field(default="", init=False, compare=False, repr=False)  # of `entries`, when first asked for

    def adopt(self, entry: MemoryEntry) -> MemoryStore:
        """This store when an entry with the same key, value and origin is held, else one with `entry` added."""
        if any(e.key == entry.key and e.value == entry.value and e.origin is entry.origin for e in self.entries):
            return self
        return MemoryStore(self.entries + (entry,))

    def speed_caps(self) -> list[tuple[str, float]]:
        """All speed-cap constraint entries as (key, kph), insertion order."""
        return [
            (e.key, float(e.value))
            for e in self.entries
            if e.kind is _CONSTRAINT and e.key == SPEED_CAP_KEY
        ]

    def carry_over(self) -> MemoryStore:
        """The store of the entries flagged persistent: this one, digest and all, when every entry is."""
        if all(e.persistent for e in self.entries):
            return self
        return MemoryStore(tuple(e for e in self.entries if e.persistent))

    def digest(self) -> str:
        if not self._digest:
            object.__setattr__(self, "_digest", digest_of(
                [[e.key, e.kind, repr(e.value), e.origin, e.inserted_step, e.persistent] for e in self.entries]
            ))
        return self._digest


@record
class IntentDescriptor:
    """PA output: abstract goals only, never maneuvers."""

    desired_speed_kph: float
    urgency: float = ranged(0.0, 1.0)
    comfort_weight: float = ranged(0.0, 1.0)
    destination_tag: str
    active_caps_kph: tuple[float, ...] = ()
    derived_from: tuple[str, ...] = ()  # memory keys consulted

    def __post_init__(self) -> None:
        if self.desired_speed_kph <= 0:
            raise ValueError(f"desired speed must be > 0, got {self.desired_speed_kph}")

    @property
    def effective_cap(self) -> float | None:
        return min(self.active_caps_kph) if self.active_caps_kph else None


class LaneChange(str, Enum):
    NONE = "None"
    LEFT = "Left"
    RIGHT = "Right"


_NO_LANE_CHANGE = LaneChange.NONE


@record
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


_APPROVE, _REVISE, _SUBSTITUTE = Decision.APPROVE, Decision.REVISE, Decision.SUBSTITUTE
DECISION_TEXT = {d: d.value for d in Decision}  # what the trace and the report write for each decision


@record
class SafetyVerdict:
    """The SC's answer to one proposal: approve, revise with the first violated rule, or substitute."""

    decision: Decision
    reason: str = ""  # first violated rule id; empty on Approve
    substitute: StrategyProposal | None = None

    def __post_init__(self) -> None:
        if self.decision is _APPROVE and self.reason:
            raise ValueError("Approve verdicts carry no reason")
        if self.decision is _SUBSTITUTE and self.substitute is None:
            raise ValueError("Substitute verdicts must carry a substitute proposal")


@record
class Rulebook:
    """Fixed physical/regulatory envelopes enforced by the SC."""

    abs_max_speed_kph: float = 130.0
    max_accel_mps2: float = 3.0
    min_headway_s: float = 1.0

    def __post_init__(self) -> None:
        for name in ("abs_max_speed_kph", "max_accel_mps2", "min_headway_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"rulebook bound {name} must be > 0")


_URGENCY, _KNOB = FIELD_RANGES[IntentDescriptor]["urgency"], (1e-3, 1e3)


@record
class AgentTuning:
    """Calibration knobs of the rule agents (frozen: a remote-code-execution
    style attack, T11, replaces the tuning with a copy that differs in
    exactly one field, so a changed tuning is a new object; a knob it sets
    to the value held, written alike, keeps the tuning it found).

    Each knob is ranged: an urgency takes the intent's urgency range, and
    every other knob one range, narrow enough that products of knobs and
    speeds stay finite and > 0."""

    pa_routine_factor: float = ranged(*_KNOB, default=0.9)  # routine trips aim below the limit
    pa_routine_urgency: float = ranged(*_URGENCY, default=0.4)
    pa_urgent_urgency: float = ranged(*_URGENCY, default=1.0)
    dsa_hazard_confidence_min: float = ranged(*_KNOB, default=0.5)
    dsa_hazard_distance_m: float = ranged(*_KNOB, default=100.0)
    dsa_slowdown_factor: float = ranged(*_KNOB, default=0.5)  # hazard / degraded-profile multiplier
    dsa_headway_base_s: float = ranged(*_KNOB, default=1.0)


def max_delta_kph(rules: Rulebook) -> float:
    """The widest speed-target jump the acceleration rule admits, shrunk
    fractionally so values clamped to it re-validate despite float rounding."""
    return rules.max_accel_mps2 * ACCEL_WINDOW_S * KPH_PER_MPS * (1.0 - 1e-9)


def rule_boxes(speed_kph: float, claimed_limit_kph: float, rules: Rulebook) -> dict[str, tuple[float, float, float]]:
    """Each SC rule's box `(least target, greatest target, least headway)` at a
    reported speed under a claimed limit, keyed by rule id in check order: a
    proposal inside a rule's box keeps that rule."""
    delta = max_delta_kph(rules)
    return {
        RULE_ABS_MAX: (-math.inf, rules.abs_max_speed_kph, 0.0),
        RULE_CONTEXT_LIMIT: (-math.inf, claimed_limit_kph, 0.0),
        RULE_MAX_ACCEL: (max(0.0, speed_kph - delta), speed_kph + delta, 0.0),
        RULE_MIN_HEADWAY: (-math.inf, math.inf, rules.min_headway_s),
    }


def speed_window(speed_kph: float, claimed_limit_kph: float, rules: Rulebook) -> tuple[float, float]:
    """The SC's feasible targets `(lo, hi)`: the intersection of the rule boxes'
    target ranges. Empty when lo > hi."""
    los, his, _ = zip(*rule_boxes(speed_kph, claimed_limit_kph, rules).values())
    return max(los), min(his)


def revised(proposal: StrategyProposal, target: float, headway: float, cause: tuple[str, str]) -> StrategyProposal:
    """`proposal` with a new target and headway, citing `cause` (input id, rule id) last."""
    justification = proposal.justification + (cause,)
    return StrategyProposal(target, headway, proposal.lane_change_intent, proposal.route_pref, justification)


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
    elif request.urgency_tag == URGENT:
        desired = context.speed_limit_kph
    else:
        desired = round_half_up(tuning.pa_routine_factor * context.speed_limit_kph)
        if desired <= 0:  # rounding may hit zero on sub-1 kph limits
            desired = tuning.pa_routine_factor * context.speed_limit_kph
    urgency = tuning.pa_urgent_urgency if request.urgency_tag == URGENT else tuning.pa_routine_urgency
    caps = memory.speed_caps()
    keys, values = zip(*caps) if caps else ((), ())
    # desired speed, urgency, comfort weight, destination, caps and the memory keys they came from
    return IntentDescriptor(desired, urgency, round(1.0 - urgency, 6), request.destination, values, keys)


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

    desired, cap, limit = intent.desired_speed_kph, intent.effective_cap, context.speed_limit_kph
    target = min(desired, limit) if cap is None else min(desired, cap, limit)
    justification: list[tuple[str, str]] = []
    if desired == target:
        justification.append(("intent.desired_speed_kph", "target-min"))
    if cap == target:
        justification.append(("intent.effective_cap", "target-min"))
    if limit == target:
        justification.append(("context.speed_limit_kph", "target-min"))

    for h in context.hazards:
        if h.confidence >= tuning.dsa_hazard_confidence_min and h.distance_m <= tuning.dsa_hazard_distance_m:
            target *= tuning.dsa_slowdown_factor
            justification.append(("context.hazards", "hazard-slowdown"))
            break

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

    return StrategyProposal(target, headway, _NO_LANE_CHANGE, route, tuple(justification))


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
    than hidden state), it substitutes the proposal clamped to all bounds,
    unless the speed window is empty (e.g. the claimed limit is out of one
    acceleration window's reach): then it keeps revising.
    """
    violations = sc_violations(proposal, feedback, rules, context_limit_claimed)
    if not violations:
        return SafetyVerdict(_APPROVE)
    reason = violations[0]
    if revision_count >= 1:
        lo, hi = speed_window(feedback.speed_kph, context_limit_claimed, rules)
        if not (hi <= 0 or lo > hi):
            target, headway = min(max(proposal.target_speed_kph, lo), hi), max(proposal.headway_s, rules.min_headway_s)
            substitute = revised(proposal, target, headway, ("sc.bounds", "clamp-" + reason))
            if not sc_violations(substitute, feedback, rules, context_limit_claimed):
                return SafetyVerdict(_SUBSTITUTE, reason, substitute)
    return SafetyVerdict(_REVISE, reason)


def tighten_proposal(
    proposal: StrategyProposal,
    reason: str,
    feedback: VehicleFeedback,
    rules: Rulebook,
    context_limit_claimed: float,
) -> StrategyProposal:
    """DSA's single resubmission: clamp the proposal into the box of the violated rule."""
    lo, hi, least_headway = rule_boxes(feedback.speed_kph, context_limit_claimed, rules)[reason]
    target, headway = min(max(proposal.target_speed_kph, lo), hi), max(proposal.headway_s, least_headway)
    return revised(proposal, target, headway, ("sc.verdict", "tightened-" + reason))


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
    first = sc_validate(proposal, feedback, rules, context_limit_claimed)
    if first.decision is _APPROVE:
        return (proposal,), (first,), proposal

    resubmitted = tighten_proposal(proposal, first.reason, feedback, rules, context_limit_claimed)
    second = sc_validate(resubmitted, feedback, rules, context_limit_claimed, revision_count=1)
    submissions, verdicts = (proposal, resubmitted), (first, second)
    if second.decision is _APPROVE:
        return submissions, verdicts, resubmitted
    if second.decision is _SUBSTITUTE:
        assert second.substitute is not None
        return submissions, verdicts, second.substitute
    raise PipelineError(
        f"no rule-compliant proposal reachable (last violation: {second.reason})"
    )

