"""Registry of the fifteen agentic threats and four cross-layer vectors.

Each threat id has exactly one `ThreatSpec` in `THREATS`: its legal
surfaces, implied layer, payload validator, injector and delta footprint.
An injector is a deterministic edit of one attack surface inside the
per-step pipeline state, recorded with before/after digests so the harness
keeps attacker ground truth while the pipeline stays oblivious. Illegal
(threat, surface) pairs are rejected when a scenario is loaded, never at run
time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

from .cavstack import (
    Layer,
    LayerPerturbation,
    TransformOp,
    apply_feedback_transform,
    apply_summary_transform,
    validate_perturbation,
)
from .domain import (
    Authority,
    ContextSummary,
    DEFAULT_ADMISSION,
    Hazard,
    MAX_SPEED_LIMIT_KPH,
    MessageEnvelope,
    Role,
    ThreatId,
    UserRequest,
    VehicleFeedback,
)
from .pipeline import (
    AgentTuning,
    IntentDescriptor,
    MemoryEntry,
    MemoryKind,
    MemoryStore,
    Rulebook,
    SPEED_CAP_KEY,
    StrategyProposal,
    dsa_propose,
    pa_interpret,
)
from .serialize import ListDigest, digest_of


class Surface(str, Enum):
    PA_MEMORY = "PAMemory"
    PA_INPUT = "PAInput"
    TOOL_OUTPUT = "ToolOutput"
    INTER_AGENT_MSG = "InterAgentMsg"
    IDENTITY_FIELD = "IdentityField"
    DSA_WEIGHTS = "DSAWeights"
    AGENT_POLICY = "AgentPolicy"
    USER_CHANNEL = "UserChannel"
    LOGS = "Logs"
    LAYER = "Layer"


@dataclass(frozen=True)
class ThreatInjection:
    """A tagged perturbation: threat id, target surface, payload, window."""

    threat: ThreatId
    surface: Surface
    payload: dict
    window: tuple[int, int] = (0, 0)  # [start, end] inclusive, global steps
    persistent: bool = False
    layer: Layer | None = None  # only meaningful on the Layer surface

    def active(self, step: int) -> bool:
        return self.window[0] <= step <= self.window[1]


@dataclass(frozen=True)
class InjectionEffectRecord:
    """Oracle trail: one record per applied injection per step."""

    threat: ThreatId
    step: int
    surface: Surface
    before_digest: str
    after_digest: str
    note: str = ""
    warning: bool = False


@dataclass(frozen=True)
class ToolOutput:
    """What the PA's navigation/infrastructure tool returned this step."""

    advised_speed_kph: float | None = None
    route_hint: str = ""
    source: str = "nav-service"


# The simulated user answers at most this many queries per step; anything
# past the budget degrades to the default answer.
USER_ATTENTION_BUDGET = 3
DEFAULT_URGENCY = "Routine"


@dataclass
class SimulatedUserState:
    """Deterministic scripted user: attention budget plus optional biases."""

    rng: random.Random
    noise_queries: int = 0          # extra confirmations injected this step
    framing_bias: float = 0.0       # probability of adopting the agent framing
    framing_answer: str = DEFAULT_URGENCY
    queries_asked: int = 0
    answers_given: int = 0

    def reset_step(self) -> None:
        self.noise_queries = 0
        self.queries_asked = 0
        self.answers_given = 0


def confirm_urgency(user: SimulatedUserState, true_tag: str) -> str:
    """One urgency-confirmation round trip, after any injected noise queries."""
    for _ in range(user.noise_queries):
        user.queries_asked += 1
        if user.answers_given < USER_ATTENTION_BUDGET:
            user.answers_given += 1
    user.queries_asked += 1
    if user.answers_given >= USER_ATTENTION_BUDGET:
        return DEFAULT_URGENCY  # overloaded: rushed default instead of intent
    user.answers_given += 1
    if user.framing_bias > 0.0 and user.rng.random() < user.framing_bias:
        return user.framing_answer
    return true_tag


PA_POLICIES = ("default", "rogue-urgent")
DSA_POLICIES = ("default", "rogue-crawl", "rogue-speedster")


def run_pa_policy(
    name: str,
    request: UserRequest,
    memory: MemoryStore,
    context: ContextSummary,
    tuning: AgentTuning,
) -> IntentDescriptor:
    if name == "rogue-urgent":
        # rogue PA reframes every trip as maximally urgent
        request = replace(request, urgency_tag="Urgent", desired_speed_kph=None)
    return pa_interpret(request, memory, context, tuning)


def run_dsa_policy(
    name: str,
    weights: dict | None,
    intent: IntentDescriptor,
    context: ContextSummary,
    feedback: VehicleFeedback,
    rules: Rulebook,
    tuning: AgentTuning,
) -> StrategyProposal:
    proposal = dsa_propose(intent, context, feedback, rules, tuning)
    if name == "rogue-crawl":
        proposal = replace(
            proposal,
            target_speed_kph=proposal.target_speed_kph * 0.5,
            justification=proposal.justification + (("policy.override", "rogue-crawl"),),
        )
    elif name == "rogue-speedster":
        proposal = replace(
            proposal,
            target_speed_kph=150.0,
            justification=proposal.justification + (("policy.override", "rogue-speedster"),),
        )
    if weights:
        proposal = replace(
            proposal,
            target_speed_kph=proposal.target_speed_kph * weights["speed_weight"],
            headway_s=proposal.headway_s * weights.get("headway_scale", 1.0),
            justification=proposal.justification + (("policy.weights", "preference-reweighted"),),
        )
    return proposal


class MessageLog:
    """The run's message log: append-only, except that T8 cuts provenance.

    `digest()` equals `digest_of(list(log))` but serialises each entry about
    once over the whole run. Envelopes are frozen, no applier edits a payload
    in place, and T8 only ever shortens provenance to its last hop, so an
    entry with at most one hop can never change again: the longest prefix of
    such entries is settled into a running `ListDigest`, and each digest
    serialises only the tail after it.
    """

    def __init__(self) -> None:
        self._entries: list[MessageEnvelope] = []
        self._settled = ListDigest()  # holds entries[:settled_count], each with <= 1 hop
        self._settled_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def extend(self, envelopes: list[MessageEnvelope]) -> None:
        self._entries.extend(envelopes)

    def since(self, start: int) -> tuple[MessageEnvelope, ...]:
        return tuple(self._entries[start:])

    def strip_provenance(self) -> int:
        """Cut every entry's provenance to its last hop; returns how many entries changed."""
        stripped = 0
        for i in range(self._settled_count, len(self._entries)):
            env = self._entries[i]
            if len(env.provenance) > 1:
                self._entries[i] = replace(env, provenance=env.provenance[-1:])
                stripped += 1
        return stripped

    def digest(self) -> str:
        for env in self._entries[self._settled_count:]:
            if len(env.provenance) > 1:
                break
            self._settled.add(env)
            self._settled_count += 1
        return self._settled.digest(self._entries[self._settled_count:])


@dataclass
class PipelineState:
    """Mutable per-step bundle of everything an injector may touch.

    Owned by a single episode runner; injections edit these views, never the
    world truth, and every edit leaves an InjectionEffectRecord behind.
    """

    memory: MemoryStore
    request: UserRequest
    pa_context: ContextSummary
    dsa_context: ContextSummary
    feedback: VehicleFeedback
    tool_output: ToolOutput
    user: SimulatedUserState
    tuning: AgentTuning
    pa_policy: str = "default"
    dsa_policy: str = "default"
    dsa_weights: dict | None = None
    admission: dict[Authority, frozenset[Role]] = field(
        default_factory=lambda: dict(DEFAULT_ADMISSION)
    )
    envelopes: list[MessageEnvelope] = field(default_factory=list)
    log: MessageLog = field(default_factory=MessageLog)


class Phase(str, Enum):
    """Where in the step loop an injection takes effect."""

    LAYER = "layer"          # inside the perception/V2X/feedback functions
    PRE_PA = "pre-pa"        # before the PA interprets the request
    PRE_DSA = "pre-dsa"      # after intent, before the DSA proposes
    POST_STEP = "post-step"  # after verdicts, on the log store


_PHASE_BY_SURFACE = {
    Surface.LAYER: Phase.LAYER,
    Surface.PA_MEMORY: Phase.PRE_PA,
    Surface.PA_INPUT: Phase.PRE_PA,
    Surface.TOOL_OUTPUT: Phase.PRE_PA,
    Surface.USER_CHANNEL: Phase.PRE_PA,
    Surface.AGENT_POLICY: Phase.PRE_PA,
    Surface.INTER_AGENT_MSG: Phase.PRE_DSA,
    Surface.IDENTITY_FIELD: Phase.PRE_DSA,
    Surface.DSA_WEIGHTS: Phase.PRE_DSA,
    Surface.LOGS: Phase.POST_STEP,
}


def injection_phase(injection: ThreatInjection) -> Phase:
    return _PHASE_BY_SURFACE[injection.surface]


# ---------------------------------------------------------------------------
# payload validation


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_num(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _validate_context_patch(patch: dict) -> None:
    _require(isinstance(patch, dict), "context_patch must be a mapping")
    allowed = {"speed_limit_kph", "closures_add", "hazards_add"}
    unknown = set(patch) - allowed
    _require(not unknown, f"unknown context_patch keys: {sorted(unknown)}")
    if "speed_limit_kph" in patch:
        v = patch["speed_limit_kph"]
        _require(_is_num(v) and 0 < v <= MAX_SPEED_LIMIT_KPH, f"patched speed limit out of range: {v!r}")
    if "closures_add" in patch:
        _require(
            isinstance(patch["closures_add"], list)
            and all(isinstance(c, str) for c in patch["closures_add"]),
            "closures_add must be a list of segment ids",
        )
    if "hazards_add" in patch:
        _require(isinstance(patch["hazards_add"], list), "hazards_add must be a list")
        for h in patch["hazards_add"]:
            _require(
                isinstance(h, dict) and {"kind", "distance_m", "confidence"} <= set(h),
                "each hazard needs kind, distance_m, confidence",
            )


def _perturbation(t: dict, layer: Layer, window: tuple[int, int]) -> LayerPerturbation:
    """One payload transform `{field, op, value}` as a layer perturbation."""
    value = t.get("value")
    if t["field"] == "hazards" and t["op"] == "InjectRecord":
        _require(
            isinstance(value, dict) and {"kind", "distance_m", "confidence"} <= set(value),
            "hazard injection needs kind, distance_m, confidence",
        )
        value = Hazard(kind=value["kind"], distance_m=value["distance_m"], confidence=value["confidence"])
    return LayerPerturbation(layer=layer, field=t["field"], op=TransformOp(t["op"]), value=value, window=window)


def _validate_transforms(transforms: object, layer: Layer, window: tuple[int, int]) -> None:
    _require(isinstance(transforms, list) and transforms, "transforms must be a non-empty list")
    for t in transforms:  # type: ignore[union-attr]
        _require(
            isinstance(t, dict) and {"field", "op"} <= set(t),
            "each transform needs field, op, value",
        )
        validate_perturbation(_perturbation(t, layer, window))


# Per-threat payload checks: (payload, injection) -> None, raising ValueError.


def _check_t1(p: dict, inj: ThreatInjection) -> None:
    _require(_is_num(p.get("value_kph")) and p["value_kph"] > 0, "T1 needs value_kph > 0")


def _check_t2(p: dict, inj: ThreatInjection) -> None:
    advised = p.get("advised_speed_kph")
    _require(advised is None or (_is_num(advised) and advised > 0), "T2 advised_speed_kph must be > 0")


def _check_t3(p: dict, inj: ThreatInjection) -> None:
    _require(p.get("grant_role") in (Role.PERSONAL_AGENT.value, Role.DRIVING_STRATEGY_AGENT.value),
             "T3 grant_role must name an agent role")
    _validate_context_patch(p.get("context_patch", {}))


def _check_t4(p: dict, inj: ThreatInjection) -> None:
    factor = p.get("completeness_factor")
    _require(_is_num(factor) and 0 < factor < 1, "T4 needs completeness_factor in (0, 1)")


def _check_t5(p: dict, inj: ThreatInjection) -> None:
    _validate_context_patch(p.get("context_patch", {}))
    _require(bool(p.get("context_patch")), "T5 needs a non-empty context_patch")


def _check_t6(p: dict, inj: ThreatInjection) -> None:
    _require(
        any(k in p for k in ("urgency_tag", "destination", "desired_speed_kph")),
        "T6 needs at least one of urgency_tag, destination, desired_speed_kph",
    )
    if "urgency_tag" in p:
        _require(p["urgency_tag"] in ("Routine", "Urgent"), "T6 urgency_tag must be Routine or Urgent")


def _check_t7(p: dict, inj: ThreatInjection) -> None:
    w = p.get("speed_weight")
    _require(_is_num(w) and 0 < w <= 1, "T7 needs speed_weight in (0, 1]")
    if "headway_scale" in p:
        _require(_is_num(p["headway_scale"]) and p["headway_scale"] >= 1, "T7 headway_scale must be >= 1")


def _check_t8(p: dict, inj: ThreatInjection) -> None:
    _require(p.get("mode", "strip-provenance") == "strip-provenance", "T8 supports mode strip-provenance")


def _check_t9(p: dict, inj: ThreatInjection) -> None:
    _require(p.get("claimed") in [r.value for r in Role], "T9 needs a claimed role")
    _require(p.get("target", "context") in ("context", "user"), "T9 target must be context or user")
    _validate_context_patch(p.get("context_patch", {}))


def _check_t10(p: dict, inj: ThreatInjection) -> None:
    n = p.get("noise_queries")
    _require(isinstance(n, int) and n >= 1, "T10 needs noise_queries >= 1")


def _check_t11(p: dict, inj: ThreatInjection) -> None:
    _require(p.get("config_field") in AgentTuning().field_names(), "T11 config_field must name a tuning knob")
    _require(_is_num(p.get("config_value")) and p["config_value"] > 0, "T11 needs config_value > 0")
    advised = p.get("advised_speed_kph")
    _require(advised is None or (_is_num(advised) and advised > 0), "T11 advised_speed_kph must be > 0")


def _check_t12(p: dict, inj: ThreatInjection) -> None:
    _require(p.get("target", "context") in ("context", "external"), "T12 target must be context or external")
    edits = p.get("edits")
    _require(isinstance(edits, list) and edits, "T12 needs a non-empty edits list")
    if p.get("target", "context") == "context":
        _validate_transforms(edits, Layer.V2X, inj.window)
    else:
        for e in edits:
            _require(isinstance(e, dict), "each edit needs field, op, value")
            _require(e.get("op") in ("Set", "InjectRecord"), "external-target edits support Set/InjectRecord")
            _require(e.get("field") in ("speed_limit_kph", "closures", "hazards"),
                     f"unsupported external edit field {e.get('field')!r}")


def _check_t13(p: dict, inj: ThreatInjection) -> None:
    agent = p.get("agent")
    _require(agent in ("PA", "DSA"), "T13 agent must be PA or DSA")
    pool = PA_POLICIES if agent == "PA" else DSA_POLICIES
    _require(p.get("policy") in pool, f"T13 policy must be one of {pool}")


def _check_t14(p: dict, inj: ThreatInjection) -> None:
    reqs = p.get("requests")
    _require(isinstance(reqs, list) and reqs, "T14 needs a non-empty requests list")
    for r in reqs:
        _require(isinstance(r, dict) and "urgency_tag" in r and "destination" in r,
                 "each T14 request needs urgency_tag and destination")


def _check_t15(p: dict, inj: ThreatInjection) -> None:
    w = p.get("framing_weight")
    _require(_is_num(w) and 0 < w <= 1, "T15 needs framing_weight in (0, 1]")
    _require(p.get("framing", DEFAULT_URGENCY) in ("Routine", "Urgent"), "T15 framing must be Routine or Urgent")


def _check_transforms(p: dict, inj: ThreatInjection) -> None:
    _validate_transforms(p.get("transforms"), effective_layer(inj), inj.window)


def validate_injection(injection: ThreatInjection) -> None:
    """Legality and payload checks, run at configuration-load time."""
    spec = THREATS[injection.threat]
    if injection.surface not in spec.surfaces:
        raise ValueError(
            f"{injection.threat.value} may not target surface {injection.surface.value}; "
            f"legal: {sorted(s.value for s in spec.surfaces)}"
        )
    if injection.window[0] < 0 or injection.window[1] < injection.window[0]:
        raise ValueError(f"bad injection window {injection.window}")
    if injection.surface is Surface.LAYER:
        if spec.layer is not None and injection.layer not in (None, spec.layer):
            raise ValueError(f"{injection.threat.value} is bound to layer {spec.layer.value}")
        if spec.layer is None and injection.layer is None:
            raise ValueError(f"{injection.threat.value} on the Layer surface needs an explicit layer")
    elif injection.layer is not None:
        raise ValueError("layer tag only applies to the Layer surface")
    _require(isinstance(injection.payload, dict), "payload must be a mapping")
    spec.validate(injection.payload, injection)


def effective_layer(injection: ThreatInjection) -> Layer:
    """The layer a Layer-surface injection edits: implied by the threat, else its tag."""
    layer = THREATS[injection.threat].layer or injection.layer
    assert layer is not None
    return layer


def to_layer_perturbations(injection: ThreatInjection) -> list[LayerPerturbation]:
    """Translate a Layer-surface injection into declarative transforms."""
    if injection.threat is ThreatId.T4:
        factor = injection.payload["completeness_factor"]
        transforms = [{"field": "completeness", "op": "Scale", "value": factor}]
    else:
        transforms = injection.payload["transforms"]
    layer = effective_layer(injection)
    return [_perturbation(t, layer, injection.window) for t in transforms]


# ---------------------------------------------------------------------------
# injector implementations (one per threat)


def apply_context_patch(summary: ContextSummary, patch: dict) -> ContextSummary:
    """Merge a claimed-infrastructure patch into a context summary."""
    if "speed_limit_kph" in patch:
        summary = replace(summary, speed_limit_kph=float(patch["speed_limit_kph"]))
    if patch.get("closures_add"):
        merged = list(summary.closures)
        for c in patch["closures_add"]:
            if c not in merged:
                merged.append(c)
        summary = replace(summary, closures=tuple(merged))
    if patch.get("hazards_add"):
        hazards = list(summary.hazards)
        for h in patch["hazards_add"]:
            hazards.append(Hazard(kind=h["kind"], distance_m=h["distance_m"], confidence=h["confidence"]))
        summary = replace(summary, hazards=tuple(hazards))
    return summary


def _record(
    injection: ThreatInjection, step: int, before: str, after: str, note: str = "", warning: bool = False
) -> InjectionEffectRecord:
    return InjectionEffectRecord(
        threat=injection.threat,
        step=step,
        surface=injection.surface,
        before_digest=before,
        after_digest=after,
        note=note,
        warning=warning,
    )


def _apply_t1(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = state.memory.digest()
    key = inj.payload.get("key", SPEED_CAP_KEY)
    value = float(inj.payload["value_kph"])
    already = any(
        e.key == key and e.value == value and e.origin is Role.EXTERNAL
        for e in state.memory.entries
    )
    if already:
        return _record(inj, step, before, before, note="entry already present")
    state.memory.append(
        MemoryEntry(
            key=key,
            kind=MemoryKind.CONSTRAINT,
            value=value,
            origin=Role.EXTERNAL,
            inserted_step=step,
            persistent=inj.persistent,
        )
    )
    return _record(inj, step, before, state.memory.digest(), note=f"poisoned constraint {key}={value}")


def _substitute_tool(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, str]:
    before = digest_of(state.tool_output)
    state.tool_output = ToolOutput(
        advised_speed_kph=inj.payload.get("advised_speed_kph"),
        route_hint=inj.payload.get("route_hint", ""),
    )
    return before, digest_of(state.tool_output)


def _apply_t2(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before, after = _substitute_tool(inj, state, step)
    return _record(inj, step, before, after, note="tool output substituted")


def _apply_t3(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    grant_role = Role(inj.payload["grant_role"])
    before = digest_of({"admission": state.admission, "envelopes": len(state.envelopes)})
    state.admission[Authority.CONTEXT_ONLY] = state.admission[Authority.CONTEXT_ONLY] | {grant_role}
    state.envelopes.append(
        MessageEnvelope(
            sender=grant_role,  # identity is honest; the *permission* is wrong
            claimed_sender=grant_role,
            authority=Authority.CONTEXT_ONLY,
            payload=dict(inj.payload.get("context_patch", {})),
            provenance=((grant_role, step),),
            step=step,
        )
    )
    after = digest_of({"admission": state.admission, "envelopes": len(state.envelopes)})
    return _record(inj, step, before, after, note=f"context authority delegated to {grant_role.value}")


def _apply_t4(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    if inj.surface is Surface.LAYER:
        return _apply_layer_direct(inj, state, step)
    before = digest_of(state.pa_context)
    factor = float(inj.payload["completeness_factor"])
    state.pa_context = replace(
        state.pa_context, completeness=state.pa_context.completeness * factor
    )
    return _record(inj, step, before, digest_of(state.pa_context), note=f"completeness x{factor}")


def _apply_t5(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of(state.pa_context)
    patch = inj.payload["context_patch"]
    state.pa_context = apply_context_patch(state.pa_context, patch)
    note = "hallucinated context fact"
    if inj.persistent and "speed_limit_kph" in patch:
        value = float(patch["speed_limit_kph"])
        already = any(
            e.key == SPEED_CAP_KEY and e.value == value and e.origin is Role.PERSONAL_AGENT
            for e in state.memory.entries
        )
        if not already:
            # the hallucination enters long-term memory as a self-made constraint
            state.memory.append(
                MemoryEntry(
                    key=SPEED_CAP_KEY,
                    kind=MemoryKind.CONSTRAINT,
                    value=value,
                    origin=Role.PERSONAL_AGENT,
                    inserted_step=step,
                    persistent=True,
                )
            )
            note += ", memorized"
    return _record(inj, step, before, digest_of(state.pa_context), note=note)


def _apply_t6(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of(state.request)
    state.request = UserRequest(
        urgency_tag=inj.payload.get("urgency_tag", state.request.urgency_tag),
        destination=inj.payload.get("destination", state.request.destination),
        desired_speed_kph=inj.payload.get("desired_speed_kph", state.request.desired_speed_kph),
    )
    return _record(inj, step, before, digest_of(state.request), note="request reinterpreted")


def _apply_t7(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of(state.dsa_weights)
    state.dsa_weights = {
        "speed_weight": float(inj.payload["speed_weight"]),
        "headway_scale": float(inj.payload.get("headway_scale", 1.0)),
    }
    return _record(inj, step, before, digest_of(state.dsa_weights), note="optimization priorities skewed")


def _apply_t8(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = state.log.digest()
    stripped = state.log.strip_provenance()
    after = state.log.digest()
    return _record(
        inj, step, before, after,
        note=f"stripped origin hops from {stripped} log entries",
        warning=stripped == 0 and before == after,
    )


def _apply_t9(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of(state.envelopes)
    claimed = Role(inj.payload["claimed"])
    target = inj.payload.get("target", "context")
    if target == "context":
        authority = Authority.CONTEXT_ONLY
        payload: object = dict(inj.payload.get("context_patch", {}))
    else:
        authority = Authority.INTENT_ONLY
        payload = {"forged_user_input": True}
    state.envelopes.append(
        MessageEnvelope(
            sender=Role.EXTERNAL,
            claimed_sender=claimed,
            authority=authority,
            payload=payload,
            provenance=((Role.EXTERNAL, step),),
            step=step,
        )
    )
    return _record(
        inj, step, before, digest_of(state.envelopes),
        note=f"forged envelope claiming {claimed.value}",
    )


def _apply_t10(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of(state.user.noise_queries)
    state.user.noise_queries = int(inj.payload["noise_queries"])
    return _record(inj, step, before, digest_of(state.user.noise_queries), note="confirmation flood")


def _apply_t11(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of({"tool": state.tool_output, "tuning": state.tuning})
    _substitute_tool(inj, state, step)
    field_name = inj.payload["config_field"]
    value = float(inj.payload["config_value"])
    mutated = getattr(state.tuning, field_name) != value
    setattr(state.tuning, field_name, value)
    after = digest_of({"tool": state.tool_output, "tuning": state.tuning})
    return _record(
        inj, step, before, after,
        note=f"tool compromised; config {field_name}={value}" + ("" if mutated else " (already set)"),
    )


def _edit_patch_dict(patch: dict, edit: dict) -> None:
    # the lists may be shared with a configured payload or a logged envelope:
    # build new ones instead of appending in place
    if edit["field"] == "speed_limit_kph":
        patch["speed_limit_kph"] = float(edit["value"])
    elif edit["field"] == "closures":
        closures = patch.get("closures_add", [])
        if edit["value"] not in closures:
            patch["closures_add"] = [*closures, edit["value"]]
    elif edit["field"] == "hazards":
        patch["hazards_add"] = [*patch.get("hazards_add", []), dict(edit["value"])]


def _apply_t12(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    target = inj.payload.get("target", "context")
    if target == "external":
        for i in range(len(state.envelopes) - 1, -1, -1):
            env = state.envelopes[i]
            if env.sender is Role.EXTERNAL and env.authority is Authority.CONTEXT_ONLY:
                before = digest_of(env.payload)
                patch = dict(env.payload) if isinstance(env.payload, dict) else {}
                for edit in inj.payload["edits"]:
                    _edit_patch_dict(patch, edit)
                state.envelopes[i] = replace(env, payload=patch)
                return _record(inj, step, before, digest_of(patch), note="in-flight message poisoned")
        before = digest_of(state.envelopes)
        return _record(
            inj, step, before, before,
            note="no external envelope in flight", warning=True,
        )
    before = digest_of(state.dsa_context)
    summary = state.dsa_context
    for edit in inj.payload["edits"]:
        summary = apply_summary_transform(summary, _perturbation(edit, Layer.V2X, inj.window))
    state.dsa_context = summary
    return _record(inj, step, before, digest_of(summary), note="coordination channel poisoned")


def _apply_t13(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of({"pa": state.pa_policy, "dsa": state.dsa_policy})
    if inj.payload["agent"] == "PA":
        state.pa_policy = inj.payload["policy"]
    else:
        state.dsa_policy = inj.payload["policy"]
    after = digest_of({"pa": state.pa_policy, "dsa": state.dsa_policy})
    return _record(inj, step, before, after, note=f"{inj.payload['agent']} policy swapped to {inj.payload['policy']}")


def _apply_t14(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of(state.request)
    sequence = [
        UserRequest(
            urgency_tag=r["urgency_tag"],
            destination=r["destination"],
            desired_speed_kph=r.get("desired_speed_kph"),
        )
        for r in inj.payload["requests"]
    ]
    # conflicting instructions processed in order; recency wins
    state.request = sequence[-1]
    return _record(
        inj, step, before, digest_of(state.request),
        note=f"{len(sequence)} conflicting requests injected",
    )


def _apply_t15(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    before = digest_of({"bias": state.user.framing_bias, "answer": state.user.framing_answer})
    state.user.framing_bias = float(inj.payload["framing_weight"])
    state.user.framing_answer = inj.payload.get("framing", DEFAULT_URGENCY)
    after = digest_of({"bias": state.user.framing_bias, "answer": state.user.framing_answer})
    return _record(inj, step, before, after, note="user reply biased toward agent framing")


def _apply_layer_direct(inj: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    """Direct application of a Layer-surface injection onto built summaries.

    The episode engine applies these transforms inside the layer functions
    (where per-source attribution lives); this mirror exists so `apply` is
    total over legal injections when called on a bare state.
    """
    layer = effective_layer(inj)
    perturbations = to_layer_perturbations(inj)
    if layer is Layer.CONTROL_FEEDBACK:
        before = digest_of(state.feedback)
        for p in perturbations:
            state.feedback = apply_feedback_transform(state.feedback, p)
        return _record(inj, step, before, digest_of(state.feedback), note="control feedback falsified")
    before = digest_of({"pa": state.pa_context, "dsa": state.dsa_context})
    for p in perturbations:
        state.pa_context = apply_summary_transform(state.pa_context, p)
        state.dsa_context = apply_summary_transform(state.dsa_context, p)
    after = digest_of({"pa": state.pa_context, "dsa": state.dsa_context})
    return _record(inj, step, before, after, note=f"{layer.value}-layer summary distorted")


# ---------------------------------------------------------------------------
# the registry: one spec per threat id


@dataclass(frozen=True)
class ThreatSpec:
    """Everything the harness knows about one threat id."""

    surfaces: frozenset[Surface]
    validate: Callable[[dict, ThreatInjection], None]  # payload checks, at load time
    apply: Callable[[ThreatInjection, PipelineState, int], InjectionEffectRecord]
    # step-record key prefixes through which the effect may surface; the
    # chain runner's structural attribution reads them
    footprint: tuple[str, ...]
    # the part of the footprint that depends on the surface or the payload
    footprint_extra: Callable[[ThreatInjection], tuple[str, ...]] | None = None
    layer: Layer | None = None  # implied by cross-layer vectors; T4-on-Layer may pick any


_DOWNSTREAM = ("intent", "submissions", "approved")
_DECISION = ("submissions", "approved")

THREATS: dict[ThreatId, ThreatSpec] = {
    ThreatId.T1: ThreatSpec(
        frozenset({Surface.PA_MEMORY}), _check_t1, _apply_t1, ("memory_digest",) + _DOWNSTREAM,
    ),
    ThreatId.T2: ThreatSpec(
        frozenset({Surface.TOOL_OUTPUT}), _check_t2, _apply_t2, ("tool_output", "memory_digest") + _DOWNSTREAM,
    ),
    ThreatId.T3: ThreatSpec(
        frozenset({Surface.INTER_AGENT_MSG}), _check_t3, _apply_t3,
        ("admission_digest", "envelope_count", "log_digest", "dsa_context") + _DECISION,
    ),
    ThreatId.T4: ThreatSpec(
        frozenset({Surface.PA_INPUT, Surface.LAYER}), _check_t4, _apply_t4, ("pa_context",),
        footprint_extra=lambda inj: ("dsa_context",) if inj.surface is Surface.LAYER else (),
    ),
    ThreatId.T5: ThreatSpec(
        frozenset({Surface.PA_INPUT}), _check_t5, _apply_t5, ("pa_context", "memory_digest") + _DOWNSTREAM,
    ),
    ThreatId.T6: ThreatSpec(frozenset({Surface.PA_INPUT}), _check_t6, _apply_t6, ("request",) + _DOWNSTREAM),
    ThreatId.T7: ThreatSpec(frozenset({Surface.DSA_WEIGHTS}), _check_t7, _apply_t7, _DECISION),
    ThreatId.T8: ThreatSpec(frozenset({Surface.LOGS}), _check_t8, _apply_t8, ("log_digest",)),
    ThreatId.T9: ThreatSpec(
        frozenset({Surface.IDENTITY_FIELD}), _check_t9, _apply_t9,
        ("envelope_count", "spoofed_envelopes", "log_digest"),
        footprint_extra=lambda inj: ("dsa_context",) + _DECISION if inj.payload.get("context_patch") else (),
    ),
    ThreatId.T10: ThreatSpec(
        frozenset({Surface.USER_CHANNEL}), _check_t10, _apply_t10, ("user_queries", "request") + _DOWNSTREAM,
    ),
    ThreatId.T11: ThreatSpec(
        frozenset({Surface.TOOL_OUTPUT}), _check_t11, _apply_t11,
        ("tool_output", "tuning_digest", "memory_digest") + _DOWNSTREAM,
    ),
    ThreatId.T12: ThreatSpec(
        frozenset({Surface.INTER_AGENT_MSG}), _check_t12, _apply_t12, ("dsa_context",) + _DECISION,
    ),
    ThreatId.T13: ThreatSpec(
        frozenset({Surface.AGENT_POLICY}), _check_t13, _apply_t13, ("policies",) + _DOWNSTREAM,
    ),
    ThreatId.T14: ThreatSpec(
        frozenset({Surface.USER_CHANNEL}), _check_t14, _apply_t14, ("request",) + _DOWNSTREAM,
    ),
    ThreatId.T15: ThreatSpec(
        frozenset({Surface.USER_CHANNEL}), _check_t15, _apply_t15, ("request",) + _DOWNSTREAM,
    ),
    ThreatId.X_PERCEPTION: ThreatSpec(
        frozenset({Surface.LAYER}), _check_transforms, _apply_layer_direct,
        ("pa_context", "dsa_context") + _DOWNSTREAM, layer=Layer.PERCEPTION,
    ),
    ThreatId.X_V2X: ThreatSpec(
        frozenset({Surface.LAYER}), _check_transforms, _apply_layer_direct,
        ("pa_context", "dsa_context") + _DOWNSTREAM, layer=Layer.V2X,
    ),
    ThreatId.X_COMPUTE: ThreatSpec(
        frozenset({Surface.LAYER}), _check_transforms, _apply_layer_direct,
        ("pa_context", "dsa_context") + _DOWNSTREAM, layer=Layer.COMPUTE,
    ),
    ThreatId.X_CONTROL_FEEDBACK: ThreatSpec(
        frozenset({Surface.LAYER}), _check_transforms, _apply_layer_direct,
        ("feedback",) + _DECISION, layer=Layer.CONTROL_FEEDBACK,
    ),
}


def legal_surfaces(threat: ThreatId) -> frozenset[Surface]:
    return THREATS[ThreatId(threat)].surfaces


def apply(injection: ThreatInjection, state: PipelineState, step: int) -> InjectionEffectRecord:
    """Apply one injection to the pipeline state, returning its oracle record.

    Out-of-window application is a no-op that still yields a warning record.
    """
    if not injection.active(step):
        digest = digest_of(None)
        return _record(injection, step, digest, digest, note="outside active window", warning=True)
    return THREATS[injection.threat].apply(injection, state, step)


def delta_footprint(injection: ThreatInjection) -> tuple[str, ...]:
    """Step-record key prefixes through which this injection's effect may surface."""
    spec = THREATS[injection.threat]
    if spec.footprint_extra is None:
        return spec.footprint
    return spec.footprint + spec.footprint_extra(injection)
