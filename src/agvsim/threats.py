"""Registry of the fifteen agentic threats and four cross-layer vectors.

Each threat id has exactly one `ThreatSpec` in `THREATS`: its legal
surfaces, implied layer, payload schema, surface view, injector and delta
footprint. The schema parses a payload once, when its injection is built, into
the typed values the injector reads (`ThreatInjection.args`), so illegal
(threat, surface) pairs and malformed payloads are rejected where they are
built, in a loader or in code, never at run time. An injector is a
deterministic edit of one attack surface inside the per-step pipeline state;
`apply` records it with before/after digests of that surface, so the harness
keeps attacker ground truth while the pipeline stays oblivious. A record
keeps the surface as the view saw it and takes its digest when the digest is
first read, so runs that export no JSON never take it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Mapping

from .cavstack import (
    Layer,
    LayerPerturbation,
    TransformOp,
    apply_summary_transform,
)
from .domain import (
    Authority,
    ConfigError,
    ContextSummary,
    DEFAULT_ADMISSION,
    FIELD_RANGES,
    MessageEnvelope,
    ROUTINE,
    Role,
    ThreatId,
    URGENCY_TAGS,
    URGENT,
    UserRequest,
    VehicleFeedback,
    checked,
    integer,
    make_envelope,
    mapping,
    member,
    number,
    parse_hazard,
    parse_request,
    record,
    sequence,
    string,
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
    revised,
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


@record
class ThreatInjection:
    """A tagged perturbation: threat id, target surface, payload.

    It is checked when it is built: an illegal (threat, surface) pair or
    layer tag raises ValueError, and a malformed payload, or a `persistent`
    flag that the threat's injector never reads, raises ConfigError naming
    its field. When it acts is up to what schedules it: a scenario window or
    a chain trigger. `args` is the payload as the typed values the injector
    reads, parsed once, here, into a derived field: equality, hashing and
    every export leave it out, and copies and pickles carry it.
    """

    threat: ThreatId
    surface: Surface
    payload: dict
    persistent: bool = False
    layer: Layer | None = None  # only meaningful on the Layer surface
    args: Any = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        spec = THREATS[self.threat]
        if self.surface not in spec.surfaces:
            raise ValueError(
                f"{self.threat.value} may not target surface {self.surface.value}; "
                f"legal: {sorted(s.value for s in spec.surfaces)}"
            )
        if self.surface is Surface.LAYER:
            if spec.layer is not None and self.layer not in (None, spec.layer):
                raise ValueError(f"{self.threat.value} is bound to layer {spec.layer.value}")
            if spec.layer is None and self.layer is None:
                raise ValueError(f"{self.threat.value} on the Layer surface needs an explicit layer")
        elif self.layer is not None:
            raise ValueError("layer tag only applies to the Layer surface")
        if self.persistent and not spec.persistent:
            readers = ", ".join(t.value for t, s in THREATS.items() if s.persistent)
            threat = self.threat.value
            raise ConfigError(f"{threat} persistent", f"{threat} does not read it; only {readers} do")
        where = f"{self.threat.value} payload"  # a malformed payload fails here (ValueError)
        object.__setattr__(self, "args", spec.parse(mapping(self.payload, where, optional=spec.keys), where, self))


class LazyDigest:
    """A value that nothing edits later, with its digest taken once, when first asked for.

    The value is a frozen object, a scalar, or a copy. The digest is
    `take(value)`, or else this module's `digest_of(value)`, looked up then.
    """

    __slots__ = ("value", "_take", "_digest")

    def __init__(self, value: object, take: Callable[[Any], str] | None = None) -> None:
        self.value = value
        self._take = take
        self._digest = ""

    def digest(self) -> str:
        if not self._digest:
            self._digest = (self._take or digest_of)(self.value)
        return self._digest


class _DigestField:
    """A record field that holds a digest, a `LazyDigest` or a `MemoryStore`, and reads as the digest.

    `record` keeps it in front of the field's slot and gives it the slot's
    member descriptor as `slot`. A record's `__init__` stores the held value
    through that slot itself; `__set__` stores through it too, for the
    copies and unpickled records that the record's `__setstate__` fills
    field by field.
    """

    slot: Any  # the member descriptor of the field's slot

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, record: object, owner: type | None = None) -> str:
        if record is None:
            raise AttributeError(self._name)  # no class default: the field stays required
        held = self.slot.__get__(record)
        return held if type(held) is str else held.digest()

    def __set__(self, record: object, value: str | LazyDigest | MemoryStore) -> None:
        self.slot.__set__(record, value)


@record
class InjectionEffectRecord:
    """Oracle trail: one record per applied injection per step.

    Each digest may be given as a `LazyDigest` or a `MemoryStore`; it reads
    as its 16-hex string all the same.
    """

    threat: ThreatId
    step: int
    surface: Surface
    before_digest: str = _DigestField()  # type: ignore[assignment]
    after_digest: str = _DigestField()  # type: ignore[assignment]
    note: str = ""
    warning: bool = False


@record
class ToolOutput:
    """What the PA's navigation/infrastructure tool returned this step."""

    advised_speed_kph: float | None = None
    route_hint: str = ""
    source: str = "nav-service"


# The simulated user answers at most this many queries per step; anything
# past the budget degrades to the default answer.
USER_ATTENTION_BUDGET = 3
DEFAULT_URGENCY = ROUTINE


@dataclass
class SimulatedUserState:
    """Deterministic scripted user: attention budget plus optional biases.

    Its generator is seeded with `seed` at the first draw, so a user that
    never draws builds none.
    """

    seed: int
    framing_bias: float = 0.0       # probability of adopting the agent framing
    framing_answer: str = DEFAULT_URGENCY
    _rng: random.Random | None = field(default=None, init=False, repr=False, compare=False)

    def draw(self) -> float:
        """The next number in [0, 1) from the user's generator."""
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self._rng.random()


def confirm_urgency(user: SimulatedUserState, noise_queries: int, true_tag: str) -> str:
    """One urgency-confirmation round trip, after `noise_queries` injected ones.

    The user answers each noise query while the attention budget lasts.
    """
    if noise_queries >= USER_ATTENTION_BUDGET:
        return DEFAULT_URGENCY  # overloaded: rushed default instead of intent
    if user.framing_bias > 0.0 and user.draw() < user.framing_bias:
        return user.framing_answer
    return true_tag


# the request each rogue PA policy rewrites: rogue-urgent reframes every trip as maximally urgent
_ROGUE_PA_REQUESTS: Mapping[str, Callable[[UserRequest], UserRequest]] = {
    "rogue-urgent": lambda request: UserRequest(URGENT, request.destination, None),
}
PA_POLICIES = ("default", *_ROGUE_PA_REQUESTS)
_ROGUE_DSA_TARGETS: Mapping[str, Callable[[float], float]] = {
    "rogue-crawl": lambda target: target * 0.5,
    "rogue-speedster": lambda target: 150.0,
}
DSA_POLICIES = ("default", *_ROGUE_DSA_TARGETS)


def run_pa_policy(
    name: str,
    request: UserRequest,
    memory: MemoryStore,
    context: ContextSummary,
    tuning: AgentTuning,
) -> IntentDescriptor:
    rogue = _ROGUE_PA_REQUESTS.get(name)
    if rogue is not None:
        request = rogue(request)
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
    rogue = _ROGUE_DSA_TARGETS.get(name)
    if rogue is not None:
        proposal = revised(proposal, rogue(proposal.target_speed_kph), proposal.headway_s, ("policy.override", name))
    if weights:
        target = proposal.target_speed_kph * weights["speed_weight"]
        headway = proposal.headway_s * weights["headway_scale"]
        proposal = revised(proposal, target, headway, ("policy.weights", "preference-reweighted"))
    return proposal


class _Settled:
    """Log entries settled after those of `previous`, and, once first needed, the digest state of all up to them.

    A chain of these is the log's settled prefix as it grew. No entry or
    link changes after it is built; only the state is filled in.
    """

    __slots__ = ("previous", "entries", "_state")

    def __init__(self, previous: _Settled | None, entries: tuple[MessageEnvelope, ...]) -> None:
        self.previous = previous
        self.entries = entries
        self._state = ListDigest() if previous is None else None

    def digest(self, tail: tuple[MessageEnvelope, ...]) -> str:
        """`digest_of` of every entry up to this link's and then `tail`.

        The state of each link on the way back to the nearest one that has
        it is built on from there and kept, so each entry is serialised once.
        """
        pending = []
        link = self
        while link._state is None:
            pending.append(link)
            link = link.previous  # type: ignore[assignment]
        state = link._state
        for link in reversed(pending):
            state = state.copy()
            for env in link.entries:
                state.add(env)
            link._state = state
        return state.digest(tail)


class MessageLog:
    """The run's message log: append-only, except that T8 cuts provenance.

    `snapshot()` is the log as it is now, as a `LazyDigest` whose digest
    equals `digest_of(list(log))`. Envelopes are frozen, no applier edits a
    payload in place, and T8 only ever shortens provenance to its last hop,
    so an entry with at most one hop can never change again. The longest
    prefix of such entries is a chain of `_Settled` links; a snapshot holds
    the rest of the log as a tuple and takes its digest through the last
    link, which later snapshots share. Taking one costs the entries added
    or stripped since the one before, and reading them all, in any order,
    serialises each settled entry once.
    """

    def __init__(self) -> None:
        self._entries: list[MessageEnvelope] = []
        self._settled = _Settled(None, ())  # its chain holds entries[:settled_count], each with <= 1 hop
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
                self._entries[i] = MessageEnvelope(
                    env.sender, env.claimed_sender, env.authority, env.payload, env.provenance[-1:], env.step
                )
                stripped += 1
        return stripped

    def snapshot(self) -> LazyDigest:
        entries, start = self._entries, self._settled_count
        end = start
        while end < len(entries) and len(entries[end].provenance) <= 1:
            end += 1
        if end > start:
            self._settled = _Settled(self._settled, tuple(entries[start:end]))
            self._settled_count = end
        return LazyDigest(tuple(entries[end:]), self._settled.digest)


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
    log: MessageLog = field(default_factory=MessageLog)  # ninth, so the runner passes all it sets by position
    noise_queries: int = 0  # extra confirmations T10 injects this step
    pa_policy: str = "default"
    dsa_policy: str = "default"
    dsa_weights: dict | None = None
    admission: Mapping[Authority, frozenset[Role]] = field(default_factory=lambda: DEFAULT_ADMISSION)
    envelopes: list[MessageEnvelope] = field(default_factory=list)


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
# payload parsers: (payload, where, injection) -> the typed values the injector
# reads, on the schema vocabulary of `domain`. Every number stored in a typed
# value is a float; context patches travel in envelopes as the document wrote them.


def _context_patch(value: object, where: str) -> dict:
    patch = mapping(value, where, optional=("speed_limit_kph", "closures_add", "hazards_add"))
    if "speed_limit_kph" in patch:
        number(patch["speed_limit_kph"], f"{where}.speed_limit_kph", *FIELD_RANGES[ContextSummary]["speed_limit_kph"])
    sequence(patch.get("closures_add", []), f"{where}.closures_add", string)
    sequence(patch.get("hazards_add", []), f"{where}.hazards_add", parse_hazard)
    return patch


def _perturbations(transforms: object, where: str, layer: Layer) -> tuple[LayerPerturbation, ...]:
    """A payload's list of `{field, op, value}` transforms as checked layer perturbations."""

    def perturbation(item: object, at: str) -> LayerPerturbation:
        t = mapping(item, at, required=("field", "op", "value"))
        field_name, op = string(t["field"], f"{at}.field"), member(TransformOp, t["op"], f"{at}.op")
        value = t["value"]
        if field_name == "hazards" and op is TransformOp.INJECT_RECORD:
            value = parse_hazard(value, f"{at}.value")
        elif field_name in ("hazards", "closures"):  # a closure, or the kind of the hazards to drop
            value = string(value, f"{at}.value")
        return checked(at, LayerPerturbation, layer, field_name, op, value)

    return sequence(transforms, where, perturbation, min_len=1)


def _parse_t1(p: dict, where: str, inj: ThreatInjection) -> tuple[str, float]:
    key = string(p.get("key", SPEED_CAP_KEY), f"{where}.key")
    return key, number(p.get("value_kph"), f"{where}.value_kph", *FIELD_RANGES[UserRequest]["desired_speed_kph"])


def _tool_output(p: dict, where: str, inj: ThreatInjection) -> ToolOutput:
    advised = p.get("advised_speed_kph")
    if advised is not None:
        advised = number(advised, f"{where}.advised_speed_kph", *FIELD_RANGES[UserRequest]["desired_speed_kph"])
    route_hint = string(p.get("route_hint", ""), f"{where}.route_hint")
    return ToolOutput(advised_speed_kph=advised, route_hint=route_hint)


def _parse_t3(p: dict, where: str, inj: ThreatInjection) -> tuple[Role, dict]:
    agents = (Role.PERSONAL_AGENT.value, Role.DRIVING_STRATEGY_AGENT.value)
    role = Role(string(p.get("grant_role"), f"{where}.grant_role", agents))
    return role, _context_patch(p.get("context_patch", {}), f"{where}.context_patch")


def _parse_t4(p: dict, where: str, inj: ThreatInjection) -> tuple[LayerPerturbation, ...]:
    factor = number(p.get("completeness_factor"), f"{where}.completeness_factor", 0.0, 1.0)
    if factor in (0.0, 1.0):
        raise ConfigError(f"{where}.completeness_factor", f"must be strictly between 0 and 1, got {factor!r}")
    # telemetry has no completeness: a context layer only; on PAInput the layer has no effect
    layer = effective_layer(inj) if inj.surface is Surface.LAYER else Layer.PERCEPTION
    return (LayerPerturbation(layer, "completeness", TransformOp.SCALE, factor),)


def _parse_t5(p: dict, where: str, inj: ThreatInjection) -> dict:
    patch = _context_patch(p.get("context_patch", {}), f"{where}.context_patch")
    if not patch:
        raise ConfigError(f"{where}.context_patch", "T5 needs a non-empty patch")
    return patch


def _parse_t6(p: dict, where: str, inj: ThreatInjection) -> dict:
    """The request fields to override, typed as a request's are."""
    if not p:
        raise ConfigError(where, "T6 needs at least one of urgency_tag, destination, desired_speed_kph")
    request = parse_request({"urgency_tag": DEFAULT_URGENCY, "destination": "", **p}, where)
    return {key: getattr(request, key) for key in p}


def _parse_t7(p: dict, where: str, inj: ThreatInjection) -> dict[str, float]:
    return {
        "speed_weight": number(p.get("speed_weight"), f"{where}.speed_weight", 1e-3, 1.0),
        "headway_scale": number(p.get("headway_scale", 1.0), f"{where}.headway_scale", 1.0, 1e3),
    }


def _parse_t8(p: dict, where: str, inj: ThreatInjection) -> None:
    string(p.get("mode", "strip-provenance"), f"{where}.mode", ("strip-provenance",))


def _parse_t9(p: dict, where: str, inj: ThreatInjection) -> tuple[Role, str, dict]:
    claimed = member(Role, p.get("claimed"), f"{where}.claimed")
    target = string(p.get("target", "context"), f"{where}.target", ("context", "user"))
    if target == "user" and "context_patch" in p:
        raise ConfigError(f"{where}.context_patch", "a forged user input carries no patch; only target: context does")
    return claimed, target, _context_patch(p.get("context_patch", {}), f"{where}.context_patch")


def _parse_t10(p: dict, where: str, inj: ThreatInjection) -> int:
    return integer(p.get("noise_queries"), f"{where}.noise_queries", 1)


def _parse_t11(p: dict, where: str, inj: ThreatInjection) -> tuple[ToolOutput, str, float]:
    knobs = FIELD_RANGES[AgentTuning]
    name = string(p.get("config_field"), f"{where}.config_field", knobs)
    return _tool_output(p, where, inj), name, number(p.get("config_value"), f"{where}.config_value", *knobs[name])


def _external_edit(value: object, where: str) -> tuple[str, object]:
    """One edit of an in-flight context patch, as (field, value); a hazard stays as the document wrote it."""
    e = mapping(value, where, required=("field", "op", "value"))
    op = string(e["op"], f"{where}.op", ("Set", "InjectRecord"))
    field_name = string(e["field"], f"{where}.field", ("speed_limit_kph", "closures", "hazards"))
    wanted = "Set" if field_name == "speed_limit_kph" else "InjectRecord"  # as `LayerPerturbation` pairs them
    if op != wanted:
        raise ConfigError(f"{where}.op", f"field {field_name!r} only supports {wanted}, got {op}")
    if field_name == "speed_limit_kph":
        return field_name, number(e["value"], f"{where}.value", *FIELD_RANGES[ContextSummary]["speed_limit_kph"])
    if field_name == "closures":
        return field_name, string(e["value"], f"{where}.value")
    parse_hazard(e["value"], f"{where}.value")
    return field_name, e["value"]


def _parse_t12(p: dict, where: str, inj: ThreatInjection) -> tuple[str, tuple]:
    target = string(p.get("target", "context"), f"{where}.target", ("context", "external"))
    if target == "context":
        return target, _perturbations(p.get("edits"), f"{where}.edits", Layer.V2X)
    return target, sequence(p.get("edits"), f"{where}.edits", _external_edit, min_len=1)


def _parse_t13(p: dict, where: str, inj: ThreatInjection) -> tuple[str, str]:
    agent = string(p.get("agent"), f"{where}.agent", ("PA", "DSA"))
    return agent, string(p.get("policy"), f"{where}.policy", PA_POLICIES if agent == "PA" else DSA_POLICIES)


def _parse_t14(p: dict, where: str, inj: ThreatInjection) -> tuple[UserRequest, ...]:
    return sequence(p.get("requests"), f"{where}.requests", parse_request, min_len=1)


def _parse_t15(p: dict, where: str, inj: ThreatInjection) -> tuple[float, str]:
    weight = number(p.get("framing_weight"), f"{where}.framing_weight", 0.0, 1.0)
    if weight == 0.0:
        raise ConfigError(f"{where}.framing_weight", "must be > 0")
    return weight, string(p.get("framing", DEFAULT_URGENCY), f"{where}.framing", URGENCY_TAGS)


def _parse_transforms(p: dict, where: str, inj: ThreatInjection) -> tuple[LayerPerturbation, ...]:
    return _perturbations(p.get("transforms"), f"{where}.transforms", effective_layer(inj))


def effective_layer(injection: ThreatInjection) -> Layer:
    """The layer a Layer-surface injection edits: implied by the threat, else its tag."""
    layer = THREATS[injection.threat].layer or injection.layer
    assert layer is not None
    return layer


def to_layer_perturbations(injection: ThreatInjection) -> tuple[LayerPerturbation, ...]:
    """A Layer-surface injection's declarative transforms, as parsed at load."""
    return injection.args


# ---------------------------------------------------------------------------
# injectors: (injection, state, step) -> (note, warning); each edits one surface


def apply_context_patch(summary: ContextSummary, patch: dict) -> ContextSummary:
    """Merge a claimed-infrastructure patch into a context summary, as the V2X transforms it names."""
    if "speed_limit_kph" in patch:
        summary = apply_summary_transform(summary, "speed_limit_kph", TransformOp.SET, patch["speed_limit_kph"])
    for c in patch.get("closures_add", ()):
        summary = apply_summary_transform(summary, "closures", TransformOp.INJECT_RECORD, c)
    for h in patch.get("hazards_add", ()):
        summary = apply_summary_transform(summary, "hazards", TransformOp.INJECT_RECORD, parse_hazard(h, "hazards_add"))
    return summary


def _act_t1(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    key, value = inj.args
    memory, entry = state.memory, MemoryEntry(key, MemoryKind.CONSTRAINT, value, Role.EXTERNAL, step, inj.persistent)
    state.memory = memory.adopt(entry)
    if state.memory is memory:
        return "entry already present", False
    return f"poisoned constraint {key}={value}", False


def _act_t2(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    state.tool_output = inj.args
    return "tool output substituted", False


def _act_t3(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    grant_role, patch = inj.args
    context_only = state.admission[Authority.CONTEXT_ONLY] | {grant_role}
    state.admission = {**state.admission, Authority.CONTEXT_ONLY: context_only}  # a new table: none is edited
    # the identity is honest; the *permission* is wrong
    state.envelopes.append(make_envelope(grant_role, Authority.CONTEXT_ONLY, dict(patch), step))
    return f"context authority delegated to {grant_role.value}", False


def _act_t4(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    (p,) = inj.args
    state.pa_context = apply_summary_transform(state.pa_context, p.field, p.op, p.value)
    return f"completeness x{p.value}", False


def _act_t5(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    patch, memory = inj.args, state.memory
    state.pa_context = apply_context_patch(state.pa_context, patch)
    # the hallucination enters long-term memory as a self-made constraint
    if inj.persistent and "speed_limit_kph" in patch:
        state.memory = memory.adopt(MemoryEntry(
            SPEED_CAP_KEY, MemoryKind.CONSTRAINT, float(patch["speed_limit_kph"]), Role.PERSONAL_AGENT,
            inserted_step=step, persistent=True,
        ))
    return "hallucinated context fact" + ("" if state.memory is memory else ", memorized"), False


def _act_t6(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    state.request = replace(state.request, **inj.args)
    return "request reinterpreted", False


def _act_t7(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    state.dsa_weights = dict(inj.args)
    return "optimization priorities skewed", False


def _act_t8(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    stripped = state.log.strip_provenance()
    return f"stripped origin hops from {stripped} log entries", stripped == 0


def _act_t9(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    claimed, target, patch = inj.args
    if target == "context":
        authority = Authority.CONTEXT_ONLY
        payload: object = dict(patch)
    else:
        authority = Authority.INTENT_ONLY
        payload = {"forged_user_input": True}
    # the claimed sender is forged; the one provenance hop is the true sender's
    state.envelopes.append(
        MessageEnvelope(Role.EXTERNAL, claimed, authority, payload, ((Role.EXTERNAL, step),), step)
    )
    return f"forged envelope claiming {claimed.value}", False


def _act_t10(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    state.noise_queries = inj.args
    return "confirmation flood", False


def _act_t11(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    tool, field_name, value = inj.args
    state.tool_output = tool
    held = getattr(state.tuning, field_name)
    # kept when unchanged, so the runner digests it once; 0.0 and -0.0 are equal but write differently
    if held != value or repr(held) != repr(value):
        state.tuning = replace(state.tuning, **{field_name: value})
    return f"tool compromised; config {field_name}={value}" + ("" if held != value else " (already set)"), False


def _external_context(state: PipelineState) -> int | None:
    """Index of the last External ContextOnly envelope in flight, if any."""
    for i in range(len(state.envelopes) - 1, -1, -1):
        env = state.envelopes[i]
        if env.sender is Role.EXTERNAL and env.authority is Authority.CONTEXT_ONLY:
            return i
    return None


def _view_t12(state: PipelineState, args: tuple[str, tuple]) -> LazyDigest:
    if args[0] == "context":
        return LazyDigest(state.dsa_context)
    i = _external_context(state)
    return LazyDigest(tuple(state.envelopes) if i is None else state.envelopes[i].payload)


def _act_t12(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    target, edits = inj.args
    if target == "context":
        for p in edits:
            state.dsa_context = apply_summary_transform(state.dsa_context, p.field, p.op, p.value)
        return "coordination channel poisoned", False
    i = _external_context(state)
    if i is None:
        return "no external envelope in flight", True
    env = state.envelopes[i]
    patch = dict(env.payload) if isinstance(env.payload, dict) else {}
    # the lists may be shared with a configured payload or a logged envelope:
    # build new ones instead of appending in place
    for field_name, value in edits:
        if field_name == "speed_limit_kph":
            patch["speed_limit_kph"] = value
        elif field_name == "closures":
            closures = patch.get("closures_add", [])
            if value not in closures:
                patch["closures_add"] = [*closures, value]
        else:
            patch["hazards_add"] = [*patch.get("hazards_add", []), dict(value)]
    state.envelopes[i] = MessageEnvelope(env.sender, env.claimed_sender, env.authority, patch, env.provenance, env.step)
    return "in-flight message poisoned", False


def _act_t13(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    agent, policy = inj.args
    if agent == "PA":
        state.pa_policy = policy
    else:
        state.dsa_policy = policy
    return f"{agent} policy swapped to {policy}", False


def _act_t14(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    # conflicting instructions processed in order; recency wins
    state.request = inj.args[-1]
    return f"{len(inj.args)} conflicting requests injected", False


def _act_t15(inj: ThreatInjection, state: PipelineState, step: int) -> tuple[str, bool]:
    state.user.framing_bias, state.user.framing_answer = inj.args
    return "user reply biased toward agent framing", False


# ---------------------------------------------------------------------------
# the registry: one spec per threat id


@record
class ThreatSpec:
    """Everything the harness knows about one threat id."""

    surfaces: frozenset[Surface]
    keys: tuple[str, ...]  # the payload keys the schema knows; any other is rejected
    parse: Callable[[dict, str, ThreatInjection], Any]  # (payload, where, injection) -> `ThreatInjection.args`
    # the surface the injector edits, seen before and after it acts, as a
    # value that nothing edits later; view and act are None for the
    # cross-layer vectors, whose injections act inside the layer functions
    view: Callable[[PipelineState, Any], LazyDigest | MemoryStore] | None
    act: Callable[[ThreatInjection, PipelineState, int], tuple[str, bool]] | None
    # step-record key prefixes through which the effect may surface; the
    # chain runner's structural attribution reads them
    footprint: tuple[str, ...]
    # the part of the footprint that depends on the surface or the payload
    footprint_extra: Callable[[ThreatInjection], tuple[str, ...]] | None = None
    layer: Layer | None = None  # implied by cross-layer vectors; T4-on-Layer may pick any
    persistent: bool = False  # the injector reads `ThreatInjection.persistent`


_DOWNSTREAM = ("intent", "submissions", "approved")
_DECISION = ("submissions", "approved")


def _cross_layer(layer: Layer, footprint: tuple[str, ...]) -> ThreatSpec:
    return ThreatSpec(
        frozenset({Surface.LAYER}), ("transforms",), _parse_transforms, None, None, footprint, layer=layer
    )


THREATS: dict[ThreatId, ThreatSpec] = {
    ThreatId.T1: ThreatSpec(
        frozenset({Surface.PA_MEMORY}), ("value_kph", "key"), _parse_t1,
        lambda s, a: s.memory, _act_t1, ("memory_digest",) + _DOWNSTREAM,
        persistent=True,
    ),
    ThreatId.T2: ThreatSpec(
        frozenset({Surface.TOOL_OUTPUT}), ("advised_speed_kph", "route_hint"), _tool_output,
        lambda s, a: LazyDigest(s.tool_output), _act_t2, ("tool_output", "memory_digest") + _DOWNSTREAM,
    ),
    ThreatId.T3: ThreatSpec(
        frozenset({Surface.INTER_AGENT_MSG}), ("grant_role", "context_patch"), _parse_t3,
        # `dict`: the default table is a read-only mapping, which the digest writes as a dict
        lambda s, a: LazyDigest({"admission": dict(s.admission), "envelopes": len(s.envelopes)}), _act_t3,
        ("admission_digest", "envelope_count", "log_digest", "dsa_context") + _DECISION,
    ),
    ThreatId.T4: ThreatSpec(
        frozenset({Surface.PA_INPUT, Surface.LAYER}), ("completeness_factor",), _parse_t4,
        lambda s, a: LazyDigest(s.pa_context), _act_t4, ("pa_context",),
        footprint_extra=lambda inj: ("dsa_context",) if inj.surface is Surface.LAYER else (),
    ),
    ThreatId.T5: ThreatSpec(
        frozenset({Surface.PA_INPUT}), ("context_patch",), _parse_t5,
        lambda s, a: LazyDigest(s.pa_context), _act_t5, ("pa_context", "memory_digest") + _DOWNSTREAM,
        persistent=True,
    ),
    ThreatId.T6: ThreatSpec(
        frozenset({Surface.PA_INPUT}), ("urgency_tag", "destination", "desired_speed_kph"), _parse_t6,
        lambda s, a: LazyDigest(s.request), _act_t6, ("request",) + _DOWNSTREAM,
    ),
    ThreatId.T7: ThreatSpec(
        frozenset({Surface.DSA_WEIGHTS}), ("speed_weight", "headway_scale"), _parse_t7,
        lambda s, a: LazyDigest(s.dsa_weights), _act_t7, _DECISION,
    ),
    ThreatId.T8: ThreatSpec(
        frozenset({Surface.LOGS}), ("mode",), _parse_t8, lambda s, a: s.log.snapshot(), _act_t8, ("log_digest",),
    ),
    ThreatId.T9: ThreatSpec(
        frozenset({Surface.IDENTITY_FIELD}), ("claimed", "target", "context_patch"), _parse_t9,
        lambda s, a: LazyDigest(tuple(s.envelopes)), _act_t9, ("envelope_count", "spoofed_envelopes", "log_digest"),
        footprint_extra=lambda inj: ("dsa_context",) + _DECISION if inj.args[2] else (),
    ),
    ThreatId.T10: ThreatSpec(
        frozenset({Surface.USER_CHANNEL}), ("noise_queries",), _parse_t10,
        lambda s, a: LazyDigest(s.noise_queries), _act_t10, ("user_queries", "request") + _DOWNSTREAM,
    ),
    ThreatId.T11: ThreatSpec(
        frozenset({Surface.TOOL_OUTPUT}), ("config_field", "config_value", "advised_speed_kph", "route_hint"),
        _parse_t11, lambda s, a: LazyDigest({"tool": s.tool_output, "tuning": s.tuning}), _act_t11,
        ("tool_output", "tuning_digest", "memory_digest") + _DOWNSTREAM,
    ),
    ThreatId.T12: ThreatSpec(
        frozenset({Surface.INTER_AGENT_MSG}), ("target", "edits"), _parse_t12,
        _view_t12, _act_t12, ("dsa_context",) + _DECISION,
    ),
    ThreatId.T13: ThreatSpec(
        frozenset({Surface.AGENT_POLICY}), ("agent", "policy"), _parse_t13,
        lambda s, a: LazyDigest({"pa": s.pa_policy, "dsa": s.dsa_policy}), _act_t13, ("policies",) + _DOWNSTREAM,
    ),
    ThreatId.T14: ThreatSpec(
        frozenset({Surface.USER_CHANNEL}), ("requests",), _parse_t14,
        lambda s, a: LazyDigest(s.request), _act_t14, ("request",) + _DOWNSTREAM,
    ),
    ThreatId.T15: ThreatSpec(
        frozenset({Surface.USER_CHANNEL}), ("framing_weight", "framing"), _parse_t15,
        lambda s, a: LazyDigest({"bias": s.user.framing_bias, "answer": s.user.framing_answer}), _act_t15,
        ("request",) + _DOWNSTREAM,
    ),
    ThreatId.X_PERCEPTION: _cross_layer(Layer.PERCEPTION, ("pa_context", "dsa_context") + _DOWNSTREAM),
    ThreatId.X_V2X: _cross_layer(Layer.V2X, ("pa_context", "dsa_context") + _DOWNSTREAM),
    ThreatId.X_COMPUTE: _cross_layer(Layer.COMPUTE, ("pa_context", "dsa_context") + _DOWNSTREAM),
    ThreatId.X_CONTROL_FEEDBACK: _cross_layer(Layer.CONTROL_FEEDBACK, ("feedback",) + _DECISION),
}


def legal_surfaces(threat: ThreatId) -> frozenset[Surface]:
    return THREATS[ThreatId(threat)].surfaces


_LAYER_SURFACE = Surface.LAYER  # read once: `apply` runs at every step an injection is active


def apply(
    injection: ThreatInjection, state: PipelineState, step: int, layer_before: LazyDigest | None = None
) -> InjectionEffectRecord:
    """Apply one injection to the pipeline state, returning its oracle record.

    The one place that builds an InjectionEffectRecord: it keeps the surface
    the threat edits (its spec's `view`) as seen before and after the
    injector acts. The runner calls it only at the steps where its schedule
    makes it active. A Layer-surface injection has already acted inside the
    layer functions, before fusion: its record compares `layer_before`, the
    unperturbed layer views, with the views in `state`, and without
    `layer_before` it raises ValueError.
    """
    if injection.surface is _LAYER_SURFACE:
        if layer_before is None:
            raise ValueError(
                f"{injection.threat.value} on {injection.surface.value} acts inside the layer functions, "
                "not through apply(); use to_layer_perturbations"
            )
        before, note, warning = layer_before, "layer summary perturbed", False
        after = LazyDigest({"context": state.pa_context, "feedback": state.feedback})
    else:
        spec = THREATS[injection.threat]
        assert spec.view is not None and spec.act is not None
        before = spec.view(state, injection.args)
        note, warning = spec.act(injection, state, step)
        after = spec.view(state, injection.args)
    return InjectionEffectRecord(injection.threat, step, injection.surface, before, after, note, warning)


def delta_footprint(injection: ThreatInjection) -> tuple[str, ...]:
    """Step-record key prefixes through which this injection's effect may surface."""
    spec = THREATS[injection.threat]
    if spec.footprint_extra is None:
        return spec.footprint
    return spec.footprint + spec.footprint_extra(injection)
