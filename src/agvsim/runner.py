"""Episode execution: the per-step loop that wires layers, agents, and attacks.

One runner owns one scenario run. Within a step the ordering is fixed:
layer summaries are built (with any active layer transforms), pre-PA
injections edit memory/request/tool/user surfaces, the PA interprets, pre-DSA
injections edit envelopes/context/weights, admission filters the message set,
the DSA proposes, and the SC validates with at most one revision. Everything
observable lands in the step record; injections additionally leave oracle
effect records. Identical (config, seed) always yields an identical trace.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache
from operator import methodcaller
from typing import TYPE_CHECKING

from .cavstack import LayerPerturbation, control_feedback, fuse, perceive, v2x_broadcast
from .domain import (
    DEFAULT_ADMISSION,
    Authority,
    ContextSummary,
    MessageEnvelope,
    Role,
    VehicleFeedback,
    admitted,
)
from .pipeline import (
    MemoryEntry,
    MemoryKind,
    MemoryStore,
    Rulebook,
    AgentTuning,
    SPEED_CAP_KEY,
    validate_with_revision,
)
from . import serialize
from .serialize import digest_of
from .threats import (
    InjectionEffectRecord,
    LazyDigest,
    MessageLog,
    Phase,
    PipelineState,
    SimulatedUserState,
    ThreatInjection,
    ToolOutput,
    apply,
    apply_context_patch,
    confirm_urgency,
    injection_phase,
    run_dsa_policy,
    run_pa_policy,
    to_layer_perturbations,
)
from .trace import EpisodeTrace, StepRecord, _log_digest

if TYPE_CHECKING:  # pragma: no cover
    from .chains import ChainSchedule
    from .scenario import ScenarioConfig


# The five honest message edges of a step, (sender, authority, receiver).
# Loading an enum member costs several times a plain attribute load, so the
# step loop reads its roles, authorities and phases from these constants.
_USER_TO_PA = (Role.USER, Authority.INTENT_ONLY, Role.PERSONAL_AGENT)
_PA_TO_DSA = (Role.PERSONAL_AGENT, Authority.INTENT_ONLY, Role.DRIVING_STRATEGY_AGENT)
_STACK_TO_DSA = (Role.CAV_STACK, Authority.CONTEXT_ONLY, Role.DRIVING_STRATEGY_AGENT)
_DSA_TO_SC = (Role.DRIVING_STRATEGY_AGENT, Authority.PROPOSAL_ONLY, Role.SAFETY_CHECK)
_SC_TO_DSA = (Role.SAFETY_CHECK, Authority.VERDICT_ONLY, Role.DRIVING_STRATEGY_AGENT)
_CONTEXT_ONLY = Authority.CONTEXT_ONLY
_LAYER, _PRE_PA, _PRE_DSA, _POST_STEP = Phase.LAYER, Phase.PRE_PA, Phase.PRE_DSA, Phase.POST_STEP


def _delivered(edge: tuple[Role, Authority, Role], payload: object, step: int) -> MessageEnvelope:
    """An honestly labelled envelope sent along `edge` at `step`, received at the next step."""
    sender, authority, to = edge
    return MessageEnvelope(sender, sender, authority, payload, ((sender, step), (to, step + 1)), step)


def _admission_plain(admission: dict[Authority, frozenset[Role]]) -> dict[str, list[str]]:
    return {a.value: sorted(r.value for r in roles) for a, roles in admission.items()}


# every run starts from this one frozen tuning, so the runner's memo by
# identity finds its digest until T11 replaces it
_DEFAULT_TUNING = AgentTuning()


@cache
def _default_digests() -> tuple[str, str]:
    """The digests of `_DEFAULT_TUNING` and of `DEFAULT_ADMISSION`, taken once per process.

    The first run takes them, not the import, so that importing the package
    writes no JSON. They go through `serialize.digest_of`, not this module's
    `digest_of`, whose calls are each run's own digests.
    """
    return serialize.digest_of(_DEFAULT_TUNING), serialize.digest_of(_admission_plain(DEFAULT_ADMISSION))


def _run_phase(
    entries: list[tuple[int | None, ThreatInjection]],
    state: PipelineState,
    g: int,
    effects: list[InjectionEffectRecord],
    layer_before: LazyDigest,
    chain: ChainSchedule | None,
) -> None:
    """Apply each active injection of one phase in list order, keeping its record.

    An entry carries its chain stage index, or None for a scenario injection;
    a stage is marked fired at its first record without a warning.
    """
    for index, inj in entries:
        record = apply(inj, state, g, layer_before)
        effects.append(record)
        if index is not None and not record.warning:
            chain.mark_fired(index, g)  # type: ignore[union-attr]



def run_episodes(
    config: ScenarioConfig,
    with_injections: bool,
    chain: ChainSchedule | None = None,
    seed: int | None = None,
) -> EpisodeTrace:
    """Run all episodes of a scenario, attacked or baseline.

    The baseline run (`with_injections=False`) skips every injection and
    chain stage but consumes identical seeds and steps, so the pair differs
    only where attacks acted. An attacked run also acts the stages of
    `chain` from their triggers on and marks in it the step at which each
    inject stage first takes effect.
    """
    seed_value = config.seed if seed is None else seed
    steps_per_episode = config.steps_per_episode

    static_injections = list(config.injections) if with_injections else []
    stages = chain if with_injections else None

    world = config.world
    # the world never changes, so the views depend only on the active layer
    # perturbations: (fused context, feedback) per active set, keyed by their
    # ids in list order. The config holds the parsed perturbations for the
    # whole run, so no id is reused; equal values may still write differently
    # (0.0 and -0.0), so the key is identity, never value
    views: dict[tuple[int, ...], tuple[ContextSummary, VehicleFeedback]] = {}

    def layer_views(perturbations: list[LayerPerturbation]) -> tuple[ContextSummary, VehicleFeedback]:
        key = tuple(map(id, perturbations))
        built = views.get(key)
        if built is None:
            fused = fuse([perceive(world, perturbations), v2x_broadcast(world, perturbations)])
            built = views[key] = (fused, control_feedback(world, perturbations))
        return built

    clean_fused, clean_feedback = layer_views([])  # the unperturbed views, which Layer records compare with
    clean = LazyDigest({"context": clean_fused, "feedback": clean_feedback})
    no_tool_output = ToolOutput()  # frozen: one per run
    rules = Rulebook()
    tuning = _DEFAULT_TUNING
    # each digest is recomputed only when its object changes: T11 replaces
    # the frozen tuning, and only T3 edits the admission table
    tuning_digested = tuning
    tuning_digest, default_admission_digest = _default_digests()
    memory = MemoryStore()
    log = MessageLog()
    records: list[StepRecord] = []

    for episode in range(config.episodes):
        if episode > 0:
            memory = memory.carry_over()
        # integer seeding only: string seeds would pull in hash randomization
        user = SimulatedUserState(seed=seed_value * 1_000_003 + episode)

        for step, request in enumerate(config.requests):
            g = episode * steps_per_episode + step
            effects: list[InjectionEffectRecord] = []

            # one list of what is active this step, the only window check:
            # static injections (by window) before chain stages (by trigger)
            active: list[tuple[int | None, ThreatInjection]] = [
                (None, inj) for inj, (start, end) in static_injections if start <= g <= end
            ]
            if stages is not None:
                active.extend(stages.active_injections(g))

            # grouped by phase once; list order holds within each phase
            phases: dict[Phase, list[tuple[int | None, ThreatInjection]]] = {}
            for entry in active:
                phases.setdefault(injection_phase(entry[1]), []).append(entry)

            # layer transforms act inside the layer functions, before fusion
            layer = phases.get(_LAYER)
            if layer:
                fused, feedback = layer_views([p for _, inj in layer for p in to_layer_perturbations(inj)])
            else:
                fused, feedback = clean_fused, clean_feedback

            user.reset_step()
            state = PipelineState(
                memory=memory,
                request=request,
                pa_context=fused,
                dsa_context=fused,
                feedback=feedback,
                tool_output=no_tool_output,
                user=user,
                tuning=tuning,
                log=log,
            )
            if layer:
                _run_phase(layer, state, g, effects, clean, stages)
            entries = phases.get(_PRE_PA)
            if entries:
                _run_phase(entries, state, g, effects, clean, stages)
            tuning = state.tuning  # T11 acts pre-PA; its knobs hold from here on
            if tuning is not tuning_digested:
                tuning_digested, tuning_digest = tuning, digest_of(tuning)

            # the PA confirms urgency with the (possibly overloaded) user
            confirmed = confirm_urgency(state.user, state.request.urgency_tag)
            if confirmed != state.request.urgency_tag:
                state.request = replace(state.request, urgency_tag=confirmed)

            # tool advice is adopted into memory as a speed-cap constraint
            advice = state.tool_output.advised_speed_kph
            if advice is not None:
                memory.adopt(
                    MemoryEntry(
                        key=SPEED_CAP_KEY,
                        kind=MemoryKind.CONSTRAINT,
                        value=float(advice),
                        origin=Role.EXTERNAL,
                        inserted_step=g,
                        persistent=False,
                    )
                )

            state.envelopes.append(
                _delivered(_USER_TO_PA, dict(
                    urgency_tag=state.request.urgency_tag,
                    destination=state.request.destination,
                ), g)
            )

            intent = run_pa_policy(state.pa_policy, state.request, memory, state.pa_context, tuning)
            state.envelopes.append(_delivered(_PA_TO_DSA, intent, g))

            entries = phases.get(_PRE_DSA)
            if entries:
                _run_phase(entries, state, g, effects, clean, stages)

            # the stack's own context message, carrying the (possibly poisoned) summary
            state.envelopes.append(_delivered(_STACK_TO_DSA, state.dsa_context, g))

            # admission: claimed identity decides; patches from admitted
            # context messages merge into the DSA's working context
            rejected = 0
            for env in state.envelopes:
                if env.authority is _CONTEXT_ONLY and isinstance(env.payload, dict):
                    if admitted(env, state.admission):
                        state.dsa_context = apply_context_patch(state.dsa_context, env.payload)
                    else:
                        rejected += 1
                elif not admitted(env, state.admission):
                    rejected += 1

            proposal = run_dsa_policy(
                state.dsa_policy, state.dsa_weights, intent,
                state.dsa_context, state.feedback, rules, tuning,
            )
            submissions, verdicts, approved = validate_with_revision(
                proposal, state.feedback, rules, state.dsa_context.speed_limit_kph
            )
            for submitted, verdict in zip(submissions, verdicts):
                state.envelopes.append(_delivered(_DSA_TO_SC, submitted, g))
                state.envelopes.append(_delivered(_SC_TO_DSA, verdict, g))

            log_start = len(log)
            log.extend(state.envelopes)

            entries = phases.get(_POST_STEP)
            if entries:
                _run_phase(entries, state, g, effects, clean, stages)

            step_envelopes = log.since(log_start)
            records.append(
                StepRecord(
                    episode=episode,
                    step=step,
                    global_step=g,
                    request=state.request,
                    pa_context=state.pa_context,
                    dsa_context=state.dsa_context,
                    feedback=state.feedback,
                    tool_output=state.tool_output,
                    intent=intent,
                    submissions=submissions,
                    verdicts=verdicts,
                    approved=approved,
                    envelopes=step_envelopes,
                    rejected_envelopes=rejected,
                    spoofed_envelopes=sum(1 for e in step_envelopes if e.spoofed),
                    user_queries=user.queries_asked,
                    policies=(state.pa_policy, state.dsa_policy),
                    memory_digest=memory.digest(),
                    tuning_digest=tuning_digest,
                    admission_digest=(
                        default_admission_digest if state.admission == DEFAULT_ADMISSION
                        else digest_of(_admission_plain(state.admission))
                    ),
                    log_digest=LazyDigest(step_envelopes, _log_digest),
                    effects=tuple(effects),
                )
            )

    # the world is frozen all the way down, so one digest, taken when an
    # export first reads it, stands for the world before and after the run
    world_digest = LazyDigest(world, methodcaller("digest"))
    return EpisodeTrace(
        scenario_id=config.id,
        seed=seed_value,
        injected=with_injections,
        episodes=config.episodes,
        steps_per_episode=steps_per_episode,
        steps=tuple(records),
        world_digest_before=world_digest,
        world_digest_after=world_digest,
    )
