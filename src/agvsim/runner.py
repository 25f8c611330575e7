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

import random
from dataclasses import replace

from .cavstack import LayerPerturbation, control_feedback, fuse, perceive, v2x_broadcast
from .chains import ChainSchedule
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
from .scenario import ConfigError, ScenarioConfig
from .serialize import _plain_digest, digest_of
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
from .trace import EpisodeTrace, StepRecord


def _episode_rng(seed: int, episode: int) -> random.Random:
    # integer seeding only: string seeds would pull in hash randomization
    return random.Random(seed * 1_000_003 + episode)


def _delivered(sender: Role, authority: Authority, payload: object, step: int, to: Role) -> MessageEnvelope:
    """An honestly labelled envelope sent at `step` and received by `to` at the next step."""
    return MessageEnvelope(sender, sender, authority, payload, ((sender, step), (to, step + 1)), step)


def _admission_digest(admission: dict[Authority, frozenset[Role]]) -> str:
    return digest_of({a.value: sorted(r.value for r in roles) for a, roles in admission.items()})


_DEFAULT_ADMISSION_DIGEST = _admission_digest(DEFAULT_ADMISSION)
# every run starts from this one frozen tuning, so the runner's memo by
# identity finds its digest until T11 replaces it
_DEFAULT_TUNING = AgentTuning()
_DEFAULT_TUNING_DIGEST = digest_of(_DEFAULT_TUNING)


def _run_phase(
    active: list[tuple[int | None, ThreatInjection]],
    phase: Phase,
    state: PipelineState,
    g: int,
    effects: list[InjectionEffectRecord],
    layer_before: LazyDigest,
    chain: ChainSchedule | None,
) -> None:
    """Apply each active injection of `phase` in list order, keeping its record.

    An entry carries its chain stage index, or None for a scenario injection;
    a stage is marked fired at its first record without a warning.
    """
    for index, inj in active:
        if injection_phase(inj) is phase:
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
    only where attacks acted. `chain` sets the episode length to the
    chain's; an attacked run also acts its stages from their triggers on and
    marks in it the step at which each inject stage first takes effect,
    while a baseline takes only the episode length.
    """
    seed_value = config.seed if seed is None else seed
    steps_per_episode = chain.spec.episode_length if chain is not None else config.steps_per_episode
    if steps_per_episode and not config.requests:
        raise ConfigError(config.id, f"no requests to drive {steps_per_episode} steps per episode")

    static_injections = list(config.injections) if with_injections else []
    stages = chain if with_injections else None

    world = config.world
    world_digest_before = world.digest()
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
    tuning_digested, tuning_digest = tuning, _DEFAULT_TUNING_DIGEST
    memory = MemoryStore()
    log = MessageLog()
    records: list[StepRecord] = []

    for episode in range(config.episodes):
        if episode > 0:
            memory = memory.carry_over()
        user = SimulatedUserState(rng=_episode_rng(seed_value, episode))

        for step in range(steps_per_episode):
            g = episode * steps_per_episode + step
            request = config.requests[step % len(config.requests)]
            effects: list[InjectionEffectRecord] = []

            # one list of what is active this step, the only window check:
            # static injections (by window) before chain stages (by trigger)
            active: list[tuple[int | None, ThreatInjection]] = [
                (None, inj) for inj, (start, end) in static_injections if start <= g <= end
            ]
            if stages is not None:
                active.extend(stages.active_injections(g))

            # layer transforms act inside the layer functions, before fusion
            layer_injections = [inj for _, inj in active if injection_phase(inj) is Phase.LAYER]
            fused, feedback = layer_views([p for inj in layer_injections for p in to_layer_perturbations(inj)])

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
            _run_phase(active, Phase.LAYER, state, g, effects, clean, stages)
            _run_phase(active, Phase.PRE_PA, state, g, effects, clean, stages)
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
                _delivered(Role.USER, Authority.INTENT_ONLY, dict(
                    urgency_tag=state.request.urgency_tag,
                    destination=state.request.destination,
                ), g, Role.PERSONAL_AGENT)
            )

            intent = run_pa_policy(state.pa_policy, state.request, memory, state.pa_context, tuning)
            state.envelopes.append(
                _delivered(Role.PERSONAL_AGENT, Authority.INTENT_ONLY, intent, g, Role.DRIVING_STRATEGY_AGENT)
            )

            _run_phase(active, Phase.PRE_DSA, state, g, effects, clean, stages)

            # the stack's own context message, carrying the (possibly poisoned) summary
            state.envelopes.append(
                _delivered(Role.CAV_STACK, Authority.CONTEXT_ONLY, state.dsa_context, g, Role.DRIVING_STRATEGY_AGENT)
            )

            # admission: claimed identity decides; patches from admitted
            # context messages merge into the DSA's working context
            rejected = 0
            for env in state.envelopes:
                if env.authority is Authority.CONTEXT_ONLY and isinstance(env.payload, dict):
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
                state.envelopes.append(
                    _delivered(Role.DRIVING_STRATEGY_AGENT, Authority.PROPOSAL_ONLY, submitted, g, Role.SAFETY_CHECK)
                )
                state.envelopes.append(
                    _delivered(Role.SAFETY_CHECK, Authority.VERDICT_ONLY, verdict, g, Role.DRIVING_STRATEGY_AGENT)
                )

            log_start = len(log)
            log.extend(state.envelopes)

            _run_phase(active, Phase.POST_STEP, state, g, effects, clean, stages)

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
                        _DEFAULT_ADMISSION_DIGEST if state.admission == DEFAULT_ADMISSION
                        else _admission_digest(state.admission)
                    ),
                    # provenance shape only: tracks attribution loss and
                    # message-count changes without mirroring payload content
                    log_digest=_plain_digest(
                        [[[role.value, hop] for role, hop in env.provenance] for env in step_envelopes]
                    ),
                    effects=tuple(effects),
                )
            )

    return EpisodeTrace(
        scenario_id=config.id,
        seed=seed_value,
        injected=with_injections,
        episodes=config.episodes,
        steps_per_episode=steps_per_episode,
        steps=tuple(records),
        world_digest_before=world_digest_before,
        world_digest_after=world.digest(),
    )
