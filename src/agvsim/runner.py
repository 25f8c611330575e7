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

from .cavstack import control_feedback, fuse, perceive, v2x_broadcast
from .chains import ChainSchedule
from .domain import (
    Authority,
    Role,
    admitted,
    make_envelope,
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
from .serialize import digest_of
from .threats import (
    InjectionEffectRecord,
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


def _run_phase(
    active: list[tuple[ChainSchedule | None, int, ThreatInjection]],
    phase: Phase,
    state: PipelineState,
    g: int,
    effects: list[InjectionEffectRecord],
    layer_before: str,
) -> None:
    """Apply each active injection of `phase` in list order, keeping its record.

    A chain stage is marked fired at its first record without a warning.
    """
    for schedule, index, inj in active:
        if injection_phase(inj) is phase:
            record = apply(inj, state, g, layer_before)
            effects.append(record)
            if schedule is not None and not record.warning:
                schedule.mark_fired(index, g)


def run_episodes(
    config: ScenarioConfig,
    with_injections: bool,
    chain: ChainSchedule | None = None,
    seed: int | None = None,
    steps_per_episode: int | None = None,
) -> EpisodeTrace:
    """Run all episodes of a scenario, attacked or baseline.

    The baseline run (`with_injections=False`) skips every injection and
    chain stage but consumes identical seeds and steps, so the pair differs
    only where attacks acted. `chain` schedules one extra chain; the runner
    marks in it the step at which each inject stage first takes effect.
    """
    seed_value = config.seed if seed is None else seed
    if steps_per_episode is None:
        steps_per_episode = chain.spec.episode_length if chain is not None else config.steps_per_episode
    if steps_per_episode and not config.requests:
        raise ConfigError(config.id, f"no requests to drive {steps_per_episode} steps per episode")

    static_injections = list(config.injections) if with_injections else []
    schedules = []
    if with_injections:
        schedules = [ChainSchedule(spec) for spec in config.chains]
        if chain is not None:
            schedules.append(chain)

    world = config.world
    world_digest_before = world.digest()
    clean_digest = ""  # the unperturbed views' digest, built at most once: the world never changes
    rules = Rulebook()
    tuning = AgentTuning()
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

            # one list of what is active this step, static injections (by
            # window) before chain stages (by trigger resolution)
            active: list[tuple[ChainSchedule | None, int, ThreatInjection]] = [
                (None, -1, inj) for inj in static_injections if inj.active(g)
            ]
            for schedule in schedules:
                active.extend((schedule, index, inj) for index, inj in schedule.active_injections(g))

            # layer transforms act inside the layer functions, before fusion
            layer_injections = [inj for _, _, inj in active if injection_phase(inj) is Phase.LAYER]
            perturbations = [p for inj in layer_injections for p in to_layer_perturbations(inj)]
            perception_view = perceive(world, perturbations, g)
            v2x_view = v2x_broadcast(world, perturbations, g)
            feedback = control_feedback(world, perturbations, g)
            fused = fuse([perception_view, v2x_view])
            if layer_injections and not clean_digest:
                clean_digest = digest_of({
                    "context": fuse([perceive(world, [], g), v2x_broadcast(world, [], g)]),
                    "feedback": control_feedback(world, [], g),
                })

            user.reset_step()
            state = PipelineState(
                memory=memory,
                request=request,
                pa_context=fused,
                dsa_context=fused,
                feedback=feedback,
                tool_output=ToolOutput(),
                user=user,
                tuning=tuning,
                log=log,
            )
            _run_phase(active, Phase.LAYER, state, g, effects, clean_digest)
            _run_phase(active, Phase.PRE_PA, state, g, effects, clean_digest)

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
                make_envelope(Role.USER, Authority.INTENT_ONLY, dict(
                    urgency_tag=state.request.urgency_tag,
                    destination=state.request.destination,
                ), g).with_hop(Role.PERSONAL_AGENT, g + 1)
            )

            intent = run_pa_policy(state.pa_policy, state.request, memory, state.pa_context, tuning)
            state.envelopes.append(
                make_envelope(Role.PERSONAL_AGENT, Authority.INTENT_ONLY, intent, g)
                .with_hop(Role.DRIVING_STRATEGY_AGENT, g + 1)
            )

            _run_phase(active, Phase.PRE_DSA, state, g, effects, clean_digest)

            # the stack's own context message, carrying the (possibly poisoned) summary
            state.envelopes.append(
                make_envelope(Role.CAV_STACK, Authority.CONTEXT_ONLY, state.dsa_context, g)
                .with_hop(Role.DRIVING_STRATEGY_AGENT, g + 1)
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
                    make_envelope(Role.DRIVING_STRATEGY_AGENT, Authority.PROPOSAL_ONLY, submitted, g)
                    .with_hop(Role.SAFETY_CHECK, g + 1)
                )
                state.envelopes.append(
                    make_envelope(Role.SAFETY_CHECK, Authority.VERDICT_ONLY, verdict, g)
                    .with_hop(Role.DRIVING_STRATEGY_AGENT, g + 1)
                )

            log_start = len(log)
            log.extend(state.envelopes)

            _run_phase(active, Phase.POST_STEP, state, g, effects, clean_digest)

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
                    tuning_digest=digest_of(tuning),
                    admission_digest=digest_of(
                        {a.value: sorted(r.value for r in roles) for a, roles in state.admission.items()}
                    ),
                    # provenance shape only: tracks attribution loss and
                    # message-count changes without mirroring payload content
                    log_digest=digest_of(
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
