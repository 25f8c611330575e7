"""Whole generated scenarios hold the pipeline's invariants (ROADMAP item 9).

One derandomized strategy draws a scenario document from the loader's
schema: a world whose vehicle speed the SC can reach, one to four requests
and episodes, and up to three injections over every threat id, with the
payloads of `test_payload_properties`, windows inside the run and
`persistent` only where the threat's injector reads it. A document the
loader rejects, or a pair that raises `PipelineError`, is dropped and
counted. Every pair that runs must keep its baseline clear of the
injections, leave the world as it was, export finite JSON, approve only
rule-compliant proposals and make no cyclic garbage. Together the pairs
must reach every outcome class and both stealth values; hypothesis is
steered toward attacks the SC blocks, which uniform draws seldom reach.
"""

import copy
import dataclasses
import gc
import json
from collections import Counter

from hypothesis import assume, event, given, settings, target
from hypothesis import strategies as st

from agvsim.domain import MAX_SPEED_LIMIT_KPH, MIN_SPEED_KPH, DrivingMode, RoadClass, ThreatId
from agvsim.pipeline import Decision, PipelineError, Rulebook, max_delta_kph, sc_violations
from agvsim.report import compare, render_csv, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import ConfigError, load_shipped, parse_scenario
from agvsim.threats import THREATS
from agvsim.trace import OutcomeClass
from test_payload_properties import injections, key_values, texts

RULES = Rulebook()
# the payload values that fit the README table, without the edge values and junk that would be rejected
PAYLOAD_VALUES = key_values(lambda strategy: strategy)

hazards = st.fixed_dictionaries({
    "kind": texts, "distance_m": st.floats(0, 300), "confidence": st.floats(0, 1),
})


@st.composite
def worlds(draw) -> dict:
    """A world the SC can drive in: the vehicle's speed within one acceleration window of a legal one."""
    limit = draw(st.floats(MIN_SPEED_KPH, MAX_SPEED_LIMIT_KPH))
    reachable = min(limit, RULES.abs_max_speed_kph) + max_delta_kph(RULES)
    return {
        "speed_limit_kph": limit,
        "road_class": draw(st.sampled_from([r.value for r in RoadClass])),
        "vehicle_speed_kph": draw(st.floats(0, reachable)),
        "hazards": draw(st.lists(hazards, max_size=2)),
        "closures": draw(st.lists(texts, max_size=2)),
    }


@st.composite
def scheduled_injections(draw, steps: int) -> dict:
    """One injection of any threat, acting inside a run of `steps` steps."""
    threat = draw(st.sampled_from(list(ThreatId)))
    injection = draw(injections(threat, PAYLOAD_VALUES))
    # from the first step to the last unless drawn otherwise: a longer window acts on more steps
    start = draw(st.integers(0, steps - 1))
    injection["window"] = [start, steps - 1 - draw(st.integers(0, steps - 1 - start))]
    if THREATS[threat].persistent:
        injection["persistent"] = draw(st.booleans())
    return injection


@st.composite
def scenarios(draw) -> dict:
    requests = draw(st.lists(st.fixed_dictionaries(
        {"urgency_tag": st.sampled_from(["Routine", "Urgent"]), "destination": texts},
        optional={"desired_speed_kph": st.floats(MIN_SPEED_KPH, 250)},
    ), min_size=1, max_size=4))
    episodes = draw(st.integers(1, 4))
    return {
        "id": "generated",
        "mode": draw(st.sampled_from([m.value for m in DrivingMode])),
        "agency": draw(st.integers(0, 5)),
        "seed": draw(st.integers(0, 2**16)),
        "world": draw(worlds()),
        "requests": requests,
        "episodes": episodes,
        # no injection drawn last: the first choice is the one hypothesis favours, and no attack tests least
        "injections": [
            draw(scheduled_injections(episodes * len(requests))) for _ in range(draw(st.sampled_from([1, 2, 3, 0])))
        ],
    }


def reject(constant):
    raise ValueError(f"{constant} in a JSON export")


def pair_and_exports(config):
    """The pair, its report and its JSON export, run with the collector off, and the cyclic garbage they leave.

    With the collector off, every object the pair makes stays in the youngest
    generation, so collecting that generation alone, before and after, counts
    what the pair left in cycles without a scan of the whole heap.
    """
    gc.collect(0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        report = compare(baseline, attacked)
        render_csv(report)
        exported = render_json(report)
        return baseline, attacked, report, exported, gc.collect(0)
    finally:
        if enabled:
            gc.enable()


def sc_pressure(attacked, baseline) -> float:
    """How near the attacked run's first proposals come to the SC's speed bounds, past 1 when one is crossed,
    on the steps whose baseline the SC approved at once. Hypothesis climbs it toward attacks the SC blocks."""
    top, delta = RULES.abs_max_speed_kph, max_delta_kph(RULES)
    return max((
        max(first.target_speed_kph / top, abs(first.target_speed_kph - a.feedback.speed_kph) / delta)
        for a, b in zip(attacked.steps, baseline.steps)
        if all(v.decision is Decision.APPROVE for v in b.verdicts)
        for first in a.submissions[:1]
    ), default=0.0)


def test_every_generated_scenario_that_loads_and_runs_holds_the_pipeline_invariants():
    tally: Counter = Counter()
    pair_and_exports(load_shipped("chain-base"))  # lazy imports and process-wide caches, made before any count

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scenarios())
    def check(document):
        try:
            config = parse_scenario(document, "generated")
        except ConfigError:
            tally["rejected at load"] += 1
            event("rejected at load")
            assume(False)
        world = copy.deepcopy(config.world)
        try:
            baseline, attacked, report, exported, garbage = pair_and_exports(config)
        except PipelineError:
            tally["no rule-compliant proposal"] += 1
            event("no rule-compliant proposal")
            assume(False)
        clean = run_episodes(dataclasses.replace(config, injections=()), with_injections=False)
        assert baseline.to_json() == clean.to_json()
        assert config.world == world
        json.loads(exported, parse_constant=reject)
        for record in baseline.steps + attacked.steps:
            assert sc_violations(record.approved, record.feedback, RULES, record.dsa_context.speed_limit_kph) == []
        assert garbage == 0
        target(sc_pressure(attacked, baseline), label="SC pressure")
        tally[report.outcome] += 1
        tally[f"stealth {report.stealth}"] += 1
        event(f"outcome {report.outcome}")
        event(f"stealth {report.stealth}")

    check()
    reached = {o.value for o in OutcomeClass} | {"stealth True", "stealth False"}
    assert {name: tally[name] for name in reached if not tally[name]} == {}, tally
