"""An SC oracle that does not call the SC: every approved proposal keeps every rule.

`oracle_violations` derives the four rules again from the `Rulebook` fields
and `ACCEL_WINDOW_S` alone. The shipped paired runs and the built-in chains
never propose a headway under the minimum (the DSA floors it there), so
generated proposals are what reach the headway rule; an SC that skips it is
caught by them (`tests/test_planted.py` plants that fault).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agvsim.chains import builtin_chains, run_chain
from agvsim.domain import VehicleFeedback
from agvsim.pipeline import (
    ACCEL_WINDOW_S,
    PipelineError,
    Rulebook,
    StrategyProposal,
    validate_with_revision,
)
from agvsim.runner import run_episodes
from agvsim.scenario import load_shipped, shipped_scenarios

RULES = Rulebook()  # the rulebook every run uses


def oracle_violations(proposal, feedback, claimed_limit_kph: float, rules: Rulebook = RULES) -> list[str]:
    """The rules `proposal` breaks: absolute maximum, claimed context limit,
    acceleration over the window, minimum headway."""
    broken = []
    if proposal.target_speed_kph > rules.abs_max_speed_kph:
        broken.append("absolute maximum")
    if proposal.target_speed_kph > claimed_limit_kph:
        broken.append("context limit")
    # 1 m/s is 3.6 km/h
    if abs(proposal.target_speed_kph - feedback.speed_kph) / 3.6 > rules.max_accel_mps2 * ACCEL_WINDOW_S:
        broken.append("acceleration")
    if proposal.headway_s < rules.min_headway_s:
        broken.append("headway")
    return broken


def shipped_traces():
    for name in sorted(shipped_scenarios()):
        config = load_shipped(name)
        yield run_episodes(config, with_injections=False)
        yield run_episodes(config, with_injections=True)
    base = load_shipped("chain-base")
    for spec in builtin_chains():
        propagation, baseline = run_chain(spec, base)
        yield propagation.attacked
        yield baseline


def test_every_shipped_approval_keeps_every_rule():
    approvals = 0
    for trace in shipped_traces():
        for record in trace.steps:
            # the SC judged against the DSA's claimed context and the reported feedback
            broken = oracle_violations(record.approved, record.feedback, record.dsa_context.speed_limit_kph)
            assert not broken, (trace.scenario_id, record.global_step, broken)
            approvals += 1
    assert approvals > 0


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    st.floats(0.5, 260.0), st.floats(0.5, 4.0), st.floats(0.0, 220.0), st.floats(0.1, 200.0),
)
def test_every_generated_approval_keeps_every_rule(target, headway, speed, claimed):
    proposal = StrategyProposal(target, headway, justification=(("test", "generated"),))
    feedback = VehicleFeedback(speed_kph=speed)
    try:
        _, _, approved = validate_with_revision(proposal, feedback, RULES, claimed)
    except PipelineError:
        assume(False)  # no rule-compliant proposal exists for this step
    assert not oracle_violations(approved, feedback, claimed)
