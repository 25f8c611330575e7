"""The incremental paths against the whole-record computations they replace.

`step_deltas` flattens only the step-record fields that differ, and
`MessageLog.digest` hashes each settled log entry once. Both must give
exactly what flattening or hashing everything gives, and T8's cost per
application must not grow with the horizon.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agvsim.serialize
from agvsim.chains import builtin_chains, run_chain
from agvsim.domain import Authority, MessageEnvelope, Role, ThreatId, make_envelope
from agvsim.runner import run_episodes
from agvsim.scenario import load_scenario, shipped_scenarios
from agvsim.serialize import digest_of, leaf_paths
from agvsim.threats import MessageLog
from agvsim.trace import step_deltas
from test_golden import open_campaign

SHIPPED = sorted(shipped_scenarios())
FIXTURES = [name for name in SHIPPED if name.startswith("threat-")]


def reference_changed_paths(attacked, baseline) -> list[tuple[str, ...]]:
    """Every leaf of both comparable views, compared path by path."""
    out = []
    for a, b in zip(attacked.steps, baseline.steps):
        a_leaves = leaf_paths(a.comparable_view())
        b_leaves = leaf_paths(b.comparable_view())
        out.append(tuple(sorted(
            path for path in set(a_leaves) | set(b_leaves) if a_leaves.get(path) != b_leaves.get(path)
        )))
    return out


def paired(config):
    return run_episodes(config, with_injections=True), run_episodes(config, with_injections=False)


def pairs(group: str):
    if group == "shipped":
        for name in SHIPPED:
            yield paired(load_scenario(shipped_scenarios()[name]))
    elif group == "campaigns":
        for name in FIXTURES:
            yield paired(open_campaign(name))
    else:
        configs = [load_scenario(shipped_scenarios()[name]) for name in SHIPPED]
        for spec in builtin_chains():
            for config in configs:
                propagation, baseline = run_chain(spec, config)
                yield propagation.attacked, baseline


@pytest.mark.parametrize("group", ["shipped", "campaigns", "chains"])
def test_step_deltas_match_leaf_flattening_reference(group):
    changed_steps = 0
    for attacked, baseline in pairs(group):
        got = [d.changed_paths for d in step_deltas(attacked, baseline)]
        assert got == reference_changed_paths(attacked, baseline), attacked.scenario_id
        changed_steps += sum(1 for paths in got if paths)
    assert changed_steps > 0  # the comparison saw differences, not only equal records


_ROLES = list(Role)
_payloads = st.one_of(
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=3), st.one_of(st.integers(), st.lists(st.text(max_size=2), max_size=2)),
                    max_size=3),
)


@st.composite
def envelopes(draw) -> MessageEnvelope:
    env = make_envelope(draw(st.sampled_from(_ROLES)), draw(st.sampled_from(list(Authority))),
                        draw(_payloads), draw(st.integers(0, 50)))
    for _ in range(draw(st.integers(0, 2))):
        env = env.with_hop(draw(st.sampled_from(_ROLES)), draw(st.integers(0, 50)))
    return env


_operations = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.lists(envelopes(), max_size=4)),
        st.tuples(st.just("strip"), st.none()),
        st.tuples(st.just("digest"), st.none()),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_operations)
def test_message_log_digest_equals_whole_log_digest(operations):
    log = MessageLog()
    mirror: list[MessageEnvelope] = []
    for op, arg in operations:
        if op == "extend":
            log.extend(arg)
            mirror.extend(arg)
        elif op == "strip":
            stripped = sum(1 for env in mirror if len(env.provenance) > 1)
            mirror = [dataclasses.replace(env, provenance=env.provenance[-1:]) for env in mirror]
            assert log.strip_provenance() == stripped
        else:
            assert log.digest() == digest_of(mirror)
        assert log.since(0) == tuple(mirror)
    assert log.digest() == digest_of(mirror)


def test_t8_serialises_each_log_entry_a_fixed_number_of_times(monkeypatch):
    # every serialisation, the log's own digest included, goes through
    # `serialize.to_jsonable`; count the envelopes it converts
    counted = {"envelopes": 0}
    original = agvsim.serialize.to_jsonable

    def counting(obj):
        if isinstance(obj, MessageEnvelope):
            counted["envelopes"] += 1
        return original(obj)

    monkeypatch.setattr(agvsim.serialize, "to_jsonable", counting)
    per_application = []
    for episodes in (8, 32):
        counted["envelopes"] = 0
        attacked = run_episodes(open_campaign("threat-t08", episodes), with_injections=True)
        applications = sum(1 for r in attacked.steps for e in r.effects if e.threat is ThreatId.T8)
        assert applications == len(attacked.steps)
        per_application.append(counted["envelopes"] / applications)
    assert per_application[0] == per_application[1]
