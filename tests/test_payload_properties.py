"""Every threat payload either fails to load or runs (ROADMAP aim 3).

A generated payload for each threat id, with the keys of its README payload
table row plus junk keys and values drawn from numbers (NaN, infinities and huge ones included),
bools, strings, lists and mappings, is added to `chain-base`. Loading it must
raise `ConfigError`, or the paired run must complete and export, with no
Infinity or NaN in the JSON; a `PipelineError` (no rule-compliant proposal
exists) is the one run-time failure allowed.
"""

import json
import math
import sys
from typing import Callable

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from agvsim.cavstack import Layer
from agvsim.domain import FIELD_RANGES, Role, ThreatId
from agvsim.pipeline import AgentTuning, PipelineError
from agvsim.report import compare, render_csv, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import ConfigError, parse_scenario, shipped_scenarios
from agvsim.threats import DSA_POLICIES, PA_POLICIES, THREATS
from test_docs import payload_keys

BASE = yaml.safe_load(shipped_scenarios()["chain-base"].read_text())
README_KEYS = payload_keys()

JUNK_KEYS = ("junk", "", "Value")
# values at and past the edges of what the schemas accept
edges = st.sampled_from(
    [0, -5, 0.05, 5e-324, sys.float_info.max, 10**400, math.nan, math.inf, -math.inf, True, "fast"]
)
junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(10**6), 10**6), st.floats(), st.text(max_size=6), edges,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(("field", "value", "kind") + JUNK_KEYS), children, max_size=3),
    ),
    max_leaves=8,
)


def mixed(plausible: st.SearchStrategy) -> st.SearchStrategy:
    """A value that is well-shaped three times in five, else an edge value or anything at all."""
    return st.sampled_from([plausible, plausible, plausible, edges, junk]).flatmap(lambda strategy: strategy)


speeds = st.one_of(st.floats(0, 250, exclude_min=True), st.integers(1, 250))
units = st.floats(0, 1, exclude_min=True)
texts = st.sampled_from(["debris", "R7", "commute", ""])
roles = st.sampled_from([r.value for r in Role])


def transform(fields: tuple[str, ...], ops: tuple[str, ...], value: st.SearchStrategy) -> st.SearchStrategy:
    return st.fixed_dictionaries({"field": st.sampled_from(fields), "op": st.sampled_from(ops), "value": value})


SCALAR_OPS = ("Set", "Add", "Scale")
RECORD_OPS = ("InjectRecord", "DropRecord")


def key_values(vary: Callable[[st.SearchStrategy], st.SearchStrategy]) -> dict[str, st.SearchStrategy]:
    """A value per payload key of the README table, drawn through `vary`; nested numbers vary on their own."""
    hazards = st.fixed_dictionaries(
        {"kind": texts, "distance_m": vary(st.floats(0, 300)), "confidence": vary(units)}
    )
    # one list of context-summary transforms or of feedback transforms
    transforms = st.sampled_from([
        st.one_of(
            transform(("speed_limit_kph", "traffic_density", "completeness"), SCALAR_OPS, vary(st.floats(-100, 250))),
            transform(("hazards",), RECORD_OPS, vary(hazards)),
            transform(("closures",), RECORD_OPS, vary(texts)),
        ),
        transform(("speed_kph", "accel_mps2", "steering_deg", "braking"), SCALAR_OPS, vary(st.floats(-100, 250))),
    ]).flatmap(lambda family: st.lists(family, min_size=1, max_size=2))
    return {key: vary(value) for key, value in {
        "value_kph": speeds, "advised_speed_kph": speeds, "desired_speed_kph": speeds,
        "completeness_factor": units, "speed_weight": units, "framing_weight": units,
        "headway_scale": st.floats(1, 10), "config_value": units, "noise_queries": st.integers(0, 10),
        "key": texts, "route_hint": texts, "destination": texts, "grant_role": roles, "claimed": roles,
        "target": st.sampled_from(["context", "external", "user"]),
        "urgency_tag": st.sampled_from(["Routine", "Urgent"]),
        "framing": st.sampled_from(["Routine", "Urgent"]), "mode": st.just("strip-provenance"),
        "config_field": st.sampled_from(list(FIELD_RANGES[AgentTuning])), "agent": st.sampled_from(["PA", "DSA"]),
        "policy": st.sampled_from(PA_POLICIES + DSA_POLICIES),
        "context_patch": st.fixed_dictionaries({}, optional={
            "speed_limit_kph": vary(speeds), "closures_add": st.lists(texts, max_size=2),
            "hazards_add": st.lists(hazards, max_size=2),
        }),
        "transforms": transforms, "edits": transforms,
        "requests": st.lists(st.fixed_dictionaries(
            {"urgency_tag": vary(st.sampled_from(["Routine", "Urgent"])), "destination": texts},
            optional={"desired_speed_kph": vary(speeds)},
        ), min_size=1, max_size=3),
    }.items()}


KEY_VALUES = key_values(mixed)


@st.composite
def injections(draw, threat: ThreatId, values: dict[str, st.SearchStrategy] = KEY_VALUES) -> dict:
    spec = THREATS[threat]
    keys = sorted(README_KEYS[threat])
    # each key is left out one time in six, and one payload in ten gets a junk key
    payload = {key: draw(values[key]) for key in keys if draw(st.sampled_from([True] * 5 + [False]))}
    junk_key = draw(st.sampled_from([None] * 27 + list(JUNK_KEYS)))
    if junk_key is not None:
        payload[junk_key] = draw(junk)
    injection = {
        "threat": threat.value,
        "surface": draw(st.sampled_from(sorted(s.value for s in spec.surfaces))),
        "window": [0, 3],
        "payload": payload,
    }
    if injection["surface"] == "Layer" and spec.layer is None:
        injection["layer"] = draw(st.sampled_from([layer.value for layer in Layer]))
    return injection


@pytest.mark.parametrize("threat", list(ThreatId), ids=lambda t: t.value)
def test_generated_payload_loads_and_runs_or_is_rejected(threat):
    def reject(constant):
        raise ValueError(f"{constant} in the JSON export of a {threat.value} run")

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(injections(threat))
    def check(injection):
        try:
            config = parse_scenario({**BASE, "injections": [injection]}, "generated")
        except ConfigError:
            return
        try:
            baseline = run_episodes(config, with_injections=False)
            attacked = run_episodes(config, with_injections=True)
        except PipelineError:
            return
        report = compare(baseline, attacked)
        render_csv(report)
        json.loads(render_json(report), parse_constant=reject)

    check()
