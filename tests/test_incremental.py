"""The incremental paths against the whole-record computations they replace.

`step_deltas` compares step records field by field, and `MessageLog.digest`
hashes each settled log entry once. Both must give exactly what flattening
or hashing everything gives, and T8's cost per application must not grow
with the horizon. The runner digests the tuning and the admission table
only when they change, and `MemoryStore` keeps its digest until its next
append, also across an episode that carries every entry over, so neither
count grows with the steps. It builds the layer views once per set of
active layer perturbations, and they must equal the views rebuilt at every
step. An effect record takes the digests of the surface its view saw only
when they are first read: each must equal the digest taken at apply time, a
run that exports no JSON takes none, and an export takes each once. A step
record's `log_digest` is taken the same way, from the step's own envelopes:
it must equal the digest the runner used to take at every step, `step_deltas`
and the CSV export take none, and the JSON export takes each once. The
world is digested the same way, once per run, and the simulated user seeds
its generator only when it first draws.
"""

import dataclasses
import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import agvsim.pipeline
import agvsim.runner
import agvsim.serialize
import agvsim.threats
import agvsim.trace
from agvsim.cavstack import WorldTruth, control_feedback, fuse, perceive, v2x_broadcast
from agvsim.chains import builtin_chains, run_chain
from agvsim.domain import Authority, MessageEnvelope, Role, ThreatId, make_envelope
from agvsim.pipeline import AgentTuning, MemoryEntry, MemoryKind, MemoryStore, PipelineError
from agvsim.report import compare, render_csv, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import ConfigError, load_scenario, parse_scenario, shipped_scenarios
from agvsim.serialize import canonical_json, digest_of
from agvsim.threats import THREATS, LazyDigest, MessageLog, Surface, to_layer_perturbations
from agvsim.trace import _log_digest, step_deltas
from test_golden import open_campaign
from test_payload_properties import BASE, injections
from test_serialize import to_jsonable

SHIPPED = sorted(shipped_scenarios())
FIXTURES = [name for name in SHIPPED if name.startswith("threat-")]


def comparable_view(record) -> dict:
    """The whole step record as JSON types, without the oracle trail and with the envelopes as a count."""
    view = to_jsonable(record)
    view.pop("effects")
    view["envelope_count"] = len(record.envelopes)
    view.pop("envelopes")  # envelope content mirrors other fields
    return view


def leaf_paths(plain: object, prefix: str = "") -> dict[str, object]:
    """Flatten a structure of JSON types into {dotted.path: leaf value}."""
    if isinstance(plain, dict):
        items = [(str(key), value) for key, value in plain.items()]
    elif isinstance(plain, list):
        items = [(str(i), value) for i, value in enumerate(plain)]
    else:
        return {prefix or "value": plain}
    out: dict[str, object] = {}
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else key
        out.update(leaf_paths(value, path) if isinstance(value, (dict, list)) else {path: value})
    return out


def reference_changed_fields(attacked, baseline) -> list[tuple[str, ...]]:
    """Every leaf of both comparable views, compared path by path, reduced to the top-level field names."""
    out = []
    for a, b in zip(attacked.steps, baseline.steps):
        a_leaves = leaf_paths(comparable_view(a))
        b_leaves = leaf_paths(comparable_view(b))
        out.append(tuple(sorted({
            path.split(".", 1)[0]
            for path in set(a_leaves) | set(b_leaves)
            if a_leaves.get(path) != b_leaves.get(path)
        })))
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
        assert got == reference_changed_fields(attacked, baseline), attacked.scenario_id
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
        hop = (draw(st.sampled_from(_ROLES)), draw(st.integers(0, 50)))
        env = dataclasses.replace(env, provenance=env.provenance + (hop,))
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
    # `serialize._text`, which calls itself for each nested value; count the
    # envelopes it writes
    counted = {"envelopes": 0}
    original = agvsim.serialize._text

    def counting(obj, nl, *memo):
        if isinstance(obj, MessageEnvelope):
            counted["envelopes"] += 1
        return original(obj, nl, *memo)

    monkeypatch.setattr(agvsim.serialize, "_text", counting)
    per_application = []
    for episodes in (8, 32):
        counted["envelopes"] = 0
        attacked = run_episodes(open_campaign("threat-t08", episodes), with_injections=True)
        applications = sum(1 for r in attacked.steps for e in r.effects if e.threat is ThreatId.T8)
        assert applications == len(attacked.steps)
        per_application.append(counted["envelopes"] / applications)
    assert per_application[0] > 0
    assert per_application[0] == per_application[1]


def with_episodes(name: str, episodes: int):
    data = yaml.safe_load(shipped_scenarios()[name].read_text())
    return parse_scenario({**data, "episodes": episodes}, name)


@pytest.fixture
def digest_calls(monkeypatch):
    """Counts `runner.digest_of` calls by argument type, and every `pipeline.digest_of` call.

    The memory store takes its digests through `pipeline.digest_of`.
    """
    calls = {"runner": [], "store": 0}
    digest_of_, store_digest_of = agvsim.runner.digest_of, agvsim.pipeline.digest_of

    def counting_digest_of(obj):
        calls["runner"].append(type(obj))
        return digest_of_(obj)

    def counting_store_digest_of(obj):
        calls["store"] += 1
        return store_digest_of(obj)

    monkeypatch.setattr(agvsim.runner, "digest_of", counting_digest_of)
    monkeypatch.setattr(agvsim.pipeline, "digest_of", counting_store_digest_of)
    return calls


def test_runner_digests_per_run_do_not_grow_with_steps(digest_calls):
    per_run = []
    for episodes in (1, 4):
        digest_calls["runner"].clear()
        digest_calls["store"] = 0
        trace = run_episodes(with_episodes("chain-base", episodes), with_injections=True)
        assert len(trace.steps) == 4 * episodes
        per_run.append((len(digest_calls["runner"]), digest_calls["store"]))
    assert per_run[0][1] > 0  # the memory store is digested at least once
    assert per_run[0] == per_run[1]


@pytest.fixture
def generators_and_world_digests(monkeypatch):
    """The seed of every `random.Random` built, and the count of `WorldTruth.digest` calls."""
    taken = {"seeds": [], "world": 0}
    world_digest = WorldTruth.digest

    class Counting(random.Random):
        def __init__(self, x=None):
            taken["seeds"].append(x)
            super().__init__(x)

    def counting_digest(world):
        taken["world"] += 1
        return world_digest(world)

    monkeypatch.setattr(random, "Random", Counting)
    monkeypatch.setattr(WorldTruth, "digest", counting_digest)
    return taken


def test_chains_and_csv_only_runs_build_no_generator_and_digest_no_world(generators_and_world_digests):
    base = load_scenario(shipped_scenarios()["chain-base"])
    for spec in builtin_chains():
        run_chain(spec, base)
    attacked, baseline = paired(load_scenario(shipped_scenarios()["threat-t09"]))
    render_csv(compare(baseline, attacked))
    assert generators_and_world_digests == {"seeds": [], "world": 0}


def test_the_json_export_digests_each_world_once(generators_and_world_digests):
    config = load_scenario(shipped_scenarios()["case2-highway"])
    attacked, baseline = paired(config)
    report = compare(baseline, attacked)
    first = render_json(report)
    assert generators_and_world_digests["world"] == 2  # one per trace
    assert render_json(report) == first
    for trace in (attacked, baseline):
        assert trace.world_digest_before == trace.world_digest_after
    assert generators_and_world_digests["world"] == 2
    assert attacked.world_digest_before == WorldTruth.digest(config.world)


@pytest.mark.parametrize("seed", [None, 5])
def test_a_t15_run_seeds_each_episode_generator_once(generators_and_world_digests, seed):
    # the window covers every step, so every episode draws, over several steps
    config = open_campaign("threat-t15", episodes=4)
    trace = run_episodes(config, with_injections=True, seed=seed)
    drawing = sorted({r.episode for r in trace.steps if any(e.threat is ThreatId.T15 for e in r.effects)})
    assert drawing == [0, 1, 2, 3]
    assert generators_and_world_digests["seeds"] == [trace.seed * 1_000_003 + e for e in drawing]
    generators_and_world_digests["seeds"].clear()
    run_episodes(config, with_injections=False, seed=seed)  # the baseline user never draws
    assert generators_and_world_digests["seeds"] == []


def test_a_store_carried_over_whole_keeps_its_digest(digest_calls):
    entries = tuple(
        MemoryEntry(f"k{i}", MemoryKind.CONSTRAINT, float(i), Role.EXTERNAL, inserted_step=i, persistent=True)
        for i in range(3)
    )
    store = MemoryStore(entries)
    digest = store.digest()
    assert digest_calls["store"] == 1
    carried = store.carry_over()
    assert carried.digest() == digest
    assert digest_calls["store"] == 1
    # one entry dropped: the carried store digests its own entries
    store.append(MemoryEntry("dropped", MemoryKind.HISTORY, 0.0, Role.USER, inserted_step=3))
    carried = store.carry_over()
    assert carried.digest() == digest
    assert digest_calls["store"] == 2
    carried.append(entries[0])
    assert carried.digest() == MemoryStore(entries + entries[:1]).digest()


def test_tuning_is_digested_once_plus_once_per_t11_application(digest_calls):
    # the fixture's window closes after step 2; the tuning T11 left holds for the other 9 steps
    attacked = run_episodes(with_episodes("threat-t11", 4), with_injections=True)
    applied = sum(1 for r in attacked.steps if any(e.threat is ThreatId.T11 and not e.warning for e in r.effects))
    assert (len(attacked.steps), applied) == (12, 3)
    assert digest_calls["runner"].count(AgentTuning) <= 1 + applied
    edited = digest_of(dataclasses.replace(AgentTuning(), dsa_hazard_confidence_min=2.0))
    assert {r.tuning_digest for r in attacked.steps} == {edited}


def test_memory_digest_follows_every_append():
    entries = [
        MemoryEntry(f"k{i % 3}", MemoryKind.CONSTRAINT, float(i % 2), Role.EXTERNAL,
                    inserted_step=i, persistent=i % 2 == 0)
        for i in range(8)
    ]
    store = MemoryStore()
    held: list[MemoryEntry] = []
    for i, entry in enumerate(entries):
        assert store.digest() == MemoryStore(tuple(held)).digest()
        if i % 2:
            store.append(entry)
            held.append(entry)
        elif store.adopt(entry):
            held.append(entry)
        assert store.digest() == MemoryStore(tuple(held)).digest()
    assert store.carry_over().digest() == MemoryStore(tuple(e for e in held if e.persistent)).digest()


def active_layer_sets(config, horizon: int) -> list[tuple]:
    """Per global step, the layer perturbations active in a run of `config`'s own injections."""
    return [
        tuple(
            p for inj, (start, end) in config.injections if inj.surface is Surface.LAYER and start <= g <= end
            for p in to_layer_perturbations(inj)
        )
        for g in range(horizon)
    ]


_signed_zero = st.sampled_from([0.0, -0.0])
_small = st.one_of(_signed_zero, st.sampled_from([0.5, 1.0, 2.0, -3.0, 40.0]))
_hazard_records = st.fixed_dictionaries({
    "kind": st.sampled_from(["debris", "pedestrian"]),
    "distance_m": st.one_of(_signed_zero, st.sampled_from([5.0, 80.0])),
    "confidence": st.one_of(_signed_zero, st.sampled_from([0.6, 1.0])),
})
_context_transforms = st.one_of(
    st.fixed_dictionaries({
        "field": st.sampled_from(["speed_limit_kph", "traffic_density", "completeness"]),
        "op": st.sampled_from(["Set", "Add", "Scale"]),
        "value": _small,
    }),
    st.fixed_dictionaries({"field": st.just("hazards"), "op": st.just("InjectRecord"), "value": _hazard_records}),
    st.fixed_dictionaries({"field": st.just("hazards"), "op": st.just("DropRecord"), "value": st.just("debris")}),
    st.fixed_dictionaries({
        "field": st.just("closures"), "op": st.sampled_from(["InjectRecord", "DropRecord"]),
        "value": st.sampled_from(["seg-1", "seg-2"]),
    }),
)
_feedback_transforms = st.fixed_dictionaries({
    "field": st.sampled_from(["speed_kph", "accel_mps2", "steering_deg", "braking"]),
    "op": st.sampled_from(["Set", "Add", "Scale"]),
    "value": _small,
})


@st.composite
def layer_injections(draw) -> dict:
    start = draw(st.integers(0, 7))
    window = [start, start + draw(st.integers(0, 5))]
    kind = draw(st.sampled_from(["XPerception", "XV2X", "XCompute", "XControlFeedback", "T4"]))
    if kind == "T4":
        return {"threat": "T4", "surface": "Layer", "window": window,
                "layer": draw(st.sampled_from(["Perception", "V2X", "Compute"])),
                "payload": {"completeness_factor": draw(st.sampled_from([0.25, 0.5, 0.75]))}}
    transforms = _feedback_transforms if kind == "XControlFeedback" else _context_transforms
    return {"threat": kind, "surface": "Layer", "window": window,
            "payload": {"transforms": draw(st.lists(transforms, min_size=1, max_size=3))}}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(layer_injections(), min_size=1, max_size=3))
def test_shared_layer_views_equal_a_rebuild_at_every_step(injections):
    data = yaml.safe_load(shipped_scenarios()["chain-base"].read_text())
    config = parse_scenario({**data, "episodes": 3, "injections": injections}, "layers")
    trace = run_episodes(config, with_injections=True)
    active = active_layer_sets(config, len(trace.steps))
    for record in trace.steps:
        g = record.global_step
        perturbations = list(active[g])
        fused = fuse([perceive(config.world, perturbations), v2x_broadcast(config.world, perturbations)])
        assert canonical_json(record.pa_context) == canonical_json(fused)
        assert canonical_json(record.feedback) == canonical_json(control_feedback(config.world, perturbations))


@pytest.mark.parametrize("name", ["threat-xv2x", "case2-highway"])
def test_layer_views_are_built_once_per_active_set(monkeypatch, name):
    calls = {"perceive": 0}
    original = agvsim.runner.perceive

    def counting(world, perturbations):
        calls["perceive"] += 1
        return original(world, perturbations)

    monkeypatch.setattr(agvsim.runner, "perceive", counting)
    per_run = []
    for episodes in (8, 32):
        config = with_episodes(name, episodes)
        calls["perceive"] = 0
        trace = run_episodes(config, with_injections=True)
        # the empty set is among them: the layer records' before-digests read its views
        distinct = {tuple(map(id, s)) for s in active_layer_sets(config, len(trace.steps))} | {()}
        assert len(distinct) > 1
        assert calls["perceive"] == len(distinct)
        per_run.append(calls["perceive"])
    assert per_run[0] == per_run[1]


class AtApply(LazyDigest):
    """A `LazyDigest` that also notes the digest its value has when the view builds it."""

    __slots__ = ("at_apply",)

    def __init__(self, value: object, take=None) -> None:
        super().__init__(value, take)
        self.at_apply = digest_of(value)


@pytest.fixture
def at_apply(monkeypatch):
    monkeypatch.setattr(agvsim.threats, "LazyDigest", AtApply)
    monkeypatch.setattr(agvsim.runner, "LazyDigest", AtApply)


def lazy_mismatches(traces) -> tuple[int, list[tuple]]:
    """How many digests the effect records hold lazily, and each that, read after the
    run, differs from the digest its value had at apply time."""
    held, mismatches = 0, []
    for trace in traces:
        for record in trace.steps:
            for effect in record.effects:
                for name in ("before_digest", "after_digest"):
                    lazy = vars(effect)[name]
                    if isinstance(lazy, LazyDigest):
                        held += 1
                        if getattr(effect, name) != lazy.at_apply:
                            mismatches.append((trace.scenario_id, record.global_step, effect.threat.value, name))
    return held, mismatches


@pytest.mark.parametrize("group", ["shipped", "campaigns", "chains"])
def test_lazy_effect_digests_equal_the_digests_at_apply_time(at_apply, group):
    held, mismatches = lazy_mismatches(trace for pair in pairs(group) for trace in pair)
    assert held > 0
    assert mismatches == []


@pytest.mark.parametrize("threat", list(ThreatId), ids=lambda t: t.value)
def test_lazy_effect_digests_of_generated_payloads_equal_the_digests_at_apply_time(at_apply, threat):
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(injections(threat))
    def check(injection):
        try:
            config = parse_scenario({**BASE, "injections": [injection]}, "generated")
            attacked = run_episodes(config, with_injections=True)
        except (ConfigError, PipelineError):
            return
        assert lazy_mismatches([attacked])[1] == []

    check()


@pytest.mark.parametrize("name, view", [
    ("threat-t09", lambda s, a: agvsim.threats.LazyDigest(s.envelopes)),
    ("threat-t03", lambda s, a: agvsim.threats.LazyDigest({"admission": s.admission, "envelopes": len(s.envelopes)})),
], ids=["T9-live-envelopes", "T3-live-admission"])
def test_a_view_of_a_live_surface_fails_the_equivalence_check(at_apply, monkeypatch, name, view):
    config = open_campaign(name)
    threat = config.injections[0][0].threat
    monkeypatch.setitem(THREATS, threat, dataclasses.replace(THREATS[threat], view=view))
    held, mismatches = lazy_mismatches(paired(config))
    assert held > 0
    assert {m[2] for m in mismatches} == {threat.value}


@pytest.fixture
def effect_digests(monkeypatch):
    """Every value an effect record digests: the `threats.digest_of` calls."""
    values = []
    original = agvsim.threats.digest_of

    def counting(obj):
        values.append(obj)
        return original(obj)

    monkeypatch.setattr(agvsim.threats, "digest_of", counting)
    return values


def lazy_digests(trace) -> list[LazyDigest]:
    """The distinct digests the trace's effect records hold lazily."""
    held = {
        id(value): value
        for record in trace.steps for effect in record.effects for value in vars(effect).values()
        if isinstance(value, LazyDigest)
    }
    return list(held.values())


@pytest.mark.parametrize("name", ["threat-t09", "threat-xperception"])
def test_a_csv_only_run_takes_no_effect_record_digest(effect_digests, name):
    attacked, baseline = paired(load_scenario(shipped_scenarios()[name]))
    render_csv(compare(baseline, attacked))
    assert effect_digests == []
    assert lazy_digests(attacked)


@pytest.mark.parametrize("name", ["threat-t09", "threat-xperception"])
def test_the_json_export_takes_each_effect_record_digest_once(effect_digests, name):
    attacked, baseline = paired(load_scenario(shipped_scenarios()[name]))
    report = compare(baseline, attacked)
    held = lazy_digests(attacked)
    assert held
    first = render_json(report)
    assert render_json(report) == first
    # each value digested once, a shared one (the Layer records' clean views) included
    assert sorted(map(id, effect_digests)) == sorted(id(lazy.value) for lazy in held)


@pytest.mark.parametrize("name, threat", [("threat-t01", ThreatId.T1), ("threat-t08", ThreatId.T8)])
def test_store_digests_are_taken_at_apply_time(effect_digests, name, threat):
    # the memory store and the message log change in place, so their
    # records hold the digest itself, taken when the injector ran
    attacked = run_episodes(open_campaign(name), with_injections=True)
    held = [
        vars(effect)[field]
        for record in attacked.steps for effect in record.effects if effect.threat is threat
        for field in ("before_digest", "after_digest")
    ]
    assert len(held) == 2 * len(attacked.steps)
    assert all(type(digest) is str for digest in held)
    assert effect_digests == []


@pytest.mark.parametrize("group", ["shipped", "campaigns", "chains"])
def test_lazy_log_digest_equals_the_eager_digest_of_the_provenance(group):
    steps = 0
    for pair in pairs(group):
        for trace in pair:
            for record in trace.steps:
                held = vars(record)["log_digest"]
                assert isinstance(held, LazyDigest) and held.value is record.envelopes
                # the runner's former eager projection, hop by hop
                eager = digest_of([[[role.value, hop] for role, hop in env.provenance] for env in record.envelopes])
                assert record.log_digest == eager
                steps += 1
    assert steps > 0


@pytest.fixture
def log_digests(monkeypatch):
    """The envelope tuple of every log digest taken."""
    taken = []
    original = agvsim.runner._log_digest

    def counting(envelopes):
        taken.append(envelopes)
        return original(envelopes)

    monkeypatch.setattr(agvsim.runner, "_log_digest", counting)
    return taken


@pytest.mark.parametrize("name", ["threat-t08", "threat-t09", "case1-arterial-routine"])
def test_a_csv_only_run_takes_no_log_digest(log_digests, name):
    attacked, baseline = paired(load_scenario(shipped_scenarios()[name]))
    deltas = step_deltas(attacked, baseline)
    render_csv(compare(baseline, attacked))
    assert log_digests == []
    if name != "case1-arterial-routine":  # T8 strips, T9 forges: the provenance differs
        assert any("log_digest" in d.changed_paths for d in deltas)


@pytest.mark.parametrize("name", ["threat-t08", "threat-t09"])
def test_the_json_export_takes_each_log_digest_once(log_digests, name):
    attacked, baseline = paired(load_scenario(shipped_scenarios()[name]))
    report = compare(baseline, attacked)
    first = render_json(report)
    records = attacked.steps + baseline.steps
    assert sorted(map(id, log_digests)) == sorted(id(record.envelopes) for record in records)
    log_digests.clear()
    assert render_json(report) == first
    assert log_digests == []


@st.composite
def envelope_tuple_pairs(draw) -> tuple[tuple, tuple]:
    first = tuple(draw(st.lists(envelopes(), max_size=4)))
    if draw(st.booleans()):
        return first, tuple(draw(st.lists(envelopes(), max_size=4)))
    # the same provenance under other senders, authorities and payloads
    others = draw(st.lists(envelopes(), min_size=len(first), max_size=len(first)))
    second = [dataclasses.replace(o, provenance=e.provenance) for o, e in zip(others, first)]
    if second and draw(st.booleans()):
        # or one hop more on one envelope: every first hop the same, the provenance not
        i = draw(st.integers(0, len(second) - 1))
        hop = (draw(st.sampled_from(_ROLES)), draw(st.integers(0, 50)))
        second[i] = dataclasses.replace(second[i], provenance=second[i].provenance + (hop,))
    return first, tuple(second)


@settings(max_examples=300, deadline=None)
@given(envelope_tuple_pairs())
def test_equal_provenance_lists_are_exactly_equal_log_digests(pair):
    # what lets `step_deltas` compare the provenance in place of the digests
    a, b = pair
    same = [e.provenance for e in a] == [e.provenance for e in b]
    assert same == (_log_digest(a) == _log_digest(b))
