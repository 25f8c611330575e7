"""Episode engine: determinism, pairing, structural trust-boundary invariants."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agvsim.scenario
from agvsim.domain import Authority, Role, ThreatId
from agvsim.pipeline import AgentTuning, Decision
from agvsim.report import compare, render_json
from agvsim.scenario import load_shipped, parse_scenario
from agvsim.runner import run_episodes
from agvsim.serialize import digest_of
from agvsim.threats import Surface
from agvsim.trace import TracePairingError, stealth_check, step_deltas


def paired(name: str):
    config = load_shipped(name)
    return (
        run_episodes(config, with_injections=False),
        run_episodes(config, with_injections=True),
        config,
    )


def approved_targets(trace) -> tuple[float, ...]:
    return tuple(record.approved.target_speed_kph for record in trace.steps)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        config = load_shipped("case1-highway-routine")
        a = run_episodes(config, with_injections=True)
        b = run_episodes(config, with_injections=True)
        assert a.to_json() == b.to_json()

    def test_seed_override_changes_nothing_observable_without_randomness(self):
        config = load_shipped("threat-t02")
        a = run_episodes(config, with_injections=True, seed=1)
        b = run_episodes(config, with_injections=True, seed=2)
        # no seeded randomness in this scenario: only the recorded seed differs
        assert approved_targets(a) == approved_targets(b)
        assert a.seed == 1 and b.seed == 2

    def test_t15_outcome_depends_only_on_seed(self):
        config = load_shipped("threat-t15")
        partial = dataclasses.replace(
            config,
            injections=tuple(
                (dataclasses.replace(inj, payload={**inj.payload, "framing_weight": 0.5}), window)
                for inj, window in config.injections
            ),
        )
        runs = [run_episodes(partial, with_injections=True, seed=5) for _ in range(2)]
        assert runs[0].to_json() == runs[1].to_json()

    def test_rerun_of_one_config_object_is_identical_after_t12_edits_t9_patch(self):
        # a T12 hazards edit of a forged T9 context message must not grow the
        # configured patch's own list, nor the logged copy of it
        hazard = {"kind": "debris", "distance_m": 40.0, "confidence": 0.8}
        config = parse_scenario({
            "id": "t9-t12-hazards",
            "mode": "Autonomous",
            "agency": 3,
            "seed": 7,
            "episodes": 2,
            "world": {"speed_limit_kph": 90.0, "road_class": "Highway", "vehicle_speed_kph": 72.0},
            "requests": [{"urgency_tag": "Routine", "destination": "commute"}],
            "injections": [
                {"threat": "T9", "surface": "IdentityField", "window": [0, 1],
                 "payload": {"claimed": "CavStack", "target": "context",
                             "context_patch": {"hazards_add": [hazard]}}},
                {"threat": "T12", "surface": "InterAgentMsg", "window": [0, 1],
                 "payload": {"target": "external",
                             "edits": [{"field": "hazards", "op": "InjectRecord", "value": hazard}]}},
            ],
        })
        payloads = copy.deepcopy([inj.payload for inj, _ in config.injections])

        def export() -> str:
            attacked = run_episodes(config, with_injections=True)
            return render_json(compare(run_episodes(config, with_injections=False), attacked))

        first = export()
        assert export() == first
        assert [inj.payload for inj, _ in config.injections] == payloads
        attacked = run_episodes(config, with_injections=True)
        assert [len(r.dsa_context.hazards) for r in attacked.steps] == [2, 2]
        logged = [e.payload for r in attacked.steps for e in r.envelopes if e.sender is Role.EXTERNAL]
        assert [len(p["hazards_add"]) for p in logged] == [2, 2]


class TestBaselinePurity:
    def test_baseline_invariant_to_injection_list(self):
        config = load_shipped("threat-t01")
        stripped = dataclasses.replace(config, injections=())
        with_list = run_episodes(config, with_injections=False)
        without_list = run_episodes(stripped, with_injections=False)
        assert with_list.to_json() == without_list.to_json()

    def test_baseline_has_no_effect_records(self):
        baseline, _, _ = paired("case1-highway-routine")
        assert all(not record.effects for record in baseline.steps)


class TestTrustBoundaries:
    def test_clean_run_has_no_spoofed_envelopes(self):
        baseline, _, _ = paired("case1-highway-urgent")
        for record in baseline.steps:
            assert record.spoofed_envelopes == 0
            for env in record.envelopes:
                assert env.claimed_sender is env.sender

    def test_provenance_hops_strictly_increasing(self):
        baseline, attacked, _ = paired("case1-highway-urgent")
        for trace in (baseline, attacked):
            for record in trace.steps:
                for env in record.envelopes:
                    steps = [s for _, s in env.provenance]
                    assert steps == sorted(steps)
                    assert len(set(steps)) == len(steps)

    def test_verdicts_only_originate_from_safety_check(self):
        baseline, _, _ = paired("case1-highway-urgent")
        for record in baseline.steps:
            for env in record.envelopes:
                if env.authority is Authority.VERDICT_ONLY:
                    assert env.sender is Role.SAFETY_CHECK
                if env.sender is Role.SAFETY_CHECK:
                    assert env.authority is Authority.VERDICT_ONLY

    def test_approved_always_sanctioned_by_final_verdict(self):
        for name in ("case1-highway-routine", "threat-t13", "threat-xv2x"):
            _, attacked, _ = paired(name)
            for record in attacked.steps:
                final = record.verdicts[-1]
                if final.decision is Decision.APPROVE:
                    assert record.approved == record.submissions[-1]
                elif final.decision is Decision.SUBSTITUTE:
                    assert record.approved == final.substitute
                else:
                    pytest.fail("episode completed on a Revise verdict")

    def test_world_truth_unchanged_by_any_shipped_attack(self):
        for name in ("case2-highway", "threat-xperception", "threat-t12"):
            _, attacked, _ = paired(name)
            assert attacked.world_digest_before == attacked.world_digest_after


class TestPersistence:
    def test_persistent_memory_crosses_episodes(self):
        _, attacked, config = paired("threat-t01")
        assert config.episodes == 2
        episode1 = [r for r in attacked.steps if r.episode == 1]
        assert all(r.approved.target_speed_kph == 45.0 for r in episode1)
        assert all(not r.effects for r in episode1)  # influence carried over, not re-injected

    def test_non_persistent_injection_resets_next_episode(self):
        config = load_shipped("threat-t01")
        volatile = dataclasses.replace(
            config,
            injections=tuple(
                (dataclasses.replace(inj, persistent=False), window) for inj, window in config.injections
            ),
        )
        baseline = run_episodes(volatile, with_injections=False)
        attacked = run_episodes(volatile, with_injections=True)
        deltas = step_deltas(attacked, baseline)
        episode1 = [d for d in deltas if d.episode == 1]
        assert all(not d.changed_paths for d in episode1)


class TestStealthCheck:
    def test_case_study_attack_is_stealthy(self):
        baseline, attacked, _ = paired("case1-highway-routine")
        assert stealth_check(attacked, baseline) is True

    def test_bound_violating_policy_is_not_stealthy(self):
        import agvsim.chains as chains
        from agvsim.threats import ThreatInjection
        from agvsim.domain import ThreatId

        config = load_shipped("chain-base")
        speedster = dataclasses.replace(
            config,
            injections=(
                (
                    ThreatInjection(
                        threat=ThreatId.T13,
                        surface=Surface.AGENT_POLICY,
                        payload={"agent": "DSA", "policy": "rogue-speedster"},
                    ),
                    (0, 3),
                ),
            ),
        )
        baseline = run_episodes(speedster, with_injections=False)
        attacked = run_episodes(speedster, with_injections=True)
        assert stealth_check(attacked, baseline) is False
        assert chains.classify_outcome(attacked, baseline) is chains.OutcomeClass.BLOCKED_BY_SC

    def test_noop_injection_is_stealthy(self):
        baseline, attacked, _ = paired("threat-t08")
        assert stealth_check(attacked, baseline) is True

    def test_unpaired_traces_rejected(self):
        a, _, _ = paired("case1-highway-routine")
        b, _, _ = paired("case2-highway")
        with pytest.raises(TracePairingError):
            stealth_check(a, b)


class TestLogsAndAttribution:
    def test_t8_strips_origin_hops_from_log(self):
        baseline, attacked, _ = paired("threat-t08")
        clean = baseline.steps[0].envelopes
        stripped = attacked.steps[0].envelopes
        assert any(len(env.provenance) > 1 for env in clean)
        assert all(len(env.provenance) == 1 for env in stripped)
        # behavior itself is untouched: attribution failure only
        assert approved_targets(attacked) == approved_targets(baseline)

    def test_deltas_stay_within_injection_footprint(self):
        from agvsim.threats import delta_footprint

        for name in ("threat-t01", "threat-t07", "threat-xv2x", "threat-t06"):
            baseline, attacked, config = paired(name)
            footprint = set().union(*(delta_footprint(inj) for inj, _ in config.injections))
            for delta in step_deltas(attacked, baseline):
                assert set(delta.changed_paths) <= footprint, (name, delta.changed_paths)

    def test_zero_step_scenario_yields_empty_trace(self):
        config = dataclasses.replace(load_shipped("chain-base"), requests=())
        trace = run_episodes(config, with_injections=False)
        assert trace.steps == ()


def window_1_1(injection: dict):
    """A three-request, one-episode scenario with one injection active at step 1 only."""
    return parse_scenario({
        "id": "window-1-1",
        "mode": "Autonomous",
        "agency": 4,
        "seed": 7,
        "world": {"speed_limit_kph": 80.0, "road_class": "Highway", "vehicle_speed_kph": 72.0},
        "requests": [{"urgency_tag": "Routine", "destination": "commute"}] * 3,
        "injections": [{**injection, "window": [1, 1]}],
    })


class TestWindows:
    """The runner's active list is the one check of an injection's window."""

    def test_layer_transform_changes_only_the_contexts_of_its_window(self):
        config = window_1_1({"threat": "XV2X", "surface": "Layer", "payload": {
            "transforms": [{"field": "speed_limit_kph", "op": "Set", "value": 40.0}],
        }})
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        changed = [
            a.global_step for a, b in zip(attacked.steps, baseline.steps)
            if (a.pa_context, a.dsa_context) != (b.pa_context, b.dsa_context)
        ]
        assert changed == [1]
        assert attacked.steps[1].pa_context.speed_limit_kph == 40.0

    def test_injection_leaves_effect_records_only_in_its_window(self):
        config = window_1_1({"threat": "T1", "surface": "PAMemory", "payload": {"value_kph": 45.0}})
        attacked = run_episodes(config, with_injections=True)
        assert [(r.global_step, e.step, e.threat) for r in attacked.steps for e in r.effects] == [(1, 1, ThreatId.T1)]

    def test_both_fail_when_every_injection_is_always_active(self, monkeypatch):
        monkeypatch.setattr(agvsim.scenario, "_parse_window", lambda value, where: (0, 2**31 - 1))
        with pytest.raises(AssertionError):
            self.test_layer_transform_changes_only_the_contexts_of_its_window()
        with pytest.raises(AssertionError):
            self.test_injection_leaves_effect_records_only_in_its_window()


def t11_config(injections: list[tuple[str, float, tuple[int, int]]], episodes: int):
    """`chain-base` (4 requests) with one T11 injection per (knob, value, window)."""
    return parse_scenario({
        "id": "t11-sequence",
        "mode": "Autonomous",
        "agency": 4,
        "seed": 401,
        "episodes": episodes,
        "world": {"speed_limit_kph": 90.0, "road_class": "Highway", "vehicle_speed_kph": 72.0},
        "requests": [{"urgency_tag": "Routine", "destination": "commute"}] * 4,
        "injections": [
            {"threat": "T11", "surface": "ToolOutput", "window": list(window),
             "payload": {"config_field": knob, "config_value": value}}
            for knob, value, window in injections
        ],
    })


def expected_tuning_digests(injections: list[tuple[str, float, tuple[int, int]]], steps: int) -> list[str]:
    """Per global step, the digest of a fresh tuning with every knob applied so far, in list order."""
    knobs: dict[str, float] = {}
    out = []
    for g in range(steps):
        for knob, value, (start, end) in injections:
            if start <= g <= end:
                knobs[knob] = value
        out.append(digest_of(AgentTuning(**knobs)))
    return out


@st.composite
def t11_injections(draw, horizon: int) -> list[tuple[str, float, tuple[int, int]]]:
    """1-4 T11 injections over one or two knobs, so later ones often rewrite earlier ones.

    Values include each knob's range ends, and both zeros for the urgency knobs.
    """
    knobs = draw(st.lists(st.sampled_from(AgentTuning().field_names()), min_size=1, max_size=2, unique=True))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        knob = draw(st.sampled_from(knobs))
        lo, hi = AgentTuning.knob_range(knob)
        ends = [lo, hi, 0.0, -0.0] if lo == 0.0 else [lo, hi]
        value = draw(st.one_of(st.sampled_from(ends), st.floats(lo, hi)))
        start = draw(st.integers(0, horizon - 1))
        out.append((knob, value, (start, draw(st.integers(start, horizon - 1)))))
    return out


class TestTuningDigest:
    def test_negative_zero_knob_gets_its_own_digest(self):
        # 0.0 == -0.0 and both hash alike, but they serialise differently
        injections = [
            ("pa_routine_urgency", 0.0, (0, 1)),
            ("pa_routine_urgency", -0.0, (2, 3)),
        ]
        attacked = run_episodes(t11_config(injections, 1), with_injections=True)
        got = [r.tuning_digest for r in attacked.steps]
        assert got == expected_tuning_digests(injections, 4)
        assert got[1] != got[2]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t11_injections(horizon=8))
    def test_tuning_digest_follows_every_t11_injection(self, injections):
        attacked = run_episodes(t11_config(injections, 2), with_injections=True)
        assert [r.tuning_digest for r in attacked.steps] == expected_tuning_digests(injections, 8)
