"""Episode engine: determinism, pairing, structural trust-boundary invariants."""

import copy
import dataclasses

import pytest

from agvsim.domain import Authority, Role
from agvsim.pipeline import Decision
from agvsim.report import compare, render_json
from agvsim.scenario import load_shipped, parse_scenario
from agvsim.runner import run_episodes
from agvsim.threats import Surface
from agvsim.trace import TracePairingError, stealth_check, step_deltas


def paired(name: str):
    config = load_shipped(name)
    return (
        run_episodes(config, with_injections=False),
        run_episodes(config, with_injections=True),
        config,
    )


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
        assert a.approved_targets() == b.approved_targets()
        assert a.seed == 1 and b.seed == 2

    def test_t15_outcome_depends_only_on_seed(self):
        config = load_shipped("threat-t15")
        partial = dataclasses.replace(
            config,
            injections=tuple(
                dataclasses.replace(inj, payload={**inj.payload, "framing_weight": 0.5})
                for inj in config.injections
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
        payloads = copy.deepcopy([inj.payload for inj in config.injections])

        def export() -> str:
            attacked = run_episodes(config, with_injections=True)
            return render_json(compare(run_episodes(config, with_injections=False), attacked))

        first = export()
        assert export() == first
        assert [inj.payload for inj in config.injections] == payloads
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
        episode1 = attacked.episode_steps(1)
        assert all(r.approved.target_speed_kph == 45.0 for r in episode1)
        assert all(not r.effects for r in episode1)  # influence carried over, not re-injected

    def test_non_persistent_injection_resets_next_episode(self):
        config = load_shipped("threat-t01")
        volatile = dataclasses.replace(
            config,
            injections=tuple(
                dataclasses.replace(inj, persistent=False) for inj in config.injections
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
                ThreatInjection(
                    threat=ThreatId.T13,
                    surface=Surface.AGENT_POLICY,
                    payload={"agent": "DSA", "policy": "rogue-speedster"},
                    window=(0, 3),
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
        assert attacked.approved_targets() == baseline.approved_targets()

    def test_deltas_stay_within_injection_footprint(self):
        from agvsim.threats import delta_footprint

        for name in ("threat-t01", "threat-t07", "threat-xv2x", "threat-t06"):
            baseline, attacked, config = paired(name)
            footprint = set().union(*(delta_footprint(inj) for inj in config.injections))
            for delta in step_deltas(attacked, baseline):
                assert delta.prefixes() <= footprint, (name, delta.changed_paths)

    def test_zero_step_scenario_yields_empty_trace(self):
        config = dataclasses.replace(load_shipped("chain-base"), requests=())
        trace = run_episodes(config, with_injections=False)
        assert trace.steps == ()
