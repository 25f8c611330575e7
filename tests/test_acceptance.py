"""Acceptance suite: one test per shipped criterion, with time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every tolerance and threshold is pinned here; nothing is deferred
to later calibration.
"""

import random
import time
from itertools import product

from agvsim.chains import (
    ChainSpec,
    ChainStage,
    OutcomeClass,
    StageKind,
    Trigger,
    builtin_chains,
    run_chain,
)
from agvsim.cli import main as cli_main
from agvsim.domain import AgencyBucket, DrivingMode, RoadClass, ThreatId
from agvsim.pipeline import (
    Decision,
    Rulebook,
    StrategyProposal,
    VehicleFeedback,
    sc_validate,
    sc_violations,
)
from agvsim.report import compare
from agvsim.runner import run_episodes
from agvsim.scenario import load_shipped
from agvsim.severity import OrdinalRating, SeverityBand, band, lookup, total, validate_tables
from agvsim.threats import Surface, ThreatInjection, legal_surfaces
from agvsim.trace import stealth_check

from test_severity import CONTEXTS, GOLDEN_CELLS, _golden, brute_force_discrepancies


def _report(number: int, description: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.2f}s)"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s < {budget_s:.0f}s)")


CASE1_SCENARIOS = [
    f"case1-{road}-{urgency}"
    for road in ("highway", "arterial", "ringroad", "residential")
    for urgency in ("routine", "urgent")
]
CASE2_SCENARIOS = ["case2-highway", "case2-arterial", "case2-ringroad", "case2-residential"]


def test_criterion_1_severity_table_fidelity():
    started = time.perf_counter()
    checked = 0
    for threat in GOLDEN_CELLS:
        for index, (mode, agency, _table) in enumerate(CONTEXTS):
            ratings, _, _ = _golden(threat, index)
            record = lookup(ThreatId(threat), mode, agency)
            assert record.ratings() == ratings, (threat, mode, agency)
            checked += 1
    assert checked == 90
    _report(1, "lookup reproduces all 90 rating 4-tuples exactly", started, 1.0)


def test_criterion_2_scoring_method_reproduction():
    started = time.perf_counter()
    # consistent anchor cells reproduce the printed totals
    assert lookup(ThreatId.T1, DrivingMode.MANUAL, AgencyBucket.LOW).recomputed_total == 4
    assert lookup(ThreatId.T7, DrivingMode.AUTONOMOUS, AgencyBucket.HIGH).recomputed_total == 16
    assert lookup(ThreatId.T11, DrivingMode.AUTONOMOUS, AgencyBucket.MEDIUM).recomputed_total == 14
    for threat in GOLDEN_CELLS:
        for index, (mode, agency, _table) in enumerate(CONTEXTS):
            _, printed_total, _ = _golden(threat, index)
            record = lookup(ThreatId(threat), mode, agency)
            if record.printed_total == record.recomputed_total:
                assert record.recomputed_total == printed_total
    # the flag list matches an independent brute-force recomputation exactly
    oracle = brute_force_discrepancies()
    engine = [
        (d.table, d.threat.value, d.printed_total, d.recomputed_total,
         d.printed_band, d.recomputed_band)
        for d in validate_tables()
    ]
    assert engine == oracle  # zero false positives, zero misses
    assert (3, "T11", 13, 14, SeverityBand.CRITICAL, SeverityBand.CRITICAL) in engine
    _report(2, "recomputation matches print; all inconsistent cells flagged", started, 1.0)


def test_criterion_3_band_engine_exhaustive():
    started = time.perf_counter()
    order = [OrdinalRating.L, OrdinalRating.M, OrdinalRating.H, OrdinalRating.C]
    rank = {b: i for i, b in enumerate(SeverityBand)}
    combos = list(product(order, repeat=4))
    assert len(combos) == 256
    for combo in combos:
        value = total(*combo)
        expected = (
            SeverityBand.LOW if value <= 7
            else SeverityBand.MEDIUM if value <= 10
            else SeverityBand.HIGH if value <= 13
            else SeverityBand.CRITICAL
        )
        assert band(value) is expected
        for dim in range(4):
            position = order.index(combo[dim])
            if position < 3:
                raised = list(combo)
                raised[dim] = order[position + 1]
                assert rank[band(total(*raised))] >= rank[band(value)]
    _report(3, "band(total) matches the 4-7/8-10/11-13/14-16 intervals, monotone", started, 1.0)


def test_criterion_4_case_study_memory_poisoning():
    started = time.perf_counter()
    assert len(CASE1_SCENARIOS) == 8
    for name in CASE1_SCENARIOS:
        config = load_shipped(name)
        assert any(i.threat is ThreatId.T1 for i, _ in config.injections)
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        assert all(r.approved.target_speed_kph <= 45.0 for r in attacked.steps), name
        if config.world.road_class in (RoadClass.HIGHWAY, RoadClass.ARTERIAL):
            assert all(80.0 <= r.approved.target_speed_kph <= 90.0 for r in baseline.steps), name
        assert attacked.verdict_sequence() == baseline.verdict_sequence(), name
    _report(4, "case study I: caps hold, baselines in range, verdicts identical", started, 5.0)


def test_criterion_5_case_study_v2x_spoofing():
    started = time.perf_counter()
    for name in CASE2_SCENARIOS:
        config = load_shipped(name)
        assert 80.0 <= config.world.true_speed_limit_kph <= 90.0
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        assert all(r.approved.target_speed_kph <= 40.0 for r in attacked.steps), name
        assert stealth_check(attacked, baseline) is True, name
        assert attacked.world_digest_before == attacked.world_digest_after, name
    _report(5, "case study II: spoofed limit bounds targets, stealthy, truth intact", started, 5.0)


def test_criterion_6_sc_soundness_bulk():
    started = time.perf_counter()
    rng = random.Random(20260809)
    rules = Rulebook()
    approvals = substitutes = 0
    for _ in range(10_000):
        proposal = StrategyProposal(
            target_speed_kph=rng.uniform(0.5, 260.0),
            headway_s=rng.uniform(0.5, 5.0),
            justification=(("intent.desired_speed_kph", "target-min"),),
        )
        feedback = VehicleFeedback(
            speed_kph=rng.uniform(0.0, 220.0), braking=rng.uniform(0.0, 1.0)
        )
        claimed = rng.uniform(0.5, 200.0)
        verdict = sc_validate(proposal, feedback, rules, claimed, revision_count=rng.randint(0, 1))
        if verdict.decision is Decision.APPROVE:
            approvals += 1
            assert not sc_violations(proposal, feedback, rules, claimed)
        elif verdict.decision is Decision.SUBSTITUTE:
            substitutes += 1
            assert verdict.substitute is not None
            assert not sc_violations(verdict.substitute, feedback, rules, claimed)
    assert approvals > 0 and substitutes > 0  # the sample actually exercises both paths
    _report(6, f"SC sound over 10000 random proposals ({approvals} approvals, "
               f"{substitutes} substitutes)", started, 30.0)


def test_criterion_7_chain_outcomes():
    started = time.perf_counter()
    base = load_shipped("chain-base")
    specs = builtin_chains()
    assert len(specs) == 6  # four cross-role chains + two cross-layer ones
    for spec in specs:
        propagation, _ = run_chain(spec, base)
        assert propagation.outcome is OutcomeClass.MISALIGNED_APPROVED, spec.id
    empty, _ = run_chain(ChainSpec(id="empty", stages=(), episode_length=3), base)
    assert empty.outcome is OutcomeClass.NO_EFFECT
    speedster = ChainSpec(
        id="target-150",
        episode_length=3,
        stages=(
            ChainStage(
                kind=StageKind.INJECT,
                trigger=Trigger(at_step=0),
                injection=ThreatInjection(
                    ThreatId.T13, Surface.AGENT_POLICY,
                    {"agent": "DSA", "policy": "rogue-speedster"},
                ),
            ),
        ),
    )
    blocked, _ = run_chain(speedster, base)
    assert blocked.outcome is OutcomeClass.BLOCKED_BY_SC
    _report(7, "all six shipped chains MisalignedApproved; empty NoEffect; "
               "target-150 BlockedBySC", started, 10.0)


def test_criterion_8_threat_coverage():
    started = time.perf_counter()
    fixture_by_threat = {
        ThreatId(f"T{i}"): f"threat-t{i:02d}" for i in range(1, 16)
    }
    fixture_by_threat.update({
        ThreatId.X_PERCEPTION: "threat-xperception",
        ThreatId.X_V2X: "threat-xv2x",
        ThreatId.X_COMPUTE: "threat-xcompute",
        ThreatId.X_CONTROL_FEEDBACK: "threat-xcontrolfeedback",
    })
    assert set(fixture_by_threat) == set(ThreatId)
    for threat, fixture in fixture_by_threat.items():
        assert legal_surfaces(threat)  # registered injector surface exists
        config = load_shipped(fixture)
        # loaded, so each injection passed the checks it runs when built
        assert any(i.threat is threat for i, _ in config.injections), fixture
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        applied = [
            e for record in attacked.steps for e in record.effects
            if e.threat is threat and not e.warning
        ]
        assert applied, fixture  # the injector actually ran
        report = compare(baseline, attacked)
        assert report.outcome == config.expected_outcome, fixture
    _report(8, "all 15 threats + 4 cross-layer vectors have injectors and a "
               "passing scenario", started, 30.0)


def test_criterion_9_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        code = cli_main(["run", "case1-highway-urgent", "--seed", "7", "--out", str(out)])
        assert code == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{tag}.csv.trace.json").read_bytes()))
    assert outputs[0][0] == outputs[1][0]  # CSV bytes
    assert outputs[0][1] == outputs[1][1]  # trace export bytes
    json_outputs = []
    for tag in ("c", "d"):
        out = tmp_path / f"{tag}.json"
        code = cli_main(["run", "case2-highway", "--seed", "3", "--out", str(out), "--format", "json"])
        assert code == 0
        json_outputs.append(out.read_bytes())
    assert json_outputs[0] == json_outputs[1]
    _report(9, "identical (config, seed) produce byte-identical CSV and trace exports", started, 5.0)
