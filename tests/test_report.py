"""Report assembly and rendering: columns, precision, determinism."""

import csv
import dataclasses
import io
import json
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from agvsim.pipeline import Decision, SafetyVerdict
from agvsim.report import CSV_COLUMNS, _verdict_cell, compare, render_csv, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import load_shipped, parse_scenario, shipped_scenarios
from agvsim.trace import (
    EpisodeTrace, OutcomeClass, TracePairingError, check_paired, classify_outcome, sc_interventions,
)


@pytest.fixture(scope="module")
def case1_report():
    config = load_shipped("case1-highway-routine")
    baseline = run_episodes(config, with_injections=False)
    attacked = run_episodes(config, with_injections=True)
    return compare(baseline, attacked)


class TestCompare:
    def test_delta_is_attacked_minus_baseline(self, case1_report):
        for row in case1_report.step_rows:
            assert row.delta_kph == row.attacked_target_kph - row.baseline_target_kph

    def test_one_episode_row_per_episode(self, case1_report):
        assert len(case1_report.rows) == case1_report.attacked.episodes == 2

    def test_identical_traces_all_zero(self):
        config = load_shipped("chain-base")
        a = run_episodes(config, with_injections=False)
        b = run_episodes(config, with_injections=True)  # no injections configured
        report = compare(a, b)
        assert all(row.delta_kph == 0 for row in report.step_rows)
        assert report.persistence_episodes == 0
        assert report.outcome == "NoEffect"

    def test_case_study_metrics(self, case1_report):
        assert case1_report.stealth is True
        assert case1_report.persistence_episodes == 1
        assert case1_report.outcome == "MisalignedApproved"
        assert case1_report.sc_rejections_baseline == 0
        assert case1_report.sc_rejections_attacked == 0

    def test_episode_rows_are_grouped_in_one_pass(self):
        # each row's attacked mean is over its own episode's steps
        config = dataclasses.replace(load_shipped("case1-highway-routine"), episodes=6)
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        episodes = [[r for r in attacked.steps if r.episode == e] for e in range(6)]
        expected = [sum(r.approved.target_speed_kph for r in steps) / len(steps) for steps in episodes]
        report = compare(baseline, attacked)
        assert [row.attacked_mean_target_kph for row in report.rows] == expected

    def test_unpaired_traces_rejected(self):
        a = run_episodes(load_shipped("case1-highway-routine"), with_injections=False)
        b = run_episodes(load_shipped("case2-highway"), with_injections=True)
        with pytest.raises(TracePairingError):
            compare(a, b)

    def test_traces_of_other_episode_lengths_are_unpaired(self):
        # 2 x 3 steps against 3 x 2: as many steps, but not the same episodes
        config = load_shipped("threat-t01")
        attacked = run_episodes(dataclasses.replace(config, episodes=2), with_injections=True)
        shorter = dataclasses.replace(config, episodes=3, requests=config.requests[:2])
        baseline = run_episodes(shorter, with_injections=False)
        assert len(attacked.steps) == len(baseline.steps) == 6
        with pytest.raises(TracePairingError, match=r"^unpaired traces: 3 vs 2 steps per episode$"):
            compare(baseline, attacked)

    def test_traces_of_other_seeds_or_lengths_are_unpaired(self):
        config = load_shipped("threat-t01")
        attacked = run_episodes(config, True, seed=1)
        with pytest.raises(TracePairingError, match=r"^unpaired traces: seed 1 vs 2$"):
            check_paired(attacked, run_episodes(config, False, seed=2))
        with pytest.raises(TracePairingError, match=r"^unpaired traces: 6 vs 9 steps$"):
            check_paired(attacked, run_episodes(dataclasses.replace(config, episodes=3), False, seed=1))


class TestCsvRendering:
    def test_exact_column_set_and_order(self, case1_report):
        header = render_csv(case1_report).splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == (
            "scenario_id", "episode", "step",
            "baseline_target_kph", "attacked_target_kph", "delta_kph",
            "verdict_baseline", "verdict_attacked",
            "stealth", "persistence_episodes", "outcome",
        )

    def test_three_decimal_rendering(self, case1_report):
        rows = list(csv.DictReader(io.StringIO(render_csv(case1_report))))
        assert rows[0]["baseline_target_kph"] == "81.000"
        assert rows[0]["attacked_target_kph"] == "45.000"
        assert rows[0]["delta_kph"] == "-36.000"

    def test_row_cardinality(self, case1_report):
        rows = render_csv(case1_report).splitlines()
        assert len(rows) == 1 + len(case1_report.step_rows)  # header + steps

    def test_empty_report_is_header_only(self):
        config = dataclasses.replace(load_shipped("chain-base"), requests=())
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        text = render_csv(compare(baseline, attacked))
        assert text.splitlines() == [",".join(CSV_COLUMNS)]

    def test_byte_identical_across_runs(self):
        outputs = []
        for _ in range(2):
            config = load_shipped("case2-arterial")
            baseline = run_episodes(config, with_injections=False)
            attacked = run_episodes(config, with_injections=True)
            outputs.append(render_csv(compare(baseline, attacked)))
        assert outputs[0] == outputs[1]


class TestJsonExport:
    def test_hierarchical_export_carries_traces(self, case1_report):
        payload = json.loads(render_json(case1_report))
        assert payload["scenario_id"] == "case1-highway-routine"
        assert len(payload["attacked_trace"]["steps"]) == 6
        assert payload["attacked_trace"]["steps"][0]["approved"]["target_speed_kph"] == 45.0

    def test_json_is_byte_deterministic(self, case1_report):
        assert render_json(case1_report) == render_json(case1_report)

    @pytest.mark.parametrize("name", sorted(shipped_scenarios()))
    def test_shipped_export_has_only_finite_numbers(self, name):
        def reject(constant):
            raise ValueError(f"{name}: {constant} in the JSON export")

        config = load_shipped(name)
        baseline, attacked = (run_episodes(config, with_injections=injected) for injected in (False, True))
        for export in (render_json(compare(baseline, attacked)), baseline.to_json(), attacked.to_json()):
            json.loads(export, parse_constant=reject)

    def test_overflowing_feedback_transform_exports_finite_numbers(self):
        def reject(constant):
            raise ValueError(f"{constant} in the JSON export")

        base = yaml.safe_load(shipped_scenarios()["chain-base"].read_text())
        injection = {"threat": "XControlFeedback", "surface": "Layer", "window": [0, 3], "payload": {"transforms": [
            {"field": "accel_mps2", "op": "Set", "value": 1e308},
            {"field": "accel_mps2", "op": "Scale", "value": 10},
        ]}}
        config = parse_scenario({**base, "injections": [injection]}, "overflow")
        report = compare(run_episodes(config, with_injections=False), run_episodes(config, with_injections=True))
        exported = json.loads(render_json(report), parse_constant=reject)
        assert exported["attacked_trace"]["steps"][0]["feedback"]["accel_mps2"] == sys.float_info.max


# The plain definitions that `_verdict_cell`, `verdict_sequence`,
# `sc_interventions` and `classify_outcome` read faster: through `.value`,
# enum class reads and generators. No shipped run revises, so the goldens
# pin `Approve` text alone; here every decision is drawn.
def _plain_cell(record) -> str:
    return "|".join(v.decision.value for v in record.verdicts)


def _plain_sequence(trace) -> tuple:
    return tuple(v.decision.value for record in trace.steps for v in record.verdicts)


def _plain_interventions(record) -> int:
    return sum(1 for v in record.verdicts if v.decision is not Decision.APPROVE)


def _plain_outcome(attacked, baseline) -> OutcomeClass:
    if _plain_sequence(attacked) == _plain_sequence(baseline) and any(
        a.approved != b.approved for a, b in zip(attacked.steps, baseline.steps)
    ):
        return OutcomeClass.MISALIGNED_APPROVED
    for a, b in zip(attacked.steps, baseline.steps):
        if _plain_interventions(a) and not _plain_interventions(b):
            return OutcomeClass.BLOCKED_BY_SC
    return OutcomeClass.NO_EFFECT


_TEMPLATE = run_episodes(load_shipped("chain-base"), with_injections=False)
_APPROVED = _TEMPLATE.steps[0].approved
_VERDICTS = {
    Decision.APPROVE: SafetyVerdict(Decision.APPROVE),
    Decision.REVISE: SafetyVerdict(Decision.REVISE, reason="abs_max"),
    Decision.SUBSTITUTE: SafetyVerdict(Decision.SUBSTITUTE, reason="abs_max", substitute=_APPROVED),
}
# one step of one run: its verdicts (one or two), and whether its approved proposal is the template's
_STEP = st.tuples(st.lists(st.sampled_from(list(Decision)), min_size=1, max_size=2), st.booleans())


def _trace(steps: list) -> EpisodeTrace:
    records = tuple(
        dataclasses.replace(
            _TEMPLATE.steps[0], step=i, global_step=i,
            verdicts=tuple(_VERDICTS[d] for d in decisions),
            approved=_APPROVED if same else dataclasses.replace(_APPROVED, target_speed_kph=1.0),
        )
        for i, (decisions, same) in enumerate(steps)
    )
    return dataclasses.replace(_TEMPLATE, steps=records, episodes=1, steps_per_episode=len(records))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_STEP, _STEP), min_size=1, max_size=4))
def test_verdict_text_interventions_and_outcome_equal_their_plain_definitions(pairs):
    baseline, attacked = _trace([b for b, _ in pairs]), _trace([a for _, a in pairs])
    for trace in (baseline, attacked):
        assert trace.verdict_sequence() == _plain_sequence(trace)
        for record in trace.steps:
            assert _verdict_cell(record) == _plain_cell(record)
            assert sc_interventions(record) == _plain_interventions(record)
    outcome = _plain_outcome(attacked, baseline)
    assert classify_outcome(attacked, baseline) is outcome
    report = compare(baseline, attacked)
    assert (report.outcome, report.stealth) == (outcome.value, _plain_sequence(attacked) == _plain_sequence(baseline))
    assert [(r.verdict_baseline, r.verdict_attacked) for r in report.step_rows] == [
        (_plain_cell(b), _plain_cell(a)) for b, a in zip(baseline.steps, attacked.steps)
    ]
    assert (report.sc_rejections_baseline, report.sc_rejections_attacked) == (
        sum(map(_plain_interventions, baseline.steps)), sum(map(_plain_interventions, attacked.steps))
    )
