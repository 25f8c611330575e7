"""Report assembly and exports: columns, precision, determinism, I/O errors."""

import csv
import dataclasses
import io
import json

import pytest

from agvsim.report import (
    CSV_COLUMNS,
    ReportFormat,
    ReportIOError,
    compare,
    emit_report,
    emit_trace,
    render_csv,
    render_json,
)
from agvsim.runner import run_episodes
from agvsim.scenario import load_shipped, shipped_scenarios
from agvsim.trace import EpisodeTrace, TracePairingError


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

    def test_episode_rows_are_grouped_in_one_pass(self, monkeypatch):
        # a per-episode rescan of every step makes compare quadratic in episodes
        config = dataclasses.replace(load_shipped("case1-highway-routine"), episodes=6)
        baseline = run_episodes(config, with_injections=False)
        attacked = run_episodes(config, with_injections=True)
        episodes = [attacked.episode_steps(e) for e in range(6)]
        expected = [sum(r.approved.target_speed_kph for r in steps) / len(steps) for steps in episodes]
        monkeypatch.setattr(EpisodeTrace, "episode_steps", lambda self, episode: pytest.fail("rescan"))
        report = compare(baseline, attacked)
        assert [row.attacked_mean_target_kph for row in report.rows] == expected

    def test_unpaired_traces_rejected(self):
        a = run_episodes(load_shipped("case1-highway-routine"), with_injections=False)
        b = run_episodes(load_shipped("case2-highway"), with_injections=True)
        with pytest.raises(TracePairingError):
            compare(a, b)


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
        report = compare(run_episodes(config, with_injections=False), run_episodes(config, with_injections=True))
        json.loads(render_json(report), parse_constant=reject)


class TestEmission:
    def test_emit_csv_and_json(self, case1_report, tmp_path):
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        emit_report(case1_report, ReportFormat.CSV, csv_path)
        emit_report(case1_report, ReportFormat.JSON, json_path)
        assert csv_path.read_text() == render_csv(case1_report)
        assert json.loads(json_path.read_text())["outcome"] == "MisalignedApproved"

    def test_emit_trace(self, case1_report, tmp_path):
        path = tmp_path / "trace.json"
        emit_trace(case1_report.attacked, path)
        assert json.loads(path.read_text())["scenario_id"] == "case1-highway-routine"

    def test_io_failure_surfaces_path(self, case1_report):
        with pytest.raises(ReportIOError, match="/nonexistent-dir/"):
            emit_report(case1_report, ReportFormat.CSV, "/nonexistent-dir/report.csv")
