"""Misalignment metrics over paired runs, plus CSV / structured exports.

All emitted bytes are a pure function of (config, seed): rows are ordered by
(episode, step), numbers are rendered with fixed precision, and the JSON
export uses canonical key ordering.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .chains import classify_outcome
from .pipeline import Decision
from .serialize import canonical_json
from .trace import EpisodeTrace, StepRecord, check_paired, stealth_check, step_deltas


class ReportIOError(OSError):
    """Export failed at the filesystem level; carries the target path."""


class ReportFormat(str, Enum):
    CSV = "csv"
    JSON = "json"  # structured hierarchical export including full traces


CSV_COLUMNS = (
    "scenario_id",
    "episode",
    "step",
    "baseline_target_kph",
    "attacked_target_kph",
    "delta_kph",
    "verdict_baseline",
    "verdict_attacked",
    "stealth",
    "persistence_episodes",
    "outcome",
)


@dataclass(frozen=True)
class StepRow:
    scenario_id: str
    episode: int
    step: int
    baseline_target_kph: float
    attacked_target_kph: float
    delta_kph: float
    verdict_baseline: str  # per-step verdict decisions, "|"-joined
    verdict_attacked: str


@dataclass(frozen=True)
class EpisodeRow:
    scenario_id: str
    episode: int
    baseline_mean_target_kph: float
    attacked_mean_target_kph: float
    delta_mean_kph: float
    sc_rejections_baseline: int
    sc_rejections_attacked: int
    any_delta: bool


@dataclass(frozen=True)
class MisalignmentReport:
    scenario_id: str
    seed: int
    stealth: bool
    persistence_episodes: int
    outcome: str
    sc_rejections_baseline: int
    sc_rejections_attacked: int
    rows: tuple[EpisodeRow, ...]      # one per episode
    step_rows: tuple[StepRow, ...]    # one per step
    baseline: EpisodeTrace
    attacked: EpisodeTrace


def _rejections(steps: Iterable[StepRecord]) -> int:
    """SC verdicts other than Approve over the given steps."""
    return sum(1 for record in steps for v in record.verdicts if v.decision is not Decision.APPROVE)


def _verdict_cell(record) -> str:
    return "|".join(v.decision.value for v in record.verdicts)


def compare(baseline: EpisodeTrace, attacked: EpisodeTrace) -> MisalignmentReport:
    """Compute per-step and per-episode misalignment metrics for a pair.

    Persistence counts episodes whose behavior still deviates from baseline
    although no injection fired inside them (carried-over influence only).
    """
    check_paired(attacked, baseline)
    deltas = step_deltas(attacked, baseline)

    step_rows = []
    delta_by_episode: dict[int, bool] = {e: False for e in range(attacked.episodes)}
    fresh_effect_by_episode: dict[int, bool] = {e: False for e in range(attacked.episodes)}
    # (baseline, attacked) steps per episode, grouped in this one pass
    steps_by_episode: dict[int, tuple[list[StepRecord], list[StepRecord]]] = {
        e: ([], []) for e in range(attacked.episodes)
    }
    for b_rec, a_rec, delta in zip(baseline.steps, attacked.steps, deltas):
        steps_by_episode[a_rec.episode][0].append(b_rec)
        steps_by_episode[a_rec.episode][1].append(a_rec)
        step_rows.append(
            StepRow(
                scenario_id=attacked.scenario_id,
                episode=a_rec.episode,
                step=a_rec.step,
                baseline_target_kph=b_rec.approved.target_speed_kph,
                attacked_target_kph=a_rec.approved.target_speed_kph,
                delta_kph=a_rec.approved.target_speed_kph - b_rec.approved.target_speed_kph,
                verdict_baseline=_verdict_cell(b_rec),
                verdict_attacked=_verdict_cell(a_rec),
            )
        )
        if delta.changed_paths:
            delta_by_episode[a_rec.episode] = True
        if any(not e.warning for e in a_rec.effects):
            fresh_effect_by_episode[a_rec.episode] = True

    persistence = sum(
        1
        for episode in range(attacked.episodes)
        if delta_by_episode[episode] and not fresh_effect_by_episode[episode]
    )

    episode_rows = []
    for episode, (b_steps, a_steps) in steps_by_episode.items():
        if not a_steps:  # zero-step episodes yield no rows to aggregate
            continue
        b_mean = sum(r.approved.target_speed_kph for r in b_steps) / len(b_steps)
        a_mean = sum(r.approved.target_speed_kph for r in a_steps) / len(a_steps)
        episode_rows.append(
            EpisodeRow(
                scenario_id=attacked.scenario_id,
                episode=episode,
                baseline_mean_target_kph=b_mean,
                attacked_mean_target_kph=a_mean,
                delta_mean_kph=a_mean - b_mean,
                sc_rejections_baseline=_rejections(b_steps),
                sc_rejections_attacked=_rejections(a_steps),
                any_delta=delta_by_episode[episode],
            )
        )

    return MisalignmentReport(
        scenario_id=attacked.scenario_id,
        seed=attacked.seed,
        stealth=stealth_check(attacked, baseline),
        persistence_episodes=persistence,
        outcome=classify_outcome(attacked, baseline).value,
        sc_rejections_baseline=_rejections(baseline.steps),
        sc_rejections_attacked=_rejections(attacked.steps),
        rows=tuple(episode_rows),
        step_rows=tuple(step_rows),
        baseline=baseline,
        attacked=attacked,
    )


def render_csv(report: MisalignmentReport) -> str:
    """The canonical tabular view: one row per step, fixed column set."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.step_rows:
        writer.writerow(
            [
                row.scenario_id,
                row.episode,
                row.step,
                f"{row.baseline_target_kph:.3f}",
                f"{row.attacked_target_kph:.3f}",
                f"{row.delta_kph:.3f}",
                row.verdict_baseline,
                row.verdict_attacked,
                "true" if report.stealth else "false",
                report.persistence_episodes,
                report.outcome,
            ]
        )
    return buffer.getvalue()


def render_json(report: MisalignmentReport) -> str:
    """Hierarchical export carrying the full paired traces."""
    payload = {
        "scenario_id": report.scenario_id,
        "seed": report.seed,
        "stealth": report.stealth,
        "persistence_episodes": report.persistence_episodes,
        "outcome": report.outcome,
        "sc_rejections_baseline": report.sc_rejections_baseline,
        "sc_rejections_attacked": report.sc_rejections_attacked,
        "episodes": report.rows,
        "steps": report.step_rows,
        "baseline_trace": report.baseline,
        "attacked_trace": report.attacked,
    }
    return canonical_json(payload, indent=2) + "\n"


def emit_report(report: MisalignmentReport, format: ReportFormat, path: str | Path) -> None:
    """Write the report to disk; I/O failures surface with the path attached."""
    text = render_csv(report) if ReportFormat(format) is ReportFormat.CSV else render_json(report)
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ReportIOError(f"cannot write report to {path}: {exc}") from exc


def emit_trace(trace: EpisodeTrace, path: str | Path) -> None:
    """Structured export of a single (unpaired) run."""
    try:
        Path(path).write_text(trace.to_json() + "\n")
    except OSError as exc:
        raise ReportIOError(f"cannot write trace to {path}: {exc}") from exc
