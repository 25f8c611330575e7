"""Misalignment metrics over paired runs, rendered as CSV or structured JSON text.

The module does no I/O: the CLI writes what it renders. All rendered text is
a pure function of (config, seed): rows are ordered by (episode, step),
numbers are rendered with fixed precision, and the JSON export uses
canonical key ordering.
"""

from __future__ import annotations

import csv
import io

from .domain import record
from .pipeline import DECISION_TEXT
from .serialize import canonical_json
from .trace import OUTCOME_TEXT, EpisodeTrace, _outcome, sc_interventions, stealth_check, step_deltas


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


@record
class StepRow:
    """One paired step as a CSV row: the approved targets and the verdicts of both runs."""

    scenario_id: str
    episode: int
    step: int
    baseline_target_kph: float
    attacked_target_kph: float
    delta_kph: float
    verdict_baseline: str  # per-step verdict decisions, "|"-joined
    verdict_attacked: str


@record
class EpisodeRow:
    """One paired episode: mean approved targets, SC rejections, and whether any step differs."""

    scenario_id: str
    episode: int
    baseline_mean_target_kph: float
    attacked_mean_target_kph: float
    delta_mean_kph: float
    sc_rejections_baseline: int
    sc_rejections_attacked: int
    any_delta: bool


@record
class MisalignmentReport:
    """A compared baseline/attacked pair: stealth, persistence, outcome, its rows and both traces."""

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


def _verdict_cell(record) -> str:
    return "|".join([DECISION_TEXT[v.decision] for v in record.verdicts])


def compare(baseline: EpisodeTrace, attacked: EpisodeTrace) -> MisalignmentReport:
    """Compute per-step and per-episode misalignment metrics for a pair.

    Persistence counts episodes whose behavior still deviates from baseline
    although no injection fired inside them (carried-over influence only).
    """
    deltas = step_deltas(attacked, baseline)  # checks the pair first
    b_interventions = list(map(sc_interventions, baseline.steps))
    a_interventions = list(map(sc_interventions, attacked.steps))
    scenario_id = attacked.scenario_id
    step_rows = []
    for b_rec, a_rec in zip(baseline.steps, attacked.steps):
        b_target, a_target = b_rec.approved.target_speed_kph, a_rec.approved.target_speed_kph
        step_rows.append(StepRow(
            scenario_id, a_rec.episode, a_rec.step,
            b_target, a_target, a_target - b_target,  # baseline, attacked, delta
            _verdict_cell(b_rec), _verdict_cell(a_rec),  # baseline, attacked
        ))

    persistence = 0
    episode_rows = []
    n = attacked.steps_per_episode
    for episode in range(attacked.episodes):
        span = slice(episode * n, (episode + 1) * n)
        b_steps, a_steps = baseline.steps[span], attacked.steps[span]
        if not a_steps:  # zero-step episodes yield no rows to aggregate
            continue
        any_delta = any([d.changed_paths for d in deltas[span]])
        if any_delta and all([e.warning for record in a_steps for e in record.effects]):
            persistence += 1
        b_mean = sum([r.approved.target_speed_kph for r in b_steps]) / len(b_steps)
        a_mean = sum([r.approved.target_speed_kph for r in a_steps]) / len(a_steps)
        episode_rows.append(EpisodeRow(
            scenario_id, episode, b_mean, a_mean, a_mean - b_mean,
            sum(b_interventions[span]), sum(a_interventions[span]), any_delta,
        ))

    stealth = stealth_check(attacked, baseline)
    return MisalignmentReport(
        scenario_id, attacked.seed, stealth, persistence, OUTCOME_TEXT[_outcome(attacked, baseline, stealth)],
        sum(b_interventions), sum(a_interventions), tuple(episode_rows), tuple(step_rows), baseline, attacked,
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
    return canonical_json(payload) + "\n"
