"""Every committed BENCH_*.json carries what a performance claim rests on.

The files record A/B runs of `perfbench/run.py`, parent commit against
change. These tests only read them: they check the environment, the run
counts, that each median, quartile and win count follows from the runs
listed, and that each claimed gain meets the claim rule. Nothing is timed.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))
ENVIRONMENT = ("cpu_model", "nproc", "python", "PYTHONDONTWRITEBYTECODE")
MIN_PAIRS = 5
MIN_CLAIM_PAIRS = 10


def _better(metric: dict) -> int:
    return 1 if metric["better"] == "higher" else -1


def test_the_trajectory_has_a_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_follows_from_its_runs(path):
    bench = json.loads(path.read_text())
    for key in ENVIRONMENT:
        assert key in bench["environment"], key
    assert "--seconds" in bench["method"]["command"]
    assert set(bench["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, workload in bench["workloads"].items():
        pairs = workload["pairs"]
        assert pairs >= MIN_PAIRS, name
        assert len(workload["seeds"]) == pairs, name
        assert workload["failed"]["change"] <= workload["failed"]["parent"], name
        assert set(workload["metrics"]) == set(METRICS), name
        for metric, record in workload["metrics"].items():
            declared = METRICS[metric]
            assert (record["unit"], record["better"], record["bound"]) == (
                declared["unit"], declared["better"], declared["bound"]
            ), (name, metric)
            for side in ("parent", "change"):
                runs = record[side]["runs"]
                assert len(runs) == pairs, (name, metric, side)
                q1, _, q3 = statistics.quantiles(runs, n=4)
                assert record[side]["median"] == pytest.approx(statistics.median(runs), rel=1e-4)
                assert (record[side]["q1"], record[side]["q3"]) == pytest.approx((q1, q3), rel=1e-4)
            wins = sum(
                1 for before, after in zip(record["parent"]["runs"], record["change"]["runs"])
                if _better(record) * (after - before) > 0
            )
            assert (record["wins"], record["pairs"]) == (wins, pairs), (name, metric)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_claimed_gains_meet_the_claim_rule(path):
    # at least 10 pairs, 9 in 10 won, medians apart by more than the parent's IQR
    bench = json.loads(path.read_text())
    for claim in bench["claims"]:
        record = bench["workloads"][claim["workload"]]["metrics"][claim["metric"]]
        parent, change = record["parent"], record["change"]
        assert record["pairs"] >= MIN_CLAIM_PAIRS, claim
        assert record["wins"] >= 0.9 * record["pairs"], claim
        assert _better(record) * (change["median"] - parent["median"]) > parent["q3"] - parent["q1"], claim
