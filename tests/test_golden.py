"""Golden export digests: refactors must keep every shipped export byte for byte.

`golden_digests.json` holds sha256 digests of the CSV and JSON reports of
every shipped scenario (baseline + attacked at the scenario seed) and of the
stage summary of every built-in chain over `chain-base`. Regenerate it only
for a change that is meant to alter exported bytes, and say so in review.
"""

import hashlib
import json
from pathlib import Path

import pytest

from agvsim.chains import builtin_chains, run_chain
from agvsim.report import compare, render_csv, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import load_scenario, load_shipped, shipped_scenarios

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_covers_every_shipped_scenario_and_chain():
    assert sorted(GOLDEN["exports"]) == sorted(shipped_scenarios())
    assert sorted(GOLDEN["chains"]) == sorted(spec.id for spec in builtin_chains())


@pytest.mark.parametrize("name", sorted(GOLDEN["exports"]))
def test_scenario_exports_match_golden(name):
    config = load_scenario(shipped_scenarios()[name])
    report = compare(
        run_episodes(config, with_injections=False),
        run_episodes(config, with_injections=True),
    )
    csv_digest, json_digest = GOLDEN["exports"][name]
    assert sha256(render_csv(report).encode()) == csv_digest
    assert sha256(render_json(report).encode()) == json_digest


@pytest.mark.parametrize("chain_id", sorted(GOLDEN["chains"]))
def test_chain_stage_summary_matches_golden(chain_id):
    spec = next(s for s in builtin_chains() if s.id == chain_id)
    propagation, _ = run_chain(spec, load_shipped("chain-base"))
    summary = {
        "outcome": propagation.outcome.value,
        "stealth": propagation.stealth,
        "stages": [
            [d.stage_index, d.kind.value, d.label, d.fired_step, list(d.changed_fields), d.detail]
            for d in propagation.stage_deltas
        ],
    }
    assert sha256(json.dumps(summary, sort_keys=True).encode()) == GOLDEN["chains"][chain_id]
