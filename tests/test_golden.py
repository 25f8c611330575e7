"""Golden export digests: refactors must keep every shipped export byte for byte.

`golden_digests.json` holds sha256 digests of the CSV and JSON reports of
every shipped scenario (baseline + attacked at the scenario seed), of every
`threat-*` fixture run as a persistent attack (windows opened over a
12-episode horizon, so T8 acts on a long message log), and of the stage
summary of every built-in chain over `chain-base`. Regenerate it only
for a change that is meant to alter exported bytes, and say so in review.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from agvsim.chains import builtin_chains, run_chain
from agvsim.report import compare, render_csv, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import load_scenario, load_shipped, parse_scenario, shipped_scenarios

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())
CAMPAIGN_EPISODES = 12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def open_campaign(name: str, episodes: int = CAMPAIGN_EPISODES):
    """A threat fixture as a persistent attack: long horizon, windows opened to all of it."""
    data = yaml.safe_load(shipped_scenarios()[name].read_text())
    data["episodes"] = episodes
    horizon = episodes * len(data["requests"])
    for injection in data.get("injections", []):
        injection["window"] = [0, horizon - 1]
    return parse_scenario(data, data["id"])


def export_digests(config) -> list[str]:
    report = compare(
        run_episodes(config, with_injections=False),
        run_episodes(config, with_injections=True),
    )
    return [sha256(render_csv(report).encode()), sha256(render_json(report).encode())]


def test_golden_covers_every_shipped_scenario_and_chain():
    assert sorted(GOLDEN["exports"]) == sorted(shipped_scenarios())
    assert sorted(GOLDEN["campaigns"]) == sorted(n for n in shipped_scenarios() if n.startswith("threat-"))
    assert sorted(GOLDEN["chains"]) == sorted(spec.id for spec in builtin_chains())


@pytest.mark.parametrize("name", sorted(GOLDEN["exports"]))
def test_scenario_exports_match_golden(name):
    assert export_digests(load_scenario(shipped_scenarios()[name])) == GOLDEN["exports"][name]


@pytest.mark.parametrize("name", sorted(GOLDEN["campaigns"]))
def test_campaign_exports_match_golden(name):
    assert export_digests(open_campaign(name)) == GOLDEN["campaigns"][name]


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
