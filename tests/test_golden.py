"""Golden export digests: refactors must keep every shipped export byte for byte.

`golden_digests.json` holds sha256 digests of the CSV and JSON reports of
every shipped scenario (baseline + attacked at the scenario seed), of every
`threat-*` fixture run as a persistent attack (windows opened over a
12-episode horizon, so T8 acts on a long message log), and of the stage
summary of every built-in chain over `chain-base`. Regenerate it only
for a change that is meant to alter exported bytes, and say so in review.

The JSON exports are also held equal to the text of their reference writer,
`json.dumps` of `to_jsonable`, so a writer fault shows as a text diff.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

import agvsim.report
from agvsim.chains import builtin_chains, run_chain
from agvsim.report import compare, render_csv, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import load_scenario, load_shipped, parse_scenario, shipped_scenarios
from test_serialize import to_jsonable

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())
CAMPAIGN_EPISODES = 12
REFERENCE_EPISODES = 3


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


def json_export_and_reference(config, monkeypatch) -> tuple[str, str]:
    """`render_json` of the paired runs, and the reference writer's text of the payload it wrote."""
    payloads = []
    writer = agvsim.report.canonical_json

    def capturing(payload):
        payloads.append(payload)
        return writer(payload)

    monkeypatch.setattr(agvsim.report, "canonical_json", capturing)
    report = compare(
        run_episodes(config, with_injections=False),
        run_episodes(config, with_injections=True),
    )
    text = render_json(report)
    (payload,) = payloads
    return text, json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("name", sorted(GOLDEN["exports"]))
def test_scenario_json_export_equals_reference(name, monkeypatch):
    text, reference = json_export_and_reference(load_scenario(shipped_scenarios()[name]), monkeypatch)
    assert text == reference


@pytest.mark.parametrize("name", sorted(GOLDEN["campaigns"]))
def test_campaign_json_export_equals_reference(name, monkeypatch):
    text, reference = json_export_and_reference(open_campaign(name, REFERENCE_EPISODES), monkeypatch)
    assert text == reference


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
