"""The README's threat payload table agrees with the threat registry, and its YAML examples load."""

import dataclasses
import re
from pathlib import Path

import yaml

from agvsim.chains import parse_chain_spec
from agvsim.domain import ThreatId
from agvsim.scenario import ScenarioConfig, parse_scenario
from agvsim.threats import THREATS, Surface, legal_surfaces

README = Path(__file__).resolve().parents[1] / "README.md"


def _payload_table_rows() -> list[list[str]]:
    text = README.read_text()
    section = text.split("### Threat payload reference", 1)[1]
    rows = []
    for line in section.splitlines():
        line = line.strip()
        if not line.startswith("|"):
            if rows:
                break
            continue
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if cells[0] in ("Threat", "---"):
            continue
        rows.append(cells)
    return rows


def test_payload_table_surfaces_match_registry():
    ids = {t.value for t in ThreatId}
    seen: list[str] = []
    for threat_cell, surface_cell, _ in _payload_table_rows():
        threats = [w for w in re.split(r"[\s/]+", threat_cell) if w in ids]
        assert threats, threat_cell
        surfaces = {Surface(s) for s in re.findall(r"`([A-Za-z]+)`", surface_cell)}
        for threat in threats:
            assert surfaces == legal_surfaces(ThreatId(threat)), threat
        seen.extend(threats)
    assert sorted(seen) == sorted(ids)


def payload_keys() -> dict[ThreatId, set[str]]:
    """Threat id -> the payload keys its README row names (backticked lower-case words)."""
    ids = {t.value for t in ThreatId}
    keys = {}
    for threat_cell, _, payload_cell in _payload_table_rows():
        names = set(re.findall(r"`([a-z_]+)(?::[^`]*)?`", payload_cell))
        for threat in (w for w in re.split(r"[\s/]+", threat_cell) if w in ids):
            keys[ThreatId(threat)] = names
    return keys


def test_payload_table_keys_match_registry():
    keys = payload_keys()
    for threat in ThreatId:
        assert keys[threat] == set(THREATS[threat].keys), threat


def yaml_example(heading: str) -> object:
    """The first YAML block after `heading` in the README, parsed."""
    section = README.read_text().split(heading + "\n", 1)[1]
    return yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])


def test_scenario_example_loads_as_written():
    config = parse_scenario(yaml_example("## Scenario files"), "README scenario")
    assert (config.id, config.episodes, len(config.injections)) == ("demo", 2, 1)


def test_scenario_example_names_every_scenario_field():
    example = yaml_example("## Scenario files")
    assert sorted(example) == sorted(f.name for f in dataclasses.fields(ScenarioConfig))


def test_chain_example_loads_as_written():
    spec = parse_chain_spec(yaml_example("### Chain specs"), "README chain")
    assert (spec.id, spec.episode_length, len(spec.stages)) == ("custom-chain", 4, 2)
