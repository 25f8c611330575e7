"""The README's threat payload table agrees with the threat registry."""

import re
from pathlib import Path

from agvsim.domain import ThreatId
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
