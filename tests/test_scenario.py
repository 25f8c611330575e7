"""Scenario loading: schema validation, legality, error identification."""

import textwrap

import pytest
import yaml

from agvsim.domain import ThreatId
from agvsim.scenario import (
    ConfigError,
    load_scenario,
    load_shipped,
    parse_scenario,
    shipped_scenarios,
)

MINIMAL = """
id: demo
mode: Autonomous
agency: 3
seed: 5
world:
  speed_limit_kph: 90.0
  road_class: Highway
  vehicle_speed_kph: 72.0
requests:
  - {urgency_tag: Routine, destination: office}
"""


def parse_text(text: str):
    return parse_scenario(yaml.safe_load(textwrap.dedent(text)), "<test>")


class TestHappyPath:
    def test_minimal_scenario_parses(self):
        config = parse_text(MINIMAL)
        assert config.id == "demo"
        assert config.episodes == 1
        assert config.steps_per_episode == 1

    def test_shipped_case_study_fixture(self):
        config = load_shipped("case1-highway-routine")
        assert len(config.injections) == 1
        assert config.injections[0].threat is ThreatId.T1
        assert config.injections[0].persistent

    def test_every_shipped_fixture_loads(self):
        names = shipped_scenarios()
        assert len(names) == 32
        for name in names:
            load_shipped(name)

    def test_loading_from_filesystem(self, tmp_path):
        target = tmp_path / "demo.yaml"
        target.write_text(textwrap.dedent(MINIMAL))
        assert load_scenario(target).id == "demo"


class TestSchemaErrors:
    def test_unknown_threat_id_names_the_field(self):
        text = MINIMAL + textwrap.dedent("""
        injections:
          - {threat: T99, surface: PAMemory, payload: {value_kph: 45.0}}
        """)
        with pytest.raises(ConfigError, match=r"injections\[0\].threat"):
            parse_text(text)

    def test_illegal_surface_pairing_is_a_load_error(self):
        text = MINIMAL + textwrap.dedent("""
        injections:
          - {threat: T1, surface: ToolOutput, payload: {value_kph: 45.0}}
        """)
        with pytest.raises(ConfigError, match="illegal injection"):
            parse_text(text)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_text(MINIMAL + "\nextra_knob: 1\n")

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            parse_text(MINIMAL.replace("seed: 5", ""))

    def test_bad_road_class_names_the_field(self):
        with pytest.raises(ConfigError, match=r"world.road_class"):
            parse_text(MINIMAL.replace("Highway", "Moon"))

    def test_bad_window_rejected(self):
        text = MINIMAL + textwrap.dedent("""
        injections:
          - {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}, window: [3, 1]}
        """)
        with pytest.raises(ConfigError, match="window"):
            parse_text(text)

    def test_bad_payload_value_rejected(self):
        text = MINIMAL + textwrap.dedent("""
        injections:
          - {threat: T4, surface: PAInput, payload: {completeness_factor: 1.5}}
        """)
        with pytest.raises(ConfigError, match="completeness_factor"):
            parse_text(text)

    @pytest.mark.parametrize("value", ['"no"', "1", "null"])
    def test_persistent_must_be_a_yaml_bool(self, value):
        text = MINIMAL + f"""
injections:
  - threat: T1
    surface: PAMemory
    persistent: {value}
    payload: {{value_kph: 45.0}}
"""
        with pytest.raises(ConfigError, match=r"injections\[0\]\.persistent: must be true or false"):
            parse_text(text)

    def test_persistent_yaml_bool_is_kept(self):
        text = MINIMAL + """
injections:
  - {threat: T1, surface: PAMemory, persistent: false, payload: {value_kph: 45.0}}
  - {threat: T1, surface: PAMemory, persistent: true, payload: {value_kph: 40.0}}
"""
        assert [inj.persistent for inj in parse_text(text).injections] == [False, True]

    def test_bool_episodes_rejected(self):
        with pytest.raises(ConfigError, match=r"\.episodes: must be an integer >= 1, got True"):
            parse_text(MINIMAL + "episodes: true\n")

    def test_bool_chain_episode_length_rejected(self):
        text = MINIMAL + """
chains:
  - id: inline
    episode_length: true
    stages: []
"""
        with pytest.raises(ConfigError, match=r"chains\[0\]\.episode_length: must be an integer >= 1"):
            parse_text(text)

    def test_unknown_expected_outcome_rejected(self):
        with pytest.raises(ConfigError, match="expected_outcome"):
            parse_text(MINIMAL + "\nexpected_outcome: Mystery\n")

    def test_parse_error_carries_location(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("id: [unclosed\nmode: Autonomous\n")
        with pytest.raises(ConfigError, match="parse error"):
            load_scenario(bad)

    def test_missing_file_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario("/nonexistent/path.yaml")


class TestChainRefs:
    def test_builtin_reference_by_id(self):
        config = parse_text(MINIMAL + "\nchains: [chain-1]\n")
        assert config.chains[0].id.startswith("chain-1")

    def test_inline_chain_spec(self):
        text = MINIMAL + textwrap.dedent("""
        chains:
          - id: inline-demo
            episode_length: 2
            stages:
              - kind: inject
                trigger: {at_step: 0}
                injection: {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}}
        """)
        config = parse_text(text)
        assert config.chains[0].id == "inline-demo"

    def test_unknown_chain_ref_rejected(self):
        with pytest.raises(ConfigError, match="unknown chain"):
            parse_text(MINIMAL + "\nchains: [chain-77]\n")
