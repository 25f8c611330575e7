"""Scenario loading: schema validation, legality, error identification."""

import json
import math
import sys
import textwrap

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import agvsim
from agvsim import domain
from agvsim.chains import load_chain_spec, parse_chain_spec
from agvsim.domain import MAX_RUN_STEPS, Hazard, ThreatId, UserRequest
from agvsim.pipeline import PipelineError
from agvsim.report import compare, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import (
    MAX_DEPTH,
    ConfigError,
    load_scenario,
    load_shipped,
    parse_scenario,
    shipped_scenarios,
)
from agvsim.threats import to_layer_perturbations

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
        injection, window = config.injections[0]
        assert injection.threat is ThreatId.T1
        assert injection.persistent
        assert window == (0, 0)

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
        for window in ("[3, 1]", "[-1, 2]", "[0]"):
            text = MINIMAL + textwrap.dedent(f"""
            injections:
              - {{threat: T1, surface: PAMemory, payload: {{value_kph: 45.0}}, window: {window}}}
            """)
            with pytest.raises(ConfigError, match=r"^<test>\.injections\[0\]\.window: window must be \[start, end\]"):
                parse_text(text)

    @pytest.mark.parametrize("requests, episodes, start", [
        (3, 1, 3), (3, 1, 50), (3, 2, 6), (0, 1, 0), (0, 4, 2),
    ], ids=["at-the-horizon", "far-past", "past-the-last-episode", "no-steps", "no-steps-many-episodes"])
    def test_a_window_that_starts_past_the_run_is_rejected(self, requests, episodes, start):
        # a run with steps keeps a first injection at the default window, [0, 0]
        first = [{"threat": "T1", "surface": "PAMemory", "payload": {"value_kph": 45.0}}] if requests else []
        doc = yaml.safe_load(MINIMAL)
        doc.update(requests=doc["requests"] * requests, episodes=episodes, injections=first + [
            {"threat": "T1", "surface": "PAMemory", "payload": {"value_kph": 45.0}, "window": [start, start + 10]},
        ])
        with pytest.raises(ConfigError) as info:
            parse_scenario(doc, "<test>")
        assert str(info.value) == (
            f"<test>.injections[{len(first)}].window: starts at global step {start}, but episodes x requests = "
            f"{episodes} x {requests} = {episodes * requests} steps, so it would never act"
        )

    @pytest.mark.parametrize("episodes, window", [(1, [2, 60]), (2, [5, 5]), (2, [0, 10**9])])
    def test_a_window_that_ends_past_the_run_acts_until_it_ends(self, episodes, window):
        doc = yaml.safe_load(MINIMAL)
        doc.update(requests=doc["requests"] * 3, episodes=episodes, injections=[
            {"threat": "T6", "surface": "PAInput", "payload": {"urgency_tag": "Urgent"}, "window": window},
        ])
        trace = run_episodes(parse_scenario(doc, "<test>"), with_injections=True)
        acted = [r.global_step for r in trace.steps if r.effects]
        assert acted == list(range(window[0], 3 * episodes))

    def test_t7_headway_scale_is_bounded_so_the_headway_stays_finite(self):
        # at traffic density 1 the DSA keeps a 2 s headway, which 1e308 would scale to inf
        t7 = "{threat: T7, surface: DSAWeights, payload: {speed_weight: 0.5, headway_scale: 1.0e+308}}"
        dense = ("{threat: XPerception, surface: Layer,"
                 " payload: {transforms: [{field: traffic_density, op: Set, value: 1.0}]}}")
        text = MINIMAL + f"injections:\n  - {t7}\n  - {dense}\n"
        with pytest.raises(ConfigError, match=(
            r"^<test>\.injections\[0\]\.payload\.headway_scale: must be a finite number in \[1, 1000\], got 1e\+308$"
        )):
            parse_text(text)

        def reject(constant):
            raise ValueError(f"{constant} in the JSON export")

        config = parse_text(text.replace("1.0e+308", "1000.0"))
        report = compare(run_episodes(config, with_injections=False), run_episodes(config, with_injections=True))
        exported = json.loads(render_json(report), parse_constant=reject)
        assert exported["attacked_trace"]["steps"][0]["approved"]["headway_s"] == 2000.0

    def test_bad_payload_value_rejected(self):
        text = MINIMAL + textwrap.dedent("""
        injections:
          - {threat: T4, surface: PAInput, payload: {completeness_factor: 1.5}}
        """)
        with pytest.raises(ConfigError, match="completeness_factor"):
            parse_text(text)

    @pytest.mark.parametrize("bad, fixed, message", [
        (
            "{threat: T9, surface: IdentityField, payload: {claimed: User, target: user,"
            " context_patch: {speed_limit_kph: 30}}}",
            "{threat: T9, surface: IdentityField, payload: {claimed: User, target: user}}",
            r"context_patch: a forged user input carries no patch; only target: context does",
        ),
        (
            "{threat: T12, surface: InterAgentMsg, payload: {target: external,"
            " edits: [{field: speed_limit_kph, op: InjectRecord, value: 40}]}}",
            "{threat: T12, surface: InterAgentMsg, payload: {target: external,"
            " edits: [{field: speed_limit_kph, op: Set, value: 40}]}}",
            r"edits\[0\]\.op: field 'speed_limit_kph' only supports Set, got InjectRecord",
        ),
        (
            "{threat: T12, surface: InterAgentMsg, payload: {target: external,"
            " edits: [{field: closures, op: Set, value: R7}]}}",
            "{threat: T12, surface: InterAgentMsg, payload: {target: external,"
            " edits: [{field: closures, op: InjectRecord, value: R7}]}}",
            r"edits\[0\]\.op: field 'closures' only supports InjectRecord, got Set",
        ),
    ], ids=["t9-user-with-patch", "t12-inject-a-limit", "t12-set-a-closure"])
    def test_a_payload_value_its_injector_would_ignore_is_rejected(self, bad, fixed, message):
        # after a T9 context patch, which puts the envelope a T12 external edit works on in flight
        patch = ("{threat: T9, surface: IdentityField, payload: {claimed: CavStack, target: context,"
                 " context_patch: {speed_limit_kph: 30}}}")

        def text(injection: str) -> str:
            return MINIMAL + f"injections:\n  - {patch}\n  - {injection}\n"

        with pytest.raises(ConfigError, match=rf"^<test>\.injections\[1\]\.payload\.{message}$"):
            parse_text(text(bad))
        parse_text(text(fixed))

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
        assert [inj.persistent for inj, _ in parse_text(text).injections] == [False, True]

    @pytest.mark.parametrize("name", sorted(n for n in shipped_scenarios() if n.startswith("threat-")))
    def test_persistent_is_rejected_where_the_injector_never_reads_it(self, name):
        # each threat fixture's own injection, flagged persistent: only the T1 and T5 injectors read it
        data = yaml.safe_load(shipped_scenarios()[name].read_text(encoding="utf-8"))
        (injection,) = data["injections"]
        data["injections"] = [{**injection, "persistent": True}]
        threat = injection["threat"]
        if threat in ("T1", "T5"):
            assert [inj.persistent for inj, _ in parse_scenario(data, "<test>").injections] == [True]
        else:
            message = rf"^<test>\.injections\[0\]\.persistent: {threat} does not read it; only T1, T5 do$"
            with pytest.raises(ConfigError, match=message):
                parse_scenario(data, "<test>")

    @pytest.mark.parametrize("agency", [7, -1])
    def test_an_agency_outside_0_to_5_names_the_agency_field(self, agency):
        # the range is `agency_bucket`'s own check, raised at the field's path
        message = rf"^<test>\.agency: agency level must be an integer in \[0, 5\], got {agency}$"
        with pytest.raises(ConfigError, match=message):
            parse_text(MINIMAL.replace("agency: 3", f"agency: {agency}"))

    def test_an_unknown_transform_field_names_its_transform(self):
        # the perturbation's own check, raised at the transform's path
        injection = "{threat: XPerception, surface: Layer, payload: {transforms: [{field: bogus, op: Set, value: 1}]}}"
        text = MINIMAL + f"injections:\n  - {injection}\n"
        message = r"^<test>\.injections\[0\]\.payload\.transforms\[0\]: unknown Perception-layer field 'bogus'$"
        with pytest.raises(ConfigError, match=message):
            parse_text(text)

    def test_bool_episodes_rejected(self):
        with pytest.raises(ConfigError, match=r"\.episodes: must be an integer >= 1, got True"):
            parse_text(MINIMAL + "episodes: true\n")

    def test_a_run_past_max_run_steps_is_rejected_at_load(self):
        # loaded only, never run: MINIMAL has one request, so one step per episode
        assert parse_text(MINIMAL + f"episodes: {MAX_RUN_STEPS}\n").episodes == MAX_RUN_STEPS
        for episodes in (MAX_RUN_STEPS + 1, 10**20):
            message = (
                rf"^<test>\.episodes: episodes x requests = {episodes} x 1 = {episodes} steps; "
                rf"a run may take at most {MAX_RUN_STEPS}$"
            )
            with pytest.raises(ConfigError, match=message):
                parse_text(MINIMAL + f"episodes: {episodes}\n")

    def test_a_chain_past_max_run_steps_is_rejected_at_load(self):
        # loaded only, never run
        assert parse_chain_spec({"id": "c", "episode_length": MAX_RUN_STEPS, "stages": []}, "<chain>")
        for length in (MAX_RUN_STEPS + 1, 10**20):
            message = rf"^<chain>: episode_length must be in \[1, {MAX_RUN_STEPS}\], got {length}$"
            with pytest.raises(ConfigError, match=message):
                parse_chain_spec({"id": "c", "episode_length": length, "stages": []}, "<chain>")

    def test_bool_chain_episode_length_rejected(self):
        chain = {"id": "inline", "episode_length": True, "stages": []}
        with pytest.raises(ConfigError, match=r"<chain>\.episode_length: must be an integer >= 1, got True"):
            parse_chain_spec(chain, "<chain>")

    def test_unknown_expected_outcome_rejected(self):
        with pytest.raises(ConfigError, match="expected_outcome"):
            parse_text(MINIMAL + "\nexpected_outcome: Mystery\n")

    def test_parse_error_carries_location(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("id: [unclosed\nmode: Autonomous\n")
        with pytest.raises(ConfigError, match="parse error"):
            load_scenario(bad)

    def test_nesting_is_rejected_past_max_depth(self):
        def nested(levels: int) -> list:
            value: list = []
            for _ in range(levels - 1):
                value = [value]
            return value

        doc = yaml.safe_load(MINIMAL)
        # 63 levels pass the depth check and reach the id's own check
        with pytest.raises(ConfigError, match=r"<memory>\.id: must be a string, got \[\[\["):
            parse_scenario({**doc, "id": nested(MAX_DEPTH - 1)})
        with pytest.raises(ConfigError, match=r"<memory>\.id: lists and mappings nest more than 64 deep"):
            parse_scenario({**doc, "id": nested(MAX_DEPTH)})
        with pytest.raises(ConfigError, match=r"<chain>\.stages: lists and mappings nest"):
            parse_chain_spec({"id": "c", "episode_length": 1, "stages": nested(MAX_DEPTH)}, "<chain>")

    @pytest.mark.parametrize("value", ["[1, 2]", "12", "null", "{x: 1}", "true"])
    def test_non_string_id_is_rejected(self, value):
        with pytest.raises(ConfigError, match=r"<test>\.id: must be a string, got "):
            parse_text(MINIMAL.replace("id: demo", f"id: {value}"))
        chain = {"id": yaml.safe_load(value), "episode_length": 1, "stages": []}
        with pytest.raises(ConfigError, match=r"<chain>\.id: must be a string, got "):
            parse_chain_spec(chain, "<chain>")

    @pytest.mark.parametrize("value", ["{x: 1}", "[T5]", "12", "null"])
    def test_non_string_stage_label_is_rejected(self, value):
        stage = {"kind": "observe", "trigger": {"at_step": 0}, "probe": "target_changed",
                 "label": yaml.safe_load(value)}
        with pytest.raises(ConfigError, match=r"<chain>\.stages\[0\]\.label: must be a string, got "):
            parse_chain_spec({"id": "c", "episode_length": 1, "stages": [stage]}, "<chain>")

    def test_missing_file_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario("/nonexistent/path.yaml")


class TestChainRefs:
    """A chain runs only through run_chain, over its own episode_length: a
    scenario that still names one, builtin or inline, fails as the unknown key."""

    @staticmethod
    def assert_chains_key_unknown(chains: str) -> None:
        with pytest.raises(ConfigError, match=r"^<test>\.chains: unknown keys: \['chains'\]$"):
            parse_text(MINIMAL + f"chains: {chains}")

    def test_builtin_reference_by_id(self):
        self.assert_chains_key_unknown("[chain-1]")

    def test_inline_chain_spec(self):
        self.assert_chains_key_unknown("""
  - id: inline-demo
    episode_length: 2
    stages:
      - kind: inject
        trigger: {at_step: 0}
        injection: {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}}
""")

    def test_unknown_chain_ref_rejected(self):
        # no chain reference is resolved from a scenario, so the key fails before the id
        self.assert_chains_key_unknown("[chain-77]")


class TestChainStages:
    STAGES = {
        "observe-with-injection": (
            {"kind": "observe", "trigger": {"after_stage": 0}, "probe": "route-pref-changed",
             "injection": {"threat": "T1", "surface": "PAMemory", "payload": {"value_kph": 45.0}}},
            r"<chain>\.stages\[1\]: observe stages need a probe and take no injection",
        ),
        "inject-with-probe": (
            {"kind": "inject", "trigger": {"after_stage": 0}, "probe": "route-pref-changed",
             "injection": {"threat": "T1", "surface": "PAMemory", "payload": {"value_kph": 45.0}}},
            r"<chain>\.stages\[1\]: inject stages need an injection and take no probe",
        ),
        "inject-with-window": (
            {"kind": "inject", "trigger": {"after_stage": 0}, "injection": {
                "threat": "T1", "surface": "PAMemory", "window": [0, 3], "payload": {"value_kph": 45.0}}},
            r"<chain>\.stages\[1\]\.injection\.window: a chain stage acts from its trigger on and takes no window",
        ),
    }

    @pytest.mark.parametrize("name", STAGES)
    def test_a_key_the_stage_would_drop_is_rejected(self, name):
        stage, message = self.STAGES[name]
        first = {"kind": "inject", "trigger": {"at_step": 0},
                 "injection": {"threat": "T9", "surface": "IdentityField",
                               "payload": {"claimed": "CavStack", "target": "context"}}}
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_chain_spec({"id": "c", "episode_length": 2, "stages": [first, stage]}, "<chain>")

    def test_persistent_is_rejected_on_a_stage_whose_injector_never_reads_it(self):
        def chain(threat: str, surface: str, payload: dict) -> dict:
            injection = {"threat": threat, "surface": surface, "persistent": True, "payload": payload}
            return {"id": "c", "episode_length": 1,
                    "stages": [{"kind": "inject", "trigger": {"at_step": 0}, "injection": injection}]}

        message = r"^<chain>\.stages\[0\]\.injection\.persistent: T2 does not read it; only T1, T5 do$"
        with pytest.raises(ConfigError, match=message):
            parse_chain_spec(chain("T2", "ToolOutput", {"advised_speed_kph": 40.0}), "<chain>")
        # chain-3's stage: T5 memorizes its patched limit across episodes
        spec = parse_chain_spec(chain("T5", "PAInput", {"context_patch": {"speed_limit_kph": 60.0}}), "<chain>")
        assert spec.stages[0].injection.persistent


# YAML features beyond what the shipped files use: anchors, aliases, a merge
# key, block text, YAML 1.1 scalars and escapes
YAML_FEATURES = r"""
id: &name yaml-features
episode_length: 2
base: &stage {kind: inject, trigger: {at_step: 0}}
stages:
  - <<: *stage
    injection: {threat: T1, surface: PAMemory, payload: {value_kph: 4.5e+1}}
  - {kind: observe, trigger: {after_stage: 0}, probe: target_changed, label: *name}
notes: |
  multi-line "quoted"
  text ü
scalars: [yes, No, on, ~, null, .inf, -.inf, 0x1F, 0o17, 1_000, 2024-01-02, '07', "\u00fc\t", 1e3]
"""


def test_yaml_loader_builds_the_documents_safe_loader_builds():
    # libyaml parses when PyYAML has it; no loaded value may depend on which parser ran
    texts = [path.read_text(encoding="utf-8") for path in shipped_scenarios().values()]
    for text in texts + [YAML_FEATURES]:
        assert yaml.load(text, Loader=agvsim.scenario._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


class TestDuplicateKeys:
    """A mapping that repeats a key fails the load at the repeat; a `<<` merge still overrides."""

    @pytest.fixture(autouse=True, params=["in-use", "SafeLoader"])
    def loader(self, request, monkeypatch):
        # libyaml's parser when PyYAML has it, and the pure-Python one it falls back to
        if request.param == "SafeLoader":
            monkeypatch.setattr(agvsim.scenario, "_YAML_LOADER", type(
                "PurePythonLoader", (agvsim.scenario._UniqueKeys, yaml.SafeLoader), {}
            ))

    @staticmethod
    def write(tmp_path, text: str):
        path = tmp_path / "doc.yaml"
        path.write_text(textwrap.dedent(text).lstrip())
        return path

    def test_top_level_key(self, tmp_path):
        path = self.write(tmp_path, MINIMAL.replace("seed: 5\n", "seed: 1\nseed: 2\n"))
        with pytest.raises(ConfigError) as caught:
            load_scenario(path)
        assert str(caught.value) == f"{path}:5:1: parse error: duplicate key 'seed'"

    def test_key_in_the_world(self, tmp_path):
        path = self.write(tmp_path, MINIMAL.replace(
            "  vehicle_speed_kph: 72.0\n", "  vehicle_speed_kph: 72.0\n  speed_limit_kph: 30.0\n"
        ))
        with pytest.raises(ConfigError) as caught:
            load_scenario(path)
        assert str(caught.value) == f"{path}:9:3: parse error: duplicate key 'speed_limit_kph'"

    def test_key_in_a_chain_file(self, tmp_path):
        path = self.write(tmp_path, """
            id: file-chain
            episode_length: 2
            stages:
              - kind: inject
                trigger: {at_step: 0, at_step: 1}
                injection: {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}}
        """)
        with pytest.raises(ConfigError) as caught:
            load_chain_spec(path)
        assert str(caught.value) == f"{path}:5:27: parse error: duplicate key 'at_step'"

    def test_merge_keys_still_override(self, tmp_path):
        # the request merges the payload before the payload is built: the
        # payload's own keys must not be checked again against the merged ones
        path = self.write(tmp_path, MINIMAL.replace("""\
requests:
  - {urgency_tag: Routine, destination: office}
""", """\
injections:
  - threat: T6
    surface: PAInput
    payload: &urgent {<<: {urgency_tag: Routine}, urgency_tag: Urgent}
requests:
  - {<<: *urgent, destination: office}
"""))
        config = load_scenario(path)
        assert config.injections[0][0].payload == {"urgency_tag": "Urgent"}
        assert config.requests[0] == UserRequest(urgency_tag="Urgent", destination="office")


def test_config_error_is_one_class():
    assert agvsim.ConfigError is ConfigError is domain.ConfigError


def _inject(threat: str, surface: str, payload: object) -> dict:
    return {"injections": [{"threat": threat, "surface": surface, "payload": payload}]}


DOC = yaml.safe_load(MINIMAL)
PATCH_HAZARD = "injections[0].payload.context_patch.hazards_add[0]"
# position -> (a document edit that places the record, the path of the record)
HAZARD_POSITIONS = {
    "world": lambda h: ({"world": {**DOC["world"], "hazards": [h]}}, "world.hazards[0]"),
    "T3": lambda h: (_inject("T3", "InterAgentMsg", {
        "grant_role": "PersonalAgent", "context_patch": {"hazards_add": [h]},
    }), PATCH_HAZARD),
    "T5": lambda h: (_inject("T5", "PAInput", {"context_patch": {"hazards_add": [h]}}), PATCH_HAZARD),
    "T9": lambda h: (_inject("T9", "IdentityField", {
        "claimed": "CavStack", "context_patch": {"hazards_add": [h]},
    }), PATCH_HAZARD),
    "T12-external": lambda h: (_inject("T12", "InterAgentMsg", {
        "target": "external", "edits": [{"field": "hazards", "op": "InjectRecord", "value": h}],
    }), "injections[0].payload.edits[0].value"),
    "XPerception": lambda h: (_inject("XPerception", "Layer", {
        "transforms": [{"field": "hazards", "op": "InjectRecord", "value": h}],
    }), "injections[0].payload.transforms[0].value"),
}
REQUEST_POSITIONS = {
    "requests": lambda r: ({"requests": [r]}, "requests[0]"),
    "T14": lambda r: (_inject("T14", "UserChannel", {"requests": [r]}), "injections[0].payload.requests[0]"),
    "T6": lambda r: (_inject("T6", "PAInput", r), "injections[0].payload"),
}


class TestOneRule:
    """A hazard or a request is judged by the same rule wherever a document writes it."""

    HAZARD = {"kind": "debris", "distance_m": 30.0, "confidence": 0.9}
    REQUEST = {"urgency_tag": "Routine", "destination": "office"}
    # (edit of a well-formed record, the field its error path must end at)
    BAD_HAZARDS = {
        "kind-5": ({"kind": 5}, "kind"),
        "extra-key": ({"extra": 1}, "extra"),
        "confidence-5": ({"confidence": 5}, "confidence"),
        "distance-negative": ({"distance_m": -1}, "distance_m"),
        "distance-nan": ({"distance_m": math.nan}, "distance_m"),
    }
    BAD_REQUESTS = {
        "destination-42": ({"destination": 42}, "destination"),
        "destination-list": ({"destination": [1, 2]}, "destination"),
        "urgency-Foo": ({"urgency_tag": "Foo"}, "urgency_tag"),
        "speed-inf": ({"desired_speed_kph": math.inf}, "desired_speed_kph"),
    }

    @staticmethod
    def rejected_at(edit: dict) -> str:
        with pytest.raises(ConfigError) as info:
            parse_scenario({**DOC, **edit}, "<test>")
        return info.value.where

    @pytest.mark.parametrize("bad", BAD_HAZARDS)
    @pytest.mark.parametrize("position", HAZARD_POSITIONS)
    def test_bad_hazard_is_rejected_at_its_field(self, position, bad):
        change, field = self.BAD_HAZARDS[bad]
        edit, path = HAZARD_POSITIONS[position]({**self.HAZARD, **change})
        assert self.rejected_at(edit) == f"<test>.{path}.{field}"

    @pytest.mark.parametrize("bad", BAD_REQUESTS)
    @pytest.mark.parametrize("position", REQUEST_POSITIONS)
    def test_bad_request_is_rejected_at_its_field(self, position, bad):
        change, field = self.BAD_REQUESTS[bad]
        edit, path = REQUEST_POSITIONS[position]({**self.REQUEST, **change})
        assert self.rejected_at(edit) == f"<test>.{path}.{field}"

    def test_integer_hazard_is_the_same_float_hazard_in_world_and_layer(self):
        written = {"kind": "debris", "distance_m": 30, "confidence": 1}
        world_edit, _ = HAZARD_POSITIONS["world"](written)
        layer_edit, _ = HAZARD_POSITIONS["XPerception"](written)
        config = parse_scenario({**DOC, **world_edit, **layer_edit}, "<test>")
        in_world = config.world.true_hazards[0]
        in_layer = to_layer_perturbations(config.injections[0][0])[0].value
        assert in_world == in_layer == Hazard("debris", 30.0, 1.0)
        for hazard in (in_world, in_layer):
            assert type(hazard.distance_m) is float and type(hazard.confidence) is float


class TestReachableWorld:
    BASE = yaml.safe_load(shipped_scenarios()["chain-base"].read_text())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_loaded_world_runs_its_baseline(self, data):
        limit = data.draw(st.floats(0.1, 200), label="limit")
        speed = data.draw(st.floats(0, min(limit, 130) + 250), label="speed")
        world = {**self.BASE["world"], "speed_limit_kph": limit, "vehicle_speed_kph": speed}
        try:
            config = parse_scenario({**self.BASE, "world": world}, "generated")
        except ConfigError as exc:
            assert exc.where == "generated.world.vehicle_speed_kph"
            return
        try:
            run_episodes(config, with_injections=False)
        except PipelineError as exc:
            pytest.fail(f"limit {limit!r}, speed {speed!r} loaded but cannot run: {exc}")

    def test_a_world_just_past_one_acceleration_window_above_its_limit_is_refused(self):
        # the window is 108 kph wide, less 1e-9 of it: at limit 90 the last loadable speed lies just below 198
        def load(speed: float):
            world = {**self.BASE["world"], "speed_limit_kph": 90.0, "vehicle_speed_kph": speed}
            return parse_scenario({**self.BASE, "world": world}, "generated")

        assert load(197.9).world.vehicle_true_speed_kph == 197.9
        with pytest.raises(ConfigError) as refused:
            load(198.0)
        assert str(refused.value) == (
            "generated.world.vehicle_speed_kph: 198 is more than 108 kph above min(limit, 130) = 90, "
            "so no rule-compliant speed is reachable"
        )

    def test_a_world_speed_past_its_range_is_a_range_error_and_one_at_its_bound_still_names_the_window(self):
        # the SC's 108 kph window stays exact in float arithmetic up to the world's 1,000 kph
        def load(speed: float):
            world = {**self.BASE["world"], "speed_limit_kph": 90.0, "vehicle_speed_kph": speed}
            return parse_scenario({**self.BASE, "world": world}, "generated")

        for speed in (math.nextafter(1000.0, math.inf), 1e17, sys.float_info.max):
            with pytest.raises(ConfigError) as refused:
                load(speed)
            assert str(refused.value) == (
                f"generated.world.vehicle_speed_kph: must be a finite number in [0, 1000], got {speed!r}"
            )
        with pytest.raises(ConfigError) as refused:
            load(1000.0)
        assert str(refused.value) == (
            "generated.world.vehicle_speed_kph: 1000 is more than 108 kph above min(limit, 130) = 90, "
            "so no rule-compliant speed is reachable"
        )
