"""Planted faults: each must make named existing tests fail.

A plant edits one line in the source of one function, compiles the edited
function in its module's namespace and puts it in place by monkeypatch, in
every loaded module that binds the function's name. The tests named for it
are then called in-process and must fail; a plant that none of them notices
marks a fault the suite would let through. The named tests are deterministic,
or property tests whose strategies draw the planted case often, so this file
takes a few seconds.
"""

import __future__
import dataclasses
import inspect
import math
import os
import sys
import textwrap
import types

import pytest
from hypothesis import Phase, settings

import agvsim.cavstack
import agvsim.chains
import agvsim.cli
import agvsim.domain
import agvsim.pipeline
import agvsim.report
import agvsim.runner
import agvsim.scenario
import agvsim.serialize
import agvsim.severity
import agvsim.threats
import agvsim.trace
import test_cavstack
import test_chains
import test_cli
import test_domain
import test_generated_scenarios
import test_golden
import test_incremental
import test_pipeline
import test_report
import test_runner
import test_scenario
import test_sc_oracle
import test_serialize
import test_severity
import test_threats
import test_tooling
from agvsim.cavstack import WorldTruth
from agvsim.domain import (
    FIELD_RANGES, ContextSummary, Hazard, RoadClass, ThreatId, UserRequest, VehicleFeedback,
)
from agvsim.pipeline import MemoryStore
from agvsim.runner import run_episodes
from agvsim.scenario import load_shipped
from agvsim.serialize import ListDigest
from agvsim.threats import THREATS, MessageLog
from test_incremental import at_apply, digest_calls, site_digests  # noqa: F401  fixtures the plants' tests take

# writes provenance hops, and meets shared frozen objects at a new indent
SCENARIO = "case1-arterial-routine"


def plant(monkeypatch, owner: object, name: str, old: str, new: str):
    """Replace `owner.name` with a copy whose source has its one `old` replaced by `new`, and return the copy.

    When `owner` is a module, the copy also replaces the function in every
    other loaded module that imported it by name.
    """
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    code = compile(
        source.replace(old, new), inspect.getsourcefile(function), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, function.__globals__, namespace)
    planted = namespace[name]
    monkeypatch.setattr(owner, name, planted)
    if isinstance(owner, types.ModuleType):
        for module in list(sys.modules.values()):
            if module is not None and vars(module).get(name) is function:
                monkeypatch.setattr(module, name, planted)
    return planted


def fails(test, *args) -> None:
    # a failed assertion, or a `pytest.raises` block that nothing raised in
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        test(*args)


def test_a_memo_that_serves_the_first_indent_fails(monkeypatch):
    # a frozen object met again at another indent keeps the indent it was first written at
    plant(monkeypatch, agvsim.serialize, "_text", "if old == nl else", "if True else")
    fails(test_serialize.test_a_shared_frozen_object_is_written_once_per_call, monkeypatch)
    fails(test_golden.test_scenario_exports_match_golden, SCENARIO)
    fails(test_golden.test_scenario_json_export_equals_reference, SCENARIO, monkeypatch)


def test_a_list_digest_without_its_separator_fails(monkeypatch):
    plant(monkeypatch, ListDigest, "_item_bytes", 'out = [", "] if i else []', "out = []")
    fails(test_golden.test_campaign_exports_match_golden, "threat-t08")


def test_a_t8_view_of_the_live_log_fails(monkeypatch, at_apply):
    # the snapshot holds the list that T8 strips and the runner extends after the view
    plant(
        monkeypatch, MessageLog, "snapshot",
        "LazyDigest(tuple(entries[end:]), self._settled.digest)", "LazyDigest(self._entries)",
    )
    fails(test_incremental.test_lazy_effect_digests_equal_the_digests_at_apply_time, at_apply, "campaigns")


def test_a_settled_link_that_advances_a_shared_digest_fails(monkeypatch):
    # every link holds the one `ListDigest`: a link read after a later one has its entries
    plant(monkeypatch, agvsim.threats._Settled, "digest", "state = state.copy()", "state = state")
    fails(test_incremental.test_message_log_digest_equals_whole_log_digest)


def redeclare(monkeypatch, cls: type, name: str, bounds: tuple[float, float]) -> None:
    """Give the ranged field `cls.name` the range `bounds`, as `record` would build `cls` had it declared them."""
    monkeypatch.setitem(FIELD_RANGES[cls], name, bounds)
    monkeypatch.setattr(cls, "__init__", agvsim.domain._record_methods(cls)["__init__"])


def test_a_world_that_leaves_its_speed_unchecked_fails(monkeypatch):
    # the world declares its speed with a range of its own, not the reported speed's: any speed but NaN builds
    redeclare(monkeypatch, WorldTruth, "vehicle_true_speed_kph", (-math.inf, math.inf))
    fails(test_cavstack.TestWorldTruthRanges().test_a_world_outside_its_ranges_is_refused_naming_the_field,
          90.0, math.inf, "vehicle_true_speed_kph")


def test_a_pair_written_without_its_inner_indent_fails(monkeypatch):
    # the hop's two items at the list's own indent, not one level in
    plant(
        monkeypatch, agvsim.serialize, "_text",
        "_INDENTS.get(inner) or _indent(inner)", "_INDENTS.get(nl) or _indent(nl)",
    )
    fails(test_golden.test_scenario_exports_match_golden, SCENARIO)
    fails(test_golden.test_scenario_json_export_equals_reference, SCENARIO, monkeypatch)
    fails(test_golden.test_campaign_json_export_equals_reference, "threat-t08", monkeypatch)


def test_a_layout_that_writes_derived_fields_fails(monkeypatch):
    # every field is written, so each injection's parsed payload (`args`) enters the chain specs' digest
    monkeypatch.setattr(agvsim.serialize, "_LAYOUTS", {})  # no layout built before the plant serves
    plant(monkeypatch, agvsim.serialize, "_layout", " if f.compare", "")
    fails(test_chains.TestBuiltinChains().test_the_shipped_specs_are_pinned)
    fails(test_serialize.test_a_derived_field_is_neither_exported_nor_digested)


def test_a_patch_that_ignores_its_closures_fails(monkeypatch):
    plant(monkeypatch, agvsim.threats, "apply_context_patch", 'patch.get("closures_add", ())', "()")
    fails(test_threats.test_a_patch_merges_as_the_reference_does)
    fails(test_chains.TestRunChain().test_chain_2_route_delta_with_clean_verdicts, load_shipped("chain-base"))


def test_validate_tables_without_its_band_check_fails(monkeypatch, capsys):
    plant(monkeypatch, agvsim.severity, "validate_tables", " or r.band_mismatch", "")
    fails(test_severity.TestValidateTables().test_flags_exactly_the_brute_force_discrepancies)
    fails(test_cli.TestValidateTables().test_prints_every_inconsistent_cell, capsys)


def test_t4_that_skips_its_pa_input_edit_fails(monkeypatch):
    # the transform is built and thrown away: the PA's context stays as it was
    act = plant(
        monkeypatch, agvsim.threats, "_act_t4",
        "state.pa_context = apply_summary_transform(", "apply_summary_transform(",
    )
    monkeypatch.setitem(THREATS, ThreatId.T4, dataclasses.replace(THREATS[ThreatId.T4], act=act))
    fails(test_threats.TestApplyEffects().test_t4_multiplies_completeness)
    fails(test_threats.test_t4_on_pa_input_scales_completeness_alone)


def test_an_admission_memo_keyed_by_table_size_fails(monkeypatch):
    # every table T3 builds has the four authorities: the first granted table's digest serves every later one
    plant(monkeypatch, agvsim.runner, "run_episodes", "key = frozenset(admission.items())", "key = len(admission)")
    fails(test_runner.TestAdmissionDigest.test_admission_digest_follows_every_t3_grant)


def test_a_runner_that_digests_every_granted_table_fails(monkeypatch, site_digests):
    # right digests, one per step that T3 acts at: the count grows with the horizon
    plant(
        monkeypatch, agvsim.runner, "run_episodes",
        "admission_digest = admission_digests.get(key)", "admission_digest = None",
    )
    fails(
        test_incremental.test_a_csv_only_campaign_pair_digests_at_most_once_more_per_added_episode,
        site_digests, "threat-t03",
    )


def test_t11_that_keeps_an_equal_but_differently_written_knob_fails(monkeypatch):
    # -0.0 == 0.0: the tuning that holds 0.0 is kept, and its digest with it
    act = plant(
        monkeypatch, agvsim.threats, "_act_t11",
        "if held != value or repr(held) != repr(value):", "if held != value:",
    )
    monkeypatch.setitem(THREATS, ThreatId.T11, dataclasses.replace(THREATS[ThreatId.T11], act=act))
    fails(test_runner.TestTuningDigest().test_negative_zero_knob_gets_its_own_digest)


def test_a_store_that_adopt_extends_in_place_fails(monkeypatch, digest_calls):
    # `adopt` edits this store and returns it: its digest, once taken, goes stale,
    # and T1 and T5 read every adoption as an entry already held
    plant(
        monkeypatch, MemoryStore, "adopt",
        "return MemoryStore(self.entries + (entry,))",
        'return object.__setattr__(self, "entries", self.entries + (entry,)) or self',
    )
    fails(test_incremental.test_a_store_carried_over_whole_keeps_its_digest, digest_calls)
    fails(test_incremental.test_memory_digest_follows_every_append)
    fails(test_pipeline.TestMemoryStore().test_digest_tracks_content)
    fails(test_golden.test_scenario_exports_match_golden, "threat-t01")
    fails(test_golden.test_campaign_exports_match_golden, "threat-t01")


def test_a_log_digest_of_the_first_hops_alone_fails(monkeypatch):
    plant(monkeypatch, agvsim.trace, "_log_digest", "env.provenance for env", "env.provenance[:1] for env")
    fails(test_incremental.test_lazy_log_digest_equals_the_eager_digest_of_the_provenance, "shipped")
    fails(test_incremental.test_equal_provenance_lists_are_exactly_equal_log_digests)
    fails(test_golden.test_scenario_exports_match_golden, SCENARIO)


def test_step_deltas_that_skip_the_memory_digest_fail(monkeypatch):
    # not `episode`: paired steps never differ there, so skipping it would go unnoticed
    plant(
        monkeypatch, agvsim.trace, "step_deltas",
        "for name in _DIFFED_FIELDS if", 'for name in _DIFFED_FIELDS if name != "memory_digest" and',
    )
    fails(test_incremental.test_step_deltas_match_leaf_flattening_reference, "campaigns")
    fails(
        test_runner.TestEffectLifetimes().test_memory_entries_last_the_episode_and_cross_it_only_when_persistent,
        "threat-t01", True, [0, 1, 2, 3, 4, 5],
    )
    fails(test_golden.test_chain_stage_summary_matches_golden, "chain-3-hallucination-compounding")


def test_an_sc_that_skips_the_headway_rule_fails(monkeypatch):
    # the shipped runs never propose a headway under the minimum; generated proposals do
    plant(monkeypatch, agvsim.pipeline, "sc_violations", "if proposal.headway_s < rules.min_headway_s:", "if False:")
    fails(test_sc_oracle.test_every_generated_approval_keeps_every_rule)


def test_a_stealth_check_of_approved_targets_fails(monkeypatch):
    # the attack is meant to change what is approved while the verdicts stay the same
    plant(
        monkeypatch, agvsim.trace, "stealth_check",
        "return attacked.verdict_sequence() == baseline.verdict_sequence()",
        "return [r.approved.target_speed_kph for r in attacked.steps] == "
        "[r.approved.target_speed_kph for r in baseline.steps]",
    )
    fails(test_runner.TestStealthCheck().test_case_study_attack_is_stealthy)
    fails(test_chains.TestRunChain().test_all_shipped_chains_classify_misaligned_approved, load_shipped("chain-base"))
    fails(test_golden.test_scenario_exports_match_golden, SCENARIO)


def test_persistence_that_counts_every_deviating_episode_fails(monkeypatch):
    # a deviating episode counts as persisting only when every injection in it was a no-op
    plant(
        monkeypatch, agvsim.report, "compare",
        "if any_delta and all([e.warning for record in a_steps for e in record.effects]):", "if any_delta:",
    )
    config = load_shipped("case1-highway-routine")
    report = agvsim.report.compare(run_episodes(config, False), run_episodes(config, True))
    fails(test_report.TestCompare().test_case_study_metrics, report)
    fails(test_golden.test_scenario_exports_match_golden, "threat-t01")


def test_admission_that_merges_every_context_patch_fails(monkeypatch):
    # a patch in an envelope whose claimed sender the table does not admit merges all the same
    plant(monkeypatch, agvsim.runner, "run_episodes", "if not admitted(env, state.admission):", "if False:")
    fails(test_runner.test_a_context_envelope_from_an_unadmitted_claimed_sender_is_rejected)


def test_a_checked_value_that_drops_its_path_fails(monkeypatch):
    # a value's own check reads as a load error of no field
    plant(monkeypatch, agvsim.domain, "checked", "ConfigError(where, str(exc))", 'ConfigError("", str(exc))')
    schema, stages = test_scenario.TestSchemaErrors(), test_scenario.TestChainStages()
    fails(schema.test_a_chain_past_max_run_steps_is_rejected_at_load)
    fails(stages.test_a_key_the_stage_would_drop_is_rejected, "observe-with-injection")
    fails(stages.test_a_key_the_stage_would_drop_is_rejected, "inject-with-probe")
    fails(schema.test_an_agency_outside_0_to_5_names_the_agency_field, 7)
    fails(schema.test_an_agency_outside_0_to_5_names_the_agency_field, -1)
    fails(schema.test_an_unknown_transform_field_names_its_transform)


def test_a_layer_summary_that_applies_every_layers_transforms_fails(monkeypatch):
    # a V2X spoof reaches the perception stack's output too
    plant(monkeypatch, agvsim.cavstack, "_transformed", "if p.layer in layers:", "if True:")
    fails(test_cavstack.TestPerceive().test_v2x_transforms_do_not_apply_to_perception)


def test_a_baseline_that_applies_the_scenarios_injections_fails(monkeypatch):
    # the baseline run acts the scenario's injections as the attacked run does
    plant(
        monkeypatch, agvsim.runner, "run_episodes",
        "static_injections = config.injections if with_injections else ()",
        "static_injections = config.injections",
    )
    # the first failing example is enough: shrinking it would take half a minute
    previous = settings.get_current_profile_name()
    settings.register_profile("planted-no-shrink", phases=[phase for phase in Phase if phase is not Phase.shrink])
    settings.load_profile("planted-no-shrink")
    try:
        fails(test_generated_scenarios.test_every_generated_scenario_that_loads_and_runs_holds_the_pipeline_invariants)
    finally:
        settings.load_profile(previous)


def test_a_writer_that_encodes_for_the_locale_fails(monkeypatch, capsys, tmp_path):
    # the bytes of a latin-1 stdout, not UTF-8's, reach the terminal
    plant(monkeypatch, agvsim.cli, "_write", 'text.encode("utf-8")', "text.encode(sys.stdout.encoding)")
    fails(
        test_cli.TestStdoutEncoding().test_in_process_output_bypasses_a_strict_latin1_stdout,
        capsys, monkeypatch, tmp_path, ["list", "scenarios"], "\u00fcber-stra\u00dfe",
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_writer_that_loses_the_failed_files_name_fails(monkeypatch, capsys):
    # a failed write names no file: the error is blamed on stdout
    plant(monkeypatch, agvsim.cli, "_write", "exc.filename = exc.filename or path", "pass")
    fails(test_cli.TestRun().test_out_on_a_full_disk_is_one_line_naming_the_file, capsys)


def test_a_scenario_loader_that_skips_the_window_check_fails(monkeypatch):
    # an injection that starts past the run loads, and never acts
    plant(monkeypatch, agvsim.scenario, "parse_scenario", "if start >= steps:", "if False:")
    fails(test_scenario.TestSchemaErrors().test_a_window_that_starts_past_the_run_is_rejected, 3, 1, 50)


def test_a_score_command_that_loads_the_runner_fails(monkeypatch):
    # `score` reads the severity tables alone: an import of the runner loads the pipeline and the appliers
    score = plant(monkeypatch, agvsim.cli, "_cmd_score", "overrides = {}", "from . import runner; overrides = {}")
    monkeypatch.setitem(agvsim.cli._COMMANDS, "score", score)
    fails(
        test_cli.TestColdStart().test_each_command_loads_only_the_modules_it_uses,
        ["score", "T7", "autonomous", "high"], set(), test_cli.SCORING_NEEDS_NONE_OF,
    )


def test_a_chain_loader_that_ignores_stage_labels_fails(monkeypatch, tmp_path):
    # every shipped stage loads with the default, empty label
    plant(
        monkeypatch, agvsim.chains, "_parse_chain_stage",
        'label = string(stage.get("label", ""), f"{where}.label")', 'label = ""',
    )
    fails(test_chains.TestBuiltinChains().test_the_shipped_specs_are_pinned)
    fails(
        test_tooling.test_every_operation_of_the_runner_workloads_matches_its_golden_digest,
        tmp_path, "chain-sweep", 216,
    )


def test_a_record_init_that_skips_its_checks_fails(monkeypatch):
    # every record builds unchecked: a proposal under the least headway, an envelope without provenance
    build = plant(monkeypatch, agvsim.domain, "_record_methods", 'stores.append("    __self.__post_init__()")', "pass")
    for cls in test_tooling.RECORDS:
        monkeypatch.setattr(cls, "__init__", build(cls)["__init__"])
    fails(test_pipeline.test_a_proposal_out_of_bounds_is_rejected)
    fails(test_domain.TestEnvelopes().test_empty_provenance_rejected)


def test_a_layer_clamp_with_its_own_bound_fails(monkeypatch):
    # the layer clamp keeps a literal range of its own for traffic density, wider than the record's
    plant(
        monkeypatch, agvsim.cavstack, "apply_summary_transform",
        "*FIELD_RANGES[type(summary)][field]",
        '*((0.0, 2.0) if field == "traffic_density" else FIELD_RANGES[type(summary)][field])',
    )
    fails(test_cavstack.test_every_clamped_transform_result_passes_the_records_check, ContextSummary, "traffic_density")


def test_an_sc_window_with_a_shifted_lower_edge_fails(monkeypatch):
    # one kph more room below the acceleration box: the loader takes a world with no reachable rule-compliant speed
    plant(monkeypatch, agvsim.pipeline, "rule_boxes", "speed_kph - delta)", "speed_kph - delta - 1.0)")
    fails(test_scenario.TestReachableWorld().test_a_world_just_past_one_acceleration_window_above_its_limit_is_refused)


def test_a_resubmission_clamped_into_the_whole_speed_window_fails(monkeypatch):
    # the resubmission meets every rule's box at once: the substitute's second chance is never needed, and where the
    # window is empty the target lands on its top, 90 kph, instead of the acceleration box's floor
    plant(
        monkeypatch, agvsim.pipeline, "tighten_proposal",
        "rule_boxes(feedback.speed_kph, context_limit_claimed, rules)[reason]",
        "(*speed_window(feedback.speed_kph, context_limit_claimed, rules), rules.min_headway_s)",
    )
    revision = test_pipeline.TestPipelineComposition()
    fails(
        revision.test_an_empty_speed_window_revises_into_the_violated_rules_box_then_halts,
        250.0, 90.0, "max_accel", 250.0 - agvsim.pipeline.max_delta_kph(agvsim.pipeline.Rulebook()), "abs_max",
    )
    fails(
        revision.test_each_revision_path_approves_what_its_rules_allow,
        150.0, 0.6, 130.0, 200.0, ("Revise", "Substitute"), ("abs_max", "min_headway"), (130.0, 1.0),
    )


def test_a_record_check_with_the_old_speed_limit_floor_fails(monkeypatch):
    # a summary built in Python takes a limit down to 0, below the least limit a document may state
    build = plant(
        monkeypatch, agvsim.domain, "_record_methods", "= ranges[f.name]",
        '= (0.0, ranges[f.name][1]) if f.name == "speed_limit_kph" else ranges[f.name]',
    )
    monkeypatch.setattr(ContextSummary, "__init__", build(ContextSummary)["__init__"])
    fields = test_domain.TestFieldRanges()
    fails(fields.test_a_bound_is_legal_and_the_next_float_outside_it_is_not, ContextSummary, "speed_limit_kph", "lo")
    fails(fields.test_a_record_built_in_python_obeys_the_range_its_file_form_does)


def test_a_range_check_that_leaves_out_the_last_ranged_field_fails(monkeypatch):
    # braking, the last ranged field of the feedback, and completeness, the summary's, take any value
    build = plant(
        monkeypatch, agvsim.domain, "_record_methods", "' and '.join(checks)", "' and '.join(checks[:-1]) or 'True'",
    )
    for cls in test_tooling.RECORDS:
        monkeypatch.setattr(cls, "__init__", build(cls)["__init__"])
    fields = test_domain.TestFieldRanges()
    for kind, name in ((VehicleFeedback, "braking"), (ContextSummary, "completeness")):
        fails(fields.test_a_bound_is_legal_and_the_next_float_outside_it_is_not, kind, name, "hi")


def test_a_range_check_that_drops_the_none_allowance_fails(monkeypatch):
    # a request that leaves its speed unset compares None with the speed range
    build = plant(
        monkeypatch, agvsim.domain, "_record_methods",
        'checks.append(f"({f.name} is None or {check})" if f.default is None else check)', "checks.append(check)",
    )
    monkeypatch.setattr(UserRequest, "__init__", build(UserRequest)["__init__"])
    fields = test_domain.TestFieldRanges()
    for side in ("lo", "hi"):
        with pytest.raises(TypeError, match="not supported between instances of 'float' and 'NoneType'"):
            fields.test_a_bound_is_legal_and_the_next_float_outside_it_is_not(UserRequest, "desired_speed_kph", side)


def test_a_record_built_without_slots_fails(monkeypatch):
    # the rebuilt class gets a base that declares no slots: its instances
    # carry a dict and take weakrefs, though every field still has its slot
    build = plant(
        monkeypatch, agvsim.domain, "record",
        "type(cls)(cls.__name__, cls.__bases__, body)", "type(cls)(cls.__name__, (type('Unslotted', (), {}),), body)",
    )

    @build
    class Probe:
        """A record with a digest field."""

        name: str
        digest: str = agvsim.threats._DigestField()  # type: ignore[assignment]

    probe = Probe("probe", agvsim.threats.LazyDigest("probe"))
    assert probe.digest == agvsim.serialize.digest_of("probe")
    fails(test_tooling.test_a_record_keeps_the_dataclass_interface, Probe, {Probe: probe})


def test_a_record_that_compares_and_hashes_all_but_its_last_compared_field_fails(monkeypatch):
    # a hazard at another confidence, or a summary of another completeness, equals the first
    build = plant(
        monkeypatch, agvsim.domain, "_record_methods",
        "for f in table if f.compare)})", "for f in [f for f in table if f.compare][:-1])})",
    )
    samples = {Hazard: Hazard("pedestrian", 12.0, 0.5), ContextSummary: ContextSummary(50.0, RoadClass.URBAN)}
    for cls in samples:
        methods = build(cls)
        monkeypatch.setattr(cls, "__eq__", methods["__eq__"])
        monkeypatch.setattr(cls, "__hash__", methods["__hash__"])
        fails(test_tooling.test_a_record_keeps_the_dataclass_interface, cls, samples)


def test_a_run_that_makes_a_reference_cycle_per_step_fails(monkeypatch):
    # the collector is paused for the step loop: a cycle per step would be kept until the caller's next collection
    plant(
        monkeypatch, agvsim.runner, "run_episodes",
        "effects: list[InjectionEffectRecord] = []",
        "effects: list[InjectionEffectRecord] = []; cycle: list = []; cycle.append(cycle)",
    )
    fails(test_runner.TestCollectorPause().test_shipped_pairs_and_their_exports_make_no_cyclic_garbage)
    fails(test_runner.TestCollectorPause().test_builtin_chains_make_no_cyclic_garbage)


def test_a_step_record_with_its_tuning_and_admission_digests_swapped_fails(monkeypatch):
    # the runner passes a step record's fields by position: two adjacent strings trade places without an error
    plant(
        monkeypatch, agvsim.runner, "run_episodes",
        "tuning_digest,  # tuning_digest\n                    admission_digest,  # admission_digest",
        "admission_digest,  # tuning_digest\n                    tuning_digest,  # admission_digest",
    )
    fails(test_runner.TestTuningDigest().test_negative_zero_knob_gets_its_own_digest)
    fails(test_golden.test_scenario_exports_match_golden, SCENARIO)


def test_a_step_row_with_its_baseline_and_attacked_targets_swapped_fails(monkeypatch):
    # `compare` passes a row's fields by position: the two targets are both floats
    plant(
        monkeypatch, agvsim.report, "compare",
        "b_target, a_target, a_target - b_target,", "a_target, b_target, a_target - b_target,",
    )
    config = load_shipped("case1-highway-routine")
    report = agvsim.report.compare(run_episodes(config, False), run_episodes(config, True))
    fails(test_report.TestCompare().test_delta_is_attacked_minus_baseline, report)
    fails(test_report.TestCsvRendering().test_three_decimal_rendering, report)
    fails(test_golden.test_scenario_exports_match_golden, "case1-highway-routine")
