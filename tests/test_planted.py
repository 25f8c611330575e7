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
import os
import sys
import textwrap
import types

import pytest

import agvsim.chains
import agvsim.cli
import agvsim.pipeline
import agvsim.report
import agvsim.runner
import agvsim.scenario
import agvsim.serialize
import agvsim.severity
import agvsim.threats
import agvsim.trace
import test_chains
import test_cli
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
from agvsim.domain import ThreatId
from agvsim.pipeline import MemoryStore
from agvsim.runner import run_episodes
from agvsim.scenario import load_shipped
from agvsim.serialize import ListDigest
from agvsim.threats import THREATS
from test_incremental import digest_calls  # noqa: F401  a fixture the store plant's test takes

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


def test_a_pair_written_without_its_inner_indent_fails(monkeypatch):
    # the hop's two items at the list's own indent, not one level in
    plant(
        monkeypatch, agvsim.serialize, "_text",
        "_INDENTS.get(inner) or _indent(inner)", "_INDENTS.get(nl) or _indent(nl)",
    )
    fails(test_golden.test_scenario_exports_match_golden, SCENARIO)
    fails(test_golden.test_scenario_json_export_equals_reference, SCENARIO, monkeypatch)
    fails(test_golden.test_campaign_json_export_equals_reference, "threat-t08", monkeypatch)


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


def test_a_store_that_adopt_extends_in_place_fails(monkeypatch, digest_calls):
    # `adopt` edits this store and returns it: its digest, once taken, goes stale,
    # and T1 and T5 read every adoption as an entry already held
    plant(
        monkeypatch, MemoryStore, "adopt",
        "return MemoryStore(self.entries + (entry,))", 'return setattr(self, "entries", self.entries + (entry,)) or self',
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
        "if any_delta and all(e.warning for record in a_steps for e in record.effects):", "if any_delta:",
    )
    config = load_shipped("case1-highway-routine")
    report = agvsim.report.compare(run_episodes(config, False), run_episodes(config, True))
    fails(test_report.TestCompare().test_case_study_metrics, report)
    fails(test_golden.test_scenario_exports_match_golden, "threat-t01")


def test_admission_that_merges_every_context_patch_fails(monkeypatch):
    # a patch in an envelope whose claimed sender the table does not admit merges all the same
    plant(monkeypatch, agvsim.runner, "run_episodes", "if admitted(env, state.admission):", "if True:")
    fails(test_runner.test_a_context_envelope_from_an_unadmitted_claimed_sender_is_rejected)


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
