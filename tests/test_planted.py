"""Planted faults: each must make named existing tests fail.

A plant edits one line in the source of one function, compiles the edited
function in its module's namespace and puts it in place by monkeypatch, in
every loaded module that binds the function's name. The tests named for it
are then called in-process and must fail; a plant that none of them notices
marks a fault the suite would let through. The named tests are deterministic,
so this file takes a few seconds.
"""

import __future__
import dataclasses
import inspect
import sys
import textwrap
import types

import pytest

import agvsim.serialize
import agvsim.severity
import agvsim.threats
import test_chains
import test_cli
import test_golden
import test_serialize
import test_severity
import test_threats
from agvsim.domain import ThreatId
from agvsim.scenario import load_shipped
from agvsim.serialize import ListDigest
from agvsim.threats import THREATS

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
    with pytest.raises(AssertionError):
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
