"""Planted faults: each must make named existing tests fail.

A plant edits one line in the source of one function, compiles the edited
function in its module's namespace and puts it in place by monkeypatch. The
tests named for it are then called in-process and must fail; a plant that
none of them notices marks a fault the suite would let through. The named
tests are deterministic, so this file takes a few seconds.
"""

import __future__
import inspect
import textwrap

import pytest

import agvsim.serialize
import test_golden
import test_serialize
from agvsim.serialize import ListDigest

# writes provenance hops, and meets shared frozen objects at a new indent
SCENARIO = "case1-arterial-routine"


def plant(monkeypatch, owner: object, name: str, old: str, new: str) -> None:
    """Replace `owner.name` with a copy whose source has its one `old` replaced by `new`."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    code = compile(
        source.replace(old, new), inspect.getsourcefile(function), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, function.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


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
