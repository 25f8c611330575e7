"""CLI behavior: subcommands, exit codes, seed precedence, determinism."""

import pytest

from agvsim.chains import builtin_chains
from agvsim.cli import main
from agvsim.scenario import shipped_scenarios


T9_ENVELOPE = (
    "{threat: T9, surface: IdentityField, window: [0, 3],"
    " payload: {claimed: CavStack, target: context, context_patch: {speed_limit_kph: 60.0}}}"
)


def _with_injection(*injections: str) -> tuple[str, str]:
    """An (old, new) edit of `chain-base` that adds these injections."""
    return "requests:\n", "injections:\n" + "".join(f"  - {i}\n" for i in injections) + "requests:\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScore:
    def test_score_t7_autonomous_high(self, capsys):
        code, out, _ = run_cli(capsys, "score", "T7", "autonomous", "high")
        assert code == 0
        assert out.strip() == "16 Critical"

    def test_score_accepts_agency_level_number(self, capsys):
        code, out, _ = run_cli(capsys, "score", "T7", "autonomous", "5")
        assert out.strip() == "16 Critical"

    def test_score_with_override(self, capsys):
        code, out, _ = run_cli(capsys, "score", "T1", "manual", "low", "--set", "SI=C")
        assert code == 0
        assert out.strip() == "7 Low"

    def test_unknown_threat_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "score", "T99", "manual", "low")
        assert code == 1
        assert "T99" in err

    def test_bad_rating_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "score", "T1", "manual", "low", "--set", "SI=Z")
        assert code == 1


class TestValidateTables:
    def test_lists_known_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "validate-tables")
        assert code == 0
        assert "table 3 T11: printed total 13 != recomputed 14" in out
        assert out.strip().endswith("13 inconsistent cells out of 90")


class TestRun:
    def test_run_twice_is_byte_identical(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        name = "case1-highway-urgent"
        assert run_cli(capsys, "run", name, "--seed", "7", "--out", str(out1))[0] == 0
        assert run_cli(capsys, "run", name, "--seed", "7", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.trace.json").read_bytes() == (tmp_path / "b.csv.trace.json").read_bytes()

    def test_run_json_format(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "run", "case2-highway", "--out", str(out), "--format", "json")
        assert code == 0
        assert out.read_text().startswith("{")

    def test_run_stdout_csv(self, capsys):
        code, out, _ = run_cli(capsys, "run", "case2-highway")
        assert code == 0
        assert out.splitlines()[0].startswith("scenario_id,episode,step")

    def test_baseline_only_emits_single_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "run", "case1-highway-routine", "--baseline-only", "--out", str(out))
        assert code == 0
        assert '"injected": false' in out.read_text()

    def test_seed_env_var_used_when_no_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AGV_SIM_SEED", "99")
        out = tmp_path / "trace.json"
        run_cli(capsys, "run", "case1-highway-routine", "--baseline-only", "--out", str(out))
        assert '"seed": 99' in out.read_text()

    def test_seed_flag_beats_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AGV_SIM_SEED", "99")
        out = tmp_path / "trace.json"
        run_cli(capsys, "run", "case1-highway-routine", "--baseline-only", "--seed", "3", "--out", str(out))
        assert '"seed": 3' in out.read_text()

    def test_missing_scenario_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "no-such-scenario")
        assert code == 1

    def test_unwritable_out_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "case2-highway", "--out", "/nonexistent-dir/x.csv")
        assert code == 2
        assert "io error" in err

    def test_directory_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {tmp_path}: cannot read: ")
        assert len(err.splitlines()) == 1

    def test_non_utf8_file_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"id: caf\xe9\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}: cannot read: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("old, new, field", [
        ("speed_limit_kph: 90.0", "speed_limit_kph: -5", "world.speed_limit_kph"),
        ("speed_limit_kph: 90.0", "speed_limit_kph: .nan", "world.speed_limit_kph"),
        ("speed_limit_kph: 90.0", "speed_limit_kph: 0.05", "world.speed_limit_kph"),
        ("vehicle_speed_kph: 72.0", "vehicle_speed_kph: -3", "world.vehicle_speed_kph"),
    ], ids=["negative-limit", "nan-limit", "below-floor-limit", "negative-speed"])
    def test_out_of_range_world_is_config_error(self, capsys, tmp_path, old, new, field):
        text = shipped_scenarios()["chain-base"].read_text()
        assert old in text
        path = tmp_path / "world.yaml"
        path.write_text(text.replace(old, new))
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}.{field}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("old, new", [
        _with_injection("{threat: T6, surface: PAInput, payload: {desired_speed_kph: -5}}"),
        _with_injection("{threat: T6, surface: PAInput, payload: {desired_speed_kph: fast}}"),
        _with_injection(
            "{threat: T14, surface: UserChannel, payload: {requests: [{urgency_tag: Foo, destination: x}]}}"
        ),
        _with_injection(
            "{threat: T11, surface: ToolOutput, payload: {config_field: pa_routine_factor, config_value: .inf}}"
        ),
        _with_injection(
            "{threat: T11, surface: ToolOutput, payload: {config_field: pa_urgent_urgency, config_value: 5}}"
        ),
        _with_injection(
            "{threat: T3, surface: InterAgentMsg, payload: {grant_role: PersonalAgent,"
            " context_patch: {hazards_add: [{kind: debris, distance_m: 30, confidence: 5}]}}}"
        ),
        _with_injection(T9_ENVELOPE, "{threat: T12, surface: InterAgentMsg, payload: {target: external,"
                        " edits: [{field: speed_limit_kph, op: Set, value: abc}]}}"),
        _with_injection(T9_ENVELOPE, "{threat: T12, surface: InterAgentMsg, payload: {target: external,"
                        " edits: [{field: hazards, op: InjectRecord, value: {kind: debris, confidence: 0.9}}]}}"),
        _with_injection("{threat: T10, surface: UserChannel, payload: {noise_queries: true}}"),
        _with_injection(
            "{threat: XPerception, surface: Layer,"
            " payload: {transforms: [{field: speed_limit_kph, op: Set, value: .nan}]}}"
        ),
        _with_injection(
            "{threat: XControlFeedback, surface: Layer,"
            " payload: {transforms: [{field: speed_kph, op: Set, value: .nan}]}}"
        ),
        _with_injection("{threat: T1, surface: PAMemory, payload: {value_kph: .inf}}"),
        ("destination: commute}\n", "destination: commute, desired_speed_kph: .inf}\n"),
        ("destination: commute}\n", "destination: commute, desired_speed_kph: 0.05}\n"),
        ("  vehicle_speed_kph: 72.0\n",
         "  vehicle_speed_kph: 72.0\n  hazards: [{kind: debris, distance_m: .inf, confidence: 0.9}]\n"),
    ], ids=[
        "T6-negative-speed", "T6-string-speed", "T14-bad-urgency", "T11-inf", "T11-urgency-5",
        "T3-hazard-confidence-5", "T12-external-abc", "T12-external-hazard-without-distance",
        "T10-bool", "XPerception-nan", "XControlFeedback-nan", "T1-inf", "request-inf", "request-below-floor",
        "world-hazard-inf",
    ])
    def test_malformed_input_is_config_error(self, capsys, tmp_path, old, new):
        text = shipped_scenarios()["chain-base"].read_text()
        assert old in text
        path = tmp_path / "malformed.yaml"
        path.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "r.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}.")
        assert len(err.splitlines()) == 1

    def test_huge_confirmation_flood_matches_a_small_one(self, capsys, tmp_path):
        text = shipped_scenarios()["chain-base"].read_text()
        reports = []
        for n in (5, 10**9):
            path = tmp_path / f"flood-{n}.yaml"
            path.write_text(text.replace(*_with_injection(
                f"{{threat: T10, surface: UserChannel, window: [0, 3], payload: {{noise_queries: {n}}}}}"
            )))
            code, out, _ = run_cli(capsys, "run", str(path))
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]


class TestChainCommand:
    def test_builtin_chain_runs(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "chain-1")
        assert code == 0
        assert out.startswith("chain:    chain-1-memory-poisoning-drift\n")
        assert "outcome:  MisalignedApproved" in out
        assert "stealth:  true" in out

    def test_unknown_chain_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "chain", "chain-42")
        assert code == 1

    def test_ambiguous_prefix_is_config_error_naming_matches(self, capsys):
        code, out, err = run_cli(capsys, "chain", "chain-")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "ambiguous" in err
        for spec in builtin_chains():
            assert spec.id in err

    def test_directory_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "chain", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {tmp_path}: cannot read: ")
        assert len(err.splitlines()) == 1

    def test_non_utf8_chain_file_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "latin1-chain.yaml"
        path.write_bytes(b"id: caf\xe9\nstages: []\n")
        code, out, err = run_cli(capsys, "chain", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}: cannot read: ")
        assert len(err.splitlines()) == 1

    def test_chain_spec_file_runs(self, capsys, tmp_path):
        path = tmp_path / "chain.yaml"
        path.write_text(
            "id: file-chain\n"
            "episode_length: 2\n"
            "stages:\n"
            "  - kind: inject\n"
            "    trigger: {at_step: 0}\n"
            "    injection: {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}}\n"
        )
        code, out, err = run_cli(capsys, "chain", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("chain:    file-chain\n")

    @pytest.mark.parametrize("trigger, field", [
        ('{at_step: "0"}', "at_step"),
        ('{after_stage: "x"}', "after_stage"),
        ("{at_step: true}", "at_step"),
    ], ids=["string-step", "string-stage", "bool-step"])
    def test_non_integer_trigger_is_config_error(self, capsys, tmp_path, trigger, field):
        path = tmp_path / "chain.yaml"
        path.write_text(
            "id: file-chain\n"
            "episode_length: 2\n"
            "stages:\n"
            "  - kind: inject\n"
            "    trigger: {at_step: 0}\n"
            "    injection: {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}}\n"
            "  - kind: inject\n"
            f"    trigger: {trigger}\n"
            "    injection: {threat: T6, surface: PAInput, payload: {urgency_tag: Urgent}}\n"
        )
        code, out, err = run_cli(capsys, "chain", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}.stages[1].trigger.{field}: must be an integer")
        assert len(err.splitlines()) == 1

    def test_scenario_without_requests_is_config_error(self, capsys, tmp_path):
        text = shipped_scenarios()["chain-base"].read_text()
        path = tmp_path / "no-requests.yaml"
        path.write_text(text.split("requests:")[0] + "requests: []\n")
        code, out, err = run_cli(capsys, "chain", "chain-1", "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("config error: chain-base: no requests")
        assert len(err.splitlines()) == 1


class TestList:
    def test_list_threats_covers_all_ids(self, capsys):
        code, out, _ = run_cli(capsys, "list", "threats")
        assert code == 0
        for tid in ("T1", "T15", "XPerception", "XControlFeedback"):
            assert tid in out

    def test_list_chains(self, capsys):
        code, out, _ = run_cli(capsys, "list", "chains")
        assert len([l for l in out.splitlines() if l.strip()]) == 6

    def test_list_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "list", "scenarios")
        assert len(out.splitlines()) == len(shipped_scenarios())


class TestUsageErrors:
    def test_unknown_subcommand_exits_1_with_usage(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage:" in err

    def test_no_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage:" in err
