"""CLI behavior: subcommands, exit codes, seed precedence, determinism."""

from agvsim.chains import builtin_chains
from agvsim.cli import main
from agvsim.scenario import shipped_scenarios


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
