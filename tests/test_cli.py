"""CLI behavior: subcommands, exit codes, seed precedence, determinism."""

import contextlib
import copy
import errno
import importlib.abc
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import agvsim
import agvsim.cli
import agvsim.scenario
from agvsim.chains import builtin_chains
from agvsim.cli import main
from agvsim.report import compare, render_csv, render_json
from agvsim.runner import run_episodes
from agvsim.scenario import shipped_scenarios


# the loader in use, on PyYAML's pure-Python parser instead of libyaml's
PURE_PYTHON_LOADER = type("PurePythonLoader", (agvsim.scenario._UniqueKeys, yaml.SafeLoader), {})

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


def run_python_process(*args, stdout=subprocess.PIPE, **env):
    """`python args` in a fresh interpreter that finds this agvsim, with `env` added to the environment."""
    src = str(Path(agvsim.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60)


def run_cli_process(*argv, **env):
    """`python -m agvsim.cli argv` in a fresh interpreter, with `env` added to the environment."""
    return run_python_process("-m", "agvsim.cli", *argv, **env)


def test_import_fills_none_of_the_writer_tables():
    # every command pays for what `import agvsim` does: the JSON writer builds
    # its per-class and per-indent tables when an export first needs them
    result = run_python_process("-c", (
        "import agvsim, agvsim.serialize as s; "
        "print(len(s._LAYOUTS), len(s._INDENTS), sorted(t.__name__ for t in s._LEAVES))"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().split(" ", 2) == ["0", "0", "['NoneType', 'bool', 'float', 'int', 'str']\n"]


def _is_package_module(name: str) -> bool:
    return name.partition(".")[0] in ("agvsim", "yaml")


# what a fresh `import agvsim.cli` loads of the package and PyYAML
CLI_IMPORTS = ["agvsim", "agvsim.cli", "agvsim.domain", "agvsim.severity"]
SCORING_NEEDS_NONE_OF = {"yaml", "agvsim.scenario", "agvsim.runner", "agvsim.threats", "agvsim.pipeline"}


class _PutBack(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """Puts an unloaded module back, unchanged, when an import asks for it.

    PyYAML cannot load twice in one process: its C parser keeps building the
    node classes of its first load.
    """

    def __init__(self, modules: dict) -> None:
        self.modules = modules

    def find_spec(self, name, path=None, target=None):
        return importlib.util.spec_from_loader(name, self) if name in self.modules else None

    def create_module(self, spec):
        return self.modules.pop(spec.name)

    def exec_module(self, module) -> None:
        pass


def _modules_loaded_by(argv: list[str]) -> set[str]:
    """The package and PyYAML modules `cli.main(argv)` loads, from what a fresh `import agvsim.cli` loads.

    Runs in a forked child, so a test that edits a function of `cli` in this
    process sees the edit take effect. The child unloads every package module
    outside CLI_IMPORTS, and PyYAML; `main` loads them again as it needs them.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover  (the child)
        report = "error"
        try:
            yaml_modules = {}
            for name in [n for n in sys.modules if _is_package_module(n) and n not in CLI_IMPORTS]:
                module = sys.modules.pop(name)
                if name.startswith("agvsim."):
                    vars(agvsim).pop(name.partition(".")[2], None)
                else:
                    yaml_modules[name] = module
            sys.meta_path.insert(0, _PutBack(yaml_modules))
            sys.stdout, sys.stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
            code = main(argv)
            loaded = [n for n in sys.modules if _is_package_module(n) and n not in CLI_IMPORTS]
            report = f"{code} " + (" ".join(loaded) if code == 0 else sys.stderr.getvalue())
        except Exception as exc:
            report = f"error {exc!r}"
        finally:  # the child never returns into the test run
            os.write(write, report.encode())
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        code, _, loaded = pipe.read().decode().partition(" ")
    os.waitpid(pid, 0)
    assert code == "0", loaded
    return set(loaded.split())


class TestColdStart:
    """Each command loads only the modules it uses."""

    def test_importing_the_cli_loads_domain_and_severity_alone(self):
        result = run_python_process("-c", "import sys, agvsim.cli; print(*sys.modules)")
        assert result.returncode == 0, result.stderr
        assert sorted(n for n in result.stdout.decode().split() if _is_package_module(n)) == CLI_IMPORTS

    @pytest.mark.parametrize("argv, needed, unused", [
        (["score", "T7", "autonomous", "high"], set(), SCORING_NEEDS_NONE_OF),
        (["validate-tables"], set(), SCORING_NEEDS_NONE_OF),
        (["run", "case1-highway-urgent"], {"yaml", "agvsim.scenario", "agvsim.runner", "agvsim.report"},
         {"agvsim.chains"}),
        (["chain", "chain-1"], {"yaml", "agvsim.scenario", "agvsim.chains", "agvsim.runner"}, {"agvsim.report"}),
        (["list", "scenarios"], set(), {"yaml", "agvsim.scenario", "agvsim.threats"}),
    ], ids=["score", "validate-tables", "run", "chain", "list-scenarios"])
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_each_command_loads_only_the_modules_it_uses(self, argv, needed, unused):
        loaded = _modules_loaded_by(argv)
        assert needed <= loaded
        assert unused & loaded == set()


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

    @pytest.mark.parametrize("threat", ["XPerception", "xperception"])
    def test_a_threat_without_a_table_row_says_so_in_one_line(self, capsys, threat):
        code, out, err = run_cli(capsys, "score", threat, "autonomous", "high")
        assert (code, out) == (1, "")
        assert err == "config error: threat: XPerception has no severity-table row (agentic threats only)\n"

    def test_threat_id_is_matched_case_insensitively(self, capsys):
        code, out, _ = run_cli(capsys, "score", "t7", "autonomous", "high")
        assert (code, out) == (0, "16 Critical\n")

    def test_bad_rating_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "score", "T1", "manual", "low", "--set", "SI=Z")
        assert code == 1


class TestValidateTables:
    def test_lists_known_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "validate-tables")
        assert code == 0
        assert "table 3 T11: printed total 13 != recomputed 14" in out
        assert out.strip().endswith("13 inconsistent cells out of 90")

    def test_prints_every_inconsistent_cell(self, capsys):
        code, out, err = run_cli(capsys, "validate-tables")
        assert (code, err) == (0, "")
        assert out == (
            "table 2 T6: printed band High != recomputed Medium\n"
            "table 2 T8: printed band High != recomputed Medium\n"
            "table 2 T11: printed band High != recomputed Medium\n"
            "table 2 T13: printed band High != recomputed Medium\n"
            "table 3 T8: printed band High != recomputed Medium\n"
            "table 3 T11: printed total 13 != recomputed 14\n"
            "table 3 T13: printed band Critical != recomputed High\n"
            "table 4 T1: printed total 7 != recomputed 6\n"
            "table 4 T8: printed band High != recomputed Medium\n"
            "table 4 T11: printed band High != recomputed Medium\n"
            "table 4 T13: printed band High != recomputed Medium\n"
            "table 6 T8: printed band Critical != recomputed High\n"
            "table 6 T10: printed band Medium != recomputed Low\n"
            "13 inconsistent cells out of 90\n"
        )


class TestRun:
    def test_run_twice_is_byte_identical(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        name = "case1-highway-urgent"
        assert run_cli(capsys, "run", name, "--seed", "7", "--out", str(out1))[0] == 0
        assert run_cli(capsys, "run", name, "--seed", "7", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.trace.json").read_bytes() == (tmp_path / "b.csv.trace.json").read_bytes()

    def test_exports_are_utf8_whatever_the_locale(self, tmp_path):
        # a non-ASCII scenario id reaches the CSV; an ASCII locale must not change a byte
        scenario = tmp_path / "unicode.yaml"
        text = shipped_scenarios()["chain-base"].read_text(encoding="utf-8")
        scenario.write_text(re.sub(r"(?m)^id: .*$", 'id: "straße-ü"', text, count=1), encoding="utf-8")
        outputs = {}
        for locale in ("C", "C.UTF-8"):
            env = {"PYTHONUTF8": "0", "LC_ALL": locale}
            out = tmp_path / locale / "x.csv"
            out.parent.mkdir()
            to_file = run_cli_process("run", str(scenario), "--out", str(out), **env)
            to_stdout = run_cli_process("run", str(scenario), **env)
            assert (to_file.returncode, to_file.stderr) == (0, b""), locale
            assert (to_stdout.returncode, to_stdout.stderr) == (0, b""), locale
            outputs[locale] = (out.read_bytes(), Path(f"{out}.trace.json").read_bytes(), to_stdout.stdout)
        assert outputs["C"] == outputs["C.UTF-8"]
        assert outputs["C"][0] == outputs["C"][2]
        assert "straße-ü".encode() in outputs["C"][0]

    @pytest.mark.parametrize("argv", [
        ("run", "case1-highway-urgent", "--format", "json"),
        ("run", "threat-t03", "--format", "json"),
        ("chain", "chain-2"),
    ], ids=["case1-json", "t03-json", "chain-2"])
    def test_exports_do_not_depend_on_the_hash_seed(self, argv):
        outputs = []
        for hash_seed in ("0", "12345"):
            result = run_cli_process(*argv, PYTHONHASHSEED=hash_seed)
            assert (result.returncode, result.stderr) == (0, b""), hash_seed
            outputs.append(result.stdout)
        assert outputs[0] and outputs[0] == outputs[1]

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
        code, out, err = run_cli(capsys, "run", "case2-highway", "--out", "/nonexistent-dir/x.csv")
        assert (code, out) == (2, "")
        assert err == f"io error: [Errno 2] {os.strerror(errno.ENOENT)}: '/nonexistent-dir/x.csv'\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_out_on_a_full_disk_is_one_line_naming_the_file(self, capsys):
        # the open succeeds and the write fails, so the error carries no file of its own
        code, out, err = run_cli(capsys, "run", "case1-highway-urgent", "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err == f"io error: [Errno 28] {os.strerror(errno.ENOSPC)}: '/dev/full'\n"

    def test_csv_out_holds_the_rendered_csv_and_its_json_rides_along(self, capsys, tmp_path):
        config = agvsim.load_shipped("case1-highway-routine")
        report = compare(run_episodes(config, with_injections=False), run_episodes(config, with_injections=True))
        out = tmp_path / "r.csv"
        assert run_cli(capsys, "run", "case1-highway-routine", "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == render_csv(report).encode()
        assert (tmp_path / "r.csv.trace.json").read_bytes() == render_json(report).encode()

    def test_attacked_only_out_holds_the_trace_json(self, capsys, tmp_path):
        trace = run_episodes(agvsim.load_shipped("case1-highway-routine"), with_injections=True)
        out = tmp_path / "trace.json"
        assert run_cli(capsys, "run", "case1-highway-routine", "--attacked-only", "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == (trace.to_json() + "\n").encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]

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

    @pytest.mark.parametrize("loader", ["in-use", "SafeLoader"])
    @pytest.mark.parametrize("text, location, problem", [
        ("id: [unclosed\nmode: Autonomous\n", "2:5", ""),
        ("id: a\x01b\n", "1:6", "unacceptable character #x0001: "),
    ], ids=["unclosed-flow", "control-character"])
    def test_yaml_syntax_error_is_one_line(self, capsys, tmp_path, monkeypatch, loader, text, location, problem):
        if loader == "SafeLoader":
            monkeypatch.setattr(agvsim.scenario, "_YAML_LOADER", PURE_PYTHON_LOADER)
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}:{location}: parse error: {problem}")
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

    def test_world_with_no_reachable_speed_is_config_error(self, capsys, tmp_path):
        # 238 kph is more than the SC's 108 kph acceleration window above min(138, 130)
        text = shipped_scenarios()["chain-base"].read_text()
        path = tmp_path / "unreachable.yaml"
        path.write_text(
            text.replace("speed_limit_kph: 90.0", "speed_limit_kph: 138.0")
            .replace("vehicle_speed_kph: 72.0", "vehicle_speed_kph: 238.0")
        )
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}.world.vehicle_speed_kph: ")
        assert len(err.splitlines()) == 1

    def test_scenario_chains_key_is_config_error(self, capsys, tmp_path):
        # a chain runs only through `agvsim chain`
        path = tmp_path / "chained.yaml"
        path.write_text(shipped_scenarios()["chain-base"].read_text() + "chains: [chain-1]\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err == f"config error: {path}.chains: unknown keys: ['chains']\n"

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
        ("id: chain-base\n", "id: [1, 2]\n"),
    ], ids=[
        "T6-negative-speed", "T6-string-speed", "T14-bad-urgency", "T11-inf", "T11-urgency-5",
        "T3-hazard-confidence-5", "T12-external-abc", "T12-external-hazard-without-distance",
        "T10-bool", "XPerception-nan", "XControlFeedback-nan", "T1-inf", "request-inf", "request-below-floor",
        "world-hazard-inf", "id-list",
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

    @pytest.mark.parametrize("old, new", [
        ("id: chain-base\n", "id: " + "[" * 3000 + "]" * 3000 + "\n"),
        _with_injection("{threat: T1, surface: PAMemory, window: [0, 3], payload: {value_kph: "
                        + "[" * 3000 + "]" * 3000 + "}}"),
        ("id: chain-base\n", "id: &self [*self]\n"),
    ], ids=["id", "T1-value_kph", "self-alias"])
    def test_deep_nesting_is_config_error(self, capsys, tmp_path, old, new):
        text = shipped_scenarios()["chain-base"].read_text()
        assert old in text
        path = tmp_path / "deep.yaml"
        path.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}.")
        assert "nest more than" in err
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


class FullStdout(io.TextIOBase):
    """A stdout on a full disk: every write raises, of text and of bytes alike."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    @property
    def buffer(self):
        return self


FULL_STDOUT_ARGV = [
    ["run", "case1-highway-urgent", "--format", "json"],
    ["run", "case2-highway"],
    ["run", "case2-highway", "--baseline-only"],
    ["list", "scenarios"],
    ["score", "T1", "manual", "high"],
    ["validate-tables"],
    ["chain", "chain-1"],
]
# argparse prints help and exits inside `parse_args`, before any command runs
HELP_ARGV = [["--help"], ["run", "--help"]]


class TestStdoutFailure:
    """A failed write to stdout is an I/O error: exit 2 and one line, no traceback (ROADMAP aim 3)."""

    @pytest.mark.parametrize("argv", FULL_STDOUT_ARGV + HELP_ARGV, ids=" ".join)
    def test_exits_2_with_one_line(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "io error: stdout: No space left on device\n"

    @pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
    def test_help_returns_0_after_writing_it(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: agvsim", *argv[:-1]]))

    def test_a_failed_read_is_not_blamed_on_stdout(self, capsys, monkeypatch):
        def unreadable_tables():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "severity_tables.csv")

        monkeypatch.setattr(agvsim.cli, "validate_tables", unreadable_tables)
        code = main(["validate-tables"])
        assert code == 2
        assert capsys.readouterr().err == f"io error: [Errno 2] {os.strerror(errno.ENOENT)}: 'severity_tables.csv'\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", FULL_STDOUT_ARGV[:1] + FULL_STDOUT_ARGV[3:5] + HELP_ARGV, ids=" ".join)
    def test_dev_full_exits_2_with_one_line(self, argv, unbuffered):
        # buffered, stdout still holds the output it failed to write, and the
        # interpreter's flush of it at exit must add no second line
        with open("/dev/full", "wb") as full:
            result = run_python_process("-m", "agvsim.cli", *argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert result.returncode == 2
        assert result.stderr.decode().splitlines() == ["io error: stdout: No space left on device"]


NON_ASCII_CHAIN = (
    "id: kette-\u00fcberholen-\u8ffd\u3044\u8d8a\u3057\n"
    "episode_length: 2\n"
    "stages:\n"
    "  - kind: inject\n"
    "    label: Spoof\u2192Kontext\n"
    "    trigger: {at_step: 0}\n"
    "    injection: {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}}\n"
)


class TestStdoutEncoding:
    """Every command writes UTF-8 to stdout, whatever stdout's own encoding."""

    def test_a_non_ascii_chain_under_a_latin1_stdout_is_utf8(self, tmp_path):
        path = tmp_path / "chain.yaml"
        path.write_text(NON_ASCII_CHAIN, encoding="utf-8")
        result = run_cli_process("chain", str(path), PYTHONIOENCODING="latin-1")
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (
            "chain:    kette-\u00fcberholen-\u8ffd\u3044\u8d8a\u3057\n"
            "outcome:  MisalignedApproved\n"
            "stealth:  true\n"
            "stage 0 [inject/Spoof\u2192Kontext]: fired step 0; fields: approved, intent, memory_digest, submissions\n"
        ).encode("utf-8")

    @pytest.mark.parametrize("argv, expected", [
        (["chain", "CHAIN", "--scenario", "SCENARIO"], "stage 0 [inject/Spoof\u2192Kontext]"),
        (["score", "T7", "autonomous", "high"], "16 Critical\n"),
        (["list", "scenarios"], "\u00fcber-stra\u00dfe"),
    ], ids=["chain", "score", "list-scenarios"])
    def test_in_process_output_bypasses_a_strict_latin1_stdout(self, capsys, monkeypatch, tmp_path, argv, expected):
        # the shipped chain-base, moved under a directory whose name latin-1
        # encodes, but not as UTF-8 does: `list scenarios` prints its path and
        # `chain` reads the scenario from it
        scenario = tmp_path / "\u00fcber-stra\u00dfe" / "chain-base.yaml"
        scenario.parent.mkdir()
        scenario.write_bytes(shipped_scenarios()["chain-base"].read_bytes())
        monkeypatch.setattr(agvsim.cli, "shipped_files", lambda folder: {"chain-base": scenario})
        path = tmp_path / "chain.yaml"
        path.write_text(NON_ASCII_CHAIN, encoding="utf-8")
        argv = [{"CHAIN": str(path), "SCENARIO": str(scenario)}.get(arg, arg) for arg in argv]
        code, out, err = run_cli(capsys, *argv)  # capsys's stdout is UTF-8
        assert (code, err) == (0, "")
        assert expected in out
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="latin-1", errors="strict"))
        assert main(argv) == 0
        assert raw.getvalue() == out.encode("utf-8")


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

    @pytest.mark.parametrize("stage", [
        "  - kind: inject\n"
        "    trigger: {at_step: 2}\n"
        "    injection: {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}}\n",
        "  - kind: observe\n"
        "    trigger: {at_step: 5}\n"
        "    probe: route-pref-changed\n",
    ], ids=["inject", "observe"])
    def test_trigger_past_the_last_step_is_config_error(self, capsys, tmp_path, stage):
        path = tmp_path / "chain.yaml"
        path.write_text("id: file-chain\nepisode_length: 2\nstages:\n" + stage)
        code, out, err = run_cli(capsys, "chain", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}: chain 'file-chain' stage 0: at_step ")
        assert "is past the last step, 1" in err
        assert len(err.splitlines()) == 1

    def test_unhashable_probe_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "chain.yaml"
        path.write_text(
            "id: file-chain\n"
            "episode_length: 2\n"
            "stages:\n"
            "  - kind: inject\n"
            "    trigger: {at_step: 0}\n"
            "    injection: {threat: T1, surface: PAMemory, payload: {value_kph: 45.0}}\n"
            "  - kind: observe\n"
            "    trigger: {after_stage: 0}\n"
            "    probe: [1]\n"
        )
        code, out, err = run_cli(capsys, "chain", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {path}.stages[1].probe: must be a string")
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


    def test_scenario_without_requests_names_the_chains_length(self, capsys, tmp_path):
        text = shipped_scenarios()["chain-base"].read_text().replace("id: chain-base\n", "id: no-requests\n")
        path = tmp_path / "no-requests.yaml"
        path.write_text(text.split("requests:")[0] + "requests: []\n")
        code, out, err = run_cli(capsys, "chain", "chain-1", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err == "config error: no-requests: no requests to drive 4 steps per episode\n"


@pytest.mark.parametrize("command, document, line, key", [
    ("run", shipped_scenarios()["chain-base"].read_text().replace("seed: 401\n", "seed: 401\nseed: 402\n"),
     6, "seed"),
    ("chain", "id: file-chain\nepisode_length: 2\nepisode_length: 3\nstages: []\n", 3, "episode_length"),
], ids=["scenario", "chain"])
def test_duplicate_key_is_one_config_error_line(capsys, tmp_path, command, document, line, key):
    assert document.count(f"{key}: ") == 2
    path = tmp_path / "duplicate.yaml"
    path.write_text(document)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == f"config error: {path}:{line}:1: parse error: duplicate key '{key}'\n"


class TestList:
    def test_list_threats_covers_all_ids(self, capsys):
        code, out, _ = run_cli(capsys, "list", "threats")
        assert code == 0
        for tid in ("T1", "T15", "XPerception", "XControlFeedback"):
            assert tid in out

    def test_list_chains(self, capsys):
        code, out, err = run_cli(capsys, "list", "chains")
        assert (code, err) == (0, "")
        assert out == (
            "chain-1-memory-poisoning-drift: T1 -> observe:intent-caps-changed -> "
            "observe:approved-target-below-baseline\n"
            "chain-2-identity-spoof-comms-poison: T9 -> T12 -> observe:route-pref-changed\n"
            "chain-3-hallucination-compounding: T5 -> observe:intent-desired-changed -> "
            "observe:approved-target-below-baseline\n"
            "chain-4-perception-spoof: XPerception -> observe:context-limit-changed -> "
            "observe:approved-target-below-baseline\n"
            "chain-5-phantom-object: XPerception -> observe:hazard-count-changed -> "
            "observe:approved-target-below-baseline\n"
            "chain-6-spoofed-v2x-closure: XV2X -> observe:route-pref-changed\n"
        )

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

    @pytest.mark.parametrize("argv, prog, message", [
        (["run", "--bogus", "x"], "agvsim run", "unrecognized arguments: --bogus"),
        (["list"], "agvsim list", "the following arguments are required: what"),
        (["frobnicate"], "agvsim", "argument command: invalid choice: 'frobnicate'"),
        (["--bogus", "run", "x"], "agvsim", "unrecognized arguments: --bogus"),
    ])
    def test_usage_error_is_one_line_with_the_failing_command_usage(self, capsys, argv, prog, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{prog}: error: {message}")
        assert err.rstrip().endswith(")") and f"(usage: {prog} [-h] " in err
        assert "  " not in err


CHAIN_BASE_DOC = yaml.safe_load(shipped_scenarios()["chain-base"].read_text())
# the first injection of each shipped threat fixture, as its document writes it
FIXTURE_INJECTIONS = [
    yaml.safe_load(path.read_text())["injections"][0]
    for name, path in shipped_scenarios().items() if name.startswith("threat-")
]
T1_INJECTION = {"threat": "T1", "surface": "PAMemory", "window": [0, 3], "payload": {"value_kph": 45.0}}
JUNK_KEYS = st.sampled_from(["junk", "Seed", "chains", "window_", "\u00fcber"])  # no schema knows these
containers = st.one_of(
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(JUNK_KEYS, st.integers(0, 3), max_size=2)
)
scalars = st.one_of(st.text("ab1 -", max_size=4), st.integers(-3, 3))
not_a_list = st.one_of(scalars, st.dictionaries(JUNK_KEYS, scalars, max_size=2))
WRONG_TYPES = {
    "id": containers, "mode": containers, "agency": containers, "seed": containers, "episodes": containers,
    "world": st.one_of(scalars, st.lists(scalars, max_size=2)), "requests": not_a_list, "injections": not_a_list,
}
bad_windows = st.one_of(
    st.tuples(st.integers(0, 5), st.integers(1, 5)).map(lambda w: [w[0] + w[1], w[0]]),  # ends before it starts
    st.integers(-5, -1).map(lambda start: [start, 2]),
    st.lists(st.integers(0, 3), max_size=3).filter(lambda w: len(w) != 2),
    st.sampled_from(["0-3", 3, {"start": 0}, [0, 1.5], [True, 2], [0, None]]),
)


@st.composite
def malformed_scenarios(draw) -> str:
    """chain-base's document with one fault: a wrong type, an unknown key, a bad window or payload, bad YAML."""
    doc = copy.deepcopy(CHAIN_BASE_DOC)
    fault = draw(st.sampled_from(["type", "nested-type", "unknown-key", "window", "payload", "syntax"]))
    if fault == "type":
        key = draw(st.sampled_from(sorted(WRONG_TYPES)))
        doc[key] = draw(WRONG_TYPES[key])
    elif fault == "nested-type":
        where = draw(st.sampled_from([doc["world"], doc["requests"][0]]))
        key = draw(st.sampled_from(sorted(where)))
        where[key] = draw(containers)
    elif fault == "unknown-key":
        injection = copy.deepcopy(T1_INJECTION)
        doc["injections"] = [injection]
        where = draw(st.sampled_from([doc, doc["world"], doc["requests"][0], injection, injection["payload"]]))
        where[draw(JUNK_KEYS)] = draw(scalars)
    elif fault == "window":
        doc["injections"] = [{**T1_INJECTION, "window": draw(bad_windows)}]
    elif fault == "payload":
        injection = copy.deepcopy(draw(st.sampled_from(FIXTURE_INJECTIONS)))
        payload = injection["payload"]
        key = draw(st.sampled_from(sorted(payload) + [None]))
        if key is None:
            payload[draw(JUNK_KEYS)] = draw(scalars)
        else:  # no payload key takes a mapping of unknown keys
            payload[key] = {"junk": [1]}
        doc["injections"] = [injection]
    text = yaml.safe_dump(doc, allow_unicode=True)
    if fault == "syntax":
        text += draw(st.sampled_from(["id: [unclosed\n", "seed: 2\n", "- stray\n", "world: {a\n", "\tmode: x\n"]))
    return text


# commands that parse, each with a usage fault added below
COMMANDS = [["run", "chain-base"], ["score", "T1", "manual", "low"], ["validate-tables"], ["chain", "chain-1"]]
BAD_ARGV = [
    [], ["--bogus"], ["-x"], ["run"], ["run", "chain-base", "--seed", "abc"], ["run", "chain-base", "--seed"],
    ["run", "chain-base", "--format", "xml"], ["run", "chain-base", "--baseline-only", "--attacked-only"],
    ["score", "T1", "manual"], ["score", "T1", "sideways", "low"], ["score", "T1", "manual", "9"],
    ["score", "T1", "manual", "low", "--set", "SI"], ["score", "T1", "manual", "low", "--set", "XX=L"],
    ["score", "T99", "manual", "low"], ["list", "nothing"], ["chain", "no-such-chain"], ["chain", "chain"],
    ["chain", "chain-1", "--seed", "1.5"],
]
bad_flags = st.one_of(
    st.sampled_from(BAD_ARGV),
    st.tuples(st.sampled_from(COMMANDS), st.text("abxyz-", min_size=1, max_size=5)).map(
        lambda c: [*c[0], "--no-such-" + c[1]]  # not the prefix of any option
    ),
    st.tuples(st.sampled_from(COMMANDS), st.text("abxyz", min_size=1, max_size=5)).map(lambda c: [*c[0], c[1]]),
)


class TestFuzz:
    """Malformed scenario files, missing paths and bad flags, called in-process (ROADMAP aim 3)."""

    def test_every_bad_call_exits_1_or_2_with_one_line(self, tmp_path):
        path, missing = tmp_path / "scenario.yaml", str(tmp_path / "missing")
        # (scenario text to write at `path`, or None; the argv, which then ends with `path`)
        files = st.tuples(malformed_scenarios(), st.sampled_from([["run"], ["chain", "chain-1", "--scenario"]]))
        missing_paths = st.sampled_from([
            ["run", missing + ".yaml"], ["chain", "chain-1", "--scenario", missing + ".yaml"],
            ["chain", missing + ".yaml"], ["run", "chain-base", "--out", missing + "/x.csv"],
        ])
        calls = files | (missing_paths | bad_flags).map(lambda argv: (None, argv))

        @settings(max_examples=250, derandomize=True, deadline=None)
        @given(calls)
        def check(call):
            text, argv = call
            if text is not None:
                path.write_text(text, encoding="utf-8")
                argv = [*argv, str(path)]
            # an export goes to `sys.stdout.buffer`
            out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (1, 2), (argv, code)
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())

        check()
