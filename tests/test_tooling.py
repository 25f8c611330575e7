"""Guards for the tooling that reaches into the package from outside it."""

import ast
import copy
import dataclasses
import enum
import importlib
import importlib.util
import inspect
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from agvsim import domain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agvsim"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    # `perfbench/run.py --trace 1` wraps these lookup sites; a rename breaks it
    tracing = _load("tracing")
    missing = []
    for owner_path, attr, _ in tracing.TARGETS:
        owner = tracing._resolve(owner_path)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, missing


def test_every_runner_target_is_called():
    # a target the runner imports but no longer calls would zero its
    # `--trace 1` metrics without any error: run one Layer attack, one chain
    # and one T11 attack (the runner digests the tuning only once T11 has
    # replaced it) under the wrappers and require a span from each runner target
    from agvsim import chains, runner
    from agvsim.scenario import load_shipped

    tracing = _load("tracing")

    class PerFunction(tracing.Tracer):
        # targets that share a span name ("threats.apply") stay apart
        def wrap(self, name, fn):
            return super().wrap(fn.__name__, fn)

    tracer = PerFunction()
    with tracing.instrument(tracer):
        runner.run_episodes(load_shipped("threat-xperception"), with_injections=True)
        chains.run_chain(chains.builtin_chain("chain-1"), load_shipped("chain-base"))
        runner.run_episodes(load_shipped("threat-t11"), with_injections=True)
    called = {span[0] for span in tracer.take()}
    targets = {attr for owner_path, attr, _ in tracing.TARGETS if owner_path == "agvsim.runner"}
    assert len(targets) == 11
    assert targets - called == set()


def test_effect_record_digests_are_traced_where_they_are_taken():
    # an effect record digests its surface when the JSON export reads it,
    # through `agvsim.threats.digest_of`: trace that site alone and require
    # one `serialize.digest` span per digest the T9 records hold
    from agvsim.report import compare, render_json
    from agvsim.runner import run_episodes
    from agvsim.scenario import load_shipped

    tracing = _load("tracing")
    site = ("agvsim.threats", "digest_of", "serialize.digest")
    assert site in tracing.TARGETS
    tracing.TARGETS = (site,)
    config = load_shipped("threat-t09")
    report = compare(run_episodes(config, with_injections=False), run_episodes(config, with_injections=True))
    applied = sum(1 for record in report.attacked.steps for effect in record.effects if not effect.warning)
    with tracing.instrument(tracing.Tracer()) as tracer:
        render_json(report)
    names = [span[0] for span in tracer.take()]
    assert applied > 0
    assert names == ["serialize.digest"] * (2 * applied)


@pytest.mark.parametrize("name", ["corpus", "campaign", "chain-sweep"])
def test_the_benchmark_workloads_run_and_match_their_golden_digests(tmp_path, name):
    # the benchmark builds its inputs and reads its results through the
    # package's API; run the first main and the first probe operation of each
    # in-process workload through the benchmark's own checker
    workloads, run = _load("workloads"), _load("run")
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert golden["seed"] == 0
    ctx = workloads.Context(seed=0, tmp=tmp_path, src=PERFBENCH.parent / "src", spans_dir=None)
    workload = workloads.BUILDERS[name](ctx)
    checker = run.Checker(golden["digests"][name])
    run.run_ops([workload.main[0], workload.probe[0]], checker, [])
    assert (checker.attempted, checker.failed) == (2, 0), checker.errors


@pytest.mark.parametrize("name, operations", [("campaign", 38), ("chain-sweep", 216)])
def test_every_operation_of_the_runner_workloads_matches_its_golden_digest(tmp_path, name, operations):
    # these two workloads are mostly the runner's step loop: check each of
    # their main and probe operations, not only the first, at the golden seed
    workloads, run = _load("workloads"), _load("run")
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    ctx = workloads.Context(seed=golden["seed"], tmp=tmp_path, src=PERFBENCH.parent / "src", spans_dir=None)
    workload = workloads.BUILDERS[name](ctx)
    checker = run.Checker(golden["digests"][name])
    run.run_ops(workload.main + workload.probe, checker, [])
    assert (checker.attempted, checker.failed) == (operations, 0), checker.errors
    assert len(checker.first) == operations  # each operation's own golden entry


# the spans of the seven names perfbench's tracer pins on `agvsim.cli`
CLI_SPANS = (
    "scenario.load", "runner.run_episodes", "report.compare", "report.render_csv", "report.render_json",
    "chains.run_chain", "severity.what_if",
)


@pytest.mark.parametrize("argv, spans", [
    (["run", "case1-highway-urgent", "--out", "OUT"], {
        "scenario.load": 1, "runner.run_episodes": 2,
        "report.compare": 1, "report.render_csv": 1, "report.render_json": 1,
    }),
    (["run", "FILE"], {"scenario.load": 1, "runner.run_episodes": 2, "report.compare": 1, "report.render_csv": 1}),
    (["chain", "chain-1"], {"scenario.load": 1, "chains.run_chain": 1, "runner.run_episodes": 2}),
    (["score", "T7", "autonomous", "high"], {"severity.what_if": 1}),
], ids=["run-shipped", "run-file", "chain", "score"])
def test_a_traced_cli_child_records_one_span_per_call(tmp_path, argv, spans):
    # the traced cli-cold children: each call the command makes is wrapped
    # once, at the lookup site it is made through, however `cli` imports it
    argv = [
        {"OUT": str(tmp_path / "run.csv"), "FILE": str(PACKAGE / "scenarios" / "case1-highway-urgent.yaml")}.get(a, a)
        for a in argv
    ]
    env = {k: v for k, v in os.environ.items() if k != "AGV_SIM_SEED"}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    out = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "cli_child.py"), str(out), *argv], env=env, capture_output=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    counts = Counter(span[0] for span in json.loads(out.read_text()))
    assert {name: counts[name] for name in CLI_SPANS if counts[name]} == spans


def _import_graph():
    """The package's own imports, read from the source of `src/agvsim/*.py`.

    Gives (run-time edges, edges under `if TYPE_CHECKING`, relative imports
    inside a function, absolute imports of the package), each edge set keyed
    by module stem: `from .x import y` names x, `from . import y` names y.
    """
    runtime: dict[str, set[str]] = {}
    type_only: dict[str, set[str]] = {}
    in_functions, absolute = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        runtime[module], type_only[module] = set(), set()

        def visit(node, edges, in_function):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.level:
                if in_function:
                    in_functions.append(where)
                edges.update([node.module.partition(".")[0]] if node.module else [a.name for a in node.names])
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                absolute.extend(where for name in names if name.partition(".")[0] == "agvsim")
            elif isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                for stmt in node.body:
                    visit(stmt, type_only[module], in_function)
                for stmt in node.orelse:
                    visit(stmt, edges, in_function)
            else:
                nested = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                for child in ast.iter_child_nodes(node):
                    visit(child, edges, nested)

        visit(ast.parse(path.read_text(encoding="utf-8")), runtime[module], False)
    return runtime, type_only, in_functions, absolute


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of `graph` as the modules along it, first repeated at the end, or None."""
    done: set[str] = set()

    def walk(path: list[str]) -> list[str] | None:
        for dep in sorted(graph.get(path[-1], ())):
            if dep in path:
                return path[path.index(dep):] + [dep]
            if dep not in done:
                found = walk(path + [dep])
                if found:
                    return found
        done.add(path[-1])
        return None

    for module in sorted(graph):
        found = None if module in done else walk([module])
        if found:
            return found
    return None


def test_the_package_imports_form_no_cycle_and_none_sits_in_a_function():
    runtime, type_only, in_functions, absolute = _import_graph()
    # only the CLI imports inside functions, each command what it runs; those
    # imports are run-time edges, so the cycle check below covers them
    assert in_functions and all(where.startswith("cli.py:") for where in in_functions), in_functions
    assert absolute == []
    assert _cycle(runtime) is None
    # the runner stays below chains and scenario, and a scenario or a report needs no chain
    assert not {"chains", "scenario"} & runtime["runner"]
    assert "chains" not in runtime["scenario"]
    assert "chains" not in runtime["report"] | type_only["report"]
    # the walk sees the edges that matter: chains calls the runner and reads
    # chain specs with the scenario loader's schema, and the runner's
    # annotations name both, which would close a cycle at run time
    assert "runner" in runtime["chains"] and "scenario" in runtime["chains"]
    assert {"chains", "scenario"} <= type_only["runner"]
    with_annotations = {m: runtime[m] | type_only[m] for m in runtime}
    assert _cycle(with_annotations) is not None


def test_serialize_alone_hashes_and_only_its_digest_functions_call_sha256():
    # one digest function: no other module imports `hashlib` or `json`, and
    # inside `serialize.py` only `digest_of` and `ListDigest` name sha256
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "serialize.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] in ("hashlib", "json") for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []
    tree = ast.parse((PACKAGE / "serialize.py").read_text(encoding="utf-8"))
    hashers = {
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "sha256"
        or isinstance(node, ast.Name) and node.id == "sha256"
        or isinstance(node, ast.alias) and node.name == "sha256"
    }
    assert hashers == {"digest_of", "ListDigest"}


def test_program_output_leaves_only_through_the_cli_writer():
    # every `print` goes to stderr, and only `cli._write` writes files or
    # stdout's bytes: one writer, UTF-8 whatever the locale
    bare_prints, writers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, function):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                if not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords):
                    bare_prints.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and (
                node.attr in ("write_bytes", "write_text") or ast.unparse(node) == "sys.stdout.buffer"
            ):
                writers.add(f"{path.stem}.{function}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name if function is None else f"{function}.{node.name}"
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert bare_prints == []
    assert writers == {"cli._write"}


def test_every_data_file_of_the_package_is_declared_package_data():
    # a wheel holds only the non-Python files a package-data glob names, and
    # tests that run from the source tree would not notice one left out
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["agvsim"]
    declared = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data = {
        path for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }
    assert PACKAGE / "data" / "severity_tables.csv" in data
    assert sorted(p.relative_to(PACKAGE).as_posix() for p in data - declared) == []


def _dataclasses() -> list[type]:
    """Every dataclass the package defines, each from the module that defines it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"agvsim.{path.stem}")
        found.extend(
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
        )
    return found


# the records: the dataclasses that `record` made frozen
RECORDS = [cls for cls in _dataclasses() if vars(cls).get("__setattr__") is domain._frozen_setattr]


def test_only_record_applies_dataclass_to_a_frozen_value_class():
    # every frozen value class goes through `domain.record`, so each gets its
    # slots and its `__init__` that stores through them, and none keeps the
    # slower one: the one `dataclass(...)` call is record's, and the package's
    # other dataclasses, the two mutable states, take the bare decorator
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, function):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("dataclass", "dataclasses.dataclass"):
                calls.append(f"{path.stem}.{function}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert calls == ["domain.record"]
    assert len(RECORDS) == 31
    others = sorted(cls.__qualname__ for cls in _dataclasses() if cls not in RECORDS)
    assert others == ["PipelineState", "SimulatedUserState"]
    assert all(vars(cls)["__init__"].__qualname__ == f"{cls.__qualname__}.__init__" for cls in RECORDS)


def test_no_record_method_names_its_first_class():
    # `record` builds a record's class anew with its slots: a method's
    # `__class__` cell, which zero-argument `super()` reads, names the first one
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(ast.unparse(d) == "record" for d in node.decorator_list):
                found.extend(
                    f"{path.stem}.{node.name}:{inner.lineno}" for inner in ast.walk(node)
                    if isinstance(inner, ast.Name) and inner.id == "__class__"
                    or isinstance(inner, ast.Call) and ast.unparse(inner.func) == "super" and not inner.args
                )
    assert found == []


def test_building_a_record_runs_one_exec_and_dataclasses_none(monkeypatch):
    # `dataclass` fills only the field table and writes no method, and
    # `record` compiles `__init__`, `__eq__` and `__hash__` together
    from agvsim.threats import LazyDigest, _DigestField

    monkeypatch.setattr(domain, "FIELD_RANGES", dict(domain.FIELD_RANGES))  # the probe's range stays here
    execs = Counter()
    for module in (dataclasses, domain):

        def counted(*args, _name=module.__name__):
            execs[_name] += 1
            return exec(*args)

        monkeypatch.setattr(module, "exec", counted, raising=False)

    @domain.record
    class Probe:
        """A record with a digest, a ranged and a derived field, and a check of its own."""

        name: str
        digest: str = _DigestField()  # type: ignore[assignment]
        level: float = domain.ranged(0.0, 1.0, default=0.5)
        cached: str = dataclasses.field(default="", init=False, compare=False, repr=False)

        def __post_init__(self) -> None:
            if not self.name:
                raise ValueError("a probe needs a name")

    assert execs == {"agvsim.domain": 1}
    probe = Probe("probe", LazyDigest("probe"))
    assert (probe.level, probe.cached, probe == Probe("probe", probe.digest)) == (0.5, "", True)
    with pytest.raises(ValueError, match="needs a name"):
        Probe("", "")
    with pytest.raises(ValueError, match=r"Probe.level must be in \[0, 1\], got 2"):
        Probe("probe", "", 2.0)


def test_no_module_reaches_into_the_private_state_of_dataclasses():
    # records are dataclasses through the public interface alone: no private
    # `dataclasses` name, and neither of the class attributes it keeps
    private = ("__dataclass_params__", "__dataclass_fields__")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.extend(f"{path.stem}:{node.lineno}" for alias in node.names if alias.name.startswith("_"))
            elif (
                isinstance(node, ast.Attribute)
                and (node.attr in private or ast.unparse(node.value) == "dataclasses" and node.attr.startswith("_"))
                or isinstance(node, ast.Constant) and node.value in private
            ):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_no_module_reads_a_closure_cell():
    # `record` installs its own frozen `__setattr__` and `__delattr__`
    # rather than editing the cells of the ones `dataclass` wrote
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("__closure__", "cell_contents", "co_freevars")
        or isinstance(node, ast.Constant) and node.value in ("__closure__", "cell_contents", "co_freevars")
    ]
    assert found == []


def _functions(path: Path) -> dict[str, ast.AST]:
    """The functions defined in the module at `path`, methods and nested functions too, by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _calls(node: ast.AST, name: str) -> int:
    """How many calls under `node` call `name`, as the source writes it."""
    return sum(1 for c in ast.walk(node) if isinstance(c, ast.Call) and ast.unparse(c.func) == name)


def test_only_checked_raises_a_failed_value_check_as_a_load_error():
    # `domain.checked` is the one `except ValueError` that re-raises the
    # value's own message as `ConfigError(<where>, str(exc))`
    handlers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, function in _functions(path).items():
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "ValueError" in ast.unparse(node.type) and node.name is not None
                    and any(
                        isinstance(raised, ast.Call) and ast.unparse(raised.func) == "ConfigError"
                        and len(raised.args) == 2 and ast.unparse(raised.args[1]) == f"str({node.name})"
                        for statement in node.body if isinstance(statement, ast.Raise)
                        for raised in [statement.exc]
                    )
                ):
                    handlers.append(f"{path.stem}.{name}")
    assert handlers == ["domain.checked"]


def test_the_outcome_names_are_written_only_in_trace():
    # `OutcomeClass` is the one list of a pair's outcomes; a loader reads it
    names = {"BlockedBySC", "MisalignedApproved", "NoEffect"}
    found = Counter(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in names
    )
    assert found == {"trace.py": 3}


def test_each_rule_is_stated_once_where_its_users_call_it():
    def constants(node: ast.AST) -> list:
        return [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and type(c.value) in (int, str)]

    scenario, runner, cavstack = (_functions(PACKAGE / f"{m}.py") for m in ("scenario", "runner", "cavstack"))
    # the agency range is `agency_bucket`'s, and the severity table's size is the table's
    assert not {0, 5} & set(constants(scenario["parse_scenario"]))
    assert _calls(scenario["parse_scenario"], "checked") == 1
    assert 90 not in constants(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))
    # one admission decision per envelope
    assert _calls(runner["run_episodes"], "admitted") == 1
    # one truth projection for both context layers, and one transform loop for every layer summary
    for name, helper in (
        ("perceive", "_summary"), ("v2x_broadcast", "_summary"),
        ("_summary", "_transformed"), ("control_feedback", "_transformed"),
    ):
        assert _calls(cavstack[name], helper) == 1
        assert not any(isinstance(node, ast.For) for node in ast.walk(cavstack[name]))
    # each rogue PA and DSA policy is named once, in its rewrite table
    threats = Counter(constants(ast.parse((PACKAGE / "threats.py").read_text(encoding="utf-8"))))
    assert (threats["rogue-urgent"], threats["rogue-crawl"], threats["rogue-speedster"]) == (1, 1, 1)


def test_the_urgency_tags_are_written_only_in_domain():
    # `domain.ROUTINE` and `domain.URGENT` are the tags; the PA, the threats and the loaders read them
    found = Counter(
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in ("Routine", "Urgent")
    )
    assert found == {"domain.py": 2}


def test_the_sc_speed_window_is_computed_only_by_speed_window():
    # the clamp substitute and the loader's reachability rule read the window; neither keeps arithmetic of its own
    pipeline = _functions(PACKAGE / "pipeline.py")
    scenario = ast.parse((PACKAGE / "scenario.py").read_text(encoding="utf-8"))
    assert _calls(scenario, "speed_window") == 1
    assert not any(getattr(node, "id", None) == "max_delta_kph" for node in ast.walk(scenario))
    assert _calls(pipeline["_clamped_substitute"], "speed_window") == 1
    # the window's edges are the only bounds the substitute compares: its target is > 0 once `hi` is
    guards = [ast.unparse(n) for n in ast.walk(pipeline["_clamped_substitute"]) if isinstance(n, ast.Compare)]
    assert guards == ["hi <= 0", "lo > hi"]
    # the acceleration window alone is the max_accel revision's
    assert {name for name, f in pipeline.items() if _calls(f, "max_delta_kph")} == {"speed_window", "tighten_proposal"}


def test_only_sc_interventions_compares_a_verdicts_decision():
    # "the SC intervened" is one predicate; the outcome and the report's rejection counts read it
    from agvsim.pipeline import Decision

    decisions = {d.value for d in Decision}

    def compares_a_decision(node: ast.AST) -> bool:
        return isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Attribute) and (n.attr == "decision" or ast.unparse(n.value) == "Decision")
            or isinstance(n, ast.Constant) and n.value in decisions
            for n in ast.walk(node)
        )

    found = {
        f"{stem}.{name}"
        for stem in ("trace", "report")
        for name, function in _functions(PACKAGE / f"{stem}.py").items()
        if any(compares_a_decision(node) for node in ast.walk(function))
    }
    assert found == {"trace.sc_interventions"}
    for stem in ("trace", "report"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        assert sum(map(compares_a_decision, ast.walk(tree))) == (stem == "trace")
    trace, report = (_functions(PACKAGE / f"{m}.py") for m in ("trace", "report"))
    assert _calls(trace["classify_outcome"], "_outcome") == 1
    assert _calls(trace["_outcome"], "sc_interventions") == 2
    assert ast.unparse(report["compare"]).count("map(sc_interventions, ") == 2


# what a step or a paired analysis calls, by module; `Class.method` names a method
PER_STEP = {
    "pipeline": (
        "pa_interpret", "dsa_propose", "sc_violations", "sc_validate", "validate_with_revision",
        "SafetyVerdict.__post_init__",
    ),
    "runner": ("run_episodes",),
    "threats": ("apply",),
    "trace": ("step_deltas", "sc_interventions", "EpisodeTrace.verdict_sequence", "classify_outcome", "_outcome"),
    "report": ("compare", "_verdict_cell"),
}


def _per_step_costs(stem: str, qualname: str) -> list[str]:
    """The enum member reads through the class, `.value` reads and generator
    expressions in one function, its nested functions too, but not in what a
    `raise` builds: an error leaves the step."""
    module = importlib.import_module(f"agvsim.{stem}")
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    *owner, name = qualname.split(".")
    scope = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == owner[0]) if owner else tree
    function = next(n for n in scope.body if isinstance(n, ast.FunctionDef) and n.name == name)
    found, todo = [], [function]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Raise):
            continue
        if isinstance(node, ast.GeneratorExp) or isinstance(node, ast.Attribute) and (
            node.attr == "value"
            or isinstance(node.value, ast.Name) and isinstance(vars(module).get(node.value.id), enum.EnumMeta)
        ):
            found.append(f"{stem}.{qualname}:{node.lineno}: {ast.unparse(node)}")
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_the_per_step_path_reads_no_enum_member_or_value_and_builds_no_generator():
    # an enum member read through its class costs about 0.1 us, a `.value`
    # read about 0.15 us (a property), and a generator over one to three items
    # more than the list of them: these functions read module constants and
    # member -> text tables, and build lists or loop
    found = [cost for stem, names in PER_STEP.items() for name in names for cost in _per_step_costs(stem, name)]
    assert found == []


def test_each_member_text_table_is_its_enums_values():
    from agvsim.pipeline import DECISION_TEXT, Decision
    from agvsim.trace import OUTCOME_TEXT, OutcomeClass

    for table, members in ((DECISION_TEXT, Decision), (OUTCOME_TEXT, OutcomeClass)):
        assert table == {m: m.value for m in members}
        assert all(type(text) is str for text in table.values())


def test_the_layer_clamp_is_written_once_for_both_summaries():
    # one numeric transform edits a context summary and the control feedback alike, in the record's own range
    cavstack = ast.parse((PACKAGE / "cavstack.py").read_text(encoding="utf-8"))
    clamps = [ast.unparse(c) for c in ast.walk(cavstack) if isinstance(c, ast.Call) and ast.unparse(c.func) == "_clamp"]
    assert clamps == ["_clamp(updated, *FIELD_RANGES[type(summary)][field])"]
    assert "apply_feedback_transform" not in _functions(PACKAGE / "cavstack.py")


def test_each_field_range_is_written_once_in_the_domain_table():
    # the speed bounds are read through `domain.FIELD_RANGES` alone, and the layer clamps take its ranges
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "domain":
            named.extend(
                f"{path.stem}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
                & {"MIN_SPEED_KPH", "MAX_SPEED_LIMIT_KPH"}
            )
    assert named == []
    cavstack = ast.parse((PACKAGE / "cavstack.py").read_text(encoding="utf-8"))
    literal_bounds = [
        ast.unparse(call) for call in ast.walk(cavstack)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "_clamp"
        for node in ast.walk(call) if isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]
    assert literal_bounds == []


def test_a_range_is_checked_only_by_the_init_that_record_compiles():
    # no `__post_init__` reads a field that has a declared range, so none
    # compares one; no source calls `_out_of_range`, and every ranged
    # record's compiled `__init__` raises it
    from agvsim.domain import FIELD_RANGES

    read, called = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"agvsim.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                ranged = FIELD_RANGES.get(vars(module).get(node.name), {})
                read.extend(
                    f"{path.stem}.{node.name}.{inner.attr}"
                    for method in node.body if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
                    for inner in ast.walk(method) if isinstance(inner, ast.Attribute) and inner.attr in ranged
                )
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_out_of_range":
                called.append(f"{path.stem}:{node.lineno}")
    assert read == [] and called == []
    assert len(FIELD_RANGES) == 7
    assert all("_out_of_range" in vars(cls)["__init__"].__code__.co_names for cls in FIELD_RANGES)


@pytest.fixture(scope="module")
def samples() -> dict[type, object]:
    """One instance of each record: what two campaign pairs, a chain run, the severity tables and the
    threat registry hold, and the four records no run keeps (the memory store is read through its digest)."""
    from agvsim import chains, report, runner, severity, threats, trace
    from agvsim.domain import Role
    from agvsim.pipeline import AgentTuning, MemoryEntry, MemoryKind, MemoryStore, Rulebook
    from agvsim.scenario import load_shipped

    chain = chains.builtin_chain("chain-1")
    todo: list = [
        threats.THREATS, severity.load_tables(),
        chain, chains.run_chain(chain, load_shipped("chain-base")),
        Rulebook(), AgentTuning(),
        MemoryStore().adopt(MemoryEntry("speed_cap_kph", MemoryKind.CONSTRAINT, 45.0, Role.EXTERNAL, 0)),
    ]
    for name in ("threat-t11", "threat-xperception"):
        config = load_shipped(name)
        baseline, attacked = (runner.run_episodes(config, with_injections=side) for side in (False, True))
        todo += [config, report.compare(baseline, attacked), trace.step_deltas(attacked, baseline)]
    found: dict[type, object] = {}
    seen = set()
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            found.setdefault(type(value), value)
            todo.extend(getattr(value, f.name) for f in dataclasses.fields(value))
        elif isinstance(value, (tuple, list, dict)):
            todo.extend(value.values() if isinstance(value, dict) else value)
    assert sorted(c.__qualname__ for c in found) == sorted(c.__qualname__ for c in RECORDS)
    return found


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_keeps_the_dataclass_interface(cls, samples):
    # its own docstring, not the one dataclasses writes for a class without
    # one ("MemoryEntry()" under init=False)
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")
    # the parameters of `__init__` are the `init` fields, in field order, with their defaults
    empty = inspect.Parameter.empty
    parameters = [
        (p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()
    ]
    assert parameters == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls) if f.init
    ]
    # still frozen: setting or deleting any name refuses, a field or not
    instance = cls.__new__(cls)
    for name in [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, name)
    # its fields, derived ones included, live in slots, and nothing else
    # does: no base-class slot, no instance dict, no weakref slot; and no
    # `__reduce__` of its own, so copies and pickles carry the slot state
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert vars(cls).get("__slots__") == names
    assert [s for base in cls.__mro__[1:] for s in vars(base).get("__slots__", ())] == []
    assert "__reduce__" not in vars(cls) and "__reduce_ex__" not in vars(cls)
    sample = samples[cls]
    assert not hasattr(sample, "__dict__") and not hasattr(sample, "__weakref__")
    # a deep copy is an equal record whose fields, digest and derived fields included, read the same
    copied = copy.deepcopy(sample)
    assert copied is not sample and copied == sample
    assert [getattr(copied, name) for name in names] == [getattr(sample, name) for name in names]
    # equality and hashing as a frozen dataclass writes them: the compared
    # fields as one tuple, and only against a record of the same class
    compared = [f.name for f in dataclasses.fields(cls) if f.compare]
    key = tuple(getattr(sample, name) for name in compared)
    assert not copied != sample and sample.__eq__(key) is NotImplemented
    changed = copy.copy(sample)
    object.__setattr__(changed, compared[-1], "a value no field holds")
    assert changed != sample and sample != changed
    try:
        expected = hash(key)
    except TypeError:  # a field holds a list or a dict
        with pytest.raises(TypeError):
            hash(sample)
    else:
        assert hash(sample) == expected
    # the `repr` fields by name, after the class's qualified name
    shown = ", ".join(f"{f.name}={getattr(sample, f.name)!r}" for f in dataclasses.fields(cls) if f.repr)
    assert repr(sample) == f"{cls.__qualname__}({shown})"
    # `replace`, which the benchmark calls on scenarios and chain specs, and a
    # pickle round trip give an equal record whose fields read the same
    replaced, unpickled = dataclasses.replace(sample), pickle.loads(pickle.dumps(sample))
    assert replaced is not sample and replaced == sample and unpickled == sample
    init = [f.name for f in dataclasses.fields(cls) if f.init]
    assert [getattr(replaced, name) for name in init] == [getattr(sample, name) for name in init]
    assert [getattr(unpickled, name) for name in names] == [getattr(sample, name) for name in names]
