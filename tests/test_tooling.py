"""Guards for the tooling that reaches into the package from outside it."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

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
    assert in_functions == []
    assert absolute == []
    assert _cycle(runtime) is None
    # the runner stays below chains and scenario, and a report needs no chain
    assert not {"chains", "scenario"} & runtime["runner"]
    assert "chains" not in runtime["report"] | type_only["report"]
    # the walk sees the edges that matter: chains calls the runner, the
    # scenario loader builds chain specs, and the runner's annotations name
    # both, which would close a cycle at run time
    assert "runner" in runtime["chains"] and "chains" in runtime["scenario"]
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
