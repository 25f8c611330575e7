"""Span recording around the calls into each agvsim layer.

The benchmark does not change the program: it replaces public functions
with recording wrappers at the module attribute where the *calling* module
looks them up (``agvsim.runner.perceive``, ``agvsim.report.step_deltas``,
...), runs the workload, and restores the originals. Each call leaves one
span ``[name, start, end, parent, attrs]`` in memory; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name). A function imported into several modules
# is wrapped at every lookup site the workloads reach.
TARGETS = (
    ("agvsim.scenario", "load_scenario", "scenario.load"),
    ("agvsim.cli", "load_scenario", "scenario.load"),
    ("agvsim.runner", "perceive", "cavstack.perceive"),
    ("agvsim.runner", "v2x_broadcast", "cavstack.v2x_broadcast"),
    ("agvsim.runner", "control_feedback", "cavstack.control_feedback"),
    ("agvsim.runner", "fuse", "cavstack.fuse"),
    ("agvsim.runner", "apply", "threats.apply"),
    ("agvsim.runner", "to_layer_perturbations", "threats.apply"),
    ("agvsim.runner", "run_pa_policy", "pipeline.pa"),
    ("agvsim.runner", "run_dsa_policy", "pipeline.dsa"),
    ("agvsim.runner", "validate_with_revision", "pipeline.sc"),
    ("agvsim.runner", "digest_of", "serialize.digest"),
    ("agvsim.threats", "digest_of", "serialize.digest"),
    ("agvsim.pipeline.MemoryStore", "digest", "serialize.digest"),
    ("agvsim.cavstack.WorldTruth", "digest", "serialize.digest"),
    ("agvsim.runner", "run_episodes", "runner.run_episodes"),
    ("agvsim.cli", "run_episodes", "runner.run_episodes"),
    ("agvsim.report", "step_deltas", "trace.step_deltas"),
    ("agvsim.chains", "step_deltas", "trace.step_deltas"),
    ("agvsim.report", "compare", "report.compare"),
    ("agvsim.cli", "compare", "report.compare"),
    ("agvsim.report", "render_csv", "report.render_csv"),
    ("agvsim.cli", "render_csv", "report.render_csv"),
    ("agvsim.report", "render_json", "report.render_json"),
    ("agvsim.cli", "render_json", "report.render_json"),
    ("agvsim.chains", "run_chain", "chains.run_chain"),
    ("agvsim.cli", "run_chain", "chains.run_chain"),
    ("agvsim.cli", "what_if", "severity.what_if"),
)

THREAT_IDS = (
    "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11", "T12",
    "T13", "T14", "T15", "XPerception", "XV2X", "XCompute", "XControlFeedback",
)


def _attrs(name: str, args: tuple, kwargs: dict, result: object, parent: str | None) -> dict | None:
    """Counts taken at the boundary, so ratios are measured where the work happens."""
    if name == "threats.apply":
        warning = getattr(result, "warning", None)
        return {"threat": args[0].threat.value, "warning": warning}
    if name == "runner.run_episodes":
        config = args[0]
        injected = kwargs.get("with_injections", args[1] if len(args) > 1 else None)
        return {
            "steps": len(result.steps),
            "baseline": not injected,
            "in_chain": parent == "chains.run_chain",
            "key": [config.id, result.seed, result.episodes, result.steps_per_episode],
        }
    if name == "trace.step_deltas":
        return {
            "deltas": len(result),
            "unchanged": sum(1 for d in result if not d.changed_paths),
            "paths": sum(len(d.changed_paths) for d in result),
        }
    if name == "pipeline.sc":
        return {"submissions": len(result[0])}
    if name in ("report.render_csv", "report.render_json"):
        return {"bytes": len(result.encode())}
    return None


class Tracer:
    """Keeps spans in memory; `take()` hands them over and starts afresh."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, parent, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _attrs(name, args, kwargs, result, spans[parent][0] if parent >= 0 else None)
            return result

        return traced


def _resolve(path: str):
    """Import the longest module prefix of `path`, then walk the attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerStats:
    """Per-layer totals accumulated over batches of spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.threat_s: dict[str, float] = {}
        self.threat_calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.baseline_keys: set[tuple] = set()

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def add(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child[i]
            if attrs is None:
                continue
            if name == "threats.apply":
                threat = attrs["threat"]
                self.threat_s[threat] = self.threat_s.get(threat, 0.0) + duration
                self.threat_calls[threat] = self.threat_calls.get(threat, 0) + 1
                if attrs["warning"] is not None:
                    self._count("apply_records")
                    self._count("apply_warnings", int(bool(attrs["warning"])))
            elif name == "runner.run_episodes":
                self._count("steps", attrs["steps"])
                if attrs["baseline"] and attrs["in_chain"]:
                    self._count("chain_baselines")
                    self.baseline_keys.add(tuple(attrs["key"]))
            elif name == "trace.step_deltas":
                self._count("deltas", attrs["deltas"])
                self._count("unchanged", attrs["unchanged"])
                self._count("changed_paths", attrs["paths"])
            elif name == "pipeline.sc":
                self._count("submissions", attrs["submissions"])
            else:
                self._count("bytes_out", attrs["bytes"])

    def sum_calls(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def sum_self_ms(self, prefix: str) -> float:
        return 1e3 * sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def threat_us_per_call(self, threat: str) -> float | None:
        calls = self.threat_calls.get(threat, 0)
        return 1e6 * self.threat_s[threat] / calls if calls else None

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass figures: counts repeat exactly from pass to pass."""
        steps = self.counts.get("steps", 0)

        def ratio(n: float, base: int) -> float:
            return n / base if base else 0.0

        totals = {
            "scenario.load.calls": self.sum_calls("scenario.load"),
            "scenario.load.self_ms": self.sum_self_ms("scenario.load"),
            "cavstack.calls": self.sum_calls("cavstack."),
            "cavstack.self_ms": self.sum_self_ms("cavstack."),
            "threats.apply.calls": self.sum_calls("threats.apply"),
            "threats.apply.self_ms": self.sum_self_ms("threats.apply"),
            "pipeline.pa.self_ms": self.sum_self_ms("pipeline.pa"),
            "pipeline.dsa.self_ms": self.sum_self_ms("pipeline.dsa"),
            "pipeline.sc.self_ms": self.sum_self_ms("pipeline.sc"),
            "serialize.digest.calls": self.sum_calls("serialize.digest"),
            "serialize.digest.self_ms": self.sum_self_ms("serialize.digest"),
            "runner.run_episodes.calls": self.sum_calls("runner.run_episodes"),
            "runner.self_ms": self.sum_self_ms("runner.run_episodes"),
            "runner.steps": steps,
            "trace.step_deltas.self_ms": self.sum_self_ms("trace.step_deltas"),
            "trace.changed_paths": self.counts.get("changed_paths", 0),
            "report.compare.self_ms": self.sum_self_ms("report.compare"),
            "report.render_csv.self_ms": self.sum_self_ms("report.render_csv"),
            "report.render_json.self_ms": self.sum_self_ms("report.render_json"),
            "report.bytes_out": self.counts.get("bytes_out", 0),
            "chains.run_chain.self_ms": self.sum_self_ms("chains.run_chain"),
            "chains.baseline_runs": self.counts.get("chain_baselines", 0),
            "severity.what_if.self_ms": self.sum_self_ms("severity.what_if"),
        }
        for threat in THREAT_IDS:
            totals[f"threats.apply.{threat}.ms"] = 1e3 * self.threat_s.get(threat, 0.0)
        out = {name: value / passes for name, value in totals.items()}
        # every pass runs the same inputs, so distinct keys are per pass
        out["chains.distinct_baselines"] = len(self.baseline_keys)
        # every layer build starts with perceive; clean rebuilds taken for
        # layer-injection digests add a second one in the same step
        out["cavstack.builds_per_step"] = ratio(self.calls.get("cavstack.perceive", 0), steps)
        out["threats.apply.warning_ratio"] = ratio(
            self.counts.get("apply_warnings", 0), self.counts.get("apply_records", 0)
        )
        out["pipeline.sc.submissions_per_step"] = ratio(self.counts.get("submissions", 0), steps)
        out["serialize.digest.calls_per_step"] = ratio(self.sum_calls("serialize.digest"), steps)
        out["trace.unchanged_step_ratio"] = ratio(self.counts.get("unchanged", 0), self.counts.get("deltas", 0))
        return out
