"""agvsim benchmark: one workload per command, output checks, optional tracing.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 15 --trace 0

With ``--trace 0`` it measures the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` it wraps the calls into each agvsim
layer and reports the per-layer metrics instead. Human-readable lines come
first; the last line of stdout is one JSON object. Each result, with the
environment it was measured in, and the spans of the first traced pass are
written under ``perfbench/out/``. perfbench/README.md defines the metrics.

``--record-golden`` rewrites perfbench/golden.json from the current program.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0        # the seed the golden digests were recorded for
PROBE_SHARE = 0.25      # probe passes take about this share of the main passes' time
MIN_PASSES = 5          # each operation's median rests on at least this many samples
MAX_MEASURE_S = 100.0   # hard stop for the main loop, well inside the 180 s limit
SETUP_REPEATS = 5
CLI_PROBE_REPEATS = 5


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu_model": cpu,
    }


def _sc_violation(traces) -> str | None:
    from agvsim.pipeline import Rulebook, sc_violations

    rules = Rulebook()
    for trace in traces:
        for r in trace.steps:
            broken = sc_violations(r.approved, r.feedback, rules, r.dsa_context.speed_limit_kph)
            if broken:
                return f"approved proposal breaks {broken} at step {r.global_step}"
    return None


class Checker:
    """Counts attempted and failed operations.

    An operation fails if it raises, if its output differs byte for byte
    from the first output of the same operation in this run, if an approved
    proposal breaks a safety-check rule, or, at the default seed, if the
    sha256 of its output differs from the golden digest.
    """

    def __init__(self, golden: dict | None) -> None:
        self.golden = golden
        self.first: dict[str, tuple[str, str | None]] = {}   # name -> (digest, problem)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _problem(self, name: str, digest: str, output) -> str | None:
        if self.golden is not None and self.golden.get(name) != digest:
            return "output differs from the golden digest"
        return _sc_violation(output.traces)

    def check(self, op, output) -> None:
        self.attempted += 1
        name = f"{op.horizon}:{op.key}"
        if isinstance(output, Exception):
            problem = f"raised {output!r}"
        else:
            digest = hashlib.sha256(output.data).hexdigest()
            if name not in self.first:
                self.first[name] = (digest, self._problem(name, digest, output))
            first, problem = self.first[name]
            if digest != first:
                problem = "output differs from the first repetition"
        if problem:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {problem}")


def run_ops(ops, checker: Checker, samples: list, after_op=None) -> float:
    """Run each operation once, timing it; returns the summed op time."""
    total = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            output = exc
        dt = time.perf_counter() - t0
        total += dt
        checker.check(op, output)
        steps = 0 if isinstance(output, Exception) else output.steps
        samples.append((op.key, op.horizon, dt, steps))
        if after_op is not None:
            after_op(op)
    return total


def us_per_step(samples: list) -> dict[str, float]:
    """Host us per simulated step at each horizon, over the keys run at both."""
    keys = {h: {k for k, hh, _, _ in samples if hh == h} for h in ("quarter", "full")}
    common = keys["quarter"] & keys["full"]
    us = {}
    for horizon in ("quarter", "full"):
        picked = [(dt, n) for k, h, dt, n in samples if h == horizon and k in common]
        steps = sum(n for _, n in picked)   # 0 only when every operation failed
        us[horizon] = 1e6 * sum(dt for dt, _ in picked) / steps if steps else 0.0
    return us


def step_us_growth(groups: list[list]) -> float:
    """Median over probe passes of full-horizon over quarter-horizon us per step.

    Each probe pass is paired with the main pass just before it, so both
    sides of a ratio are timed within seconds of each other.
    """
    ratios = []
    for samples in groups:
        us = us_per_step(samples)
        ratios.append(us["full"] / us["quarter"] if us["quarter"] else 0.0)
    return statistics.median(ratios)


def build(name: str, seed: int, tmp: Path, spans_dir: Path | None = None):
    """Set-up: import the program, generate the inputs, warm up with one operation."""
    import workloads

    ctx = workloads.Context(seed=seed, tmp=tmp, src=SRC, spans_dir=spans_dir)
    workload = workloads.BUILDERS[name](ctx)
    try:
        workload.main[0].run()
    except Exception:  # the timed passes run it again and count the failure
        pass
    return workload


def setup_times(name: str, seed: int) -> list[float]:
    """Process start to first timed operation, in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if not ready or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append(elapsed)
    return times


def cold_start_ms(seed: int, tmp: Path) -> dict[str, float]:
    """Median wall time of fresh interpreters: bare, `import agvsim.cli`, and each command."""
    import workloads

    env = workloads.child_env(SRC)
    out = tmp / "cold-out"
    out.mkdir(exist_ok=True)
    commands = {
        "cli.bare_python_ms": ["-c", "pass"],
        "cli.import_ms": ["-c", "import agvsim.cli"],
    }
    for c in workloads.CLI_COMMANDS:
        commands[f"cli.{c}_ms"] = ["-m", "agvsim.cli"] + workloads.cli_argv(c, seed, out)
    times: dict[str, list[float]] = {name: [] for name in commands}
    for _ in range(CLI_PROBE_REPEATS):
        for name, argv in commands.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable] + argv, env=env, check=True, capture_output=True, timeout=60)
            times[name].append(1e3 * (time.perf_counter() - t0))
            for path in out.iterdir():
                path.unlink()
    return {name: statistics.median(t) for name, t in times.items()}


def measure(workload, checker: Checker, seconds: float):
    """Whole main passes until the time and the pass floor are reached.

    Each main pass is followed by one calibration. A probe pass
    follows while the probes have taken less than PROBE_SHARE of the main
    passes' time; each is kept with the main pass before it.
    """
    passes: list[tuple[list, float]] = []     # (main samples, cal seconds)
    groups: list[list] = []
    main_time = probe_time = 0.0
    start = time.perf_counter()
    while True:
        samples: list = []
        main_time += run_ops(workload.main, checker, samples)
        passes.append((list(samples), workload.calibrate()))
        if not groups or probe_time < PROBE_SHARE * main_time:
            probe_time += run_ops(workload.probe, checker, samples)
            groups.append(samples)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(passes) >= MIN_PASSES or elapsed >= MAX_MEASURE_S):
            return passes, groups


def quantile(values: list[float], q: float) -> float:
    """`statistics.quantiles` exclusive-method quantile, clamped to the data range."""
    pos = min(max(q * (len(values) + 1), 1.0), float(len(values)))
    lo = int(pos)
    if lo == len(values):
        return values[-1]
    return values[lo - 1] + (pos - lo) * (values[lo] - values[lo - 1])


def typical(passes: list[tuple[list, float]], unit_of) -> tuple[list[float], float, int]:
    """Each operation's median time in the unit `unit_of(cal)`, sorted; plus one pass and its steps."""
    times: dict[str, list[float]] = {}
    steps: dict[str, int] = {}
    for samples, cal in passes:
        for key, _, dt, n in samples:
            times.setdefault(key, []).append(dt / unit_of(cal))
            steps[key] = n
    medians = sorted(statistics.median(t) for t in times.values())
    return medians, sum(medians), sum(steps.values())


def end_to_end(args, workload, checker: Checker, setup_own: float) -> tuple[dict, list[str]]:
    passes, groups = measure(workload, checker, args.seconds)
    in_process = workload.name != "cli-cold"
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = setup_times(workload.name, args.seed)

    # Each operation counts at its median over the run's repetitions; in the
    # gated metrics each repetition is first divided by the calibration
    # chunk timed right after its pass.
    cal_latencies, cal_pass, steps = typical(passes, lambda cal: cal)
    ms_latencies, ms_pass, _ = typical(passes, lambda cal: 1e-3)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_cal": len(cal_latencies) / cal_pass,
        "paired_steps_per_cal": steps / cal_pass,
        "op_cal_p50": quantile(cal_latencies, 0.5),
        "op_cal_p95": quantile(cal_latencies, 0.95),
        "step_us_growth": step_us_growth(groups),
        "peak_rss_mb": peak_rss_mb,
    }
    us = us_per_step([sample for group in groups for sample in group])
    cal_ms = 1e3 * statistics.median(cal for _, cal in passes)
    notes = [
        f"1 cal = {cal_ms:.3f} ms (median calibration of this run)",
        f"ops_per_s: {1e3 * len(ms_latencies) / ms_pass:.6g} 1/s",
        f"paired_steps_per_s: {1e3 * steps / ms_pass:.6g} 1/s",
        f"op_ms_p50: {quantile(ms_latencies, 0.5):.6g} ms",
        f"op_ms_p95: {quantile(ms_latencies, 0.95):.6g} ms",
        f"error_rate: {checker.failed / checker.attempted:.6g} ({checker.failed}/{checker.attempted})",
        f"operations: {len(cal_latencies)} distinct, each timed {len(passes)} times in whole passes; "
        f"{len(groups)} probe passes",
        f"set-up runs (s): {', '.join(f'{t:.4f}' for t in setups)}; this process: {setup_own:.4f}",
        f"us per step over all probe passes: quarter horizon {us['quarter']:.3f}, full horizon {us['full']:.3f}",
    ]
    if not in_process:
        for command in workload.main:
            times = [dt for samples, _ in passes for key, _, dt, _ in samples if key == command.key]
            notes.append(f"cli_{command.key}_ms: {1e3 * statistics.median(times):.6g} ms")
    return metrics, notes


def per_layer(args, workload, checker: Checker, tmp: Path, spans_dir: Path) -> tuple[dict, list[str], list]:
    import tracing

    tracer = tracing.Tracer()
    stats = tracing.LayerStats()
    by_horizon = {"quarter": tracing.LayerStats(), "full": tracing.LayerStats()}
    ops = workload.main + workload.probe
    growth_keys = {op.key for op in ops if op.horizon == "full"} & {op.key for op in ops if op.horizon == "quarter"}
    kept: list = []                 # spans of the first traced pass, written out at the end

    def after_traced_op(op) -> list:
        if op in workload.traced_main:
            spans = json.loads((spans_dir / f"{op.key}.json").read_text())
        else:
            spans = tracer.take()
        if op.horizon and op.key in growth_keys:
            by_horizon[op.horizon].add(spans)
        if len(traced) == 0:
            kept.append({"op": f"{op.horizon}:{op.key}", "spans": spans})
        return spans

    def after_main_op(op) -> None:
        stats.add(after_traced_op(op))

    plain: list[float] = []
    traced: list[float] = []
    samples: list = []
    probe_time = 0.0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(run_ops(workload.main, checker, []))
        if workload.traced_main:     # the children trace themselves
            traced.append(run_ops(workload.traced_main, checker, samples, after_main_op))
        else:
            with tracing.instrument(tracer):
                traced.append(run_ops(workload.main, checker, samples, after_main_op))
        if probe_time < PROBE_SHARE * sum(plain):
            with tracing.instrument(tracer):
                probe_time += run_ops(workload.probe, checker, samples, after_traced_op)

    metrics = stats.metrics(passes=len(traced))
    for threat in tracing.THREAT_IDS:
        full = by_horizon["full"].threat_us_per_call(threat)
        quarter = by_horizon["quarter"].threat_us_per_call(threat)
        metrics[f"threats.apply.{threat}.growth"] = full / quarter if full and quarter else 0.0
    metrics.update(cold_start_ms(args.seed, tmp))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["tracing.overhead_pct"] = 100.0 * overhead
    notes = [
        f"passes: {len(plain)} untraced, {len(traced)} traced; tracing overhead {100 * overhead:.1f}%",
        f"error_rate: {checker.failed / checker.attempted:.6g} ({checker.failed}/{checker.attempted})",
    ]
    return metrics, notes, kept


def record_golden(names) -> None:
    digests = {}
    for name in names:
        tmp = OUT / f"tmp-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            workload = build(name, DEFAULT_SEED, tmp)
            digests[name] = {}
            for op in workload.main + workload.probe:
                digests[name][f"{op.horizon}:{op.key}"] = hashlib.sha256(op.run().data).hexdigest()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not (SRC / "agvsim" / "__init__.py").is_file():
        print(f"error: no agvsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.record_golden:
        record_golden(names)
        return 0
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    tmp = OUT / f"tmp-{os.getpid()}"
    spans_dir = tmp / "spans"
    spans_dir.mkdir(parents=True)
    try:
        workload = build(args.workload, args.seed, tmp, spans_dir if args.trace else None)
        setup_own = time.perf_counter() - PROCESS_T0
        if args.setup_only:
            print("ready", flush=True)
            return 0
        golden = None
        if args.seed == DEFAULT_SEED:
            golden = json.loads(GOLDEN.read_text())["digests"][args.workload]
        checker = Checker(golden)
        kept: list = []
        if args.trace:
            metrics, notes, kept = per_layer(args, workload, checker, tmp, spans_dir)
        else:
            metrics, notes = end_to_end(args, workload, checker, setup_own)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"environment": env, "notes": notes, **result}, indent=1) + "\n")
    if kept:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(kept) + "\n")

    print(f"agvsim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))
    for m in declared:
        print(f"{m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    for line in notes + checker.errors:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
