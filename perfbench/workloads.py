"""The four benchmark workloads.

A workload is a list of main operations, run in whole passes, plus a probe:
the same kind of operation at another horizon. Every operation is tagged
with its horizon ("quarter" or "full", the full one four times longer) so
that `step_us_growth` compares host time per simulated step at both.

All calls into agvsim go through module attributes (``runner.run_episodes``
rather than an imported name), so the tracing wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

CAMPAIGN_EPISODES = 12      # full horizon of the campaign; the quarter is 3
CLI_COMMANDS = ("run", "chain", "score")


@dataclass(frozen=True)
class Output:
    data: bytes                 # everything the operation emitted, checked by digest
    steps: int                  # simulated steps, baseline and attacked together
    traces: tuple = ()          # EpisodeTraces for the safety-check invariant


@dataclass(frozen=True)
class Op:
    key: str
    horizon: str                # "quarter", "full", or "" when it has no growth role
    run: Callable[[], Output]


@dataclass(frozen=True)
class Context:
    seed: int
    tmp: Path                   # scratch directory inside the checkout
    src: Path                   # the program's source tree, for child interpreters
    spans_dir: Path | None      # where traced children write their spans


@dataclass
class Workload:
    """Main and probe operations, plus the calibration timed after each main pass.

    The speed of a shared host moves by tens of percent for a minute at a
    time. The gated time metrics divide each pass's operation times by the
    calibration timed right after it ("cal"), which cancels that drift.
    """

    name: str
    main: list[Op]
    probe: list[Op]
    calibrate: Callable[[], float]
    traced_main: list[Op] = field(default_factory=list)  # cli-cold: children that trace themselves


@dataclass(frozen=True)
class _CalRecord:
    a: int
    b: float
    c: str
    d: tuple


def calibrate_in_process() -> float:
    """Seconds for one fixed chunk of pure-Python work that never touches agvsim.

    The chunk builds frozen dataclasses, renders sorted-key JSON, hashes and
    sorts, like the simulator's own hot paths.
    """
    t0 = time.perf_counter()
    total = 0
    for _ in range(300):
        records = [_CalRecord(j, j * 0.5, f"k{j}", (j, j + 1)) for j in range(20)]
        doc = {f"f{j}": {"x": r.a, "y": r.b, "z": [r.c, list(r.d)]} for j, r in enumerate(records)}
        text = json.dumps(doc, sort_keys=True)
        total += len(hashlib.sha256(text.encode()).hexdigest())
        total += len(sorted(doc, key=lambda k: doc[k]["y"]))
    elapsed = time.perf_counter() - t0
    if total != 300 * 84:
        raise RuntimeError(f"calibration chunk computed {total}")
    return elapsed


def calibrate_interpreter(env: dict[str, str]) -> float:
    """Mean seconds of two bare interpreter starts (`python -c pass`)."""
    t0 = time.perf_counter()
    for _ in range(2):
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return (time.perf_counter() - t0) / 2


def _report_output(report_mod, baseline, attacked, with_json: bool) -> Output:
    report = report_mod.compare(baseline, attacked)
    data = report_mod.render_csv(report).encode()
    if with_json:
        data += b"\0" + report_mod.render_json(report).encode()
    return Output(data, len(baseline.steps) + len(attacked.steps), (baseline, attacked))


def corpus(ctx: Context) -> Workload:
    """`agvsim run --out x.csv` over every shipped scenario: load, pair, compare, CSV and JSON."""
    from agvsim import report, runner, scenario

    def op(path: Path, scale: int) -> Callable[[], Output]:
        def run() -> Output:
            config = scenario.load_scenario(path)
            if scale != 1:
                config = replace(config, episodes=config.episodes * scale)
            baseline = runner.run_episodes(config, with_injections=False, seed=ctx.seed)
            attacked = runner.run_episodes(config, with_injections=True, seed=ctx.seed)
            return _report_output(report, baseline, attacked, with_json=True)
        return run

    paths = sorted(scenario.shipped_scenarios().items())
    main = [Op(name, "quarter", op(path, 1)) for name, path in paths]
    probe = [Op(name, "full", op(path, 4)) for name, path in paths[::4]]
    return Workload("corpus", main, probe, calibrate_in_process)


def _open_campaign(text: str, episodes: int):
    """A threat fixture as a persistent attack: long horizon, windows opened to all of it."""
    import yaml
    from agvsim import scenario

    data = yaml.safe_load(text)
    data["episodes"] = episodes
    horizon = episodes * len(data["requests"])
    for injection in data.get("injections", []):
        injection["window"] = [0, horizon - 1]
    return scenario.parse_scenario(data, data["id"])


def campaign(ctx: Context) -> Workload:
    """The 19 threat fixtures as persistent attacks over a long horizon, CSV to stdout."""
    from agvsim import report, runner, scenario

    def op(config) -> Callable[[], Output]:
        def run() -> Output:
            baseline = runner.run_episodes(config, with_injections=False, seed=ctx.seed)
            attacked = runner.run_episodes(config, with_injections=True, seed=ctx.seed)
            return _report_output(report, baseline, attacked, with_json=False)
        return run

    fixtures = [
        (name, path.read_text())
        for name, path in sorted(scenario.shipped_scenarios().items())
        if name.startswith("threat-")
    ]
    main, probe = [], []
    for name, text in fixtures:
        main.append(Op(name, "full", op(_open_campaign(text, CAMPAIGN_EPISODES))))
        probe.append(Op(name, "quarter", op(_open_campaign(text, CAMPAIGN_EPISODES // 4))))
    return Workload("campaign", main, probe, calibrate_in_process)


def _chain_output(propagation, baseline) -> Output:
    summary = {
        "chain": propagation.chain_id,
        "outcome": propagation.outcome.value,
        "stealth": propagation.stealth,
        "stages": [
            [d.stage_index, d.kind.value, d.label, d.fired_step, list(d.changed_fields), d.detail]
            for d in propagation.stage_deltas
        ],
    }
    attacked = propagation.attacked
    return Output(
        json.dumps(summary, sort_keys=True).encode(),
        len(attacked.steps) + len(baseline.steps),
        (baseline, attacked),
    )


def chain_sweep(ctx: Context) -> Workload:
    """Each of the six built-in chains over each of the 32 shipped scenarios."""
    from agvsim import chains, scenario

    def op(spec, config) -> Callable[[], Output]:
        def run() -> Output:
            propagation, baseline = chains.run_chain(spec, config, seed=ctx.seed)
            return _chain_output(propagation, baseline)
        return run

    configs = [(name, scenario.load_scenario(path)) for name, path in sorted(scenario.shipped_scenarios().items())]
    specs = chains.builtin_chains()
    main, probe = [], []
    for spec in specs:
        longer = replace(spec, episode_length=spec.episode_length * 4)
        for i, (name, config) in enumerate(configs):
            key = f"{spec.id}/{name}"
            main.append(Op(key, "quarter", op(spec, config)))
            if i % 8 == 0:
                probe.append(Op(key, "full", op(longer, config)))
    return Workload("chain-sweep", main, probe, calibrate_in_process)


def cli_argv(command: str, seed: int, out: Path) -> list[str]:
    if command == "run":
        return ["run", "case1-highway-urgent", "--out", str(out / "run.csv"), "--seed", str(seed)]
    if command == "chain":
        return ["chain", "chain-1", "--seed", str(seed)]
    return ["score", "T7", "autonomous", "high"]


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("AGV_SIM_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    return env


def _child(prefix: list[str], argv: list[str], env: dict, out: Path, steps: int) -> Output:
    proc = subprocess.run(prefix + argv, env=env, capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}")
    data = proc.stdout
    for path in sorted(out.iterdir()):
        data += b"\0" + path.name.encode() + b"\0" + path.read_bytes()
        path.unlink()
    return Output(data, steps)


def cli_cold(ctx: Context) -> Workload:
    """One fresh interpreter per operation, cycling run / chain / score.

    The probe runs the `run` command in-process at the shipped horizon and
    at four times it, since interpreter start is a fixed cost per child.
    Calibration is a bare interpreter start, the cost every child shares.
    """
    import yaml
    from agvsim import chains, cli, scenario

    env = child_env(ctx.src)
    out = ctx.tmp / "cli-out"
    out.mkdir(exist_ok=True)

    # simulated steps per command, for paired_steps_per_s
    config = scenario.load_shipped("case1-highway-urgent")
    steps = {
        "run": 2 * config.episodes * config.steps_per_episode,
        "chain": 2 * chains.builtin_chain("chain-1").episode_length,
        "score": 0,
    }

    def child_op(command: str, prefix: list[str]) -> Op:
        argv = cli_argv(command, ctx.seed, out)
        return Op(command, "", lambda: _child(prefix, argv, env, out, steps[command]))

    main = [child_op(c, [sys.executable, "-m", "agvsim.cli"]) for c in CLI_COMMANDS]
    traced = []
    if ctx.spans_dir is not None:
        child = str(Path(__file__).resolve().parent / "cli_child.py")
        traced = [child_op(c, [sys.executable, child, str(ctx.spans_dir / f"{c}.json")]) for c in CLI_COMMANDS]

    data = yaml.safe_load(scenario.shipped_scenarios()["case1-highway-urgent"].read_text())
    probe_out = ctx.tmp / "probe-out"
    probe_out.mkdir(exist_ok=True)

    def probe_op(scale: int) -> Op:
        episodes = data.get("episodes", 1) * scale
        path = ctx.tmp / f"case1-highway-urgent-x{scale}.yaml"
        path.write_text(yaml.safe_dump(dict(data, episodes=episodes)))
        argv = ["run", str(path), "--out", str(probe_out / "run.csv"), "--seed", str(ctx.seed)]

        def run() -> Output:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"agvsim run exited {code}")
            files = sorted(probe_out.iterdir())
            emitted = b"\0".join(p.read_bytes() for p in files)
            for p in files:
                p.unlink()
            return Output(emitted, 2 * episodes * len(data["requests"]))

        return Op("run", "quarter" if scale == 1 else "full", run)

    probe = [probe_op(1), probe_op(4)]
    return Workload("cli-cold", main, probe, lambda: calibrate_interpreter(env), traced)


BUILDERS = {
    "corpus": corpus,
    "campaign": campaign,
    "chain-sweep": chain_sweep,
    "cli-cold": cli_cold,
}
