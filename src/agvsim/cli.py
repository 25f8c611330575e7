"""Command-line front end.

Exit codes: 0 success, 1 configuration/usage error, 2 I/O error (of --out or
stdout). The seed may come from --seed, the AGV_SIM_SEED environment
variable, or the scenario file, in that precedence order.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
from pathlib import Path

# `score`, `validate-tables` and `list scenarios` need no more than these
# two; every other command loads its modules when it runs. perfbench traces
# `what_if` at this module's name alone, so `_cmd_score` calls it by that name.
from .domain import AgencyBucket, ConfigError, DrivingMode, PipelineError, ThreatId, agency_bucket, shipped_files
from .severity import DIMENSIONS, OrdinalRating, validate_tables, what_if

SEED_ENV_VAR = "AGV_SIM_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


class _UsageError(Exception):
    """Bad usage, raised by the (sub)command parser whose arguments are wrong."""

    def __init__(self, parser: argparse.ArgumentParser, message: str) -> None:
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; we reserve 2 for I/O errors
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(self, message)

    # argparse drops a failed write of help; raise it, so that it is an I/O error
    def _print_message(self, message: str, file=None) -> None:  # type: ignore[override]
        if message:
            (file or sys.stderr).write(message)


class _CommandParser(_Parser):
    # argparse hands a subcommand's unknown arguments up to the top-level
    # parser; report them here, under this command's usage
    def parse_known_args(self, args=None, namespace=None):  # type: ignore[override]
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return namespace, unknown


def _build_parser() -> _Parser:
    parser = _Parser(prog="agvsim", description="Agentic-vehicle security simulator")
    sub = parser.add_subparsers(dest="command", parser_class=_CommandParser)

    run_p = sub.add_parser("run", help="run a scenario (paired baseline + attacked by default)")
    run_p.add_argument("scenario", help="scenario file path or shipped scenario id")
    side = run_p.add_mutually_exclusive_group()
    side.add_argument("--baseline-only", action="store_true", help="run without injections")
    side.add_argument("--attacked-only", action="store_true", help="run with injections only")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    run_p.add_argument("--format", choices=["csv", "json"], default="csv")

    score_p = sub.add_parser("score", help="severity total and band for one threat/context")
    score_p.add_argument("threat", help="T1..T15")
    score_p.add_argument("mode", help="manual | autonomous")
    score_p.add_argument("agency", help="low | medium | high, or an agency level 0-5")
    score_p.add_argument(
        "--set", action="append", default=[], metavar="DIM=RATING",
        help="override a dimension, e.g. --set SI=C (dims: SI SD P SM; ratings: L M H C)",
    )

    sub.add_parser("validate-tables", help="report severity cells inconsistent with the scoring method")

    chain_p = sub.add_parser("chain", help="run an attack chain over a scenario")
    chain_p.add_argument("chain", help="builtin chain id (or a unique prefix), or a chain spec file")
    chain_p.add_argument("--seed", type=int, default=None)
    chain_p.add_argument("--scenario", default=None, help="scenario file (default: shipped chain-base)")

    list_p = sub.add_parser("list", help="enumerate threats, chains, or shipped scenarios")
    list_p.add_argument("what", choices=["threats", "chains", "scenarios"])

    return parser


def _resolve_seed(flag_seed: int | None) -> int | None:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(SEED_ENV_VAR, f"must be an integer, got {env!r}") from exc
    return None


def _load_scenario_arg(ref: str):
    from . import scenario

    if os.path.exists(ref):
        return scenario.load_scenario(ref)
    return scenario.load_shipped(ref)


def _write(text: str, path: str | None = None) -> None:
    """The one writer of program output: UTF-8 whatever the locale, to `path` or else to stdout."""
    data = text.encode("utf-8")
    if path is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        return
    try:
        Path(path).write_bytes(data)
    except OSError as exc:  # a failed write, unlike a failed open, names no file
        exc.filename = exc.filename or path
        raise


def _cmd_run(args: argparse.Namespace) -> str:
    from . import report, runner

    config = _load_scenario_arg(args.scenario)
    seed = _resolve_seed(args.seed)

    if args.baseline_only or args.attacked_only:
        paired = None
        text = runner.run_episodes(config, with_injections=args.attacked_only, seed=seed).to_json() + "\n"
    else:
        baseline = runner.run_episodes(config, with_injections=False, seed=seed)
        attacked = runner.run_episodes(config, with_injections=True, seed=seed)
        paired = report.compare(baseline, attacked)
        text = report.render_csv(paired) if args.format == "csv" else report.render_json(paired)
    if not args.out:
        return text
    _write(text, args.out)
    if paired is not None and args.format == "csv":
        # the hierarchical trace export rides along for CSV outputs
        _write(report.render_json(paired), args.out + ".trace.json")
    return ""


def _parse_mode(text: str) -> DrivingMode:
    try:
        return DrivingMode(text.capitalize())
    except ValueError as exc:
        raise ConfigError("mode", f"must be manual or autonomous, got {text!r}") from exc


def _parse_agency(text: str) -> AgencyBucket:
    lowered = text.lower()
    for bucket in AgencyBucket:
        if bucket.value.lower() == lowered:
            return bucket
    try:
        return agency_bucket(int(text))
    except ValueError as exc:
        raise ConfigError("agency", f"must be low/medium/high or 0-5, got {text!r}") from exc


def _cmd_score(args: argparse.Namespace) -> str:
    threat = next((t for t in ThreatId if t.value.lower() == args.threat.lower()), None)
    if threat is None:
        raise ConfigError("threat", f"unknown threat id {args.threat!r}")
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError("--set", f"expected DIM=RATING, got {item!r}")
        dim, _, rating = item.partition("=")
        dim = dim.strip().lower()
        if dim not in DIMENSIONS:
            raise ConfigError("--set", f"dimension must be one of {[d.upper() for d in DIMENSIONS]}")
        try:
            overrides[dim] = OrdinalRating(rating.strip().upper())
        except ValueError as exc:
            raise ConfigError("--set", f"rating must be one of L M H C, got {rating!r}") from exc
    try:
        total, band = what_if(threat, _parse_mode(args.mode), _parse_agency(args.agency), overrides)
    except KeyError as exc:
        raise ConfigError("threat", exc.args[0]) from exc
    return f"{total} {band.value}\n"


def _cmd_validate_tables(_: argparse.Namespace) -> str:
    discrepancies = validate_tables()
    lines = [d.describe() for d in discrepancies]
    lines.append(f"{len(discrepancies)} inconsistent cells out of 90")
    return "".join(line + "\n" for line in lines)


def _cmd_chain(args: argparse.Namespace) -> str:
    from . import chains, scenario

    if os.path.exists(args.chain):
        spec = chains.load_chain_spec(args.chain)
    else:
        try:
            spec = chains.builtin_chain(args.chain)
        except KeyError as exc:
            raise ConfigError("chain", exc.args[0]) from exc
    config = _load_scenario_arg(args.scenario) if args.scenario else scenario.load_shipped("chain-base")
    seed = _resolve_seed(args.seed)
    propagation, _ = chains.run_chain(spec, config, seed=seed)
    lines = [
        f"chain:    {propagation.chain_id}",
        f"outcome:  {propagation.outcome.value}",
        f"stealth:  {'true' if propagation.stealth else 'false'}",
    ]
    for delta in propagation.stage_deltas:
        fired = "never" if delta.fired_step is None else f"step {delta.fired_step}"
        fields = ", ".join(delta.changed_fields) if delta.changed_fields else "-"
        lines.append(f"stage {delta.stage_index} [{delta.kind.value}/{delta.label or delta.detail}]: "
                     f"fired {fired}; fields: {fields}")
    return "".join(line + "\n" for line in lines)


def _cmd_list(args: argparse.Namespace) -> str:
    if args.what == "threats":
        from . import threats

        lines = [
            f"{threat.value}: {', '.join(sorted(s.value for s in threats.legal_surfaces(threat)))}"
            for threat in ThreatId
        ]
    elif args.what == "chains":
        from . import chains

        lines = []
        for spec in chains.builtin_chains():
            stages = " -> ".join(
                (stage.injection.threat.value if stage.injection else f"observe:{stage.probe}")
                for stage in spec.stages
            )
            lines.append(f"{spec.id}: {stages}")
    else:
        lines = [f"{name}: {path}" for name, path in shipped_files("scenarios").items()]
    return "".join(line + "\n" for line in lines)


_COMMANDS = {
    "run": _cmd_run,
    "score": _cmd_score,
    "validate-tables": _cmd_validate_tables,
    "chain": _cmd_chain,
    "list": _cmd_list,
}


# where each name `perfbench/tracing.py` wraps on this module lives
_TRACED_NAMES = {
    "load_scenario": "scenario",
    "run_episodes": "runner",
    "compare": "report",
    "render_csv": "report",
    "render_json": "report",
    "run_chain": "chains",
}


def __getattr__(name: str):
    """Resolve the six module-level names perfbench's lookup-site tracer pins here.

    The commands call these through their modules, so a traced call records
    one span, at the module's own lookup site. This function exists for
    that tracer until ROADMAP item 5 replaces it with an in-process span hook.
    """
    module = _TRACED_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits once it has printed help
            code = exc.code
        else:
            if args.command is None:
                parser.error("a command is required")
            _write(_COMMANDS[args.command](args))
            code = EXIT_OK
        sys.stdout.flush()  # a write to stdout that fails fails here, not at exit
        return code
    except _UsageError as exc:
        usage = " ".join(exc.parser.format_usage().split())  # one line: argparse wraps long usages
        print(f"{exc.parser.prog}: error: {exc} ({usage})", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a write to stdout has no filename; a read, or a write to --out, has one
        print(f"io error: stdout: {exc.strerror or exc}" if exc.filename is None else f"io error: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as null:  # a stand-in has no fileno
            if exc.filename is None:  # drop what stdout still holds, which exit would flush again
                os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
