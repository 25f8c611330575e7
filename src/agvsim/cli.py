"""Command-line front end.

Exit codes: 0 success, 1 configuration/usage error, 2 I/O error (of --out or
stdout). The seed may come from --seed, the AGV_SIM_SEED environment
variable, or the scenario file, in that precedence order.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .chains import builtin_chain, builtin_chains, run_chain
from .domain import AgencyBucket, DrivingMode, ThreatId, agency_bucket
from .pipeline import PipelineError
from .report import ReportFormat, ReportIOError, compare, emit_report, emit_trace, render_csv, render_json
from .runner import run_episodes
from .scenario import ConfigError, load_chain_spec, load_scenario, load_shipped, shipped_scenarios
from .severity import DIMENSIONS, OrdinalRating, validate_tables, what_if
from .threats import legal_surfaces

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
    if os.path.exists(ref):
        return load_scenario(ref)
    return load_shipped(ref)


def _write_export(text: str) -> None:
    """Exports go to stdout as UTF-8 whatever the locale, the same bytes `--out` writes."""
    sys.stdout.flush()
    sys.stdout.buffer.write(text.encode("utf-8"))


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_scenario_arg(args.scenario)
    seed = _resolve_seed(args.seed)

    if args.baseline_only or args.attacked_only:
        trace = run_episodes(config, with_injections=args.attacked_only, seed=seed)
        if args.out:
            emit_trace(trace, args.out)
        else:
            _write_export(trace.to_json() + "\n")
        return EXIT_OK

    baseline = run_episodes(config, with_injections=False, seed=seed)
    attacked = run_episodes(config, with_injections=True, seed=seed)
    report = compare(baseline, attacked)
    format_ = ReportFormat(args.format)
    if args.out:
        emit_report(report, format_, args.out)
        if format_ is ReportFormat.CSV:
            # the hierarchical trace export rides along for CSV outputs
            emit_report(report, ReportFormat.JSON, args.out + ".trace.json")
    else:
        _write_export(render_csv(report) if format_ is ReportFormat.CSV else render_json(report))
    return EXIT_OK


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


def _cmd_score(args: argparse.Namespace) -> int:
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
    print(f"{total} {band.value}")
    return EXIT_OK


def _cmd_validate_tables(_: argparse.Namespace) -> int:
    discrepancies = validate_tables()
    for d in discrepancies:
        print(d.describe())
    print(f"{len(discrepancies)} inconsistent cells out of 90")
    return EXIT_OK


def _cmd_chain(args: argparse.Namespace) -> int:
    if os.path.exists(args.chain):
        spec = load_chain_spec(args.chain)
    else:
        try:
            spec = builtin_chain(args.chain)
        except KeyError as exc:
            raise ConfigError("chain", exc.args[0]) from exc
    scenario = _load_scenario_arg(args.scenario) if args.scenario else load_shipped("chain-base")
    seed = _resolve_seed(args.seed)
    propagation, _ = run_chain(spec, scenario, seed=seed)
    print(f"chain:    {propagation.chain_id}")
    print(f"outcome:  {propagation.outcome.value}")
    print(f"stealth:  {'true' if propagation.stealth else 'false'}")
    for delta in propagation.stage_deltas:
        fired = "never" if delta.fired_step is None else f"step {delta.fired_step}"
        fields = ", ".join(delta.changed_fields) if delta.changed_fields else "-"
        print(f"stage {delta.stage_index} [{delta.kind.value}/{delta.label or delta.detail}]: "
              f"fired {fired}; fields: {fields}")
    return EXIT_OK


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "threats":
        for threat in ThreatId:
            surfaces = ", ".join(sorted(s.value for s in legal_surfaces(threat)))
            print(f"{threat.value}: {surfaces}")
    elif args.what == "chains":
        for spec in builtin_chains():
            stages = " -> ".join(
                (stage.injection.threat.value if stage.injection else f"observe:{stage.probe}")
                for stage in spec.stages
            )
            print(f"{spec.id}: {stages}")
    else:
        for name, path in shipped_scenarios().items():
            print(f"{name}: {path}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "score": _cmd_score,
    "validate-tables": _cmd_validate_tables,
    "chain": _cmd_chain,
    "list": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a command is required")
    except _UsageError as exc:
        usage = " ".join(exc.parser.format_usage().split())  # one line: argparse wraps long usages
        print(f"{exc.parser.prog}: error: {exc} ({usage})", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a write to stdout that fails fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReportIOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:  # a write to stdout has no filename; a read, such as of package data, has one
        print(f"io error: stdout: {exc.strerror or exc}" if exc.filename is None else f"io error: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as null:  # a stand-in has no fileno
            if exc.filename is None:  # drop what stdout still holds, which exit would flush again
                os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
