"""Run one agvsim command with the tracing wrappers installed.

Usage: python perfbench/cli_child.py <spans.json> <agvsim arguments...>

The traced run of the cli-cold workload starts this instead of
``python -m agvsim.cli``; the spans go to the given file for the parent
benchmark process to aggregate.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        from agvsim import cli

        code = cli.main(argv)
    with open(spans_path, "w") as f:
        json.dump(tracer.take(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
