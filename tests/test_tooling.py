"""Guards for the tooling that reaches into the package from outside it."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    # `perfbench/run.py --trace 1` wraps these lookup sites; a rename breaks it
    tracing = _load_tracing()
    missing = []
    for owner_path, attr, _ in tracing.TARGETS:
        owner = tracing._resolve(owner_path)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, missing
