"""Deterministic security-analysis simulator for agentic vehicle pipelines.

Implements a rule-based Personal Agent / Driving Strategy Agent / Safety
Check pipeline over a simulated CAV context stack, a registry of agentic and
cross-layer threat injectors, multi-stage attack chains with paired-run
propagation traces, and an ordinal severity-scoring engine over six
operating contexts.

The public names load on first use (PEP 562): `import agvsim` loads no
submodule, and `agvsim.run_chain` loads `agvsim.chains` and what it imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cavstack": (
        "Layer", "LayerPerturbation", "TransformOp", "WorldTruth",
        "control_feedback", "fuse", "perceive", "v2x_broadcast",
    ),
    "chains": ("ChainSpec", "ChainStage", "PropagationTrace", "builtin_chains", "run_chain"),
    "domain": (
        "AgencyBucket", "AgencyLevel", "Authority", "ConfigError", "ContextSummary", "DrivingMode",
        "Hazard", "MessageEnvelope", "RoadClass", "Role", "ThreatId", "UserRequest",
        "VehicleFeedback", "agency_bucket", "make_envelope",
    ),
    "pipeline": (
        "AgentTuning", "Decision", "IntentDescriptor", "MemoryEntry", "MemoryKind", "MemoryStore",
        "Rulebook", "SafetyVerdict", "StrategyProposal", "dsa_propose", "pa_interpret", "sc_validate",
    ),
    "report": ("MisalignmentReport", "compare"),
    "runner": ("run_episodes",),
    "scenario": ("ScenarioConfig", "load_scenario", "load_shipped", "shipped_scenarios"),
    "severity": (
        "OrdinalRating", "SeverityBand", "SeverityRecord", "band", "escalation_violations",
        "lookup", "points", "total", "validate_tables", "what_if",
    ),
    "threats": ("InjectionEffectRecord", "Surface", "ThreatInjection", "apply", "legal_surfaces"),
    "trace": ("EpisodeTrace", "OutcomeClass", "StepRecord", "classify_outcome", "stealth_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
