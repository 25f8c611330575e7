"""The package's public names: each resolves from `agvsim` itself, loaded on first use."""

import pytest

import agvsim

# every name `agvsim` exported when it still imported all its submodules eagerly
PUBLIC_NAMES = {
    "AgencyBucket", "AgencyLevel", "AgentTuning", "Authority", "ChainSpec", "ChainStage", "ConfigError",
    "ContextSummary", "Decision", "DrivingMode", "EpisodeTrace", "Hazard", "InjectionEffectRecord",
    "IntentDescriptor", "Layer", "LayerPerturbation", "MemoryEntry", "MemoryKind", "MemoryStore",
    "MessageEnvelope", "MisalignmentReport", "OrdinalRating", "OutcomeClass", "PropagationTrace", "RoadClass",
    "Role", "Rulebook", "SafetyVerdict", "ScenarioConfig", "SeverityBand", "SeverityRecord", "StepRecord",
    "StrategyProposal", "Surface", "ThreatId", "ThreatInjection", "TransformOp", "UserRequest",
    "VehicleFeedback", "WorldTruth", "agency_bucket", "apply", "band", "builtin_chains", "classify_outcome",
    "compare", "control_feedback", "dsa_propose", "escalation_violations", "fuse", "legal_surfaces",
    "load_scenario", "load_shipped", "lookup", "make_envelope", "pa_interpret", "perceive", "points",
    "run_chain", "run_episodes", "sc_validate", "shipped_scenarios", "stealth_check", "total",
    "v2x_broadcast", "validate_tables", "what_if",
}


def test_the_table_holds_every_public_name():
    assert len(PUBLIC_NAMES) == 67
    assert set(agvsim.__all__) == PUBLIC_NAMES
    assert agvsim.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_each_public_name_resolves_to_its_modules_object(name):
    value = getattr(agvsim, name)
    module = __import__(value.__module__, fromlist=[name])
    assert getattr(module, name) is value


def test_dir_lists_every_public_name():
    assert PUBLIC_NAMES | {"__version__"} <= set(dir(agvsim))


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from agvsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'run_everything'"):
        agvsim.run_everything  # noqa: B018
    assert not hasattr(agvsim, "__wrapped__")
