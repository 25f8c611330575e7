"""Deterministic security-analysis simulator for agentic vehicle pipelines.

Implements a rule-based Personal Agent / Driving Strategy Agent / Safety
Check pipeline over a simulated CAV context stack, a registry of agentic and
cross-layer threat injectors, multi-stage attack chains with paired-run
propagation traces, and an ordinal severity-scoring engine over six
operating contexts.
"""

from .chains import (
    ChainSpec,
    ChainStage,
    OutcomeClass,
    PropagationTrace,
    builtin_chains,
    classify_outcome,
    run_chain,
)
from .domain import (
    AgencyBucket,
    AgencyLevel,
    Authority,
    ContextSummary,
    DrivingMode,
    Hazard,
    MessageEnvelope,
    RoadClass,
    Role,
    ThreatId,
    UserRequest,
    VehicleFeedback,
    agency_bucket,
    make_envelope,
)
from .cavstack import (
    Layer,
    LayerPerturbation,
    TransformOp,
    WorldTruth,
    control_feedback,
    fuse,
    perceive,
    v2x_broadcast,
)
from .pipeline import (
    AgentTuning,
    Decision,
    IntentDescriptor,
    MemoryEntry,
    MemoryKind,
    MemoryStore,
    Rulebook,
    SafetyVerdict,
    StrategyProposal,
    dsa_propose,
    pa_interpret,
    sc_validate,
)
from .report import MisalignmentReport, ReportFormat, compare, emit_report, emit_trace
from .runner import run_episodes
from .scenario import ConfigError, ScenarioConfig, load_scenario, load_shipped, shipped_scenarios
from .severity import (
    OrdinalRating,
    SeverityBand,
    SeverityRecord,
    band,
    escalation_violations,
    lookup,
    points,
    total,
    validate_tables,
    what_if,
)
from .threats import (
    InjectionEffectRecord,
    Surface,
    ThreatInjection,
    apply,
    legal_surfaces,
)
from .trace import EpisodeTrace, StepRecord, stealth_check

__version__ = "0.1.0"
