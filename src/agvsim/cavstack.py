"""Simulated upstream layers: world truth, perception/fusion, V2X, control feedback.

Attacks on these layers are declarative transforms over the *summaries* the
layers emit; ground truth is never edited. That keeps every perturbation
serializable in scenario files and replayable bit-exact, and it gives the
harness an oracle view the pipeline components cannot read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .domain import (
    MAX_SPEED_LIMIT_KPH,
    MIN_SPEED_KPH,
    ContextSummary,
    Hazard,
    RoadClass,
    SourceLayer,
    VehicleFeedback,
    is_finite_number,
)
from .serialize import _plain_digest


@dataclass(frozen=True)
class WorldTruth:
    """Harness-only oracle state. Pipeline components never read this."""

    true_speed_limit_kph: float
    road_class: RoadClass
    vehicle_true_speed_kph: float
    true_hazards: tuple[Hazard, ...] = ()
    true_closures: tuple[str, ...] = ()

    def digest(self) -> str:
        return _plain_digest({
            "limit": self.true_speed_limit_kph,
            "road": self.road_class.value,
            "speed": self.vehicle_true_speed_kph,
            "hazards": [[h.kind, h.distance_m, h.confidence] for h in self.true_hazards],
            "closures": list(self.true_closures),
        })


class Layer(str, Enum):
    PERCEPTION = "Perception"
    V2X = "V2X"
    COMPUTE = "Compute"
    CONTROL_FEEDBACK = "ControlFeedback"


class TransformOp(str, Enum):
    SET = "Set"
    ADD = "Add"
    SCALE = "Scale"
    INJECT_RECORD = "InjectRecord"
    DROP_RECORD = "DropRecord"


# field -> (record-valued?, applies to context summaries?)
_CONTEXT_NUMERIC_FIELDS = ("speed_limit_kph", "traffic_density", "completeness")
_CONTEXT_RECORD_FIELDS = ("hazards", "closures")
_FEEDBACK_NUMERIC_FIELDS = ("speed_kph", "accel_mps2", "steering_deg", "braking")


@dataclass(frozen=True)
class LayerPerturbation:
    """One declarative edit of a layer summary, active over a step window."""

    layer: Layer
    field: str
    op: TransformOp
    value: object
    window: tuple[int, int] = (0, 2**31 - 1)  # [start, end] inclusive, global steps

    def active(self, step: int) -> bool:
        return self.window[0] <= step <= self.window[1]


def validate_perturbation(p: LayerPerturbation) -> None:
    """Reject transforms over unknown fields or nonsense op/field pairs.

    This runs at configuration-load time; application never fails at runtime.
    """
    if p.layer is Layer.CONTROL_FEEDBACK:
        known = _FEEDBACK_NUMERIC_FIELDS
        records: tuple[str, ...] = ()
    else:
        known = _CONTEXT_NUMERIC_FIELDS
        records = _CONTEXT_RECORD_FIELDS
    if p.field in records:
        if p.op not in (TransformOp.INJECT_RECORD, TransformOp.DROP_RECORD):
            raise ValueError(f"field {p.field!r} only supports InjectRecord/DropRecord, got {p.op.value}")
    elif p.field in known:
        if p.op in (TransformOp.INJECT_RECORD, TransformOp.DROP_RECORD):
            raise ValueError(f"field {p.field!r} is scalar; {p.op.value} needs a record field")
        if not is_finite_number(p.value):
            raise ValueError(f"transform on {p.field!r} needs a finite number, got {p.value!r}")
    else:
        raise ValueError(f"unknown {p.layer.value}-layer field {p.field!r}")
    if p.window[0] < 0 or p.window[1] < p.window[0]:
        raise ValueError(f"bad window {p.window}")
    if p.field == "hazards" and p.op is TransformOp.INJECT_RECORD and not isinstance(p.value, Hazard):
        raise ValueError("hazard injection needs a hazard record value")
    if p.field == "closures" and p.op is TransformOp.INJECT_RECORD and not isinstance(p.value, str):
        raise ValueError("closure injection needs a segment-id string value")


def _apply_numeric(current: float, op: TransformOp, value: float) -> float:
    if op is TransformOp.SET:
        return float(value)
    if op is TransformOp.ADD:
        return current + float(value)
    if op is TransformOp.SCALE:
        return current * float(value)
    raise AssertionError(f"unreachable op {op}")


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def apply_summary_transform(summary: ContextSummary, p: LayerPerturbation) -> ContextSummary:
    """Apply one transform to a context summary (window already checked)."""
    if p.field == "hazards":
        hazards = list(summary.hazards)
        if p.op is TransformOp.INJECT_RECORD:
            hazards.append(p.value)  # type: ignore[arg-type]
        else:
            hazards = [h for h in hazards if h.kind != p.value]
        return replace(summary, hazards=tuple(hazards))
    if p.field == "closures":
        closures = list(summary.closures)
        if p.op is TransformOp.INJECT_RECORD:
            if p.value not in closures:
                closures.append(p.value)  # type: ignore[arg-type]
        else:
            closures = [c for c in closures if c != p.value]
        return replace(summary, closures=tuple(closures))

    current = getattr(summary, p.field)
    updated = _apply_numeric(current, p.op, p.value)  # type: ignore[arg-type]
    if p.field == "speed_limit_kph":  # limits stay in range even under hostile arithmetic
        updated = _clamp(updated, MIN_SPEED_KPH, MAX_SPEED_LIMIT_KPH)
    else:  # traffic_density, completeness
        updated = _clamp(updated, 0.0, 1.0)
    return replace(summary, **{p.field: updated})


def apply_feedback_transform(feedback: VehicleFeedback, p: LayerPerturbation) -> VehicleFeedback:
    """Apply one transform to control-layer telemetry (window already checked)."""
    updated = _apply_numeric(getattr(feedback, p.field), p.op, p.value)  # type: ignore[arg-type]
    if p.field == "speed_kph":
        updated = max(updated, 0.0)
    elif p.field == "braking":
        updated = _clamp(updated, 0.0, 1.0)
    return replace(feedback, **{p.field: updated})


def _truth_projection(world: WorldTruth, source: SourceLayer) -> ContextSummary:
    return ContextSummary(
        speed_limit_kph=world.true_speed_limit_kph,
        road_class=world.road_class,
        hazards=world.true_hazards,
        closures=world.true_closures,
        traffic_density=0.0,
        source_layer=source,
        completeness=1.0,
    )


def perceive(
    world: WorldTruth, perturbations: list[LayerPerturbation], step: int
) -> ContextSummary:
    """Perception/fusion stack output: truth projection plus any active
    perception- or computing-layer transforms, applied in list order."""
    summary = _truth_projection(world, SourceLayer.FUSION)
    for p in perturbations:
        if p.layer in (Layer.PERCEPTION, Layer.COMPUTE) and p.active(step):
            summary = apply_summary_transform(summary, p)
    return summary


def v2x_broadcast(
    world: WorldTruth, perturbations: list[LayerPerturbation], step: int
) -> ContextSummary:
    """Infrastructure/V2X channel output; V2X transforms only."""
    summary = _truth_projection(world, SourceLayer.V2X)
    for p in perturbations:
        if p.layer is Layer.V2X and p.active(step):
            summary = apply_summary_transform(summary, p)
    return summary


def control_feedback(
    world: WorldTruth, perturbations: list[LayerPerturbation], step: int
) -> VehicleFeedback:
    """Control-layer telemetry as reported upward, possibly falsified."""
    feedback = VehicleFeedback(speed_kph=world.vehicle_true_speed_kph)
    for p in perturbations:
        if p.layer is Layer.CONTROL_FEEDBACK and p.active(step):
            feedback = apply_feedback_transform(feedback, p)
    return feedback


def fuse(summaries: list[ContextSummary]) -> ContextSummary:
    """Deterministic field-wise merge of several context sources.

    Speed limit takes the minimum and completeness the minimum, hazards and
    closures the union, traffic density the maximum. A single spoofed source
    therefore dominates the fused limit, which is the propagation mechanism
    the layer attacks rely on.
    """
    if not summaries:
        raise ValueError("fuse needs at least one summary")
    hazards: list[Hazard] = []
    closures: list[str] = []
    for s in summaries:
        for h in s.hazards:
            if h not in hazards:
                hazards.append(h)
        for c in s.closures:
            if c not in closures:
                closures.append(c)
    return ContextSummary(
        speed_limit_kph=min(s.speed_limit_kph for s in summaries),
        road_class=summaries[0].road_class,
        hazards=tuple(hazards),
        closures=tuple(closures),
        traffic_density=max(s.traffic_density for s in summaries),
        source_layer=SourceLayer.FUSION,
        completeness=min(s.completeness for s in summaries),
    )
