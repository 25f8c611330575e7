"""Simulated upstream layers: world truth, perception/fusion, V2X, control feedback.

Attacks on these layers are declarative transforms over the *summaries* the
layers emit; ground truth is never edited. That keeps every perturbation
serializable in scenario files and replayable bit-exact, and it gives the
harness an oracle view the pipeline components cannot read. A layer is a pure
function of the world and the perturbations it is given.
"""

from __future__ import annotations

import sys
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
from .serialize import digest_of


@dataclass(frozen=True)
class WorldTruth:
    """Harness-only oracle state. Pipeline components never read this."""

    true_speed_limit_kph: float
    road_class: RoadClass
    vehicle_true_speed_kph: float
    true_hazards: tuple[Hazard, ...] = ()
    true_closures: tuple[str, ...] = ()

    def digest(self) -> str:
        return digest_of({
            "limit": self.true_speed_limit_kph,
            "road": self.road_class,
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
    """One declarative edit of a layer summary.

    An unknown field or a nonsense op/field pair is rejected when it is
    built, so application never fails at run time.
    """

    layer: Layer
    field: str
    op: TransformOp
    value: object

    def __post_init__(self) -> None:
        if self.layer is Layer.CONTROL_FEEDBACK:
            known = _FEEDBACK_NUMERIC_FIELDS
            records: tuple[str, ...] = ()
        else:
            known = _CONTEXT_NUMERIC_FIELDS
            records = _CONTEXT_RECORD_FIELDS
        if self.field in records:
            if self.op not in (TransformOp.INJECT_RECORD, TransformOp.DROP_RECORD):
                raise ValueError(f"field {self.field!r} only supports InjectRecord/DropRecord, got {self.op.value}")
        elif self.field in known:
            if self.op in (TransformOp.INJECT_RECORD, TransformOp.DROP_RECORD):
                raise ValueError(f"field {self.field!r} is scalar; {self.op.value} needs a record field")
            if not is_finite_number(self.value):
                raise ValueError(f"transform on {self.field!r} needs a finite number, got {self.value!r}")
        else:
            raise ValueError(f"unknown {self.layer.value}-layer field {self.field!r}")
        if self.field == "hazards" and self.op is TransformOp.INJECT_RECORD and not isinstance(self.value, Hazard):
            raise ValueError("hazard injection needs a hazard record value")
        if self.field == "closures" and self.op is TransformOp.INJECT_RECORD and not isinstance(self.value, str):
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


def apply_summary_transform(summary: ContextSummary, field: str, op: TransformOp, value: object) -> ContextSummary:
    """Apply one transform, given as its field, op and value, to a context summary."""
    if field == "hazards":
        hazards = list(summary.hazards)
        if op is TransformOp.INJECT_RECORD:
            hazards.append(value)  # type: ignore[arg-type]
        else:
            hazards = [h for h in hazards if h.kind != value]
        return replace(summary, hazards=tuple(hazards))
    if field == "closures":
        closures = list(summary.closures)
        if op is TransformOp.INJECT_RECORD:
            if value not in closures:
                closures.append(value)  # type: ignore[arg-type]
        else:
            closures = [c for c in closures if c != value]
        return replace(summary, closures=tuple(closures))

    updated = _apply_numeric(getattr(summary, field), op, value)  # type: ignore[arg-type]
    if field == "speed_limit_kph":  # limits stay in range even under hostile arithmetic
        updated = _clamp(updated, MIN_SPEED_KPH, MAX_SPEED_LIMIT_KPH)
    else:  # traffic_density, completeness
        updated = _clamp(updated, 0.0, 1.0)
    return replace(summary, **{field: updated})


# the range each telemetry field is clamped to: every field stays finite, so
# hostile arithmetic (Set 1e308, then Scale 10) saturates instead of reaching inf
_FEEDBACK_RANGE = {"speed_kph": (0.0, sys.float_info.max), "braking": (0.0, 1.0)}


def apply_feedback_transform(feedback: VehicleFeedback, p: LayerPerturbation) -> VehicleFeedback:
    """Apply one transform to control-layer telemetry."""
    updated = _apply_numeric(getattr(feedback, p.field), p.op, p.value)  # type: ignore[arg-type]
    lo, hi = _FEEDBACK_RANGE.get(p.field, (-sys.float_info.max, sys.float_info.max))
    return replace(feedback, **{p.field: _clamp(updated, lo, hi)})


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


def perceive(world: WorldTruth, perturbations: list[LayerPerturbation]) -> ContextSummary:
    """Perception/fusion stack output: truth projection plus the given
    perception- or computing-layer transforms, applied in list order."""
    summary = _truth_projection(world, SourceLayer.FUSION)
    for p in perturbations:
        if p.layer in (Layer.PERCEPTION, Layer.COMPUTE):
            summary = apply_summary_transform(summary, p.field, p.op, p.value)
    return summary


def v2x_broadcast(world: WorldTruth, perturbations: list[LayerPerturbation]) -> ContextSummary:
    """Infrastructure/V2X channel output; V2X transforms only."""
    summary = _truth_projection(world, SourceLayer.V2X)
    for p in perturbations:
        if p.layer is Layer.V2X:
            summary = apply_summary_transform(summary, p.field, p.op, p.value)
    return summary


def control_feedback(world: WorldTruth, perturbations: list[LayerPerturbation]) -> VehicleFeedback:
    """Control-layer telemetry as reported upward, possibly falsified."""
    feedback = VehicleFeedback(speed_kph=world.vehicle_true_speed_kph)
    for p in perturbations:
        if p.layer is Layer.CONTROL_FEEDBACK:
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
