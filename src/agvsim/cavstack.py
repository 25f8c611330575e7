"""Simulated upstream layers: world truth, perception/fusion, V2X, control feedback.

Attacks on these layers are declarative transforms over the *summaries* the
layers emit; ground truth is never edited. That keeps every perturbation
serializable in scenario files and replayable bit-exact, and it gives the
harness an oracle view the pipeline components cannot read. A layer is a pure
function of the world and the perturbations it is given.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from typing import TypeVar

from .domain import (
    FIELD_RANGES,
    ContextSummary,
    Hazard,
    RoadClass,
    SourceLayer,
    VehicleFeedback,
    is_finite_number,
    ranged,
    record,
)
from .serialize import digest_of


@record
class WorldTruth:
    """Harness-only oracle state. Pipeline components never read this.

    The true limit takes the range of the summary field the layers report it
    in. The true speed has a range of its own, up to 1,000 kph, a speed a
    vehicle can hold: the feedback the layers report may read any finite
    speed, but at a world speed past about 3.6e16 kph the float arithmetic of
    the SC's speed window loses its 108 kph width. No world past 238 kph
    loads, since no rule-compliant speed is reachable from it.
    """

    true_speed_limit_kph: float = ranged(*FIELD_RANGES[ContextSummary]["speed_limit_kph"])
    road_class: RoadClass
    vehicle_true_speed_kph: float = ranged(0.0, 1000.0)
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


@record
class LayerPerturbation:
    """One declarative edit of a layer summary.

    An unknown field or a nonsense op/field pair is rejected when it is
    built, so application never fails at run time. The numeric fields are
    the ranged fields of the layer's summary record in `FIELD_RANGES`.
    """

    layer: Layer
    field: str
    op: TransformOp
    value: object

    def __post_init__(self) -> None:
        feedback = self.layer is Layer.CONTROL_FEEDBACK
        if not feedback and self.field in ("hazards", "closures"):
            if self.op not in (TransformOp.INJECT_RECORD, TransformOp.DROP_RECORD):
                raise ValueError(f"field {self.field!r} only supports InjectRecord/DropRecord, got {self.op.value}")
        elif self.field in FIELD_RANGES[VehicleFeedback if feedback else ContextSummary]:
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


_LayerSummary = TypeVar("_LayerSummary", ContextSummary, VehicleFeedback)


def apply_summary_transform(summary: _LayerSummary, field: str, op: TransformOp, value: object) -> _LayerSummary:
    """Apply one transform, given as its field, op and value, to a layer summary."""
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

    # the field stays in its range even under hostile arithmetic
    updated = _apply_numeric(getattr(summary, field), op, value)  # type: ignore[arg-type]
    return replace(summary, **{field: _clamp(updated, *FIELD_RANGES[type(summary)][field])})


def _transformed(
    summary: _LayerSummary, perturbations: list[LayerPerturbation], layers: tuple[Layer, ...]
) -> _LayerSummary:
    """`summary` after the transforms of `layers`, in list order."""
    for p in perturbations:
        if p.layer in layers:
            summary = apply_summary_transform(summary, p.field, p.op, p.value)
    return summary


def _summary(
    world: WorldTruth, perturbations: list[LayerPerturbation], source: SourceLayer, layers: tuple[Layer, ...]
) -> ContextSummary:
    """The truth projection of `world` as `source` reports it, plus the transforms of `layers`, in list order."""
    summary = ContextSummary(
        world.true_speed_limit_kph, world.road_class, world.true_hazards, world.true_closures, source_layer=source
    )
    return _transformed(summary, perturbations, layers)


def perceive(world: WorldTruth, perturbations: list[LayerPerturbation]) -> ContextSummary:
    """Perception/fusion stack output: truth projection plus the given
    perception- or computing-layer transforms, applied in list order."""
    return _summary(world, perturbations, SourceLayer.FUSION, (Layer.PERCEPTION, Layer.COMPUTE))


def v2x_broadcast(world: WorldTruth, perturbations: list[LayerPerturbation]) -> ContextSummary:
    """Infrastructure/V2X channel output; V2X transforms only."""
    return _summary(world, perturbations, SourceLayer.V2X, (Layer.V2X,))


def control_feedback(world: WorldTruth, perturbations: list[LayerPerturbation]) -> VehicleFeedback:
    """Control-layer telemetry as reported upward, possibly falsified."""
    feedback = VehicleFeedback(speed_kph=world.vehicle_true_speed_kph)
    return _transformed(feedback, perturbations, (Layer.CONTROL_FEEDBACK,))


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
