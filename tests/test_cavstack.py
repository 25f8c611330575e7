"""Layer simulation: truth projection, declarative transforms, fusion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agvsim.cavstack import (
    Layer,
    LayerPerturbation,
    TransformOp,
    WorldTruth,
    control_feedback,
    fuse,
    perceive,
    v2x_broadcast,
)
from agvsim.domain import ContextSummary, Hazard, RoadClass, SourceLayer


def world(limit: float = 90.0, speed: float = 72.0, hazards=(), closures=()) -> WorldTruth:
    return WorldTruth(
        true_speed_limit_kph=limit,
        road_class=RoadClass.HIGHWAY,
        vehicle_true_speed_kph=speed,
        true_hazards=tuple(hazards),
        true_closures=tuple(closures),
    )


def perturb(layer: Layer, field: str, op: TransformOp, value) -> LayerPerturbation:
    return LayerPerturbation(layer=layer, field=field, op=op, value=value)


class TestPerceive:
    def test_identity_projection(self):
        summary = perceive(world(limit=90.0), [])
        assert summary.speed_limit_kph == 90.0
        assert summary.source_layer is SourceLayer.FUSION
        assert summary.completeness == 1.0

    def test_inject_phantom_hazard(self):
        phantom = Hazard(kind="phantom", distance_m=60.0, confidence=0.9)
        p = perturb(Layer.PERCEPTION, "hazards", TransformOp.INJECT_RECORD, phantom)
        summary = perceive(world(), [p])
        assert phantom in summary.hazards

    def test_scale_limit_half(self):
        p = perturb(Layer.PERCEPTION, "speed_limit_kph", TransformOp.SCALE, 0.5)
        assert perceive(world(limit=80.0), [p]).speed_limit_kph == 40.0

    def test_compute_layer_transforms_also_apply(self):
        p = perturb(Layer.COMPUTE, "speed_limit_kph", TransformOp.ADD, -20.0)
        assert perceive(world(limit=90.0), [p]).speed_limit_kph == 70.0

    def test_v2x_transforms_do_not_apply_to_perception(self):
        p = perturb(Layer.V2X, "speed_limit_kph", TransformOp.SET, 40.0)
        assert perceive(world(limit=90.0), [p]).speed_limit_kph == 90.0

    def test_transforms_apply_in_list_order(self):
        double = perturb(Layer.PERCEPTION, "speed_limit_kph", TransformOp.SCALE, 2.0)
        minus_fifty = perturb(Layer.PERCEPTION, "speed_limit_kph", TransformOp.ADD, -50.0)
        assert perceive(world(limit=60.0), [double, minus_fifty]).speed_limit_kph == 70.0
        assert perceive(world(limit=60.0), [minus_fifty, double]).speed_limit_kph == 20.0


class TestV2X:
    def test_set_limit_40_on_truth_80(self):
        p = perturb(Layer.V2X, "speed_limit_kph", TransformOp.SET, 40.0)
        summary = v2x_broadcast(world(limit=80.0), [p])
        assert summary.speed_limit_kph == 40.0
        assert summary.source_layer is SourceLayer.V2X

    def test_inject_closure(self):
        p = perturb(Layer.V2X, "closures", TransformOp.INJECT_RECORD, "R7")
        assert "R7" in v2x_broadcast(world(), [p]).closures


class TestControlFeedback:
    def test_identity(self):
        assert control_feedback(world(speed=72.0), []).speed_kph == 72.0

    def test_add_negative_offset(self):
        p = perturb(Layer.CONTROL_FEEDBACK, "speed_kph", TransformOp.ADD, -30.0)
        assert control_feedback(world(speed=72.0), [p]).speed_kph == 42.0

    def test_set_braking(self):
        p = perturb(Layer.CONTROL_FEEDBACK, "braking", TransformOp.SET, 1.0)
        assert control_feedback(world(), [p]).braking == 1.0

    def test_speed_clamped_nonnegative(self):
        p = perturb(Layer.CONTROL_FEEDBACK, "speed_kph", TransformOp.ADD, -500.0)
        assert control_feedback(world(speed=72.0), [p]).speed_kph == 0.0


def summary(limit: float, source=SourceLayer.FUSION, hazards=(), closures=(), completeness=1.0):
    return ContextSummary(
        speed_limit_kph=limit,
        road_class=RoadClass.HIGHWAY,
        hazards=tuple(hazards),
        closures=tuple(closures),
        source_layer=source,
        completeness=completeness,
    )


class TestFuse:
    def test_min_limit_dominates(self):
        fused = fuse([summary(90.0, SourceLayer.PERCEPTION), summary(40.0, SourceLayer.V2X)])
        assert fused.speed_limit_kph == 40.0
        assert fused.source_layer is SourceLayer.FUSION

    def test_single_summary_identity_fields(self):
        one = summary(77.0, hazards=[Hazard("debris", 10.0, 0.8)], closures=["A1"])
        fused = fuse([one])
        assert fused.speed_limit_kph == one.speed_limit_kph
        assert fused.hazards == one.hazards
        assert fused.closures == one.closures

    def test_union_of_disjoint_hazard_sets(self):
        a = summary(90.0, hazards=[Hazard("a", 1.0, 0.5)])
        b = summary(90.0, hazards=[Hazard("b", 2.0, 0.5), Hazard("c", 3.0, 0.5)])
        assert len(fuse([a, b]).hazards) == 3

    def test_duplicate_hazards_not_double_counted(self):
        h = Hazard("a", 1.0, 0.5)
        assert len(fuse([summary(90.0, hazards=[h]), summary(90.0, hazards=[h])]).hazards) == 1

    def test_completeness_takes_minimum(self):
        fused = fuse([summary(90.0, completeness=1.0), summary(90.0, completeness=0.5)])
        assert fused.completeness == 0.5

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            fuse([])

    @given(
        limits=st.lists(st.floats(min_value=1.0, max_value=200.0), min_size=1, max_size=5)
    )
    @settings(max_examples=100, deadline=None)
    def test_min_dominance_property(self, limits):
        fused = fuse([summary(l) for l in limits])
        assert all(fused.speed_limit_kph <= l for l in limits)


class TestValidation:
    def test_unknown_field_rejected_at_load(self):
        with pytest.raises(ValueError):
            perturb(Layer.PERCEPTION, "wheel_diameter", TransformOp.SET, 1.0)

    def test_scalar_op_on_record_field_rejected(self):
        with pytest.raises(ValueError):
            perturb(Layer.V2X, "closures", TransformOp.SCALE, 2.0)

    def test_record_op_on_scalar_field_rejected(self):
        with pytest.raises(ValueError):
            perturb(Layer.V2X, "speed_limit_kph", TransformOp.INJECT_RECORD, 40.0)

    def test_feedback_fields_only_on_control_layer(self):
        with pytest.raises(ValueError):
            perturb(Layer.PERCEPTION, "braking", TransformOp.SET, 1.0)


class TestWorldTruthImmutability:
    def test_frozen(self):
        w = world()
        with pytest.raises(AttributeError):
            w.true_speed_limit_kph = 1.0  # type: ignore[misc]

    def test_layer_functions_never_touch_truth(self):
        w = world(limit=80.0, hazards=[Hazard("real", 30.0, 0.9)])
        before = w.digest()
        perturbations = [
            perturb(Layer.PERCEPTION, "speed_limit_kph", TransformOp.SET, 10.0),
            perturb(Layer.V2X, "closures", TransformOp.INJECT_RECORD, "R9"),
            perturb(Layer.PERCEPTION, "hazards", TransformOp.DROP_RECORD, "real"),
            perturb(Layer.CONTROL_FEEDBACK, "speed_kph", TransformOp.SET, 0.0),
        ]
        perceive(w, perturbations)
        v2x_broadcast(w, perturbations)
        control_feedback(w, perturbations)
        assert w.digest() == before
