import json
import math

import numpy as np
import pytest

from parkfield.errors import GeometryError, ScenarioError
from parkfield.field import FieldSet, gamma_many
from parkfield.geometry import Point2, Polygon, SPOT_EDGE
from parkfield.scenario import (
    CabinContext,
    DEFAULT_CLEARANCE_TABLE,
    Rect,
    VehicleFootprint,
    VehicleSpec,
    build_footprint,
    load_scenario,
    make_spot,
    make_spot_from_center,
    spot_field_set,
)

from conftest import load_golden, read_scenario, to_local, total_area

MINIMAL = json.dumps(
    {
        "spots": [
            {
                "id": "only",
                "corners": [[0, 0], [5, 0], [5, 2.5], [0, 2.5]],
                "approach_side": "x_max",
            }
        ]
    }
)


# ---------------------------------------------------------------------------
# load_scenario
# ---------------------------------------------------------------------------


def test_minimal_scenario():
    scenario = load_scenario(MINIMAL)
    assert len(scenario.spots) == 1
    assert len(scenario.obstacles) == 0
    assert not scenario.context.occupied
    spot = scenario.spots[0]
    assert spot.length == pytest.approx(5.0)
    assert spot.width == pytest.approx(2.5)


def test_load_is_pure():
    assert load_scenario(MINIMAL) == load_scenario(MINIMAL)


def test_spot_frame_maps_corners_to_local_rectangle():
    scenario = load_scenario(read_scenario("empty_spot.json"))
    spot = scenario.spots[0]
    expected = [(0, 0), (spot.length, 0), (spot.length, spot.width), (0, spot.width)]
    for corner, (ex, ey) in zip(spot.corners, expected):
        local = to_local(spot, corner)
        assert (local.x, local.y) == pytest.approx((ex, ey), abs=1e-9)
        back = spot.to_global(local)
        assert (back.x, back.y) == pytest.approx((corner.x, corner.y), abs=1e-9)


def test_spot_from_center_matches_corners():
    heading = 0.7
    spot = make_spot_from_center("s", Point2(3, -2), 5.0, 2.5, heading, "y_min")
    assert spot.length == pytest.approx(5.0)
    assert spot.width == pytest.approx(2.5)
    local = to_local(spot, Point2(3, -2))
    assert (local.x, local.y) == pytest.approx((2.5, 1.25), abs=1e-9)


def test_clockwise_obstacle_repaired_with_warning():
    doc = json.loads(MINIMAL)
    doc["obstacles"] = [
        {"id": "cw", "vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]}
    ]
    with pytest.warns(UserWarning, match="clockwise"):
        scenario = load_scenario(json.dumps(doc))
    assert len(scenario.obstacles) == 1


def test_family_context_scenario_has_three_maneuver_rects():
    scenario = load_golden("loaded_family_context.json")
    footprint = build_footprint(scenario.context, scenario.vehicle)
    assert len(footprint.maneuver_rects) == 3
    assert set(footprint.labels()) == {"front_left_door", "rear_right_door", "trunk"}


def test_schema_error_paths():
    cases = [
        ("{", "$"),
        ("[]", "$"),
        ('{"spots": []}', "spots"),
        ('{"spots": "no"}', "spots"),
        ('{"spots": [{"id": "", "center": [0,0]}]}', "spots[0].id"),
        (
            '{"spots": [{"id": "a", "corners": [[0,0],[1,0],[1,1]]}]}',
            "spots[0].corners",
        ),
        (
            '{"spots": [{"id": "a", "center": [0,0], "length": 5, "width": 2.5, '
            '"approach_side": "north"}]}',
            "spots[0].approach_side",
        ),
        (
            MINIMAL[:-1] + ', "cabin": {"seats": {"driver": "dog"}}}',
            "cabin.seats.driver",
        ),
        (MINIMAL[:-1] + ', "extra": 1}', "$.extra"),
    ]
    for text, path in cases:
        with pytest.raises(ScenarioError) as err:
            load_scenario(text)
        assert err.value.path == path, text


def test_duplicate_spot_id_rejected():
    doc = json.loads(MINIMAL)
    doc["spots"].append(dict(doc["spots"][0]))
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(json.dumps(doc))


def test_non_convex_obstacle_names_polygon():
    doc = json.loads(MINIMAL)
    doc["obstacles"] = [
        {"id": "dart", "vertices": [[0, 0], [2, 0], [0.2, 0.2], [0, 2]]}
    ]
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(doc))
    assert "dart" in str(err.value)
    assert err.value.path == "obstacles[0].vertices"


def test_rectangle_residual_reported():
    doc = json.loads(MINIMAL)
    doc["spots"][0]["corners"] = [[0, 0], [5, 0], [5.2, 2.5], [0, 2.5]]
    with pytest.raises(ScenarioError, match="deviate from a rectangle"):
        load_scenario(json.dumps(doc))


def test_baby_in_driver_seat_rejected():
    doc = json.loads(MINIMAL)
    doc["cabin"] = {"seats": {"driver": "baby"}}
    with pytest.raises(ScenarioError, match="driver"):
        load_scenario(json.dumps(doc))


def test_clearance_table_override_and_validation():
    doc = json.loads(MINIMAL)
    doc["vehicle"] = {"clearance_table": {"adult_door": 0.5}}
    scenario = load_scenario(json.dumps(doc))
    assert scenario.vehicle.clearance_table["adult_door"] == 0.5
    assert (
        scenario.vehicle.clearance_table["baby_door"]
        == DEFAULT_CLEARANCE_TABLE["baby_door"]
    )
    doc["vehicle"] = {"clearance_table": {"cat_door": 0.5}}
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(doc))
    assert err.value.path == "vehicle.clearance_table.cat_door"


# ---------------------------------------------------------------------------
# build_footprint
# ---------------------------------------------------------------------------


def test_empty_cabin_empty_trunk_keeps_driver_band():
    footprint = build_footprint(CabinContext(), VehicleSpec())
    assert footprint.labels() == ["front_left_door"]
    rect = footprint.maneuver_rects[0][0]
    assert rect.y_min == pytest.approx(0.9)
    assert rect.y_max == pytest.approx(0.9 + DEFAULT_CLEARANCE_TABLE["adult_door"])


def test_driver_and_baby_rects():
    context = CabinContext({"driver": "adult", "rear_right": "baby"})
    footprint = build_footprint(context, VehicleSpec())
    rects = dict((label, rect) for rect, label in footprint.maneuver_rects)
    assert "front_left_door" in rects and "rear_right_door" in rects
    adult = rects["front_left_door"]
    baby = rects["rear_right_door"]
    adult_depth = adult.y_max - adult.y_min
    baby_depth = baby.y_max - baby.y_min
    assert baby_depth > adult_depth
    # driver door on the left half-plane, front row; baby on the right, rear
    assert adult.y_min > 0 and adult.x_min == 0.0
    assert baby.y_max < 0 and baby.x_max == 0.0


def test_trunk_depth_larger_when_loaded():
    context_loaded = CabinContext({"driver": "adult"}, trunk_loaded=True)
    context_empty = CabinContext({"driver": "adult"}, trunk_loaded=False)
    spec = VehicleSpec()
    trunk_depth = {}
    for name, context in (("loaded", context_loaded), ("empty", context_empty)):
        rects = dict(
            (label, rect)
            for rect, label in build_footprint(context, spec).maneuver_rects
        )
        trunk = rects["trunk"]
        trunk_depth[name] = trunk.x_max - trunk.x_min
    assert trunk_depth["loaded"] > trunk_depth["empty"]


def test_footprint_monotone_under_added_occupant():
    spec = VehicleSpec()
    base = build_footprint(CabinContext({"driver": "adult"}), spec)
    more = build_footprint(
        CabinContext({"driver": "adult", "rear_left": "adult"}), spec
    )
    base_rects = dict((label, rect) for rect, label in base.maneuver_rects)
    more_rects = dict((label, rect) for rect, label in more.maneuver_rects)
    for label, rect in base_rects.items():
        grown = more_rects[label]
        assert grown.x_min <= rect.x_min and grown.x_max >= rect.x_max
        assert grown.y_min <= rect.y_min and grown.y_max >= rect.y_max


def test_rear_middle_uses_left_door():
    context = CabinContext({"driver": "adult", "rear_middle": "adult"})
    footprint = build_footprint(context, VehicleSpec())
    assert "rear_left_door" in footprint.labels()


def test_shared_slot_takes_max_depth():
    spec = VehicleSpec()
    context = CabinContext(
        {"driver": "adult", "rear_left": "adult", "rear_middle": "baby"}
    )
    rects = dict(
        (label, rect) for rect, label in build_footprint(context, spec).maneuver_rects
    )
    depth = rects["rear_left_door"].y_max - rects["rear_left_door"].y_min
    assert depth == pytest.approx(spec.clearance_table["baby_door"])


def test_footprint_area_is_sum_of_parts():
    context = CabinContext(
        {"driver": "adult", "front_passenger": "adult", "rear_right": "baby"},
        trunk_loaded=True,
    )
    footprint = build_footprint(context, VehicleSpec())
    total = total_area(footprint)
    parts = footprint.body.area + sum(r.area for r, _ in footprint.maneuver_rects)
    assert total == pytest.approx(parts)
    # no pairwise overlaps
    rects = footprint.all_rects()
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a, b = rects[i], rects[j]
            dx = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
            dy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
            assert min(dx, dy) <= 1e-12


def test_footprint_body_contains_origin():
    with pytest.raises(GeometryError):
        VehicleFootprint(Rect(1.0, 2.0, -0.5, 0.5))


def test_max_reach():
    footprint = VehicleFootprint(Rect(-2, 2, -1, 1))
    assert footprint.max_reach() == pytest.approx(math.hypot(2, 1))


# ---------------------------------------------------------------------------
# spot_field_set
# ---------------------------------------------------------------------------


def _spot():
    return make_spot(
        "s",
        [Point2(0, 0), Point2(5, 0), Point2(5, 2.5), Point2(0, 2.5)],
        "x_max",
    )


def test_empty_spot_yields_four_edges():
    fields = spot_field_set(_spot(), [])
    assert len(fields.polygons) == 4
    assert all(p.kind == SPOT_EDGE for p in fields.polygons)


def test_spot_edges_negative_inside_positive_outside():
    fields = spot_field_set(_spot(), [])
    inside = gamma_many(fields, np.array([[2.5, 1.25], [0.5, 0.5]]))
    outside = gamma_many(fields, np.array([[-1.0, 1.25], [2.5, 3.5]]))
    assert np.all(inside < 0)
    assert np.all(outside > 0)


def test_adjacent_obstacle_included():
    neighbor = Polygon(
        (Point2(0.4, 2.4), Point2(4.6, 2.4), Point2(4.6, 4.2), Point2(0.4, 4.2)),
        name="neighbor",
    )
    fields = spot_field_set(_spot(), [neighbor], reach=2.6)
    assert any(p.name == "neighbor" for p in fields.polygons)


def test_far_obstacle_excluded_and_dominated():
    far = Polygon(
        (Point2(100, 0), Point2(101, 0), Point2(101, 1), Point2(100, 1)),
        name="far",
    )
    reach = 2.6
    fields = spot_field_set(_spot(), [far], reach=reach)
    assert all(p.name != "far" for p in fields.polygons)
    # soundness: the retained edges strictly dominate the excluded
    # obstacle over the whole inflated region
    xs = np.linspace(-reach, 5 + reach, 60)
    ys = np.linspace(-reach, 2.5 + reach, 40)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    edge_vals = gamma_many(fields, pts)
    far_vals = gamma_many(FieldSet((far,)), pts)
    assert np.all(far_vals < edge_vals)


def test_obstacle_touching_inflated_region_kept():
    # bbox overlaps the inflated spot -> kept without any dominance check
    near = Polygon(
        (Point2(6.0, 1.0), Point2(7.0, 1.0), Point2(7.0, 2.0), Point2(6.0, 2.0)),
        name="near",
    )
    fields = spot_field_set(_spot(), [near], reach=2.0)
    assert any(p.name == "near" for p in fields.polygons)


def test_default_reach_uses_spot_extent():
    far = Polygon(
        (Point2(30, 0), Point2(31, 0), Point2(31, 1), Point2(30, 1)), name="far"
    )
    fields = spot_field_set(_spot(), [far])
    assert all(p.name != "far" for p in fields.polygons)
