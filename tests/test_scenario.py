import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from parkfield.errors import GeometryError, ScenarioError
from parkfield import scenario as scenario_module
from parkfield.field import FieldSet
from parkfield.geometry import EdgeLine, Point2, Polygon, SPOT_EDGE, transform_polygon
from parkfield.scenario import (
    CabinContext,
    DEFAULT_CLEARANCE_TABLE,
    Rect,
    VehicleFootprint,
    VehicleSpec,
    _local_field_set,
    _spot_edge_polygons,
    build_footprint,
    load_scenario,
    make_spot,
    make_spot_from_center,
    spot_field_set,
)

from conftest import bench_module, load_golden, read_scenario, to_local, total_area

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


def test_value_types_are_slotted():
    # A parsed scenario is mostly these; without slots each instance also
    # carries a dict (a parsed 24-obstacle lot retains 40 KB, not 31 KB).
    scenario = load_scenario(MINIMAL)
    spot = scenario.spots[0]
    polygon = Polygon((Point2(0, 0), Point2(1, 0), Point2(0, 1)))
    for value in (spot.corners[0], polygon.edges[0], polygon, spot):
        assert not hasattr(value, "__dict__"), type(value).__name__
    assert isinstance(polygon.edges[0], EdgeLine)


def test_a_parsed_lot_holds_only_its_vertices():
    # Per parsed copy of lot 0 (20 obstacles), by tracemalloc: 32.3 KB
    # while each polygon stored its lines too, 17.4 KB while it stored its
    # vertices as points, 7.6 KB with them packed as doubles.
    text = bench_module("lot").generate_lot(0)
    tracemalloc.start()
    try:
        # The first parse fills the interpreter's free lists.
        held = [load_scenario(text)]
        first = tracemalloc.get_traced_memory()[0]
        held += [load_scenario(text) for _ in range(4)]
        per_copy = (tracemalloc.get_traced_memory()[0] - first) / 4
    finally:
        tracemalloc.stop()
    assert per_copy < 9_000
    # Equal vertices make equal polygons of one hash, whose lines match,
    # and a zero equals a negative zero, as in a point.
    a, b = held[0].obstacles[0], held[1].obstacles[0]
    assert a == b and hash(a) == hash(b) and a.edges == b.edges
    assert a.vertices == b.vertices and isinstance(a.vertices[0], Point2)
    zero, negative = (
        Polygon((Point2(z, 0.0), Point2(1.0, z), Point2(1.0, 1.0))) for z in (0.0, -0.0)
    )
    assert zero == negative and hash(zero) == hash(negative)
    assert Polygon(a.vertices, a.kind, "other") != a
    spot = held[0].spots[0]
    assert _spot_edge_polygons(spot) == _spot_edge_polygons(spot)
    assert len(set(_spot_edge_polygons(spot) + _spot_edge_polygons(spot))) == 4


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
    inside = fields.eval_many(*np.array([[2.5, 1.25], [0.5, 0.5]]).T)
    outside = fields.eval_many(*np.array([[-1.0, 1.25], [2.5, 3.5]]).T)
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
    edge_vals = fields.eval_many(*pts.T)
    far_vals = FieldSet((far,)).eval_many(*pts.T)
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


def _square(x, y, side, name):
    return Polygon(
        (Point2(x, y), Point2(x + side, y), Point2(x + side, y + side), Point2(x, y + side)),
        name=name,
    )


def test_reach_of_ten_kilometres_prunes_without_a_lattice():
    # The exact test clips one rectangle whatever the reach: at 1e4 m the
    # far obstacle goes from the global set, the one 5 km off inside the
    # inflated region from the spot-local set, and the one over the spot
    # stays in both, all in well under a megabyte.
    obstacles = [
        _square(1e5, 0.0, 1.0, "far"),
        _square(5e3, 1.0, 1.0, "inside_reach"),
        _square(4.5, 1.0, 1.0, "overlap"),
    ]
    tracemalloc.start()
    try:
        fields = spot_field_set(_spot(), obstacles, reach=1e4)
        local = _local_field_set(fields, _spot(), 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.name for p in fields.polygons][4:] == ["inside_reach", "overlap"]
    assert [p.name for p in local.polygons][4:] == ["overlap"]
    assert peak < 2**20


# ---------------------------------------------------------------------------
# The exact domination test in the spot frame
# ---------------------------------------------------------------------------


@st.composite
def pruning_cases(draw):
    """``(spot, reach, obstacle)``: a rotated spot anywhere in a 100 m
    square, a reach, and a convex obstacle in the global frame.  Now and
    then the obstacle is an upright box in the spot frame whose side lies
    a small gap (of either sign) beyond a spot edge, where the edges'
    domination is closest to failing."""
    length, width = draw(st.floats(3.0, 8.0)), draw(st.floats(2.0, 4.0))
    center = Point2(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
    spot = make_spot_from_center("s", center, length, width, draw(st.floats(-4.0, 4.0)), "x_max")
    reach = draw(st.floats(0.5, 6.0))
    if draw(st.booleans()):
        sides = draw(st.integers(3, 6))
        angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=sides, max_size=sides)))
        assume(min(b - a for a, b in zip(angles, angles[1:] + [angles[0] + 2 * math.pi])) > 0.05)
        cx = draw(st.floats(-reach - 3.0, length + reach + 3.0))
        cy = draw(st.floats(-reach - 3.0, width + reach + 3.0))
        radius = draw(st.floats(0.1, 2.0))
        local = [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles]
    else:
        gap = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.3]))
        along, size = draw(st.floats(-1.0, width)), draw(st.floats(0.1, 1.5))
        x0 = length + gap
        local = [(x0, along), (x0 + size, along), (x0 + size, along + size), (x0, along + size)]
    vertices = [spot.to_global(Point2(x, y)) for x, y in local]
    try:
        return spot, reach, Polygon(vertices, name="o")
    except GeometryError:
        assume(False)


@given(case=pruning_cases())
@settings(max_examples=150, deadline=None)
def test_exact_pruning_drops_only_what_the_edges_dominate(case):
    spot, reach, obstacle = case
    edges = _spot_edge_polygons(spot, local=True)
    local = transform_polygon(spot.spot_frame, obstacle)
    polygon = scenario_module._domination_clip(spot, reach, edges)(local)
    # The slack's operands, as ``_domination_clip`` sizes them, and a
    # bound on what rounding moves: the kernel's values, the posed points
    # and the clip's vertices.
    span = spot.length + spot.width + 2 * reach + max(spot.length, spot.width)
    operands = span + max(abs(e.c) for e in local.edges)
    slack = scenario_module._PRUNE_SLACK * operands
    rounding = 64 * 2.0**-53 * operands
    if not polygon:
        # Below the edges on a 0.05 m lattice over R, by more than rounding.
        xs, ys = (np.linspace(-reach, extent + reach, int((extent + 2 * reach) / 0.05) + 2)
                  for extent in (spot.length, spot.width))
        margin = FieldSet([local]).eval_grid(xs, ys) - FieldSet(edges).eval_grid(xs, ys)
        assert margin.max() < -rounding
    else:
        # Every vertex of what is left reaches the edges within the slack.
        edge_lines = [e for p in edges for e in p.edges]
        for x, y in polygon:
            obstacle_value = min(e.a * x + e.b * y + e.c for e in local.edges)
            edge_value = max(e.a * x + e.b * y + e.c for e in edge_lines)
            assert obstacle_value >= edge_value - slack - rounding
