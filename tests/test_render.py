import functools
import tracemalloc

import numpy as np
import pytest

from parkfield import render
from parkfield.field import FieldMap, sample_field
from parkfield.geometry import Point2
from parkfield.render import contour_polylines, render_scene, scene_bounds
from parkfield.scenario import _spot_edge_polygons, area_field_map, build_footprint
from parkfield.solver import Pose

from conftest import load_golden, regular_polygon
from parkfield.field import FieldSet


def radial_map(radius=1.0, extent=2.0, nodes=41):
    xs = np.linspace(-extent, extent, nodes)
    gx, gy = np.meshgrid(xs, xs)
    values = radius - np.hypot(gx, gy)
    cell = xs[1] - xs[0]
    return FieldMap(Point2(-extent, -extent), cell, nodes, nodes, values)


def test_level_set_contour_approximates_circle():
    # level chosen so no lattice node sits exactly on the contour
    fmap = radial_map()
    lines = contour_polylines(fmap, 0.093)
    assert len(lines) == 1
    points = lines[0]
    assert len(points) > 20
    radii = [np.hypot(x, y) for x, y in points]
    assert max(abs(r - 0.907) for r in radii) < 0.02


def test_contour_absent_outside_range():
    fmap = radial_map()
    assert contour_polylines(fmap, 2.0) == []
    assert contour_polylines(fmap, -5.0) == []


def test_contours_nest_with_level():
    fmap = radial_map()
    inner = contour_polylines(fmap, 0.493)[0]
    outer = contour_polylines(fmap, -0.437)[0]
    assert max(np.hypot(x, y) for x, y in inner) < min(
        np.hypot(x, y) for x, y in outer
    )


def test_field_render_has_contours_around_obstacle():
    scenario = load_golden("field_demo.json")
    fmap = area_field_map(scenario, scene_bounds(scenario), 8.0)
    svg = render_scene(scenario, fmap=fmap)
    assert svg.count("<polyline") >= 5
    assert svg.count("<polygon") >= 2  # spot outline + obstacle


def test_multi_spot_field_is_negative_in_every_spot():
    # A spot's edge field is positive outside that spot, so the spots of an
    # area combine by min: a max over every spot's edges reads positive in
    # every spot and draws no contour at all.
    scenario = load_golden("three_spot_area.json")
    fmap = area_field_map(scenario, scene_bounds(scenario), 8.0)
    for spot in scenario.spots:
        cx = sum(c.x for c in spot.corners) / 4
        cy = sum(c.y for c in spot.corners) / 4
        row = round((cy - fmap.origin.y) / fmap.cell_size)
        col = round((cx - fmap.origin.x) / fmap.cell_size)
        assert fmap.values[row, col] < 0, spot.id
    assert render_scene(scenario, fmap=fmap).count("<polyline") >= 1


def test_area_field_map_folds_band_by_band_into_one_grid():
    # The first spot is sampled whole; the other spots, then the obstacles,
    # fold into it band by band, with the bits of combining whole grids.
    scenario = load_golden("three_spot_area.json")
    bounds = scene_bounds(scenario)
    tracemalloc.start()
    try:
        fmap = area_field_map(scenario, bounds, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two whole grids would be 2x the map.
    assert peak < 1.5 * fmap.values.nbytes
    grids = [
        sample_field(FieldSet(_spot_edge_polygons(spot)), bounds, 100.0).values
        for spot in scenario.spots
    ]
    want = np.maximum(
        functools.reduce(np.minimum, grids),
        sample_field(FieldSet(scenario.obstacles), bounds, 100.0).values,
    )
    assert np.array_equal(fmap.values, want)
    assert np.array_equal(np.signbit(fmap.values), np.signbit(want))


def test_contours_visit_only_the_cells_a_level_crosses(monkeypatch):
    # At resolution 50 the area's 7 levels cross 8408 of its ~1.7M
    # (cell, level) pairs; a per-cell Python loop would visit all of them.
    scenario = load_golden("three_spot_area.json")
    fmap = area_field_map(scenario, scene_bounds(scenario), 50.0)
    segments = []
    cell_segments = render._cell_segments

    def counting(corners, values, level):
        segments.append(cell_segments(corners, values, level))
        return segments[-1]

    monkeypatch.setattr(render, "_cell_segments", counting)
    render_scene(scenario, fmap=fmap)
    assert len(segments) == 8408
    assert all(segments)


def test_chain_grows_a_polyline_from_both_ends_in_curve_order():
    # The first segment lies mid-curve: the polyline runs on from its end,
    # then back from its start, and reads in curve order.
    pts = [(float(i), float(i * i)) for i in range(6)]
    order = (2, 1, 3, 0, 4)
    assert render._chain([(pts[i], pts[i + 1]) for i in order]) == [pts]


def test_pose_render_draws_footprint():
    scenario = load_golden("empty_spot.json")
    footprint = build_footprint(scenario.context, scenario.vehicle)
    svg = render_scene(
        scenario,
        poses={"main": Pose(2.5, 1.25, 0.0)},
        footprint=footprint,
    )
    # spot outline + body + one maneuver rect
    assert svg.count("<polygon") == 3


def test_render_deterministic():
    scenario = load_golden("field_demo.json")
    fmap = area_field_map(scenario, scene_bounds(scenario), 8.0)
    a = render_scene(scenario, fmap=fmap)
    b = render_scene(scenario, fmap=fmap)
    assert a == b
    assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")


def test_chained_polylines_cover_all_segments():
    fields = FieldSet((regular_polygon(0.0, 0.0, 1.0, 6),))
    fmap = sample_field(fields, (-2.0, -2.0, 2.0, 2.0), 10.0)
    for level in (-0.5, 0.0, 0.4):
        lines = contour_polylines(fmap, level)
        assert lines, level
        total_points = sum(len(line) for line in lines)
        assert total_points >= 10
