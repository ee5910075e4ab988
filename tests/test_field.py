import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkfield.errors import BudgetError, GeometryError
from parkfield.field import (
    _BLOCK_POINTS,
    CompiledFieldSet,
    FieldMap,
    FieldSet,
    gamma,
    gamma_many,
    sample_field,
)
from parkfield.geometry import Point2, Polygon, SPOT_EDGE
from parkfield.scenario import spot_field_set, make_spot

from conftest import (
    node_xy,
    point_in_polygon_raycast,
    point_major_gamma_many,
    polygon_field,
    regular_polygon,
)

coord = st.floats(-10, 10, allow_nan=False)


def spot_edge(p, q):
    return Polygon((Point2(*p), Point2(*q)), kind=SPOT_EDGE)


def test_polygon_field_unit_square_examples(unit_square):
    assert polygon_field(unit_square, Point2(0.5, 0.5)) == pytest.approx(0.5)
    # min of {0.5, 0.5, 2.0, -1.0} over the four inward lines
    assert polygon_field(unit_square, Point2(2.0, 0.5)) == pytest.approx(-1.0)


def test_spot_edge_field_signed_line():
    # Directed so the positive side is y < 0: field is -y.
    edge = spot_edge((4, 0), (0, 0))
    assert polygon_field(edge, Point2(2, 3)) == pytest.approx(-3.0)
    assert polygon_field(edge, Point2(7, 0)) == pytest.approx(0.0)
    assert polygon_field(edge, Point2(2, -1)) == pytest.approx(1.0)


def test_gamma_single_polygon(unit_square):
    fields = FieldSet((unit_square,))
    assert gamma(fields, Point2(0.5, 0.5)) == pytest.approx(0.5)


def test_gamma_two_disjoint_squares(unit_square):
    far = Polygon(
        (Point2(10, 0), Point2(11, 0), Point2(11, 1), Point2(10, 1)), name="far"
    )
    fields = FieldSet((unit_square, far))
    assert gamma(fields, Point2(0.5, 0.5)) == pytest.approx(0.5)
    assert polygon_field(far, Point2(0.5, 0.5)) == pytest.approx(-9.5)


def test_gamma_matches_pairwise_maximum():
    rng = np.random.default_rng(7)
    polys = [
        regular_polygon(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.3, 1.2), k)
        for k in (3, 4, 5, 6)
    ]
    fields = FieldSet(tuple(polys))
    pts = rng.uniform(-5, 5, size=(200, 2))
    composite = gamma_many(fields, pts)
    brute = np.max(
        [gamma_many(FieldSet((p,)), pts) for p in polys], axis=0
    )
    assert np.allclose(composite, brute, atol=0)


BLOCK_STRADDLING_COUNTS = (0, 1, _BLOCK_POINTS - 1, _BLOCK_POINTS, _BLOCK_POINTS + 1,
                           2 * _BLOCK_POINTS + 3)


@pytest.mark.parametrize("lines", [(1,), (4,), (6,), (1, 4, 6)])
def test_gamma_many_bitwise_equals_point_major_kernel(lines):
    shapes = {
        1: spot_edge((-1.0, -2.0), (2.0, 1.5)),
        4: regular_polygon(0.4, -0.3, 1.7, 4),
        6: regular_polygon(-0.6, 0.5, 1.3, 6),
    }
    fields = FieldSet(tuple(shapes[k] for k in lines))
    # One instance across every count, growing and shrinking, so its
    # scratch buffer is reused at sizes other than the one it was made for.
    compiled = CompiledFieldSet(fields)
    rng = np.random.default_rng(11)
    # A last-bit rounding difference shows on about one random point in
    # three, so each count is drawn many times.
    for n in BLOCK_STRADDLING_COUNTS + BLOCK_STRADDLING_COUNTS[::-1]:
        for _ in range(25):
            pts = rng.uniform(-3, 3, size=(n, 2))
            want = point_major_gamma_many(fields, pts)
            assert np.array_equal(gamma_many(fields, pts), want), n
            assert np.array_equal(compiled.eval_many(pts), want), n


def test_gamma_monotone_under_added_polygon(unit_square):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 4, size=(300, 2))
    base = FieldSet((unit_square,))
    extra = regular_polygon(2.0, 1.0, 0.8, 5)
    bigger = FieldSet((unit_square, extra))
    assert np.all(gamma_many(bigger, pts) >= gamma_many(base, pts))


def test_field_monotone_decreasing_away_from_obstacle():
    # Spot edges plus one obstacle; along a ray leaving the obstacle the
    # composite field decreases while the obstacle term dominates.
    spot = make_spot(
        "s",
        [Point2(0, 0), Point2(5, 0), Point2(5, 2.5), Point2(0, 2.5)],
        "x_max",
    )
    obstacle = Polygon(
        (Point2(1.2, 0.3), Point2(2.2, 0.3), Point2(2.2, 1.1), Point2(1.2, 1.1)),
        name="object",
    )
    fields = spot_field_set(spot, [obstacle])
    start = np.array([1.7, 1.1])
    direction = np.array([0.3, 1.0])
    direction = direction / np.linalg.norm(direction)
    radii = np.linspace(0.0, 0.55, 8)
    values = gamma_many(fields, start + radii[:, None] * direction[None, :])
    assert np.all(np.diff(values) < 0)


def test_polygon_field_positive_exactly_inside():
    poly = regular_polygon(0.5, -0.2, 1.0, 5)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(500, 2))
    values = gamma_many(FieldSet((poly,)), pts)
    for (x, y), v in zip(pts, values):
        inside = point_in_polygon_raycast(poly.vertices, x, y)
        if v > 1e-9:
            assert inside
        elif v < -1e-9:
            assert not inside


@given(
    px=coord, py=coord, qx=coord, qy=coord
)
@settings(max_examples=200)
def test_gamma_is_1_lipschitz(px, py, qx, qy):
    fields = FieldSet(
        (
            regular_polygon(0, 0, 1.0, 4),
            regular_polygon(3, 1, 0.7, 3),
            spot_edge((0, -2), (5, -2)),
        )
    )
    a = gamma(fields, Point2(px, py))
    b = gamma(fields, Point2(qx, qy))
    assert abs(a - b) <= math.hypot(px - qx, py - qy) + 1e-9


def test_fieldset_requires_polygons():
    with pytest.raises(GeometryError):
        FieldSet(())


# ---------------------------------------------------------------------------
# sample_field / FieldMap
# ---------------------------------------------------------------------------


def test_sample_field_finite_values():
    # Edge directed so the sampled region lies on the free (negative) side.
    fields = FieldSet((spot_edge((4, 0), (0, 0)),))
    fmap = sample_field(fields, (0.0, 0.0, 1.0, 1.0), 1.0)
    assert fmap.values.shape == (fmap.rows, fmap.cols) == (2, 2)
    assert np.all(np.isfinite(fmap.values))
    assert np.all(fmap.values <= 0.0)


def test_sample_field_refinement_reproduces_coarse_nodes(unit_square):
    fields = FieldSet((unit_square,))
    bounds = (-2.0, -2.0, 3.0, 3.0)
    coarse = sample_field(fields, bounds, 2.0)
    fine = sample_field(fields, bounds, 4.0)
    assert np.array_equal(coarse.values, fine.values[::2, ::2])


def test_sample_field_matches_pointwise_oracle(unit_square):
    fields = FieldSet((unit_square,))
    fmap = sample_field(fields, (-2.0, -2.0, 3.0, 3.0), 10.0)
    direct = np.array(
        [
            [
                polygon_field(unit_square, Point2(*node_xy(fmap, r, c)))
                for c in range(fmap.cols)
            ]
            for r in range(fmap.rows)
        ]
    )
    assert np.allclose(fmap.values, direct, atol=0)
    assert fmap.values.max() == pytest.approx(direct.max())


def test_sample_field_budget():
    fields = FieldSet((spot_edge((0, 0), (1, 0)),))
    with pytest.raises(BudgetError):
        sample_field(fields, (0.0, 0.0, 1000.0, 1000.0), 1000.0)


def test_sample_field_rejects_degenerate_bounds(unit_square):
    with pytest.raises(GeometryError):
        sample_field(FieldSet((unit_square,)), (1.0, 0.0, 1.0, 2.0), 4.0)


def test_fieldmap_text_round_trip(unit_square):
    fields = FieldSet((unit_square,))
    fmap = sample_field(fields, (-1.0, -1.0, 2.0, 2.0), 3.0)
    text = fmap.to_text()
    back = FieldMap.from_text(text)
    assert back.rows == fmap.rows and back.cols == fmap.cols
    assert back.cell_size == fmap.cell_size
    assert (back.origin.x, back.origin.y) == (fmap.origin.x, fmap.origin.y)
    assert np.array_equal(back.values, fmap.values)
    assert back.to_text() == text
