import math

import pytest
from hypothesis import given, strategies as st

from parkfield.errors import GeometryError
from parkfield.geometry import (
    Point2,
    Polygon,
    RigidTransform,
    SPOT_EDGE,
    apply_transform,
    invert,
    normalize_angle,
    transform_polygon,
)

from conftest import centroid, compose, edge_lines, eval_line, inverse_transform

# Inward-positive convention for convex CCW obstacles: the min edge-line
# value at the centroid is positive.  Flip here if the convention changes.
INWARD_POSITIVE = True

finite_coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
angle = st.floats(-math.pi, math.pi, allow_nan=False)


def test_unit_square_edge_lines(unit_square):
    lines = edge_lines(unit_square)
    assert len(lines) == 4
    # The polygon's own lines match the independent recomputation.
    assert [v for e in unit_square.edges for v in (e.a, e.b, e.c, e.alpha)] == pytest.approx(
        [v for e in lines for v in (e.a, e.b, e.c, e.alpha)]
    )
    a, b, c, _ = lines[0].a, lines[0].b, lines[0].c, lines[0].alpha
    # bottom edge (0,0)->(1,0): f(x,y) = y
    assert (a, b) == pytest.approx((0.0, 1.0))
    assert c == pytest.approx(0.0)
    # right edge (1,0)->(1,1): f(x,y) = 1 - x
    assert (lines[1].a, lines[1].b, lines[1].c) == pytest.approx((-1.0, 0.0, 1.0))


def test_edge_alpha_is_direction(unit_square):
    alphas = [e.alpha for e in unit_square.edges]
    assert alphas == pytest.approx([0.0, math.pi / 2, math.pi, -math.pi / 2])


def test_rotated_square_lines_pass_through_vertices():
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    verts = tuple(
        Point2(c * x - s * y, s * x + c * y)
        for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))
    )
    poly = Polygon(verts)
    for i, line in enumerate(poly.edges):
        p = poly.vertices[i]
        q = poly.vertices[(i + 1) % 4]
        assert abs(eval_line(line, p)) < 1e-9
        assert abs(eval_line(line, q)) < 1e-9
    assert min(eval_line(e, centroid(poly)) for e in poly.edges) > 0


def test_eval_line_examples(unit_square):
    horizontal = unit_square.edges[0]  # f(x,y) = y
    assert eval_line(horizontal, Point2(0.5, 2.0)) == pytest.approx(2.0)
    assert eval_line(horizontal, Point2(7.0, 0.0)) == pytest.approx(0.0)
    right = unit_square.edges[1]  # f(x,y) = 1 - x
    assert eval_line(right, Point2(3.0, 9.0)) == pytest.approx(-2.0)


def test_edge_lines_unit_normalized(unit_square):
    for line in unit_square.edges:
        assert line.a**2 + line.b**2 == pytest.approx(1.0, abs=1e-9)


def test_degenerate_edge_rejected():
    with pytest.raises(GeometryError, match="edge 1"):
        Polygon((Point2(0, 0), Point2(1, 0), Point2(1, 0), Point2(0, 1)))


def test_obstacle_needs_three_vertices():
    with pytest.raises(GeometryError, match="3 vertices"):
        Polygon((Point2(0, 0), Point2(1, 0)))


def test_spot_edge_needs_two_vertices():
    with pytest.raises(GeometryError, match="2 vertices"):
        Polygon((Point2(0, 0), Point2(1, 0), Point2(1, 1)), kind=SPOT_EDGE)


def test_non_convex_rejected():
    with pytest.raises(GeometryError, match="convex"):
        Polygon(
            (Point2(0, 0), Point2(2, 0), Point2(0.2, 0.2), Point2(0, 2)),
            name="dart",
        )


def test_clockwise_obstacle_reversed_with_warning():
    with pytest.warns(UserWarning, match="clockwise"):
        poly = Polygon((Point2(0, 0), Point2(0, 1), Point2(1, 1), Point2(1, 0)))
    assert min(eval_line(e, centroid(poly)) for e in poly.edges) > 0


def test_inward_normals_at_centroid(unit_square):
    values = [eval_line(e, centroid(unit_square)) for e in unit_square.edges]
    if INWARD_POSITIVE:
        assert min(values) > 0
    else:
        assert max(values) < 0


def test_non_finite_point_rejected():
    with pytest.raises(GeometryError):
        Point2(float("nan"), 0.0)
    with pytest.raises(GeometryError):
        Point2(0.0, float("inf"))


def test_apply_transform_examples():
    p = apply_transform(RigidTransform(0, 0, 0), Point2(1, 2))
    assert (p.x, p.y) == (1.0, 2.0)
    p = apply_transform(RigidTransform(math.pi / 2, 0, 0), Point2(1, 0))
    assert (p.x, p.y) == pytest.approx((0.0, 1.0), abs=1e-12)
    p = apply_transform(RigidTransform(math.pi / 2, 3, 4), Point2(1, 0))
    assert (p.x, p.y) == pytest.approx((3.0, 5.0), abs=1e-12)


def test_inverse_transform_examples():
    p = inverse_transform(RigidTransform(math.pi / 2, 3, 4), Point2(3, 5))
    assert (p.x, p.y) == pytest.approx((1.0, 0.0), abs=1e-12)
    q = inverse_transform(RigidTransform(0, 0, 0), Point2(-7.5, 2.25))
    assert (q.x, q.y) == (-7.5, 2.25)


@given(theta=angle, tx=finite_coord, ty=finite_coord, x=finite_coord, y=finite_coord)
def test_transform_round_trip(theta, tx, ty, x, y):
    t = RigidTransform(theta, tx, ty)
    p = Point2(x, y)
    q = inverse_transform(t, apply_transform(t, p))
    assert math.hypot(q.x - p.x, q.y - p.y) < 1e-9


@given(theta=angle, tx=finite_coord, ty=finite_coord, x=finite_coord, y=finite_coord)
def test_invert_matches_inverse_transform(theta, tx, ty, x, y):
    t = RigidTransform(theta, tx, ty)
    p = Point2(x, y)
    q1 = inverse_transform(t, p)
    q2 = apply_transform(invert(t), p)
    assert math.hypot(q1.x - q2.x, q1.y - q2.y) < 1e-9


@given(
    t1=st.tuples(angle, finite_coord, finite_coord),
    t2=st.tuples(angle, finite_coord, finite_coord),
    x=finite_coord,
    y=finite_coord,
)
def test_compose_associates_with_application(t1, t2, x, y):
    outer = RigidTransform(*t1)
    inner = RigidTransform(*t2)
    p = Point2(x, y)
    direct = apply_transform(outer, apply_transform(inner, p))
    composed = apply_transform(compose(outer, inner), p)
    assert math.hypot(direct.x - composed.x, direct.y - composed.y) < 1e-6


@given(
    px=finite_coord, py=finite_coord, qx=finite_coord, qy=finite_coord
)
def test_eval_line_is_1_lipschitz(px, py, qx, qy):
    line = Polygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1))).edges[0]
    p, q = Point2(px, py), Point2(qx, qy)
    assert abs(eval_line(line, p) - eval_line(line, q)) <= math.hypot(
        px - qx, py - qy
    ) + 1e-9


def test_normalize_angle_range():
    for k in range(-8, 9):
        a = normalize_angle(0.3 + k * 2 * math.pi)
        assert -math.pi < a <= math.pi
        assert a == pytest.approx(0.3, abs=1e-9)
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)


def test_transform_polygon_recomputes_edges(unit_square):
    moved = transform_polygon(RigidTransform(0.4, 2.0, -1.0), unit_square)
    for i, line in enumerate(moved.edges):
        assert abs(eval_line(line, moved.vertices[i])) < 1e-9
    assert min(eval_line(e, centroid(moved)) for e in moved.edges) > 0
