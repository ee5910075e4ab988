import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkfield.errors import BudgetError, GeometryError
from parkfield.field import _BLOCK_POINTS, _TILE_POINTS, FieldSet, gamma, sample_field
from parkfield.geometry import OBSTACLE, SPOT_EDGE, Point2, Polygon, RigidTransform, transform_polygon
from parkfield.scenario import build_footprint, load_scenario, make_spot, spot_field_set
from parkfield.solver import _local_field_set

from conftest import (
    SCENARIO_DIR,
    bench_module,
    load_golden,
    node_xy,
    on_axis_path,
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
    ] + [
        axis_rect(-1.0, -1.0, 0.0, 0.0),
        spot_edge((4, -2), (-4, -2)),
    ]
    fields = FieldSet(tuple(polys))
    pts = rng.uniform(-5, 5, size=(200, 2))
    composite = fields.eval_many(*pts.T)
    brute = np.max(
        [FieldSet((p,)).eval_many(*pts.T) for p in polys], axis=0
    )
    assert np.array_equal(composite, brute)


BLOCK_STRADDLING_COUNTS = (0, 1, _BLOCK_POINTS - 1, _BLOCK_POINTS, _BLOCK_POINTS + 1,
                           2 * _BLOCK_POINTS + 3)


def axis_rect(x0, y0, x1, y1):
    return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def tilted(poly, theta):
    return transform_polygon(RigidTransform(theta, 0.0, 0.0), poly)


def exactly_axis(edge):
    return {abs(edge.a), abs(edge.b)} == {0.0, 1.0}


KERNEL_SHAPES = {
    "edge": (spot_edge((-1.0, -2.0), (2.0, 1.5)),),
    "square": (regular_polygon(0.4, -0.3, 1.7, 4),),
    "hexagon": (regular_polygon(-0.6, 0.5, 1.3, 6),),
    "axis_rect": (axis_rect(-1.2, -0.7, 1.3, 0.9),),
    # Edges along +x, -y, -x and +y; the first runs through the origin,
    # so its offset is -0.0.
    "axis_edges": (
        spot_edge((0.0, 0.0), (4.0, 0.0)),
        spot_edge((4.5, -1.0), (4.5, 2.0)),
        spot_edge((3.0, 2.5), (-1.0, 2.5)),
        spot_edge((-1.5, 2.0), (-1.5, -1.0)),
    ),
    # Normals 1e-12 and 1e-13 off the axes: both stay on the product path.
    "tilted_rect": (tilted(axis_rect(-1.2, -0.7, 1.3, 0.9), 1e-12),),
    "tilted_edge": (tilted(spot_edge((-3.0, 0.5), (3.0, 0.5)), -1e-13),),
}


def row_layouts(pts):
    """The same points as ``(x, y)`` three ways: contiguous rows, strided
    column views, and rows of a longer array sliced at an odd offset."""
    n = len(pts)
    wide = np.full((2, n + 3), np.nan)
    wide[:, 1 : n + 1] = pts.T
    return [
        tuple(np.ascontiguousarray(pts.T)),
        (pts[:, 0], pts[:, 1]),
        (wide[0, 1 : n + 1], wide[1, 1 : n + 1]),
    ]


@pytest.mark.parametrize(
    "lines",
    [
        ("edge",),
        ("square",),
        ("hexagon",),
        ("edge", "square", "hexagon"),
        ("axis_rect",),
        ("axis_edges",),
        ("axis_rect", "hexagon", "edge"),
        ("edge", "axis_edges", "axis_rect"),
        ("tilted_rect",),
        ("tilted_edge", "axis_rect"),
        ("tilted_edge",),
        ("axis_edges", "tilted_edge"),
    ],
)
def test_gamma_many_bitwise_equals_point_major_kernel(lines):
    fields = FieldSet(tuple(p for name in lines for p in KERNEL_SHAPES[name]))
    # One instance across every count, growing and shrinking, so its
    # scratch buffer is reused at sizes other than the one it was made for;
    # a fresh instance evaluates each batch with a buffer made for it.
    rng = np.random.default_rng(11)
    # A last-bit rounding difference shows on about one random point in
    # three, so each count is drawn many times.  A one-line BLAS product
    # rounds its last ``n % 4`` points its own way (935 and 8191 points).
    for n in BLOCK_STRADDLING_COUNTS + (935,) + BLOCK_STRADDLING_COUNTS[::-1]:
        for _ in range(25):
            pts = rng.uniform(-3, 3, size=(n, 2))
            # Coordinates exactly zero, of both signs.
            pts[::7, 0] = 0.0
            pts[3::11, 1] = -0.0
            want = point_major_gamma_many(fields, pts)
            for x, y in row_layouts(pts):
                assert np.array_equal(FieldSet(fields.polygons).eval_many(x, y), want), n
                assert np.array_equal(fields.eval_many(x, y), want), n


def test_only_exactly_axis_aligned_polygons_skip_the_product():
    polys = [p for shapes in KERNEL_SHAPES.values() for p in shapes]
    fields = FieldSet(polys)
    on_axis = on_axis_path(fields)
    assert on_axis == [all(exactly_axis(e) for e in p.edges) for p in polys]
    assert sum(on_axis) == 5  # the axis rectangle and the four axis edges


def test_golden_spot_frames_send_axis_lines_down_the_axis_path():
    # As ``rank_spots`` builds them: each spot's field set at the
    # footprint's reach, moved into the spot frame.
    taken = {SPOT_EDGE: [0, 0], OBSTACLE: [0, 0]}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scenario = load_golden(path.name)
        reach = build_footprint(scenario.context, scenario.vehicle).max_reach()
        for spot in scenario.spots:
            fields = spot_field_set(spot, list(scenario.obstacles), reach)
            local = _local_field_set(fields, spot)
            for poly, axis in zip(local.polygons, on_axis_path(local)):
                assert axis == all(exactly_axis(e) for e in poly.edges)
                taken[poly.kind][not axis] += len(poly.edges)
    # Every spot edge, and every obstacle line but a triangle's three.
    assert taken == {SPOT_EDGE: [44, 0], OBSTACLE: [40, 3]}


def test_lot_spot_frames_build_every_spot_edge_on_an_axis():
    # The lots' spots are rotated and off the origin: rotated into the spot
    # frame, most of their edges would come out a bit off an axis.
    generate_lot = bench_module("lot").generate_lot
    spots = 0
    for seed in range(16):
        scenario = load_scenario(generate_lot(seed))
        reach = build_footprint(scenario.context, scenario.vehicle).max_reach()
        for spot in scenario.spots:
            local = _local_field_set(spot_field_set(spot, list(scenario.obstacles), reach), spot)
            edges = [
                (poly, axis)
                for poly, axis in zip(local.polygons, on_axis_path(local))
                if poly.kind == SPOT_EDGE
            ]
            assert all(axis for _, axis in edges)
            # x = 0, x = l_x, y = 0 and y = l_y, each negative inside.
            assert [(e.a, e.b, e.c) for poly, _ in edges for e in poly.edges] == [
                (0.0, -1.0, 0.0),
                (1.0, 0.0, -spot.length),
                (0.0, 1.0, -spot.width),
                (-1.0, 0.0, 0.0),
            ]
            spots += 1
    assert spots == 32


# An axis-only, a general-only and two mixed sets.
ENTRY_SETS = [
    ("axis_edges", "axis_rect"),
    ("hexagon", "tilted_rect"),
    ("axis_rect", "hexagon", "edge"),
    ("axis_edges", "tilted_edge"),
]


def kernel_set(lines):
    return FieldSet(tuple(p for name in lines for p in KERNEL_SHAPES[name]))


def signed_zero_shifts(rng, n):
    """``n`` shifts in [-3, 3], with -0.0 and 0.0 among them."""
    shifts = rng.uniform(-3, 3, n)
    shifts[:2] = (-0.0, 0.0)[:n]
    return rng.permutation(shifts)


@pytest.mark.parametrize("lines", ENTRY_SETS)
def test_lattice_entry_equals_the_point_kernel(lines):
    fields = kernel_set(lines)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-1, 1, (2, 37))
    # 37 x 40 x 30 points span several tiles of ``_TILE_POINTS``.
    for nx, ny in ((1, 1), (3, 2), (40, 30)):
        xs, ys = signed_zero_shifts(rng, nx), signed_zero_shifts(rng, ny)
        px = np.broadcast_to(x + xs[:, None, None], (nx, ny, len(x)))
        py = np.broadcast_to(y + ys[None, :, None], (nx, ny, len(x)))
        want = fields.eval_many(px.ravel(), py.ravel()).reshape(px.shape)
        covered = np.zeros((nx, ny), dtype=int)
        for j, k, values in fields.eval_lattice(x, y, xs, ys):
            a, b = values.shape[:2]
            assert np.array_equal(values, want[j : j + a, k : k + b])
            covered[j : j + a, k : k + b] += 1
        assert np.all(covered == 1)


@pytest.mark.parametrize("lines", ENTRY_SETS)
def test_grid_entry_equals_the_point_kernel_on_a_meshgrid(lines):
    fields = kernel_set(lines)
    rng = np.random.default_rng(6)
    straddling = ((2, 2), (3, 5), (130, 127), (_TILE_POINTS + 1, 2), (2, _TILE_POINTS + 3))
    for nx, ny in straddling:
        xs, ys = signed_zero_shifts(rng, nx), signed_zero_shifts(rng, ny)
        gx, gy = np.meshgrid(xs, ys)
        want = fields.eval_many(gx.ravel(), gy.ravel()).reshape(ny, nx)
        assert np.array_equal(fields.eval_grid(xs, ys), want), (nx, ny)


@pytest.mark.parametrize("lines", ENTRY_SETS[:3])
def test_field_sets_take_part_in_no_reference_cycle(lines):
    # Without the cycle collector a set that refers to itself, directly or
    # through its general part, outlives its last reference.
    gc.disable()
    try:
        fields = kernel_set(lines)
        xs = np.linspace(-2.0, 2.0, 50)
        fields.eval_many(xs, xs)
        fields.eval_grid(xs, xs)
        dead = weakref.ref(fields)
        del fields
        assert dead() is None
    finally:
        gc.enable()


def test_gamma_monotone_under_added_polygon(unit_square):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 4, size=(300, 2))
    base = FieldSet((unit_square,))
    extra = regular_polygon(2.0, 1.0, 0.8, 5)
    bigger = FieldSet((unit_square, extra))
    assert np.all(bigger.eval_many(*pts.T) >= base.eval_many(*pts.T))


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
    values = fields.eval_many(*(start + radii[:, None] * direction[None, :]).T)
    assert np.all(np.diff(values) < 0)


def test_polygon_field_positive_exactly_inside():
    poly = regular_polygon(0.5, -0.2, 1.0, 5)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(500, 2))
    values = FieldSet((poly,)).eval_many(*pts.T)
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


def test_fieldset_polygons_are_read_only(unit_square):
    fields = FieldSet([unit_square])
    assert fields.polygons == (unit_square,)
    with pytest.raises(AttributeError):
        fields.polygons = ()


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
