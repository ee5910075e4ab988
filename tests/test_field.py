import ast
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parkfield
from parkfield import cli, field, solver
from parkfield.errors import BudgetError, GeometryError
from parkfield.field import _BLOCK_POINTS, _TILE_POINTS, FieldSet, gamma, sample_field
from parkfield.geometry import OBSTACLE, SPOT_EDGE, Point2, Polygon, RigidTransform, transform_polygon
from parkfield.scenario import (
    _local_field_set,
    build_footprint,
    load_scenario,
    make_spot,
    spot_field_set,
)
from parkfield.strategy import rank_spots

from conftest import (
    BENCH_DIR,
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
    # three, so each count is drawn many times.  Uneven counts (935 and
    # 8191 points) end each vector loop in a tail.
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
            local = _local_field_set(fields, spot, reach)
            for poly, axis in zip(local.polygons, on_axis_path(local)):
                assert axis == all(exactly_axis(e) for e in poly.edges)
                taken[poly.kind][not axis] += len(poly.edges)
    # Every spot edge, and every kept obstacle line but a triangle's three.
    # ``three_spot_area``'s spot_b keeps ``parked_car`` in its global set
    # (its box meets the inflated spot), and its local set prunes it.
    assert taken == {SPOT_EDGE: [44, 0], OBSTACLE: [36, 3]}


def test_lot_spot_frames_build_every_spot_edge_on_an_axis():
    # The lots' spots are rotated and off the origin: rotated into the spot
    # frame, most of their edges would come out a bit off an axis.
    generate_lot = bench_module("lot").generate_lot
    spots = 0
    for seed in range(16):
        scenario = load_scenario(generate_lot(seed))
        reach = build_footprint(scenario.context, scenario.vehicle).max_reach()
        for spot in scenario.spots:
            local = _local_field_set(spot_field_set(spot, list(scenario.obstacles), reach), spot, reach)
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


# sha256 over the reprs of ``strategies``, ``infeasible`` and ``solve_stats``
# of ``rank_spots`` on ``bench/lot.py`` lots 0-63, explain off.  A repr
# prints each float's shortest round trip, so any changed bit shows.
LOT_OUTPUTS_SHA256 = "9d2589609cfe81563148805bd7b787a4277ff76c52bae976c6e3309396781b7a"


def lot_outputs_sha256() -> str:
    generate_lot = bench_module("lot").generate_lot
    digest = hashlib.sha256()
    for seed in range(64):
        ranked = rank_spots(load_scenario(generate_lot(seed)), explain=False)
        digest.update(repr((ranked.strategies, ranked.infeasible, ranked.solve_stats)).encode())
    return digest.hexdigest()


def test_lot_rankings_keep_their_bits():
    assert lot_outputs_sha256() == LOT_OUTPUTS_SHA256


# numpy's x86-64 targets, the X86_V2 baseline first.  numpy runs each ufunc
# loop at the highest target the CPU offers and ``NPY_DISABLE_CPU_FEATURES``
# allows, so switching off every target above a level holds a process to it.
X86_TARGETS = ("X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def print_dispatch_outputs():
    """One JSON line: ``__cpu_features__`` of each target switched off, the
    lot digest and the sha256 of each golden's ``solve`` report less its
    wall time."""
    features = np._core._multiarray_umath.__cpu_features__
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    normalize = bench_module("stats").normalize_report
    reports = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["solve", str(path)]) == 0
        reports[path.name] = hashlib.sha256(normalize(out.getvalue().encode())).hexdigest()
    print(json.dumps({"features": {t: features[t] for t in off}, "lot": lot_outputs_sha256(), "reports": reports}))


@pytest.mark.parametrize("level", ["X86_V3", "X86_V2"])
def test_every_dispatch_level_gives_the_pinned_bits(level):
    # An add or a multiply rounds alike in every SIMD loop, a reduction's
    # order or a cosine's polynomial need not: the lot pin and the golden
    # reports are required at each level, one process per level.
    umath = np._core._multiarray_umath
    if not any(t.startswith("X86_V") for t in umath.__cpu_dispatch__):
        pytest.skip("numpy dispatches to no x86-64 level here")
    above = X86_TARGETS[X86_TARGETS.index(level) + 1 :]
    if not umath.__cpu_features__.get(above[0]):
        pytest.skip(f"{level}: this CPU lacks {above[0]}, so every run is at {level} or below")
    off = [t for t in above if umath.__cpu_features__.get(t)]
    src = str(Path(parkfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["features"] == dict.fromkeys(off, False)
    assert got["lot"] == LOT_OUTPUTS_SHA256
    recorded = sorted((BENCH_DIR / "expected").glob("*.report"))
    want = {p.stem + ".json": hashlib.sha256(p.read_bytes()).hexdigest() for p in recorded}
    assert got["reports"] == want


BLAS_NAMES = {"dot", "vdot", "matmul", "einsum", "tensordot", "inner", "linalg"}


def blas_uses(source):
    """``(line, name)`` of each ``@`` or ``@=`` in ``source``, each attribute
    named in ``BLAS_NAMES`` and each such name in a ``from numpy`` import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names = {*node.module.split("."), *(alias.name for alias in node.names)}
            yield from ((node.lineno, name) for name in sorted(names & BLAS_NAMES))


def test_src_makes_no_blas_call():
    # The pins hold on every CPU only while no product goes through BLAS,
    # whose kernels differ between CPUs and may fuse a multiply-add.
    probe = "dot = a * b\nx @ y\nx @= y\nnp.dot(x, y)\nfrom numpy.linalg import norm\n"
    assert sorted(blas_uses(probe)) == [(2, "@"), (3, "@"), (4, "dot"), (5, "linalg")]
    package = Path(parkfield.__file__).parent
    found = [(p.name, *use) for p in sorted(package.glob("*.py")) for use in blas_uses(p.read_text())]
    assert found == []


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
    # 37 x 80 x 30 points span several tiles of ``_TILE_POINTS``.
    for nx, ny in ((1, 1), (3, 2), (80, 30)):
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
def test_node_entry_equals_the_lattice_entry(lines):
    # Random nodes of a lattice, in any order and some repeated, with side
    # rows in blocks of one shift each and of the default size.
    fields = kernel_set(lines)
    rng = np.random.default_rng(9)
    x, y = rng.uniform(-1, 1, (2, 37))
    xs, ys = signed_zero_shifts(rng, 40), signed_zero_shifts(rng, 25)
    dense = np.empty((len(xs), len(ys), len(x)))
    for j, k, values in fields.eval_lattice(x, y, xs, ys):
        dense[j : j + values.shape[0], k : k + values.shape[1]] = values
    for count in (1, 7, 300, 1500):
        i, j = rng.integers(0, len(xs), count), rng.integers(0, len(ys), count)
        for side in (1, field._SIDE_POINTS):
            scratch = np.empty(3 * len(x) * rng.integers(1, 9))
            got = np.full((count, len(x)), np.nan)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(field, "_SIDE_POINTS", side)
                for at, values in fields.eval_nodes(x, y, xs, ys, i, j, scratch):
                    got[at] = values
            assert_same_bits(got, dense[i, j])


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


@pytest.mark.parametrize("lines", ENTRY_SETS[2:])
def test_lines_entry_equals_the_general_polygons_alone(lines):
    # ``eval_many(..., lines=...)`` is how a lattice tile runs the general
    # part: those polygons only, no axis form, and ``y`` may be the output.
    fields = kernel_set(lines)
    general = [p for p, axis in zip(fields.polygons, on_axis_path(fields)) if not axis]
    assert 0 < len(general) < len(fields.polygons)
    rng = np.random.default_rng(8)
    for n in BLOCK_STRADDLING_COUNTS + (935,):
        pts = rng.uniform(-3, 3, size=(n, 2))
        pts[::7, 0] = 0.0
        pts[3::11, 1] = -0.0
        want = point_major_gamma_many(FieldSet(general), pts)
        x, y = np.ascontiguousarray(pts.T)
        assert_same_bits(fields.eval_many(x, y, lines=fields._lines), want)
        assert_same_bits(fields.eval_many(x, y, out=y, lines=fields._lines), want)


@pytest.mark.parametrize("lines", ENTRY_SETS[:3])
def test_field_sets_take_part_in_no_reference_cycle(lines):
    # Without the cycle collector a set that refers to itself, directly or
    # through one of its attributes, outlives its last reference.
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


# ---------------------------------------------------------------------------
# Mixed sets, general polygons beside an axis form, near and far from the
# origin: every polygon is folded in, general part first.
# ---------------------------------------------------------------------------


def fold_rank(poly):
    """A polygon's place in a set's fold: general, one-line along x,
    one-line along y, upright box."""
    if not all(exactly_axis(e) for e in poly.edges):
        return 0
    if len(poly.edges) == 1:
        return 1 if poly.edges[0].b == 0 else 2
    return 3


def one_polygon_fold(polys, x, y):
    """Reference: each polygon's own one-polygon set at the points, folded
    by ``np.maximum`` in the set's order, general polygons first."""
    values = [FieldSet((p,)).eval_many(x, y) for p in sorted(polys, key=fold_rank)]
    return functools.reduce(np.maximum, values)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def skip_scene(rng, origin):
    """A random mixed scene moved by ``origin``: a 5 x 2.5 spot's edges, an
    upright box beside it, and general polygons in it, beside it and one
    tilted line below it."""
    ox, oy = origin

    def at(x, y):
        return (ox + x, oy + y)

    polys = [
        spot_edge(at(5, 0), at(0, 0)),
        spot_edge(at(5, 2.5), at(5, 0)),
        spot_edge(at(0, 2.5), at(5, 2.5)),
        spot_edge(at(0, 0), at(0, 2.5)),
        axis_rect(*at(6.5, 0.4), *at(8.0, 2.1)),
        spot_edge(at(-3, -2), at(9, -2.3)),
    ]
    for lo, hi in (((0.6, 0.6), (4.4, 1.9)), ((-7, -3), (-1, 5)), ((7, -3), (12, 5))):
        cx, cy = rng.uniform(lo, hi)
        polys.append(regular_polygon(ox + cx, oy + cy, rng.uniform(0.3, 0.6), int(rng.integers(3, 7))))
    return [polys[i] for i in rng.permutation(len(polys))]


def ordered_coords(rng, lo, hi, n, signed_zeros):
    """``n`` sorted coordinates in [lo, hi], with -0.0 and 0.0 among them."""
    coords = rng.uniform(lo, hi, n)
    if signed_zeros and n >= 2:
        coords[:2] = (-0.0, 0.0)
    return np.sort(coords)


# Far from the origin a line's value cancels ``a*x + c`` over 1e9.
SKIP_ORIGINS = [(0.0, 0.0), (1e6, -2e6), (-3e8, 7e8), (1e9, 1e9)]


@pytest.mark.parametrize("origin", SKIP_ORIGINS)
def test_skipped_polygons_keep_every_bit_of_eval_many(origin):
    # The scene of a kernel skip since removed: a mixed set far from the
    # origin keeps the bits of folding each polygon alone.
    rng = np.random.default_rng(21)
    polys = skip_scene(rng, origin)
    fields = FieldSet(polys)
    for n in BLOCK_STRADDLING_COUNTS:
        # Sorted by x, so each block is a strip of the scene.
        x = origin[0] + ordered_coords(rng, -14, 19, n, origin[0] == 0)
        y = origin[1] + rng.uniform(-9, 11, n)
        y[3::11] = -0.0 if origin[1] == 0 else y[3::11]
        want = one_polygon_fold(polys, x, y)
        assert_same_bits(fields.eval_many(x, y), want)


@pytest.mark.parametrize("origin", SKIP_ORIGINS)
def test_skipped_polygons_keep_every_bit_of_the_lattice_and_grid(origin):
    rng = np.random.default_rng(22)
    polys = skip_scene(rng, origin)
    fields = FieldSet(polys)
    zeros = origin == (0.0, 0.0)
    # One sample and one shift, a few of each, and 37 samples by 80 x 60
    # shifts over several tiles.
    for m, nx, ny in ((1, 1, 1), (1, 3, 2), (37, 80, 60)):
        x, y = rng.uniform(-2.5, 2.5, m), rng.uniform(-1.2, 1.2, m)
        if zeros:
            x[:1], y[-1:] = 0.0, -0.0
        xs = origin[0] + ordered_coords(rng, -8, 14, nx, zeros)
        ys = origin[1] + ordered_coords(rng, -6, 8, ny, zeros)
        px = np.broadcast_to(x + xs[:, None, None], (nx, ny, m))
        py = np.broadcast_to(y + ys[None, :, None], (nx, ny, m))
        want = one_polygon_fold(polys, px.ravel(), py.ravel()).reshape(px.shape)
        for j, k, values in fields.eval_lattice(x, y, xs, ys):
            a, b = values.shape[:2]
            assert_same_bits(values, want[j : j + a, k : k + b])
    straddling = ((2, 2), (3, 5), (130, 127), (_TILE_POINTS + 1, 2), (2, _TILE_POINTS + 3))
    for nx, ny in straddling:
        xs = origin[0] + ordered_coords(rng, -14, 19, nx, zeros)
        ys = origin[1] + ordered_coords(rng, -9, 11, ny, zeros)
        gx, gy = np.meshgrid(xs, ys)
        want = one_polygon_fold(polys, gx.ravel(), gy.ravel()).reshape(ny, nx)
        assert_same_bits(fields.eval_grid(xs, ys), want)


def lot_rankings():
    generate_lot = bench_module("lot").generate_lot
    for seed in range(16):
        rank_spots(load_scenario(generate_lot(seed)), explain=False)


def golden_rankings():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        rank_spots(load_golden(path.name), explain=True)


# Points x lines that the general part multiplies: in ``rank_spots`` on
# ``bench/lot.py`` lots 0-15 with explain off, and in one pass over the
# goldens with explain on.  The spot-local sets hold only the obstacles
# that the exact test in the spot frame cannot rule out, and the kernel
# multiplies every line of them.
@pytest.mark.parametrize(
    "rankings, products",
    [
        pytest.param(lot_rankings, 65_318_352, id="lot"),
        pytest.param(golden_rankings, 4_665_384, id="goldens"),
    ],
)
def test_the_skip_pins_the_product_work(rankings, products, monkeypatch):
    work = [0]
    original = FieldSet._products

    def counting(self, xy, dst, buf, lines):
        work[0] += len(dst) * sum(len(polygon) for polygon in lines)
        return original(self, xy, dst, buf, lines)

    monkeypatch.setattr(FieldSet, "_products", counting)
    rankings()
    assert work[0] == products


# The coarse stage's work in the same runs: its lattice nodes, the stride-2
# sub-lattice's poses scored through the lattice entry, and all the poses
# it scored.
@pytest.mark.parametrize(
    "rankings, poses",
    [
        pytest.param(lot_rankings, (14_784, 4_224, 6_407), id="lot"),
        pytest.param(golden_rankings, (5_082, 1_452, 2_220), id="goldens"),
    ],
)
def test_the_bounded_coarse_stage_pins_its_poses(rankings, poses, monkeypatch):
    counts = [0, 0, 0]
    scan = []  # set while a coarse scan runs
    scores = solver.ObjectiveEvaluator.scores
    bounded_scan = solver._bounded_scan

    def counting_scores(self, rows, axes=None, *, nodes=None):
        if scan:
            n = np.asarray(rows).size // 3
            counts[1] += n if axes is not None and nodes is None else 0
            counts[2] += n
        return scores(self, rows, axes, nodes=nodes)

    def counting_scan(*args):
        scan.append(True)
        try:
            values, scored, slack = bounded_scan(*args)
        finally:
            scan.clear()
        counts[0] += scored.size
        return values, scored, slack

    monkeypatch.setattr(solver.ObjectiveEvaluator, "scores", counting_scores)
    monkeypatch.setattr(solver, "_bounded_scan", counting_scan)
    rankings()
    assert tuple(counts) == poses


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


def test_translation_norm_bounds_the_field_change():
    # Random convex polygons at any angle and upright boxes: between p and
    # p + d the computed field moves by at most the computed N(|dx|, |dy|),
    # plus the allowance of ``shift_norm``'s docstring, 2**-49 of the
    # largest |x| + |y| at the two points plus the set's largest offset.
    # The points are multiples of 2**-20 below 8, so p + d is exact.
    rng = np.random.default_rng(12)
    for _ in range(60):
        shapes = [
            regular_polygon(*rng.uniform(-3, 3, 2), rng.uniform(0.2, 2), rng.integers(3, 8))
            for _ in range(rng.integers(0, 4))
        ]
        polygons = [tilted(shape, rng.uniform(-4, 4)) for shape in shapes]
        for _ in range(rng.integers(0 if polygons else 1, 3)):
            x0, y0 = rng.uniform(-3, 2, 2)
            polygons.append(axis_rect(x0, y0, x0 + rng.uniform(0.1, 2), y0 + rng.uniform(0.1, 2)))
        fields = FieldSet(polygons)
        px, py, dx, dy = np.round(rng.uniform(-3.5, 3.5, (4, 400)) * 2**20) / 2**20
        # Some moves along one axis, some exactly zero.
        dx[::5], dy[1::5], dx[2::9], dy[2::9] = 0.0, 0.0, -0.0, 0.0
        moved = fields.eval_many(px + dx, py + dy) - fields.eval_many(px, py)
        norm = fields.shift_norm(np.abs(dx), np.abs(dy))
        scale = np.maximum(np.abs(px) + np.abs(py), np.abs(px + dx) + np.abs(py + dy)) + fields._scale
        assert np.all(np.abs(moved) <= norm + 2.0**-49 * scale)
        # The norm is at most the Euclidean distance, up to its roundings.
        assert np.all(norm <= np.hypot(dx, dy) * (1 + 2.0**-48))


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


if __name__ == "__main__":
    print_dispatch_outputs()
