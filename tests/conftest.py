import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from parkfield.geometry import (
    EdgeLine,
    Point2,
    Polygon,
    RigidTransform,
    apply_transform,
    normalize_angle,
)
from parkfield.scenario import (
    Rect,
    VehicleFootprint,
    load_scenario,
    make_spot_from_center,
    spot_field_set,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# One line per acceptance criterion, printed after the run.
ACCEPTANCE_RESULTS: list = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(line)


def read_scenario(name: str) -> str:
    return (SCENARIO_DIR / name).read_text()


@pytest.fixture
def unit_square() -> Polygon:
    return Polygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)))


@pytest.fixture
def body_only_footprint() -> VehicleFootprint:
    return VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))


def load_golden(name: str):
    return load_scenario(read_scenario(name))


def point_in_polygon_raycast(vertices, x: float, y: float) -> bool:
    """Independent inside test (ray casting), used as an oracle."""
    n = len(vertices)
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = vertices[i].x, vertices[i].y
        xj, yj = vertices[j].x, vertices[j].y
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def regular_polygon(cx: float, cy: float, radius: float, sides: int) -> Polygon:
    verts = tuple(
        Point2(
            cx + radius * math.cos(2 * math.pi * k / sides),
            cy + radius * math.sin(2 * math.pi * k / sides),
        )
        for k in range(sides)
    )
    return Polygon(verts)


def random_scenario(rng, rects=1):
    """``(spot, fields, footprint)``: a random spot with up to two convex
    obstacles and a footprint that fits it, in the style of acceptance 5.

    The footprint carries the first ``rects`` of a front-left door, a
    rear-right door and a trunk; the extra rectangles draw nothing from
    ``rng``, so a seed gives the same spot and obstacles for every count.
    """
    lx = rng.uniform(3.0, 4.2)
    ly = rng.uniform(2.0, 2.7)
    spot = make_spot_from_center(
        "r",
        Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        lx,
        ly,
        rng.uniform(-math.pi, math.pi),
        rng.choice(["x_min", "x_max", "y_min", "y_max"]),
    )
    obstacles = []
    for k in range(rng.randint(0, 2)):
        cx, cy = rng.uniform(0, lx), rng.uniform(0, ly)
        radius = rng.uniform(0.15, 0.5)
        sides = rng.randint(3, 5)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(sides))
        if len(set(round(a, 3) for a in angles)) < sides:
            continue
        verts = tuple(
            spot.to_global(Point2(cx + radius * math.cos(a), cy + radius * math.sin(a)))
            for a in angles
        )
        try:
            obstacles.append(Polygon(verts, name=f"o{k}"))
        except Exception:
            continue
    length = rng.uniform(2.2, min(2.9, lx - 0.1))
    width = rng.uniform(1.4, min(1.9, ly - 0.1))
    half_l, half_w = length / 2, width / 2
    maneuver = (
        (Rect(0, half_l, half_w, half_w + 0.6), "front_left_door"),
        (Rect(-half_l, 0, -half_w - 0.9, -half_w), "rear_right_door"),
        (Rect(-half_l - 0.5, -half_l, -half_w, half_w), "trunk"),
    )
    footprint = VehicleFootprint(Rect(-half_l, half_l, -half_w, half_w), maneuver[:rects])
    fields = spot_field_set(spot, obstacles, reach=footprint.max_reach())
    return spot, fields, footprint


# Independent geometry oracles: re-derivations the tests check the package
# against, kept here because the package itself has no use for them.


def edge_lines(polygon: Polygon) -> list:
    """Unit-normalized edge lines recomputed from the vertices.

    One line per cyclic vertex pair, or one for a 2-vertex spot edge, each
    with the left-hand normal of its directed edge.
    """
    verts = polygon.vertices
    pairs = [verts] if len(verts) == 2 else zip(verts, verts[1:] + verts[:1])
    lines = []
    for p, q in pairs:
        dx, dy = q.x - p.x, q.y - p.y
        length = math.hypot(dx, dy)
        a, b = -dy / length, dx / length
        lines.append(EdgeLine(a, b, -(a * p.x + b * p.y), math.atan2(dy, dx)))
    return lines


def eval_line(line: EdgeLine, p: Point2) -> float:
    """Signed distance of ``p`` from the line, positive on the normal side."""
    return line.a * p.x + line.b * p.y + line.c


def polygon_field(polygon: Polygon, p: Point2) -> float:
    """Field of one polygon at ``p``: the minimum of its edge-line values,
    each evaluated in scalar arithmetic."""
    return min(eval_line(line, p) for line in polygon.edges)


def centroid(polygon: Polygon) -> Point2:
    """Mean of the polygon's vertices."""
    n = len(polygon.vertices)
    return Point2(
        sum(v.x for v in polygon.vertices) / n, sum(v.y for v in polygon.vertices) / n
    )


def inverse_transform(t: RigidTransform, p_global: Point2) -> Point2:
    """Inverse of ``apply_transform``: undo the translation, then the rotation."""
    c, s = math.cos(t.theta), math.sin(t.theta)
    dx, dy = p_global.x - t.tx, p_global.y - t.ty
    return Point2(c * dx + s * dy, -s * dx + c * dy)


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying ``inner`` first, then ``outer``."""
    p = apply_transform(outer, Point2(inner.tx, inner.ty))
    return RigidTransform(outer.theta + inner.theta, p.x, p.y)


def to_local(spot, p: Point2) -> Point2:
    """``p`` in the spot's local frame, through ``spot.spot_frame``."""
    return apply_transform(spot.spot_frame, p)


def total_area(footprint: VehicleFootprint) -> float:
    """Area of the body and every maneuver rectangle, from their intervals."""
    return sum(
        (r.x_max - r.x_min) * (r.y_max - r.y_min) for r in footprint.all_rects()
    )


def node_xy(fmap, row: int, col: int) -> tuple:
    """Global position of lattice node ``(row, col)`` of a field map."""
    return (fmap.origin.x + col * fmap.cell_size, fmap.origin.y + row * fmap.cell_size)


def point_major_gamma_many(fields, pts):
    """Independent field-kernel oracle: one point-major ``(N, 2) @ (2, L)``
    product per polygon, min over its lines, max over polygons."""
    values = None
    for poly in fields.polygons:
        normals = np.array([[e.a, e.b] for e in poly.edges])
        offsets = np.array([e.c for e in poly.edges])
        lines_min = (pts @ normals.T + offsets).min(axis=1)
        values = lines_min if values is None else np.maximum(values, lines_min)
    return values


def scalar_tie_key(score, x, y, theta, cfg, spot):
    """The README's total order of scored poses, as one tuple per pose.

    Score, heading deviation from the nearest configured heading, distance
    to the approach edge (larger first), x, y, normalized heading.
    """
    deviation = min(abs(normalize_angle(theta - h)) for h in cfg.headings)
    distance = {
        "x_min": x,
        "x_max": spot.length - x,
        "y_min": y,
        "y_max": spot.width - y,
    }[spot.approach_side]
    return (score, deviation, -distance, x, y, normalize_angle(theta))


def unblocked_scores(fields, evaluator, poses):
    """Objective oracle for a one-footprint evaluator: all P x M posed sample
    points in one evaluation of ``point_major_gamma_many``, then the per-row
    weighted sum."""
    poses = np.asarray(poses, dtype=float).reshape(-1, 3)
    cos = np.cos(poses[:, 2])
    sin = np.sin(poses[:, 2])
    lx = evaluator._pts[:, 0]
    ly = evaluator._pts[:, 1]
    gx = cos[:, None] * lx[None, :] - sin[:, None] * ly[None, :] + poses[:, 0:1]
    gy = sin[:, None] * lx[None, :] + cos[:, None] * ly[None, :] + poses[:, 1:2]
    values = point_major_gamma_many(
        fields, np.column_stack([gx.ravel(), gy.ravel()])
    ).reshape(len(poses), -1)
    (_, weights), = evaluator._columns
    return (values * weights).sum(axis=1)


def bench_module(name: str):
    """A helper module of the benchmark (``lot``, ``stats``), imported read-only."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    return importlib.import_module(name)
