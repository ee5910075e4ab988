import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from parkfield.geometry import EdgeLine, Point2, Polygon, RigidTransform, apply_transform
from parkfield.scenario import Rect, VehicleFootprint, load_scenario

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


def unblocked_scores(fields, evaluator, poses):
    """Objective oracle: all P x M posed sample points in one evaluation of
    ``point_major_gamma_many``, then the per-row weighted sum."""
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
    return (values * evaluator._weights).sum(axis=1)


def bench_module(name: str):
    """A helper module of the benchmark (``lot``, ``stats``), imported read-only."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    return importlib.import_module(name)
