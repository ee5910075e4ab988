import math
from pathlib import Path

import numpy as np
import pytest

from parkfield.geometry import Point2, Polygon
from parkfield.scenario import Rect, VehicleFootprint, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

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
