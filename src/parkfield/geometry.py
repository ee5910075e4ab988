"""Planar polygon and rigid-transform primitives.

Everything here is scalar, pure and immutable.  Polygons hold only their
vertices and derive one signed line per edge on access; for convex
counter-clockwise polygons the line normals point inward, so the per-edge
value is a true signed distance (positive inside).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import GeometryError

TAU = 2.0 * math.pi

OBSTACLE = "obstacle"
SPOT_EDGE = "spot_edge"


def normalize_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = angle % TAU
    if r > math.pi:
        r -= TAU
    return r


@dataclass(frozen=True, slots=True)
class Point2:
    """A point in the plane, metres."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class EdgeLine:
    """Unit-normalized line ``a*x + b*y + c`` through one polygon edge.

    ``alpha`` is the direction angle of the edge it was derived from;
    the (a, b) normal is the left-hand normal of that direction, so the
    value is positive on the left of the directed edge.
    """

    a: float
    b: float
    c: float
    alpha: float


@dataclass(frozen=True, slots=True)
class RigidTransform:
    """Rotation by ``theta`` followed by translation by ``(tx, ty)``."""

    theta: float
    tx: float
    ty: float


def _edge_line(p: Point2, q: Point2, index: int) -> EdgeLine:
    dx = q.x - p.x
    dy = q.y - p.y
    length = math.hypot(dx, dy)
    if length < 1e-12:
        raise GeometryError(f"degenerate edge {index}: coincident vertices ({p.x}, {p.y})")
    a = -dy / length
    b = dx / length
    c = -(a * p.x + b * p.y)
    return EdgeLine(a, b, c, math.atan2(dy, dx))


def _lines_for_vertices(vertices: tuple[Point2, ...]) -> tuple[EdgeLine, ...]:
    # A 2-vertex spot edge carries a single directed line; the vertex
    # order picks which side is positive (left of the direction).
    n = len(vertices)
    if n == 2:
        return (_edge_line(vertices[0], vertices[1], 0),)
    return tuple(
        _edge_line(vertices[i], vertices[(i + 1) % n], i) for i in range(n)
    )


def _signed_area(vertices: tuple[Point2, ...]) -> float:
    # Fanned from the first vertex, so far from the origin the products
    # stay the size of the polygon, not of its coordinates.
    o = vertices[0]
    area = 0.0
    for p, q in zip(vertices[1:], vertices[2:]):
        area += (p.x - o.x) * (q.y - o.y) - (q.x - o.x) * (p.y - o.y)
    return 0.5 * area


def _is_convex_ccw(vertices: tuple[Point2, ...]) -> bool:
    """No turn to the right by over 1e-12 rad, and the turns add up to one
    circle: a star outline such as a pentagram turns left but twice around.
    Angles, unlike cross products, do not scale with the polygon."""
    turning = 0.0
    for o, p, q in zip(vertices, vertices[1:] + vertices[:1], vertices[2:] + vertices[:2]):
        ux, uy, vx, vy = p.x - o.x, p.y - o.y, q.x - p.x, q.y - p.y
        turn = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
        if turn < -1e-12:
            return False
        turning += turn
    return turning < 3.0 * math.pi


@dataclass(frozen=True, slots=True)
class Polygon:
    """Ordered cyclic vertex list with derived per-edge lines.

    kind=obstacle: >= 3 vertices, convex, counter-clockwise (clockwise
    input is reversed with a warning).  kind=spot_edge: exactly 2 vertices.
    Only the vertices are stored: a parsed scene holds every polygon, and
    its lines, which take more memory than its vertices, are read once,
    when a ``FieldSet`` compiles them.
    """

    vertices: tuple[Point2, ...]
    kind: str = OBSTACLE
    name: str = ""

    def __post_init__(self):
        verts = tuple(self.vertices)
        if self.kind == SPOT_EDGE:
            if len(verts) != 2:
                raise GeometryError(
                    f"spot edge '{self.name}' needs exactly 2 vertices, got {len(verts)}"
                )
        elif self.kind == OBSTACLE:
            if len(verts) < 3:
                raise GeometryError(
                    f"obstacle '{self.name}' needs >= 3 vertices, got {len(verts)}"
                )
            area = _signed_area(verts)
            if area == 0.0:
                raise GeometryError(f"obstacle '{self.name}' has zero area")
            if area < 0.0:
                warnings.warn(
                    f"obstacle '{self.name}': clockwise vertex order reversed",
                    stacklevel=3,
                )
                verts = verts[::-1]
            if not _is_convex_ccw(verts):
                raise GeometryError(f"obstacle '{self.name}' is not convex")
        else:
            raise GeometryError(f"unknown polygon kind '{self.kind}'")
        # Validated once here: ``edges`` makes the same lines on access.
        _lines_for_vertices(verts)
        object.__setattr__(self, "vertices", verts)

    @property
    def edges(self) -> tuple[EdgeLine, ...]:
        """One line per edge, made from the vertices on each access."""
        return _lines_for_vertices(self.vertices)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max)."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def apply_transform(t: RigidTransform, p_local: Point2) -> Point2:
    """Rotate ``p_local`` by ``t.theta`` then translate by ``(t.tx, t.ty)``."""
    c = math.cos(t.theta)
    s = math.sin(t.theta)
    return Point2(c * p_local.x - s * p_local.y + t.tx,
                  s * p_local.x + c * p_local.y + t.ty)


def invert(t: RigidTransform) -> RigidTransform:
    """The transform that maps apply_transform(t, p) back to p."""
    c = math.cos(t.theta)
    s = math.sin(t.theta)
    return RigidTransform(-t.theta, -(c * t.tx + s * t.ty), -(-s * t.tx + c * t.ty))


def transform_polygon(t: RigidTransform, polygon: Polygon) -> Polygon:
    """Apply a rigid transform to every vertex; edges are recomputed."""
    return Polygon(
        tuple(apply_transform(t, v) for v in polygon.vertices),
        kind=polygon.kind,
        name=polygon.name,
    )
