"""Planar polygon and rigid-transform primitives.

Everything here is scalar, pure and immutable.  Polygons hold only their
vertex coordinates, packed as doubles, and derive their vertices and one
signed line per edge on access, an ``(a, b, c)`` triple; for convex
counter-clockwise polygons the line normals point inward, so the per-edge
value is a true signed distance (positive inside).  A polygon is checked
once, when it is built from outside input; moving it into a spot's frame
(``transform_polygon``) moves its stored coordinates and checks nothing
again.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass
from typing import NamedTuple

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


class EdgeLine(NamedTuple):
    """Unit-normalized line ``a*x + b*y + c`` through one polygon edge.

    The (a, b) normal is the left-hand normal of the directed edge, so the
    value is positive on its left.
    """

    a: float
    b: float
    c: float


@dataclass(frozen=True, slots=True)
class RigidTransform:
    """Rotation by ``theta`` followed by translation by ``(tx, ty)``."""

    theta: float
    tx: float
    ty: float


def _edges(xy) -> list:
    """``(px, py, qx, qy)`` of each directed edge of the vertices ``(x0,
    y0, x1, y1, ...)``."""
    # A 2-vertex spot edge carries a single directed line; the vertex
    # order picks which side is positive (left of the direction).
    if len(xy) == 4:
        return [tuple(xy)]
    closed = tuple(xy) + tuple(xy[:2])
    return [closed[i : i + 4] for i in range(0, len(xy), 2)]


def _edge_line(px: float, py: float, qx: float, qy: float) -> EdgeLine:
    dx = qx - px
    dy = qy - py
    length = math.hypot(dx, dy)
    a = -dy / length
    b = dx / length
    c = -(a * px + b * py)
    return EdgeLine(a, b, c)


def _signed_area(vertices: tuple[Point2, ...]) -> float:
    # Fanned from the first vertex, so far from the origin the products
    # stay the size of the polygon, not of its coordinates.
    o = vertices[0]
    area = 0.0
    for p, q in zip(vertices[1:], vertices[2:]):
        area += (p.x - o.x) * (q.y - o.y) - (q.x - o.x) * (p.y - o.y)
    return 0.5 * area


# How far outside an edge's line the rounding of the coordinates can put a
# vertex of a convex outline, in units of the largest coordinate magnitude
# M.  A coordinate read from a map export or computed there (a midpoint, a
# rigid move) is within about half an ulp of its exact value, so a vertex
# is within d = 2**-52 M of its place in the plane.  A vertex in the middle
# of a side, and the side's end beyond it, lie on the line through the
# other end and the middle; moving all three by d puts the far end at most
# 4d outside it (d, and d and 2d from tilting the line).  The cross product
# that measures it rounds by a few units of 2**-52 M more.  This allows 16:
# 36 nm at 1e7 m.  It bounds a distance, not a turn, so splitting a vertex
# into a chain of tiny edges cannot add up to a dent: the edges' lines,
# which score the obstacle, miss at most a sliver that thin of it.
_OUTSIDE_ROUNDING = 2.0**-48


def _is_convex_ccw(vertices: tuple[Point2, ...]) -> bool:
    """The turns add up to one circle, which a star outline such as a
    pentagram does not: it turns left but twice around.  No turn is to the
    right by over 1e-12 rad, or else no vertex is outside an edge's line by
    over ``_OUTSIDE_ROUNDING``.  Angles, unlike cross products, do not scale
    with the polygon."""
    turning = 0.0
    right = False
    for o, p, q in zip(vertices, vertices[1:] + vertices[:1], vertices[2:] + vertices[:2]):
        ux, uy, vx, vy = p.x - o.x, p.y - o.y, q.x - p.x, q.y - p.y
        turn = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
        right = right or turn < -1e-12
        turning += turn
    return turning < 3.0 * math.pi and not (right and _outside_rounding(vertices))


def _outside_rounding(vertices: tuple[Point2, ...]) -> bool:
    """Whether a vertex is outside an edge's line by over what rounding the
    coordinates can put it there (``_OUTSIDE_ROUNDING``)."""
    slack = _OUTSIDE_ROUNDING * max(max(abs(v.x), abs(v.y)) for v in vertices)
    for p, q in zip(vertices, vertices[1:] + vertices[:1]):
        ex, ey = q.x - p.x, q.y - p.y
        # The cross product is the distance to the left of the line times
        # the edge's length.
        limit = -slack * math.hypot(ex, ey)
        if any(ex * (w.y - p.y) - ey * (w.x - p.x) < limit for w in vertices):
            return True
    return False


class Polygon:
    """Ordered cyclic vertex list with derived per-edge lines.

    kind=obstacle: >= 3 vertices, convex, counter-clockwise (clockwise
    input is reversed with a warning).  kind=spot_edge: exactly 2 vertices.
    Only the vertex coordinates are stored, packed as doubles: a parsed
    scene holds every polygon, and its ``Point2`` vertices and its lines
    take more memory than the coordinates, so both are made on access.  A
    ``FieldSet`` reads the lines once, when it compiles them.  Immutable;
    equality and hashing go by the coordinate values, kind and name, so
    ``-0.0`` equals ``0.0`` as it does in a ``Point2``.
    """

    __slots__ = ("_xy", "kind", "name")

    def __init__(self, vertices, kind: str = OBSTACLE, name: str = ""):
        verts = tuple(vertices)
        if kind == SPOT_EDGE:
            if len(verts) != 2:
                raise GeometryError(
                    f"spot edge '{name}' needs exactly 2 vertices, got {len(verts)}"
                )
        elif kind == OBSTACLE:
            if len(verts) < 3:
                raise GeometryError(f"obstacle '{name}' needs >= 3 vertices, got {len(verts)}")
            area = _signed_area(verts)
            if area == 0.0:
                raise GeometryError(f"obstacle '{name}' has zero area")
            if area < 0.0:
                warnings.warn(
                    f"obstacle '{name}': clockwise vertex order reversed",
                    stacklevel=2,
                )
                verts = verts[::-1]
            if not _is_convex_ccw(verts):
                raise GeometryError(f"obstacle '{name}' is not convex")
        else:
            raise GeometryError(f"unknown polygon kind '{kind}'")
        xy = [c for v in verts for c in (v.x, v.y)]
        # Checked once here: ``edges`` divides by each length on access.
        for i, (px, py, qx, qy) in enumerate(_edges(xy)):
            if math.hypot(qx - px, qy - py) < 1e-12:
                raise GeometryError(f"degenerate edge {i}: coincident vertices ({px}, {py})")
        _store(self, xy, kind, name)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to '{name}' of an immutable Polygon")

    __delattr__ = __setattr__

    def _coords(self) -> tuple:
        """``(x0, y0, x1, y1, ...)`` of the vertices."""
        return tuple(memoryview(self._xy).cast("d"))

    def _key(self) -> tuple:
        return self._coords(), self.kind, self.name

    def __eq__(self, other):
        if other.__class__ is not Polygon:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Polygon(vertices={self.vertices!r}, kind={self.kind!r}, name={self.name!r})"

    @property
    def vertices(self) -> tuple[Point2, ...]:
        """The vertices, made from the stored coordinates on each access."""
        xy = self._coords()
        return tuple(Point2(x, y) for x, y in zip(xy[::2], xy[1::2]))

    @property
    def edges(self) -> tuple[EdgeLine, ...]:
        """One line per edge, made from the coordinates on each access."""
        return tuple(_edge_line(*edge) for edge in _edges(self._coords()))

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max)."""
        xy = self._coords()
        return min(xy[::2]), min(xy[1::2]), max(xy[::2]), max(xy[1::2])


def _store(polygon: Polygon, xy, kind: str, name: str) -> Polygon:
    """``polygon`` holding the coordinates ``xy`` packed, unchecked."""
    for slot, value in zip(Polygon.__slots__, (array("d", xy).tobytes(), kind, name)):
        object.__setattr__(polygon, slot, value)
    return polygon


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
    """``polygon`` with every vertex moved as ``apply_transform`` moves it,
    bit for bit, from the stored coordinates.

    The move is not checked again: a rigid move keeps what the checks at
    construction found, but rounding far from the origin can tip a check
    that passed, such as a collinear vertex's zero turn.  What rounding
    could collapse, an edge a few coordinate ulps long, ``parse_scenario``
    rejects.
    """
    c = math.cos(t.theta)
    s = math.sin(t.theta)
    xy = polygon._coords()
    moved = []
    for x, y in zip(xy[::2], xy[1::2]):
        moved += (c * x - s * y + t.tx, s * x + c * y + t.ty)
    return _store(object.__new__(Polygon), moved, polygon.kind, polygon.name)
