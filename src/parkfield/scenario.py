"""Parking-area data model and scenario-file ingestion.

A scenario file is a single JSON document (schema in docs/scenario_format.md)
describing parking spots, convex obstacle polygons, the cabin context
(who sits where, trunk state) and the vehicle dimensions.  All lengths are
metres, all angles radians, the global frame is right-handed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ScenarioError, finite_number
from .field import FieldMap, FieldSet, sample_field
from .geometry import (
    OBSTACLE,
    SPOT_EDGE,
    Point2,
    Polygon,
    RigidTransform,
    _edges,
    apply_transform,
    invert,
    transform_polygon,
)

SEAT_POSITIONS = ("driver", "front_passenger", "rear_left", "rear_middle", "rear_right")
OCCUPANCIES = ("empty", "adult", "baby")
APPROACH_SIDES = ("x_min", "x_max", "y_min", "y_max")

# Repo-default clearance depths, metres.  Fixed stand-ins for per-user
# sizing; golden assertions are qualitative orderings, never magnitudes.
DEFAULT_CLEARANCE_TABLE = {
    "adult_door": 0.60,
    "baby_door": 1.00,
    "trunk_empty": 0.30,
    "trunk_loaded": 0.90,
}

DEFAULT_BODY_LENGTH = 4.2
DEFAULT_BODY_WIDTH = 1.8

# Which door each seat exits through: (row, side).  The middle rear seat
# exits through the left door by repo convention.
_SEAT_DOOR = {
    "driver": ("front", "left"),
    "front_passenger": ("front", "right"),
    "rear_left": ("rear", "left"),
    "rear_middle": ("rear", "left"),
    "rear_right": ("rear", "right"),
}

_DOOR_SLOT_ORDER = (
    ("front", "left"),
    ("front", "right"),
    ("rear", "left"),
    ("rear", "right"),
)

# Labels of the footprint rectangles, the keys ``rect_weights`` accepts.
RECT_LABELS = (
    "body",
    *(f"{row}_{side}_door" for row, side in _DOOR_SLOT_ORDER),
    "trunk",
)

_RECT_CORNER_TOL = 1e-6

# Largest spot length or width, metres.  Up to 1e9 m a corner coordinate's
# float64 spacing (1.2e-7 m) stays well below ``_RECT_CORNER_TOL``, so the
# rectangle check still resolves its tolerance.  Obstacle coordinates, body
# dimensions and clearance depths share the bound, so no edge length, area
# or score overflows.
MAX_SPOT_EXTENT = 1e9


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle stored as coordinate intervals."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max >= self.x_min and self.y_max >= self.y_min):
            raise GeometryError(f"inverted rectangle intervals {self}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def corners(self) -> list[tuple[float, float]]:
        return [
            (self.x_min, self.y_min),
            (self.x_max, self.y_min),
            (self.x_max, self.y_max),
            (self.x_min, self.y_max),
        ]

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True, slots=True)
class VehicleSpec:
    """Body dimensions plus the door/trunk clearance-depth table."""

    body_length: float = DEFAULT_BODY_LENGTH
    body_width: float = DEFAULT_BODY_WIDTH
    clearance_table: dict = field(default_factory=lambda: dict(DEFAULT_CLEARANCE_TABLE))

    def __post_init__(self):
        if self.body_length <= 0 or self.body_width <= 0:
            raise GeometryError("vehicle body dimensions must be positive")
        for key in DEFAULT_CLEARANCE_TABLE:
            if key not in self.clearance_table:
                raise GeometryError(f"clearance_table missing '{key}'")
            if self.clearance_table[key] <= 0:
                raise GeometryError(f"clearance_table['{key}'] must be positive")
        if self.clearance_table["baby_door"] < self.clearance_table["adult_door"]:
            raise GeometryError("baby_door clearance must be >= adult_door")


@dataclass(frozen=True, slots=True)
class CabinContext:
    """Seat occupancy over the fixed 5-seat layout plus the trunk flag."""

    seats: dict = field(default_factory=dict)
    trunk_loaded: bool = False

    def __post_init__(self):
        seats = {}
        for seat, occ in self.seats.items():
            if seat not in SEAT_POSITIONS:
                raise GeometryError(f"unknown seat position '{seat}'")
            if occ not in OCCUPANCIES:
                raise GeometryError(f"unknown occupancy '{occ}' for seat '{seat}'")
            if occ != "empty":
                seats[seat] = occ
        if seats and seats.get("driver") != "adult":
            raise GeometryError("driver seat must hold an adult when anyone is aboard")
        object.__setattr__(self, "seats", seats)

    @property
    def occupied(self) -> bool:
        return bool(self.seats)


@dataclass(frozen=True, slots=True)
class VehicleFootprint:
    """Body rectangle plus door/trunk maneuvering rectangles.

    All rectangles are axis-aligned in the vehicle frame: origin at the
    body center, x forward, y to the left.  Maneuver rectangles share an
    edge with the body and never overlap each other.
    """

    body: Rect
    maneuver_rects: tuple = ()

    def __post_init__(self):
        if not self.body.contains(0.0, 0.0):
            raise GeometryError("body rectangle must contain the origin")
        object.__setattr__(self, "maneuver_rects", tuple(self.maneuver_rects))

    def all_rects(self) -> list[Rect]:
        return [self.body] + [r for r, _ in self.maneuver_rects]

    def labels(self) -> list[str]:
        return [label for _, label in self.maneuver_rects]

    def without(self, label: str) -> "VehicleFootprint":
        """Copy of the footprint with one maneuver rectangle removed."""
        kept = tuple((r, lb) for r, lb in self.maneuver_rects if lb != label)
        if len(kept) == len(self.maneuver_rects):
            raise KeyError(f"no maneuver rectangle labelled '{label}'")
        return VehicleFootprint(self.body, kept)

    def max_reach(self) -> float:
        """Largest distance from the body center to any footprint corner."""
        reach = 0.0
        for rect in self.all_rects():
            for cx, cy in rect.corners():
                reach = max(reach, math.hypot(cx, cy))
        return reach


@dataclass(frozen=True, slots=True)
class ParkingSpot:
    """Rectangular spot: global corners plus the global-to-local frame.

    The local frame has its origin at corners[0], x along the spot length
    toward corners[1], so the corners map to (0,0), (l_x,0), (l_x,l_y),
    (0,l_y).  ``approach_side`` names the local boundary edge that faces
    the driving lane.
    """

    id: str
    corners: tuple
    length: float
    width: float
    spot_frame: RigidTransform
    approach_side: str

    def to_global(self, p: Point2) -> Point2:
        return apply_transform(invert(self.spot_frame), p)


def make_spot(
    spot_id: str,
    corners: list[Point2],
    approach_side: str,
) -> ParkingSpot:
    """Build a spot from 4 counter-clockwise rectangle corners.

    Raises GeometryError with the max corner residual if the corners do
    not form a CCW rectangle within tolerance, and if the length or width
    is not finite or over ``MAX_SPOT_EXTENT``.
    """
    if len(corners) != 4:
        raise GeometryError(f"spot '{spot_id}' needs 4 corners, got {len(corners)}")
    c0, c1, c2, c3 = corners
    l_x = math.hypot(c1.x - c0.x, c1.y - c0.y)
    if l_x < 1e-9:
        raise GeometryError(f"spot '{spot_id}': corners[0] and corners[1] coincide")
    heading = math.atan2(c1.y - c0.y, c1.x - c0.x)
    ux, uy = math.cos(heading), math.sin(heading)
    # Left-hand normal of the length axis; CCW corners put c3 on this side.
    l_y = (c3.x - c0.x) * -uy + (c3.y - c0.y) * ux
    if l_y < 1e-9:
        raise GeometryError(
            f"spot '{spot_id}': corners are clockwise or degenerate (width {l_y:.3g})"
        )
    if not (l_x <= MAX_SPOT_EXTENT and l_y <= MAX_SPOT_EXTENT):
        raise GeometryError(
            f"spot '{spot_id}': size {l_x:.3g} m x {l_y:.3g} m is not finite "
            f"or over {MAX_SPOT_EXTENT:.0e} m"
        )
    ideal = [
        (c0.x, c0.y),
        (c0.x + l_x * ux, c0.y + l_x * uy),
        (c0.x + l_x * ux - l_y * uy, c0.y + l_x * uy + l_y * ux),
        (c0.x - l_y * uy, c0.y + l_y * ux),
    ]
    residual = max(
        math.hypot(c.x - ix, c.y - iy) for c, (ix, iy) in zip(corners, ideal)
    )
    # Written so that NaN fails it: corners near the float range give an
    # infinite or NaN size and a NaN residual.
    if not residual <= _RECT_CORNER_TOL:
        raise GeometryError(
            f"spot '{spot_id}': corners deviate from a rectangle by {residual:.3g} m"
        )
    if approach_side not in APPROACH_SIDES:
        raise GeometryError(f"spot '{spot_id}': unknown approach_side '{approach_side}'")
    cos_h, sin_h = math.cos(-heading), math.sin(-heading)
    frame = RigidTransform(
        -heading,
        -(cos_h * c0.x - sin_h * c0.y),
        -(sin_h * c0.x + cos_h * c0.y),
    )
    return ParkingSpot(spot_id, tuple(corners), l_x, l_y, frame, approach_side)


def make_spot_from_center(
    spot_id: str,
    center: Point2,
    length: float,
    width: float,
    heading: float,
    approach_side: str,
) -> ParkingSpot:
    if length <= 0 or width <= 0:
        raise GeometryError(f"spot '{spot_id}': length and width must be positive")
    ux, uy = math.cos(heading), math.sin(heading)
    half_l, half_w = length / 2.0, width / 2.0
    local = [(-half_l, -half_w), (half_l, -half_w), (half_l, half_w), (-half_l, half_w)]
    corners = [
        Point2(center.x + lx * ux - ly * uy, center.y + lx * uy + ly * ux)
        for lx, ly in local
    ]
    return make_spot(spot_id, corners, approach_side)


@dataclass(frozen=True, slots=True)
class Scenario:
    """One parking area, cabin context and vehicle in a shared global frame."""

    spots: tuple
    obstacles: tuple
    context: CabinContext
    vehicle: VehicleSpec

    def __post_init__(self):
        if not self.spots:
            raise GeometryError("scenario needs at least one spot")
        object.__setattr__(self, "spots", tuple(self.spots))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))


def build_footprint(context: CabinContext, vehicle: VehicleSpec) -> VehicleFootprint:
    """Map the cabin context onto body plus maneuvering rectangles.

    One rectangle per occupied door slot (depth from the clearance table,
    babies use the deeper baby_door entry; co-occupied slots take the max),
    plus a trunk rectangle at the rear whose depth depends on the trunk
    state.  An empty cabin with an empty trunk keeps a single driver-door
    band so the driver can get back in.
    """
    half_l = vehicle.body_length / 2.0
    half_w = vehicle.body_width / 2.0
    body = Rect(-half_l, half_l, -half_w, half_w)
    table = vehicle.clearance_table

    depths: dict = {}
    for seat, occ in context.seats.items():
        slot = _SEAT_DOOR[seat]
        depth = table["baby_door"] if occ == "baby" else table["adult_door"]
        depths[slot] = max(depths.get(slot, 0.0), depth)
    if not context.occupied and not context.trunk_loaded:
        depths[("front", "left")] = table["adult_door"]

    rects = []
    for row, side in _DOOR_SLOT_ORDER:
        depth = depths.get((row, side))
        if depth is None:
            continue
        x_lo, x_hi = (0.0, half_l) if row == "front" else (-half_l, 0.0)
        if side == "left":
            rect = Rect(x_lo, x_hi, half_w, half_w + depth)
        else:
            rect = Rect(x_lo, x_hi, -half_w - depth, -half_w)
        rects.append((rect, f"{row}_{side}_door"))

    if context.trunk_loaded:
        trunk_depth = table["trunk_loaded"]
    elif context.occupied:
        trunk_depth = table["trunk_empty"]
    else:
        trunk_depth = None
    if trunk_depth is not None:
        rects.append((Rect(-half_l - trunk_depth, -half_l, -half_w, half_w), "trunk"))

    return VehicleFootprint(body, tuple(rects))


def _spot_edge_polygons(spot: ParkingSpot, local: bool = False) -> list[Polygon]:
    """The spot's 4 edges, in the global frame or, with ``local``, in the
    spot frame, built from its length and width.

    Local edges are exact: rotating the global ones into the spot frame
    rounds, and a line one bit off an axis takes the field kernel's general
    part, which multiplies out each line, instead of its axis path.
    """
    # Corners are CCW, so traversing them backwards puts the left-hand
    # normal of each edge on the outside: the edge field is negative
    # (free) over the spot interior and positive (obstructing) beyond
    # the boundary, which keeps the footprint from escaping the spot.
    corners = spot.corners
    if local:
        corners = (
            Point2(0.0, 0.0),
            Point2(spot.length, 0.0),
            Point2(spot.length, spot.width),
            Point2(0.0, spot.width),
        )
    polys = []
    for i in range(4):
        p = corners[(i + 1) % 4]
        q = corners[i]
        polys.append(Polygon((p, q), kind=SPOT_EDGE, name=f"{spot.id}/edge{i}"))
    return polys


def _boxes_overlap(a, b) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


# An obstacle is dropped from a spot's field set only where its lines fall
# short of the spot's edge lines by this share of the spot frame's operands
# (see ``_domination_clip``).
_PRUNE_SLACK = 2.0**-44


def _domination_clip(spot: ParkingSpot, reach: float, edges: list[Polygon]):
    """``clip(obstacle)``: the vertices of the part of the spot-frame region
    R = [-reach, l_x + reach] x [-reach, l_y + reach] where ``obstacle``, in
    the spot frame, may reach the field of ``edges``, the spot's exact local
    edges (``_spot_edge_polygons(spot, local=True)``) or some of them.  An
    empty list means the edges dominate the obstacle over R.

    A footprint of reach ``reach`` posed with its body centre in the spot
    box puts every sample in R.  The obstacle's field is the minimum of its
    lines l_i, the edges' the maximum of theirs e_j, so it lies below the
    edges at a point where some l_i - e_j is negative.  R is clipped
    (Sutherland-Hodgman) by each half-plane ``l_i - e_j >= -slack``; if
    nothing is left, at every point of R some difference is below
    ``-slack``, and the field kernel, which evaluates the same lines (those
    of ``transform_polygon(spot.spot_frame, obstacle)``), gives the
    obstacle a value strictly below an edge's at every posed point: it is
    never the maximum, nor ties with it, so dropping it changes no bit.

    ``slack`` is ``_PRUNE_SLACK`` times T, the sum of l_x + l_y + 2*reach
    (at least ``|x| + |y|`` over R), the edges' largest offset magnitude
    and the obstacle's.  It is sized by the operands, not by the values,
    because a line's value cancels to a small number far from the line
    while its rounding stays at the scale of the operands.  With u =
    2**-53 it covers:

    - the posed points, which rounding puts within 9uT of R, where a
      difference of two unit-normal lines moves by at most twice that;
    - the kernel's four roundings of an unfused obstacle line and the one
      of an axis edge line, at most 5uT;
    - the clip's own arithmetic: a vertex's value, from the rounded
      coefficients of ``l_i - e_j``, is within 10uT of the exact one, and
      a crossing that a clip adds lies within 25uT of its line in value.
      The edges of R keep their exact coordinate, so a point of R where
      every difference exceeds ``-slack`` by 25uT stays inside every clip.

    That is under 50uT in all; the slack, 512uT, covers it ten times over.
    A NaN value counts as inside, so nothing is dropped on it.
    """
    length, width = spot.length, spot.width
    region = [
        (-reach, -reach),
        (length + reach, -reach),
        (length + reach, width + reach),
        (-reach, width + reach),
    ]
    lines = [e for polygon in edges for e in polygon.edges]
    span = length + width + 2.0 * reach + max(length, width)

    def clip(obstacle: Polygon) -> list:
        own = obstacle.edges
        slack = _PRUNE_SLACK * (span + max(abs(c) for _, _, c in own))
        polygon = region
        for a, b, c in own:
            for ea, eb, ec in lines:
                polygon = _clip(polygon, a - ea, b - eb, (c - ec) + slack)
                if not polygon:
                    return polygon
        return polygon

    return clip


def _clip(polygon: list, a: float, b: float, c: float) -> list:
    """The vertices of the part of the convex ``polygon`` where ``a*x + b*y
    + c`` is not negative: Sutherland-Hodgman against one half-plane."""
    values = [a * x + b * y + c for x, y in polygon]
    inside = [not v < 0.0 for v in values]
    if all(inside):
        return polygon
    out = []
    # Each edge from the previous vertex q to p: its crossing, then p.
    for k, (p, vp, kept) in enumerate(zip(polygon, values, inside)):
        if kept != inside[k - 1]:
            q, vq = polygon[k - 1], values[k - 1]
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        if kept:
            out.append(p)
    return out


def area_field_map(scenario: Scenario, bounds: tuple, resolution: float) -> FieldMap:
    """The whole area's field sampled over ``bounds``, for rendering.

    A spot's edge field is negative only inside that spot, so the spots
    combine by min, then the obstacles by max: max(obstacles, min over spots
    of each spot's edge field).  Both are exact, so a one-spot area samples
    the values of one ``FieldSet`` of its edges and every obstacle.  The
    first spot is sampled whole and every later field set folded into it
    band by band, so the map's peak is one grid and one band.
    """
    first, *others = scenario.spots
    fmap = sample_field(FieldSet(_spot_edge_polygons(first)), bounds, resolution)
    for spot in others:
        fmap.fold(FieldSet(_spot_edge_polygons(spot)), np.minimum)
    if scenario.obstacles:
        fmap.fold(FieldSet(scenario.obstacles), np.maximum)
    return fmap


def spot_field_set(
    spot: ParkingSpot,
    obstacles: list[Polygon],
    reach: float | None = None,
) -> FieldSet:
    """Field polygons relevant to one spot, in the global frame: its 4 edges
    plus the obstacles that may reach them.

    An obstacle is dropped only if its bounding box misses the spot's
    bounding box inflated by ``reach`` (the footprint's maximal reach;
    defaults to the larger spot dimension), and, moved into the spot frame,
    the spot's edges dominate it over the spot box inflated there by
    ``reach`` (``_domination_clip``).  An obstacle whose bounding box meets
    the inflated region is kept untested; the solver's spot-local set
    (``_local_field_set``) tests every obstacle.
    """
    if reach is None:
        reach = max(spot.length, spot.width)
    edges = _spot_edge_polygons(spot)
    xs = [c.x for c in spot.corners]
    ys = [c.y for c in spot.corners]
    region = (min(xs) - reach, min(ys) - reach, max(xs) + reach, max(ys) + reach)
    kept = []
    clip = None  # built for the first obstacle whose bounding box misses the region
    for obstacle in obstacles:
        if not _boxes_overlap(obstacle.bounding_box(), region):
            clip = clip or _domination_clip(spot, reach, _spot_edge_polygons(spot, local=True))
            if not clip(transform_polygon(spot.spot_frame, obstacle)):
                continue
        kept.append(obstacle)
    return FieldSet(edges + kept)


def _local_field_set(fields: FieldSet, spot: ParkingSpot, reach: float) -> FieldSet:
    """``fields`` moved into the spot frame for footprints of reach
    ``reach``: the spot's own edges, if it holds them, built there exactly,
    and every other polygon moved, less the obstacles that the edges it
    holds dominate over the spot box inflated by ``reach``
    (``_domination_clip``), which change no bit of a score."""
    local = dict(zip(_spot_edge_polygons(spot), _spot_edge_polygons(spot, local=True)))
    clip = _domination_clip(spot, reach, [local[p] for p in fields.polygons if p in local])
    moved = (local.get(p) or transform_polygon(spot.spot_frame, p) for p in fields.polygons)
    return FieldSet(p for p in moved if p.kind != OBSTACLE or clip(p))


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------


def _expect(value, types, path: str, what: str):
    if not isinstance(value, types):
        raise ScenarioError(path, f"expected {what}, got {type(value).__name__}")
    return value


def _point(value, path: str, limit: float = math.inf) -> Point2:
    """An ``[x, y]`` pair, each coordinate at most ``limit`` in magnitude."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(path, "expected a [x, y] pair")
    return Point2(
        finite_number(f"{path}[0]", value[0], -limit, high=limit),
        finite_number(f"{path}[1]", value[1], -limit, high=limit),
    )


def _parse_spot(entry, path: str, seen_ids: set) -> ParkingSpot:
    _expect(entry, dict, path, "an object")
    spot_id = entry.get("id")
    if not isinstance(spot_id, str) or not spot_id:
        raise ScenarioError(f"{path}.id", "expected a non-empty string")
    if spot_id in seen_ids:
        raise ScenarioError(f"{path}.id", f"duplicate spot id '{spot_id}'")
    seen_ids.add(spot_id)
    approach = entry.get("approach_side", "x_max")
    if approach not in APPROACH_SIDES:
        raise ScenarioError(
            f"{path}.approach_side", f"expected one of {APPROACH_SIDES}, got {approach!r}"
        )
    has_corners = "corners" in entry
    has_center = "center" in entry
    if has_corners == has_center:
        raise ScenarioError(path, "give exactly one of 'corners' or 'center'+dims")
    try:
        if has_corners:
            corners_raw = _expect(entry["corners"], list, f"{path}.corners", "a list")
            if len(corners_raw) != 4:
                raise ScenarioError(f"{path}.corners", "expected 4 corner pairs")
            corners = [
                _point(c, f"{path}.corners[{i}]") for i, c in enumerate(corners_raw)
            ]
            try:
                return make_spot(spot_id, corners, approach)
            except GeometryError as exc:
                raise ScenarioError(f"{path}.corners", str(exc)) from exc
        center = _point(entry.get("center"), f"{path}.center")
        length = finite_number(f"{path}.length", entry.get("length"))
        width = finite_number(f"{path}.width", entry.get("width"))
        heading = finite_number(f"{path}.heading", entry.get("heading", 0.0))
        return make_spot_from_center(spot_id, center, length, width, heading, approach)
    except GeometryError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _parse_obstacle(entry, path: str, seen_ids: set) -> Polygon:
    _expect(entry, dict, path, "an object")
    obst_id = entry.get("id")
    if not isinstance(obst_id, str) or not obst_id:
        raise ScenarioError(f"{path}.id", "expected a non-empty string")
    if obst_id in seen_ids:
        raise ScenarioError(f"{path}.id", f"duplicate obstacle id '{obst_id}'")
    seen_ids.add(obst_id)
    verts_raw = _expect(entry.get("vertices"), list, f"{path}.vertices", "a list")
    if len(verts_raw) < 3:
        raise ScenarioError(f"{path}.vertices", "expected at least 3 vertex pairs")
    vertices = [
        _point(v, f"{path}.vertices[{i}]", MAX_SPOT_EXTENT) for i, v in enumerate(verts_raw)
    ]
    try:
        return Polygon(vertices, kind=OBSTACLE, name=obst_id)
    except GeometryError as exc:
        raise ScenarioError(f"{path}.vertices", str(exc)) from exc


def _parse_cabin(entry, path: str) -> CabinContext:
    _expect(entry, dict, path, "an object")
    seats_raw = entry.get("seats", {})
    _expect(seats_raw, dict, f"{path}.seats", "an object")
    for seat, occ in seats_raw.items():
        if seat not in SEAT_POSITIONS:
            raise ScenarioError(f"{path}.seats.{seat}", f"unknown seat, expected one of {SEAT_POSITIONS}")
        if occ not in OCCUPANCIES:
            raise ScenarioError(f"{path}.seats.{seat}", f"expected one of {OCCUPANCIES}, got {occ!r}")
    trunk = entry.get("trunk_loaded", False)
    if not isinstance(trunk, bool):
        raise ScenarioError(f"{path}.trunk_loaded", "expected true or false")
    try:
        return CabinContext(dict(seats_raw), trunk)
    except GeometryError as exc:
        raise ScenarioError(f"{path}.seats", str(exc)) from exc


def _parse_vehicle(entry, path: str) -> VehicleSpec:
    _expect(entry, dict, path, "an object")
    dims = (("body_length", DEFAULT_BODY_LENGTH), ("body_width", DEFAULT_BODY_WIDTH))
    length, width = (
        finite_number(f"{path}.{key}", entry.get(key, default), high=MAX_SPOT_EXTENT)
        for key, default in dims
    )
    table = dict(DEFAULT_CLEARANCE_TABLE)
    override = entry.get("clearance_table", {})
    _expect(override, dict, f"{path}.clearance_table", "an object")
    for key, value in override.items():
        if key not in DEFAULT_CLEARANCE_TABLE:
            raise ScenarioError(
                f"{path}.clearance_table.{key}",
                f"unknown entry, expected one of {tuple(DEFAULT_CLEARANCE_TABLE)}",
            )
        table[key] = finite_number(f"{path}.clearance_table.{key}", value, high=MAX_SPOT_EXTENT)
    try:
        return VehicleSpec(length, width, table)
    except GeometryError as exc:
        raise ScenarioError(path, str(exc)) from exc


# Shortest obstacle edge, as a share of the scenario's largest coordinate
# magnitude M over spot corners and obstacle vertices.  A spot frame's
# offsets are at most 2M, so a moved vertex ``(c*x - s*y) + tx`` (see
# ``transform_polygon``) is within 8uM of the exact move of its
# coordinates, u = 2**-53, and a moved edge within 23uM of its length,
# which the rotation keeps to 2u.  At 2**-44, 512uM, like ``_PRUNE_SLACK``,
# every moved edge keeps over 95 % of its length, so none collapses into
# a point and its line, which divides by the length, stays defined.
_MIN_EDGE_SHARE = 2.0**-44


def _check_edge_lengths(spots, obstacles) -> None:
    """Reject an obstacle edge that a move into a spot frame could
    collapse: one under ``_MIN_EDGE_SHARE`` of the largest coordinate."""
    coords = [obstacle._coords() for obstacle in obstacles]
    corners = [v for spot in spots for c in spot.corners for v in (c.x, c.y)]
    shortest = _MIN_EDGE_SHARE * max(map(abs, itertools.chain(corners, *coords)))
    for i, xy in enumerate(coords):
        for px, py, qx, qy in _edges(xy):
            if math.hypot(qx - px, qy - py) < shortest:
                raise ScenarioError(
                    f"obstacles[{i}].vertices",
                    f"the edge from ({px!r}, {py!r}) is shorter than {shortest:.3g} m, "
                    "2**-44 of the largest coordinate magnitude",
                )


def parse_scenario(data) -> Scenario:
    """Validate an already-decoded scenario document."""
    _expect(data, dict, "$", "a JSON object")
    unknown = set(data) - {"spots", "obstacles", "cabin", "vehicle"}
    if unknown:
        raise ScenarioError(f"$.{sorted(unknown)[0]}", "unknown top-level key")
    spots_raw = _expect(data.get("spots"), list, "spots", "a list")
    if not spots_raw:
        raise ScenarioError("spots", "at least one spot is required")
    seen_spot_ids: set = set()
    spots = tuple(
        _parse_spot(s, f"spots[{i}]", seen_spot_ids) for i, s in enumerate(spots_raw)
    )
    obstacles_raw = data.get("obstacles", [])
    _expect(obstacles_raw, list, "obstacles", "a list")
    seen_obst_ids: set = set()
    obstacles = tuple(
        _parse_obstacle(o, f"obstacles[{i}]", seen_obst_ids)
        for i, o in enumerate(obstacles_raw)
    )
    _check_edge_lengths(spots, obstacles)
    context = _parse_cabin(data.get("cabin", {}), "cabin")
    vehicle = _parse_vehicle(data.get("vehicle", {}), "vehicle")
    return Scenario(spots, obstacles, context, vehicle)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file; pure in the file content."""
    # ValueError is malformed JSON or an over-long integer literal;
    # RecursionError, arrays or objects nested too deep.
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError("$", f"not valid JSON: {exc}") from exc
    return parse_scenario(data)
