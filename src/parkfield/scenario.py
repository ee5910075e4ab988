"""Parking-area data model and scenario-file ingestion.

A scenario file is a single JSON document (schema in docs/scenario_format.md)
describing parking spots, convex obstacle polygons, the cabin context
(who sits where, trunk state) and the vehicle dimensions.  All lengths are
metres, all angles radians, the global frame is right-handed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MAX_LATTICE_POSES, GeometryError, ScenarioError, finite_number
from .field import CompiledFieldSet, FieldSet
from .geometry import (
    OBSTACLE,
    SPOT_EDGE,
    Point2,
    Polygon,
    RigidTransform,
    apply_transform,
    invert,
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    not form a CCW rectangle within tolerance.
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
    ideal = [
        (c0.x, c0.y),
        (c0.x + l_x * ux, c0.y + l_x * uy),
        (c0.x + l_x * ux - l_y * uy, c0.y + l_x * uy + l_y * ux),
        (c0.x - l_y * uy, c0.y + l_y * ux),
    ]
    residual = max(
        math.hypot(c.x - ix, c.y - iy) for c, (ix, iy) in zip(corners, ideal)
    )
    if residual > _RECT_CORNER_TOL:
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


@dataclass(frozen=True)
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


def _spot_edge_polygons(spot: ParkingSpot) -> list[Polygon]:
    # Corners are CCW, so traversing them backwards puts the left-hand
    # normal of each edge on the outside: the edge field is negative
    # (free) over the spot interior and positive (obstructing) beyond
    # the boundary, which keeps the footprint from escaping the spot.
    polys = []
    for i in range(4):
        p = spot.corners[(i + 1) % 4]
        q = spot.corners[i]
        polys.append(Polygon((p, q), kind=SPOT_EDGE, name=f"{spot.id}/edge{i}"))
    return polys


def _boxes_overlap(a, b) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _dominated_everywhere(
    obstacle: Polygon,
    spot_edges: list[Polygon],
    region: tuple[float, float, float, float],
) -> bool:
    """True if the spot edges strictly dominate the obstacle on the region.

    Sampled on a lattice with a Lipschitz safety margin: the difference of
    two 1-Lipschitz fields is 2-Lipschitz, so a sampled margin of sqrt(2)*h
    at pitch h certifies strict domination between nodes.  A region of more
    than ``MAX_LATTICE_POSES`` nodes is not checked and counts as not
    dominated: pruning only saves work, and keeping the obstacle is safe.
    """
    x_min, y_min, x_max, y_max = region
    pitch = 0.25
    # Counted in floats first: a huge region overflows them to inf.
    nx, ny = (
        max(2.0, np.ceil((hi - lo) / pitch) + 1) for lo, hi in ((x_min, x_max), (y_min, y_max))
    )
    if nx * ny > MAX_LATTICE_POSES:
        return False
    xs = np.linspace(x_min, x_max, int(nx))
    ys = np.linspace(y_min, y_max, int(ny))
    h = max(xs[1] - xs[0], ys[1] - ys[0])
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    edge_vals = CompiledFieldSet(FieldSet(tuple(spot_edges))).eval_many(pts)
    obst_vals = CompiledFieldSet(FieldSet((obstacle,))).eval_many(pts)
    return bool(np.all(obst_vals - edge_vals < -math.sqrt(2.0) * h))


def area_field_set(scenario: Scenario) -> FieldSet:
    """Every spot edge plus every obstacle, unfiltered; for rendering."""
    polygons: list[Polygon] = []
    for spot in scenario.spots:
        polygons.extend(_spot_edge_polygons(spot))
    polygons.extend(scenario.obstacles)
    return FieldSet(tuple(polygons))


def spot_field_set(
    spot: ParkingSpot,
    obstacles: list[Polygon],
    reach: float | None = None,
) -> FieldSet:
    """Field polygons relevant to one spot: its 4 edges plus near obstacles.

    An obstacle is dropped only if its bounding box misses the spot
    inflated by ``reach`` (the footprint's maximal reach; defaults to the
    larger spot dimension) and the spot edges verifiably dominate its
    field over that whole inflated region.
    """
    if reach is None:
        reach = max(spot.length, spot.width)
    edges = _spot_edge_polygons(spot)
    xs = [c.x for c in spot.corners]
    ys = [c.y for c in spot.corners]
    region = (min(xs) - reach, min(ys) - reach, max(xs) + reach, max(ys) + reach)
    kept = []
    for obstacle in obstacles:
        if _boxes_overlap(obstacle.bounding_box(), region):
            kept.append(obstacle)
        elif not _dominated_everywhere(obstacle, edges, region):
            kept.append(obstacle)
    return FieldSet(tuple(edges + kept))


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------


def _expect(value, types, path: str, what: str):
    if not isinstance(value, types):
        raise ScenarioError(path, f"expected {what}, got {type(value).__name__}")
    return value


def _point(value, path: str) -> Point2:
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(path, "expected a [x, y] pair")
    return Point2(finite_number(f"{path}[0]", value[0]), finite_number(f"{path}[1]", value[1]))


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
            return make_spot(spot_id, corners, approach)
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
    vertices = tuple(
        _point(v, f"{path}.vertices[{i}]") for i, v in enumerate(verts_raw)
    )
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
    length = finite_number(f"{path}.body_length", entry.get("body_length", DEFAULT_BODY_LENGTH))
    width = finite_number(f"{path}.body_width", entry.get("body_width", DEFAULT_BODY_WIDTH))
    table = dict(DEFAULT_CLEARANCE_TABLE)
    override = entry.get("clearance_table", {})
    _expect(override, dict, f"{path}.clearance_table", "an object")
    for key, value in override.items():
        if key not in DEFAULT_CLEARANCE_TABLE:
            raise ScenarioError(
                f"{path}.clearance_table.{key}",
                f"unknown entry, expected one of {tuple(DEFAULT_CLEARANCE_TABLE)}",
            )
        table[key] = finite_number(f"{path}.clearance_table.{key}", value)
    try:
        return VehicleSpec(length, width, table)
    except GeometryError as exc:
        raise ScenarioError(path, str(exc)) from exc


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
