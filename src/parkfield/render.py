"""Marching-squares contours and SVG scene rendering.

Output is a plain SVG string built with fixed float formatting so that
identical inputs produce identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .field import FieldMap
from .geometry import Point2
from .scenario import Scenario, VehicleFootprint
from .solver import Pose

CONTOUR_LEVELS = (-2.0, -1.5, -1.0, -0.5, -0.1, 0.0, 0.25)

# Page pixels per world metre, the page margin in pixels, and the world
# metres of padding around the scene's spots and obstacles.
_SCALE = 60.0
_MARGIN = 20.0
_PADDING = 1.5

_COLOR_BG = "#ffffff"
_COLOR_SPOT = "#2e8b57"
_COLOR_OBSTACLE = "#e07b39"
_COLOR_CONTOUR = "#9a9a9a"
_COLOR_BODY = "#2060c0"
_COLOR_MANEUVER = "#7fa8e0"


def _interp(p0, v0, p1, v1, level):
    t = (level - v0) / (v1 - v0)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


# Contour segments of the non-saddle cases, as pairs of cell edges:
# 0 bottom, 1 right, 2 top, 3 left.  Case k and case 15 - k share them.
_CASE_EDGES = {
    1: ((3, 0),),
    2: ((0, 1),),
    3: ((3, 1),),
    4: ((1, 2),),
    6: ((0, 2),),
    7: ((3, 2),),
}


def _cell_segments(corners, values, level):
    """Contour segments for one grid cell.

    corners/values ordered bottom-left, bottom-right, top-right, top-left.
    Saddles are split by the cell-center average.
    """
    c0, c1, c2, c3 = corners
    v0, v1, v2, v3 = values
    case = (v0 >= level) | ((v1 >= level) << 1) | ((v2 >= level) << 2) | ((v3 >= level) << 3)
    if case in (0, 15):
        return []
    if case in (5, 10):
        center_inside = (v0 + v1 + v2 + v3) / 4.0 >= level
        pairs = ((0, 1), (2, 3)) if center_inside == (case == 5) else ((3, 0), (1, 2))
    else:
        pairs = _CASE_EDGES[min(case, 15 - case)]
    edges = ((c0, v0, c1, v1), (c1, v1, c2, v2), (c3, v3, c2, v2), (c0, v0, c3, v3))
    return [tuple(_interp(*edges[e], level) for e in pair) for pair in pairs]


def _chain(segments):
    """Join segments sharing endpoints into polylines, deterministically."""

    def key(p):
        return (round(p[0], 7), round(p[1], 7))

    adjacency: dict = {}
    for i, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append(i)
        adjacency.setdefault(key(b), []).append(i)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        # Grown from ``b`` forwards, then from ``a`` backwards.
        ends = ([b], [a])
        for chain in ends:
            while True:
                tip = chain[-1]
                nxt = None
                for idx in adjacency.get(key(tip), []):
                    if not used[idx]:
                        nxt = idx
                        break
                if nxt is None:
                    break
                used[nxt] = True
                sa, sb = segments[nxt]
                chain.append(sb if key(sa) == key(tip) else sa)
        polylines.append(ends[1][::-1] + ends[0])
    return polylines


def contour_polylines(fmap: FieldMap, level: float):
    """All polylines of one iso-level over the field map lattice."""
    values = fmap.values
    cell = fmap.cell_size
    ox, oy = fmap.origin.x, fmap.origin.y
    # Each cell's case from its corners' sides of the level; only the cells
    # the level crosses, in row-major order, reach ``_cell_segments``.
    up = (values >= level).astype(np.uint8)
    case = up[:-1, :-1] | up[:-1, 1:] << 1 | up[1:, 1:] << 2 | up[1:, :-1] << 3
    segments = []
    for r, c in np.argwhere((case != 0) & (case != 15)).tolist():
        y0 = oy + r * cell
        y1 = y0 + cell
        x0 = ox + c * cell
        x1 = x0 + cell
        corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        vals = (
            float(values[r, c]),
            float(values[r, c + 1]),
            float(values[r + 1, c + 1]),
            float(values[r + 1, c]),
        )
        segments.extend(_cell_segments(corners, vals, level))
    return _chain(segments)


class _SvgCanvas:
    """World-to-page mapping (y up in the world, y down in SVG)."""

    def __init__(self, bounds):
        self.x0, self.y0, x1, y1 = bounds
        self.width = (x1 - self.x0) * _SCALE + 2 * _MARGIN
        self.height = (y1 - self.y0) * _SCALE + 2 * _MARGIN
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width:.1f}" height="{self.height:.1f}" '
            f'viewBox="0 0 {self.width:.1f} {self.height:.1f}">',
            f'<rect width="{self.width:.1f}" height="{self.height:.1f}" '
            f'fill="{_COLOR_BG}"/>',
        ]

    def map(self, x, y):
        return (
            (x - self.x0) * _SCALE + _MARGIN,
            self.height - ((y - self.y0) * _SCALE + _MARGIN),
        )

    def _points_attr(self, pts):
        return " ".join(f"{px:.3f},{py:.3f}" for px, py in (self.map(x, y) for x, y in pts))

    def polyline(self, pts, color, width=1.0, dash=None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{self._points_attr(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="{width:.2f}"{dash_attr}/>'
        )

    def polygon(self, pts, stroke, fill="none", width=1.5, opacity=1.0):
        opacity_attr = f' fill-opacity="{opacity:.2f}"' if fill != "none" else ""
        self.parts.append(
            f'<polygon points="{self._points_attr(pts)}" fill="{fill}"'
            f'{opacity_attr} stroke="{stroke}" stroke-width="{width:.2f}"/>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def scene_bounds(scenario: Scenario):
    xs = []
    ys = []
    for spot in scenario.spots:
        xs.extend(c.x for c in spot.corners)
        ys.extend(c.y for c in spot.corners)
    for obstacle in scenario.obstacles:
        xs.extend(v.x for v in obstacle.vertices)
        ys.extend(v.y for v in obstacle.vertices)
    return (min(xs) - _PADDING, min(ys) - _PADDING, max(xs) + _PADDING, max(ys) + _PADDING)


def _pose_rect_corners(rect, pose: Pose, spot):
    c = math.cos(pose.theta_hat)
    s = math.sin(pose.theta_hat)
    out = []
    for lx, ly in rect.corners():
        sx = c * lx - s * ly + pose.x_hat
        sy = s * lx + c * ly + pose.y_hat
        g = spot.to_global(Point2(sx, sy))
        out.append((g.x, g.y))
    return out


def render_scene(
    scenario: Scenario,
    fmap: FieldMap | None = None,
    poses: dict | None = None,
    footprint: VehicleFootprint | None = None,
) -> str:
    """SVG of the parking area: contours at ``CONTOUR_LEVELS``, spots,
    obstacles, solved poses.

    ``poses`` maps spot id to a spot-local Pose; drawn with the footprint
    when both are given.
    """
    canvas = _SvgCanvas(scene_bounds(scenario))
    if fmap is not None:
        for level in CONTOUR_LEVELS:
            for line in contour_polylines(fmap, level):
                canvas.polyline(line, _COLOR_CONTOUR, width=0.8, dash="3,2")
    for spot in scenario.spots:
        canvas.polygon(
            [(c.x, c.y) for c in spot.corners] + [(spot.corners[0].x, spot.corners[0].y)],
            stroke=_COLOR_SPOT,
            width=2.0,
        )
    for obstacle in scenario.obstacles:
        canvas.polygon(
            [(v.x, v.y) for v in obstacle.vertices],
            stroke=_COLOR_OBSTACLE,
            fill=_COLOR_OBSTACLE,
            opacity=0.5,
        )
    if poses and footprint is not None:
        spot_by_id = {s.id: s for s in scenario.spots}
        for spot_id, pose in poses.items():
            spot = spot_by_id[spot_id]
            for rect, _label in footprint.maneuver_rects:
                canvas.polygon(
                    _pose_rect_corners(rect, pose, spot),
                    stroke=_COLOR_MANEUVER,
                    fill=_COLOR_MANEUVER,
                    opacity=0.35,
                )
            canvas.polygon(
                _pose_rect_corners(footprint.body, pose, spot),
                stroke=_COLOR_BODY,
                fill=_COLOR_BODY,
                opacity=0.45,
            )
    return canvas.finish()
