"""Sampled-surface objective and in-spot pose minimization.

The objective integrates the composite field over every footprint
rectangle at a candidate pose; sample points live in the vehicle frame and
are fixed per sampling plan, so the estimate is a deterministic quadrature
and the same rule scores every pose.  Minimization is a two-stage
derivative-free search (the field is piecewise linear): an exhaustive
coarse grid over the spot box and the discrete headings, then compass
refinement from the best cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, InfeasibleSpotError, ScenarioError
from .field import _BLOCK_POINTS, CompiledFieldSet, FieldSet, _block_slices
from .geometry import normalize_angle, transform_polygon
from .scenario import ParkingSpot, Rect, VehicleFootprint

GRID = "grid"
MONTE_CARLO = "monte_carlo"

# Cap on the poses of one lattice: the coarse grid of ``minimize`` or the
# oracle lattice of ``brute_force_minimize``.
MAX_LATTICE_POSES = 10**7

# Share of monte-carlo samples placed on the rectangle boundary.  This
# deliberately mimics the edge-heavy low-count sampling that grid mode
# exists to fix; keep monte_carlo only for regression demos.
_MC_EDGE_FRACTION = 0.75


@dataclass(frozen=True)
class Pose:
    """Body-center position and heading in spot-local coordinates."""

    x_hat: float
    y_hat: float
    theta_hat: float

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", normalize_angle(self.theta_hat))

    def as_array(self) -> np.ndarray:
        return np.array([self.x_hat, self.y_hat, self.theta_hat])


@dataclass(frozen=True)
class SamplingPlan:
    """How footprint rectangles are sampled for the surface integral.

    grid: ``density`` is samples per square metre, laid out on cell
    centers.  monte_carlo: ``density`` is the sample count per rectangle,
    drawn mostly on the rectangle edges from ``seed``.
    """

    mode: str = GRID
    density: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (GRID, MONTE_CARLO):
            raise ScenarioError("mode", f"unknown sampling mode {self.mode!r}")
        object.__setattr__(self, "density", _number("density", self.density, 0.0, False))
        if not _is_int(self.seed):
            raise ScenarioError("seed", f"must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Search parameters; every default is echoed into CLI reports."""

    coarse_pitch: float = 0.25
    step_init_pos: float = 0.25
    step_init_ang: float = 0.05
    step_min_pos: float = 0.01
    step_min_ang: float = 0.005
    theta_range: float = math.radians(10.0)
    starts: int = 3
    headings: tuple = (0.0, math.pi)
    max_refine_evals: int = 4000
    rect_weights: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("coarse_pitch", "step_init_pos", "step_min_pos"):
            _number(name, getattr(self, name), 0.0, False)
        # A zero angular step freezes the heading at its coarse value.
        for name in ("step_init_ang", "step_min_ang", "theta_range"):
            _number(name, getattr(self, name), 0.0)
        if not _is_int(self.starts) or self.starts < 1:
            raise ScenarioError("starts", f"must be an integer >= 1, got {self.starts!r}")
        if not _is_int(self.max_refine_evals) or self.max_refine_evals < 0:
            raise ScenarioError(
                "max_refine_evals", f"must be an integer >= 0, got {self.max_refine_evals!r}"
            )
        if not isinstance(self.headings, (list, tuple)) or not self.headings:
            raise ScenarioError("headings", "must be a non-empty list of angles")
        for k, h in enumerate(self.headings):
            _number(f"headings[{k}]", h)
        object.__setattr__(
            self, "headings", tuple(normalize_angle(h) for h in self.headings)
        )
        if not isinstance(self.rect_weights, dict):
            raise ScenarioError("rect_weights", "must map rectangle labels to weights")
        for label, weight in self.rect_weights.items():
            _number(f"rect_weights.{label}", weight)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _number(name: str, value, low: float = -math.inf, inclusive: bool = True) -> float:
    """``value`` as a float after checking it is a finite number above ``low``.

    Raises ``ScenarioError`` at ``name``, so a config reader can name the
    offending option.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
        raise ScenarioError(name, f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value < low or (value == low and not inclusive):
        bound = "" if low == -math.inf else f" {'>=' if inclusive else '>'} {low}"
        raise ScenarioError(name, f"must be a finite number{bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class SolveResult:
    """Best pose of one solve.

    ``evaluations`` counts the poses the search requested: the coarse grid
    plus every refinement probe, including the probes answered from the
    solve's score memo without reaching the evaluator.
    """

    pose: Pose
    score: float
    evaluations: int
    converged: bool


def _grid_rect_samples(rect: Rect, density: float):
    nx = max(1, int(math.ceil((rect.x_max - rect.x_min) * math.sqrt(density))))
    ny = max(1, int(math.ceil((rect.y_max - rect.y_min) * math.sqrt(density))))
    xs = rect.x_min + (rect.x_max - rect.x_min) * (np.arange(nx) + 0.5) / nx
    ys = rect.y_min + (rect.y_max - rect.y_min) * (np.arange(ny) + 0.5) / ny
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _mc_rect_samples(rect: Rect, count: int, seed: int, rect_index: int):
    rng = np.random.default_rng([seed & 0xFFFFFFFF, rect_index])
    n_edge = int(round(count * _MC_EDGE_FRACTION))
    n_inner = count - n_edge
    w = rect.x_max - rect.x_min
    h = rect.y_max - rect.y_min
    perimeter = 2.0 * (w + h)
    pts = []
    if perimeter > 0 and n_edge > 0:
        u = rng.uniform(0.0, perimeter, n_edge)
        for d in u:
            if d < w:
                pts.append((rect.x_min + d, rect.y_min))
            elif d < w + h:
                pts.append((rect.x_max, rect.y_min + (d - w)))
            elif d < 2 * w + h:
                pts.append((rect.x_max - (d - w - h), rect.y_max))
            else:
                pts.append((rect.x_min, rect.y_max - (d - 2 * w - h)))
    else:
        n_inner = count
    xs = rng.uniform(rect.x_min, rect.x_max, n_inner)
    ys = rng.uniform(rect.y_min, rect.y_max, n_inner)
    pts.extend(zip(xs, ys))
    return np.array(pts).reshape(-1, 2)


def _footprint_samples(
    footprint: VehicleFootprint, plan: SamplingPlan, rect_weights: dict
):
    """Vehicle-frame sample points and per-point quadrature weights."""
    labelled = [(footprint.body, "body")] + list(footprint.maneuver_rects)
    all_pts = []
    all_weights = []
    for index, (rect, label) in enumerate(labelled):
        if plan.mode == GRID:
            pts = _grid_rect_samples(rect, plan.density)
        else:
            pts = _mc_rect_samples(rect, max(1, int(plan.density)), plan.seed, index)
        weight = rect_weights.get(label, 1.0) * rect.area / len(pts)
        all_pts.append(pts)
        all_weights.append(np.full(len(pts), weight))
    return np.concatenate(all_pts), np.concatenate(all_weights)


class ObjectiveEvaluator:
    """Compiled (fields, footprint, plan) triple scoring poses in batch."""

    def __init__(
        self,
        fields: FieldSet,
        footprint: VehicleFootprint,
        plan: SamplingPlan,
        rect_weights: dict | None = None,
    ):
        self._compiled = CompiledFieldSet(fields)
        self._pts, self._weights = _footprint_samples(
            footprint, plan, rect_weights or {}
        )

    def scores(self, poses: np.ndarray) -> np.ndarray:
        """Objective at each pose row (x, y, theta).

        Poses are scored in blocks of about ``_BLOCK_POINTS`` sample points,
        so memory stays bounded whatever the batch; every row's arithmetic
        is independent of the blocking.
        """
        poses = np.asarray(poses, dtype=float).reshape(-1, 3)
        out = np.empty(len(poses))
        lx = self._pts[:, 0]
        ly = self._pts[:, 1]
        step = max(1, _BLOCK_POINTS // len(self._pts))
        for lo, hi in _block_slices(len(poses), step):
            block = poses[lo:hi]
            cos = np.cos(block[:, 2])
            sin = np.sin(block[:, 2])
            gx = cos[:, None] * lx[None, :] - sin[:, None] * ly[None, :] + block[:, 0:1]
            gy = sin[:, None] * lx[None, :] + cos[:, None] * ly[None, :] + block[:, 1:2]
            values = self._compiled.eval_many(
                np.column_stack([gx.ravel(), gy.ravel()])
            ).reshape(len(block), -1)
            out[lo:hi] = (values * self._weights).sum(axis=1)
        return out

    def score(self, pose: Pose) -> float:
        return float(self.scores(pose.as_array()[None, :])[0])


def objective(
    fields: FieldSet,
    footprint: VehicleFootprint,
    pose: Pose,
    plan: SamplingPlan,
    rect_weights: dict | None = None,
) -> float:
    """Sampled surface integral of the field under the footprint at ``pose``."""
    return ObjectiveEvaluator(fields, footprint, plan, rect_weights).score(pose)


def _rotated_extents(length: float, width: float, theta: float):
    c, s = abs(math.cos(theta)), abs(math.sin(theta))
    return length * c + width * s, length * s + width * c


def check_feasible(footprint: VehicleFootprint, spot: ParkingSpot, headings) -> None:
    body = footprint.body
    length = body.x_max - body.x_min
    width = body.y_max - body.y_min
    best_over = None
    for heading in headings:
        ext_x, ext_y = _rotated_extents(length, width, heading)
        over_x = max(0.0, ext_x - spot.length)
        over_y = max(0.0, ext_y - spot.width)
        if over_x <= 1e-9 and over_y <= 1e-9:
            return
        if best_over is None or over_x + over_y < best_over[0] + best_over[1]:
            best_over = (over_x, over_y)
    over_x, over_y = best_over
    parts = []
    if over_x > 1e-9:
        parts.append(f"length over by {over_x:.3f} m")
    if over_y > 1e-9:
        parts.append(f"width over by {over_y:.3f} m")
    raise InfeasibleSpotError(
        spot.id,
        f"body {length:.2f} m x {width:.2f} m does not fit "
        f"{spot.length:.2f} m x {spot.width:.2f} m ({', '.join(parts)})",
    )


def _approach_distance(spot: ParkingSpot, x: float, y: float) -> float:
    side = spot.approach_side
    if side == "x_min":
        return x
    if side == "x_max":
        return spot.length - x
    if side == "y_min":
        return y
    return spot.width - y


def _tie_key(score: float, x: float, y: float, theta: float, cfg: SolverConfig, spot: ParkingSpot):
    """Total order for argmin reduction; documented in the README."""
    deviation = min(abs(normalize_angle(theta - h)) for h in cfg.headings)
    return (
        score,
        deviation,
        -_approach_distance(spot, x, y),
        x,
        y,
        normalize_angle(theta),
    )


def _local_field_set(fields: FieldSet, spot: ParkingSpot) -> FieldSet:
    return FieldSet(
        tuple(transform_polygon(spot.spot_frame, p) for p in fields.polygons)
    )


def _pose_lattice(spot: ParkingSpot, pitch: float, headings) -> np.ndarray:
    """(x, y, theta) rows of a ``pitch`` lattice over the spot box and headings.

    Each axis spans its extent inclusively in equal steps of at most
    ``pitch``; more than ``MAX_LATTICE_POSES`` poses raise ``BudgetError``
    before anything is allocated.
    """
    cells = [extent / pitch for extent in (spot.length, spot.width)]
    if max(cells) > MAX_LATTICE_POSES:
        raise BudgetError(f"pitch {pitch} gives over {MAX_LATTICE_POSES} lattice poses")
    xs, ys = (
        np.linspace(0.0, extent, max(2, int(math.ceil(n - 1e-9)) + 1))
        for extent, n in zip((spot.length, spot.width), cells)
    )
    total = len(xs) * len(ys) * len(headings)
    if total > MAX_LATTICE_POSES:
        raise BudgetError(f"{total} lattice poses exceed {MAX_LATTICE_POSES}")
    gx, gy, gt = np.meshgrid(xs, ys, np.array(headings), indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gt.ravel()])


def _poll_directions(step_p: float, step_a: float):
    axes = [
        (step_p, 0.0, 0.0),
        (-step_p, 0.0, 0.0),
        (0.0, step_p, 0.0),
        (0.0, -step_p, 0.0),
        (0.0, 0.0, step_a),
        (0.0, 0.0, -step_a),
    ]
    diagonals = [
        (sx * step_p, sy * step_p, 0.0) for sx in (1.0, -1.0) for sy in (1.0, -1.0)
    ]
    coupled = [
        (sx * step_p, 0.0, sa * step_a) for sx in (1.0, -1.0) for sa in (1.0, -1.0)
    ] + [
        (0.0, sy * step_p, sa * step_a) for sy in (1.0, -1.0) for sa in (1.0, -1.0)
    ]
    return axes + diagonals + coupled


def _memo_scores(evaluator, memo: dict, probes: list) -> list:
    """Scores of ``probes`` (pose tuples), looked up in one solve's ``memo``.

    Only the distinct probes not in the memo reach the evaluator, in one
    batch; their scores join the memo.  A pose's score does not depend on
    the batch it is scored in, so a memo hit equals a fresh evaluation.
    """
    fresh = list(dict.fromkeys(p for p in probes if p not in memo))
    if fresh:
        memo.update(zip(fresh, evaluator.scores(np.array(fresh)).tolist()))
    return [memo[p] for p in probes]


def _compass_refine(evaluator, memo, start, score, theta_center, cfg, spot, budget):
    """Pattern search with shrinking steps around one coarse-stage start.

    Polls axis, diagonal and position-angle-coupled moves; after the steps
    bottom out it restarts at the initial step sizes until a whole pass
    brings no improvement, which rides coupled valleys the plain compass
    stalls in.  Probes are scored through the solve's ``memo``; the budget
    counts every probe polled, memo hits included.
    """
    x, y, theta = start
    best = score
    evals = 0
    theta_lo = theta_center - cfg.theta_range
    theta_hi = theta_center + cfg.theta_range
    improved_in_pass = True
    while improved_in_pass:
        improved_in_pass = False
        step_p = cfg.step_init_pos
        step_a = cfg.step_init_ang
        while True:
            probes = []
            for dx, dy, da in _poll_directions(step_p, step_a):
                px = min(max(x + dx, 0.0), spot.length)
                py = min(max(y + dy, 0.0), spot.width)
                pt = min(max(theta + da, theta_lo), theta_hi)
                if (px, py, pt) != (x, y, theta):
                    probes.append((px, py, pt))
            if probes:
                scores = _memo_scores(evaluator, memo, probes)
                evals += len(probes)
                idx = int(np.argmin(scores))
                if scores[idx] < best:
                    x, y, theta = probes[idx]
                    best = float(scores[idx])
                    improved_in_pass = True
                    if evals >= budget:
                        return (x, y, theta, best, evals, False)
                    continue
            if step_p <= cfg.step_min_pos and step_a <= cfg.step_min_ang:
                break
            step_p = max(step_p / 2.0, cfg.step_min_pos)
            step_a = max(step_a / 2.0, cfg.step_min_ang)
            if evals >= budget:
                return (x, y, theta, best, evals, False)
    return (x, y, theta, best, evals, True)


def _diverse_starts(order, coarse, count: int, separation: float):
    """Best coarse cells, skipping same-heading cells crowding a chosen one."""
    chosen: list[int] = []
    for i in order:
        crowded = False
        for j in chosen:
            if coarse[i, 2] == coarse[j, 2] and (
                math.hypot(coarse[i, 0] - coarse[j, 0], coarse[i, 1] - coarse[j, 1])
                < separation
            ):
                crowded = True
                break
        if not crowded:
            chosen.append(i)
            if len(chosen) == count:
                break
    return chosen


def minimize(
    fields: FieldSet,
    footprint: VehicleFootprint,
    spot: ParkingSpot,
    plan: SamplingPlan = SamplingPlan(),
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Best in-spot pose for the footprint under the given field.

    ``fields`` is in the global frame; the search runs in spot-local
    coordinates with the body center box-constrained to the spot.
    """
    check_feasible(footprint, spot, config.headings)
    local = _local_field_set(fields, spot)
    evaluator = ObjectiveEvaluator(local, footprint, plan, config.rect_weights)

    coarse = _pose_lattice(spot, config.coarse_pitch, config.headings)
    coarse_scores = evaluator.scores(coarse)
    evaluations = len(coarse)
    # Pose tuple -> score for this solve: the refinement polls of all
    # starts revisit poses, and step-pitch probes land on coarse nodes.
    memo = dict(zip(map(tuple, coarse.tolist()), coarse_scores.tolist()))

    order = sorted(
        range(len(coarse)),
        key=lambda i: _tie_key(
            float(coarse_scores[i]), coarse[i, 0], coarse[i, 1], coarse[i, 2], config, spot
        ),
    )
    starts = _diverse_starts(order, coarse, config.starts, 2.0 * config.coarse_pitch)

    candidates = []
    converged = True
    for i in starts:
        x, y, theta = coarse[i]
        rx, ry, rt, rscore, revals, rconv = _compass_refine(
            evaluator,
            memo,
            (float(x), float(y), float(theta)),
            float(coarse_scores[i]),
            float(theta),
            config,
            spot,
            config.max_refine_evals,
        )
        evaluations += revals
        converged = converged and rconv
        candidates.append((rscore, rx, ry, rt))

    best = min(
        candidates, key=lambda c: _tie_key(c[0], c[1], c[2], c[3], config, spot)
    )
    pose = Pose(best[1], best[2], best[3])
    return SolveResult(pose, best[0], evaluations, converged)


def brute_force_minimize(
    fields: FieldSet,
    footprint: VehicleFootprint,
    spot: ParkingSpot,
    plan: SamplingPlan = SamplingPlan(),
    resolution: float = 0.1,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Exhaustive pose-lattice search; the test oracle, not a production path."""
    _number("resolution", resolution, 0.0, False)
    check_feasible(footprint, spot, config.headings)
    poses = _pose_lattice(spot, resolution, config.headings)
    local = _local_field_set(fields, spot)
    evaluator = ObjectiveEvaluator(local, footprint, plan, config.rect_weights)
    scores = evaluator.scores(poses)
    # Ties are broken only among the poses holding the minimum score: the
    # tie key orders by score first, so this is the same total order.
    tied = np.flatnonzero(scores == scores.min())
    best = min(
        tied,
        key=lambda i: _tie_key(
            float(scores[i]), poses[i, 0], poses[i, 1], poses[i, 2], config, spot
        ),
    )
    pose = Pose(poses[best, 0], poses[best, 1], poses[best, 2])
    return SolveResult(pose, float(scores[best]), len(poses), True)
