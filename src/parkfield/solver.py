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

from .errors import (
    MAX_LATTICE_POSES,
    BudgetError,
    InfeasibleSpotError,
    ScenarioError,
    finite_number,
)
from .field import _BLOCK_POINTS, CompiledFieldSet, FieldSet, _block_slices
from .geometry import TAU, normalize_angle, transform_polygon
from .scenario import RECT_LABELS, ParkingSpot, Rect, VehicleFootprint

GRID = "grid"
MONTE_CARLO = "monte_carlo"

# Cap on the sample points of one footprint, over all its rectangles.
MAX_FOOTPRINT_SAMPLES = 10**6

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
        object.__setattr__(self, "density", finite_number("density", self.density, 0.0, False))
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
            finite_number(name, getattr(self, name), 0.0, False)
        # A zero angular step freezes the heading at its coarse value.
        for name in ("step_init_ang", "step_min_ang", "theta_range"):
            finite_number(name, getattr(self, name), 0.0)
        for name, low in (("starts", 1), ("max_refine_evals", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ScenarioError(name, f"must be an integer >= {low}, got {value!r}")
        if not isinstance(self.headings, (list, tuple)) or not self.headings:
            raise ScenarioError("headings", "must be a non-empty list of angles")
        headings = tuple(
            normalize_angle(finite_number(f"headings[{k}]", h))
            for k, h in enumerate(self.headings)
        )
        object.__setattr__(self, "headings", headings)
        if not isinstance(self.rect_weights, dict):
            raise ScenarioError("rect_weights", "must map rectangle labels to weights")
        for label, weight in self.rect_weights.items():
            if label not in RECT_LABELS:
                raise ScenarioError(
                    f"rect_weights.{label}", f"unknown rectangle, expected one of {RECT_LABELS}"
                )
            # Zero is allowed: it drops the rectangle from the objective.
            finite_number(f"rect_weights.{label}", weight, 0.0)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _rect_sample_shape(rect: Rect, plan: SamplingPlan) -> tuple:
    """``(nx, ny)`` grid cells over ``rect``, or ``(count,)`` monte-carlo samples."""
    if plan.mode == GRID:
        return tuple(
            max(1, int(math.ceil(extent * math.sqrt(plan.density))))
            for extent in (rect.x_max - rect.x_min, rect.y_max - rect.y_min)
        )
    return (max(1, int(plan.density)),)


def _grid_rect_samples(rect: Rect, nx: int, ny: int):
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


def _sample_layout(footprint: VehicleFootprint, plan: SamplingPlan):
    """``(rect, label, shape, index)`` of each footprint rectangle.

    More than ``MAX_FOOTPRINT_SAMPLES`` points raise ``BudgetError`` before
    anything is allocated.
    """
    labelled = [(footprint.body, "body")] + list(footprint.maneuver_rects)
    shapes = [_rect_sample_shape(rect, plan) for rect, _ in labelled]
    total = sum(math.prod(shape) for shape in shapes)
    if total > MAX_FOOTPRINT_SAMPLES:
        raise BudgetError(
            f"sampling density {plan.density} gives {total} footprint samples, "
            f"over {MAX_FOOTPRINT_SAMPLES}"
        )
    return [
        (rect, label, shape, index)
        for index, ((rect, label), shape) in enumerate(zip(labelled, shapes))
    ]


class ObjectiveEvaluator:
    """Compiled (fields, footprints, plan) scoring poses in batch.

    ``footprint`` is one footprint, or a sequence of footprints scored
    together: the union of their sample blocks passes the field kernel once
    per pose, and each footprint's score sums its own blocks in its own
    order, so it is bit-identical to scoring that footprint alone.
    ``compiled`` shares one spot's compiled field set, and its scratch
    buffer, between evaluators.
    """

    def __init__(
        self,
        fields: FieldSet,
        footprint,
        plan: SamplingPlan,
        rect_weights: dict | None = None,
        compiled: CompiledFieldSet | None = None,
    ):
        if isinstance(footprint, VehicleFootprint):
            footprint = (footprint,)
        rect_weights = rect_weights or {}
        layouts = [_sample_layout(fp, plan) for fp in footprint]
        self._compiled = compiled or CompiledFieldSet(fields)
        spans: dict = {}  # block key -> (first union column, point count)
        blocks = []
        size = 0
        columns = []
        for layout in layouts:
            cols = []
            weights = []
            for rect, label, shape, index in layout:
                # Footprints sharing a rectangle share its sample block.
                # Monte-carlo draws are seeded by the rectangle's index too,
                # and an ablation re-indexes the rectangles after the
                # removed one.
                key = rect if plan.mode == GRID else (rect, index)
                if key not in spans:
                    if plan.mode == GRID:
                        blocks.append(_grid_rect_samples(rect, *shape))
                    else:
                        blocks.append(_mc_rect_samples(rect, shape[0], plan.seed, index))
                    spans[key] = (size, len(blocks[-1]))
                    size += len(blocks[-1])
                first, count = spans[key]
                cols.append(np.arange(first, first + count))
                weights.append(np.full(count, rect_weights.get(label, 1.0) * rect.area / count))
            columns.append((np.concatenate(cols), np.concatenate(weights)))
        self._pts = np.concatenate(blocks)
        # Per footprint: its union columns (None when it uses all of them in
        # order, so its sums run on the kernel's values as they are) and
        # its per-point quadrature weights.
        self._columns = [
            (None if np.array_equal(cols, np.arange(size)) else cols, weights)
            for cols, weights in columns
        ]

    def scores(self, poses: np.ndarray) -> np.ndarray:
        """Objective at each pose row (x, y, theta).

        Shape ``(P,)`` for one footprint, ``(F, P)`` for F footprints.
        Poses are scored in blocks of about ``_BLOCK_POINTS`` sample points,
        so memory stays bounded whatever the batch; every row's arithmetic
        is independent of the blocking.
        """
        poses = np.asarray(poses, dtype=float).reshape(-1, 3)
        out = np.empty((len(self._columns), len(poses)))
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
            for row, (cols, weights) in zip(out, self._columns):
                # A C-contiguous copy: the row sums of a fancy-indexed
                # (F-ordered) view round differently.
                kept = values if cols is None else np.ascontiguousarray(values[:, cols])
                row[lo:hi] = (kept * weights).sum(axis=1)
        return out[0] if len(self._columns) == 1 else out

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


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    """``normalize_angle`` of every element."""
    wrapped = np.mod(angles, TAU)
    return np.where(wrapped > math.pi, wrapped - TAU, wrapped)


def _tie_order(scores, poses, cfg: SolverConfig, spot: ParkingSpot) -> np.ndarray:
    """Indices of the scored poses in the total order of the README.

    Ascending score, then heading deviation from the nearest configured
    heading, then distance to the approach edge (larger first), then x, y
    and the normalized heading; exact ties keep their input order.
    """
    poses = np.asarray(poses, dtype=float).reshape(-1, 3)
    x, y, theta = poses.T
    deviation = np.min([np.abs(_normalize_angles(theta - h)) for h in cfg.headings], axis=0)
    approach = -_approach_distance(spot, x, y)
    return np.lexsort((_normalize_angles(theta), y, x, approach, deviation, scores))


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


class ScoredLattice:
    """One spot's pose lattice, scored once for several footprints.

    ``minimize`` starts from the lattice at the coarse pitch, and the
    explained solves of a spot (the footprint and each of its one-rectangle
    ablations) share one: the spot-local field set is compiled once, the
    union of the footprints' sample blocks passes the field kernel once per
    lattice pose, and each footprint reads its own score column.  Scoring
    waits for the first ``column`` call, so it runs inside the first solve
    that needs it.
    """

    def __init__(self, fields, footprints, spot, plan, config, pitch=None):
        self._footprints = tuple(footprints)
        self._fields = fields
        self._spot = spot
        self._plan = plan
        self._config = config
        self._pitch = config.coarse_pitch if pitch is None else pitch
        self._scored = None

    def column(self, footprint: VehicleFootprint):
        """``(evaluator, poses, scores)`` of ``footprint``, one of the lattice's.

        The evaluator scores ``footprint`` alone and shares the lattice's
        compiled field set.
        """
        plan, weights = self._plan, self._config.rect_weights
        if self._scored is None:
            poses = _pose_lattice(self._spot, self._pitch, self._config.headings)
            local = _local_field_set(self._fields, self._spot)
            shared = ObjectiveEvaluator(local, self._footprints, plan, weights)
            columns = shared.scores(poses).reshape(len(self._footprints), -1)
            self._scored = (local, shared, poses, columns)
        local, shared, poses, columns = self._scored
        if self._footprints == (footprint,):
            evaluator = shared
        else:
            evaluator = ObjectiveEvaluator(local, footprint, plan, weights, shared._compiled)
        return evaluator, poses, columns[self._footprints.index(footprint)]


def _poll_directions(step_p: float, step_a: float):
    """Axis moves, then position diagonals, then position-angle couplings."""
    signs = (1.0, -1.0)
    return (
        [(sx * step_p, 0.0, 0.0) for sx in signs]
        + [(0.0, sy * step_p, 0.0) for sy in signs]
        + [(0.0, 0.0, sa * step_a) for sa in signs]
        + [(sx * step_p, sy * step_p, 0.0) for sx in signs for sy in signs]
        + [(sx * step_p, 0.0, sa * step_a) for sx in signs for sa in signs]
        + [(0.0, sy * step_p, sa * step_a) for sy in signs for sa in signs]
    )


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
        if not any(
            coarse[i, 2] == coarse[j, 2]
            and math.hypot(coarse[i, 0] - coarse[j, 0], coarse[i, 1] - coarse[j, 1])
            < separation
            for j in chosen
        ):
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
    coarse: ScoredLattice | None = None,
) -> SolveResult:
    """Best in-spot pose for the footprint under the given field.

    ``fields`` is in the global frame; the search runs in spot-local
    coordinates with the body center box-constrained to the spot.
    ``coarse`` is this spot's coarse lattice, scored for ``footprint`` among
    others and shared with their solves; without one the solve scores its
    own.
    """
    check_feasible(footprint, spot, config.headings)
    if coarse is None:
        coarse = ScoredLattice(fields, (footprint,), spot, plan, config)
    evaluator, grid, grid_scores = coarse.column(footprint)
    evaluations = len(grid)
    # Pose tuple -> score for this solve: the refinement polls of all
    # starts revisit poses, and step-pitch probes land on coarse nodes.
    memo = dict(zip(map(tuple, grid.tolist()), grid_scores.tolist()))

    order = _tie_order(grid_scores, grid, config, spot)
    starts = _diverse_starts(order.tolist(), grid, config.starts, 2.0 * config.coarse_pitch)

    candidates = []
    converged = True
    for i in starts:
        x, y, theta = grid[i]
        rx, ry, rt, rscore, revals, rconv = _compass_refine(
            evaluator,
            memo,
            (float(x), float(y), float(theta)),
            float(grid_scores[i]),
            float(theta),
            config,
            spot,
            config.max_refine_evals,
        )
        evaluations += revals
        converged = converged and rconv
        candidates.append((rscore, rx, ry, rt))

    table = np.array(candidates)
    best = candidates[_tie_order(table[:, 0], table[:, 1:], config, spot)[0]]
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
    resolution = finite_number("resolution", resolution, 0.0, False)
    check_feasible(footprint, spot, config.headings)
    lattice = ScoredLattice(fields, (footprint,), spot, plan, config, resolution)
    _, poses, scores = lattice.column(footprint)
    # Ties are broken only among the poses holding the minimum score: the
    # order puts the lowest score first, so this is the same total order.
    tied = np.flatnonzero(scores == scores.min())
    best = tied[_tie_order(scores[tied], poses[tied], config, spot)[0]]
    pose = Pose(poses[best, 0], poses[best, 1], poses[best, 2])
    return SolveResult(pose, float(scores[best]), len(poses), True)
