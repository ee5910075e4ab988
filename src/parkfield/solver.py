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
from .field import _BLOCK_POINTS, FieldSet, _block_slices
from .geometry import TAU, normalize_angle, transform_polygon
from .scenario import RECT_LABELS, ParkingSpot, Rect, VehicleFootprint

GRID = "grid"
MONTE_CARLO = "monte_carlo"

# Cap on the sample points of one footprint, over all its rectangles.
MAX_FOOTPRINT_SAMPLES = 10**6

# Largest rectangle weight; with lengths up to 1e9 m no score overflows.
MAX_RECT_WEIGHT = 1e6

# Share of monte-carlo samples placed on the rectangle boundary.  This
# deliberately mimics the edge-heavy low-count sampling that grid mode
# exists to fix; keep monte_carlo only for regression demos.
_MC_EDGE_FRACTION = 0.75

# Fewest poses of one heading that ``scores`` checks for the lattice path:
# distinct x plus distinct y are at least 2 sqrt(P), which is more than a
# quarter of P below 64 poses.
_LATTICE_MIN_RUN = 64


@dataclass(frozen=True, slots=True)
class Pose:
    """Body-center position and heading in spot-local coordinates."""

    x_hat: float
    y_hat: float
    theta_hat: float

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", normalize_angle(self.theta_hat))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
            finite_number(f"rect_weights.{label}", weight, 0.0, high=MAX_RECT_WEIGHT)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
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


def _grid_rect_samples(rect: Rect, nx: int, ny: int) -> np.ndarray:
    """x row and y row of the cell centers of an ``nx`` by ``ny`` grid, row by row."""
    xs = rect.x_min + (rect.x_max - rect.x_min) * (np.arange(nx) + 0.5) / nx
    ys = rect.y_min + (rect.y_max - rect.y_min) * (np.arange(ny) + 0.5) / ny
    return np.array(np.meshgrid(xs, ys)).reshape(2, -1)


def _mc_rect_samples(rect: Rect, count: int, seed: int, rect_index: int) -> np.ndarray:
    """x row and y row of ``count`` draws: the edge share walked
    counter-clockwise from ``(x_min, y_min)``, then the interior."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, rect_index])
    x0, x1, y0, y1 = rect.x_min, rect.x_max, rect.y_min, rect.y_max
    w, h = x1 - x0, y1 - y0
    n_edge = int(round(count * _MC_EDGE_FRACTION)) if w + h > 0 else 0
    d = rng.uniform(0.0, 2.0 * (w + h), n_edge)
    side = np.searchsorted([w, w + h, 2 * w + h], d, side="right")
    ex = np.choose(side, [x0 + d, x1, x1 - (d - w - h), x0])
    ey = np.choose(side, [y0, y0 + (d - w), y1, y1 - (d - 2 * w - h)])
    xs = rng.uniform(x0, x1, count - n_edge)
    ys = rng.uniform(y0, y1, count - n_edge)
    return np.array([np.concatenate((ex, xs)), np.concatenate((ey, ys))])


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
    ``shared`` is an evaluator of the same plan; this one reuses the sample
    blocks it already holds.  An instance keeps scratch state across calls,
    as ``fields`` does, so it must not be shared between threads.
    """

    def __init__(
        self,
        fields: FieldSet,
        footprint,
        plan: SamplingPlan,
        rect_weights: dict | None = None,
        shared: ObjectiveEvaluator | None = None,
    ):
        if isinstance(footprint, VehicleFootprint):
            footprint = (footprint,)
        rect_weights = rect_weights or {}
        layouts = [_sample_layout(fp, plan) for fp in footprint]
        self._fields = fields
        known = {} if shared is None else shared._blocks
        # Block key -> x row and y row of its samples, in union column order.
        self._blocks: dict = {}
        first: dict = {}  # block key -> its first union column
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
                if key not in self._blocks:
                    block = known.get(key)
                    if block is None and plan.mode == GRID:
                        block = _grid_rect_samples(rect, *shape)
                    elif block is None:
                        block = _mc_rect_samples(rect, shape[0], plan.seed, index)
                    self._blocks[key] = block
                    first[key] = size
                    size += block.shape[1]
                count = self._blocks[key].shape[1]
                cols.append(np.arange(first[key], first[key] + count))
                weights.append(np.full(count, rect_weights.get(label, 1.0) * rect.area / count))
            columns.append((np.concatenate(cols), np.concatenate(weights)))
        self._coords = np.concatenate(list(self._blocks.values()), axis=1)
        # Per footprint: its union columns (None when it uses all of them in
        # order, so its sums run on the kernel's values as they are) and
        # its per-point quadrature weights.
        self._columns = [
            (None if np.array_equal(cols, np.arange(size)) else cols, weights)
            for cols, weights in columns
        ]
        # Rotated sample rows by the bit patterns of (cos, sin), and the
        # scratch buffer of posed points and weighted values, kept across
        # calls.
        self._rows: dict = {}
        self._buf = np.empty(0)

    def scores(self, poses: np.ndarray) -> np.ndarray:
        """Objective at each pose row (x, y, theta).

        Shape ``(P,)`` for one footprint, ``(F, P)`` for F footprints.
        Poses are scored in blocks of about ``_BLOCK_POINTS`` sample points,
        so memory stays bounded whatever the batch; every row's arithmetic
        is independent of the blocking and of the batch order.

        The poses are grouped by heading, and each block takes cos and sin
        of its headings in one vector call each.  The samples are rotated
        once per distinct (cos, sin) pair, cached by its bit patterns (so a
        ``-0.0`` heading never shares the rows of ``0.0``), and each
        heading's poses translate the rotated rows with one call per
        coordinate into the x block and the y block of a reused buffer, which
        go to the kernel as they are.  A posed point is still
        ``(cos*lx - sin*ly) + x`` and ``(sin*lx + cos*ly) + y``, the same
        IEEE operations in the same order as broadcasting every pose, so
        the scores are bit-identical to that.  The cache is cleared once
        it holds a block's worth of headings, so it stays within about two
        blocks' points.

        A heading's run of poses that is a lattice goes instead to the field
        set's ``eval_lattice``, which evaluates each axis line once per
        distinct x or y translation (keyed by bit pattern) in tiles of at
        most two blocks' points.  A run is a lattice when the field set
        has an axis polygon, its distinct x plus distinct y translations
        are at most a quarter of its poses, and its poses fill at least
        half of the x-by-y grid; a run of fewer than ``_LATTICE_MIN_RUN``
        poses, as every refinement poll is, cannot be one and is not
        examined.  Each grid cell's weighted sum is the per-pose path's, so
        the scores keep their bits.
        """
        poses = np.asarray(poses, dtype=float).reshape(-1, 3)
        order = np.argsort(poses[:, 2].view(np.int64), kind="stable")
        poses = poses[order]
        sums = np.empty((len(self._columns), len(poses)))
        left = None
        if len(poses) >= _LATTICE_MIN_RUN and self._fields.has_axis:
            left = self._lattice_runs(poses, sums)
        if left is None or left.all():
            self._pose_blocks(poses, sums)
        elif left.any():
            part = np.empty((len(sums), np.count_nonzero(left)))
            self._pose_blocks(poses[left], part)
            sums[:, left] = part
        out = np.empty_like(sums)
        out[:, order] = sums
        return out[0] if len(self._columns) == 1 else out

    def _lattice_runs(self, poses, sums) -> np.ndarray:
        """Score each heading's run of the sorted ``poses`` that is a lattice
        into ``sums``; return the mask of the other poses."""
        left = np.ones(len(poses), dtype=bool)
        bits = poses[:, 2].view(np.int64)
        cuts = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(poses)]):
            if self._lattice_run(poses[lo:hi], sums[:, lo:hi]):
                left[lo:hi] = False
        return left

    def _lattice_run(self, poses, sums) -> bool:
        """Score one heading's ``poses`` into ``sums`` through the field
        set's lattice entry if their translations are a lattice: few
        distinct x and y against the poses, and at least half of the
        x-by-y grid posed.  Return whether they were."""
        count = len(poses)
        if count < _LATTICE_MIN_RUN:
            return False
        # Keyed by bit pattern, so a -0.0 translation never shares 0.0's rows.
        xs, jx = np.unique(poses[:, 0].view(np.int64), return_inverse=True)
        ys, ky = np.unique(poses[:, 1].view(np.int64), return_inverse=True)
        if len(xs) + len(ys) > count // 4 or len(xs) * len(ys) > 2 * count:
            return False
        lx, ly = self._coords
        m = len(lx)
        # The rotation of ``_pose_blocks``, as one-element rows.
        c = np.cos(poses[:1, 2])
        s = np.sin(poses[:1, 2])
        rx = c * lx - s * ly
        ry = s * lx + c * ly
        # Per footprint, the score of every (x, y) pair of the grid.
        grid = np.empty((len(sums), len(xs), len(ys)))
        for j, k, values in self._fields.eval_lattice(rx, ry, xs.view(float), ys.view(float)):
            tx, ty, _ = values.shape
            values = values.reshape(tx * ty, m)
            for cell, column in zip(grid, self._columns):
                cell[j : j + tx, k : k + ty] = self._weighted(values, *column).sum(axis=1).reshape(tx, ty)
        sums[:] = grid[:, jx, ky]
        return True

    def _weighted(self, values, cols, weights):
        """Per-sample weighted ``values`` of one footprint's columns, C-contiguous.

        An evaluator of one footprint weights ``values`` in place; a union
        one takes each footprint's columns into the scratch buffer.
        """
        if len(self._columns) == 1:
            values *= weights
            return values
        width = values.shape[1] if cols is None else len(cols)
        size = len(values) * width
        if len(self._buf) < size:
            self._buf = np.empty(size)
        weighted = self._buf[:size].reshape(len(values), width)
        if cols is None:
            np.multiply(values, weights, out=weighted)
        else:
            # A C-contiguous copy: the row sums of a fancy-indexed
            # (F-ordered) view round differently.  The columns are in
            # range; mode "raise" would buffer the output.
            np.take(values, cols, axis=1, out=weighted, mode="clip")
            weighted *= weights
        return weighted

    def _pose_blocks(self, poses, sums):
        """Score ``poses``, sorted by heading, into ``sums`` block by block."""
        m = self._coords.shape[1]
        step = max(1, _BLOCK_POINTS // m)
        need = 2 * m * min(step, len(poses))
        if len(self._buf) < need:
            self._buf = np.empty(need)
        lx, ly = self._coords
        rows = self._rows
        for lo, hi in _block_slices(len(poses), step):
            block = poses[lo:hi]
            k = hi - lo
            cos = np.cos(block[:, 2])
            sin = np.sin(block[:, 2])
            keys = list(zip(cos.view(np.int64).tolist(), sin.view(np.int64).tolist()))
            if len(rows) >= step:
                rows.clear()
            # First pose of each heading's run, and those not yet rotated.
            runs = [i for i in range(k) if i == 0 or keys[i] != keys[i - 1]]
            fresh = [i for i in runs if keys[i] not in rows]
            if fresh:
                c = cos[fresh, None]
                s = sin[fresh, None]
                rot = np.empty((2, len(fresh), m))
                np.subtract(c * lx, s * ly, out=rot[0])
                np.add(s * lx, c * ly, out=rot[1])
                for j, i in enumerate(fresh):
                    rows[keys[i]] = rot[:, j]
            # Posed points, x block then y block; the kernel's values are
            # a fresh array, so the weighted values may reuse the buffer.
            x, y = self._buf[: 2 * k * m].reshape(2, k, m)
            for first, end in zip(runs, runs[1:] + [k]):
                rx, ry = rows[keys[first]]
                np.add(rx, block[first:end, 0:1], out=x[first:end])
                np.add(ry, block[first:end, 1:2], out=y[first:end])
            values = self._fields.eval_many(x.reshape(-1), y.reshape(-1)).reshape(k, m)
            for row, column in zip(sums, self._columns):
                self._weighted(values, *column).sum(axis=1, out=row[lo:hi])


def objective(
    fields: FieldSet,
    footprint: VehicleFootprint,
    pose: Pose,
    plan: SamplingPlan,
    rect_weights: dict | None = None,
) -> float:
    """Sampled surface integral of the field under the footprint at ``pose``."""
    evaluator = ObjectiveEvaluator(fields, footprint, plan, rect_weights)
    return float(evaluator.scores([pose.x_hat, pose.y_hat, pose.theta_hat])[0])


def check_feasible(footprint: VehicleFootprint, spot: ParkingSpot, headings) -> None:
    body = footprint.body
    length = body.x_max - body.x_min
    width = body.y_max - body.y_min
    best_over = None
    for heading in headings:
        c, s = abs(math.cos(heading)), abs(math.sin(heading))
        over_x = max(0.0, length * c + width * s - spot.length)
        over_y = max(0.0, length * s + width * c - spot.width)
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
    sides = {"x_min": x, "x_max": spot.length - x, "y_min": y, "y_max": spot.width - y}
    approach = -sides[spot.approach_side]
    return np.lexsort((_normalize_angles(theta), y, x, approach, deviation, scores))


def _local_field_set(fields: FieldSet, spot: ParkingSpot) -> FieldSet:
    return FieldSet(transform_polygon(spot.spot_frame, p) for p in fields.polygons)


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
        compiled field set and sample blocks.
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
            evaluator = ObjectiveEvaluator(local, footprint, plan, weights, shared=shared)
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
