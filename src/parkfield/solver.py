"""Sampled-surface objective and in-spot pose minimization.

The objective integrates the composite field over every footprint
rectangle at a candidate pose; sample points live in the vehicle frame and
are fixed per sampling plan, so the estimate is a deterministic quadrature
and the same rule scores every pose.  Minimization is a two-stage
derivative-free search (the field is piecewise linear): a coarse lattice
over the spot box and the discrete headings, then compass refinement from
the best nodes, all of them in lockstep.  The coarse stage and the test
oracle, ``brute_force_minimize``, share one bounded scan of a lattice,
which scores only the nodes that a Lipschitz bound cannot rule out: for
the oracle, those that can hold the minimum; for the coarse stage, those
that can pick a refinement start.  Both answer as a scan of every node
would, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, InfeasibleSpotError, ScenarioError, finite_number
from .field import _BLOCK_POINTS, FieldSet, _block_slices
from .geometry import TAU, normalize_angle
from .scenario import RECT_LABELS, ParkingSpot, Rect, VehicleFootprint, _local_field_set

GRID = "grid"
MONTE_CARLO = "monte_carlo"

# Cap on the sample points of one footprint, over all its rectangles.
MAX_FOOTPRINT_SAMPLES = 10**6

# Cap on the nodes of one pose lattice: the coarse grid of ``minimize`` and
# the oracle lattice of ``brute_force_minimize``.
MAX_LATTICE_POSES = 10**7

# Largest rectangle weight; with lengths up to 1e9 m no score overflows.
MAX_RECT_WEIGHT = 1e6

# Share of monte-carlo samples placed on the rectangle boundary.  This
# deliberately mimics the edge-heavy low-count sampling that grid mode
# exists to fix; keep monte_carlo only for regression demos.
_MC_EDGE_FRACTION = 0.75


# numpy's ufunc buffer, in elements, inside ``minimize`` and
# ``brute_force_minimize``.  A broadcast whose rows are shorter than the
# buffer is copied through it, several rows at a time; a row of at least
# about a third of the buffer runs through numpy's SIMD loop in place.  The
# objective's translations, weightings and rotations and the lattice
# entry's side rows work on rows of a few hundred to a few thousand
# samples: ``np.add(rx, X[:, None], out=out)`` with 16 rows
# of 1,000 takes 17.2 us at numpy's default of 8192 and 4.5 us at 256
# (numpy 2.4.6, 2-core Xeon).  Buffering moves no bit: an elementwise
# result does not depend on it, and a row's sum gave the same bits at
# every size from 16 to 65,536.  A multiple of 16.
_BUFSIZE = 256


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

    ``evaluations`` counts the poses the search requested: every node of
    the coarse lattice, scored or bounded, plus every refinement probe,
    including the probes answered from the solve's score memo without
    reaching the evaluator.
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
    out = np.empty((2, ny, nx))
    out[0] = xs
    out[1] = ys[:, None]
    return out.reshape(2, -1)


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
    order, so it is bit-identical to scoring that footprint alone.  An
    instance keeps scratch state across calls, as ``fields`` does, so it
    must not be shared between threads.
    """

    def __init__(
        self,
        fields: FieldSet,
        footprint,
        plan: SamplingPlan,
        rect_weights: dict | None = None,
    ):
        if isinstance(footprint, VehicleFootprint):
            footprint = (footprint,)
        rect_weights = rect_weights or {}
        layouts = [_sample_layout(fp, plan) for fp in footprint]
        self._fields = fields
        # Block key -> x row and y row of its samples, in union column order.
        blocks: dict = {}
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
                if key not in blocks:
                    if plan.mode == GRID:
                        block = _grid_rect_samples(rect, *shape)
                    else:
                        block = _mc_rect_samples(rect, shape[0], plan.seed, index)
                    blocks[key] = block
                    first[key] = size
                    size += block.shape[1]
                count = blocks[key].shape[1]
                cols.append(np.arange(first[key], first[key] + count))
                weights.append(np.full(count, rect_weights.get(label, 1.0) * rect.area / count))
            columns.append((np.concatenate(cols), np.concatenate(weights)))
        self._coords = np.concatenate(list(blocks.values()), axis=1)
        # Per footprint: its union columns (None when it uses all of them in
        # order, so its sums run on the kernel's values as they are) and
        # its per-point quadrature weights.
        self._columns = [
            (None if np.array_equal(cols, np.arange(size)) else cols, weights)
            for cols, weights in columns
        ]
        # Rotated sample rows by the bit pattern of their heading, and the
        # scratch buffer of posed points, kernel values and weighted values,
        # kept across calls.
        self._rows: dict = {}
        self._buf = np.empty(0)

    def scores(self, poses: np.ndarray, axes: tuple | None = None, *, nodes=None) -> np.ndarray:
        """Objective at each pose row (x, y, theta).

        Shape ``(P,)`` for one footprint, ``(F, P)`` for F footprints.
        Poses are scored in blocks of about ``_BLOCK_POINTS`` sample points,
        so memory stays bounded whatever the batch; every row's arithmetic
        is independent of the blocking and of the batch order.

        The poses are sorted by the bit pattern of their heading, the key
        of ``_rotated``'s cache of rotated samples (so a ``-0.0`` heading
        never shares the rows of ``0.0``), and each heading's poses
        translate its rotated rows with one call per coordinate into the x
        block and the y block of a reused buffer, which go to the kernel as
        they are.  A posed point is still ``(cos*lx - sin*ly) + x`` and
        ``(sin*lx + cos*ly) + y``, the same IEEE operations in the same
        order as broadcasting every pose, so the scores are bit-identical to
        that.

        ``axes`` is ``(xs, ys, headings)`` when ``poses`` are the rows of
        ``_lattice_rows`` over them, and then the rows are not read: each
        heading's rotated rows, from the same cache, go to the field set's
        ``eval_lattice``, which evaluates each axis line once per x or y
        translation in tiles of at most ``_TILE_POINTS`` points.  Each
        lattice node's weighted sum is the per-pose path's, so the scores
        keep their bits.

        Given ``nodes`` too, index arrays ``(i, j, k)``, ``poses`` are the
        rows of those nodes of the lattice ``axes``, again not read: each
        heading's nodes go to the field set's ``eval_nodes``, which makes
        the side rows once per distinct x or y translation of a block of
        them and composes only those nodes, with the lattice entry's bits.
        """
        if nodes is not None:
            xs, ys, headings = axes
            i, j, k = nodes
            out = np.empty((len(self._columns), len(k)))
            for h in range(len(headings)):
                at = np.flatnonzero(k == h)
                if len(at):
                    out[:, at] = self._nodes(headings[h : h + 1], xs, ys, i[at], j[at])
        elif axes is None:
            poses = np.asarray(poses, dtype=float).reshape(-1, 3)
            bits = poses[:, 2].view(np.int64)
            order = np.argsort(bits, kind="stable")
            sums = np.empty((len(self._columns), len(poses)))
            self._pose_blocks(poses[order], bits[order].tolist(), sums)
            out = np.empty_like(sums)
            out[:, order] = sums
        else:
            xs, ys, headings = axes
            grid = np.empty((len(self._columns), len(xs), len(ys), len(headings)))
            for h in range(len(headings)):
                self._lattice(headings[h : h + 1], xs, ys, grid[..., h])
            out = grid.reshape(len(grid), -1)
        return out[0] if len(self._columns) == 1 else out

    def _rotated(self, theta: np.ndarray, bits: list) -> list:
        """``(rx, ry)``, the samples rotated by each heading of ``theta``,
        whose bit patterns are ``bits``, all distinct.

        The rows are cached by those bits.  The headings not cached are
        rotated together, their cos and sin taken in one vector call each.
        The cache is cleared before a call once it holds a block's worth of
        headings, so it stays within about two blocks' points whatever the
        number of headings.
        """
        rows = self._rows
        if len(rows) >= max(1, _BLOCK_POINTS // self._coords.shape[1]):
            rows.clear()
        fresh = [i for i, key in enumerate(bits) if key not in rows]
        if fresh:
            lx, ly = self._coords
            angle = theta[fresh, None]
            c, s = np.cos(angle), np.sin(angle)
            rot = np.empty((2, len(fresh), len(lx)))
            np.subtract(c * lx, s * ly, out=rot[0])
            np.add(s * lx, c * ly, out=rot[1])
            rows.update((bits[i], rot[:, j]) for j, i in enumerate(fresh))
        return [rows[key] for key in bits]

    def _lattice(self, theta, xs, ys, grid):
        """Score the (x, y) nodes of the one-element heading ``theta`` into
        ``grid``, per footprint.  The lattice entry's scratch dies with the
        call, before the next heading's is allocated."""
        ((rx, ry),) = self._rotated(theta, theta.view(np.int64).tolist())
        for j, k, values in self._fields.eval_lattice(rx, ry, xs, ys):
            tx, ty, m = values.shape
            values = values.reshape(tx * ty, m)
            for cell, column in zip(grid, self._columns):
                cell[j : j + tx, k : k + ty] = self._weighted(values, *column).sum(axis=1).reshape(tx, ty)

    def _nodes(self, theta, xs, ys, i, j) -> np.ndarray:
        """The ``(F, len(i))`` scores of the nodes ``(i, j)`` of the
        one-element heading ``theta``, composed in the evaluator's scratch
        buffer a kernel block of points at a time, as ``_pose_blocks``
        sizes it."""
        ((rx, ry),) = self._rotated(theta, theta.view(np.int64).tolist())
        m = len(rx)
        need = 3 * m * min(max(1, _BLOCK_POINTS // m), len(i))
        if len(self._buf) < need:
            self._buf = np.empty(need)
        sums = np.empty((len(self._columns), len(i)))
        for at, values in self._fields.eval_nodes(rx, ry, xs, ys, i, j, self._buf[:need]):
            # A union evaluator's weighted values go over the first row.
            for row, column in zip(sums, self._columns):
                row[at] = self._weighted(values, *column).sum(axis=1)
        return sums

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

    def _pose_blocks(self, poses, bits: list, sums):
        """Score ``poses``, sorted by ``bits``, the bit patterns of their
        headings, into ``sums`` block by block."""
        m = self._coords.shape[1]
        step = max(1, _BLOCK_POINTS // m)
        need = 3 * m * min(step, len(poses))
        if len(self._buf) < need:
            self._buf = np.empty(need)
        for lo, hi in _block_slices(len(poses), step):
            block = poses[lo:hi]
            key = bits[lo:hi]
            k = hi - lo
            # First pose of each heading's run.
            runs = [i for i in range(k) if i == 0 or key[i] != key[i - 1]]
            rotated = self._rotated(block[runs, 2], [key[i] for i in runs])
            # Posed points, x block then y block, and the kernel's values.
            x, y, values = self._buf[: 3 * k * m].reshape(3, k, m)
            for (rx, ry), first, end in zip(rotated, runs, runs[1:] + [k]):
                np.add(rx, block[first:end, 0:1], out=x[first:end])
                np.add(ry, block[first:end, 1:2], out=y[first:end])
            self._fields.eval_many(x.reshape(-1), y.reshape(-1), out=values.reshape(-1))
            # A union evaluator's weighted values go over the posed points.
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
    """Raise ``InfeasibleSpotError`` unless the body fits the spot box at
    some heading.

    The body may overhang each spot extent by 2**-24 of that extent: a
    spot's extents come from its corners rounded at the map's coordinates,
    within 2**-25.4 of themselves (the argument of ``_lattice_axes``), so a
    spot that a body exactly fits still fits wherever the map's origin is.
    """
    body = footprint.body
    length = body.x_max - body.x_min
    width = body.y_max - body.y_min
    tol_x, tol_y = spot.length * 2.0**-24, spot.width * 2.0**-24
    best_over = None
    for heading in headings:
        c, s = abs(math.cos(heading)), abs(math.sin(heading))
        over_x = max(0.0, length * c + width * s - spot.length)
        over_y = max(0.0, length * s + width * c - spot.width)
        if over_x <= tol_x and over_y <= tol_y:
            return
        if best_over is None or over_x + over_y < best_over[0] + best_over[1]:
            best_over = (over_x, over_y)
    over_x, over_y = best_over
    parts = []
    if over_x > tol_x:
        parts.append(f"length over by {over_x:.3f} m")
    if over_y > tol_y:
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


def _lattice_axes(spot: ParkingSpot, pitch: float, headings) -> tuple:
    """``(xs, ys, headings)`` of a ``pitch`` lattice over the spot box and
    headings, as arrays.

    Each position axis spans its extent inclusively in equal steps of at
    most ``pitch`` (give or take a share of 2**-24); more than
    ``MAX_LATTICE_POSES`` poses raise ``BudgetError`` before anything is
    allocated.
    """
    cells = [extent / pitch for extent in (spot.length, spot.width)]
    if max(cells) > MAX_LATTICE_POSES:
        raise BudgetError(f"pitch {pitch} gives over {MAX_LATTICE_POSES} lattice poses")
    # A spot's extents come from its corners (``make_spot``), rounded at the
    # map's coordinates: at coordinates of magnitude C an extent is within
    # about 6 units of 2**-53 of C of the exact one (a corner's rounded sum,
    # an exact difference, then a hypot or a projection).  Projected map
    # coordinates stay below 2**25 m (web mercator's reach 2.0e7 m) and a
    # spot a car fits is over 1 m across, so an extent that is a whole
    # number of pitches reads at most 2**-25.4 of itself over it.  The
    # count drops 2**-24 of itself before rounding up, so the same spot
    # gets the same nodes wherever the map's origin is.
    xs, ys = (
        np.linspace(0.0, extent, max(2, math.ceil(n * (1 - 2.0**-24)) + 1))
        for extent, n in zip((spot.length, spot.width), cells)
    )
    total = len(xs) * len(ys) * len(headings)
    if total > MAX_LATTICE_POSES:
        raise BudgetError(f"{total} lattice poses exceed {MAX_LATTICE_POSES}")
    return xs, ys, np.array(headings, dtype=float)


def _lattice_rows(xs, ys, headings) -> np.ndarray:
    """An (x, y, theta) row per node of the ``ij`` meshgrid of the axes."""
    gx, gy, gt = np.meshgrid(xs, ys, headings, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gt.ravel()])


def _node_rows(axes, nodes) -> np.ndarray:
    """An (x, y, theta) row per lattice node of ``axes`` at the index
    arrays ``nodes``, ``(i, j, k)``."""
    return np.column_stack([axis[index] for axis, index in zip(axes, nodes)])


class ScoredLattice:
    """One spot's coarse pose lattice, searched once for several footprints.

    ``minimize`` starts from the lattice at the coarse pitch, and the
    explained solves of a spot (the footprint and each of its one-rectangle
    ablations) share one: the spot-local field set is compiled once, and
    one ``_bounded_scan`` under the union of the footprints' sample blocks
    scores a node for all of them when any one needs it.  A footprint needs
    the nodes that can pick a start: its cut is the score of the last of
    the ``config.starts`` starts that ``_coarse_starts`` picks from the
    nodes scored so far, infinite while fewer can be picked.  The scan ends
    when no unscored node's bound lies within slack of any footprint's cut,
    so every node left unscored sorts after every start the whole lattice
    would give, and the starts are the full scan's.  Scanning waits for the
    first ``column`` call, so it runs inside the first solve that needs it.
    """

    def __init__(self, fields, footprints, spot, plan, config):
        self._footprints = tuple(footprints)
        self._fields = fields
        self._spot = spot
        self._plan = plan
        self._config = config
        self._scored = None

    def column(self, footprint: VehicleFootprint):
        """``(evaluator, nodes, poses, scores, starts)`` of ``footprint``,
        one of the lattice's: the lattice's node count, the pose rows of
        its scored nodes in lattice order with their scores for
        ``footprint``, and the indices of its refinement starts among them,
        as the scan's last cut picked them.

        The evaluator scores ``footprint`` alone on the lattice's compiled
        field set.  Grid and monte-carlo sample blocks are deterministic,
        so its scores are the union's column bit for bit.
        """
        plan, config = self._plan, self._config
        if self._scored is None:
            spot = self._spot
            axes = _lattice_axes(spot, config.coarse_pitch, config.headings)
            reach = max(fp.max_reach() for fp in self._footprints)
            local = _local_field_set(self._fields, spot, reach)
            union = ObjectiveEvaluator(local, self._footprints, plan, config.rect_weights)
            # The oracle's stride, and at least one halving.
            stride = max(2, _oracle_stride(config.coarse_pitch, axes))
            last = []  # the latest cut's poses, score columns and starts

            def cut(values, scored):
                poses, columns = _scored_nodes(values, scored, axes)
                starts = [_coarse_starts(scores, poses, config, spot) for scores in columns]
                last[:] = poses, columns, starts
                cuts = [
                    scores[s[-1]] if len(s) == config.starts else math.inf
                    for scores, s in zip(columns, starts)
                ]
                return np.array(cuts)

            # The scan ends on a cut of the nodes it scored, with no node
            # left under it.
            _, scored, _ = _bounded_scan(union, axes, stride, cut)
            self._scored = (local, union, scored.size, *last)
        local, union, nodes, poses, columns, starts = self._scored
        if self._footprints == (footprint,):
            evaluator = union
        else:
            evaluator = ObjectiveEvaluator(local, footprint, plan, config.rect_weights)
        k = self._footprints.index(footprint)
        return evaluator, nodes, poses, columns[k], starts[k]


def _scored_nodes(values, scored, axes) -> tuple:
    """``(poses, columns)``: the pose rows of the ``scored`` nodes of the
    lattice ``axes``, in lattice order, and each footprint's row of their
    scores in ``values``."""
    flat = np.flatnonzero(scored)
    poses = _node_rows(axes, np.unravel_index(flat, scored.shape))
    return poses, values.reshape(len(values), -1)[:, flat]


def _coarse_starts(scores, poses, config: SolverConfig, spot: ParkingSpot) -> list:
    """Indices of the refinement starts among the scored coarse ``poses``:
    ``_diverse_starts`` over their ``_tie_order``."""
    order = _tie_order(scores, poses, config, spot)
    return _diverse_starts(order.tolist(), poses, config.starts, 2.0 * config.coarse_pitch)


# Signs of a poll's (x, y, theta) moves: axis moves, then position
# diagonals, then position-angle couplings.
_POLL_SIGNS = np.array(
    [(s, 0, 0) for s in (1, -1)]
    + [(0, s, 0) for s in (1, -1)]
    + [(0, 0, s) for s in (1, -1)]
    + [(sx, sy, 0) for sx in (1, -1) for sy in (1, -1)]
    + [(sx, 0, sa) for sx in (1, -1) for sa in (1, -1)]
    + [(0, sy, sa) for sy in (1, -1) for sa in (1, -1)],
    dtype=float,
)


def _poll_directions(step_p: float, step_a: float) -> np.ndarray:
    """The ``(18, 3)`` moves of one poll at position step ``step_p`` and
    angle step ``step_a``."""
    return _POLL_SIGNS * (step_p, step_p, step_a)


def _step_pairs(cfg: SolverConfig) -> list:
    """``(step_p, step_a)`` of a pass's polls in order: the initial steps
    halved down to their floors, reached together at the last pair."""
    pairs = [(cfg.step_init_pos, cfg.step_init_ang)]
    while not (pairs[-1][0] <= cfg.step_min_pos and pairs[-1][1] <= cfg.step_min_ang):
        step_p, step_a = pairs[-1]
        pairs.append((max(step_p / 2.0, cfg.step_min_pos), max(step_a / 2.0, cfg.step_min_ang)))
    return pairs


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


def _compass_refine(evaluator, memo, starts, scores, cfg, spot):
    """Pattern search with shrinking steps around each coarse-stage start,
    all starts in lockstep.

    A start polls axis, diagonal and position-angle-coupled moves around
    its centre; after its steps bottom out it restarts at the initial step
    sizes until a whole pass brings no improvement, which rides coupled
    valleys the plain compass stalls in.  Each round scores the moved
    probes of every live start's poll in one ``_memo_scores`` call through
    the solve's ``memo``.  A pose's score does not depend on its batch, so
    each start keeps the path it would take alone; its budget counts every
    probe it polled, memo hits included.

    A poll's at most 18 probes are built, clamped to the start's box and
    compared in Python floats, from the moves of each step pair as lists.
    Each start moves to the first of its lowest probes.

    Returns ``(x, y, theta, score, probes, converged)`` per start.
    """
    pairs = _step_pairs(cfg)
    moves = [_poll_directions(*pair).tolist() for pair in pairs]
    center = [tuple(start) for start in np.asarray(starts, dtype=float).tolist()]
    count = len(center)
    length, width = spot.length, spot.width
    # Each start's heading range; its position stays in the spot box.
    span = [(theta - cfg.theta_range, theta + cfg.theta_range) for _, _, theta in center]
    best = [float(s) for s in scores]
    step = [0] * count  # index into ``pairs``
    evals = [0] * count
    improved = [False] * count  # in the current pass
    stop = [None] * count  # True once converged, False at the budget

    def shrink(s):
        """Past a poll of start ``s`` that brought no improvement."""
        if step[s] < len(pairs) - 1:
            step[s] += 1
            if evals[s] >= cfg.max_refine_evals:
                stop[s] = False
        elif improved[s]:
            improved[s] = False
            step[s] = 0
        else:
            stop[s] = True

    live = list(range(count))
    while live:
        polls = []
        for s in live:
            at = center[s]
            x, y, theta = at
            low, high = span[s]
            poll = []
            for dx, dy, da in moves[step[s]]:
                px, py, pa = x + dx, y + dy, theta + da
                # Python's ``min(max(p, low), high)``: a tie keeps ``p``, so
                # a zero keeps its sign, which ``np.clip`` does not promise.
                px = 0.0 if 0.0 > px else px
                px = length if length < px else px
                py = 0.0 if 0.0 > py else py
                py = width if width < py else py
                pa = low if low > pa else pa
                pa = high if high < pa else pa
                probe = (px, py, pa)
                if probe != at:
                    poll.append(probe)
            polls.append(poll)
        stalled = [s for s, poll in zip(live, polls) if not poll]
        if stalled:
            for s in stalled:
                shrink(s)
            live = [s for s in live if stop[s] is None]
            continue
        got = _memo_scores(evaluator, memo, [p for poll in polls for p in poll])
        end = 0
        for s, poll in zip(live, polls):
            got_s = got[end : end + len(poll)]
            end += len(poll)
            evals[s] += len(poll)
            i = min(range(len(got_s)), key=got_s.__getitem__)
            if got_s[i] < best[s]:
                center[s] = poll[i]
                best[s] = float(got_s[i])
                improved[s] = True
                if evals[s] >= cfg.max_refine_evals:
                    stop[s] = False
            else:
                shrink(s)
        live = [s for s in live if stop[s] is None]
    return [(*center[s], best[s], evals[s], stop[s]) for s in range(count)]


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


def _unbuffered(solve):
    """``solve`` run with numpy's ufunc buffer at ``_BUFSIZE``, set inside
    ``np.errstate()``, which from numpy 2 on scopes the buffer size: the
    caller's size comes back on return and on raise, and the caller's error
    modes hold inside."""

    @functools.wraps(solve)
    def scoped(*args, **kwargs):
        with np.errstate():
            np.setbufsize(_BUFSIZE)
            return solve(*args, **kwargs)

    return scoped


@_unbuffered
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
    ``coarse`` is this spot's coarse lattice, searched for ``footprint``
    among others and shared with their solves; without one the solve
    searches its own.  The starts and every score are those of scoring the
    whole lattice, and ``evaluations`` counts every lattice node, each one
    scored or bounded after the last start.
    """
    check_feasible(footprint, spot, config.headings)
    if coarse is None:
        coarse = ScoredLattice(fields, (footprint,), spot, plan, config)
    evaluator, evaluations, grid, grid_scores, starts = coarse.column(footprint)
    # Pose tuple -> score for this solve: the refinement polls of all
    # starts revisit poses, and step-pitch probes land on coarse nodes.
    memo = dict(zip(map(tuple, grid.tolist()), grid_scores.tolist()))

    refined = _compass_refine(evaluator, memo, grid[starts], grid_scores[starts], config, spot)
    evaluations += sum(r[4] for r in refined)
    converged = all(r[5] for r in refined)
    candidates = [(score, x, y, theta) for x, y, theta, score, _, _ in refined]

    table = np.array(candidates)
    best = candidates[_tie_order(table[:, 0], table[:, 1:], config, spot)[0]]
    pose = Pose(best[1], best[2], best[3])
    return SolveResult(pose, best[0], evaluations, converged)


@_unbuffered
def brute_force_minimize(
    fields: FieldSet,
    footprint: VehicleFootprint,
    spot: ParkingSpot,
    plan: SamplingPlan = SamplingPlan(),
    resolution: float = 0.1,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Best pose of the pitch-``resolution`` lattice of ``_lattice_axes``
    over the spot box and ``config.headings``; the test oracle, not a
    production path.

    The result is the full scan's bit for bit: the lowest lattice score,
    and among the nodes holding it the first in ``_tie_order``.  Its
    ``evaluations`` counts every lattice pose, each one scored or bounded
    above that minimum by ``_bounded_scan``, which scores only the nodes a
    Lipschitz bound cannot rule out.
    """
    resolution = finite_number("resolution", resolution, 0.0, False)
    check_feasible(footprint, spot, config.headings)
    axes = _lattice_axes(spot, resolution, config.headings)
    local = _local_field_set(fields, spot, footprint.max_reach())
    evaluator = ObjectiveEvaluator(local, footprint, plan, config.rect_weights)
    stride = _oracle_stride(resolution, axes)
    (values,), scored, _ = _bounded_scan(evaluator, axes, stride, _lowest_score)
    low = values[scored].min()
    # Every node left unscored is bounded strictly above ``low``, so the
    # tied nodes are all scored, and stay in lattice order.
    tied = np.flatnonzero(scored & (values == low))
    poses = _node_rows(axes, np.unravel_index(tied, values.shape))
    best = _tie_order(values.reshape(-1)[tied], poses, config, spot)[0]
    return SolveResult(Pose(*poses[best].tolist()), float(low), values.size, True)


# The oracle's first pass scores the lattice nodes of every ``stride``-th
# index, where ``stride`` is the largest power of two whose step over the
# lattice pitch is at most this many metres, so a lattice of pitch over
# 0.1 m is scanned whole; the coarse stage takes a stride of at least 2,
# which at its 0.25 m pitch scores about a quarter of the nodes first and
# bounds the rest.  A scored node's bound on its neighbours falls by
# the objective's Lipschitz constant per metre (9 to 13 on the goldens at
# the default weights): a longer first step leaves more nodes to score
# later, a shorter one scores more nodes first.  On the goldens, 0.1 m and
# 0.4 m steps were no faster at 0.05 m and 0.01 m pitches.
_ORACLE_SPAN = 0.2
# ``_bounded_scan`` scores a node whose bound is within this share of the
# objective's operands of the cut (see ``_bound_slack``).
_BOUND_SLACK = 2.0**-44


def _oracle_stride(pitch: float, axes) -> int:
    """The first-pass index stride of the oracle over a pitch-``pitch``
    lattice on ``axes``: at most the span that leaves only the axis ends."""
    longest = max(len(axes[0]), len(axes[1])) - 1
    stride = 1
    while 2 * stride * pitch <= _ORACLE_SPAN and stride < longest:
        stride *= 2
    return stride


def _stride_nodes(n: int, stride: int) -> np.ndarray:
    """Indices ``0, stride, 2*stride, ...`` below ``n - 1``, then ``n - 1``."""
    return np.append(np.arange(0, n - 1, stride), n - 1)


def _halving(axis: np.ndarray, stride: int) -> tuple:
    """``(nodes, ends, near, steps)``: the stride-``stride // 2`` indices of
    a lattice axis; as a ``(2, n)`` array, the index of each one's lower and
    of its upper enclosing stride-``stride`` node, itself if it is one; the
    distinct distances to them, ``steps``; and as a ``(2, n)`` array, the
    index in ``steps`` of each node's distance to either end."""
    n = len(axis)
    nodes = _stride_nodes(n, stride // 2)
    old = (nodes % stride == 0) | (nodes == n - 1)
    lo = np.where(old, nodes, nodes - nodes % stride)
    hi = np.where(old, nodes, np.minimum(lo + stride, n - 1))
    gaps = np.concatenate((axis[nodes] - axis[lo], axis[hi] - axis[nodes])).tolist()
    # Distinct by a dict, not ``np.unique``: the distances are few (at most
    # 19 a level on axes of 2.5-250 m at pitches down to 0.5 mm), and its
    # sort adds about 0.6 MB of resident code to a process that runs no
    # other.
    steps = dict.fromkeys(gaps)
    for k, gap in enumerate(steps):
        steps[gap] = k
    near = np.array([steps[gap] for gap in gaps]).reshape(2, -1)
    return nodes, np.array((lo, hi)), near, np.array(list(steps))


def _level_bounds(values: np.ndarray, x: tuple, y: tuple, drop: np.ndarray) -> np.ndarray:
    """The ``(F, bx, ny', H)`` bounds of the nodes of a finer level, ``x``
    (one block of them) and ``y`` as ``(ends, near)`` from ``_halving``,
    over the ``(F, nx, ny, H)`` grid of ``values``: per footprint and
    heading, the largest over a node's enclosing nodes of their value plus
    that footprint's drop over the distance between them.

    ``drop[f, u, v]`` is footprint f's ``lipschitz`` times the translation
    norm N of the x distance ``steps[u]`` and the y distance ``steps[v]``
    (``FieldSet.shift_norm``), negated.  Each x end takes one gather of the
    values' rows and of the drops, each corner pair one gather of columns
    from them, and a term is the value plus the drop.  The drops'
    roundings, N's three among them, are in ``_bound_slack``."""
    bound = None
    for a, u in zip(*x):
        rows, drops = values.take(a, axis=1), drop.take(u, axis=1)
        for b, v in zip(*y):
            term = rows.take(b, axis=2)
            term += drops.take(v, axis=2)[..., None]
            bound = term if bound is None else np.maximum(bound, term, out=bound)
    return bound


def _bound_slack(evaluator: ObjectiveEvaluator, axes, levels: int) -> tuple:
    """``(lipschitz, slack)`` of each footprint of ``evaluator`` over
    ``axes``, as arrays.

    At one heading two lattice nodes differ by a translation ``(dx,
    dy)``, which moves the exact field by at most the field set's
    translation norm ``N(|dx|, |dy|)`` (``FieldSet.shift_norm``), whatever
    the lines' normals: the exact objective moves by at most
    ``lipschitz``, the sum of the quadrature weights' magnitudes, times N.
    The slack covers what rounding adds.  Let S be twice the largest ``|lx|
    + |ly|`` of the samples plus twice the spot extents plus the largest
    line offset magnitude, so that it bounds every posed coordinate, line
    value and node distance (an edge line's ``|a|`` and ``|b|`` are at most
    1: its normal is divided by its length).  A computed score is then
    within ``(m + 6)`` units of ``2**-53`` of ``lipschitz * S`` of the exact
    one over the same rotated samples (a posed point, a line value, a
    weighting, and an ``m``-term sum in any order).  A bound's at most
    ``levels`` steps each add a drop, the computed weight sum times the
    computed N, to a value.  The steps' distances halve, so their norms sum
    to at most S, and the drops' roundings (N's three, two products and
    their sum, the weight sum's ``m`` and the product's one) add at most
    ``m + 4`` units in all; each step's sum adds two more.
    ``_BOUND_SLACK * (m + levels)`` units of ``lipschitz * S``, ``2**9 *
    (m + levels)``, is over 40 times their total, ``2m + 10 + 2*levels``.
    S is taken over the samples of all the footprints, which only widens
    the slack.
    """
    lx, ly = evaluator._coords
    weights = [weights for _, weights in evaluator._columns]
    lipschitz = np.array([np.abs(w).sum() for w in weights])
    scale = 2.0 * (float((np.abs(lx) + np.abs(ly)).max()) + axes[0][-1] + axes[1][-1])
    scale += evaluator._fields._scale
    terms = np.array([len(w) + levels for w in weights], dtype=float)
    return lipschitz, _BOUND_SLACK * terms * lipschitz * scale


def _lowest_score(values, scored) -> np.ndarray:
    """The oracle's cut in ``_bounded_scan``: each footprint's lowest score
    so far."""
    return values[:, scored].min(axis=1)


def _bounded_scan(evaluator: ObjectiveEvaluator, axes, stride: int, cut) -> tuple:
    """``(values, scored, slack)`` of a coarse-to-fine search of the
    lattice ``axes`` for the nodes at or below a cut, under ``evaluator`` of
    F footprints over its spot-local field set.

    ``values`` is the ``(F, nx, ny, nh)`` grid of each footprint's values
    at the lattice nodes: a node's score where the ``(nx, ny, nh)`` mask
    ``scored`` is set, and otherwise a bound, which the node's score is at
    least, less the footprint's ``slack``.  ``cut(values, scored)`` gives
    each footprint's cut from the nodes scored so far.

    The nodes of every ``stride``-th index (``_stride_nodes``) are scored
    first, through the lattice entry.  Each halving of the stride gives a
    node of the finer level the largest over its enclosing nodes of the
    coarser one of their value less the Lipschitz constant times the
    translation norm of the distance (``_bound_slack``), one
    ``_level_bounds`` call per block of the level's x nodes for every
    footprint and heading, and the nodes whose bound is at most a
    footprint's cut plus its slack are scored for every footprint through
    the node entry (``scores``' ``nodes``), which keeps the lattice entry's
    bits.
    Past the last level the cuts are taken again, and the nodes under them
    scored, until none is left: a cut may rise as nodes are scored.  A node
    left unscored then scores strictly above every footprint's cut of the
    nodes scored.  Only the scored nodes get pose rows.
    """
    xs, ys, headings = axes
    count = len(evaluator._columns)
    values = np.empty((count, len(xs), len(ys), len(headings)))
    scored = np.zeros(values.shape[1:], dtype=bool)
    lipschitz, slack = _bound_slack(evaluator, axes, stride.bit_length() - 1)

    def score(nodes):
        rows = _node_rows(axes, nodes)
        values[(slice(None), *nodes)] = evaluator.scores(rows, axes, nodes=nodes).reshape(count, -1)
        scored[nodes] = True

    i, j = _stride_nodes(len(xs), stride), _stride_nodes(len(ys), stride)
    first = (xs[i], ys[j], headings)
    scores = evaluator.scores(_lattice_rows(*first), first)
    values[:, i[:, None], j] = scores.reshape(count, len(i), len(j), -1)
    scored[np.ix_(i, j)] = True
    while stride > 1:
        level = cut(values, scored) + slack
        x, y = _halving(xs, stride), _halving(ys, stride)
        j = y[0]
        # The level's drops, once per pair of distinct x and y distances.
        drop = evaluator._fields.shift_norm(x[3][:, None], y[3][None]) * -lipschitz[:, None, None]
        picks = []
        # Blocks of the level's x nodes, so that a block's bounds of every
        # footprint and heading stay within a kernel block.
        per_x = count * len(j) * len(headings)
        for lo, hi in _block_slices(len(x[0]), max(1, _BLOCK_POINTS // per_x)):
            i = x[0][lo:hi]
            bound = _level_bounds(values, (x[1][:, lo:hi], x[2][:, lo:hi]), y[1:3], drop)
            # A node of the coarser level keeps its value: it is its own
            # enclosing node, at distance 0.  The level's new nodes enclose
            # none, so a block's writes leave every later block's corners
            # as they were.
            values[:, i[:, None], j] = bound
            near = (bound <= level[:, None, None, None]).any(axis=0)
            a, b, k = np.nonzero(near & ~scored[i[:, None], j])
            picks.append((i[a], j[b], k))
        # Within one ``scores`` batch the picks run heading-minor; ``scores``
        # groups them by heading, and no score depends on its batch order.
        pick = tuple(np.concatenate(axis) for axis in zip(*picks))
        if len(pick[0]):
            score(pick)
        stride //= 2
    while True:
        level = cut(values, scored) + slack
        pick = np.nonzero(~scored & (values <= level[:, None, None, None]).any(axis=0))
        if not len(pick[0]):
            return values, scored, slack
        score(pick)
