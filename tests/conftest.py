import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from parkfield.field import _axis_sides
from parkfield.field import FieldSet
from parkfield.geometry import (
    EdgeLine,
    Point2,
    Polygon,
    RigidTransform,
    apply_transform,
    normalize_angle,
    transform_polygon,
)
from parkfield.scenario import (
    Rect,
    VehicleFootprint,
    _spot_edge_polygons,
    load_scenario,
    make_spot_from_center,
    spot_field_set,
)
from parkfield import solver
from parkfield.solver import (
    ObjectiveEvaluator,
    Pose,
    SamplingPlan,
    SolveResult,
    SolverConfig,
    _coarse_starts,
    _compass_refine,
    _diverse_starts,
    _lattice_axes,
    _lattice_rows,
    _poll_directions,
    _step_pairs,
    _tie_order,
    check_feasible,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

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


def random_scenario(rng, rects=1):
    """``(spot, fields, footprint)``: a random spot with up to two convex
    obstacles and a footprint that fits it, in the style of acceptance 5.

    The footprint carries the first ``rects`` of a front-left door, a
    rear-right door and a trunk; the extra rectangles draw nothing from
    ``rng``, so a seed gives the same spot and obstacles for every count.
    """
    lx = rng.uniform(3.0, 4.2)
    ly = rng.uniform(2.0, 2.7)
    spot = make_spot_from_center(
        "r",
        Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        lx,
        ly,
        rng.uniform(-math.pi, math.pi),
        rng.choice(["x_min", "x_max", "y_min", "y_max"]),
    )
    obstacles = []
    for k in range(rng.randint(0, 2)):
        cx, cy = rng.uniform(0, lx), rng.uniform(0, ly)
        radius = rng.uniform(0.15, 0.5)
        sides = rng.randint(3, 5)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(sides))
        if len(set(round(a, 3) for a in angles)) < sides:
            continue
        verts = tuple(
            spot.to_global(Point2(cx + radius * math.cos(a), cy + radius * math.sin(a)))
            for a in angles
        )
        try:
            obstacles.append(Polygon(verts, name=f"o{k}"))
        except Exception:
            continue
    length = rng.uniform(2.2, min(2.9, lx - 0.1))
    width = rng.uniform(1.4, min(1.9, ly - 0.1))
    half_l, half_w = length / 2, width / 2
    maneuver = (
        (Rect(0, half_l, half_w, half_w + 0.6), "front_left_door"),
        (Rect(-half_l, 0, -half_w - 0.9, -half_w), "rear_right_door"),
        (Rect(-half_l - 0.5, -half_l, -half_w, half_w), "trunk"),
    )
    footprint = VehicleFootprint(Rect(-half_l, half_l, -half_w, half_w), maneuver[:rects])
    fields = spot_field_set(spot, obstacles, reach=footprint.max_reach())
    return spot, fields, footprint


# Independent geometry oracles: re-derivations the tests check the package
# against, kept here because the package itself has no use for them.


def edge_lines(polygon: Polygon) -> list:
    """Unit-normalized edge lines recomputed from the vertices.

    One line per cyclic vertex pair, or one for a 2-vertex spot edge, each
    with the left-hand normal of its directed edge.
    """
    verts = polygon.vertices
    pairs = [verts] if len(verts) == 2 else zip(verts, verts[1:] + verts[:1])
    lines = []
    for p, q in pairs:
        dx, dy = q.x - p.x, q.y - p.y
        length = math.hypot(dx, dy)
        a, b = -dy / length, dx / length
        lines.append(EdgeLine(a, b, -(a * p.x + b * p.y)))
    return lines


def eval_line(line: EdgeLine, p: Point2) -> float:
    """Signed distance of ``p`` from the line, positive on the normal side."""
    return line.a * p.x + line.b * p.y + line.c


def polygon_field(polygon: Polygon, p: Point2) -> float:
    """Field of one polygon at ``p``: the minimum of its edge-line values,
    each evaluated in scalar arithmetic."""
    return min(eval_line(line, p) for line in polygon.edges)


def centroid(polygon: Polygon) -> Point2:
    """Mean of the polygon's vertices."""
    n = len(polygon.vertices)
    return Point2(
        sum(v.x for v in polygon.vertices) / n, sum(v.y for v in polygon.vertices) / n
    )


def inverse_transform(t: RigidTransform, p_global: Point2) -> Point2:
    """Inverse of ``apply_transform``: undo the translation, then the rotation."""
    c, s = math.cos(t.theta), math.sin(t.theta)
    dx, dy = p_global.x - t.tx, p_global.y - t.ty
    return Point2(c * dx + s * dy, -s * dx + c * dy)


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying ``inner`` first, then ``outer``."""
    p = apply_transform(outer, Point2(inner.tx, inner.ty))
    return RigidTransform(outer.theta + inner.theta, p.x, p.y)


def to_local(spot, p: Point2) -> Point2:
    """``p`` in the spot's local frame, through ``spot.spot_frame``."""
    return apply_transform(spot.spot_frame, p)


def total_area(footprint: VehicleFootprint) -> float:
    """Area of the body and every maneuver rectangle, from their intervals."""
    return sum(
        (r.x_max - r.x_min) * (r.y_max - r.y_min) for r in footprint.all_rects()
    )


def node_xy(fmap, row: int, col: int) -> tuple:
    """Global position of lattice node ``(row, col)`` of a field map."""
    return (fmap.origin.x + col * fmap.cell_size, fmap.origin.y + row * fmap.cell_size)


def point_major_gamma_many(fields, pts):
    """Independent field-kernel oracle: every polygon's lines at the
    ``(N, 2)`` points as one point-major ``(N, L)`` array of ``(x*a + y*b)
    + c``, min over its lines, max over polygons."""
    values = None
    for poly in fields.polygons:
        a, b, c = np.array([(e.a, e.b, e.c) for e in poly.edges]).T
        lines_min = (pts[:, :1] * a + pts[:, 1:] * b + c).min(axis=1)
        values = lines_min if values is None else np.maximum(values, lines_min)
    return values


def on_axis_path(fields) -> list:
    """Per polygon of ``fields``: does it stay out of the set's general
    part, which multiplies out each line?  A one-line polygon of an axis
    line and an upright box do."""
    sides = [_axis_sides(p.edges) for p in fields.polygons]
    axis = [bool(s) and (len(p.edges) == 1 or all(s)) for p, s in zip(fields.polygons, sides)]
    assert axis.count(False) == len(fields._lines)
    return axis


def scalar_tie_key(score, x, y, theta, cfg, spot):
    """The README's total order of scored poses, as one tuple per pose.

    Score, heading deviation from the nearest configured heading, distance
    to the approach edge (larger first), x, y, normalized heading.
    """
    deviation = min(abs(normalize_angle(theta - h)) for h in cfg.headings)
    distance = {
        "x_min": x,
        "x_max": spot.length - x,
        "y_min": y,
        "y_max": spot.width - y,
    }[spot.approach_side]
    return (score, deviation, -distance, x, y, normalize_angle(theta))


def unblocked_scores(fields, evaluator, poses):
    """Objective oracle for a one-footprint evaluator: all P x M posed sample
    points in one evaluation of ``point_major_gamma_many``, then the per-row
    weighted sum."""
    poses = np.asarray(poses, dtype=float).reshape(-1, 3)
    cos = np.cos(poses[:, 2])
    sin = np.sin(poses[:, 2])
    lx, ly = evaluator._coords
    gx = cos[:, None] * lx[None, :] - sin[:, None] * ly[None, :] + poses[:, 0:1]
    gy = sin[:, None] * lx[None, :] + cos[:, None] * ly[None, :] + poses[:, 1:2]
    values = point_major_gamma_many(
        fields, np.column_stack([gx.ravel(), gy.ravel()])
    ).reshape(len(poses), -1)
    (_, weights), = evaluator._columns
    return (values * weights).sum(axis=1)


def bench_module(name: str):
    """A helper module of the benchmark (``lot``, ``stats``), imported read-only."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    return importlib.import_module(name)


def unpruned_local_set(fields, spot) -> FieldSet:
    """Reference spot-local set: every polygon of ``fields`` moved into the
    spot frame, the spot's own edges built there exactly and none pruned,
    so a solve over it shows what the package's pruned set must keep."""
    exact = dict(zip(_spot_edge_polygons(spot), _spot_edge_polygons(spot, local=True)))
    return FieldSet(
        exact[p] if p in exact else transform_polygon(spot.spot_frame, p) for p in fields.polygons
    )


def pose_lattice(spot, pitch: float, headings) -> tuple:
    """``(poses, axes)``: the ``_lattice_axes`` of a ``pitch`` lattice over
    the spot box and ``headings``, and an (x, y, theta) row per node, in
    lattice order."""
    axes = _lattice_axes(spot, pitch, headings)
    return _lattice_rows(*axes), axes


def full_scan_minimize(
    fields, footprint, spot, plan=SamplingPlan(), config=SolverConfig(), coarse=None
):
    """Reference ``minimize`` whose coarse stage is a full scan: every node
    of the coarse lattice scored through the lattice entry and seeded into
    the memo, and the starts picked in ``_tie_order`` over all of them.
    The field set is ``unpruned_local_set``'s.  ``coarse`` is ignored, so it
    stands in for ``minimize`` anywhere."""
    check_feasible(footprint, spot, config.headings)
    poses, axes = pose_lattice(spot, config.coarse_pitch, config.headings)
    evaluator = ObjectiveEvaluator(
        unpruned_local_set(fields, spot), footprint, plan, config.rect_weights
    )
    scores = evaluator.scores(poses, axes)
    memo = dict(zip(map(tuple, poses.tolist()), scores.tolist()))
    order = _tie_order(scores, poses, config, spot).tolist()
    starts = _diverse_starts(order, poses, config.starts, 2.0 * config.coarse_pitch)
    refined = _compass_refine(evaluator, memo, poses[starts], scores[starts], config, spot)
    candidates = [(score, x, y, theta) for x, y, theta, score, _, _ in refined]
    table = np.array(candidates)
    best = candidates[_tie_order(table[:, 0], table[:, 1:], config, spot)[0]]
    return SolveResult(
        Pose(*best[1:]),
        best[0],
        len(poses) + sum(r[4] for r in refined),
        all(r[5] for r in refined),
    )


def assert_column_keeps_the_starts(fields, footprint, spot, plan, config, column):
    """``column``, a ``ScoredLattice.column`` of ``footprint``, against its
    whole coarse lattice over ``unpruned_local_set``: the scored nodes in
    lattice order, each with the bits of scoring the footprint alone; the
    column's starts, the whole lattice's; and every node left unscored
    scoring above the last start."""
    _, nodes, poses, scores, starts = column
    lattice, axes = pose_lattice(spot, config.coarse_pitch, config.headings)
    local = unpruned_local_set(fields, spot)
    alone = ObjectiveEvaluator(local, footprint, plan, config.rect_weights).scores(lattice, axes)
    # The scored nodes as a subsequence of the lattice: a repeated heading
    # repeats its poses, so a pose alone does not name its node.
    nodes_left = iter(enumerate(map(tuple, lattice.tolist())))
    rows = [next(n for n, node in nodes_left if node == pose) for pose in map(tuple, poses.tolist())]
    assert nodes == len(lattice)
    assert np.array_equal(scores, alone[rows])
    assert starts == _coarse_starts(scores, poses, config, spot)
    assert [rows[s] for s in starts] == _coarse_starts(alone, lattice, config, spot)
    if len(starts) == config.starts:
        assert np.all(np.delete(alone, rows) > scores[starts[-1]])
    else:
        assert nodes == len(rows)


def numpy_compass_refine(evaluator, memo, starts, scores, cfg, spot):
    """Reference ``_compass_refine``: the same lockstep search with each
    round's probes built, clamped and compared as one numpy array over the
    live starts, and each start's pick by ``np.argmin``.  Each round goes
    through ``solver._memo_scores`` as looked up at the call."""
    pairs = _step_pairs(cfg)
    moves = np.array([_poll_directions(*pair) for pair in pairs])
    center = np.array(starts, dtype=float)
    count = len(center)
    # The box each start's probes are clamped to: the spot, and its own
    # heading range.
    low = np.zeros_like(center)
    high = np.empty_like(center)
    low[:, 2] = center[:, 2] - cfg.theta_range
    high[:, 0], high[:, 1] = spot.length, spot.width
    high[:, 2] = center[:, 2] + cfg.theta_range
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
        at = center[live, None]
        probes = at + moves[[step[s] for s in live]]
        # Python's ``min(max(p, low), high)``: a tie keeps ``p``, so a zero
        # keeps its sign, which ``np.clip`` does not promise.
        lo, hi = low[live, None], high[live, None]
        probes = np.where(lo > probes, lo, probes)
        probes = np.where(hi < probes, hi, probes)
        moved = (probes != at).any(axis=2)
        stalled = [s for s, any_moved in zip(live, moved.any(axis=1).tolist()) if not any_moved]
        if stalled:
            for s in stalled:
                shrink(s)
            live = [s for s in live if stop[s] is None]
            continue
        polls = [list(map(tuple, p[m].tolist())) for p, m in zip(probes, moved)]
        got = np.array(solver._memo_scores(evaluator, memo, [p for poll in polls for p in poll]))
        end = 0
        for s, poll in zip(live, polls):
            got_s = got[end : end + len(poll)]
            end += len(poll)
            evals[s] += len(poll)
            i = int(np.argmin(got_s))
            if got_s[i] < best[s]:
                center[s] = poll[i]
                best[s] = float(got_s[i])
                improved[s] = True
                if evals[s] >= cfg.max_refine_evals:
                    stop[s] = False
            else:
                shrink(s)
        live = [s for s in live if stop[s] is None]
    return [(*center[s].tolist(), best[s], evals[s], stop[s]) for s in range(count)]
