import math
import random
import tracemalloc

import numpy as np
import pytest

from parkfield.errors import BudgetError, InfeasibleSpotError, ScenarioError
from parkfield.field import _BLOCK_POINTS, _TILE_POINTS, FieldSet
from parkfield.geometry import Point2, Polygon, RigidTransform, SPOT_EDGE, transform_polygon
from parkfield.scenario import (
    RECT_LABELS,
    Rect,
    VehicleFootprint,
    build_footprint,
    load_scenario,
    make_spot,
    spot_field_set,
)
from parkfield.solver import (
    GRID,
    MONTE_CARLO,
    ObjectiveEvaluator,
    Pose,
    SamplingPlan,
    SolverConfig,
    brute_force_minimize,
    minimize,
    objective,
)

from parkfield import solver
from parkfield.strategy import rank_spots

from conftest import (
    SCENARIO_DIR,
    bench_module,
    centroid,
    load_golden,
    random_scenario,
    scalar_tie_key,
    to_local,
    unblocked_scores,
)


def one_sided_edge(p, q):
    return Polygon((Point2(*p), Point2(*q)), kind=SPOT_EDGE)


def standard_spot():
    return make_spot(
        "s", [Point2(0, 0), Point2(5, 0), Point2(5, 2.5), Point2(0, 2.5)], "x_max"
    )


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_zero_area_rectangle_contributes_zero():
    fields = FieldSet((one_sided_edge((5, 0), (-5, 0)),))
    footprint = VehicleFootprint(Rect(0.0, 0.0, -0.5, 0.5))
    value = objective(fields, footprint, Pose(0, 0, 0), SamplingPlan())
    assert value == 0.0


def test_objective_matches_closed_form_integral():
    # field -y over the body square [0,1] x [2,3]: integral is -2.5 exactly
    fields = FieldSet((one_sided_edge((5, 0), (-5, 0)),))
    footprint = VehicleFootprint(Rect(-0.5, 0.5, -0.5, 0.5))
    value = objective(fields, footprint, Pose(0.5, 2.5, 0.0), SamplingPlan(GRID, 400.0))
    assert value == pytest.approx(-2.5, abs=0.01)


def test_objective_density_self_consistency():
    for name in ("single_obstacle.json", "adjacent_car.json"):
        scenario = load_golden(name)
        footprint = build_footprint(scenario.context, scenario.vehicle)
        spot = scenario.spots[0]
        fields = spot_field_set(spot, list(scenario.obstacles), reach=footprint.max_reach())
        local = FieldSet(
            tuple(transform_polygon(spot.spot_frame, p) for p in fields.polygons)
        )
        pose = Pose(spot.length / 2, spot.width / 2, 0.0)
        coarse = objective(local, footprint, pose, SamplingPlan(GRID, 100.0))
        fine = objective(local, footprint, pose, SamplingPlan(GRID, 400.0))
        assert abs(coarse - fine) / max(1.0, abs(fine)) < 0.02


def test_objective_monotone_under_added_obstacle():
    spot = standard_spot()
    footprint = VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))
    base = spot_field_set(spot, [])
    obstacle = Polygon(
        (Point2(0.2, 0.2), Point2(1.0, 0.2), Point2(1.0, 1.0), Point2(0.2, 1.0)),
        name="o",
    )
    more = spot_field_set(spot, [obstacle])
    rng = random.Random(5)
    for _ in range(20):
        pose = Pose(rng.uniform(0, 5), rng.uniform(0, 2.5), rng.uniform(-0.2, 0.2))
        assert objective(more, footprint, pose, SamplingPlan()) >= objective(
            base, footprint, pose, SamplingPlan()
        )


def test_objective_deterministic_per_mode():
    spot = standard_spot()
    fields = spot_field_set(spot, [])
    footprint = VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))
    pose = Pose(2.0, 1.0, 0.05)
    for plan in (SamplingPlan(GRID, 100.0), SamplingPlan(MONTE_CARLO, 32, 9)):
        a = objective(fields, footprint, pose, plan)
        b = objective(fields, footprint, pose, plan)
        assert a == b
    seeded_a = objective(fields, footprint, pose, SamplingPlan(MONTE_CARLO, 32, 1))
    seeded_b = objective(fields, footprint, pose, SamplingPlan(MONTE_CARLO, 32, 2))
    assert seeded_a != seeded_b


def test_rect_weights_hook():
    fields = FieldSet((one_sided_edge((5, 0), (-5, 0)),))
    footprint = VehicleFootprint(
        Rect(-0.5, 0.5, -0.5, 0.5),
        ((Rect(0.5, 1.0, -0.5, 0.5), "front_right_door"),),
    )
    pose = Pose(0.0, 2.5, 0.0)
    plan = SamplingPlan(GRID, 400.0)
    unweighted = objective(fields, footprint, pose, plan)
    weighted = objective(
        fields, footprint, pose, plan, rect_weights={"front_right_door": 0.0}
    )
    body_only = objective(
        fields, VehicleFootprint(Rect(-0.5, 0.5, -0.5, 0.5)), pose, plan
    )
    assert weighted == pytest.approx(body_only)
    assert unweighted != pytest.approx(body_only)


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan("jittered", 10.0)
    with pytest.raises(ValueError):
        SamplingPlan(GRID, 0.0)


def test_rect_weights_take_known_labels_and_non_negative_weights():
    for weights, path in (
        ({"bodyy": 1.0}, "rect_weights.bodyy"),
        ({"trunk": -0.5}, "rect_weights.trunk"),
    ):
        with pytest.raises(ScenarioError) as err:
            SolverConfig(rect_weights=weights)
        assert err.value.path == path
    SolverConfig(rect_weights={label: 0.0 for label in RECT_LABELS})


def test_footprint_sample_cap(body_only_footprint):
    spot = standard_spot()
    fields = spot_field_set(spot, [])
    for plan in (SamplingPlan(density=1e13), SamplingPlan(MONTE_CARLO, 2e6)):
        with pytest.raises(BudgetError, match="footprint samples"):
            minimize(fields, body_only_footprint, spot, plan)
    # The goldens' footprints stay far below the cap at the benchmark's
    # reference density.
    reference = SamplingPlan(density=2500.0)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scenario = load_scenario(path.read_text())
        footprint = build_footprint(scenario.context, scenario.vehicle)
        coords = ObjectiveEvaluator(fields, footprint, reference)._coords
        assert coords.shape[1] <= 31350 < solver.MAX_FOOTPRINT_SAMPLES


def perimeter_walk_samples(rect, count, seed, rect_index):
    """Reference for ``_mc_rect_samples``: the same draws placed one point
    at a time, as ``(N, 2)`` points."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, rect_index])
    n_edge = int(round(count * solver._MC_EDGE_FRACTION))
    w = rect.x_max - rect.x_min
    h = rect.y_max - rect.y_min
    pts = []
    if w + h > 0 and n_edge > 0:
        for d in rng.uniform(0.0, 2.0 * (w + h), n_edge):
            if d < w:
                pts.append((rect.x_min + d, rect.y_min))
            elif d < w + h:
                pts.append((rect.x_max, rect.y_min + (d - w)))
            elif d < 2 * w + h:
                pts.append((rect.x_max - (d - w - h), rect.y_max))
            else:
                pts.append((rect.x_min, rect.y_max - (d - 2 * w - h)))
    else:
        n_edge = 0
    xs = rng.uniform(rect.x_min, rect.x_max, count - n_edge)
    ys = rng.uniform(rect.y_min, rect.y_max, count - n_edge)
    pts.extend(zip(xs, ys))
    return np.array(pts).reshape(-1, 2)


def test_mc_samples_are_rows_of_the_perimeter_walk():
    rng = np.random.default_rng(8)
    for trial in range(300):
        x0, y0 = rng.uniform(-3, 3, 2)
        # Zero and tiny sides put draws on the walk's corners.
        w, h = rng.choice([0.0, 1e-9, 0.4, 1.8], 2) if trial % 3 else (0.0, 0.0)
        rect = Rect(x0, x0 + w, y0, y0 + h)
        for count in (1, 3, 4, 301):
            got = solver._mc_rect_samples(rect, count, trial, trial % 5)
            want = perimeter_walk_samples(rect, count, trial, trial % 5).T
            assert got.shape == want.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def test_empty_spot_body_only_centered(body_only_footprint):
    spot = standard_spot()
    fields = spot_field_set(spot, [])
    result = minimize(fields, body_only_footprint, spot)
    assert abs(result.pose.x_hat - 2.5) <= 0.01
    assert abs(result.pose.y_hat - 1.25) <= 0.01
    assert result.converged


def test_score_equals_reevaluated_objective():
    scenario = load_golden("single_obstacle.json")
    spot = scenario.spots[0]
    footprint = build_footprint(scenario.context, scenario.vehicle)
    fields = spot_field_set(spot, list(scenario.obstacles), reach=footprint.max_reach())
    result = minimize(fields, footprint, spot)
    local = FieldSet(
        tuple(transform_polygon(spot.spot_frame, p) for p in fields.polygons)
    )
    again = objective(local, footprint, result.pose, SamplingPlan())
    assert abs(again - result.score) <= 1e-9


def test_obstacle_pushes_pose_away(body_only_footprint):
    spot = standard_spot()
    empty = minimize(spot_field_set(spot, []), body_only_footprint, spot)
    obstacle = Polygon(
        (Point2(0.1, 0.1), Point2(0.8, 0.1), Point2(0.8, 0.8), Point2(0.1, 0.8)),
        name="bin",
    )
    blocked = minimize(spot_field_set(spot, [obstacle]), body_only_footprint, spot)
    center = to_local(spot, centroid(obstacle))
    d_blocked = math.hypot(
        blocked.pose.x_hat - center.x, blocked.pose.y_hat - center.y
    )
    d_empty = math.hypot(empty.pose.x_hat - center.x, empty.pose.y_hat - center.y)
    assert d_blocked > d_empty
    assert blocked.score > empty.score


def test_baby_rect_increases_push():
    base = load_golden("single_obstacle.json")
    baby = load_golden("single_obstacle_baby.json")
    spot = base.spots[0]
    fp_base = build_footprint(base.context, base.vehicle)
    fp_baby = build_footprint(baby.context, baby.vehicle)
    fields = spot_field_set(spot, list(base.obstacles), reach=fp_baby.max_reach())
    res_base = minimize(fields, fp_base, spot)
    res_baby = minimize(fields, fp_baby, spot)
    # obstacle sits on the low-y side; the baby adds clearance on that side
    assert res_baby.pose.y_hat - res_base.pose.y_hat > 0.05


def test_minimize_deterministic():
    spot, fields, footprint = random_scenario(random.Random(31))
    a = minimize(fields, footprint, spot)
    b = minimize(fields, footprint, spot)
    assert a == b


def test_infeasible_spot_raises():
    spot = make_spot(
        "tiny", [Point2(0, 0), Point2(3, 0), Point2(3, 1.5), Point2(0, 1.5)], "x_max"
    )
    footprint = VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))
    fields = spot_field_set(spot, [])
    with pytest.raises(InfeasibleSpotError) as err:
        minimize(fields, footprint, spot)
    assert "tiny" in str(err.value)
    assert "length over" in str(err.value)
    assert "width over" in str(err.value)


def test_crosswise_heading_makes_wide_spot_feasible():
    spot = make_spot(
        "wide", [Point2(0, 0), Point2(2.0, 0), Point2(2.0, 6.0), Point2(0, 6.0)], "y_min"
    )
    footprint = VehicleFootprint(Rect(-2.1, 2.1, -0.8, 0.8))
    fields = spot_field_set(spot, [])
    with pytest.raises(InfeasibleSpotError):
        minimize(fields, footprint, spot)
    config = SolverConfig(headings=(math.pi / 2, -math.pi / 2))
    result = minimize(fields, footprint, spot, config=config)
    assert abs(abs(result.pose.theta_hat) - math.pi / 2) < 0.2


def test_tie_break_prefers_zero_heading():
    spot = standard_spot()
    fields = spot_field_set(spot, [])
    footprint = VehicleFootprint(Rect(-1.0, 1.0, -0.5, 0.5))
    config = SolverConfig(
        step_init_ang=0.0, step_min_ang=0.0, theta_range=0.0
    )
    result = minimize(fields, footprint, spot, config=config)
    assert result.pose.theta_hat == pytest.approx(0.0)


def test_mirror_symmetry():
    spot = standard_spot()
    obstacle = Polygon(
        (Point2(0.2, 0.1), Point2(0.9, 0.1), Point2(0.9, 0.7), Point2(0.2, 0.7)),
        name="o",
    )
    mirrored_obstacle = Polygon(
        tuple(
            Point2(v.x, 2.5 - v.y) for v in reversed(obstacle.vertices)
        ),
        name="o",
    )
    footprint = VehicleFootprint(
        Rect(-2.1, 2.1, -0.9, 0.9),
        ((Rect(0, 2.1, 0.9, 1.5), "front_left_door"),),
    )
    mirrored_footprint = VehicleFootprint(
        Rect(-2.1, 2.1, -0.9, 0.9),
        ((Rect(0, 2.1, -1.5, -0.9), "front_right_door"),),
    )
    res = minimize(spot_field_set(spot, [obstacle]), footprint, spot)
    res_m = minimize(
        spot_field_set(spot, [mirrored_obstacle]), mirrored_footprint, spot
    )
    assert res_m.pose.x_hat == pytest.approx(res.pose.x_hat, abs=0.011)
    assert res_m.pose.y_hat == pytest.approx(2.5 - res.pose.y_hat, abs=0.011)
    assert res_m.score == pytest.approx(res.score, abs=1e-6)


def test_rigid_equivariance():
    rng = random.Random(17)
    spot, _, footprint = random_scenario(rng)
    obstacle_local = [(0.5, 0.4), (1.1, 0.4), (1.1, 1.0), (0.5, 1.0)]
    obstacle = Polygon(
        tuple(spot.to_global(Point2(x, y)) for x, y in obstacle_local), name="o"
    )
    base = minimize(
        spot_field_set(spot, [obstacle], reach=footprint.max_reach()), footprint, spot
    )

    from parkfield.geometry import RigidTransform, apply_transform

    motion = RigidTransform(0.7, 3.0, -2.0)
    moved_spot = make_spot(
        spot.id,
        [apply_transform(motion, c) for c in spot.corners],
        spot.approach_side,
    )
    moved_obstacle = transform_polygon(motion, obstacle)
    moved = minimize(
        spot_field_set(moved_spot, [moved_obstacle], reach=footprint.max_reach()),
        footprint,
        moved_spot,
    )
    assert moved.pose.x_hat == pytest.approx(base.pose.x_hat, abs=0.011)
    assert moved.pose.y_hat == pytest.approx(base.pose.y_hat, abs=0.011)
    assert moved.score == pytest.approx(base.score, abs=1e-9)


# ---------------------------------------------------------------------------
# brute_force_minimize
# ---------------------------------------------------------------------------


def test_oracle_centered_on_symmetric_spot(body_only_footprint):
    spot = standard_spot()
    fields = spot_field_set(spot, [])
    result = brute_force_minimize(
        fields, body_only_footprint, spot, resolution=0.05
    )
    assert result.pose.x_hat == pytest.approx(2.5, abs=0.05)
    assert result.pose.y_hat == pytest.approx(1.25, abs=0.05)


def test_minimize_beats_oracle_lattice():
    rng = random.Random(99)
    plan = SamplingPlan(GRID, 25.0)
    for _ in range(10):
        spot, fields, footprint = random_scenario(rng)
        fast = minimize(fields, footprint, spot, plan)
        slow = brute_force_minimize(fields, footprint, spot, plan, resolution=0.1)
        assert fast.score <= slow.score + 1e-6


def test_oracle_monotone_under_added_obstacle(body_only_footprint):
    spot = standard_spot()
    obstacle = Polygon(
        (Point2(0.3, 0.3), Point2(1.0, 0.3), Point2(1.0, 1.0), Point2(0.3, 1.0)),
        name="o",
    )
    plan = SamplingPlan(GRID, 25.0)
    without = brute_force_minimize(
        spot_field_set(spot, []), body_only_footprint, spot, plan, resolution=0.1
    )
    with_obstacle = brute_force_minimize(
        spot_field_set(spot, [obstacle]), body_only_footprint, spot, plan, resolution=0.1
    )
    assert with_obstacle.score >= without.score


def test_oracle_budget():
    spot = standard_spot()
    fields = spot_field_set(spot, [])
    footprint = VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))
    with pytest.raises(BudgetError):
        brute_force_minimize(fields, footprint, spot, resolution=0.001)


def test_evaluator_batch_matches_scalar():
    spot, fields, footprint = random_scenario(random.Random(2))
    local = FieldSet(
        tuple(transform_polygon(spot.spot_frame, p) for p in fields.polygons)
    )
    evaluator = ObjectiveEvaluator(local, footprint, SamplingPlan())
    poses = np.array([[1.0, 1.0, 0.0], [2.0, 0.5, 0.1], [0.5, 1.5, math.pi]])
    batch = evaluator.scores(poses)
    singles = [objective(local, footprint, Pose(*p), SamplingPlan()) for p in poses]
    assert batch == pytest.approx(singles, abs=1e-12)


def golden_evaluator(name, plan=SamplingPlan()):
    spot, local, footprint = golden_local(name)
    return spot, local, ObjectiveEvaluator(local, footprint, plan)


def golden_local(name):
    """First spot, its spot-local field set and the footprint of a golden."""
    scenario = load_golden(name)
    footprint = build_footprint(scenario.context, scenario.vehicle)
    spot = scenario.spots[0]
    fields = spot_field_set(spot, list(scenario.obstacles), reach=footprint.max_reach())
    local = FieldSet(
        tuple(transform_polygon(spot.spot_frame, p) for p in fields.polygons)
    )
    return spot, local, footprint


def random_poses(rng, spot, count):
    return np.column_stack([
        rng.uniform(0.0, spot.length, count),
        rng.uniform(0.0, spot.width, count),
        rng.uniform(-math.pi, math.pi, count),
    ])


def test_scores_bitwise_equal_unblocked_across_pose_blocks():
    spot, local, evaluator = golden_evaluator("mixed_obstacles.json")
    per_block = _BLOCK_POINTS // evaluator._coords.shape[1]
    rng = np.random.default_rng(5)
    for count in (1, per_block - 1, per_block, per_block + 1, 2 * per_block + 3):
        poses = random_poses(rng, spot, count)
        assert np.array_equal(
            evaluator.scores(poses), unblocked_scores(local, evaluator, poses)
        ), count
        # Repeated headings, grouped across block boundaries.
        poses[:, 2] = rng.choice([0.0, 0.05, -0.05, math.pi, 1.0], count)
        assert_scores_exact(local, evaluator, poses)


def assert_scores_exact(local, evaluator, poses):
    """``scores`` bit-identical to the unblocked oracle, on a fresh call and
    on a repeat that reads the evaluator's cached rotations."""
    want = unblocked_scores(local, evaluator, poses)
    assert np.array_equal(evaluator.scores(poses), want)
    assert np.array_equal(evaluator.scores(poses), want)


def test_scores_exact_on_a_whole_coarse_lattice():
    spot, local, evaluator = golden_evaluator("mixed_obstacles.json")
    # Every heading repeats hundreds of times, interleaved pose by pose.
    lattice = solver._pose_lattice(spot, 0.25, (0.0, math.pi, -0.3))
    assert_scores_exact(local, evaluator, lattice)


def test_scores_exact_on_compass_polls():
    spot, local, evaluator = golden_evaluator("mixed_obstacles.json")
    # At heading 0 the +-step headings share their cosine.
    for center in ((2.5, 1.25, 0.0), (1.0, 0.7, 3.1)):
        for step_p, step_a in ((0.25, 0.05), (0.01, 0.005)):
            poll = np.array(center) + np.array(solver._poll_directions(step_p, step_a))
            assert_scores_exact(local, evaluator, poll)


def test_scores_exact_for_negative_zero_heading():
    spot, local, evaluator = golden_evaluator("mixed_obstacles.json")
    poses = np.array([[2.0, 1.0, 0.0], [2.0, 1.0, -0.0], [2.1, 1.2, -0.0], [2.1, 1.2, 0.0]])
    assert_scores_exact(local, evaluator, poses)
    # One heading per call, each asked after the other one is cached.
    for pose in (poses[0:1], poses[1:2], poses[3:4], poses[2:3]):
        assert_scores_exact(local, evaluator, pose)


def test_union_scores_exact_per_footprint():
    spot, local, footprint = golden_local("loaded_family_context.json")
    footprints = [footprint] + [footprint.without(lb) for lb in footprint.labels()]
    rng = np.random.default_rng(9)
    poses = solver._pose_lattice(spot, 0.5, (0.0, math.pi))
    poses = np.concatenate([poses, random_poses(rng, spot, 40)])
    for plan in (SamplingPlan(), SamplingPlan(MONTE_CARLO, 150.0, 4)):
        union = ObjectiveEvaluator(local, footprints, plan)
        columns = union.scores(poses)
        assert columns.shape == (len(footprints), len(poses))
        for fp, column in zip(footprints, columns):
            own = ObjectiveEvaluator(local, fp, plan)
            assert np.array_equal(column, unblocked_scores(local, own, poses))
            shared = ObjectiveEvaluator(local, fp, plan, shared=union)
            assert np.array_equal(shared._coords, own._coords)
            assert np.array_equal(shared.scores(poses), column)


def test_scores_exact_with_monte_carlo_plan():
    # 301 samples per rectangle: a pose block's point count is not a
    # multiple of 4, where the kernel's BLAS products take their tail path.
    plan = SamplingPlan(MONTE_CARLO, 301.0, 7)
    spot, local, evaluator = golden_evaluator("mixed_obstacles.json", plan)
    assert evaluator._coords.shape[1] % 4
    poses = solver._pose_lattice(spot, 0.25, (0.0, math.pi))
    assert_scores_exact(local, evaluator, poses)
    for count in (1, 3, 5, 37):
        assert_scores_exact(local, evaluator, poses[::-1][:count])


def test_scores_memory_bounded_for_large_batches(lattice_calls):
    spot, _, evaluator = golden_evaluator("mixed_obstacles.json")
    assert evaluator._coords.shape[1] == 936
    # ~19M sample points: one unblocked float64 temporary alone is 150 MB.
    # The lattice of a 12 m x 2.5 m spot at pitch 0.05 is 241 x 51 poses
    # per heading, ~23M points, through the lattice path.
    long_spot = make_spot(
        "long", [Point2(0, 0), Point2(12, 0), Point2(12, 2.5), Point2(0, 2.5)], "x_min"
    )
    batches = [
        random_poses(np.random.default_rng(6), spot, 20_000),
        solver._pose_lattice(long_spot, 0.05, (0.0, math.pi)),
    ]
    for poses, lattice_points in zip(batches, (0, len(batches[1]) * 936)):
        tracemalloc.start()
        try:
            scores = evaluator.scores(poses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (len(poses),) and np.all(np.isfinite(scores))
        assert peak < 32 * 2**20
        assert sum(call.points for call in lattice_calls) == lattice_points
        lattice_calls.clear()


# ---------------------------------------------------------------------------
# lattice path
# ---------------------------------------------------------------------------


class LatticeCall:
    """One ``FieldSet.eval_lattice`` call: its arguments and its tiles."""

    def __init__(self, x, xs, ys):
        self.points = len(x) * len(xs) * len(ys)
        self.xs, self.ys = xs.copy(), ys.copy()
        self.tiles = []  # (j, k, tx, ty) per tile


@pytest.fixture
def lattice_calls(monkeypatch):
    calls = []
    eval_lattice = FieldSet.eval_lattice

    def recording(self, x, y, xs, ys):
        call = LatticeCall(x, xs, ys)
        calls.append(call)
        for j, k, values in eval_lattice(self, x, y, xs, ys):
            call.tiles.append((j, k) + values.shape[:2])
            yield j, k, values

    monkeypatch.setattr(FieldSet, "eval_lattice", recording)
    return calls


def lattice_field_set():
    """Spot-frame field set of every kind the lattice path tells apart: the
    four edges of a 5 m x 2.5 m spot (two lines of x only, two of y only),
    an upright box, a general triangle and a line 1e-13 rad off the x axis
    across the spot, each the largest term somewhere under the footprint."""
    corners = [(0.0, 0.0), (5.0, 0.0), (5.0, 2.5), (0.0, 2.5)]
    # Clockwise, so each edge's field is negative inside the spot.
    edges = [one_sided_edge(corners[i], corners[i - 1]) for i in range(4)]
    box = Polygon(tuple(Point2(x, y) for x, y in ((1.0, 0.6), (1.8, 0.6), (1.8, 1.3), (1.0, 1.3))))
    triangle = Polygon((Point2(3.4, 0.3), Point2(4.4, 0.5), Point2(3.9, 1.2)))
    # Positive above y = 2.
    tilted = transform_polygon(
        RigidTransform(-1e-13, 0.0, 0.0), one_sided_edge((-3.0, 2.0), (8.0, 2.0))
    )
    fields = FieldSet(edges + [box, triangle, tilted])
    assert [axis is not None for axis, _, _ in fields._lines] == [True] * 5 + [False] * 2
    assert (len(fields._single[0]), len(fields._single[1]), len(fields._boxes)) == (2, 2, 1)
    return fields


LATTICE_FOOTPRINT = VehicleFootprint(
    Rect(-2.1, 2.1, -0.9, 0.9),
    ((Rect(0.0, 2.1, 0.9, 1.5), "front_left_door"), (Rect(-2.6, -2.1, -0.9, 0.9), "trunk")),
)


def assert_lattice_exact(fields, evaluator, poses, calls, cells):
    """``scores`` bit-identical to the unblocked oracle, on a fresh call and
    on a repeat, with the samples of ``cells`` distinct (x, y) translations
    through the lattice entry each time."""
    want = unblocked_scores(fields, evaluator, poses)
    m = evaluator._coords.shape[1]
    for _ in range(2):
        calls.clear()
        assert np.array_equal(evaluator.scores(poses), want)
        assert sum(call.points for call in calls) == cells * m


def test_lattice_scores_exact_on_a_whole_pose_lattice(lattice_calls):
    fields = lattice_field_set()
    evaluator = ObjectiveEvaluator(fields, LATTICE_FOOTPRINT, SamplingPlan())
    poses = solver._pose_lattice(standard_spot(), 0.25, (0.0, math.pi, -0.3))
    assert_lattice_exact(fields, evaluator, poses, lattice_calls, len(poses))
    assert [(len(c.xs), len(c.ys)) for c in lattice_calls] == [(21, 11)] * 3


@pytest.mark.parametrize("nx, ny", [(51, 10), (5, 40)])
def test_lattice_scores_exact_across_tiles(lattice_calls, nx, ny):
    fields = lattice_field_set()
    evaluator = ObjectiveEvaluator(fields, LATTICE_FOOTPRINT, SamplingPlan())
    m = evaluator._coords.shape[1]
    gx, gy = np.meshgrid(np.linspace(0.0, 5.0, nx), np.linspace(0.0, 2.5, ny), indexing="ij")
    poses = np.column_stack([gx.ravel(), gy.ravel(), np.full(nx * ny, 0.3)])
    assert_lattice_exact(fields, evaluator, poses, lattice_calls, len(poses))
    (call,) = lattice_calls
    # Tiles cover the grid once, each within the tile budget, and span
    # several x tiles and several y tiles (51 x 10), or y tiles of several
    # rows (5 x 40).
    covered = np.zeros((nx, ny), dtype=int)
    for j, k, tx, ty in call.tiles:
        covered[j : j + tx, k : k + ty] += 1
        assert tx * ty * m <= max(_TILE_POINTS, m)
    assert np.all(covered == 1)
    assert len({t[1] for t in call.tiles}) > 1
    if nx > ny:
        assert len({t[0] for t in call.tiles}) > 1
    else:
        assert max(t[3] for t in call.tiles) > 1


def test_lattice_scores_exact_with_repeated_translations(lattice_calls):
    fields = lattice_field_set()
    evaluator = ObjectiveEvaluator(fields, LATTICE_FOOTPRINT, SamplingPlan())
    xs = np.array([-0.0, 0.0, 0.25, 1.0, 1.7, 2.5, 3.0, 3.3, 4.0, 4.6, 5.0, 2.2])
    ys = np.array([0.0, -0.0, 0.4, 0.9, 1.25, 1.9, 2.5, 2.1])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, math.pi)])
    rng = np.random.default_rng(12)
    # Every pose twice, shuffled, and a poll's worth at another heading
    # that keeps the per-pose path.
    poll = np.column_stack([grid[:9, :2], np.full(9, 0.1)])
    poses = rng.permutation(np.concatenate([grid, grid, poll]))
    assert_lattice_exact(fields, evaluator, poses, lattice_calls, len(grid))
    # Each translation is its own row, -0.0 apart from 0.0.
    (call,) = lattice_calls
    for got, want in ((call.xs, xs), (call.ys, ys)):
        assert sorted(got.view(np.int64).tolist()) == sorted(want.view(np.int64).tolist())


def test_lattice_union_scores_exact_per_footprint(lattice_calls):
    fields = lattice_field_set()
    footprints = [LATTICE_FOOTPRINT] + [
        LATTICE_FOOTPRINT.without(label) for label in LATTICE_FOOTPRINT.labels()
    ]
    poses = solver._pose_lattice(standard_spot(), 0.25, (0.0, math.pi))
    for plan in (SamplingPlan(), SamplingPlan(MONTE_CARLO, 150.0, 4)):
        union = ObjectiveEvaluator(fields, footprints, plan)
        lattice_calls.clear()
        columns = union.scores(poses)
        assert sum(c.points for c in lattice_calls) == len(poses) * union._coords.shape[1]
        for fp, column in zip(footprints, columns):
            own = ObjectiveEvaluator(fields, fp, plan)
            assert np.array_equal(column, unblocked_scores(fields, own, poses))
            shared = ObjectiveEvaluator(fields, fp, plan, shared=union)
            assert np.array_equal(shared.scores(poses), column)


def test_lattice_path_skips_polls_and_general_only_sets(lattice_calls):
    fields = lattice_field_set()
    evaluator = ObjectiveEvaluator(fields, LATTICE_FOOTPRINT, SamplingPlan())
    # 63 poses of one heading: too few for the lattice check.
    gx, gy = np.meshgrid(np.linspace(0.0, 5.0, 9), np.linspace(0.0, 2.5, 7), indexing="ij")
    few = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    assert_lattice_exact(fields, evaluator, few, lattice_calls, 0)
    # Scattered poses: as many distinct x and y as poses.
    rng = np.random.default_rng(4)
    scattered = random_poses(rng, standard_spot(), 400)
    scattered[:, 2] = 0.0
    assert_lattice_exact(fields, evaluator, scattered, lattice_calls, 0)
    # A set of general polygons only has no axis lines to share.
    general = FieldSet(fields.polygons[5:])
    poses = solver._pose_lattice(standard_spot(), 0.25, (0.0,))
    own = ObjectiveEvaluator(general, LATTICE_FOOTPRINT, SamplingPlan())
    assert_lattice_exact(general, own, poses, lattice_calls, 0)


def test_oracle_tie_break_matches_per_pose_key_loop():
    # Far from the short edges of a long empty spot the field under a
    # heading-0 body depends on y alone, so many lattice poses tie exactly.
    spot = make_spot(
        "long", [Point2(0, 0), Point2(12, 0), Point2(12, 2.5), Point2(0, 2.5)], "x_min"
    )
    fields = spot_field_set(spot, [])
    footprint = VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))
    plan = SamplingPlan(GRID, 25.0)
    config = SolverConfig()
    result = brute_force_minimize(fields, footprint, spot, plan, resolution=0.1)

    local = FieldSet(
        tuple(transform_polygon(spot.spot_frame, p) for p in fields.polygons)
    )
    xs = np.linspace(0.0, spot.length, 121)
    ys = np.linspace(0.0, spot.width, 26)
    gx, gy, gt = np.meshgrid(xs, ys, np.array(config.headings), indexing="ij")
    poses = np.column_stack([gx.ravel(), gy.ravel(), gt.ravel()])
    scores = ObjectiveEvaluator(local, footprint, plan).scores(poses)
    assert np.count_nonzero(scores == scores.min()) >= 10
    best_key = None
    for j in range(len(poses)):
        key = scalar_tie_key(float(scores[j]), poses[j, 0], poses[j, 1], poses[j, 2], config, spot)
        if best_key is None or key < best_key:
            best_key = key
            best = (float(scores[j]), poses[j, 0], poses[j, 1], poses[j, 2])
    assert result.evaluations == len(poses)
    assert (result.score, result.pose) == (best[0], Pose(best[1], best[2], best[3]))


@pytest.mark.parametrize("side", ["x_min", "x_max", "y_min", "y_max"])
def test_tie_order_equals_sorting_by_the_scalar_key(side):
    # Few distinct values per column force ties on every key, and headings
    # on both sides of +-pi exercise the angle wrap.
    spot = make_spot(
        "s", [Point2(0, 0), Point2(5, 0), Point2(5, 2.5), Point2(0, 2.5)], side
    )
    near_pi = [math.pi, -math.pi, math.pi - 1e-12, -math.pi + 1e-12, 3.1, -3.1]
    thetas = np.array(near_pi + [0.0, 1e-15, -1e-15, 0.05, 2 * math.pi, -0.17])
    rng = np.random.default_rng(["x_min", "x_max", "y_min", "y_max"].index(side))
    configs = (
        SolverConfig(),
        SolverConfig(headings=(math.pi / 2,)),
        SolverConfig(headings=(-math.pi + 0.01, 3.0, 0.2)),
    )
    for config in configs:
        for _ in range(10):
            n = int(rng.integers(1, 300))
            poses = np.column_stack([
                rng.choice([0.0, 1.25, 2.5, 5.0], n),
                rng.choice([0.0, 0.75, 2.5], n),
                rng.choice(thetas, n),
            ])
            scores = rng.choice([-1.5, -1.5 + 1e-15, 0.0, 2.0], n)
            order = solver._tie_order(scores, poses, config, spot)
            expected = sorted(
                range(n),
                key=lambda i: scalar_tie_key(
                    float(scores[i]), poses[i, 0], poses[i, 1], poses[i, 2], config, spot
                ),
            )
            assert order.tolist() == expected


# ---------------------------------------------------------------------------
# per-solve score memo
# ---------------------------------------------------------------------------


@pytest.fixture
def scored_poses(monkeypatch):
    """Every pose each ``ObjectiveEvaluator`` instance scored, in order.

    One ``minimize`` builds one evaluator, so an instance's list is one
    solve's traffic to the field kernel.
    """
    seen = {}
    original = ObjectiveEvaluator.scores

    def recording(self, poses):
        seen.setdefault(self, []).extend(map(tuple, np.asarray(poses).tolist()))
        return original(self, poses)

    monkeypatch.setattr(ObjectiveEvaluator, "scores", recording)
    return seen


def assert_no_pose_scored_twice(seen):
    assert seen
    for poses in seen.values():
        assert len(poses) == len(set(poses))


def test_no_pose_scored_twice_per_solve_on_goldens(scored_poses):
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        rank_spots(load_scenario(path.read_text()), explain=True)
    assert_no_pose_scored_twice(scored_poses)


def test_no_pose_scored_twice_per_solve_on_a_lot(scored_poses):
    ranked = rank_spots(load_scenario(bench_module("lot").generate_lot(3)), explain=False)
    assert len(ranked.strategies) == 2
    assert_no_pose_scored_twice(scored_poses)


def no_memo(evaluator, memo, probes):
    return evaluator.scores(np.array(probes)).tolist()


@pytest.fixture
def checked_memo(monkeypatch):
    """Asserts that each poll's memo answers equal a fresh evaluation."""
    original = solver._memo_scores

    def checked(evaluator, memo, probes):
        scores = original(evaluator, memo, probes)
        assert scores == no_memo(evaluator, memo, probes)
        return scores

    monkeypatch.setattr(solver, "_memo_scores", checked)


def test_memo_answers_equal_fresh_scores_on_goldens(checked_memo):
    # The golden spots are 5 m x 2.5 m, whole multiples of the coarse pitch,
    # so refinement probes land on coarse nodes and read their memo scores.
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        rank_spots(load_scenario(path.read_text()), explain=True)


@pytest.mark.parametrize("max_refine_evals", [4000, 30])
def test_memo_leaves_every_solve_result_unchanged(
    monkeypatch, checked_memo, max_refine_evals
):
    rng = random.Random(31)
    plan = SamplingPlan(GRID, 25.0)
    config = SolverConfig(max_refine_evals=max_refine_evals)
    cases = [random_scenario(rng) for _ in range(20)]
    with_memo = [minimize(f, fp, spot, plan, config) for spot, f, fp in cases]
    monkeypatch.setattr(solver, "_memo_scores", no_memo)
    without = [minimize(f, fp, spot, plan, config) for spot, f, fp in cases]
    assert with_memo == without
    if max_refine_evals == 30:
        assert not any(result.converged for result in with_memo)
