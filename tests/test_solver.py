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
    _local_field_set,
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
    SolveResult,
    SolverConfig,
    brute_force_minimize,
    minimize,
    objective,
)

from parkfield import cli, solver
from parkfield.strategy import rank_spots

from conftest import (
    SCENARIO_DIR,
    assert_column_keeps_the_starts,
    bench_module,
    centroid,
    full_scan_minimize,
    load_golden,
    numpy_compass_refine,
    on_axis_path,
    pose_lattice,
    random_scenario,
    scalar_tie_key,
    to_local,
    unblocked_scores,
    unpruned_local_set,
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


def test_both_solvers_return_python_floats():
    # Not numpy scalars, which a float check lets through: they print as
    # ``np.float64(...)`` in a pose's repr.
    spot, fields, footprint = random_scenario(random.Random(5))
    plan = SamplingPlan(GRID, 25.0)
    for result in (
        minimize(fields, footprint, spot, plan),
        brute_force_minimize(fields, footprint, spot, plan, resolution=0.1),
    ):
        values = (result.pose.x_hat, result.pose.y_hat, result.pose.theta_hat, result.score)
        assert [type(v) for v in values] == [float] * 4


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


def assert_scores_exact(local, evaluator, poses, axes=None):
    """``scores`` bit-identical to the unblocked oracle, on a fresh call and
    on a repeat that reads the evaluator's cached rotations."""
    want = unblocked_scores(local, evaluator, poses)
    assert np.array_equal(evaluator.scores(poses, axes), want)
    assert np.array_equal(evaluator.scores(poses, axes), want)


def test_scores_exact_on_a_whole_coarse_lattice():
    spot, local, evaluator = golden_evaluator("mixed_obstacles.json")
    # Every heading repeats hundreds of times, interleaved pose by pose.
    lattice, _ = pose_lattice(spot, 0.25, (0.0, math.pi, -0.3))
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
    poses, _ = pose_lattice(spot, 0.5, (0.0, math.pi))
    poses = np.concatenate([poses, random_poses(rng, spot, 40)])
    for plan in (SamplingPlan(), SamplingPlan(MONTE_CARLO, 150.0, 4)):
        union = ObjectiveEvaluator(local, footprints, plan)
        columns = union.scores(poses)
        assert columns.shape == (len(footprints), len(poses))
        for fp, column in zip(footprints, columns):
            own = ObjectiveEvaluator(local, fp, plan)
            assert np.array_equal(column, unblocked_scores(local, own, poses))
            assert np.array_equal(own.scores(poses), column)


def test_scores_exact_with_monte_carlo_plan():
    # 301 samples per rectangle: a pose block's point count is not a
    # multiple of 4, so the kernel's vector loops end in a tail.
    plan = SamplingPlan(MONTE_CARLO, 301.0, 7)
    spot, local, evaluator = golden_evaluator("mixed_obstacles.json", plan)
    assert evaluator._coords.shape[1] % 4
    poses, axes = pose_lattice(spot, 0.25, (0.0, math.pi))
    assert_scores_exact(local, evaluator, poses, axes)
    for count in (1, 3, 5, 37):
        assert_scores_exact(local, evaluator, poses[::-1][:count])


def test_scores_memory_bounded_for_large_batches(lattice_calls):
    spot, local, evaluator = golden_evaluator("mixed_obstacles.json")
    assert evaluator._coords.shape[1] == 936
    # ~19M sample points: one unblocked float64 temporary alone is 150 MB.
    # The lattice of a 12 m x 2.5 m spot at pitch 0.05 is 241 x 51 poses
    # per heading, ~23M points, through the lattice path.
    long_spot = make_spot(
        "long", [Point2(0, 0), Point2(12, 0), Point2(12, 2.5), Point2(0, 2.5)], "x_min"
    )
    lattice, axes = pose_lattice(long_spot, 0.05, (0.0, math.pi))
    # 512 headings over a 2 x 2 lattice, through the lattice entry and then
    # pose by pose: both entries rotate through one cache, which holds
    # under two blocks' worth of headings whatever their number.
    headings = tuple(np.linspace(-math.pi, math.pi, 512, endpoint=False).tolist())
    small, small_axes = pose_lattice(spot, max(spot.length, spot.width), headings)
    assert len(small) == 4 * 512
    batches = [
        (random_poses(np.random.default_rng(6), spot, 20_000), None, 0),
        (lattice, axes, len(lattice) * 936),
        (small, small_axes, len(small) * 936),
        (small, None, 0),
    ]
    for poses, axes, lattice_points in batches:
        tracemalloc.start()
        try:
            scores = evaluator.scores(poses, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (len(poses),) and np.all(np.isfinite(scores))
        assert peak < 32 * 2**20
        assert sum(call.points for call in lattice_calls) == lattice_points
        assert len(evaluator._rows) < 2 * (_BLOCK_POINTS // 936)
        lattice_calls.clear()
        if poses is small:
            want = [unblocked_scores(local, evaluator, rows) for rows in np.array_split(small, 16)]
            assert scores.tobytes() == np.concatenate(want).tobytes()


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
    assert on_axis_path(fields) == [True] * 5 + [False] * 2
    assert (len(fields._single[0]), len(fields._single[1]), len(fields._boxes)) == (2, 2, 1)
    return fields


LATTICE_FOOTPRINT = VehicleFootprint(
    Rect(-2.1, 2.1, -0.9, 0.9),
    ((Rect(0.0, 2.1, 0.9, 1.5), "front_left_door"), (Rect(-2.6, -2.1, -0.9, 0.9), "trunk")),
)


# Poses of LATTICE_FOOTPRINT's default samples that one lattice tile holds.
TILE_POSES = _TILE_POINTS // sum(
    math.prod(shape) for _, _, shape, _ in solver._sample_layout(LATTICE_FOOTPRINT, SamplingPlan())
)


def grid_poses(xs, ys, headings):
    """``pose_lattice``'s rows and axes over the given axes."""
    axes = tuple(np.array(axis, dtype=float) for axis in (xs, ys, headings))
    gx, gy, gt = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gt.ravel()]), axes


def assert_lattice_exact(fields, evaluator, poses, axes, calls):
    """``scores`` through the declared ``axes`` bit-identical to the
    unblocked oracle, on a fresh call and on a repeat, with the samples of
    every pose through the lattice entry each time."""
    want = unblocked_scores(fields, evaluator, poses)
    m = evaluator._coords.shape[1]
    for _ in range(2):
        calls.clear()
        assert np.array_equal(evaluator.scores(poses, axes), want)
        assert sum(call.points for call in calls) == len(poses) * m


def test_lattice_scores_exact_on_a_whole_pose_lattice(lattice_calls):
    fields = lattice_field_set()
    evaluator = ObjectiveEvaluator(fields, LATTICE_FOOTPRINT, SamplingPlan())
    poses, axes = pose_lattice(standard_spot(), 0.25, (0.0, math.pi, -0.3))
    assert_lattice_exact(fields, evaluator, poses, axes, lattice_calls)
    assert [(len(c.xs), len(c.ys)) for c in lattice_calls] == [(21, 11)] * 3


@pytest.mark.parametrize("nx, ny", [(TILE_POSES + 1, 10), (5, 40)])
def test_lattice_scores_exact_across_tiles(lattice_calls, nx, ny):
    fields = lattice_field_set()
    evaluator = ObjectiveEvaluator(fields, LATTICE_FOOTPRINT, SamplingPlan())
    m = evaluator._coords.shape[1]
    poses, axes = grid_poses(np.linspace(0.0, 5.0, nx), np.linspace(0.0, 2.5, ny), [0.3])
    assert_lattice_exact(fields, evaluator, poses, axes, lattice_calls)
    (call,) = lattice_calls
    # Tiles cover the grid once, each within the tile budget, and span
    # several x tiles and several y tiles (one x more than a tile holds, by
    # 10 y), or y tiles of several rows (5 x 40).
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
    # Unsorted translations, with -0.0 beside 0.0.
    xs = np.array([-0.0, 0.0, 0.25, 1.0, 1.7, 2.5, 3.0, 3.3, 4.0, 4.6, 5.0, 2.2])
    ys = np.array([0.0, -0.0, 0.4, 0.9, 1.25, 1.9, 2.5, 2.1])
    poses, axes = grid_poses(xs, ys, [math.pi])
    assert_lattice_exact(fields, evaluator, poses, axes, lattice_calls)
    # Each translation is its own row, -0.0 apart from 0.0.
    (call,) = lattice_calls
    for got, want in ((call.xs, xs), (call.ys, ys)):
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_lattice_union_scores_exact_per_footprint(lattice_calls):
    fields = lattice_field_set()
    footprints = [LATTICE_FOOTPRINT] + [
        LATTICE_FOOTPRINT.without(label) for label in LATTICE_FOOTPRINT.labels()
    ]
    poses, axes = pose_lattice(standard_spot(), 0.25, (0.0, math.pi))
    for plan in (SamplingPlan(), SamplingPlan(MONTE_CARLO, 150.0, 4)):
        union = ObjectiveEvaluator(fields, footprints, plan)
        lattice_calls.clear()
        columns = union.scores(poses, axes)
        assert sum(c.points for c in lattice_calls) == len(poses) * union._coords.shape[1]
        for fp, column in zip(footprints, columns):
            own = ObjectiveEvaluator(fields, fp, plan)
            assert np.array_equal(column, unblocked_scores(fields, own, poses))
            assert np.array_equal(own.scores(poses, axes), column)


def test_node_scores_equal_the_per_pose_path(lattice_calls):
    # Random nodes of random lattices at the headings 0.0, -0.0 and pi,
    # through ``scores(rows, axes, nodes=...)``, against the same rows pose
    # by pose: on an axis-only set, one with a box, one with general
    # polygons and a general-only one; alone and as a union with the
    # ablations; under grid and monte-carlo plans.  Neither entry reaches
    # the lattice entry.
    full = lattice_field_set()
    sets = [FieldSet(full.polygons[:k]) for k in (4, 5)] + [full, FieldSet(full.polygons[5:])]
    ablations = [LATTICE_FOOTPRINT.without(label) for label in LATTICE_FOOTPRINT.labels()]
    rng = np.random.default_rng(14)
    headings = np.array([0.0, -0.0, math.pi])
    for fields in sets:
        depth, budget = fields._depth, fields._tile_points
        for plan in (SamplingPlan(), SamplingPlan(MONTE_CARLO, 150.0, 4)):
            for footprints in ([LATTICE_FOOTPRINT], [LATTICE_FOOTPRINT, *ablations]):
                evaluator = ObjectiveEvaluator(fields, footprints, plan)
                m = evaluator._coords.shape[1]
                for nx, ny, share in ((1, 1, 1.0), (7, 5, rng.random()), (120, 40, 0.5)):
                    xs = np.sort(rng.uniform(0.0, 5.0, nx))
                    ys = np.sort(rng.uniform(0.0, 2.5, ny))
                    axes = (xs, ys, headings)
                    size = nx * ny * len(headings)
                    flat = rng.choice(size, max(1, int(share * size)), replace=False)
                    nodes = np.unravel_index(flat, (nx, ny, len(headings)))
                    rows = solver._node_rows(axes, nodes)
                    got = evaluator.scores(rows, axes, nodes=nodes)
                    assert got.tobytes() == evaluator.scores(rows).tobytes(), (nx, ny)
                    if nx == 120 and any(depth):
                        # More distinct shifts at one heading than one
                        # tile's side rows hold.
                        i, j, k = nodes
                        shifts = [len(np.unique(index[k == 0])) for index in (i, j)]
                        assert (depth[0] * shifts[0] + depth[1] * shifts[1]) * m > budget
    assert lattice_calls == []


def test_lattice_path_skips_polls_and_general_only_sets(lattice_calls):
    fields = lattice_field_set()
    evaluator = ObjectiveEvaluator(fields, LATTICE_FOOTPRINT, SamplingPlan())
    # Poses given without axes keep the per-pose path, however regular:
    # 63 poses of one heading on a grid, and scattered poses with as many
    # distinct x and y as poses.
    gx, gy = np.meshgrid(np.linspace(0.0, 5.0, 9), np.linspace(0.0, 2.5, 7), indexing="ij")
    few = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    scattered = random_poses(np.random.default_rng(4), standard_spot(), 400)
    scattered[:, 2] = 0.0
    for poses in (few, scattered):
        want = unblocked_scores(fields, evaluator, poses)
        for _ in range(2):
            lattice_calls.clear()
            assert np.array_equal(evaluator.scores(poses), want)
            assert lattice_calls == []
    # A set of general polygons only takes the lattice entry too, which
    # runs its products on each tile's posed points; a repeated heading is
    # scored once per copy.
    general = FieldSet(fields.polygons[5:])
    poses, axes = pose_lattice(standard_spot(), 0.25, (0.0, 0.0))
    own = ObjectiveEvaluator(general, LATTICE_FOOTPRINT, SamplingPlan())
    assert_lattice_exact(general, own, poses, axes, lattice_calls)
    assert len(lattice_calls) == 2


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


def full_scan_scores(fields, footprint, spot, plan, resolution, config=SolverConfig()):
    """``(poses, scores)`` of every pose of the ``resolution`` lattice,
    scored through the lattice entry over ``unpruned_local_set``, for one
    footprint or, as ``(F, P)`` scores, a sequence of them."""
    poses, axes = pose_lattice(spot, resolution, config.headings)
    local = unpruned_local_set(fields, spot)
    evaluator = ObjectiveEvaluator(local, footprint, plan, config.rect_weights)
    return poses, evaluator.scores(poses, axes)


def full_scan(fields, footprint, spot, plan, resolution, config=SolverConfig()):
    """The oracle's result from every lattice pose's score, the tied poses
    in ``_tie_order``."""
    poses, scores = full_scan_scores(fields, footprint, spot, plan, resolution, config)
    tied = np.flatnonzero(scores == scores.min())
    best = tied[solver._tie_order(scores[tied], poses[tied], config, spot)[0]]
    return SolveResult(Pose(*poses[best].tolist()), float(scores[best]), len(poses), True)


def result_bits(result):
    pose = result.pose
    floats = (pose.x_hat, pose.y_hat, pose.theta_hat, result.score)
    return [v.hex() for v in floats] + [result.evaluations, result.converged]


def golden_spots():
    """``(name, spot, fields, footprint)`` of every spot of every golden."""
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scenario = load_scenario(path.read_text())
        footprint = build_footprint(scenario.context, scenario.vehicle)
        for spot in scenario.spots:
            fields = spot_field_set(spot, list(scenario.obstacles), reach=footprint.max_reach())
            yield path.stem, spot, fields, footprint


@pytest.mark.parametrize("resolution", [0.1, 0.05])
def test_oracle_equals_the_full_scan_on_every_golden(resolution):
    for name, spot, fields, footprint in golden_spots():
        for plan in (SamplingPlan(), SamplingPlan(MONTE_CARLO, 24, 4)):
            want = full_scan(fields, footprint, spot, plan, resolution)
            got = brute_force_minimize(fields, footprint, spot, plan, resolution)
            assert result_bits(got) == result_bits(want), (name, spot.id, plan.mode)


def random_oracle_case(rng):
    """A random scene, plan, config and pitch: grid or monte-carlo
    sampling, some rectangle weights zero, sometimes a third heading."""
    spot, fields, footprint = random_scenario(rng, rects=rng.randint(0, 3))
    if rng.random() < 0.5:
        plan = SamplingPlan(GRID, rng.choice([9.0, 25.0, 60.0]))
    else:
        plan = SamplingPlan(MONTE_CARLO, rng.randint(1, 40), rng.randint(0, 9))
    headings = (0.0, math.pi) + ((rng.uniform(-math.pi, math.pi),) if rng.random() < 0.5 else ())
    labels = [label for _, label in footprint.maneuver_rects]
    weights = {label: rng.choice([0.0, 1.0, 3.0]) for label in ["body"] + labels}
    config = SolverConfig(headings=headings, rect_weights=weights)
    return spot, fields, footprint, plan, config, rng.choice([0.25, 0.1, 0.07, 0.05, 0.03])


def test_oracle_equals_the_full_scan_on_random_scenes():
    rng = random.Random(17)
    for trial in range(60):
        spot, fields, footprint, plan, config, resolution = random_oracle_case(rng)
        want = full_scan(fields, footprint, spot, plan, resolution, config)
        got = brute_force_minimize(fields, footprint, spot, plan, resolution, config)
        assert result_bits(got) == result_bits(want), trial


def test_oracle_bounds_hold_and_rule_out_most_nodes():
    # Every node the search leaves unscored scores at least its bound less
    # the slack in a full scan, and every scored node holds its full-scan
    # bits.  A union scan, at the coarse stage's stride of at least 2, holds
    # the same per footprint.  Its footprints are the one-rectangle
    # ablations and then the whole footprint, whose Lipschitz constant and
    # slack are the largest, so a scan that gave every footprint the first
    # one's fails.
    rng = random.Random(23)
    goldens = [
        (spot, f, fp, SamplingPlan(), SolverConfig(), 0.05) for _, spot, f, fp in golden_spots()
    ]
    singles = goldens + [random_oracle_case(rng) for _ in range(30)]
    coarse = [random_coarse_case(rng) for _ in range(12)]
    unions = goldens + [(*case, case[-1].coarse_pitch) for case in coarse]
    scored_share = []
    for k, case in enumerate(singles + unions):
        spot, fields, footprint, plan, config, resolution = case
        union = k >= len(singles)
        footprints = (footprint,)
        if union:
            footprints = (*map(footprint.without, footprint.labels()), footprint)
        _, full = full_scan_scores(fields, footprints, spot, plan, resolution, config)
        axes = solver._lattice_axes(spot, resolution, config.headings)
        local = _local_field_set(fields, spot, max(fp.max_reach() for fp in footprints))
        evaluator = ObjectiveEvaluator(local, footprints, plan, config.rect_weights)
        stride = solver._oracle_stride(resolution, axes)
        if union:
            stride = max(2, stride)
        values, scored, slack = solver._bounded_scan(evaluator, axes, stride, solver._lowest_score)
        full = full.reshape(values.shape)
        assert full[:, scored].tobytes() == values[:, scored].tobytes(), k
        assert np.all(full[:, ~scored] >= values[:, ~scored] - slack[:, None]), k
        # A union never narrows a footprint's slack below its scan alone's.
        levels = stride.bit_length() - 1
        for fp, own in zip(footprints, slack):
            alone = ObjectiveEvaluator(local, fp, plan, config.rect_weights)
            assert own >= solver._bound_slack(alone, axes, levels)[1][0], k
        scored_share.append(scored.mean())
    # The goldens at the CLI's default pitch score about an eighth of their
    # nodes.
    assert max(scored_share[: len(goldens)]) < 0.25


# ---------------------------------------------------------------------------
# bounded coarse stage
# ---------------------------------------------------------------------------


def test_minimize_equals_the_full_scan_coarse_stage_on_every_golden():
    for name, spot, fields, footprint in golden_spots():
        want = full_scan_minimize(fields, footprint, spot)
        assert result_bits(minimize(fields, footprint, spot)) == result_bits(want), (name, spot.id)


def random_coarse_case(rng):
    """A random scene, plan and config for the coarse stage: grid or
    monte-carlo sampling, rectangle weights of 0, 1 or 3, sometimes a third
    heading or a repeated one, from 1 start to more than the lattice can
    give, and a coarse pitch of 0.25, 0.1 or 0.05 m."""
    spot, fields, footprint = random_scenario(rng, rects=rng.randint(0, 3))
    if rng.random() < 0.5:
        plan = SamplingPlan(GRID, rng.choice([9.0, 25.0]))
    else:
        plan = SamplingPlan(MONTE_CARLO, rng.randint(1, 30), rng.randint(0, 9))
    extra = rng.choice([(), (rng.uniform(-math.pi, math.pi),), (0.0,)])
    weights = {label: rng.choice([0.0, 1.0, 3.0]) for label in ["body"] + footprint.labels()}
    pitch = rng.choice([0.25, 0.1, 0.05])
    starts, budget = rng.choice([1, 2, 3, 5, 12]), 4000
    if pitch == 0.25 and rng.random() < 0.3:
        # More starts than the lattice has nodes, each refined briefly.
        starts, budget = 10**4, 30
    config = SolverConfig(
        coarse_pitch=pitch,
        starts=starts,
        headings=(0.0, math.pi) + extra,
        max_refine_evals=budget,
        rect_weights=weights,
    )
    return spot, fields, footprint, plan, config


def test_minimize_equals_the_full_scan_coarse_stage_on_random_scenes():
    # Alone, and scanned together with its ablations as the explained
    # solves are, each footprint's solve keeps the bits of scoring its
    # whole coarse lattice.
    rng = random.Random(61)
    scans = {"bounded": 0, "whole": 0}
    for trial in range(60):
        spot, fields, footprint, plan, config = random_coarse_case(rng)
        footprints = [footprint, *(footprint.without(label) for label in footprint.labels())]
        shared = solver.ScoredLattice(fields, footprints, spot, plan, config)
        for fp in footprints:
            want = result_bits(full_scan_minimize(fields, fp, spot, plan, config))
            if fp is footprint:
                assert result_bits(minimize(fields, fp, spot, plan, config)) == want, trial
            got = minimize(fields, fp, spot, plan, config, coarse=shared)
            assert result_bits(got) == want, (trial, fp.labels())
            assert_column_keeps_the_starts(fields, fp, spot, plan, config, shared.column(fp))
        _, nodes, poses, _, _ = shared.column(footprint)
        scans["whole" if len(poses) == nodes else "bounded"] += 1
    # Most scans leave nodes unscored; too many starts, or a zero
    # objective, score the whole lattice.
    assert scans["bounded"] > 30 and scans["whole"] > 5


def test_oracle_first_stride_keeps_the_pinned_pitch_a_full_scan():
    axes = solver._lattice_axes(standard_spot(), 0.25, (0.0,))
    strides = {p: solver._oracle_stride(p, axes) for p in (0.25, 0.1, 0.05, 0.01)}
    assert strides == {0.25: 1, 0.1: 2, 0.05: 4, 0.01: 16}
    # Never past the span that leaves only the axis ends.
    assert solver._oracle_stride(1e-6, axes) == 32


def test_oracle_memory_holds_no_pose_rows():
    # 251,502 lattice poses; a full scan's pose rows alone took 48 bytes
    # each, the search's score-or-bound grid and scored mask take 9.
    scenario = load_golden("single_obstacle_baby.json")
    footprint = build_footprint(scenario.context, scenario.vehicle)
    spot = scenario.spots[0]
    fields = spot_field_set(spot, list(scenario.obstacles), reach=footprint.max_reach())
    tracemalloc.start()
    try:
        result = brute_force_minimize(fields, footprint, spot, SamplingPlan(), 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations == 251502
    assert peak < 24 * result.evaluations


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

    def recording(self, poses, *args, **kwargs):
        seen.setdefault(self, []).extend(map(tuple, np.asarray(poses).tolist()))
        return original(self, poses, *args, **kwargs)

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


# ---------------------------------------------------------------------------
# lockstep refinement
# ---------------------------------------------------------------------------


def per_start_poll_directions(step_p, step_a):
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


def per_start_refine(evaluator, memo, start, score, theta_center, cfg, spot, budget):
    """The compass loop of one start, run to its end on its own, with one
    ``_memo_scores`` call per poll: the reference for lockstep refinement."""
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
            for dx, dy, da in per_start_poll_directions(step_p, step_a):
                px = min(max(x + dx, 0.0), spot.length)
                py = min(max(y + dy, 0.0), spot.width)
                pt = min(max(theta + da, theta_lo), theta_hi)
                if (px, py, pt) != (x, y, theta):
                    probes.append((px, py, pt))
            if probes:
                scores = solver._memo_scores(evaluator, memo, probes)
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


def per_start_compass_refine(evaluator, memo, starts, scores, cfg, spot):
    return [
        per_start_refine(evaluator, memo, tuple(start), score, start[2], cfg, spot, cfg.max_refine_evals)
        for start, score in zip(np.asarray(starts).tolist(), np.asarray(scores).tolist())
    ]


# At 40 starts a refinement round scores over a hundred poses of one
# heading, all of them pose by pose.
@pytest.mark.parametrize(
    "max_refine_evals, starts, count",
    [(4000, 3, 20), (30, 3, 20), (4000, 40, 3)],
    ids=["4000", "30", "4000-starts40"],
)
def test_lockstep_refinement_equals_the_per_start_loop(
    monkeypatch, scored_poses, max_refine_evals, starts, count
):
    rng = random.Random(47)
    plan = SamplingPlan(GRID, 25.0)
    config = SolverConfig(max_refine_evals=max_refine_evals, starts=starts)
    cases = [random_scenario(rng) for _ in range(count)]
    lattice = sum(len(pose_lattice(spot, 0.25, config.headings)[0]) for spot, _, _ in cases)
    calls = []  # poses each ``_memo_scores`` call sent to the evaluator
    scans = []  # per coarse scan: poses sent to the evaluator, nodes scored, nodes
    memo_scores = solver._memo_scores
    bounded_scan = solver._bounded_scan

    def counting(evaluator, memo, probes):
        before = len(memo)
        scores = memo_scores(evaluator, memo, probes)
        calls.append(len(memo) - before)
        return scores

    def counting_scan(*args):
        before = sum(map(len, scored_poses.values()))
        values, scored, slack = bounded_scan(*args)
        sent = sum(map(len, scored_poses.values())) - before
        scans.append((sent, int(scored.sum()), scored.size))
        return values, scored, slack

    monkeypatch.setattr(solver, "_memo_scores", counting)
    monkeypatch.setattr(solver, "_bounded_scan", counting_scan)

    def solve_all():
        scored_poses.clear()
        calls.clear()
        scans.clear()
        results = [minimize(f, fp, spot, plan, config) for spot, f, fp in cases]
        scored = [set(poses) for poses in scored_poses.values()]
        # Each coarse scan sent each node it scored once, and every pose past
        # the coarse scan reached the evaluator through ``_memo_scores``.
        assert all(sent == nodes for sent, nodes, _ in scans)
        assert sum(size for _, _, size in scans) == lattice
        coarse = sum(sent for sent, _, _ in scans)
        assert sum(map(len, scored_poses.values())) == coarse + sum(calls)
        return results, scored, len(calls)

    lockstep, lockstep_scored, rounds = solve_all()
    monkeypatch.setattr(solver, "_compass_refine", per_start_compass_refine)
    per_start, per_start_scored, polls = solve_all()
    assert lockstep == per_start
    assert lockstep_scored == per_start_scored
    assert 0 < rounds < polls
    if max_refine_evals == 30:
        assert not any(result.converged for result in lockstep)


# ---------------------------------------------------------------------------
# the plain-float poll
# ---------------------------------------------------------------------------


def float_bits(value):
    """``value`` with every float as its hex form, so ``-0.0`` differs from
    ``0.0`` and a changed last bit shows."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(float_bits(v) for v in value)
    return value


@pytest.fixture
def checked_poll(monkeypatch):
    """Runs every ``_compass_refine`` call against ``numpy_compass_refine``
    on a copy of its memo: equal results, memo contents in the same order
    and equal ``_memo_scores`` batches, bit for bit.  Returns the list of
    each checked call's round count."""
    batches = []
    memo_scores = solver._memo_scores
    compass_refine = solver._compass_refine
    rounds = []

    def recording(evaluator, memo, probes):
        batches.append(float_bits(list(probes)))
        return memo_scores(evaluator, memo, probes)

    def both(evaluator, memo, starts, scores, cfg, spot):
        want_memo = dict(memo)
        batches.clear()
        want = numpy_compass_refine(evaluator, want_memo, starts, scores, cfg, spot)
        want_batches = batches[:]
        batches.clear()
        got = compass_refine(evaluator, memo, starts, scores, cfg, spot)
        assert float_bits(got) == float_bits(want)
        assert float_bits(list(memo.items())) == float_bits(list(want_memo.items()))
        assert batches == want_batches
        rounds.append(len(batches))
        return got

    monkeypatch.setattr(solver, "_memo_scores", recording)
    monkeypatch.setattr(solver, "_compass_refine", both)
    return rounds


@pytest.mark.parametrize(
    "max_refine_evals, starts", [(4000, 3), (30, 3), (4000, 40)], ids=["4000", "30", "starts40"]
)
def test_the_float_poll_equals_the_numpy_poll_on_random_scenes(
    checked_poll, max_refine_evals, starts
):
    rng = random.Random(53)
    plan = SamplingPlan(GRID, 25.0)
    config = SolverConfig(max_refine_evals=max_refine_evals, starts=starts)
    cases = [random_scenario(rng, rects=3) for _ in range(8 if starts == 3 else 2)]
    results = [minimize(f, fp, spot, plan, config) for spot, f, fp in cases]
    assert checked_poll and all(checked_poll)
    if max_refine_evals == 30:
        assert not any(result.converged for result in results)


def test_the_float_poll_equals_the_numpy_poll_on_lots(checked_poll):
    generate_lot = bench_module("lot").generate_lot
    for seed in range(4):
        rank_spots(load_scenario(generate_lot(seed)), explain=False)
    assert len(checked_poll) == 8


def test_the_float_poll_equals_the_numpy_poll_at_the_box_and_window_ends(checked_poll):
    spot = standard_spot()
    fields = _local_field_set(spot_field_set(spot, [], reach=3.0), spot, 3.0)
    footprint = VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))
    evaluator = ObjectiveEvaluator(fields, footprint, SamplingPlan(GRID, 25.0))
    # Corners, edge midpoints and the centre, at headings on the wrap (pi
    # and the largest double below it), at zero of either sign and at 0.1.
    starts = [
        (x, y, theta)
        for x in (0.0, 2.5, 5.0)
        for y in (0.0, 1.25, 2.5)
        for theta in (math.pi, math.nextafter(math.pi, 0.0), 0.0, -0.0, 0.1)
    ]
    scores = evaluator.scores(np.array(starts)).tolist()
    configs = [
        SolverConfig(),
        SolverConfig(max_refine_evals=30),
        # A zero window: both of its ends are the start's heading, and
        # every angle move clamps back onto one of them.
        SolverConfig(theta_range=0.0),
        # Zero angle steps: the angle moves are signed zeros.
        SolverConfig(step_init_ang=0.0, step_min_ang=0.0),
        # Both: a signed-zero move lands on a window end of a zero heading.
        SolverConfig(theta_range=0.0, step_init_ang=0.0, step_min_ang=0.0),
        # Steps over the box: every position move clamps to an edge.
        SolverConfig(step_init_pos=8.0, theta_range=0.01),
        # A zero window and position steps that round away at the finer
        # step pairs: a start stalls there, and moves again on its next
        # pass, while others poll.
        SolverConfig(step_init_pos=1e-15, step_min_pos=1e-17, theta_range=0.0, max_refine_evals=300),
    ]
    for config in configs:
        memo = dict(zip(map(tuple, starts), scores))
        solver._compass_refine(evaluator, memo, starts, scores, config, spot)
    assert len(checked_poll) == len(configs) and all(checked_poll)


# ---------------------------------------------------------------------------
# unbuffered solves
# ---------------------------------------------------------------------------


def solve_outputs(capsys):
    """Normalized ``cli solve`` and ``cli oracle --resolution 0.25`` reports
    of every golden, and the reprs of ``rank_spots`` on lots 0-7."""
    normalize_report = bench_module("stats").normalize_report
    generate_lot = bench_module("lot").generate_lot
    reports = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        for args in (["solve"], ["oracle", "--resolution", "0.25"]):
            assert cli.main([args[0], str(path), *args[1:]]) == 0
            reports.append(normalize_report(capsys.readouterr().out.encode("utf-8")))
    lots = []
    for seed in range(8):
        ranked = rank_spots(load_scenario(generate_lot(seed)), explain=False)
        lots.append(repr((ranked.strategies, ranked.infeasible, ranked.solve_stats)))
    return reports, lots


def test_the_solve_buffer_size_moves_no_bit(monkeypatch, capsys):
    chosen = solve_outputs(capsys)
    # numpy's default, and the smallest multiple of 16.
    for bufsize in (8192, 16):
        monkeypatch.setattr(solver, "_BUFSIZE", bufsize)
        assert solve_outputs(capsys) == chosen, bufsize


def buffered(bufsize, call):
    with np.errstate():
        np.setbufsize(bufsize)
        return call()


def test_evaluator_scores_keep_their_bits_at_any_buffer_size():
    fields = lattice_field_set()
    sets = {
        "axis-only": FieldSet(fields.polygons[:5]),
        "general-only": FieldSet(fields.polygons[5:]),
        "mixed": fields,
    }
    assert on_axis_path(sets["axis-only"]) == [True] * 5
    assert on_axis_path(sets["general-only"]) == [False] * 2
    footprints = [LATTICE_FOOTPRINT] + [LATTICE_FOOTPRINT.without(lb) for lb in LATTICE_FOOTPRINT.labels()]
    spot = standard_spot()
    rng = np.random.default_rng(23)
    poses = random_poses(rng, spot, 150)
    # Runs of repeated headings, across pose blocks.
    poses[::2, 2] = rng.choice([0.0, -0.0, 0.05, math.pi], 75)
    lattice, axes = pose_lattice(spot, 0.25, (0.0, math.pi, -0.3))
    for name, local in sets.items():
        for footprint in (LATTICE_FOOTPRINT, footprints):
            for args in ((poses,), (lattice, axes)):

                def call():
                    evaluator = ObjectiveEvaluator(local, footprint, SamplingPlan())
                    return evaluator.scores(*args)

                small, large = buffered(16, call), buffered(8192, call)
                assert np.array_equal(small.view(np.int64), large.view(np.int64)), name


def test_the_solves_scope_the_buffer_size(monkeypatch):
    spot = standard_spot()
    fields = spot_field_set(spot, [], reach=3.0)
    footprint = VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))
    plan = SamplingPlan(GRID, 25.0)
    inside = []  # (buffer size, error modes) seen inside a solve
    compass_refine = solver._compass_refine
    bounded_scan = solver._bounded_scan

    def seen(fn):
        def wrapper(*args):
            inside.append((np.getbufsize(), np.geterr()))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(solver, "_compass_refine", seen(compass_refine))
    monkeypatch.setattr(solver, "_bounded_scan", seen(bounded_scan))
    with np.errstate(over="raise", under="warn"):
        np.setbufsize(4096)
        modes = np.geterr()
        minimize(fields, footprint, spot, plan)
        brute_force_minimize(fields, footprint, spot, plan, resolution=0.25)
        with pytest.raises(InfeasibleSpotError):
            minimize(fields, VehicleFootprint(Rect(-3.0, 3.0, -0.9, 0.9)), spot, plan)
        with pytest.raises(BudgetError):
            brute_force_minimize(fields, footprint, spot, plan, resolution=1e-4)
        with pytest.raises(BudgetError):
            minimize(fields, footprint, spot, plan, SolverConfig(coarse_pitch=1e-4))
        assert np.getbufsize() == 4096
        assert np.geterr() == modes
    # The first solve's scan and refinement, and the oracle's scan.
    assert inside == [(solver._BUFSIZE, modes)] * 3
