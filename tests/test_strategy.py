import math
import random

import numpy as np
import pytest

from parkfield.field import FieldSet
from parkfield.geometry import Point2, Polygon, transform_polygon
from parkfield.scenario import (
    CabinContext,
    Rect,
    Scenario,
    VehicleFootprint,
    VehicleSpec,
    build_footprint,
    make_spot,
    spot_field_set,
)
from parkfield import strategy as strategy_module
from parkfield.solver import (
    GRID,
    MONTE_CARLO,
    ObjectiveEvaluator,
    Pose,
    SamplingPlan,
    ScoredLattice,
    SolveResult,
    SolverConfig,
    _local_field_set,
    _pose_lattice,
    minimize,
    objective,
)
from parkfield.strategy import (
    BACKWARDS,
    CENTERED,
    FORWARDS,
    MAX_BACK,
    MAX_LEFT,
    MAX_RIGHT,
    bias_drivers,
    rank_spots,
    round_strategy,
    spot_margins,
)

from conftest import SCENARIO_DIR, bench_module, load_golden, random_scenario


def standard_spot(spot_id="s"):
    return make_spot(
        spot_id,
        [Point2(0, 0), Point2(5, 0), Point2(5, 2.5), Point2(0, 2.5)],
        "x_max",
    )


def fake_result(x, y, theta, score=-1.0):
    return SolveResult(Pose(x, y, theta), score, 1, True)


BODY = VehicleFootprint(Rect(-2.1, 2.1, -0.9, 0.9))


# ---------------------------------------------------------------------------
# round_strategy
# ---------------------------------------------------------------------------


def test_centered_pose_rounds_centered():
    strategy = round_strategy(fake_result(2.5, 1.25, 0.0), standard_spot(), BODY)
    assert strategy.lateral_bias == CENTERED
    assert strategy.longitudinal_bias == CENTERED
    assert strategy.direction == FORWARDS


def test_rounding_is_idempotent_pure():
    result = fake_result(2.3, 1.0, 0.05)
    a = round_strategy(result, standard_spot(), BODY)
    b = round_strategy(result, standard_spot(), BODY)
    assert a == b


def test_backwards_left_back_phrase():
    # nose away from the x_max approach edge, footprint shifted toward
    # the right (low y) and the front (high x): space remains on the
    # left and at the back
    strategy = round_strategy(
        fake_result(2.8, 1.0, math.pi), standard_spot(), BODY
    )
    assert strategy.direction == BACKWARDS
    assert strategy.lateral_bias == MAX_LEFT
    assert strategy.longitudinal_bias == MAX_BACK
    assert "backwards" in strategy.explanation
    assert "left" in strategy.explanation
    assert "back" in strategy.explanation


def test_direction_follows_approach_side():
    spot_ymin = make_spot(
        "s", [Point2(0, 0), Point2(5, 0), Point2(5, 2.5), Point2(0, 2.5)], "y_min"
    )
    towards = round_strategy(
        fake_result(2.5, 1.25, -math.pi / 2 + 0.1), spot_ymin, BODY
    )
    away = round_strategy(
        fake_result(2.5, 1.25, math.pi / 2 - 0.1), spot_ymin, BODY
    )
    assert towards.direction == FORWARDS
    assert away.direction == BACKWARDS


def test_bias_uses_footprint_not_body_center():
    # body centered, but a deep left band makes the left margin smaller
    footprint = VehicleFootprint(
        Rect(-2.1, 2.1, -0.9, 0.9), ((Rect(-2.1, 2.1, 0.9, 1.6), "rear_left_door"),)
    )
    strategy = round_strategy(
        fake_result(2.5, 1.25, 0.0), standard_spot(), footprint
    )
    assert strategy.lateral_bias == MAX_RIGHT


def test_bias_soundness_on_goldens():
    for name in (
        "single_obstacle.json",
        "single_obstacle_baby.json",
        "two_obstacles.json",
        "adjacent_car.json",
    ):
        scenario = load_golden(name)
        ranked = rank_spots(scenario, explain=False)
        footprint = build_footprint(scenario.context, scenario.vehicle)
        spots = {s.id: s for s in scenario.spots}
        for strategy in ranked.strategies:
            margins = spot_margins(footprint, strategy.pose, spots[strategy.spot_id])
            if strategy.lateral_bias == MAX_LEFT:
                assert margins["left"] > margins["right"]
            elif strategy.lateral_bias == MAX_RIGHT:
                assert margins["right"] > margins["left"]
            if strategy.longitudinal_bias == MAX_BACK:
                assert margins["back"] > margins["front"]
            elif strategy.longitudinal_bias == "maximize_front":
                assert margins["front"] > margins["back"]


# ---------------------------------------------------------------------------
# rank_spots
# ---------------------------------------------------------------------------


def test_single_empty_spot_centered_strategy():
    ranked = rank_spots(load_golden("empty_spot.json"))
    assert len(ranked.strategies) == 1
    strategy = ranked.strategies[0]
    assert strategy.lateral_bias == CENTERED
    assert strategy.longitudinal_bias == CENTERED
    assert not ranked.infeasible


def test_obstructed_twin_ranks_second():
    spot_a = standard_spot("alpha")
    spot_b = make_spot(
        "beta",
        [Point2(0, 6), Point2(5, 6), Point2(5, 8.5), Point2(0, 8.5)],
        "x_max",
    )
    obstacle = Polygon(
        (Point2(0.2, 6.2), Point2(1.0, 6.2), Point2(1.0, 7.0), Point2(0.2, 7.0)),
        name="bin",
    )
    scenario = Scenario(
        (spot_a, spot_b), (obstacle,), CabinContext(), VehicleSpec()
    )
    ranked = rank_spots(scenario, explain=False)
    assert [s.spot_id for s in ranked.strategies] == ["alpha", "beta"]
    assert ranked.strategies[0].score < ranked.strategies[1].score


def test_flanked_spot_never_first():
    ranked = rank_spots(load_golden("three_spot_area.json"), explain=False)
    assert len(ranked.strategies) == 3
    assert ranked.strategies[0].spot_id != "spot_a"
    assert ranked.strategies[-1].spot_id == "spot_a"


def test_every_spot_accounted_for():
    spot_big = standard_spot("big")
    spot_small = make_spot(
        "small", [Point2(8, 0), Point2(11, 0), Point2(11, 1.5), Point2(8, 1.5)], "x_max"
    )
    scenario = Scenario((spot_big, spot_small), (), CabinContext(), VehicleSpec())
    ranked = rank_spots(scenario, explain=False)
    ids = [s.spot_id for s in ranked.strategies] + [sid for sid, _ in ranked.infeasible]
    assert sorted(ids) == ["big", "small"]
    assert ranked.infeasible[0][0] == "small"
    assert "does not fit" in ranked.infeasible[0][1]


def test_all_spots_infeasible_is_explicit():
    spot_small = make_spot(
        "small", [Point2(0, 0), Point2(3, 0), Point2(3, 1.5), Point2(0, 1.5)], "x_max"
    )
    scenario = Scenario((spot_small,), (), CabinContext(), VehicleSpec())
    ranked = rank_spots(scenario, explain=False)
    assert ranked.empty
    assert len(ranked.infeasible) == 1


def test_score_order_matches_reevaluation():
    ranked = rank_spots(load_golden("three_spot_area.json"), explain=False)
    scenario = load_golden("three_spot_area.json")
    footprint = build_footprint(scenario.context, scenario.vehicle)
    spots = {s.id: s for s in scenario.spots}
    recomputed = []
    for strategy in ranked.strategies:
        spot = spots[strategy.spot_id]
        fields = spot_field_set(
            spot, list(scenario.obstacles), reach=footprint.max_reach()
        )
        local = FieldSet(
            tuple(transform_polygon(spot.spot_frame, p) for p in fields.polygons)
        )
        value = objective(local, footprint, strategy.pose, SamplingPlan())
        assert value == pytest.approx(strategy.score, abs=1e-9)
        recomputed.append(value)
    assert recomputed == sorted(recomputed)


def test_baby_rectangle_drives_bias():
    scenario = load_golden("single_obstacle_baby.json")
    ranked = rank_spots(scenario)
    strategy = ranked.strategies[0]
    assert strategy.lateral_bias == MAX_LEFT
    assert "rear_right_door" in strategy.bias_drivers
    assert "rear_right_door" in strategy.explanation


def test_stats_reported_per_spot():
    ranked = rank_spots(load_golden("empty_spot.json"), explain=False)
    assert len(ranked.solve_stats) == 1
    spot_id, evaluations, converged = ranked.solve_stats[0]
    assert spot_id == "main"
    assert evaluations > 0
    assert converged is True


# ---------------------------------------------------------------------------
# bias_drivers: one coarse lattice per spot, the same answers
# ---------------------------------------------------------------------------


def independent_explain(fields, footprint, spot, base, plan, config):
    """Drivers and ablated results from one fresh ``minimize`` per label."""
    drivers = []
    results = []
    for label in footprint.labels():
        ablated = footprint.without(label)
        result = minimize(fields, ablated, spot, plan, config)
        results.append(result)
        rounded = round_strategy(result, spot, ablated)
        if (rounded.lateral_bias, rounded.longitudinal_bias) != (
            base.lateral_bias,
            base.longitudinal_bias,
        ):
            drivers.append(label)
    return tuple(drivers), results


def assert_explain_equivalent(monkeypatch, fields, footprint, spot, plan, config):
    """``bias_drivers`` and its re-solves, on a lattice shared with the base
    solve (as ``rank_spots`` runs them) and on one of the ablations alone,
    equal independent per-label solves; every shared score column is
    bit-identical to scoring its footprint alone."""
    ablations = [footprint.without(label) for label in footprint.labels()]
    base_result = minimize(fields, footprint, spot, plan, config)
    base = round_strategy(base_result, spot, footprint)
    expected, expected_results = independent_explain(fields, footprint, spot, base, plan, config)

    shared = ScoredLattice(fields, [footprint, *ablations], spot, plan, config)
    assert minimize(fields, footprint, spot, plan, config, coarse=shared) == base_result
    recorded = []

    def recording(*args, **kwargs):
        recorded.append(minimize(*args, **kwargs))
        return recorded[-1]

    with monkeypatch.context() as patch:
        patch.setattr(strategy_module, "minimize", recording)
        for coarse in (shared, ScoredLattice(fields, ablations, spot, plan, config)):
            recorded.clear()
            assert bias_drivers(fields, footprint, spot, base, plan, config, coarse) == expected
            assert recorded == expected_results

    lattice = _pose_lattice(spot, config.coarse_pitch, config.headings)
    local = _local_field_set(fields, spot)
    for fp in [footprint, *ablations]:
        alone = ObjectiveEvaluator(local, fp, plan, config.rect_weights).scores(lattice)
        assert np.array_equal(shared.column(fp)[2], alone)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_explain_equals_independent_resolves_on_goldens(monkeypatch, name):
    scenario = load_golden(name)
    footprint = build_footprint(scenario.context, scenario.vehicle)
    for spot in scenario.spots:
        fields = spot_field_set(spot, list(scenario.obstacles), reach=footprint.max_reach())
        assert_explain_equivalent(
            monkeypatch, fields, footprint, spot, SamplingPlan(), SolverConfig()
        )


def test_explain_equals_independent_resolves_on_random_scenarios(monkeypatch):
    rng = random.Random(55)
    plan = SamplingPlan(GRID, 25.0)
    for trial in range(20):
        spot, fields, footprint = random_scenario(rng, rects=1 + trial % 3)
        assert_explain_equivalent(monkeypatch, fields, footprint, spot, plan, SolverConfig())


def test_explain_equals_independent_resolves_with_monte_carlo_and_weights(monkeypatch):
    # Monte-carlo blocks are seeded by rectangle index, so an ablation
    # draws the rectangles after the removed one afresh.
    scenario = load_golden("single_obstacle_baby.json")
    footprint = build_footprint(scenario.context, scenario.vehicle)
    spot = scenario.spots[0]
    fields = spot_field_set(spot, list(scenario.obstacles), reach=footprint.max_reach())
    assert len(footprint.labels()) == 3
    weighted = SolverConfig(rect_weights={"rear_right_door": 0.0, "trunk": 2.5})
    for plan, config in (
        (SamplingPlan(MONTE_CARLO, 60.0, seed=4), SolverConfig()),
        (SamplingPlan(), weighted),
        (SamplingPlan(MONTE_CARLO, 40.0, seed=9), weighted),
    ):
        assert_explain_equivalent(monkeypatch, fields, footprint, spot, plan, config)
    rng = random.Random(56)
    for _ in range(4):
        spot, fields, footprint = random_scenario(rng, rects=3)
        assert_explain_equivalent(
            monkeypatch, fields, footprint, spot, SamplingPlan(MONTE_CARLO, 30.0, seed=2),
            SolverConfig(),
        )


def test_explain_scores_each_coarse_pose_once_per_spot(monkeypatch):
    # With explain on, the base solve and its 3 re-solves start from one
    # coarse pass: every lattice pose's samples reach the field set's
    # lattice entry once, not once per solve, and none reach the per-pose
    # kernel.
    scenario = load_golden("single_obstacle_baby.json")
    footprint = build_footprint(scenario.context, scenario.vehicle)
    assert len(footprint.labels()) == 3 and len(scenario.spots) == 1
    spot = scenario.spots[0]
    config = SolverConfig()
    lattice = set(map(tuple, _pose_lattice(spot, config.coarse_pitch, config.headings).tolist()))
    samples = ObjectiveEvaluator(spot_field_set(spot, []), footprint, SamplingPlan())._coords.shape[1]
    calls = []  # per scores call: [poses, lattice entry points, kernel points]
    scores = ObjectiveEvaluator.scores
    eval_many = FieldSet.eval_many
    eval_lattice = FieldSet.eval_lattice

    def counting_scores(self, poses):
        calls.append([list(map(tuple, np.asarray(poses).tolist())), 0, 0])
        return scores(self, poses)

    def counting_eval_lattice(self, x, y, xs, ys):
        if calls:
            calls[-1][1] += len(x) * len(xs) * len(ys)
        return eval_lattice(self, x, y, xs, ys)

    def counting_eval_many(self, x, y):
        if calls:
            calls[-1][2] += len(x)
        return eval_many(self, x, y)

    monkeypatch.setattr(ObjectiveEvaluator, "scores", counting_scores)
    monkeypatch.setattr(FieldSet, "eval_lattice", counting_eval_lattice)
    monkeypatch.setattr(FieldSet, "eval_many", counting_eval_many)
    ranked = rank_spots(scenario, explain=True)
    assert "rear_right_door" in ranked.strategies[0].bias_drivers
    hits = [pose for poses, _, _ in calls for pose in poses if pose in lattice]
    assert len(hits) == len(lattice) == len(set(hits))
    coarse = [points for poses, *points in calls if lattice & set(poses)]
    assert coarse == [[len(lattice) * samples, 0]]


@pytest.mark.parametrize("name", ["empty_spot.json", "mixed_obstacles.json"])
def test_benchmark_tracer_counts_kernel_points_from_the_x_row(name):
    # The benchmark's tracer reads a kernel call's point count as
    # ``len(args[1])`` of ``FieldSet.eval_many``, which is the x row.
    import parkfield.cli  # noqa: F401, the tracer wraps ``cli.main`` too

    tracing = bench_module("tracing")
    scenario = load_golden(name)
    footprint = build_footprint(scenario.context, scenario.vehicle)
    (spot,) = scenario.spots
    fields = spot_field_set(spot, list(scenario.obstacles), footprint.max_reach())
    samples = ObjectiveEvaluator(fields, footprint, SamplingPlan())._coords.shape[1]
    lines = sum(len(p.edges) for p in fields.polygons)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, input=name):
            rank_spots(scenario, explain=False)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics, _, _ = tracing.layer_metrics(tracer.spans, 0.0)
    poses = metrics["solver.poses_scored"]
    assert poses > 0
    # Every posed point of a general polygon passes the wrapped kernel,
    # through the general-only sub-set on a lattice; on an axis-only set
    # only the refinement polls do.
    if name == "mixed_obstacles.json":
        kernel_poses = poses
    else:
        kernel_poses = metrics["solver.refine.poses"]
        assert 0 < kernel_poses < poses
    assert metrics["solver.samples"] == kernel_poses * samples / poses
    assert metrics["field.eval.point_lines"] == kernel_poses * samples * lines
