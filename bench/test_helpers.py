"""Self-test of the benchmark's own helpers.

    python3 -m pytest -q bench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lot  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _nested():
    # op [0, 100]: a [10, 40] and b [30, 60] overlap, c [70, 120] runs past
    # the end of the op; a has one child d [15, 25].
    return [
        Span("op", 0, 100, parent=-1, op=0),
        Span("solver.a", 10, 40, parent=0, op=0),
        Span("solver.b", 30, 60, parent=0, op=0),
        Span("field.c", 70, 120, parent=0, op=0),
        Span("field.d", 15, 25, parent=1, op=0),
    ]


def test_self_time_subtracts_union_of_children():
    selfs = tracing.self_times(_nested())
    # op: 100 minus the union [10, 60] + [70, 100] = 100 - 80
    assert selfs == [20, 20, 30, 50, 10]


def test_self_times_of_nested_sequential_spans_sum_to_the_operation():
    spans = [
        Span("op", 0, 1000, parent=-1, op=7),
        Span("cli.main", 5, 990, parent=0, op=7),
        Span("strategy.rank_spots", 20, 900, parent=1, op=7),
        Span("solver.minimize", 30, 500, parent=2, op=7),
        Span("solver.scores", 40, 200, parent=3, op=7, attrs={"poses": 462}),
        Span("field.eval_many", 50, 190, parent=4, op=7,
             attrs={"points": 462 * 10, "lines": 5, "polygons": 2}),
        Span("solver.scores", 210, 300, parent=3, op=7, attrs={"poses": 18}),
        Span("strategy.bias_drivers", 510, 890, parent=2, op=7, attrs={"drivers": 1}),
        Span("solver.minimize", 520, 880, parent=7, op=7, attrs={"converged": True}),
    ]
    assert sum(tracing.self_times(spans)) == 1000
    metrics, mismatch, rows = tracing.layer_metrics(spans, per_span_ns=0.0)
    assert mismatch == 0
    layers = sum(metrics[layer + ".layer_self_ms"] for layer in tracing.LAYERS)
    assert abs(layers + metrics["trace.unattributed_ms"] - metrics["trace.op_ms"]) < 1e-12
    assert metrics["solver.coarse.poses"] == 462
    assert metrics["solver.refine.poses"] == 18
    assert metrics["solver.refine.polls"] == 1
    assert metrics["strategy.explain.resolves"] == 1
    assert metrics["strategy.explain.useful_ratio"] == 1.0
    assert metrics["field.eval.point_lines"] == 462 * 10 * 5
    assert metrics["solver.samples"] == 4620 / 480
    assert set(metrics) | {"cli.import_ms"} == set(tracing.UNITS)
    [row] = rows
    assert row["ops"] == 1 and row["minimize_per_op"] == 2
    assert row["coarse_poses_per_minimize"] == 231
    assert row["poses_per_minimize"] == 240
    assert row["explain_share"] == metrics["strategy.explain.share"] == 380 / 1000


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 28)]  # 27 samples, shuffled below
    values = values[13:] + values[:13]
    value, pct, n = stats.tail(values)
    assert n == 27
    assert sum(1 for v in values if v > value) == 10
    assert value == 17.0
    assert abs(pct - 100.0 * 17 / 27) < 1e-12


def test_tail_of_few_samples_is_the_maximum():
    for count in (1, 9, 20):
        value, pct, n = stats.tail([float(v) for v in range(count)])
        assert (value, pct, n) == (count - 1, 100.0, count)
    value, _pct, _n = stats.tail([float(v) for v in range(21)])
    assert value == 10.0


def test_lot_generator_is_deterministic():
    assert lot.generate_lot(12345) == lot.generate_lot(12345)
    assert lot.generate_lot(1) != lot.generate_lot(2)
    data = json.loads(lot.generate_lot(7))
    assert len(data["spots"]) == 2


def test_every_lot_spot_keeps_four_cars_and_one_pillar():
    from parkfield import build_footprint, load_scenario, spot_field_set
    from parkfield.geometry import OBSTACLE

    for seed in range(8):
        scenario = load_scenario(lot.generate_lot(seed))
        reach = build_footprint(scenario.context, scenario.vehicle).max_reach()
        for spot in scenario.spots:
            kept = [
                p for p in spot_field_set(spot, list(scenario.obstacles), reach).polygons
                if p.kind == OBSTACLE
            ]
            assert sorted(len(p.edges) for p in kept) == [4, 4, 4, 4, 6]


def test_normalize_report_blanks_only_wall_time():
    report = b'{\n  "stats": [],\n  "wall_time_s": 0.123456\n}\n'
    assert stats.normalize_report(report) == b'{\n  "stats": [],\n  "wall_time_s": <wall>\n}\n'
    line = b'{"kind": "summary", "wall_time_s": 1.5e-05}\n'
    assert stats.normalize_report(line) == b'{"kind": "summary", "wall_time_s": <wall>}\n'


def test_tracer_wraps_where_bound_and_restores():
    import parkfield
    from parkfield import cli, scenario, strategy

    original = scenario.spot_field_set
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert strategy.spot_field_set is not original
        assert cli.spot_field_set is strategy.spot_field_set
        text = open(os.path.join(os.path.dirname(HERE), "scenarios", "empty_spot.json")).read()
        parkfield.load_scenario(text)  # outside an operation: no span
        assert tracer.spans == []
        with tracer.operation(0, input="empty_spot"):
            parkfield.load_scenario(text)
    finally:
        tracer.uninstall()
    assert strategy.spot_field_set is original and cli.spot_field_set is original
    assert tracer.missing == []
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("op", -1),
        ("scenario.load_scenario", 0),
    ]
