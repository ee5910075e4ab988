import contextlib
import functools
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BENCH_DIR, SCENARIO_DIR, bench_module

from parkfield import cli, solver
from parkfield.geometry import Point2, Polygon, transform_polygon
from parkfield.scenario import (
    _domination_clip,
    _local_field_set,
    _spot_edge_polygons,
    build_footprint,
    load_scenario,
    make_spot_from_center,
    spot_field_set,
)

CLI = [sys.executable, "-m", "parkfield.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, **kwargs
    )


def scenario(name):
    return SCENARIO_DIR / name


def parse_report(stdout: str) -> dict:
    return json.loads(stdout)


def test_validate_ok():
    proc = run_cli("validate", scenario("empty_spot.json"))
    assert proc.returncode == 0
    assert "1 spot(s)" in proc.stdout


def test_solve_report_schema():
    proc = run_cli("solve", scenario("empty_spot.json"))
    assert proc.returncode == 0
    report = parse_report(proc.stdout)
    assert report["report_version"] == 1
    assert report["scenario_digest"].startswith("sha256:")
    assert report["config"]["sampling"]["mode"] == "grid"
    assert report["config"]["sampling"]["density"] == 100.0
    assert len(report["strategies"]) == 1
    strategy = report["strategies"][0]
    assert strategy["spot_id"] == "main"
    assert set(strategy["pose"]) == {"x", "y", "theta"}
    assert strategy["lateral_bias"] == "centered"
    assert strategy["longitudinal_bias"] == "centered"
    assert report["infeasible"] == []
    assert report["stats"][0]["converged"] is True
    assert isinstance(report["wall_time_s"], float)


def test_solve_reports_are_reproducible():
    a = run_cli("solve", scenario("single_obstacle.json"))
    b = run_cli("solve", scenario("single_obstacle.json"))
    ra, rb = parse_report(a.stdout), parse_report(b.stdout)
    ra.pop("wall_time_s")
    rb.pop("wall_time_s")
    assert ra == rb


def test_solve_json_lines():
    proc = run_cli("solve", scenario("three_spot_area.json"), "--format", "json-lines")
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    kinds = [line["kind"] for line in lines]
    assert kinds[0] == "header"
    assert kinds.count("strategy") == 3
    assert kinds[-1] == "summary"


def test_missing_scenario_is_parse_error():
    proc = run_cli("solve", "missing.scenario")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr


def test_invalid_scenario_is_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"spots": []}')
    proc = run_cli("solve", bad)
    assert proc.returncode == 2
    assert "spots" in proc.stderr


def test_all_infeasible_exit_code(tmp_path):
    doc = {
        "spots": [
            {
                "id": "small",
                "corners": [[0, 0], [3, 0], [3, 1.5], [0, 1.5]],
                "approach_side": "x_max",
            }
        ]
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("solve", path)
    assert proc.returncode == 3
    report = parse_report(proc.stdout)
    assert report["strategies"] == []
    assert report["infeasible"][0]["spot_id"] == "small"


def test_oracle_budget_exit_code():
    proc = run_cli("oracle", scenario("empty_spot.json"), "--resolution", "0.001")
    assert proc.returncode == 4
    assert "budget" in proc.stderr.lower()


def test_huge_spot_with_far_obstacle_exits_at_the_lattice_budget(tmp_path, capsys):
    # The obstacle lies outside the footprint's reach of a 1e9 m spot, so
    # only the domination check could prune it.  The check clips one
    # rectangle and keeps the obstacle: deep inside the spot the edges read
    # far below it.  The solve then stops at the coarse-grid cap,
    # allocating nothing large.
    doc = {
        "spots": [{"id": "huge", "corners": [[0, 0], [1e9, 0], [1e9, 1e9], [0, 1e9]]}],
        "obstacles": [{"id": "far", "vertices": [[-100, -100], [-99, -100], [-99, -99]]}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = cli.main(["solve", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 4
    assert "lattice poses" in err
    assert "Traceback" not in err
    assert peak < 64 * 2**20


def test_oracle_matches_solve():
    solve = parse_report(run_cli("solve", scenario("empty_spot.json")).stdout)
    oracle = parse_report(
        run_cli("oracle", scenario("empty_spot.json"), "--resolution", "0.1").stdout
    )
    assert set(oracle) == set(solve)
    s_score = solve["strategies"][0]["score"]
    o_score = oracle["strategies"][0]["score"]
    assert s_score <= o_score + 1e-6


def test_render_field_deterministic(tmp_path):
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    pa = run_cli("render", scenario("field_demo.json"), "--field", "-o", out_a)
    pb = run_cli("render", scenario("field_demo.json"), "--field", "-o", out_b)
    assert pa.returncode == 0 and pb.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    content = out_a.read_text()
    assert content.count("<polyline") >= 5


def test_render_pose(tmp_path):
    out = tmp_path / "pose.svg"
    proc = run_cli("render", scenario("empty_spot.json"), "--pose", "-o", out)
    assert proc.returncode == 0
    assert "<polygon" in out.read_text()


def test_render_unwritable_output_is_io_error(tmp_path):
    proc = run_cli(
        "render",
        scenario("empty_spot.json"),
        "--pose",
        "-o",
        tmp_path / "no_such_dir" / "out.svg",
    )
    assert proc.returncode == 5


def test_render_has_no_format_flag(tmp_path):
    # ``render`` writes SVG only; it took ``--format`` and never read it.
    out = tmp_path / "x.svg"
    proc = run_cli(
        "render", scenario("empty_spot.json"), "--field", "-o", out, "--format", "report"
    )
    assert proc.returncode == 2
    assert "--format" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_sampling_flags_override(tmp_path):
    proc = run_cli(
        "solve",
        scenario("empty_spot.json"),
        "--sampling",
        "mc",
        "--density",
        "24",
        "--seed",
        "4",
    )
    report = parse_report(proc.stdout)
    assert report["config"]["sampling"] == {
        "mode": "monte_carlo",
        "density": 24.0,
        "seed": 4,
    }


def test_config_file_and_echo(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "sampling": {"mode": "grid", "density": 50.0},
                "solver": {"starts": 2, "coarse_pitch": 0.5},
                "explain": False,
            }
        )
    )
    proc = run_cli("solve", scenario("empty_spot.json"), "--config", config)
    assert proc.returncode == 0
    report = parse_report(proc.stdout)
    assert report["config"]["sampling"]["density"] == 50.0
    assert report["config"]["solver"]["starts"] == 2
    assert report["config"]["explain"] is False


def test_bad_config_is_parse_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": {"warp_speed": 9}}))
    proc = run_cli("solve", scenario("empty_spot.json"), "--config", config)
    assert proc.returncode == 2
    assert "warp_speed" in proc.stderr


MALFORMED_CONFIGS = [
    ({"solver": {"coarse_pitch": 0}}, 2, "config.solver.coarse_pitch"),
    ({"solver": {"step_min_pos": float("nan")}}, 2, "config.solver.step_min_pos"),
    ({"solver": {"theta_range": -0.1}}, 2, "config.solver.theta_range"),
    ({"solver": {"headings": 5}}, 2, "config.solver.headings"),
    ({"solver": {"headings": [0.0, "pi"]}}, 2, "config.solver.headings[1]"),
    ({"solver": {"starts": 1.5}}, 2, "config.solver.starts"),
    ({"solver": {"max_refine_evals": "many"}}, 2, "config.solver.max_refine_evals"),
    ({"solver": {"rect_weights": {"body": "heavy"}}}, 2, "config.solver.rect_weights.body"),
    ({"solver": {"rect_weights": {"bodyy": 1.0}}}, 2, "config.solver.rect_weights.bodyy"),
    ({"solver": {"rect_weights": {"trunk": -0.5}}}, 2, "config.solver.rect_weights.trunk"),
    # Passed and printed "score": NaN on single_obstacle_baby.  The message
    # is part of the path here, so the ids stay distinct.
    ({"solver": {"rect_weights": {"trunk": 1e308, "body": 1e308}}}, 2,
     "config.solver.rect_weights.trunk: must be a finite number >= 0 and <= 1e+06, got 1e+308"),
    ({"solver": {"rect_weights": {"body": 2e6}}}, 2,
     "config.solver.rect_weights.body: must be a finite number >= 0 and <= 1e+06, got 2000000.0"),
    ({"sampling": {"density": 1e13}}, 4, "footprint samples"),
    ({"sampling": {"mode": "mc", "density": 2e6}}, 4, "footprint samples"),
    ({"solver": {"coarse_pitch": 1e-9}}, 4, "lattice poses"),
    ({"solver": 3}, 2, "config.solver"),
    ({"sampling": 5}, 2, "config.sampling"),
    ({"sampling": {"density": "dense"}}, 2, "config.sampling.density"),
    ({"sampling": {"mode": ["grid"]}}, 2, "config.sampling.mode"),
    ({"explain": "no"}, 2, "config.explain"),
    # Exited 0 and solved on the default solver options.
    ({"solvr": {"starts": 0}}, 2, "config.solvr"),
]


@pytest.mark.parametrize(
    "config, code, path", MALFORMED_CONFIGS, ids=[row[2] for row in MALFORMED_CONFIGS]
)
def test_malformed_config_exit_codes(tmp_path, config, code, path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    proc = run_cli("solve", scenario("empty_spot.json"), "--config", config_path)
    assert proc.returncode == code
    assert path in proc.stderr
    assert "Traceback" not in proc.stderr


MALFORMED_SPOTS = [
    # Passed validation and exited 4 at the coarse-grid cap.
    ({"corners": [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]]}, "spots[0].corners"),
    # The length overflows to infinity.
    (
        {"corners": [[-1e308, 0], [1e308, 0], [1e308, 1e308], [-1e308, 1e308]]},
        "spots[0].corners",
    ),
    ({"corners": [[0, 0], [2e9, 0], [2e9, 2.5], [0, 2.5]]}, "spots[0].corners"),
    ({"center": [0, 0], "length": 1e200, "width": 2.5}, "spots[0]"),
]


@pytest.mark.parametrize("spot, path", MALFORMED_SPOTS, ids=[str(i) for i in range(4)])
@pytest.mark.parametrize("verb", ["validate", "solve"])
def test_malformed_spot_exit_codes(tmp_path, capsys, verb, spot, path):
    doc_path = tmp_path / "spot.json"
    doc_path.write_text(json.dumps({"spots": [{"id": "a", **spot}]}))
    assert cli.main([verb, str(doc_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err
    assert "over 1e+09 m" in err
    assert "Traceback" not in err


def _pentagon(order):
    return [
        [2.5 + 2 * math.cos(math.pi / 2 + 0.4 * math.pi * k),
         1.25 + 2 * math.sin(math.pi / 2 + 0.4 * math.pi * k)]
        for k in order
    ]


X_FAR = 900000004.6906905


def _arc_dart(far=1e7, count=40, chord=1e-6):
    """The dart (0, 0), (4, 2), (0, 4), (1, 2) offset by ``far``, its
    reflex corner rounded by an arc of ``count`` edges ``chord`` long."""
    d_in, d_out = (1, -2), (-1, -2)  # the edges into and out of (1, 2)
    turn = math.acos(3 / 5)  # to the right
    step = turn / count
    radius = chord / (2 * math.sin(step / 2))
    back = radius * math.tan(turn / 2) / math.sqrt(5)
    ax, ay = 1 - back * d_in[0], 2 - back * d_in[1]
    cx, cy = ax + radius * d_in[1] / math.sqrt(5), ay - radius * d_in[0] / math.sqrt(5)
    start = math.atan2(ay - cy, ax - cx)
    arc = [[cx + radius * math.cos(start - k * step), cy + radius * math.sin(start - k * step)]
           for k in range(count + 1)]
    return [[far + x, far + y] for x, y in [[0, 0], [4, 2], [0, 4], *arc]]

MALFORMED_SCENARIOS = [
    # Each passed validation, and the first three printed a NaN or Infinity
    # score with exit 0 (the clearance row under --sampling mc --density 50).
    ({"vehicle": {"clearance_table": {"adult_door": 1e300, "baby_door": 1e300}}},
     "vehicle.clearance_table.adult_door", "<= 1e+09"),
    # The first edge's length overflows.
    ({"obstacles": [{"id": "o", "vertices": [[-1.7e308, -1e308], [1.7e308, -1e308], [0, 1.7e308]]}]},
     "obstacles[0].vertices[0][0]", "<= 1e+09"),
    ({"obstacles": [{"id": "o", "vertices": [[0, 0], [1, 0], [0, 2e9]]}]},
     "obstacles[0].vertices[2][1]", "<= 1e+09"),
    ({"vehicle": {"body_length": 2e9}}, "vehicle.body_length", "<= 1e+09"),
    ({"vehicle": {"body_width": 1e300}}, "vehicle.body_width", "<= 1e+09"),
    ({"vehicle": {"clearance_table": {"trunk_loaded": 5e9}}},
     "vehicle.clearance_table.trunk_loaded", "<= 1e+09"),
    # A pentagram's field is its inner pentagon's: its tips read as free.
    ({"obstacles": [{"id": "star", "vertices": _pentagon((0, 2, 4, 1, 3))}]},
     "obstacles[0].vertices", "not convex"),
    ({"obstacles": [{"id": "line", "vertices": [[0, 0], [1, 1], [2, 2]]}]},
     "obstacles[0].vertices", "zero area"),
    # An edge one ulp long at 9e8 m: a move into the spot frame collapsed
    # it, and solve exited 3 on a "degenerate edge".
    ({"obstacles": [{"id": "sliver", "vertices": [
        [X_FAR + 4, X_FAR - 1], [math.nextafter(X_FAR + 4, math.inf), X_FAR - 1],
        [X_FAR + 5, X_FAR + 0.5], [X_FAR + 4, X_FAR + 0.5]]}]},
     "obstacles[0].vertices", "is shorter than 5.12e-05 m"),
    # Each arc vertex turns right by 0.023 rad across edges of 1e-6 m,
    # twice the shortest allowed: allowed a turn per vertex scaled by its
    # coordinates' rounding over that edge (0.036 rad), the dart passed as
    # convex, and its lines' field missed most of its area.
    ({"obstacles": [{"id": "dart", "vertices": _arc_dart()}]},
     "obstacles[0].vertices", "not convex"),
]


@pytest.mark.parametrize(
    "change, path, message", MALFORMED_SCENARIOS, ids=[str(i) for i in range(len(MALFORMED_SCENARIOS))]
)
@pytest.mark.parametrize("verb", [["validate"], ["solve", "--sampling", "mc", "--density", "50"]])
def test_malformed_scenario_exit_codes(tmp_path, capsys, verb, change, path, message):
    doc = json.loads(scenario("single_obstacle_baby.json").read_text())
    doc.setdefault("vehicle", {}).update(change.get("vehicle", {}))
    doc["obstacles"] = change.get("obstacles", doc["obstacles"])
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    assert cli.main([verb[0], str(doc_path), *verb[1:]]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err
    assert "Traceback" not in err


UNREADABLE_SCENARIOS = [
    # A UTF-16 byte-order mark: exited 1 with a UnicodeDecodeError traceback.
    (b'\xff\xfe{"a":1}', "not UTF-8 text"),
]
SCENARIO_VERBS = [["validate"], ["solve"], ["oracle"], ["render", "--field", "-o"]]


@pytest.mark.parametrize("content, message", UNREADABLE_SCENARIOS, ids=["utf16_bom"])
@pytest.mark.parametrize("verb", SCENARIO_VERBS, ids=[v[0] for v in SCENARIO_VERBS])
def test_unreadable_scenario_exit_codes(tmp_path, capsys, verb, content, message):
    doc_path = tmp_path / "doc.json"
    doc_path.write_bytes(content)
    extra = [str(tmp_path / "x.svg")] if verb[0] == "render" else []
    assert cli.main([verb[0], str(doc_path), *verb[1:], *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {doc_path}: {message}")
    assert not (tmp_path / "x.svg").exists()


def test_pentagon_obstacle_still_accepted(tmp_path, capsys):
    doc = json.loads(scenario("single_obstacle_baby.json").read_text())
    doc["obstacles"] = [{"id": "pentagon", "vertices": _pentagon(range(5))}]
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(doc_path)]) == 0


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_solve_report_bytes_match_recorded(name, capsys):
    # The benchmark's recorded reports are the behavioural contract: every
    # byte but the wall time.
    stats = bench_module("stats")
    assert cli.main(["solve", str(SCENARIO_DIR / name)]) == 0
    got = stats.normalize_report(capsys.readouterr().out.encode("utf-8"))
    want = (BENCH_DIR / "expected" / name.replace(".json", ".report")).read_bytes()
    assert got == want


@pytest.mark.parametrize("verb", ["render", "oracle", "render-pose"])
@pytest.mark.parametrize("resolution", ["0", "-1", "nan", "inf"])
def test_bad_resolution_exit_codes(tmp_path, verb, resolution):
    args = {
        "render": ["render", "--field", "-o", tmp_path / "x.svg"],
        "render-pose": ["render", "--pose", "-o", tmp_path / "x.svg"],
        "oracle": ["oracle"],
    }[verb]
    proc = run_cli(*args, scenario("empty_spot.json"), "--resolution", resolution)
    assert proc.returncode == 2
    assert "resolution" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_oracle_report_bytes_match_recorded(name, capsys):
    # The recorded oracle reports pin its ranking, stats and config echo:
    # every byte but the wall time.
    stats = bench_module("stats")
    assert cli.main(["oracle", str(SCENARIO_DIR / name), "--resolution", "0.25"]) == 0
    got = stats.normalize_report(capsys.readouterr().out.encode("utf-8"))
    want = Path(__file__).parent / "expected_oracle" / name.replace(".json", ".report")
    assert got == want.read_bytes()


# sha256 of ``render --field`` on every single-spot golden.  A spot's edge
# field and the obstacles combine by max and min only, which are exact, so
# how the spots of an area are combined must not move a byte of these.
FIELD_SVG_SHA256 = {
    "adjacent_car.json": "c8cbd27b48b97aa54797a170b07a683549da9ecbb9c3d2770bfe58a2da7d5cdc",
    "empty_spot.json": "df8d4ceffa2c5fa1e57ddda65a560b5fcad1cb7f56a5c64686b3403c98d8c5a4",
    "field_demo.json": "81b9944e6604520c422b6797543dd1d1ea76cf495177c5aede123326d8987f64",
    "loaded_family_context.json": "2f7d489246ed14f6aba4fe0c27fd1d0652e6061421b3b4aa1c448b101d914036",
    "mixed_obstacles.json": "39e5155d1a75bf184b40a47178a91e3f4d9e0b93a6047520f89e2780644f12b2",
    "single_obstacle.json": "2c7ec2c44a473ab55263dc6cdab8e9e62f4a2c1e643d715e9f2c9b126a65cc76",
    "single_obstacle_baby.json": "2c7ec2c44a473ab55263dc6cdab8e9e62f4a2c1e643d715e9f2c9b126a65cc76",
    "two_obstacles.json": "104e388fac0302632b713dcdd53a230db337f30017e88d42253a08c382cad44c",
}


@pytest.mark.parametrize("name", sorted(FIELD_SVG_SHA256))
def test_single_spot_field_render_bytes_match_recorded(name, tmp_path):
    out = tmp_path / "field.svg"
    assert cli.main(["render", str(SCENARIO_DIR / name), "--field", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIELD_SVG_SHA256[name]


# sha256 of ``render --field`` on ``three_spot_area``, whose three spots
# combine by min before the obstacles by max, at the default resolution (8)
# and at 50.
AREA_SVG_SHA256 = {
    "8": "27a20a8dd628f35127693a8a61b12b42a85ca420be58c2e0657be4968547fdac",
    "50": "045992ebe6956aa144db5232c390062a3e10d71d295bd465e4577454eb0ceaae",
}


@pytest.mark.parametrize("resolution", sorted(AREA_SVG_SHA256))
def test_multi_spot_field_render_bytes_match_recorded(resolution, tmp_path):
    out = tmp_path / "field.svg"
    args = ["render", str(SCENARIO_DIR / "three_spot_area.json"), "--field", "-o", str(out)]
    if resolution != "8":
        args += ["--resolution", resolution]
    assert cli.main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == AREA_SVG_SHA256[resolution]


def test_oracle_reports_infeasible_spots_like_solve(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "empty_spot.json").read_text())
    doc["spots"].append(
        {"id": "small", "corners": [[10, 0], [13, 0], [13, 1.5], [10, 1.5]]}
    )
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    reports = {}
    for verb, extra in (("solve", []), ("oracle", ["--resolution", "0.25"])):
        assert cli.main([verb, str(path), *extra]) == 0
        reports[verb] = json.loads(capsys.readouterr().out)
    assert reports["oracle"]["infeasible"] == reports["solve"]["infeasible"]
    assert [e["spot_id"] for e in reports["oracle"]["infeasible"]] == ["small"]
    assert [s["spot_id"] for s in reports["oracle"]["strategies"]] == ["main"]
    assert [s["spot_id"] for s in reports["oracle"]["stats"]] == ["main"]
    assert reports["oracle"]["config"]["explain"] is False


def test_public_api_is_the_documented_surface():
    import parkfield

    assert len(parkfield.__all__) <= 20
    for name in parkfield.__all__:
        assert hasattr(parkfield, name), name


def test_scenario_digest_is_sha256_without_loading_openssl():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        recorded = (BENCH_DIR / "expected" / path.name.replace(".json", ".report")).read_text()
        want = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert cli._digest(text) == want
        assert f'"scenario_digest": "{want}"' in recorded
    # hashlib's OpenSSL backend costs every process several MB; the CLI
    # must not load it.
    probe = "import sys, parkfield.cli; print(sorted(m for m in sys.modules if 'hashlib' in m))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_main_builds_its_parser_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    path = str(SCENARIO_DIR / "empty_spot.json")
    for _ in range(2):
        assert cli.main(["validate", path]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve"])
        assert exc.value.code == 2
    assert "the following arguments are required: scenario" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Whole-report invariants: changes to the obstacles that cannot move a byte
# of a ``solve`` report but its wall time and the digest of its input, and
# an added spot, which moves no byte of the other spots' entries.
# ---------------------------------------------------------------------------


def acceptance_scene(seed: int) -> dict:
    """A scenario document in the style of acceptance 5: one random spot,
    one or two small convex obstacles in it, a vehicle that fits it."""
    rng = random.Random(seed)
    length, width = rng.uniform(3.0, 4.2), rng.uniform(2.0, 2.7)
    spot = make_spot_from_center(
        "r",
        Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        length,
        width,
        rng.uniform(-math.pi, math.pi),
        rng.choice(["x_min", "x_max", "y_min", "y_max"]),
    )
    obstacles = []
    while len(obstacles) < rng.randint(1, 2):
        cx, cy, radius = rng.uniform(0, length), rng.uniform(0, width), rng.uniform(0.15, 0.5)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(rng.randint(3, 5)))
        if min(b - a for a, b in zip(angles, angles[1:])) < 0.05:
            continue
        vertices = [spot.to_global(Point2(cx + radius * math.cos(a), cy + radius * math.sin(a))) for a in angles]
        obstacles.append({"id": f"o{len(obstacles)}", "vertices": [[v.x, v.y] for v in vertices]})
    return {
        "spots": [{"id": "r", "corners": [[c.x, c.y] for c in spot.corners], "approach_side": spot.approach_side}],
        "obstacles": obstacles,
        "cabin": {"seats": {"driver": "adult", rng.choice(["rear_left", "rear_right"]): "baby"}, "trunk_loaded": rng.random() < 0.5},
        "vehicle": {"body_length": rng.uniform(2.2, min(2.9, length - 0.1)), "body_width": rng.uniform(1.4, min(1.9, width - 0.1))},
    }


def scene(source: str, seed: int) -> dict:
    if source == "lot":
        return json.loads(bench_module("lot").generate_lot(seed))
    return acceptance_scene(seed)


def beside_a_spot(spot, gap: float, rng) -> list:
    """An upright box in ``spot``'s frame beyond one of its edges by ``gap``
    (inside the spot if negative), as global ``[x, y]`` vertices."""
    size, along = rng.uniform(0.2, 1.5), rng.random()
    l, w = spot.length, spot.width
    x0, y0 = rng.choice(
        [(l + gap, along * w), (-gap - size, along * w), (along * l, w + gap), (along * l, -gap - size)]
    )
    box = [(x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size)]
    return [[p.x, p.y] for p in (spot.to_global(Point2(x, y)) for x, y in box)]


def added_obstacle(doc: dict, kind: str, rng) -> dict:
    """A far obstacle, 1 km past the scene, or, of 20 boxes beside a spot
    with gaps small or not and of either sign, the one of least gap that
    the exact test in every spot's frame finds dominated (the far one if
    none is)."""
    vertices = [p for spot in doc["spots"] for p in spot.get("corners", [spot.get("center")])]
    far = max(max(abs(c) for c in p) for p in vertices) + 1e3
    obstacle = {"id": "added", "vertices": [[far, far], [far + 1, far], [far, far + 1]]}
    if kind == "dominated":
        parsed = load_scenario(json.dumps(doc))
        reach = build_footprint(parsed.context, parsed.vehicle).max_reach()
        tests = [
            (spot, _domination_clip(spot, reach, _spot_edge_polygons(spot, local=True)))
            for spot in parsed.spots
        ]
        gaps = [rng.choice([-1.0, 1.0]) * rng.choice([1e-9, 1e-3, 0.05, 0.5, 3.0]) for _ in range(20)]
        boxes = [(gap, beside_a_spot(rng.choice(parsed.spots), gap, rng)) for gap in gaps]
        for _, box in sorted(boxes, key=lambda b: b[0]):
            polygon = Polygon([Point2(*p) for p in box])
            if not any(clip(transform_polygon(spot.spot_frame, polygon)) for spot, clip in tests):
                return {"id": "added", "vertices": box}
    return obstacle


def added_spot(doc: dict, rng) -> dict:
    """A 5.5 m x 2.8 m spot at any heading, its centre within 3 m of a
    vertex of one of ``doc``'s obstacles."""
    x, y = rng.choice(rng.choice(doc["obstacles"])["vertices"])
    center = [x + rng.uniform(-3, 3), y + rng.uniform(-3, 3)]
    return {"id": "added", "center": center, "length": 5.5, "width": 2.8,
            "heading": rng.uniform(-math.pi, math.pi)}


def changed_scene(doc: dict, change: str, rng) -> dict:
    doc = json.loads(json.dumps(doc))
    obstacles = doc["obstacles"]
    if change == "shuffle":
        rng.shuffle(obstacles)
    elif change == "duplicate":
        copy = dict(rng.choice(obstacles), id="duplicate")
        obstacles.insert(rng.randint(0, len(obstacles)), copy)
    elif change == "spot":
        doc["spots"].insert(rng.randint(0, len(doc["spots"])), added_spot(doc, rng))
    else:
        obstacles.insert(rng.randint(0, len(obstacles)), added_obstacle(doc, change, rng))
    return doc


@functools.lru_cache(maxsize=64)
def report_without_wall_or_digest(text: str, explain: bool) -> str:
    """The ``solve`` report of ``text`` less its wall time and the digest of
    its input, as sorted JSON: floats keep every bit and the sign of a zero."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path, config_path = Path(tmp, "scene.json"), Path(tmp, "config.json")
        scenario_path.write_text(text)
        config_path.write_text(json.dumps({"explain": explain}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["solve", str(scenario_path), "--config", str(config_path)]) == 0
    report = json.loads(out.getvalue())
    del report["wall_time_s"], report["scenario_digest"]
    return json.dumps(report, sort_keys=True)


def without_spot(report: str, spot_id: str) -> str:
    """``report`` less the strategy, infeasible and stats entries of
    ``spot_id``."""
    report = json.loads(report)
    for key in ("strategies", "infeasible", "stats"):
        report[key] = [entry for entry in report[key] if entry["spot_id"] != spot_id]
    return json.dumps(report, sort_keys=True)


@given(
    source=st.sampled_from(["acceptance", "lot"]),
    seed=st.integers(0, 63),
    explain=st.booleans(),
    change=st.sampled_from(["shuffle", "duplicate", "far", "dominated", "spot"]),
    draw=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_obstacle_changes_that_cannot_reach_keep_the_report(source, seed, explain, change, draw):
    # Spots are solved independently, so an added spot leaves every other
    # spot's strategy and stats entry as they were.
    doc = scene(source, seed)
    changed = changed_scene(doc, change, random.Random(draw))
    want = report_without_wall_or_digest(json.dumps(doc), explain)
    got = report_without_wall_or_digest(json.dumps(changed), explain)
    if change == "spot":
        got = without_spot(got, "added")
    assert got == want


# ---------------------------------------------------------------------------
# Far from the origin: what parses moves into every spot's frame.
# ---------------------------------------------------------------------------


def utm_scene(k: int) -> dict:
    """A 5 m x 2.5 m spot of heading k*pi/60 at projected-map coordinates,
    beside a car outline with one vertex on its long side."""
    car = [[500003.0, 4999999.0], [500005.3, 4999999.0], [500007.6, 4999999.0],
           [500007.6, 5000000.9], [500003.0, 5000000.9]]
    return {
        "spots": [{"id": "utm", "center": [500000.0, 5000000.0], "length": 5.0, "width": 2.5,
                   "heading": k * math.pi / 60}],
        "obstacles": [{"id": "car", "vertices": car}],
    }


def build_both_sets(scenario) -> None:
    """Each spot's ``spot_field_set`` and its spot-local set."""
    reach = build_footprint(scenario.context, scenario.vehicle).max_reach()
    for spot in scenario.spots:
        _local_field_set(spot_field_set(spot, list(scenario.obstacles), reach), spot, reach)


def test_a_car_at_map_coordinates_moves_into_every_heading(tmp_path, capsys):
    # Moved into the spot frame, the side vertex turned right by a rounding,
    # and 24 of the 60 headings exited 3: "obstacle 'car' is not convex".
    for k in range(60):
        build_both_sets(load_scenario(json.dumps(utm_scene(k))))
    path = tmp_path / "utm.json"
    path.write_text(json.dumps(utm_scene(2)))
    for verb in (["solve"], ["oracle"], ["render", "--pose", "-o", str(tmp_path / "utm.svg")]):
        assert cli.main([verb[0], str(path), *verb[1:]]) == 0, capsys.readouterr().err


def moved_scene(doc: dict, theta: float, dx: float, dy: float) -> dict:
    """``doc`` rotated by ``theta`` about the origin, then offset by
    ``(dx, dy)``."""
    c, s = math.cos(theta), math.sin(theta)

    def move(p):
        return [c * p[0] - s * p[1] + dx, s * p[0] + c * p[1] + dy]

    doc = json.loads(json.dumps(doc))
    for spot in doc["spots"]:
        if "corners" in spot:
            spot["corners"] = [move(p) for p in spot["corners"]]
        else:
            spot["center"] = move(spot["center"])
            spot["heading"] = spot.get("heading", 0.0) + theta
    for obstacle in doc["obstacles"]:
        obstacle["vertices"] = [move(p) for p in obstacle["vertices"]]
    return doc


@given(
    source=st.sampled_from(["acceptance", "lot"]),
    seed=st.integers(0, 63),
    theta=st.floats(-math.pi, math.pi),
    exponent=st.floats(3.0, 7.0),
    bearing=st.floats(-math.pi, math.pi),
    draw=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_what_parses_far_from_the_origin_moves_into_every_spot_frame(
    source, seed, theta, exponent, bearing, draw
):
    doc = scene(source, seed)
    rng = random.Random(draw)
    # Up to two obstacles get a vertex at the midpoint of one edge.  Moved
    # far out, rounding may turn it right of its edge by more than 1e-12
    # rad; the convexity check allows for that rounding, so every such
    # scene must parse (a quarter failed under a fixed 1e-12) and build
    # both of its field sets.
    obstacles = doc["obstacles"]
    for obstacle in rng.sample(obstacles, min(len(obstacles), rng.randint(0, 2))):
        vertices = obstacle["vertices"]
        i = rng.randrange(len(vertices))
        p, q = vertices[i], vertices[(i + 1) % len(vertices)]
        vertices.insert(i + 1, [(p[0] + q[0]) / 2, (p[1] + q[1]) / 2])
    offset = 10.0**exponent
    moved = moved_scene(doc, theta, offset * math.cos(bearing), offset * math.sin(bearing))
    build_both_sets(load_scenario(json.dumps(moved)))


def lattice_sizes(doc: dict) -> list:
    """Each spot's ``_lattice_axes`` lengths at the coarse and a fine pitch."""
    return [
        [len(axis) for axis in solver._lattice_axes(spot, pitch, (0.0,))[:2]]
        for spot in load_scenario(json.dumps(doc)).spots
        for pitch in (0.25, 0.05)
    ]


def test_a_moved_golden_keeps_its_lattice_node_counts():
    # A spot's extents come from its rounded corners: moved by (-1.3, 5e5,
    # 5e6) the goldens' 5 m lengths read 5.000000000265875, and a tolerance
    # of 1e-9 cells gave their 0.25 m lattices 22 x-nodes instead of 21.
    motions = ((0.7, 3.0, -2.0), (2.5, 1e5, -3e4), (-1.3, 5e5, 5e6))
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        for motion in motions:
            assert lattice_sizes(moved_scene(doc, *motion)) == lattice_sizes(doc), (path.name, motion)
    # A 4.2 m x 1.8 m spot, which the default 4.2 m x 1.8 m body exactly
    # fits, still fits when moved: by the last motion its length reads
    # 4.1999999984971526, which a feasibility tolerance of 1e-9 m took for
    # a body 1.5e-9 m too long (exit 3).
    tight = json.loads((SCENARIO_DIR / "empty_spot.json").read_text())
    tight["spots"][0]["corners"] = [[0.0, 0.0], [4.2, 0.0], [4.2, 1.8], [0.0, 1.8]]
    for motion in motions + ((0.06886501705991455, 17554225.02209408, -4321754.37823838),):
        moved = moved_scene(tight, *motion)
        assert lattice_sizes(moved) == lattice_sizes(tight), motion
        scenario = load_scenario(json.dumps(moved))
        footprint = build_footprint(scenario.context, scenario.vehicle)
        solver.check_feasible(footprint, scenario.spots[0], solver.SolverConfig().headings)
