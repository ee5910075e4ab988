import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import BENCH_DIR, SCENARIO_DIR, bench_module

from parkfield import cli

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
    # only the domination check could prune it; its lattice would have
    # ~1.6e19 nodes, so the obstacle is kept unchecked and the solve stops
    # at the coarse-grid cap, allocating nothing large.
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


@pytest.mark.parametrize("verb", ["render", "oracle"])
@pytest.mark.parametrize("resolution", ["0", "-1", "nan", "inf"])
def test_bad_resolution_exit_codes(tmp_path, verb, resolution):
    extra = ["--field", "-o", tmp_path / "x.svg"] if verb == "render" else []
    proc = run_cli(verb, scenario("empty_spot.json"), *extra, "--resolution", resolution)
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
