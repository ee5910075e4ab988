"""Command-line front end: scenario in, report or rendering out.

Verbs: solve (ranked strategies as a structured report on stdout),
render (deterministic SVG of the field or the solved poses), oracle
(exhaustive lattice search, for cross-checking solve), validate (schema
check only).  Exit codes: 0 ok, 2 parse, 3 infeasible, 4 budget, 5 io.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, fields as dataclass_fields

# The interpreter's own sha256, taken as ``random`` takes its sha512:
# ``hashlib`` loads OpenSSL's libcrypto, over 3 MB of every process.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

from .errors import BudgetError, ParkfieldError, ScenarioError, finite_number
from .render import render_scene, scene_bounds
# ``spot_field_set`` is bound here although only ``strategy`` calls it: the
# benchmark's tracer self-test asserts ``cli.spot_field_set`` is wrapped.
from .scenario import area_field_map, build_footprint, load_scenario, spot_field_set
from .solver import (
    GRID,
    MONTE_CARLO,
    SamplingPlan,
    SolverConfig,
    brute_force_minimize,
)
from .strategy import RankedStrategies, rank_spots

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_IO = 5

REPORT_VERSION = 1

_SAMPLING_ALIASES = {"grid": GRID, "mc": MONTE_CARLO, "monte_carlo": MONTE_CARLO}
_SECTION_TYPES = {"sampling": SamplingPlan, "solver": SolverConfig}


def _read_text(path: str) -> str:
    """Content of a UTF-8 text file; other bytes raise ``ScenarioError`` at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(path, f"not UTF-8 text: {exc}") from exc


def _config_section(data: dict, name: str) -> dict:
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ScenarioError(f"config.{name}", "must be a JSON object")
    unknown = set(section) - {f.name for f in dataclass_fields(_SECTION_TYPES[name])}
    if unknown:
        raise ScenarioError(f"config.{name}.{sorted(unknown)[0]}", f"unknown {name} option")
    return dict(section)


def _build_section(name: str, **values):
    """The section's dataclass; its validation errors name ``config.<name>.<field>``."""
    try:
        return _SECTION_TYPES[name](**values)
    except ScenarioError as exc:
        raise ScenarioError(f"config.{name}.{exc.path}", exc.message) from exc


def _load_config(path: str | None, args) -> tuple[SamplingPlan, SolverConfig, bool]:
    data = {}
    if path is not None:
        try:
            data = json.loads(_read_text(path))
        except (OSError, ValueError, RecursionError) as exc:  # as in load_scenario
            raise ScenarioError("config", f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioError("config", "config file must hold a JSON object")
        unknown = set(data) - {*_SECTION_TYPES, "explain"}
        if unknown:
            raise ScenarioError(f"config.{sorted(unknown)[0]}", "unknown top-level key")

    sampling = _config_section(data, "sampling")
    if getattr(args, "sampling", None):
        sampling["mode"] = args.sampling
    if getattr(args, "density", None) is not None:
        sampling["density"] = args.density
    if getattr(args, "seed", None) is not None:
        sampling["seed"] = args.seed
    mode = sampling.get("mode", "grid")
    if not isinstance(mode, str) or mode not in _SAMPLING_ALIASES:
        raise ScenarioError("config.sampling.mode", f"unknown mode {mode!r}")
    sampling["mode"] = _SAMPLING_ALIASES[mode]
    plan = _build_section("sampling", **sampling)

    config = _build_section("solver", **_config_section(data, "solver"))

    explain = data.get("explain", True)
    if not isinstance(explain, bool):
        raise ScenarioError("config.explain", f"must be true or false, got {explain!r}")
    return plan, config, explain


def _config_echo(plan: SamplingPlan, config: SolverConfig, explain: bool) -> dict:
    return {"sampling": asdict(plan), "solver": asdict(config), "explain": explain}


def _digest(text: str) -> str:
    return "sha256:" + sha256(text.encode("utf-8")).hexdigest()


def _strategy_dict(strategy) -> dict:
    pose = strategy.pose
    return {
        **asdict(strategy),
        "pose": {"x": pose.x_hat, "y": pose.y_hat, "theta": pose.theta_hat},
    }


def _report_dict(text: str, ranked: RankedStrategies, echo: dict, wall_time: float) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "scenario_digest": _digest(text),
        "config": echo,
        "strategies": [_strategy_dict(s) for s in ranked.strategies],
        "infeasible": [
            {"spot_id": spot_id, "reason": reason} for spot_id, reason in ranked.infeasible
        ],
        "stats": [
            {"spot_id": spot_id, "evaluations": evals, "converged": conv}
            for spot_id, evals, conv in ranked.solve_stats
        ],
        "wall_time_s": wall_time,
    }


def _emit_report(report: dict, fmt: str, out) -> None:
    if fmt == "report":
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
        return
    header = {
        "kind": "header",
        "report_version": report["report_version"],
        "scenario_digest": report["scenario_digest"],
        "config": report["config"],
    }
    out.write(json.dumps(header, sort_keys=True) + "\n")
    for strategy in report["strategies"]:
        out.write(json.dumps({"kind": "strategy", **strategy}, sort_keys=True) + "\n")
    for entry in report["infeasible"]:
        out.write(json.dumps({"kind": "infeasible", **entry}, sort_keys=True) + "\n")
    for entry in report["stats"]:
        out.write(json.dumps({"kind": "stats", **entry}, sort_keys=True) + "\n")
    out.write(
        json.dumps({"kind": "summary", "wall_time_s": report["wall_time_s"]}, sort_keys=True)
        + "\n"
    )


def _cmd_solve(args) -> int:
    """``solve``, or ``oracle``: the same ranking with the lattice search."""
    text = _read_text(args.scenario)
    scenario = load_scenario(text)
    plan, config, explain = _load_config(args.config, args)
    solve = None
    if args.verb == "oracle":
        explain = False

        def solve(fields, footprint, spot, plan, config):
            return brute_force_minimize(fields, footprint, spot, plan, args.resolution, config)

    start = time.perf_counter()
    ranked = rank_spots(scenario, plan, config, explain=explain, solve=solve)
    wall = time.perf_counter() - start
    report = _report_dict(text, ranked, _config_echo(plan, config, explain), wall)
    _emit_report(report, args.format, sys.stdout)
    if ranked.empty:
        print("no feasible spot: every candidate was rejected", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_render(args) -> int:
    # Checked in both modes, although only ``--field`` reads it.
    finite_number("resolution", args.resolution, 0.0, False)
    text = _read_text(args.scenario)
    scenario = load_scenario(text)
    plan, config, _explain = _load_config(args.config, args)
    fmap = None
    poses = None
    footprint = None
    if args.field:
        fmap = area_field_map(scenario, scene_bounds(scenario), args.resolution)
    else:
        ranked = rank_spots(scenario, plan, config, explain=False)
        if ranked.empty:
            print("no feasible spot: nothing to render", file=sys.stderr)
            return EXIT_INFEASIBLE
        footprint = build_footprint(scenario.context, scenario.vehicle)
        poses = {s.spot_id: s.pose for s in ranked.strategies}
    svg = render_scene(scenario, fmap=fmap, poses=poses, footprint=footprint)
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_validate(args) -> int:
    text = _read_text(args.scenario)
    scenario = load_scenario(text)
    print(
        f"ok: {len(scenario.spots)} spot(s), {len(scenario.obstacles)} obstacle(s)"
    )
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="scenario file path")
    parser.add_argument("--config", default=None, help="solver config JSON file")
    parser.add_argument("--sampling", choices=sorted(_SAMPLING_ALIASES), default=None)
    parser.add_argument("--density", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)


@functools.cache  # one parser per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkfield",
        description="Force-field parking strategy solver",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_solve = sub.add_parser("solve", help="rank spots and print a report")
    _add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_render = sub.add_parser("render", help="write an SVG rendering")
    _add_common(p_render)
    group = p_render.add_mutually_exclusive_group(required=True)
    group.add_argument("--field", action="store_true", help="draw field contours")
    group.add_argument("--pose", action="store_true", help="draw solved poses")
    p_render.add_argument("-o", "--output", required=True, help="output SVG path")
    p_render.add_argument(
        "--resolution", type=float, default=8.0, help="field nodes per metre"
    )
    p_render.set_defaults(func=_cmd_render)

    p_oracle = sub.add_parser("oracle", help="exhaustive lattice-search report")
    _add_common(p_oracle)
    p_oracle.add_argument(
        "--resolution", type=float, default=0.05, help="pose lattice pitch, metres"
    )
    p_oracle.set_defaults(func=_cmd_solve)
    for p_report in (p_solve, p_oracle):
        p_report.add_argument("--format", choices=("report", "json-lines"), default="report")

    p_validate = sub.add_parser("validate", help="schema-check a scenario file")
    p_validate.add_argument("scenario", help="scenario file path")
    p_validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParkfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
