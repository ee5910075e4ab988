"""Spot ranking and rounding of continuous optima into discrete strategies.

A strategy tells the maneuver executor what it can actually follow:
park forwards or backwards, and which side of the spot keeps the larger
remaining margin laterally and longitudinally.  Margins are measured
between the posed footprint (body plus maneuver rectangles) and the spot
boundary, so context rectangles shift the rounded answer, not just the
continuous pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleSpotError
from .field import FieldSet
from .scenario import (
    ParkingSpot,
    Scenario,
    VehicleFootprint,
    build_footprint,
    spot_field_set,
)
from .solver import (
    Pose,
    SamplingPlan,
    ScoredLattice,
    SolveResult,
    SolverConfig,
    minimize,
)

FORWARDS = "forwards"
BACKWARDS = "backwards"
MAX_LEFT = "maximize_left"
MAX_RIGHT = "maximize_right"
MAX_FRONT = "maximize_front"
MAX_BACK = "maximize_back"
CENTERED = "centered"

# Dead band on the rounded margins; below this the pose counts as centered.
EPS_LATERAL = 0.10
EPS_LONGITUDINAL = 0.10

_APPROACH_OUTWARD = {
    "x_min": (-1.0, 0.0),
    "x_max": (1.0, 0.0),
    "y_min": (0.0, -1.0),
    "y_max": (0.0, 1.0),
}


@dataclass(frozen=True)
class ParkingStrategy:
    spot_id: str
    pose: Pose
    score: float
    direction: str
    lateral_bias: str
    longitudinal_bias: str
    explanation: str
    bias_drivers: tuple = ()


@dataclass(frozen=True)
class RankedStrategies:
    """Strategies ascending by (score, spot_id) plus the spots that failed."""

    strategies: tuple
    infeasible: tuple
    solve_stats: tuple = ()

    @property
    def empty(self) -> bool:
        return not self.strategies

    def best(self) -> ParkingStrategy:
        if self.empty:
            raise InfeasibleSpotError("*", "no feasible spot in the scenario")
        return self.strategies[0]


def footprint_extent_at(
    footprint: VehicleFootprint, pose: Pose
) -> tuple[float, float, float, float]:
    """Spot-frame bounding box of the posed footprint."""
    c = math.cos(pose.theta_hat)
    s = math.sin(pose.theta_hat)
    xs, ys = zip(*(
        (c * lx - s * ly + pose.x_hat, s * lx + c * ly + pose.y_hat)
        for rect in footprint.all_rects()
        for lx, ly in rect.corners()
    ))
    return min(xs), max(xs), min(ys), max(ys)


def spot_margins(
    footprint: VehicleFootprint, pose: Pose, spot: ParkingSpot
) -> dict:
    """Remaining space between the posed footprint and each spot boundary.

    In spot frame: left is +y, right is -y, front is +x, back is -x.
    """
    x_min, x_max, y_min, y_max = footprint_extent_at(footprint, pose)
    return {
        "left": spot.width - y_max,
        "right": y_min,
        "front": spot.length - x_max,
        "back": x_min,
    }


def _direction(pose: Pose, spot: ParkingSpot) -> str:
    ox, oy = _APPROACH_OUTWARD[spot.approach_side]
    dot = math.cos(pose.theta_hat) * ox + math.sin(pose.theta_hat) * oy
    return BACKWARDS if dot < 0.0 else FORWARDS


def _biases(footprint: VehicleFootprint, pose: Pose, spot: ParkingSpot):
    margins = spot_margins(footprint, pose, spot)
    lat = (margins["left"] - margins["right"]) / 2.0
    lon = (margins["front"] - margins["back"]) / 2.0
    lateral = _side(lat, EPS_LATERAL, MAX_LEFT, MAX_RIGHT)
    longitudinal = _side(lon, EPS_LONGITUDINAL, MAX_FRONT, MAX_BACK)
    return lateral, longitudinal


def _side(delta: float, eps: float, positive: str, negative: str) -> str:
    """The side whose margin is larger by more than ``eps``, else centered."""
    if delta > eps:
        return positive
    return negative if delta < -eps else CENTERED


def _phrase(direction: str, lateral: str, longitudinal: str) -> str:
    parts = [f"park {direction}"]
    lat_text = {
        MAX_LEFT: "maximizing remaining space on the left",
        MAX_RIGHT: "maximizing remaining space on the right",
        CENTERED: "centered across the spot",
    }
    lon_text = {
        MAX_FRONT: "maximizing remaining space at the front",
        MAX_BACK: "maximizing remaining space at the back",
        CENTERED: "centered along the spot",
    }
    parts.append(lat_text[lateral])
    parts.append(lon_text[longitudinal])
    return ", ".join(parts)


def round_strategy(
    result: SolveResult,
    spot: ParkingSpot,
    footprint: VehicleFootprint,
    bias_drivers: tuple = (),
) -> ParkingStrategy:
    """Round a continuous optimum into discrete directives.

    Pure in (pose, spot, footprint, bias_drivers); ``bias_drivers`` names
    the maneuver rectangles whose removal was found to change a directive
    (see :func:`bias_drivers`).
    """
    pose = result.pose
    direction = _direction(pose, spot)
    lateral, longitudinal = _biases(footprint, pose, spot)
    explanation = _phrase(direction, lateral, longitudinal)
    if bias_drivers:
        explanation += "; driven by " + ", ".join(bias_drivers)
    return ParkingStrategy(
        spot.id,
        pose,
        result.score,
        direction,
        lateral,
        longitudinal,
        explanation,
        tuple(bias_drivers),
    )


def bias_drivers(
    fields: FieldSet,
    footprint: VehicleFootprint,
    spot: ParkingSpot,
    base: ParkingStrategy,
    plan: SamplingPlan,
    config: SolverConfig,
    coarse: ScoredLattice,
) -> tuple:
    """Maneuver rectangles whose removal changes a discrete directive.

    Each rectangle is deleted in turn, the optimization re-run and the
    result re-rounded; a rectangle is a driver when any of direction or
    biases differs from the base strategy.  The re-solves start from
    ``coarse``, the spot's coarse lattice scored for every ablation.
    """
    drivers = []
    for label in footprint.labels():
        ablated = footprint.without(label)
        result = minimize(fields, ablated, spot, plan, config, coarse=coarse)
        rounded = round_strategy(result, spot, ablated)
        if (
            rounded.lateral_bias != base.lateral_bias
            or rounded.longitudinal_bias != base.longitudinal_bias
        ):
            drivers.append(label)
    return tuple(drivers)


def rank_spots(
    scenario: Scenario,
    plan: SamplingPlan = SamplingPlan(),
    config: SolverConfig = SolverConfig(),
    explain: bool = True,
    solve=None,
) -> RankedStrategies:
    """Solve every spot, round each optimum, rank ascending by score.

    ``solve`` has the signature of :func:`minimize`, the default; the CLI's
    ``oracle`` passes the lattice search.  With explain on, the default
    solve and the explain re-solves of a spot share one coarse lattice,
    scored for the footprint and all its ablations at once.  Infeasible
    spots are reported with their reason, never dropped.
    """
    footprint = build_footprint(scenario.context, scenario.vehicle)
    reach = footprint.max_reach()
    explained = ()
    if explain and footprint.maneuver_rects:
        explained = (footprint, *(footprint.without(lb) for lb in footprint.labels()))
    strategies = []
    infeasible = []
    stats = []
    for spot in scenario.spots:
        fields = spot_field_set(spot, list(scenario.obstacles), reach=reach)
        coarse = ScoredLattice(fields, explained, spot, plan, config) if explained else None
        try:
            if solve is None:
                # ``minimize`` is looked up per call, not bound at
                # definition, so a rebinding of the module's name (the
                # benchmark tracer's wrapper) is seen.
                result = minimize(fields, footprint, spot, plan, config, coarse=coarse)
            else:
                result = solve(fields, footprint, spot, plan, config)
        except InfeasibleSpotError as exc:
            infeasible.append((spot.id, str(exc)))
            continue
        drivers: tuple = ()
        if coarse is not None:
            base = round_strategy(result, spot, footprint)
            drivers = bias_drivers(fields, footprint, spot, base, plan, config, coarse)
        strategies.append(round_strategy(result, spot, footprint, drivers))
        stats.append((spot.id, result.evaluations, result.converged))
    strategies.sort(key=lambda st: (st.score, st.spot_id))
    return RankedStrategies(tuple(strategies), tuple(infeasible), tuple(stats))
