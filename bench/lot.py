"""Seeded generator for the ``lot`` workload's parking-lot scenarios.

A lot is two facing rows of 5 m x 2.5 m perpendicular spaces across a 6 m
aisle.  One space per row is free and becomes a scenario spot; every other
space holds a parked-car rectangle with position and angle jitter, and
hexagonal pillars stand at the back of each row on every fourth space
boundary.  The cabin is an adult driver, a baby in the rear right and a
loaded trunk, so the footprint carries four rectangles.

Free spaces are drawn from the two positions per row whose neighbourhood
within the footprint's reach holds the same obstacles: four parked cars
(4 lines each) and one pillar (6 lines).  Every spot therefore costs the
same kernel work, and the seed varies only the jitter and which mirror
image is solved, which keeps operation latency steady across seeds.

The output is scenario JSON text only: the program under test never sees
the seed.  Coordinates are rounded to 0.1 mm and serialised with sorted
keys, so one seed gives the same bytes on every platform.
"""

from __future__ import annotations

import json
import math
import random

SPACE_LENGTH = 5.0
SPACE_WIDTH = 2.5
AISLE = 6.0
SPACES_PER_ROW = 8
PILLAR_EVERY = 4
PILLAR_RADIUS = 0.3
# Lateral position jitter of parked cars, metres.
CAR_JITTER = 0.2
LEAN_JITTER = 0.45
# Space indices whose neighbourhood holds four cars and one pillar.
FREE_CANDIDATES = (2, 5)

CABIN = {"seats": {"driver": "adult", "rear_right": "baby"}, "trunk_loaded": True}
VEHICLE = {"body_length": 4.2, "body_width": 1.8}


def _r(value: float) -> float:
    return round(value, 4)


def _rotated_rect(cx, cy, length, width, heading):
    """CCW corners of a length x width rectangle whose length axis is ``heading``."""
    ux, uy = math.cos(heading), math.sin(heading)
    corners = []
    for lx, ly in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        x = lx * length / 2.0
        y = ly * width / 2.0
        corners.append([_r(cx + x * ux - y * uy), _r(cy + x * uy + y * ux)])
    return corners


def _hexagon(cx, cy, radius, phase):
    return [
        [
            _r(cx + radius * math.cos(phase + k * math.pi / 3.0)),
            _r(cy + radius * math.sin(phase + k * math.pi / 3.0)),
        ]
        for k in range(6)
    ]


def generate_lot(seed: int) -> str:
    """Scenario text for the lot drawn from ``seed``."""
    rng = random.Random(seed)

    def uniform(lo, hi):
        return lo + (hi - lo) * rng.random()

    # Row 0 faces +y towards the aisle, row 1 faces -y; a space's length
    # axis points at the aisle, so every spot approaches from local x_max.
    rows = (
        (SPACE_LENGTH / 2.0, math.pi / 2.0, 0.0 + PILLAR_RADIUS),
        (SPACE_LENGTH * 1.5 + AISLE, -math.pi / 2.0, 2 * SPACE_LENGTH + AISLE - PILLAR_RADIUS),
    )
    free = {(row, FREE_CANDIDATES[int(rng.random() * 2)]) for row in range(2)}

    spots = []
    obstacles = []
    for row, (cy, heading, pillar_y) in enumerate(rows):
        for i in range(SPACES_PER_ROW):
            cx = (i + 0.5) * SPACE_WIDTH
            if (row, i) in free:
                spots.append(
                    {
                        "id": f"r{row}s{i}",
                        "center": [_r(cx), _r(cy)],
                        "length": SPACE_LENGTH,
                        "width": SPACE_WIDTH,
                        "heading": heading,
                        "approach_side": "x_max",
                    }
                )
                continue
            # Cars beside a free space may lean into it; the rest keep
            # clear of the reach of every free space's footprint.
            beside = (row, i - 1) in free or (row, i + 1) in free
            lateral = LEAN_JITTER if beside else CAR_JITTER
            obstacles.append(
                {
                    "id": f"car_r{row}s{i}",
                    "vertices": _rotated_rect(
                        cx + uniform(-lateral, lateral),
                        cy + uniform(-0.3, 0.3),
                        uniform(4.3, 4.8),
                        uniform(1.75, 1.9),
                        heading + math.radians(uniform(-5.0, 5.0)),
                    ),
                }
            )
        for k in range(0, SPACES_PER_ROW + 1, PILLAR_EVERY):
            obstacles.append(
                {
                    "id": f"pillar_r{row}b{k}",
                    "vertices": _hexagon(
                        k * SPACE_WIDTH, pillar_y, PILLAR_RADIUS, uniform(0.0, math.pi / 3.0)
                    ),
                }
            )
    scenario = {"spots": spots, "obstacles": obstacles, "cabin": CABIN, "vehicle": VEHICLE}
    return json.dumps(scenario, sort_keys=True) + "\n"
