"""Exception types shared across the package and the number check that
raises one at the offending path."""

import math
import numbers


class ParkfieldError(Exception):
    """Base class for all parkfield errors."""


class GeometryError(ParkfieldError, ValueError):
    """Invalid geometric input (degenerate edge, non-convex obstacle, ...)."""


class ScenarioError(ParkfieldError, ValueError):
    """Scenario file violates the documented schema.

    ``path`` points at the offending field, e.g. ``spots[1].corners``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class InfeasibleSpotError(ParkfieldError, ValueError):
    """The vehicle body cannot fit in the spot in any allowed orientation."""

    def __init__(self, spot_id: str, message: str):
        self.spot_id = spot_id
        super().__init__(f"spot '{spot_id}': {message}")


class BudgetError(ParkfieldError, RuntimeError):
    """A sampling or search request exceeds the hard evaluation budget."""


def finite_number(path: str, value, low=-math.inf, inclusive=True, high=math.inf) -> float:
    """``value`` as a float after checking it is a finite number above ``low``
    and at most ``high``.

    Booleans are not numbers here.  Raises ``ScenarioError`` at ``path``, so
    a reader of a scenario, a config or a flag can name what is wrong.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(path, f"must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not (math.isfinite(number) and low <= number <= high) or (number == low and not inclusive):
        bound = "" if low == -math.inf else f" {'>=' if inclusive else '>'} {low:g}"
        bound += "" if high == math.inf else f"{' and' if bound else ''} <= {high:g}"
        raise ScenarioError(path, f"must be a finite number{bound}, got {number!r}")
    return number
