"""Exception types shared across the package."""


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
