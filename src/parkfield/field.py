"""Composite polygon force field and sampled field maps.

Every polygon contributes the minimum over its edge-line values: for a
convex obstacle that is the penetration depth inside and non-positive
outside; a 2-vertex spot edge carries one signed line, negative over the
spot interior (zero on the edge) and positive beyond it.  The composite
field is the maximum over all polygons.  A ``FieldSet`` compiles its
polygons' lines once and evaluates them with its one kernel,
``FieldSet.eval_many``; ``gamma`` is the scalar form.

The kernel walks its points in equal blocks of at most ``_BLOCK_POINTS``,
and the objective walks its poses the same way, so peak memory does not
grow with the batch.  Per block and polygon, one ``(L, 2) @ (2, n)``
product puts the polygon's line values line-major in a reused buffer, and
the min over lines runs along the long axis.  Each line value is the same
BLAS product the point-major ``pts @ normals.T`` gives, so results are
bit-identical to it; one product over all polygons' lines at once, or an
elementwise ``a*x + b*y + c``, rounds differently.

Every caller, the objective included, passes C-ordered ``(N, 2)`` points,
so each block's ``(2, n)`` operand is the F-ordered transpose.  A
coordinate-major ``(2, N)`` buffer passed through its transposed view
multiplies faster, but it is not bit-identical: a one-line
polygon (a spot edge) sends its product to BLAS gemv, and in that layout
gemv rounds the ``n % 4`` tail points of a block differently when the
line's normal is not axis-aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, GeometryError, finite_number
from .geometry import Point2, Polygon

MAX_FIELD_MAP_CELLS = 10**8

# Points per kernel block: a 6-line polygon's line values take 384 KB, so
# a block's temporaries stay in cache.  One compass-refinement poll (up to
# 18 poses of ~940-1250 samples at the default density) spans 2 to 3 pose
# blocks of the objective.
_BLOCK_POINTS = 8192


def _block_slices(n: int, limit: int):
    """``(lo, hi)`` bounds of equal blocks of at most ``limit`` rows over ``n``.

    Equal blocks never leave a 1-row tail of a larger batch: matmul sends a
    1-point product to BLAS gemv, which rounds differently from gemm.
    """
    blocks = -(-n // limit)
    for b in range(blocks):
        yield n * b // blocks, n * (b + 1) // blocks


class FieldSet:
    """Non-empty collection of field-generating polygons, compiled once.

    Building one compiles each polygon's line normals and offsets.  It
    keeps one scratch buffer for the line values across calls, so an
    instance must not be shared between threads.
    """

    def __init__(self, polygons):
        polygons = tuple(polygons)
        if not polygons:
            raise GeometryError("FieldSet needs at least one polygon")
        self._polygons = polygons
        # Per polygon: (L, 2) line normals and (L, 1) offsets.
        self._lines = [
            (
                np.array([[e.a, e.b] for e in poly.edges]),
                np.array([[e.c] for e in poly.edges]),
            )
            for poly in polygons
        ]
        self._max_lines = max(len(normals) for normals, _ in self._lines)
        # Grown on demand, never per call: a fresh buffer of this size is
        # often mmapped by the allocator, and its page faults cost more
        # than the products it holds.
        self._buf = np.empty(0)

    @property
    def polygons(self) -> tuple[Polygon, ...]:
        return self._polygons

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Composite field at ``pts`` shaped (N, 2)."""
        out = np.empty(len(pts))
        # Flat, so every (L, n_block) view of it is C-contiguous and matmul
        # writes into it through BLAS.
        need = self._max_lines * min(len(pts), _BLOCK_POINTS)
        if len(self._buf) < need:
            self._buf = np.empty(need)
        buf = self._buf
        for lo, hi in _block_slices(len(pts), _BLOCK_POINTS):
            block = pts[lo:hi].T
            dst = out[lo:hi]
            for k, (normals, offsets) in enumerate(self._lines):
                vals = buf[: len(normals) * (hi - lo)].reshape(len(normals), hi - lo)
                np.matmul(normals, block, out=vals)
                vals += offsets
                if k == 0:
                    np.minimum.reduce(vals, axis=0, out=dst)
                else:
                    np.maximum(dst, np.minimum.reduce(vals, axis=0), out=dst)
        return out


CompiledFieldSet = FieldSet  # the name the benchmark's tracer wraps; goes with ROADMAP item 2


def gamma(fields: FieldSet, p: Point2) -> float:
    """Composite field at ``p``: max over polygons of the per-polygon field."""
    return float(fields.eval_many(np.array([[p.x, p.y]]))[0])


@dataclass(frozen=True)
class FieldMap:
    """Field samples on a regular lattice.

    ``values[r][c]`` is the field at ``origin + (c*cell_size, r*cell_size)``;
    the lattice nodes double as marching-squares grid corners, so refining
    the resolution by an integer factor reproduces the coarse nodes exactly.
    """

    origin: Point2
    cell_size: float
    rows: int
    cols: int
    values: np.ndarray

    def __post_init__(self):
        if self.cell_size <= 0:
            raise GeometryError("cell_size must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.rows, self.cols):
            raise GeometryError(
                f"values shape {vals.shape} != ({self.rows}, {self.cols})"
            )
        object.__setattr__(self, "values", vals)

    def to_text(self) -> str:
        """Plain-text grid: one header line, then row-major values."""
        header = (
            f"{self.origin.x!r} {self.origin.y!r} {self.cell_size!r} "
            f"{self.rows} {self.cols}"
        )
        lines = [header]
        for row in self.values:
            lines.append(" ".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "FieldMap":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        ox, oy, cell, rows, cols = lines[0].split()
        rows, cols = int(rows), int(cols)
        values = np.array(
            [[float(v) for v in ln.split()] for ln in lines[1 : 1 + rows]]
        )
        return FieldMap(Point2(float(ox), float(oy)), float(cell), rows, cols, values)


def sample_field(
    fields: FieldSet,
    bounds: tuple[float, float, float, float],
    resolution: float,
) -> FieldMap:
    """Sample the composite field over ``bounds`` = (x_min, y_min, x_max, y_max).

    ``resolution`` is lattice nodes per metre (node spacing 1/resolution);
    the lattice covers the bounds inclusively.  Deterministic.
    """
    x_min, y_min, x_max, y_max = bounds
    if not (x_max > x_min and y_max > y_min):
        raise GeometryError(f"degenerate bounds {bounds}")
    resolution = finite_number("resolution", resolution, 0.0, False)
    cell = 1.0 / resolution
    # Counted in floats first: a huge resolution overflows them to inf.
    cols = np.ceil((x_max - x_min) * resolution) + 1
    rows = np.ceil((y_max - y_min) * resolution) + 1
    if rows * cols > MAX_FIELD_MAP_CELLS:
        raise BudgetError(
            f"field map of {rows:.0f}x{cols:.0f} nodes exceeds {MAX_FIELD_MAP_CELLS}"
        )
    cols, rows = int(cols), int(rows)
    xs = x_min + cell * np.arange(cols)
    ys = y_min + cell * np.arange(rows)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    values = fields.eval_many(pts).reshape(rows, cols)
    return FieldMap(Point2(x_min, y_min), cell, rows, cols, values)
