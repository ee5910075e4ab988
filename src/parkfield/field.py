"""Composite polygon force field and sampled field maps.

Every polygon contributes the minimum over its edge-line values: for a
convex obstacle that is the penetration depth inside and non-positive
outside; a 2-vertex spot edge carries one signed line, negative over the
spot interior (zero on the edge) and positive beyond it.  The composite
field is the maximum over all polygons.  A ``FieldSet`` compiles its
polygons' lines once and evaluates them with its one kernel,
``FieldSet.eval_many``; ``gamma`` is the scalar form.

The kernel takes a batch of points as an x row and a y row, and walks them
in equal blocks of at most ``_BLOCK_POINTS``, as the objective walks its
poses, so peak memory does not grow with the batch.  Its values are
bit-identical to the point-major ``pts @ normals.T + offsets`` per polygon,
for finite points and up to the sign of an exact zero.  There are two kinds
of polygon:

- An axis polygon has only lines whose normal is exactly ``(±1, 0)`` or
  ``(0, ±1)``; in its own frame a spot edge is one, and so is an upright
  box.  Each line is ``x + c`` or ``c - x``, one ufunc pass over a row.
  BLAS's ``±1*x + 0*y`` is exactly ``±x`` whether or not it fuses the
  multiply-add, so adding ``c`` rounds the same.  Only the sign of an exact
  zero can differ: ``-0.0 + -0.0`` is ``-0.0`` here but ``(-0.0 + 0.0) + -0.0``
  is ``+0.0`` in BLAS, and no sum with a nonzero term can see that.
- Every other polygon keeps one ``(L, 2) @ (2, n)`` BLAS product per block.
  Its operand is the F-ordered transpose of a C-ordered ``(n, 2)`` copy of
  the block, made once per block and only for a set holding such a polygon.
  BLAS may fuse one of the two products into the add (OpenBLAS 0.3.31 with
  its Haswell kernels rounds gemv as ``fma(a, x, b*y)`` and gemm as
  ``fma(b, y, a*x)``), and numpy has no fused multiply-add to reproduce
  either; handed the rows themselves, gemv rounds a one-line polygon's
  ``n % 4`` tail points differently.

Minimum and maximum are exact, so their order is free: each polygon's
minimum over its lines is taken pairwise into one row (the first polygon's
straight into the output), then the maximum with the output.

``FieldSet.eval_lattice`` evaluates the same field at every point of a
sample row pair shifted by every pair of an x-shift list and a y-shift
list: one heading of a pose lattice.  An axis x line's value at a shifted
sample, ``(x_i + X) + c`` or ``c - (x_i + X)``, depends on the shift only
through X, and a y line's only through Y.  So each x line is evaluated
once per X and each y line once per Y, into side rows: per X, the maximum
over the one-line polygons along x (the spot edges x = const) and, per
upright box, the minimum over its x lines; per Y, the same for y.  Each
point is then ``max(EX[j], EY[k], min(BX[j], BY[k]), ...)``, and the
general polygons, a sub-set of their own, take the shifted points through
``eval_many``.  Every line value, minimum and maximum is the operation
``eval_many`` does, so the values are the same bits up to the sign of an
exact zero.  The work runs in tiles of shifts whose values hold at most
``_TILE_POINTS`` points, in scratch kept across calls: the x side rows of
a tile's shifts are made once and serve every y tile after them.
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
# Points per lattice tile of ``FieldSet.eval_lattice``.
_TILE_POINTS = 2 * _BLOCK_POINTS


def _block_slices(n: int, limit: int):
    """``(lo, hi)`` bounds of equal blocks of at most ``limit`` rows over ``n``.

    Equal blocks never leave a 1-row tail of a larger batch: matmul sends a
    1-point product to BLAS gemv, which rounds differently from gemm.
    """
    blocks = -(-n // limit)
    for b in range(blocks):
        yield n * b // blocks, n * (b + 1) // blocks


def _axis_lines(edges) -> tuple | None:
    """``(coordinate, positive, offset)`` per line, or None if any line's
    normal is not exactly ``(±1, 0)`` or ``(0, ±1)``.

    No tolerance: a normal one bit off an axis rounds differently from
    ``x + c``, so its polygon keeps the product.
    """
    lines = []
    for e in edges:
        if e.b == 0 and abs(e.a) == 1:
            lines.append((0, e.a > 0, e.c))
        elif e.a == 0 and abs(e.b) == 1:
            lines.append((1, e.b > 0, e.c))
        else:
            return None
    return tuple(lines)


class FieldSet:
    """Non-empty collection of field-generating polygons, compiled once.

    Building one compiles each polygon's lines: axis triples when every
    line is axis-aligned, else its line normals and offsets.  ``has_axis``
    tells whether any polygon is an axis polygon, which ``eval_lattice``
    needs.  It keeps scratch buffers across calls, so an instance must not
    be shared between threads.
    """

    def __init__(self, polygons):
        polygons = tuple(polygons)
        if not polygons:
            raise GeometryError("FieldSet needs at least one polygon")
        self._polygons = polygons
        # Per polygon: its axis triples, or None and its (L, 2) line normals
        # and (L, 1) offsets.
        self._lines = []
        for poly in polygons:
            axis = _axis_lines(poly.edges)
            normals = None if axis else np.array([[e.a, e.b] for e in poly.edges])
            offsets = None if axis else np.array([[e.c] for e in poly.edges])
            self._lines.append((axis, normals, offsets))
        # Scratch rows per block point: the 2 rows of BLAS's point-major copy
        # of the block when any polygon is general, then work rows shared by
        # the polygons in turn: an axis polygon's running minimum and one
        # line, or a general polygon's line values.
        has_axis = any(axis is not None for axis, _, _ in self._lines)
        general = max((len(n) for _, n, _ in self._lines if n is not None), default=0)
        self._copy_rows = 2 if general else 0
        self._rows = self._copy_rows + max(2 if has_axis else 0, general)
        # Grown on demand, never per call: a fresh buffer of this size is
        # often mmapped by the allocator, and its page faults cost more
        # than the products it holds.  Held in a list that the general
        # sub-set below shares: its kernel runs only inside this set's
        # lattice entry, never during this set's own kernel.
        self._buf = [np.empty(0)]
        # The lattice form of the axis polygons: per coordinate, the line of
        # each one-line polygon (a spot edge) along it; per upright box, its
        # lines of each coordinate.  The other polygons form a sub-set of
        # their own, which ``eval_many`` evaluates.
        self._single = ([], [])
        self._boxes = []
        general = []
        for poly, (axis, _, _) in zip(polygons, self._lines):
            sides = axis and tuple(
                tuple(line[1:] for line in axis if line[0] == coord) for coord in (0, 1)
            )
            if axis and len(axis) == 1:
                self._single[axis[0][0]].append(axis[0][1:])
            elif axis and all(sides):
                self._boxes.append(sides)
            else:
                general.append(poly)
        self.has_axis = len(general) < len(polygons)
        self._general = FieldSet(general) if general and self.has_axis else None
        if self._general is not None:
            self._general._buf = self._buf
        self._lattice_buf = np.empty(0)

    @property
    def polygons(self) -> tuple[Polygon, ...]:
        return self._polygons

    def eval_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Composite field at the points ``(x[i], y[i])``.

        ``x`` and ``y`` are equal-length 1-D arrays of any stride.
        """
        out = np.empty(len(x))
        need = self._rows * min(len(x), _BLOCK_POINTS)
        if len(self._buf[0]) < need:
            self._buf[0] = np.empty(need)
        buf = self._buf[0]
        for lo, hi in _block_slices(len(x), _BLOCK_POINTS):
            n = hi - lo
            xy = (x[lo:hi], y[lo:hi])
            # Flat, so every (L, n) view of it is C-contiguous and matmul
            # writes into it through BLAS.
            work = buf[self._copy_rows * n : self._rows * n].reshape(-1, n)
            if self._copy_rows:
                # BLAS's operand is the transpose of this C-ordered copy.
                pts = buf[: 2 * n].reshape(n, 2)
                pts[:, 0], pts[:, 1] = xy
            dst = out[lo:hi]
            # The first polygon's minimum goes straight into ``dst``; each
            # later one's into a work row, then the max into ``dst``.
            for k, (axis, normals, offsets) in enumerate(self._lines):
                if axis is not None:
                    acc = dst if k == 0 else work[0]
                    for j, (coord, positive, c) in enumerate(axis):
                        line = acc if j == 0 else work[1]
                        if positive:
                            np.add(xy[coord], c, out=line)
                        else:
                            np.subtract(c, xy[coord], out=line)
                        if j:
                            np.minimum(acc, line, out=acc)
                else:
                    one = k == 0 and len(normals) == 1
                    vals = dst[None] if one else work[: len(normals)]
                    np.matmul(normals, pts.T, out=vals)
                    vals += offsets
                    acc = dst if k == 0 else vals[0]
                    for j in range(1, len(normals)):
                        np.minimum(vals[0] if j == 1 else acc, vals[j], out=acc)
                if k:
                    np.maximum(dst, acc, out=dst)
        return out

    def eval_lattice(self, x: np.ndarray, y: np.ndarray, xs: np.ndarray, ys: np.ndarray):
        """Composite field at ``(x[i] + xs[j], y[i] + ys[k])`` for every j, k, i.

        For a set with an axis polygon.  Yields ``(j, k, values)`` tile by
        tile: ``values[a, b, i]`` is the field at
        ``(x[i] + xs[j + a], y[i] + ys[k + b])``, in scratch that the next
        tile overwrites.  A tile's values hold at most ``_TILE_POINTS``
        points, or one ``(x, y)`` row pair if that is more.
        """
        n = len(x)
        poses = max(1, _TILE_POINTS // n)
        tx = min(len(xs), poses)
        ty = min(len(ys), max(1, poses // tx))
        # Side rows per shift: the shifted coordinate when the general
        # polygons need the posed points, the one-line polygons' maximum,
        # and each box's minimum.
        depth = [
            (self._general is not None) + bool(self._single[c]) + len(self._boxes)
            for c in (0, 1)
        ]
        ends = np.cumsum([0, depth[0] * tx, depth[1] * ty, tx * ty, tx * ty]) * n
        if len(self._lattice_buf) < ends[-1]:
            self._lattice_buf = np.empty(ends[-1])
        side_x, side_y, vals, work = (
            self._lattice_buf[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])
        )
        side_x = side_x.reshape(depth[0], tx, n)
        side_y = side_y.reshape(depth[1], ty, n)
        for j0, j1 in _block_slices(len(xs), tx):
            xr = side_x[:, : j1 - j0]
            # A side's temporary rows are the tile's, which are free until
            # the tile is composed.
            self._side(0, x, xs[j0:j1], xr, vals, work)
            for k0, k1 in _block_slices(len(ys), ty):
                yr = side_y[:, : k1 - k0]
                self._side(1, y, ys[k0:k1], yr, vals, work)
                shape = (j1 - j0, k1 - k0, n)
                size = shape[0] * shape[1] * n
                out = vals[:size].reshape(shape)
                self._compose(xr, yr, out, work[:size].reshape(shape))
                yield j0, k0, out

    def _side(self, coord, r, shifts, rows, vals, work):
        """The side rows of coordinate ``coord`` at ``r + shifts[t]`` per
        shift ``t``, with ``vals`` and ``work`` as scratch."""
        shape = (len(shifts), len(r))
        temp = [buf[: shape[0] * shape[1]].reshape(shape) for buf in (vals, work)]
        k = int(self._general is not None)
        p = rows[0] if k else temp[0]
        np.add(r, shifts[:, None], out=p)
        if self._single[coord]:
            _fold(np.maximum, p, self._single[coord], rows[k], temp[1])
            k += 1
        for b, box in enumerate(self._boxes):
            _fold(np.minimum, p, box[coord], rows[k + b], temp[1])

    def _compose(self, xr, yr, out, work):
        """``out[a, b]``: the field at the points of X side ``a`` and Y side
        ``b``; ``work`` is scratch of the same shape."""
        acc = None  # the running maximum: an operand, or ``out`` once written

        def fold(term):
            nonlocal acc
            acc = term if acc is None else np.maximum(acc, term, out=out)

        k = [int(self._general is not None)] * 2
        if self._general is not None:
            # The posed points, through the point-major kernel.
            np.copyto(work, xr[0][:, None])
            np.copyto(out, yr[0][None])
            fold(self._general.eval_many(work.reshape(-1), out.reshape(-1)).reshape(out.shape))
        if self._single[0]:
            fold(xr[k[0]][:, None])
            k[0] += 1
        if self._single[1]:
            fold(yr[k[1]][None])
            k[1] += 1
        for b in range(len(self._boxes)):
            bx, by = xr[k[0] + b][:, None], yr[k[1] + b][None]
            fold(np.minimum(bx, by, out=out if acc is None else work))
        if acc is not out:
            np.copyto(out, acc)


def _fold(op, p, lines, out, temp):
    """``op``, minimum or maximum, over the axis ``lines`` at the
    coordinates ``p``, into ``out``."""
    for j, (positive, c) in enumerate(lines):
        line = out if j == 0 else temp
        if positive:
            np.add(p, c, out=line)
        else:
            np.subtract(c, p, out=line)
        if j:
            op(out, line, out=out)


CompiledFieldSet = FieldSet  # the name the benchmark's tracer wraps; goes with ROADMAP item 2


def gamma(fields: FieldSet, p: Point2) -> float:
    """Composite field at ``p``: max over polygons of the per-polygon field."""
    return float(fields.eval_many(np.array([p.x]), np.array([p.y]))[0])


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
    values = fields.eval_many(gx.ravel(), gy.ravel()).reshape(rows, cols)
    return FieldMap(Point2(x_min, y_min), cell, rows, cols, values)
