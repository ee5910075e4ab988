"""Composite polygon force field and sampled field maps.

Every polygon contributes the minimum over its edge-line values: for a
convex obstacle that is the penetration depth inside and non-positive
outside; a 2-vertex spot edge carries one signed line, negative over the
spot interior (zero on the edge) and positive beyond it.  The composite
field is the maximum over all polygons.  A ``FieldSet`` compiles its
polygons once into one axis form, in which a line whose normal is exactly
``(±1, 0)`` or ``(0, ±1)`` is ``x + c`` or ``c - x`` of one coordinate:

- per coordinate, the lines of the one-line polygons (in its own frame a
  spot edge is one) along it, whose maximum is EX or EY;
- per upright box, its lines of each coordinate, whose minima are BX, BY;
- the general part, every other polygon, with one ``(L, 2) @ (2, n)`` BLAS
  product per polygon and block.  Its operand is the F-ordered transpose
  of a C-ordered ``(n, 2)`` copy of the block: BLAS may fuse one of the
  two products into the add (OpenBLAS 0.3.31 with its Haswell kernels
  rounds gemv as ``fma(a, x, b*y)`` and gemm as ``fma(b, y, a*x)``), and,
  handed the rows themselves, gemv rounds a one-line polygon's ``n % 4``
  tail points differently.  A set of general polygons only holds their
  normals and offsets; any other set holds a general-only sub-set.

The field is ``max(general, EX, EY, min(BX, BY) per box)``, and three
entries fold it with one helper, ``_fold``.  ``FieldSet.eval_many`` takes
the points ``(x[i], y[i])`` as an x row and a y row, in equal blocks of at
most ``_BLOCK_POINTS`` so peak memory does not grow with the batch, and
folds each term into the block's output as it is made.
``FieldSet.eval_lattice`` takes a sample row pair shifted by every pair of
an x-shift list and a y-shift list (one heading of a pose lattice): an x
line's value at ``x_i + X`` depends on the shift only through X, so EX and
each BX are made once per X into side rows, EY and each BY once per Y, and
composed per point; the general part sees the shifted points.  It works in
tiles of shifts whose values hold at most ``_TILE_POINTS`` points, in
scratch kept across calls.  ``FieldSet.eval_grid`` is the lattice of the
one sample ``(0, 0)``: a field map's nodes.

The values are bit-identical to the point-major ``pts @ normals.T +
offsets`` per polygon, for finite points and up to the sign of an exact
zero.  BLAS's ``±1*x + 0*y`` is exactly ``±x`` whether or not it fuses
the multiply-add, so adding ``c`` rounds the same; minimum and maximum are
exact, so their order is free.  Only zeros can differ: ``-0.0 + -0.0`` is
``-0.0`` here but ``(-0.0 + 0.0) + -0.0`` is ``+0.0`` in BLAS, and a grid
node at ``0.0 + -0.0`` is ``+0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, GeometryError, finite_number
from .geometry import Point2, Polygon

MAX_FIELD_MAP_CELLS = 10**8

# Points per kernel block.  Sized for a 2 MB per-core L2 cache: a block's
# working set is its x, y and output rows plus the set's scratch rows, 2
# per point for the axis form and 2 plus the longest general polygon's
# line count otherwise, kept across calls; for a parking scene's polygons
# (up to 6 lines) that is 40 to 88 bytes per point, 0.6 to 1.4 MB.  A
# compass-refinement round (up to 18 poses of ~940-1250 samples at the
# default density per live start) spans one to four pose blocks of the
# objective.
_BLOCK_POINTS = 16384
# Points per lattice tile of ``FieldSet.eval_lattice``.  A tile's values
# and its work rows take 16 bytes per point, 1 MB; its side rows hold one
# row per x shift and per y shift only, so a tile larger than a block
# mostly saves per-tile calls.
_TILE_POINTS = 65536


def _block_slices(n: int, limit: int):
    """``(lo, hi)`` bounds of equal blocks of at most ``limit`` rows over ``n``.

    Equal blocks never leave a 1-row tail of a larger batch: matmul sends a
    1-point product to BLAS gemv, which rounds differently from gemm.
    """
    blocks = -(-n // limit)
    for b in range(blocks):
        yield n * b // blocks, n * (b + 1) // blocks


def _axis_sides(edges) -> tuple | None:
    """Per coordinate, x then y, the ``(positive, offset)`` of each line
    along it, or None if any line's normal is not exactly ``(±1, 0)`` or
    ``(0, ±1)``.

    No tolerance: a normal one bit off an axis rounds differently from
    ``x + c``, so its polygon keeps the product.
    """
    sides = ([], [])
    for e in edges:
        if e.b == 0 and abs(e.a) == 1:
            sides[0].append((e.a > 0, e.c))
        elif e.a == 0 and abs(e.b) == 1:
            sides[1].append((e.b > 0, e.c))
        else:
            return None
    return sides


class FieldSet:
    """Non-empty collection of field-generating polygons, compiled once
    into the axis form.

    ``has_axis`` tells whether any polygon is outside the general part.  A
    set keeps scratch buffers across calls, so an instance must not be
    shared between threads.
    """

    def __init__(self, polygons):
        polygons = tuple(polygons)
        if not polygons:
            raise GeometryError("FieldSet needs at least one polygon")
        self._polygons = polygons
        self._single = ([], [])
        self._boxes = []
        general = []
        for poly in polygons:
            sides = _axis_sides(poly.edges)
            if sides and len(poly.edges) == 1:
                coord = 0 if sides[0] else 1
                self._single[coord].append(sides[coord][0])
            elif sides and all(sides):
                self._boxes.append(sides)
            else:
                general.append(poly)
        self.has_axis = len(general) < len(polygons)
        # A general-only set's (L, 2) line normals and (L, 1) offsets per
        # polygon; any other set's general polygons form a sub-set.
        self._lines = [] if self.has_axis else [
            (np.array([[e.a, e.b] for e in p.edges]), np.array([[e.c] for e in p.edges]))
            for p in polygons
        ]
        self._general = FieldSet(general) if general and self.has_axis else None
        # Scratch rows per block point: 2 for BLAS's point-major copy of the
        # block, then one general polygon's line values; the axis form
        # needs 2, a box's running minimum and one line.  Grown on demand,
        # never per call: a fresh buffer of this size is often mmapped by
        # the allocator, and its page faults cost more than the products it
        # holds.  Held in a list that the general sub-set shares: it runs
        # on this set's blocks, or in its lattice entry, never beside them.
        part = self._general_part()
        self._rows = 2 + (max(len(n) for n, _ in part._lines) if part else 0)
        self._buf = [np.empty(0)]
        if self._general is not None:
            self._general._buf = self._buf
        self._lattice_buf = np.empty(0)

    @property
    def polygons(self) -> tuple[Polygon, ...]:
        return self._polygons

    def _general_part(self):
        """The set that evaluates the general polygons, or None: this set
        when it holds nothing else, else its sub-set.  Not stored, so that
        no set refers to itself."""
        return self if self._lines else self._general

    def eval_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Composite field at the points ``(x[i], y[i])``.

        ``x`` and ``y`` are equal-length 1-D arrays of any stride.
        """
        out = np.empty(len(x))
        need = self._rows * min(len(x), _BLOCK_POINTS)
        if len(self._buf[0]) < need:
            self._buf[0] = np.empty(need)
        buf = self._buf[0]
        general = self._general_part()
        for lo, hi in _block_slices(len(x), _BLOCK_POINTS):
            n = hi - lo
            xy, dst = (x[lo:hi], y[lo:hi]), out[lo:hi]
            # The paired case of the lattice fold: the maximum over the
            # general part, EX, EY and min(BX, BY) per box, each term folded
            # into ``dst`` (or written there first) as it is made.
            filled = general is not None
            if filled:
                general._products(xy, dst, buf)
            acc, temp = buf[: 2 * n].reshape(2, n)
            for coord, lines in enumerate(self._single):
                if lines:
                    _fold(np.maximum, xy[coord], lines, dst, temp, filled)
                    filled = True
            for box in self._boxes:
                row = acc if filled else dst
                for coord in (0, 1):
                    _fold(np.minimum, xy[coord], box[coord], row, temp, coord)
                if filled:
                    np.maximum(dst, row, out=dst)
                filled = True
        return out

    def _products(self, xy, dst, buf):
        """The field of a general-only set at one block's points ``xy``,
        into ``dst``: one BLAS product per polygon, ``buf`` as scratch."""
        n = len(dst)
        # Flat, so every (L, n) view of it is C-contiguous and matmul writes
        # into it through BLAS; BLAS's operand is the transpose of the
        # C-ordered copy ``pts``.
        pts = buf[: 2 * n].reshape(n, 2)
        pts[:, 0], pts[:, 1] = xy
        work = buf[2 * n : self._rows * n].reshape(-1, n)
        # The first polygon's minimum goes straight into ``dst``; each later
        # one's into a work row, then the max into ``dst``.
        for k, (normals, offsets) in enumerate(self._lines):
            one = k == 0 and len(normals) == 1
            vals = dst[None] if one else work[: len(normals)]
            np.matmul(normals, pts.T, out=vals)
            vals += offsets
            acc = dst if k == 0 else vals[0]
            for j in range(1, len(normals)):
                np.minimum(vals[0] if j == 1 else acc, vals[j], out=acc)
            if k:
                np.maximum(dst, acc, out=dst)

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Composite field at ``(xs[c], ys[r])`` as ``values[r, c]``: the
        lattice of the one sample ``(0, 0)``."""
        values = np.empty((len(ys), len(xs)))
        zero = np.zeros(1)
        for j, k, tile in self.eval_lattice(zero, zero, xs, ys):
            values[k : k + tile.shape[1], j : j + tile.shape[0]] = tile[..., 0].T
        return values

    def eval_lattice(self, x: np.ndarray, y: np.ndarray, xs: np.ndarray, ys: np.ndarray):
        """Composite field at ``(x[i] + xs[j], y[i] + ys[k])`` for every j, k, i.

        Yields ``(j, k, values)`` tile by tile: ``values[a, b, i]`` is the
        field at ``(x[i] + xs[j + a], y[i] + ys[k + b])``, in scratch that
        the next tile overwrites.  A tile's values hold at most
        ``_TILE_POINTS`` points, or one ``(x, y)`` row pair if that is more.
        """
        n = len(x)
        poses = max(1, _TILE_POINTS // n)
        tx = min(len(xs), poses)
        ty = min(len(ys), max(1, poses // tx))
        # Side rows per shift: the shifted coordinate when the general
        # polygons need the posed points, the one-line polygons' maximum,
        # and each box's minimum.
        general = self._general_part() is not None
        depth = [general + bool(self._single[c]) + len(self._boxes) for c in (0, 1)]
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
        k = int(self._general_part() is not None)
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

        general = self._general_part()
        k = [int(general is not None)] * 2
        if general is not None:
            # The posed points, through the general-only kernel.
            np.copyto(work, xr[0][:, None])
            np.copyto(out, yr[0][None])
            fold(general.eval_many(work.reshape(-1), out.reshape(-1)).reshape(out.shape))
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


def _fold(op, p, lines, out, temp, held=False):
    """``op``, minimum or maximum, over the axis ``lines`` at the
    coordinates ``p``, into ``out``; with ``held``, over the value that
    ``out`` holds too."""
    for positive, c in lines:
        line = temp if held else out
        if positive:
            np.add(p, c, out=line)
        else:
            np.subtract(c, p, out=line)
        if held:
            op(out, line, out=out)
        held = True


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
    values = fields.eval_grid(x_min + cell * np.arange(cols), y_min + cell * np.arange(rows))
    return FieldMap(Point2(x_min, y_min), cell, rows, cols, values)
