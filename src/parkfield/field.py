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
- the general part, every other polygon: per block, each of its lines as
  ``(a*x + b*y) + c`` by numpy ufuncs, one IEEE rounding per operation,
  and their minimum.  No BLAS and no fused multiply-add (a tier-1 check of
  the package's syntax keeps BLAS calls out), so the bits do not depend on
  which kernels the CPU offers.  A set holds the ``(a, b, c)`` of
  its general polygons' lines itself, none if it has none.

The field is ``max(general, EX, EY, min(BX, BY) per box)``, and three
entries fold it with one helper, ``_fold``.  ``FieldSet.eval_many`` takes
the points ``(x[i], y[i])`` as an x row and a y row, in equal blocks of at
most ``_BLOCK_POINTS`` so peak memory does not grow with the batch, and
folds each term into the block's output as it is made.
``FieldSet.eval_lattice`` takes a sample row pair shifted by every pair of
an x-shift list and a y-shift list (one heading of a pose lattice): an x
line's value at ``x_i + X`` depends on the shift only through X, so EX and
each BX are made once per X into side rows, EY and each BY once per Y, and
composed per point; the general part sees the shifted points, through
``eval_many``'s ``lines`` entry, and writes its values over the tile's y
row.  It works in tiles of about as many x shifts as y shifts, in
scratch of the call.
``FieldSet.eval_nodes`` takes the same row pair at some nodes of such a
lattice only: it makes the side rows once per distinct X and Y of a block
of them, and composes each node from them by row gathers.  Both hold at
most ``_TILE_POINTS`` points of values or side rows at a time, half that
beside a general part.
``FieldSet.eval_grid`` is the lattice of the one sample ``(0, 0)``: a
field map's nodes, which ``FieldMap.fold`` takes band by band.

The values are bit-identical to the point-major ``(x*a + y*b) + c`` per
line, the minimum per polygon and the maximum over polygons, for finite
points and up to the sign of an exact zero.  An axis line's ``±1*x +
0*y`` is exactly ``±x`` up to the sign of a zero, so adding ``c`` rounds
as ``x + c`` or ``c - x`` does; minimum and maximum are exact, so their
order is free.  Only zeros can differ: ``-0.0 + -0.0`` is ``-0.0`` in the
axis form but ``(-0.0 + 0.0) + -0.0`` is ``+0.0`` as a line, and a grid
node at ``0.0 + -0.0`` is ``+0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, GeometryError, finite_number
from .geometry import Point2, Polygon

MAX_FIELD_MAP_CELLS = 10**8

# Points per kernel block.  Sized for a 2 MB per-core L2 cache: a block's
# working set is its x, y and output rows plus the set's scratch rows, 2
# per point for the axis form and 4 beside general polygons, kept across
# calls: 40 or 56 bytes per point, 0.66 or 0.92 MB.  A compass-refinement
# round (up to 18 poses of ~940-1250 samples at the default density per
# live start) spans one to four pose blocks of the objective.
_BLOCK_POINTS = 16384
# Points per lattice tile of ``FieldSet.eval_lattice`` and side-row points
# per block pair of ``FieldSet.eval_nodes``.  A tile's values and its work
# rows take 16 bytes per point, 1 MB; its side rows hold one row per x
# shift and per y shift only, so a tile larger than a block mostly saves
# per-tile calls.  The node entry composes its nodes in the caller's
# scratch, a kernel block at a time, so its side rows, 512 KB, are all the
# memory it holds of its own; the nodes that a bounded scan picks at one
# heading share their shifts (about 0.27 distinct x or y shifts per node
# on the goldens at a 0.05 m pitch), and 24 of a goldens oracle pass's 44
# calls fit one block pair.  A set with general polygons takes half as
# many points in both (a tile's rows 512 KB, side rows 256 KB), beside its
# block scratch, 512 KB.
_TILE_POINTS = 65536


def _block_slices(n: int, limit: int):
    """``(lo, hi)`` bounds of equal blocks of at most ``limit`` rows over ``n``.

    Equal blocks never leave a small tail of a larger batch, which would
    pay a block's per-call costs for a few points.
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
    into the axis form and the general part.

    A set keeps scratch buffers across calls, so an instance must not be
    shared between threads.
    """

    def __init__(self, polygons):
        polygons = tuple(polygons)
        if not polygons:
            raise GeometryError("FieldSet needs at least one polygon")
        self._polygons = polygons
        self._single = ([], [])
        self._boxes = []
        # The ``(a, b, c)`` lines of each general polygon.
        self._lines = []
        # Each polygon's lines, read once: a polygon makes them on access.
        lines = [p.edges for p in polygons]
        for edges in lines:
            sides = _axis_sides(edges)
            if sides and len(edges) == 1:
                coord = 0 if sides[0] else 1
                self._single[coord].append(sides[coord][0])
            elif sides and all(sides):
                self._boxes.append(sides)
            else:
                self._lines.append(edges)
        # The largest offset magnitude of any line, which bounds the
        # rounding of a line's value with the coordinates' magnitudes.
        self._scale = max(abs(e.c) for edges in lines for e in edges)
        # The ``(|a|, |b|)`` of the general lines, each pair once: the
        # translation norm's terms besides the axis lines'.
        self._slopes = sorted({(abs(a), abs(b)) for edges in self._lines for a, b, _ in edges})
        # Scratch rows per block point: the axis form needs 2, a box's
        # running minimum and one line; the general part 4, a polygon's
        # running minimum, a line, its ``b*y`` and the ``lines`` entry's
        # copy of y.  Grown on demand, never per call: a fresh buffer of
        # this size is often mmapped by the allocator, and its page faults
        # cost more than the products it holds.
        self._rows = 4 if self._lines else 2
        self._buf = np.empty(0)
        # The lattice and node entries' budget of points, and their side
        # rows per shift of each coordinate: the one-line polygons' maximum
        # and each box's minimum.
        self._tile_points = _TILE_POINTS // 2 if self._lines else _TILE_POINTS
        self._depth = [bool(self._single[c]) + len(self._boxes) for c in (0, 1)]

    @property
    def polygons(self) -> tuple[Polygon, ...]:
        return self._polygons

    def _scratch(self, n: int) -> np.ndarray:
        """The block scratch, grown to hold a block of ``n`` points or a
        whole block."""
        need = self._rows * min(n, _BLOCK_POINTS)
        if len(self._buf) < need:
            self._buf = np.empty(need)
        return self._buf

    def shift_norm(self, dx, dy) -> np.ndarray:
        """The set's translation norm ``N(dx, dy) = max(dx, dy, |a|*dx +
        |b|*dy per general line)`` at the non-negative arrays ``dx`` and
        ``dy``, broadcast.

        A translation by ``(±dx, ±dy)`` moves each line's value by ``|a*dx +
        b*dy|``, at most ``|a|*dx + |b|*dy`` (an axis line's by ``dx`` or
        ``dy``), and minima and maxima of values that each move by at most
        N move by at most N, so the exact field does too.  No line needs a
        unit normal.

        Rounding: computed, N is within three units of ``2**-53`` of itself
        of the exact N (two products and their sum), and a computed line
        value, with ``|a|`` and ``|b|`` at most 1 as an edge line's are,
        within three units of ``2**-53`` of ``|x| + |y| + |c|`` of the
        exact one.  So between two points whose ``|x| + |y|`` plus the set's
        largest ``|c|`` is at most S, the computed field moves by at most
        the computed N plus ``2**-49 * S``.
        """
        norm = np.maximum(dx, dy)
        for a, b in self._slopes:
            np.maximum(norm, a * dx + b * dy, out=norm)
        return norm

    def eval_many(self, x: np.ndarray, y: np.ndarray, *, out=None, lines=None) -> np.ndarray:
        """Composite field at the points ``(x[i], y[i])``, into ``out`` if given.

        ``x`` and ``y`` are equal-length 1-D arrays of any stride.  Given ``lines``,
        a non-empty list of entries of ``_lines``, the call evaluates only
        those general polygons, with no axis form, and may write over
        ``y``: each block copies its y first.
        """
        if out is None:
            out = np.empty(len(x))
        buf = self._scratch(len(x))
        for lo, hi in _block_slices(len(x), _BLOCK_POINTS):
            n = hi - lo
            xy, dst = (x[lo:hi], y[lo:hi]), out[lo:hi]
            if lines is not None:
                held = buf[3 * n : 4 * n]
                np.copyto(held, xy[1])
                self._products((xy[0], held), dst, buf, lines)
                continue
            # The paired case of the lattice fold: the maximum over the
            # general polygons, EX, EY and min(BX, BY) per box, each term
            # folded into ``dst`` (or written there first) as it is made.
            filled = bool(self._lines)
            if filled:
                self._products(xy, dst, buf, self._lines)
            acc, temp = buf[: 2 * n].reshape(2, n)
            for coord, single in enumerate(self._single):
                if single:
                    _fold(np.maximum, xy[coord], single, dst, temp, filled)
                    filled = True
            for sides in self._boxes:
                row = acc if filled else dst
                for coord in (0, 1):
                    _fold(np.minimum, xy[coord], sides[coord], row, temp, coord)
                if filled:
                    np.maximum(dst, row, out=dst)
                filled = True
        return out

    def _products(self, xy, dst, buf, lines):
        """The field of the general polygons ``lines`` at one block's
        points ``xy``, into ``dst``: each line as ``(a*x + b*y) + c``, one
        rounding per ufunc, with the first 3 rows of ``buf`` as scratch."""
        x, y = xy
        acc, line, term = buf[: 3 * len(dst)].reshape(3, -1)
        # The first polygon's minimum goes straight into ``dst``; each later
        # one's into ``acc``, then the max into ``dst``.
        for k, polygon in enumerate(lines):
            low = acc if k else dst
            for j, (a, b, c) in enumerate(polygon):
                value = line if j else low
                np.multiply(x, a, out=value)
                np.multiply(y, b, out=term)
                value += term
                value += c
                if j:
                    np.minimum(low, value, out=low)
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
        ``_tile_points`` points, or one ``(x, y)`` row pair if that is more.
        """
        n = len(x)
        poses = max(1, self._tile_points // n)
        # About as many x shifts as y shifts: of the tiles of a size, the
        # square one has the fewest side rows to make.
        tx = min(len(xs), math.isqrt(poses))
        ty = min(len(ys), max(1, poses // tx))
        depth = self._depth
        ends = np.cumsum([0, depth[0] * tx, depth[1] * ty, tx * ty, tx * ty]) * n
        # Scratch of this call only: a solve's lattice pass comes before its
        # refinement, whose blocks then reuse the memory.
        buf = np.empty(ends[-1])
        side_x, side_y, vals, work = (buf[lo:hi] for lo, hi in zip(ends[:-1], ends[1:]))
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
                out, temp = vals[:size].reshape(shape), work[:size].reshape(shape)
                if self._lines:
                    # The posed points, through the general polygons' entry,
                    # which writes its values over their y.
                    np.add(x, xs[j0:j1, None, None], out=temp)
                    np.add(y, ys[k0:k1, None], out=out)
                    flat = out.reshape(-1)
                    self.eval_many(temp.reshape(-1), flat, out=flat, lines=self._lines)
                self._compose(xr, yr, out, temp, bool(self._lines))
                yield j0, k0, out

    def eval_nodes(self, x, y, xs, ys, i, j, scratch):
        """Composite field at ``(x[t] + xs[i[n]], y[t] + ys[j[n]])`` for
        each node ``n`` of the index arrays ``i`` and ``j``, in any order.

        Yields ``(nodes, values)``: ``values[a, t]`` is the field at node
        ``nodes[a]``, in the last of the three equal rows of ``scratch``,
        the caller's 1-D array of at least ``3 * len(x)`` points, which the
        next values overwrite.  The distinct x shifts and y shifts go in
        blocks (``_rank_blocks``) whose side rows, made by ``_side`` once
        per shift of a block, hold at most ``_tile_points`` points, in
        scratch of the call; each x block's rows serve all its nodes.  Each
        node is composed from gathered copies of its rows by ``_compose``'s
        operations, and the general part sees the posed points as in
        ``eval_lattice``, so the values are bit-identical to that entry's.
        """
        n = len(x)
        step = len(scratch) // (3 * n)
        rows = scratch[: 3 * step * n].reshape(3, -1)
        depth = self._depth
        cap = max(sum(depth), self._tile_points // n)
        keys = [_ranks(i, len(xs)), _ranks(j, len(ys))]
        size = _rank_blocks(depth, [len(u) for u, _ in keys], cap)
        side = np.empty((depth[0] * size[0] + depth[1] * size[1]) * n)
        cut = depth[0] * size[0] * n
        sides = side[:cut].reshape(depth[0], size[0], n), side[cut:].reshape(depth[1], size[1], n)
        # The nodes by block pair, x block major.
        count = -(-len(keys[1][0]) // size[1])
        pair = keys[0][1] // size[0] * count + keys[1][1] // size[1]
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        ends = np.flatnonzero(np.diff(pair)) + 1
        made = [None, None]  # the block of each coordinate whose rows are made
        for lo, hi in zip([0, *ends.tolist()], [*ends.tolist(), len(order)]):
            at = order[lo:hi]
            blocks = divmod(int(pair[lo]), count)
            local = []
            for coord, (r, shifts, (u, rank)) in enumerate(((x, xs, keys[0]), (y, ys, keys[1]))):
                first = blocks[coord] * size[coord]
                local.append(rank[at] - first)
                if made[coord] == blocks[coord]:
                    continue
                made[coord] = blocks[coord]
                shifts = shifts[u[first : first + size[coord]]]
                for s0, s1 in _block_slices(len(shifts), step):
                    temps = rows[:2, : (s1 - s0) * n]
                    self._side(coord, r, shifts[s0:s1], sides[coord][:, s0:s1], *temps)
            for a0, a1 in _block_slices(len(at), step):
                spare, work, out = (row[: (a1 - a0) * n].reshape(-1, n) for row in rows)
                if self._lines:
                    np.add(x, xs[i[at[a0:a1]], None], out=work)
                    np.add(y, ys[j[at[a0:a1]], None], out=out)
                    flat = out.reshape(-1)
                    self.eval_many(work.reshape(-1), flat, out=flat, lines=self._lines)
                ia, ja = (index[a0:a1] for index in local)
                self._compose_nodes(sides[0], ia, sides[1], ja, out, work, spare)
                yield at[a0:a1], out

    def _side(self, coord, r, shifts, rows, vals, work):
        """The side rows of coordinate ``coord`` at ``r + shifts[t]`` per
        shift ``t``, with ``vals`` and ``work`` as scratch."""
        if not len(rows):
            return
        shape = (len(shifts), len(r))
        p, temp = (buf[: shape[0] * shape[1]].reshape(shape) for buf in (vals, work))
        np.add(r, shifts[:, None], out=p)
        k = bool(self._single[coord])
        if k:
            _fold(np.maximum, p, self._single[coord], rows[0], temp)
        for b, box in enumerate(self._boxes):
            _fold(np.minimum, p, box[coord], rows[k + b], temp)

    def _compose(self, xr, yr, out, work, general):
        """``out[a, b]``: the field at the points of X side ``a`` and Y side
        ``b``, folded over the general part's values that ``out`` holds if
        ``general``; ``work`` is scratch of the same shape."""
        # The running maximum: an operand, or ``out`` once written.
        acc = out if general else None

        def fold(term):
            nonlocal acc
            acc = term if acc is None else np.maximum(acc, term, out=out)

        kx, ky = bool(self._single[0]), bool(self._single[1])
        if kx:
            fold(xr[0][:, None])
        if ky:
            fold(yr[0][None])
        for b in range(len(self._boxes)):
            bx, by = xr[kx + b][:, None], yr[ky + b][None]
            fold(np.minimum(bx, by, out=out if acc is None else work))
        if acc is not out:
            np.copyto(out, acc)

    def _compose_nodes(self, xr, ia, yr, ja, out, work, spare):
        """``out[a]``: the field at the points of X side ``ia[a]`` and Y
        side ``ja[a]``, by ``_compose``'s operations in its order on copies
        of the side rows gathered into ``out``, ``work`` and ``spare``,
        folded over the general part's values that ``out`` holds if the set
        has general polygons."""
        filled = bool(self._lines)
        kx, ky = bool(self._single[0]), bool(self._single[1])
        # The indices are in range; mode "raise" would buffer the output.
        for sides, index, single in ((xr, ia, kx), (yr, ja, ky)):
            if single:
                term = sides[0].take(index, axis=0, out=spare if filled else out, mode="clip")
                if filled:
                    np.maximum(out, term, out=out)
                filled = True
        for b in range(len(self._boxes)):
            bx = xr[kx + b].take(ia, axis=0, out=spare, mode="clip")
            by = yr[ky + b].take(ja, axis=0, out=work, mode="clip")
            np.minimum(bx, by, out=work if filled else out)
            if filled:
                np.maximum(out, work, out=out)
            filled = True


def _ranks(index, size) -> tuple:
    """``(keys, rank)``: the distinct values of the integer array
    ``index``, all below ``size``, ascending, and each element's position
    among them.  By a mark per value, not ``np.unique``: its sort adds
    about 0.6 MB of resident code to a process that runs no other."""
    seen = np.zeros(size, dtype=bool)
    seen[index] = True
    keys = np.flatnonzero(seen)
    rank = np.empty(size, dtype=np.intp)
    rank[keys] = np.arange(len(keys))
    return keys, rank[index]


def _rank_blocks(depth, counts, cap) -> tuple:
    """``(bx, by)``: how many of the ``counts`` distinct x and y shifts go
    in one block, so that a block pair's side rows, ``depth`` per shift,
    number at most ``cap``: all of them if they fit; else all of one
    coordinate if its rows take at most half, and blocks of the other in
    the rest; else half each.  At least one shift a block."""
    (dx, dy), (nx, ny) = depth, counts
    if dx * nx + dy * ny <= cap:
        return nx, ny
    if dy * ny <= cap // 2:
        return max(1, (cap - dy * ny) // dx), ny
    if dx * nx <= cap // 2:
        return nx, max(1, (cap - dx * nx) // dy)
    return max(1, cap // 2 // dx), max(1, cap // 2 // dy)


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

    def fold(self, fields: FieldSet, op) -> None:
        """``values = op(values, field of fields at the nodes)``, in place,
        for ``op`` ``np.minimum`` or ``np.maximum``: band of rows by band,
        so at most one band of ``_TILE_POINTS`` nodes is held beside the map.
        """
        xs = self.origin.x + self.cell_size * np.arange(self.cols)
        ys = self.origin.y + self.cell_size * np.arange(self.rows)
        for lo, hi in _block_slices(self.rows, max(1, _TILE_POINTS // self.cols)):
            band = self.values[lo:hi]
            op(band, fields.eval_grid(xs, ys[lo:hi]), out=band)


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
