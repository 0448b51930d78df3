"""Hot numeric kernels in numpy.

dis_pow sums (at p = inf, maximizes) over the pairs of cells in a plan's
support, the one distortion sum.  Every 1D transport cost is integrated
here only, on merged breakpoint grids tiled by one block rule
(_by_blocks): quantile_pow sums |Fi^-1 - Gj^-1|^p directly, tlb_pow
expands the square at p = 2.  Both take each side's cumulative masses as
Breaks, their distinct values and the rank of each entry among them, so
a pair's grid is the union of two short sorted arrays and each run end is
a gather.  Their callers:

- bounds.tlb_cost and bounds.rtlb call tlb_pow on two networks' local
  quantiles, whose Breaks a NetworkSummary keeps per direction (a bare
  network builds them for the call);
- bounds.rflb_matrices calls quantile_pow once per direction on every
  network's stacked eccentricity pushforward: the rflb of an rflb sweep
  over more than two networks, and of an rtlb_max sweep's chain checks;
- ot.wasserstein_1d, the rflb and rslb of one pair, is quantile_pow's
  one-row call.
"""

from typing import NamedTuple

import numpy as np


def dis_pow(wx, wy, plan, p):
    """sum over (i,j,k,l) of |wx[i,k] - wy[j,l]|^p plan[i,j] plan[k,l].

    At p = inf the max gap over cells of positive mass, the sup-distortion.
    Only pairs of support cells are visited, in chunks of rows: O(s^2) time
    for s cells, and memory bounded by SUPPORT_CHUNK_CELLS.
    """
    si, sj = np.nonzero(plan > 0.0)
    mass = plan[si, sj]
    chunk = max(1, int(SUPPORT_CHUNK_CELLS // max(1, si.size)))
    total = 0.0
    for start in range(0, si.size, chunk):
        stop = start + chunk
        # gap[a, b] = |wx[si[a], si[b]] - wy[sj[a], sj[b]]| for a in the chunk
        gap = wx[si[start:stop]][:, si]
        gap -= wy[sj[start:stop]][:, sj]
        np.abs(gap, out=gap)
        if np.isinf(p):
            total = max(total, float(gap.max()))
        else:
            gap **= p
            total += float(mass[start:stop] @ (gap @ mass))
    return total


def _quantiles(q, ends, start, stop):
    # each row's quantile function at grid points start..stop-1: atom k of
    # row i holds at points ends[i, k-1] to ends[i, k] - 1, those in
    # (c[i, k-1], c[i, k]], and is repeated over that run within the chunk
    runs = np.diff(ends.clip(start, stop), axis=1, prepend=start)
    return np.repeat(q.ravel(), runs.ravel()).reshape(q.shape[0], stop - start)


def _window(q, ends, top, bottom, start, stop):
    # _quantiles on the atoms whose runs can meet points start..stop-1:
    # top and bottom are the column max and min of ends, nondecreasing as
    # each row is; the atoms before lo end by start in every row, those
    # after hi - 1 start at stop or later, and atom lo's run starts by
    # start, so the clipped runs of the rest are the ones dropped
    lo = int(np.searchsorted(top, start, side="right"))
    hi = int(np.searchsorted(bottom, stop, side="left")) + 1
    return _quantiles(q[:, lo:hi], ends[:, lo:hi], start, stop)


def _quantile_blocks(qx, ends_x, qy, ends_y, grid, seg):
    # the grid read in chunks of ~GRID_CHUNK_CELLS rows_x * rows_y * points
    chunk = max(GRID_CHUNK_MIN, int(GRID_CHUNK_CELLS // max(1, qx.shape[0] * qy.shape[0])))
    if chunk >= grid.size:
        yield _quantiles(qx, ends_x, 0, grid.size), _quantiles(qy, ends_y, 0, grid.size), seg
        return
    sides = [(q, ends, ends.max(axis=0), ends.min(axis=0))
             for q, ends in ((qx, ends_x), (qy, ends_y))]
    for start in range(0, grid.size, chunk):
        stop = min(start + chunk, grid.size)
        x, y = (_window(*side, start, stop) for side in sides)
        yield x, y, seg[start:stop]


class Breaks(NamedTuple):
    """Cumulative masses, one row per distribution, as ranks: points holds
    their distinct values ascending, and points[rank] is the array."""

    points: np.ndarray
    rank: np.ndarray


def breaks(cumulative):
    """The Breaks of an array of cumulative masses."""
    points = np.unique(cumulative)
    return Breaks(points, np.searchsorted(points, cumulative))


def _rows(b, rows):
    # the Breaks of some rows alone, on the points those rows hold
    used = np.unique(b.rank[rows])
    return Breaks(b.points[used], np.searchsorted(used, b.rank[rows]))


def _merged(bx, by):
    # the distinct breakpoints in (0, 1] of both sides, ascending, and the
    # segments they end; the two sorted runs are merged by a stable sort
    points = np.sort(np.concatenate([bx.points, by.points]), kind="stable")
    seg = np.diff(points, prepend=0.0)
    keep = seg > 0.0  # a point both sides hold (or one at 0) ends an empty segment
    return points[keep], seg[keep]


def _ends(grid, b):
    # entry (i, k) counts the grid points up to c[i, k], where row i's atom
    # k ends: one search per distinct point, then a gather
    return np.searchsorted(grid, b.points, side="right")[b.rank]


# the block rule of _by_blocks, and the grid chunks of _quantile_blocks
ONE_BLOCK_RATIO = 16
BLOCK_ROWS = 8
GRID_CHUNK_CELLS = 8e6
GRID_CHUNK_MIN = 256
# p = 2 expansions (_expanded, core._Dis2.squared) keep a value v only while
# v > CANCEL_TOL * scale, where cancellation leaves v within eps / CANCEL_TOL
# (2.2e-10) of itself; 1e-6 flags no TLB entry of the benchmark (least v /
# scale 1.0e-5 on table1), where 1e-4 flags ~3,200 rows per table1 seed
CANCEL_TOL = 1e-6
# weight gaps per chunk of dis_pow: on dense 30- to 100-node plans, chunks of
# 2.5e5 took 0.5-1.9x the time of (m, n, n) blocks at finite p, and 1/5 of it
# at p = inf; 6.4e4 took up to 3.6x at 100 nodes, and 1e6 up to 6.7x at 30
SUPPORT_CHUNK_CELLS = 2.5e5


def _by_blocks(kernel, qx, bx, qy, by, *args):
    """kernel(qx, ends_x, qy, ends_y, grid, seg, *args) over row blocks of X x Y.

    Each block of X rows x Y rows is integrated on its own merged grid.
    A kernel costs about rows_x * rows_y * G for G breakpoints, so the
    rule looks at the global grid: while G is at most ONE_BLOCK_RATIO
    times the two row widths (breakpoints per row, width_x + width_y),
    the whole matrix is one block on that grid; beyond, blocks of
    BLOCK_ROWS rows each merge only their own rows' breakpoints, about
    BLOCK_ROWS * (width_x + width_y) of them.  Ratios G / (width_x +
    width_y) measured on the local quantiles ('out') or pushforwards:

    - table1 pairs, and the stacked eccentricity pushforwards of a
      table1 sweep: at most 1;
    - the 400x406 sphere pair: 6.4; the 1000x990 sphere pair: 7.1;
    - the stacked pushforwards of 150 random non-uniform networks of 10
      to 40 nodes: 45;
    - random non-uniform pairs, 200x193, 400x393 and 1000x993: 195, 395
      (G = 313,321) and 995.

    Times for one direction on a 2-core machine (scripts/bench_tlb.py,
    BENCH_tlb.json): the random 400x393 pair takes 1.57 s at p = 2 and
    2.61 s at p = 1 in blocks of 8 rows, where its global grid takes
    0.57 s and 4.1 s for 8 rows alone; the 1000x993 pair takes 27.1 s and
    50.7 s in blocks.  An earlier run of the 400x393 pair gave 0.9-1.0 s
    and 1.4-1.7 s in blocks of 8 rows, 0.6 s and 1.8 s in blocks of 16,
    and 0.5 s and 3.2 s in blocks of 32, and the 150 stacked pushforwards
    0.06 s on one grid and 0.03 s in blocks.  The sphere pairs take
    0.058 s and 0.79 s at p = 2, and 1.51 s and 41.7 s at p = 1, on their
    global grids; blocks of 8 took about 10 times as long at p = 2 in an
    earlier run, which is why grids near the row widths keep one block.
    """
    grid, seg = _merged(bx, by)
    if grid.size <= ONE_BLOCK_RATIO * (qx.shape[1] + qy.shape[1]):
        return kernel(qx, _ends(grid, bx), qy, _ends(grid, by), grid, seg, *args)
    out = np.empty((qx.shape[0], qy.shape[0]))
    # each row block's Breaks are built once, not once per block pair
    rows_y = [slice(b, b + BLOCK_ROWS) for b in range(0, qy.shape[0], BLOCK_ROWS)]
    blocks_y = [(y, _rows(by, y)) for y in rows_y]
    for a in range(0, qx.shape[0], BLOCK_ROWS):
        x = slice(a, a + BLOCK_ROWS)
        block_bx = _rows(bx, x)
        for y, block_by in blocks_y:
            grid, seg = _merged(block_bx, block_by)
            ends_x, ends_y = _ends(grid, block_bx), _ends(grid, block_by)
            out[x, y] = kernel(qx[x], ends_x, qy[y], ends_y, grid, seg, *args)
    return out


def cancelled(value, scale):
    """Where an expansion is resummed: not above CANCEL_TOL * scale, or NaN."""
    return np.logical_not(value > CANCEL_TOL * scale)


def _direct(qx, ends_x, qy, ends_y, grid, seg, p):
    # sum over segments of |Fi^-1 - Gj^-1|^p * seg, a row at a time
    out = np.zeros((qx.shape[0], qy.shape[0]))
    for quant_x, quant_y, d in _quantile_blocks(qx, ends_x, qy, ends_y, grid, seg):
        for i in range(quant_x.shape[0]):
            out[i] += np.abs(quant_x[i][None, :] - quant_y) ** p @ d
    return out


def _expanded(qx, ends_x, qy, ends_y, grid, seg):
    # the square as sq_x + sq_y - 2 * cross, each term summed on its own; a
    # grid split into chunks only reorders those sums, moving them by rounding
    sq_x, sq_y = np.zeros(qx.shape[0]), np.zeros(qy.shape[0])
    cross = np.zeros((qx.shape[0], qy.shape[0]))
    for quant_x, quant_y, d in _quantile_blocks(qx, ends_x, qy, ends_y, grid, seg):
        sq_x += (quant_x * quant_x) @ d
        sq_y += (quant_y * quant_y) @ d
        cross += (quant_x * d) @ quant_y.T
    scale = sq_x[:, None] + sq_y[None, :]
    out = scale - 2.0 * cross
    # cancelled entries are resummed as terms >= 0 (exact at 0), a whole row
    # at a time, since matching inputs flag most of the matrix
    flagged = cancelled(out, scale)
    rows = np.flatnonzero(flagged.any(axis=1))
    if rows.size:
        exact = _direct(qx[rows], ends_x[rows], qy, ends_y, grid, seg, 2.0)
        out[rows] = np.where(flagged[rows], exact, out[rows])
    return out


def quantile_pow(qx, bx, qy, by, p):
    """Matrix of p-th power 1D transport costs between all row pairs.

    qx[i] holds the i-th distribution's atoms sorted ascending, and bx
    is breaks(cx) of the matching cumulative masses (last entry of each
    row exactly 1); a row may be padded by repeating its last atom at
    cumulative 1.  Entry (i, j) is the integral over t in (0, 1] of
    |Fi^-1(t) - Gj^-1(t)|^p, summed directly over the segments of the
    merged breakpoint grid, in blocks of rows chosen by _by_blocks.
    """
    return _by_blocks(_direct, qx, bx, qy, by, p)


def tlb_pow(qx, bx, qy, by, p):
    """quantile_pow, but at p = 2 by the expansion of the square.

    The expansion is a matrix product per block.  Entries not above
    CANCEL_TOL = 1e-6 times sq_x + sq_y (NaN too) are resummed directly, so
    identical rows give 0; the rest are within eps / CANCEL_TOL = 2.2e-10.
    """
    if p != 2.0:
        return quantile_pow(qx, bx, qy, by, p)
    return _by_blocks(_expanded, qx, bx, qy, by)
