"""Hot numeric kernels in numpy.

dis_pow and dis_sup sum or maximize over the quadruples (i, j, k, l)
of two weight matrices under a plan and itself.  Every 1D transport
cost is integrated here only, on merged breakpoint grids tiled by one
block rule (_by_blocks): quantile_pow sums |Fi^-1 - Gj^-1|^p directly,
tlb_pow expands the square at p = 2.  Their callers:

- bounds.tlb_cost and bounds.rtlb call tlb_pow on two networks' local
  quantiles;
- bounds.rflb_matrix, the rflb of a sweep over more than two networks,
  calls quantile_pow once per direction on every network's stacked
  eccentricity pushforward;
- ot.wasserstein_1d, the rflb and rslb of one pair, is quantile_pow's
  one-row call.
"""

import numpy as np


def dis_pow(wx, wy, plan, p):
    """sum over (i,j,k,l) of |wx[i,k] - wy[j,l]|^p plan[i,j] plan[k,l].

    For p = inf this is the sup-distortion dis_sup itself, which is
    also the limit of the p-th root of the sum.  Loops over i only; the
    (k,j,l) block is vectorized, so memory stays at O(m n^2) per step.
    """
    if np.isinf(p):
        return dis_sup(wx, wy, plan)
    total = 0.0
    for i in range(wx.shape[0]):
        # diff[k, j, l] = |wx[i, k] - wy[j, l]|
        diff = np.abs(wx[i][:, None, None] - wy[None, :, :])
        s_i = np.einsum("kjl,kl->j", diff**p, plan)
        total += float(plan[i] @ s_i)
    return total


def dis_sup(wx, wy, plan):
    """max of |wx[i,k] - wy[j,l]| over pairs with plan[i,j]*plan[k,l] > 0."""
    si, sj = np.nonzero(plan > 0.0)
    best = 0.0
    chunk = max(1, int(4e6 // max(1, si.size)))
    for start in range(0, si.size, chunk):
        ci = si[start : start + chunk]
        cj = sj[start : start + chunk]
        a = wx[ci[:, None], si[None, :]]
        b = wy[cj[:, None], sj[None, :]]
        val = float(np.abs(a - b).max())
        if val > best:
            best = val
    return best


def _quantiles(q, ends, start, stop):
    # each row's quantile function at grid points start..stop-1: atom k of
    # row i holds at points ends[i, k-1] to ends[i, k] - 1, those in
    # (c[i, k-1], c[i, k]], and is repeated over that run within the chunk
    runs = np.diff(ends.clip(start, stop), axis=1, prepend=start)
    return np.repeat(q.ravel(), runs.ravel()).reshape(q.shape[0], stop - start)


def _quantile_blocks(qx, cx, qy, cy, grid, seg):
    # one grid search per side, read in chunks of ~GRID_CHUNK_CELLS rows_x * rows_y * points
    ends_x = np.searchsorted(grid, cx, side="right")
    ends_y = np.searchsorted(grid, cy, side="right")
    chunk = max(GRID_CHUNK_MIN, int(GRID_CHUNK_CELLS // max(1, qx.shape[0] * qy.shape[0])))
    for start in range(0, grid.size, chunk):
        stop = min(start + chunk, grid.size)
        x, y = _quantiles(qx, ends_x, start, stop), _quantiles(qy, ends_y, start, stop)
        yield x, y, seg[start:stop]


def merged_grid(cx, cy):
    """Distinct breakpoints in (0, 1] of all rows, ascending, and the segments they end."""
    points = np.sort(np.concatenate([cx.ravel(), cy.ravel()]))
    seg = np.diff(np.concatenate([[0.0], points]))
    keep = seg > 0.0  # a repeated breakpoint (or one at 0) ends an empty segment
    return points[keep], seg[keep]


# the block rule of _by_blocks, and the grid chunks of _quantile_blocks
ONE_BLOCK_RATIO = 16
BLOCK_ROWS = 8
GRID_CHUNK_CELLS = 8e6
GRID_CHUNK_MIN = 256


def _by_blocks(kernel, qx, cx, qy, cy, *args):
    """kernel(qx, cx, qy, cy, grid, seg, *args) over row blocks of X x Y.

    Each block of X rows x Y rows is integrated on its own merged_grid.
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
    BENCH_tlb.json): the random 400x393 pair took 3.6-4.0 s at p = 2 and
    37 s at p = 1 on its global grid, and 0.9-1.0 s and 1.4-1.7 s in
    blocks of 8 rows (0.6 s and 1.8 s in blocks of 16, 0.5 s and 3.2 s in
    blocks of 32); the 150 stacked pushforwards 0.06 s on one grid and
    0.03 s in blocks.  In a run 3 times slower, the sphere pairs took
    0.1 s and 1.2-1.5 s at p = 2 on their global grids, against 1.0 s and
    14 s in blocks of 8, which is why grids near the row widths keep one block.
    """
    grid, seg = merged_grid(cx, cy)
    if grid.size <= ONE_BLOCK_RATIO * (cx.shape[1] + cy.shape[1]):
        return kernel(qx, cx, qy, cy, grid, seg, *args)
    out = np.empty((qx.shape[0], qy.shape[0]))
    for a in range(0, qx.shape[0], BLOCK_ROWS):
        x = slice(a, a + BLOCK_ROWS)
        for b in range(0, qy.shape[0], BLOCK_ROWS):
            y = slice(b, b + BLOCK_ROWS)
            block_grid, block_seg = merged_grid(cx[x], cy[y])
            out[x, y] = kernel(qx[x], cx[x], qy[y], cy[y], block_grid, block_seg, *args)
    return out


def _direct(qx, cx, qy, cy, grid, seg, p):
    # sum over segments of |Fi^-1 - Gj^-1|^p * seg, a row at a time
    out = np.zeros((qx.shape[0], qy.shape[0]))
    for quant_x, quant_y, d in _quantile_blocks(qx, cx, qy, cy, grid, seg):
        for i in range(quant_x.shape[0]):
            out[i] += np.abs(quant_x[i][None, :] - quant_y) ** p @ d
    return out


def _expanded(qx, cx, qy, cy, grid, seg):
    # the square as sq_x + sq_y - 2 * cross, each term summed on its own; a
    # grid split into chunks only reorders those sums, moving them by rounding
    sq_x, sq_y = np.zeros(qx.shape[0]), np.zeros(qy.shape[0])
    cross = np.zeros((qx.shape[0], qy.shape[0]))
    for quant_x, quant_y, d in _quantile_blocks(qx, cx, qy, cy, grid, seg):
        sq_x += (quant_x * quant_x) @ d
        sq_y += (quant_y * quant_y) @ d
        cross += (quant_x * d) @ quant_y.T
    scale = sq_x[:, None] + sq_y[None, :]
    out = scale - 2.0 * cross
    # the expansion cancels catastrophically near zero; entries below its
    # noise floor are resummed as nonnegative terms (exact at 0), a whole
    # row at a time, since matching inputs flag most of the matrix
    flagged = out <= 64.0 * np.finfo(np.float64).eps * scale
    rows = np.flatnonzero(flagged.any(axis=1))
    if rows.size:
        exact = _direct(qx[rows], cx[rows], qy, cy, grid, seg, 2.0)
        out[rows] = np.where(flagged[rows], exact, out[rows])
    return out


def quantile_pow(qx, cx, qy, cy, p):
    """Matrix of p-th power 1D transport costs between all row pairs.

    qx[i] holds the i-th distribution's atoms sorted ascending and cx[i]
    the matching cumulative masses (last entry exactly 1); a row may be
    padded by repeating its last atom at cumulative 1.  Entry (i, j) is
    the integral over t in (0, 1] of |Fi^-1(t) - Gj^-1(t)|^p, summed
    directly over the segments of the merged breakpoint grid, in blocks
    of rows chosen by _by_blocks.
    """
    return _by_blocks(_direct, qx, cx, qy, cy, p)


def tlb_pow(qx, cx, qy, cy, p):
    """quantile_pow, but at p = 2 by the expansion of the square.

    The expansion is a matrix product per block; entries within its
    rounding noise of zero are resummed directly, so identical rows give
    exactly 0.
    """
    if p != 2.0:
        return quantile_pow(qx, cx, qy, cy, p)
    return _by_blocks(_expanded, qx, cx, qy, cy)
