"""Hot numeric kernels in numpy.

dis_pow and dis_sup sum or maximize over the quadruples (i, j, k, l)
of two weight matrices under a plan and itself; tlb_pow builds the
matrix of 1D transport costs between local distributions.
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


def _quantiles(q, c, g):
    # each row's quantile function at the breakpoints g
    return np.array([q[i, np.searchsorted(c[i], g, side="left")] for i in range(q.shape[0])])


def _quantile_blocks(qx, cx, qy, cy, grid, seg, chunk):
    for start in range(0, grid.size, chunk):
        g = grid[start : start + chunk]
        yield _quantiles(qx, cx, g), _quantiles(qy, cy, g), seg[start : start + chunk]


def _tlb_pow_rows(qx, cx, qy, cy, grid, seg, chunk, p):
    # direct sum of nonnegative terms, one row of the result at a time
    out = np.zeros((qx.shape[0], qy.shape[0]))
    for quant_x, quant_y, d in _quantile_blocks(qx, cx, qy, cy, grid, seg, chunk):
        for i in range(quant_x.shape[0]):
            out[i] += np.abs(quant_x[i][None, :] - quant_y) ** p @ d
    return out


def tlb_pow(qx, cx, qy, cy, p):
    """Matrix of p-th power 1D transport costs between all row pairs.

    qx[i] holds the i-th local distribution's atoms sorted ascending and
    cx[i] the matching cumulative masses (last entry exactly 1).  Entry
    (i, j) of the result is the integral over t in (0, 1] of
    |Fi^-1(t) - Gj^-1(t)|^p, evaluated on the merged breakpoint grid.
    """
    grid = np.unique(np.concatenate([cx.ravel(), cy.ravel()]))
    grid = grid[grid > 0.0]
    seg = np.diff(np.concatenate([[0.0], grid]))
    m, n = qx.shape[0], qy.shape[0]
    chunk = max(256, int(8e6 // max(1, m * n)))
    if p != 2.0:
        return _tlb_pow_rows(qx, cx, qy, cy, grid, seg, chunk, p)
    out = np.zeros((m, n))
    scale = np.zeros((m, n))
    for quant_x, quant_y, d in _quantile_blocks(qx, cx, qy, cy, grid, seg, chunk):
        sq_x = (quant_x * quant_x) @ d
        sq_y = (quant_y * quant_y) @ d
        out += sq_x[:, None]
        out += sq_y[None, :]
        out -= 2.0 * ((quant_x * d) @ quant_y.T)
        scale += sq_x[:, None]
        scale += sq_y[None, :]
    # the expansion cancels catastrophically near zero; entries below its
    # noise floor are resummed as nonnegative terms (exact at 0), a whole
    # row at a time, since matching inputs flag most of the matrix
    flagged = out <= 64.0 * np.finfo(np.float64).eps * scale
    rows = np.flatnonzero(flagged.any(axis=1))
    if rows.size:
        exact = _tlb_pow_rows(qx[rows], cx[rows], qy, cy, grid, seg, chunk, 2.0)
        out[rows] = np.where(flagged[rows], exact, out[rows])
    return out
