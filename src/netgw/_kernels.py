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


def tlb_pow(qx, cx, qy, cy, p):
    """Matrix of p-th power 1D transport costs between all row pairs.

    qx[i] holds the i-th local distribution's atoms sorted ascending and
    cx[i] the matching cumulative masses (last entry exactly 1).  Entry
    (i, j) of the result is the integral over t in (0, 1] of
    |Fi^-1(t) - Gj^-1(t)|^p, evaluated on the merged breakpoint grid.
    """
    grid = np.unique(np.concatenate([cx.ravel(), cy.ravel()]))
    grid = grid[grid > 0.0]
    m = qx.shape[0]
    n = qy.shape[0]
    out = np.zeros((m, n))
    scale = np.zeros((m, n)) if p == 2.0 else None
    seg = np.diff(np.concatenate([[0.0], grid]))
    chunk = max(256, int(8e6 // max(1, m * n)))
    for start in range(0, grid.size, chunk):
        g = grid[start : start + chunk]
        d = seg[start : start + chunk]
        quant_x = np.empty((m, g.size))
        for i in range(m):
            quant_x[i] = qx[i, np.searchsorted(cx[i], g, side="left")]
        quant_y = np.empty((n, g.size))
        for j in range(n):
            quant_y[j] = qy[j, np.searchsorted(cy[j], g, side="left")]
        if p == 2.0:
            sq_x = (quant_x * quant_x) @ d
            sq_y = (quant_y * quant_y) @ d
            out += sq_x[:, None]
            out += sq_y[None, :]
            out -= 2.0 * ((quant_x * d) @ quant_y.T)
            scale += sq_x[:, None]
            scale += sq_y[None, :]
        else:
            for i in range(m):
                out[i] += np.abs(quant_x[i][None, :] - quant_y) ** p @ d
    if p == 2.0:
        # the expansion cancels catastrophically near zero; entries below
        # its noise floor are resummed as nonnegative terms (exact at 0)
        floor = 64.0 * np.finfo(np.float64).eps * scale
        for i, j in np.argwhere(out <= floor):
            fx = qx[i, np.searchsorted(cx[i], grid, side="left")]
            fy = qy[j, np.searchsorted(cy[j], grid, side="left")]
            out[i, j] = ((fx - fy) * (fx - fy)) @ seg
    return out
