"""Reference computations and output checks for the benchmark.

Nothing here imports netgw: every number the program writes is checked
against code written apart from it (numpy and scipy only), or against a
property the method must have.  Each check returns a list of problems;
an empty list means the output passed.
"""

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import minimum_spanning_tree

REL_TOL = 1e-9
CURVE_TOL = 1e-12


# ---------------------------------------------------------------------------
# reading the program's files

def read_network(path):
    """(weights, measure) from a network JSON file."""
    doc = json.loads(Path(path).read_text())
    weights = np.array(doc["weights"], dtype=np.float64)
    measure = doc.get("measure")
    if measure is None:
        measure = np.full(weights.shape[0], 1.0 / weights.shape[0])
    return weights, np.array(measure, dtype=np.float64)


def read_matrix(path):
    """(labels, matrix) from a dissimilarity CSV with a '# labels:' line."""
    labels, rows = None, []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("#"):
            if "labels:" in line:
                labels = [s.strip() for s in line.split("labels:", 1)[1].split(",")]
        elif line:
            rows.append([float(cell) for cell in line.split(",")])
    return labels, np.array(rows, dtype=np.float64)


def read_merge_heights(path):
    """Merge heights, in file order, from a merges CSV."""
    lines = Path(path).read_text().splitlines()[1:]
    return np.array([float(line.split(",")[2]) for line in lines if line.strip()])


def read_merges(path):
    """(left, right) cluster ids of each merge, in file order."""
    lines = Path(path).read_text().splitlines()[1:]
    return [tuple(int(c) for c in line.split(",")[:2]) for line in lines if line.strip()]


def read_curve(path):
    """(grid, values) from a curve CSV with header 't,value'."""
    lines = Path(path).read_text().splitlines()[1:]
    data = np.array([[float(c) for c in line.split(",")] for line in lines if line.strip()])
    return data[:, 0], data[:, 1]


# ---------------------------------------------------------------------------
# independent reference values

def relative_gap(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _uniform_quantiles(rows, length):
    # sorted row entries, each repeated so every row has `length` cells
    srt = np.sort(rows, axis=1)
    return np.repeat(srt, length // rows.shape[1], axis=1)


def rtlb_uniform(wx, wy, p=2.0):
    """rtlb_max for two networks with uniform measures.

    The cost of (i, j) is W_p^p between the weight rows of i and j, read
    off sorted rows expanded to lcm(m, n) cells.  The transport between
    two uniform measures is an assignment on the cost expanded to
    lcm(m, n) rows and columns (Birkhoff-von Neumann), solved by
    linear_sum_assignment instead of an LP.
    """
    m, n = wx.shape[0], wy.shape[0]
    size = math.lcm(m, n)
    best = 0.0
    for ax, ay in ((wx, wy), (wx.T, wy.T)):
        qx = _uniform_quantiles(ax, size)
        qy = _uniform_quantiles(ay, size)
        cost = (np.abs(qx[:, None, :] - qy[None, :, :]) ** p).mean(axis=2)
        big = np.repeat(np.repeat(cost, size // m, axis=0), size // n, axis=1)
        rows, cols = linear_sum_assignment(big)
        best = max(best, float(big[rows, cols].sum() / size) ** (1.0 / p))
    return best


def wasserstein_1d(xa, wa, xb, wb, p):
    """W_p between two weighted point sets on the line, from quantiles."""
    ia, ib = np.argsort(xa, kind="stable"), np.argsort(xb, kind="stable")
    xa, wa, xb, wb = xa[ia], wa[ia], xb[ib], wb[ib]
    ca, cb = np.cumsum(wa), np.cumsum(wb)
    ca[-1] = cb[-1] = 1.0
    t = np.union1d(ca, cb)
    qa = xa[np.minimum(np.searchsorted(ca, t), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, t), xb.size - 1)]
    seg = np.diff(np.concatenate([[0.0], t]))
    return float(seg @ np.abs(qa - qb) ** p) ** (1.0 / p)


def size(w, mu, p):
    return float(np.sum(np.abs(w) ** p * np.outer(mu, mu))) ** (1.0 / p)


def eccentricities(w, mu, p):
    """(out, in) eccentricity vectors."""
    return (np.abs(w) ** p @ mu) ** (1.0 / p), (np.abs(w.T) ** p @ mu) ** (1.0 / p)


def szlb(wx, mx, wy, my, p):
    return abs(size(wx, mx, p) - size(wy, my, p))


def rflb(wx, mx, wy, my, p):
    """max over directions of W_p between the eccentricity pushforwards."""
    ex, ey = eccentricities(wx, mx, p), eccentricities(wy, my, p)
    return max(wasserstein_1d(a, mx, b, my, p) for a, b in zip(ex, ey))


def monotone_coupling(sx, mx, sy, my):
    """North-west corner coupling of mx and my along the orders of sx, sy."""
    ox, oy = np.argsort(sx, kind="stable"), np.argsort(sy, kind="stable")
    plan = np.zeros((mx.size, my.size))
    left_x, left_y = mx[ox].copy(), my[oy].copy()
    a = b = 0
    while a < ox.size and b < oy.size:
        mass = min(left_x[a], left_y[b])
        plan[ox[a], oy[b]] += mass
        left_x[a] -= mass
        left_y[b] -= mass
        if left_x[a] <= left_y[b]:
            a += 1
        else:
            b += 1
    return plan


def distortion2(wx, mx, wy, my, plan):
    """dis_2 of a coupling: the L^2 norm of wx(i,k) - wy(j,l) under plan x plan."""
    sq = float(mx @ (wx * wx) @ mx) + float(my @ (wy * wy) @ my)
    cross = float(np.sum((wx @ plan @ wy.T) * plan))
    return math.sqrt(max(sq - 2.0 * cross, 0.0))


def circle_subsize(n, grid):
    """p=1 sublevel size of the n-node circle, by counting distances.

    Node distances are 2*pi*k/n for k = 0..n//2; each k > 0 below n/2
    occurs for 2n ordered pairs, k = 0 and k = n/2 for n.
    """
    k = np.arange(n // 2 + 1)
    dist = 2.0 * math.pi * k / n
    count = np.full(k.size, 2.0 * n)
    count[0] = n
    if n % 2 == 0:
        count[-1] = n
    # grid points never fall within 1e-9 of a distance except at 0 and
    # the top, where the slack keeps the count exact
    inside = dist[None, :] <= grid[:, None] + 1e-9
    return (inside * (count * dist)).sum(axis=1) / (n * n)


# ---------------------------------------------------------------------------
# checks

def check_pair_values(name, got, want, rel_tol=REL_TOL):
    """Problems for pairs whose value is off; got/want map pair -> value."""
    return [
        f"{name} {pair}: program {got[pair]!r}, reference {want[pair]!r}"
        for pair in want
        if not relative_gap(got[pair], want[pair]) <= rel_tol
    ]


def check_upper_bounds(name, lower, upper, rel_tol=REL_TOL):
    """Problems for pairs where lower[pair] > upper[pair] beyond rounding."""
    return [
        f"{name} {pair}: {lower[pair]!r} > {upper[pair]!r}"
        for pair in lower
        if not lower[pair] <= upper[pair] * (1.0 + rel_tol) + 1e-12
    ]


def check_mst(D, heights):
    """Single-linkage merge heights equal the sorted MST edge weights."""
    off = D[~np.eye(D.shape[0], dtype=bool)]
    if np.any(off <= 0.0):
        return ["matrix has zero off-diagonal entries; the MST check needs > 0"]
    edges = np.sort(minimum_spanning_tree(D).data)
    if edges.size != heights.size or not np.array_equal(edges, np.sort(heights)):
        return [f"merge heights differ from MST edge weights (max gap {_max_gap(edges, heights)})"]
    return []


def _max_gap(a, b):
    if a.size != b.size:
        return f"{a.size} vs {b.size} values"
    return float(np.abs(np.sort(a) - np.sort(b)).max())


def check_class_structure(D, classes, merges):
    """Criterion 09 of the acceptance suite on a table1 matrix.

    Classes 0 and 2 (c1, c3) differ only in block size, so their mean
    dissimilarity is under half of any other class pair's, and they
    join each other before either joins a third class.
    """
    classes = np.asarray(classes)
    k = classes.max() + 1

    def mean(a, b):
        return float(D[np.ix_(classes == a, classes == b)].mean())

    others = min(mean(a, b) for a in range(k) for b in range(a + 1, k) if (a, b) != (0, 2))
    problems = []
    if not mean(0, 2) < 0.5 * others:
        problems.append(f"class c1-c3 mean {mean(0, 2)!r} not below half of {others!r}")
    n = D.shape[0]
    members = {i: {i} for i in range(n)}
    joined = crossed = None
    for step, (lo, hi) in enumerate(merges):
        members[n + step] = members[lo] | members[hi]
        got = {int(classes[i]) for i in members[n + step]}
        if joined is None and {0, 2} <= got:
            joined = step
        if crossed is None and got & {0, 2} and got - {0, 2}:
            crossed = step
    if joined is None or crossed is None or not joined < crossed:
        problems.append(f"c1 and c3 join at merge {joined}, a third class at {crossed}")
    return problems


def check_circle_curve(n, grid, values):
    want = circle_subsize(n, grid)
    gap = float(np.abs(values - want).max())
    if not gap <= CURVE_TOL:
        return [f"circle sublevel curve off the exact count by {gap!r}"]
    return []


def check_sphere_bound(value, grid):
    """0 < interleaving(circle, 2-sphere) <= sup |f - g| for the p=1 curves.

    eps = sup |f - g| always interleaves two nondecreasing curves, so
    the distance cannot exceed it; the curves differ, so it is positive.
    """
    circle = grid**2 / (2.0 * math.pi)
    sphere = (np.sin(grid) - grid * np.cos(grid)) / 2.0
    top = float(np.abs(circle - sphere).max())
    if not 0.0 < value <= top + 1e-4:
        return [f"sphere bound {value!r} outside (0, {top!r}]"]
    return []
