"""Check the blocked TLB kernel, the stacked rflb sweep and the bound chain.

Two checks, each against the route it replaces, and one against theory:

- ``_kernels.tlb_pow``, which tiles the matrix by the block rule of
  ``_kernels._by_blocks`` and finds its grid and run ends from each
  side's Breaks, against the one-grid kernel: one block on the merged
  grid of all rows (``_kernels._expanded`` at p = 2, ``_kernels._direct``
  otherwise), with the grid and run ends of ``reference_grid``, which
  sorts every cumulative mass and searches each in the grid.  Local
  quantiles, direction 'out', at
  p = 1 and 2, on the criterion-06 and criterion-07 pairs (seeds 606 and
  707), the table1 and table3 pairs (per_class 2, seed 0), the 400x406
  and 1000x990 sphere pairs, and random non-uniform 200x193, 400x393 and
  1000x993 pairs.  An entry depends only on its two rows and the grid,
  so on the 1000x990 sphere pair and the random 400 and 1000 pairs the
  one-grid kernel runs on a sample of X's rows only (on the random
  pairs one grid for all rows would take minutes).
- ``dissimilarity_matrix(nets, "rflb", p)``, one stacked ``quantile_pow``
  call per direction, against ``max(rflb(X, Y, p, "out"), rflb(X, Y, p,
  "in"))`` per pair, at p = 1, 2 and 3, on table1 (per_class 30, seed 1;
  150 networks), table3 (per_class 10, seed 1) and 150 random
  non-uniform networks of 10 to 40 nodes.  Each row also times one
  direction of the stacked call as one block on the global grid.
- perturbation: every bound of ``rtlb_max(X, X', p)`` (szlb, rflb both
  ways, rslb, rtlb_max) is at most 2 d_N(X, X') <= ``distortion(X, X',
  identity, p)``, where X' is X with weights W + eps * max|W| * N(0, 1).
  X is a 1000-node table1-style network (c1's spec in five blocks of
  200), at p = 1, 2 and 2.5 and eps = 1e-9, 1e-6, 1e-3 and 1e-2.

An entry's gap is |new - old| / |old|, and a new entry must be exactly 0
where the old one is.  The script exits 1 if a kernel entry is more than
KERNEL_TOL or a sweep entry more than SWEEP_TOL from its reference, or a
bound is more than PERTURBATION_TOL[p] of the distortion above it.  The
timings go to the JSON file; they do not decide the exit code.  The whole
run takes several minutes on a 2-core machine.

    PYTHONPATH=src python3 scripts/bench_tlb.py [--out BENCH_tlb.json]
"""

import json
import sys

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np

from netgw import _kernels
from netgw.analysis import dissimilarity_matrix
from netgw.bounds import NetworkSummary, _local_quantiles, _stacked_ecc, rflb, rtlb_max
from netgw.core import diagonal_coupling, distortion, new_network
from netgw.generators import _five_block_spec, sample_collection, sbm_sample
from netgw.invariants import sphere_discretize

KERNEL_TOL = 1e-11
SWEEP_TOL = 1e-12
# a bound's excess over the identity's distortion, relative to it; p = 2
# keeps expanded squares within eps / _kernels.CANCEL_TOL of themselves
PERTURBATION_TOL = {1.0: 1e-12, 2.0: 1e-9, 2.5: 1e-12}
BOUND_NAMES = ("szlb", "rflb_out", "rflb_in", "rslb", "rtlb_max")


def relative_gap(new, old):
    """Largest |new - old| / |old|; inf where old is 0 and new is not."""
    new, old = np.asarray(new, dtype=np.float64), np.asarray(old, dtype=np.float64)
    diff = np.abs(new - old)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(diff == 0.0, 0.0, diff / np.abs(old))
    return float(np.max(gap, initial=0.0))


def random_network(rng, n):
    measure = rng.random(n) + 0.2
    return new_network(rng.uniform(-10.0, 10.0, size=(n, n)), measure / measure.sum())


def reference_grid(cx, cy):
    """(grid, seg, ends_x, ends_y) of two arrays of cumulative masses, as
    the kernels found them before Breaks: every entry of both sides sorted
    (the grid is the distinct values in (0, 1], seg the segments they
    end), then each entry searched in the grid (ends[i, k] counts the grid
    points up to cx[i, k])."""
    points = np.sort(np.concatenate([cx.ravel(), cy.ravel()]))
    seg = np.diff(np.concatenate([[0.0], points]))
    keep = seg > 0.0  # a repeated breakpoint (or one at 0) ends an empty segment
    grid, seg = points[keep], seg[keep]
    ends_x = np.searchsorted(grid, cx, side="right")
    ends_y = np.searchsorted(grid, cy, side="right")
    return grid, seg, ends_x, ends_y


def cumulative(b):
    """The cumulative masses that Breaks b stands for."""
    return b.points[b.rank]


def kernel_row(X, Y, p, sample=None):
    """tlb_pow against the one-grid kernel on rows `sample` of X (all if None)."""
    qx, bx = _local_quantiles(X, "out")
    qy, by = _local_quantiles(Y, "out")
    grid, seg, ends_x, ends_y = reference_grid(cumulative(bx), cumulative(by))
    blocked, blocked_s = _bench.seconds(_kernels.tlb_pow, qx, bx, qy, by, p)
    rows = np.arange(X.n) if sample is None else np.asarray(sample)
    args = (qx[rows], ends_x[rows], qy, ends_y, grid, seg)
    if p == 2.0:
        one, one_s = _bench.seconds(_kernels._expanded, *args)
    else:
        one, one_s = _bench.seconds(_kernels._direct, *args, p)
    width = qx.shape[1] + qy.shape[1]
    return {
        "grid": int(grid.size),
        "grid_per_width": grid.size / width,
        "one_block": bool(grid.size <= _kernels.ONE_BLOCK_RATIO * width),
        "tlb_pow_s": blocked_s,
        "one_grid_rows": int(rows.size),
        "one_grid_s": one_s,
        "worst_rel_gap": relative_gap(blocked[rows], one),
    }


def kernel_summary(name, p, pairs, sample=None):
    """kernel_row over the pairs of one instance, in one row."""
    rows = [kernel_row(X, Y, p, sample) for X, Y in pairs]
    shapes = sorted({(X.n, Y.n) for X, Y in pairs})
    return {
        "instance": name,
        "p": p,
        "pairs": len(pairs),
        "shape": list(shapes[-1]) if len(shapes) == 1 else "various",
        "largest_grid": max(r["grid"] for r in rows),
        "largest_grid_per_width": max(r["grid_per_width"] for r in rows),
        "one_block_pairs": sum(r["one_block"] for r in rows),
        "tlb_pow_s": sum(r["tlb_pow_s"] for r in rows),
        "one_grid_rows": sum(r["one_grid_rows"] for r in rows),
        "one_grid_s": sum(r["one_grid_s"] for r in rows),
        "worst_rel_gap": max(r["worst_rel_gap"] for r in rows),
    }


def _stacked_one_direction(summaries, p):
    # one direction of the stacked call, tiled by the rule and as one block
    _rows, atoms, cum = _stacked_ecc(summaries, p, "out")
    b = _kernels.breaks(cum)
    _, tiled_s = _bench.seconds(_kernels.quantile_pow, atoms, b, atoms, b, p)
    grid, seg, ends, _ = reference_grid(cum, cum)
    _, one_s = _bench.seconds(_kernels._direct, atoms, ends, atoms, ends, grid, seg, p)
    return tiled_s, one_s, grid.size / (2 * cum.shape[1])


def per_pair_rflb(nets, p):
    """max(rflb(X, Y, p, "out"), rflb(X, Y, p, "in")) of each pair i < j,
    at [i, j] of a k x k matrix that is 0 elsewhere."""
    k = len(nets)
    want = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            X, Y = nets[i], nets[j]
            want[i, j] = max(rflb(X, Y, p, "out"), rflb(X, Y, p, "in"))
    return want


def sweep_row(name, nets, p):
    """The rflb sweep matrix against per_pair_rflb."""
    k = len(nets)
    (matrix, failures), sweep_s = _bench.seconds(dissimilarity_matrix, nets, "rflb", p)
    summaries = [NetworkSummary(X) for X in nets]
    for X in summaries:  # the per-pair route gets its pushforwards for free
        X.ecc(p, "out"), X.ecc(p, "in")
    want, per_pair_s = _bench.seconds(per_pair_rflb, summaries, p)
    tiled_s, one_s, ratio = _stacked_one_direction(summaries, p)
    upper = np.triu_indices(k, 1)
    return {
        "collection": name,
        "networks": k,
        "p": p,
        "sweep_s": sweep_s,
        "per_pair_s": per_pair_s,
        "stacked_grid_per_width": ratio,
        "one_direction_tiled_s": tiled_s,
        "one_direction_one_block_s": one_s,
        "failures": len(failures),
        "worst_rel_gap": relative_gap(matrix.D[upper], want[upper]),
    }


def perturbation_row(name, summary, p, eps, rng):
    """Each bound of a network (its NetworkSummary) against a perturbed copy,
    by its excess over the identity's distortion."""
    X = summary.network
    W = X.weights
    Y = new_network(W + eps * np.abs(W).max() * rng.standard_normal(W.shape), X.measure)
    dis = distortion(X, Y, diagonal_coupling(X.measure), p)
    report, bounds_s = _bench.seconds(rtlb_max, summary, Y, p)
    excess = {name: (getattr(report, name) - dis) / dis for name in BOUND_NAMES}
    worst = max(excess, key=excess.get)
    return {
        "instance": name,
        "nodes": X.n,
        "p": p,
        "eps": eps,
        "distortion": dis,
        "rtlb_max_s": bounds_s,
        "worst_bound": worst,
        "worst_rel_excess": excess[worst],
    }


def kernel_instances():
    for seed, high in ((606, 11), (707, 13)):
        rng = np.random.default_rng(seed)
        pairs = [(random_network(rng, int(rng.integers(2, high))),
                  random_network(rng, int(rng.integers(2, high)))) for _ in range(20)]
        yield f"criterion-{seed // 100:02d}", pairs, None
    for preset in ("table1", "table3"):
        nets, _, _ = sample_collection(preset, 2, 0)
        pairs = [(nets[i], nets[j]) for i in range(len(nets)) for j in range(i + 1, len(nets))]
        yield preset, pairs, None
    for r, sample in ((400, None), (1000, range(0, 1000, 10))):
        yield f"sphere-{r}", [(sphere_discretize(1, r), sphere_discretize(2, r))], sample
    rng = np.random.default_rng(12)
    for m, sample in ((200, None), (400, range(0, 400, 50)), (1000, range(0, 1000, 250))):
        yield f"random-{m}", [(random_network(rng, m), random_network(rng, m - 7))], sample


def sweep_collections():
    yield "table1", sample_collection("table1", 30, 1)[0]
    yield "table3", sample_collection("table3", 10, 1)[0]
    rng = np.random.default_rng(150)
    yield "random-150", [random_network(rng, int(rng.integers(10, 41))) for _ in range(150)]


def failing(report):
    """Rows whose worst gap or excess is above their tolerance."""
    bad = [r for r in report["kernel"] if not r["worst_rel_gap"] <= KERNEL_TOL]
    bad += [r for r in report["sweep"] if not r["worst_rel_gap"] <= SWEEP_TOL]
    return bad + [r for r in report["perturbation"]
                  if not r["worst_rel_excess"] <= PERTURBATION_TOL[r["p"]]]


def main(argv=None):
    args = _bench.parser(__doc__, "BENCH_tlb.json").parse_args(argv)

    kernel = []
    for name, pairs, sample in kernel_instances():
        for p in (1.0, 2.0):
            kernel.append(kernel_summary(name, p, pairs, sample))
            print(json.dumps(kernel[-1]), file=sys.stderr)
    sweep = []
    for name, nets in sweep_collections():
        for p in (1.0, 2.0, 3.0):
            sweep.append(sweep_row(name, nets, p))
            print(json.dumps(sweep[-1]), file=sys.stderr)
    perturbation = []
    X = NetworkSummary(sbm_sample(_five_block_spec(25.0, 200, 5.0, "c1"), 0))
    rng = np.random.default_rng(1000)
    for p in (1.0, 2.0, 2.5):
        for eps in (1e-9, 1e-6, 1e-3, 1e-2):
            perturbation.append(perturbation_row("table1-c1-1000", X, p, eps, rng))
            print(json.dumps(perturbation[-1]), file=sys.stderr)
    report = {
        "kernel_tol": KERNEL_TOL,
        "sweep_tol": SWEEP_TOL,
        "perturbation_tol": {str(p): tol for p, tol in PERTURBATION_TOL.items()},
        "kernel": kernel,
        "sweep": sweep,
        "perturbation": perturbation,
    }
    bad = failing(report)
    report["within_tolerance"] = not bad
    _bench.write_report(args.out, report)
    print(json.dumps({"within_tolerance": not bad, "failing": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
