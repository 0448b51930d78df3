"""Check the blocked TLB kernel and the stacked rflb sweep; time both.

Two checks, each against the route it replaces:

- ``_kernels.tlb_pow``, which tiles the matrix by the block rule of
  ``_kernels._by_blocks``, against the one-grid kernel: one block on the
  merged grid of all rows (``_kernels._expanded`` at p = 2,
  ``_kernels._direct`` otherwise).  Local quantiles, direction 'out', at
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

An entry's gap is |new - old| / |old|, and a new entry must be exactly 0
where the old one is.  The script exits 1 if a kernel entry is more than
KERNEL_TOL or a sweep entry more than SWEEP_TOL from its reference.  The
timings go to the JSON file; they do not decide the exit code.  The whole
run takes a few minutes on a 2-core machine.

    PYTHONPATH=src python3 scripts/bench_tlb.py [--out BENCH_tlb.json]
"""

import json
import sys

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np

from netgw import _kernels
from netgw.analysis import dissimilarity_matrix
from netgw.bounds import NetworkSummary, _local_quantiles, _stacked_ecc, rflb
from netgw.core import new_network
from netgw.generators import sample_collection
from netgw.invariants import sphere_discretize

KERNEL_TOL = 1e-11
SWEEP_TOL = 1e-12


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


def kernel_row(X, Y, p, sample=None):
    """tlb_pow against the one-grid kernel on rows `sample` of X (all if None)."""
    qx, cx = _local_quantiles(X, "out")
    qy, cy = _local_quantiles(Y, "out")
    grid, seg = _kernels.merged_grid(cx, cy)
    blocked, blocked_s = _bench.seconds(_kernels.tlb_pow, qx, cx, qy, cy, p)
    rows = np.arange(X.n) if sample is None else np.asarray(sample)
    args = (qx[rows], cx[rows], qy, cy, grid, seg)
    if p == 2.0:
        one, one_s = _bench.seconds(_kernels._expanded, *args)
    else:
        one, one_s = _bench.seconds(_kernels._direct, *args, p)
    width = cx.shape[1] + cy.shape[1]
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
    _, tiled_s = _bench.seconds(_kernels.quantile_pow, atoms, cum, atoms, cum, p)
    grid, seg = _kernels.merged_grid(cum, cum)
    _, one_s = _bench.seconds(_kernels._direct, atoms, cum, atoms, cum, grid, seg, p)
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
    """Rows whose worst gap is above their tolerance."""
    bad = [r for r in report["kernel"] if not r["worst_rel_gap"] <= KERNEL_TOL]
    return bad + [r for r in report["sweep"] if not r["worst_rel_gap"] <= SWEEP_TOL]


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
    report = {
        "kernel_tol": KERNEL_TOL,
        "sweep_tol": SWEEP_TOL,
        "kernel": kernel,
        "sweep": sweep,
    }
    bad = failing(report)
    report["within_tolerance"] = not bad
    _bench.write_report(args.out, report)
    print(json.dumps({"within_tolerance": not bad, "failing": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
