"""Time size curves on the binned pass against per-threshold masked rescans.

Builds two networks:

- the 500-node directed cycle, weight (i, j) = (j - i) mod 500, under the
  uniform measure (every weight value is tied 500 times);
- the 1000-node geodesic circle from ``sphere_discretize(1, 1000)``.

For each network, curve kind (sublevel, superlevel) and order p in
{1, 2}, the script times ``netgw.invariants.size_curve`` at 512 samples
and the masked rescan it replaced: one O(n^2) masked sum per threshold,
restated here as the reference.  It writes the seconds of both routes
and the worst gap between them, relative to size_p, to a JSON file,
and exits 1 if any gap exceeds 1e-12.

    PYTHONPATH=src python3 scripts/bench_size_curve.py [--out BENCH_size_curve.json]
"""

import json
import sys

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np

from netgw.generators import cycle_network
from netgw.invariants import size_curve, size_p, sphere_discretize

GAP_LIMIT = 1e-12
SAMPLES = 512


def masked_size(X, p, mask):
    """size_p over the pairs that mask admits: one O(n^2) rescan."""
    outer = np.outer(X.measure, X.measure) * mask
    return float(np.sum(np.abs(X.weights) ** p * outer)) ** (1.0 / p)


def masked_curve(X, p, kind, grid):
    """The size curve of kind on grid, one masked_size per threshold."""
    admits = np.less_equal if kind == "sublevel" else np.greater_equal
    return np.array([masked_size(X, p, admits(X.weights, t)) for t in grid])


def main(argv=None):
    args = _bench.parser(__doc__, "BENCH_size_curve.json").parse_args(argv)

    networks = {
        "cycle 500": cycle_network(np.arange(500.0)),
        "circle 1000": sphere_discretize(1, 1000),
    }
    rows, worst = {}, 0.0
    for name, X in networks.items():
        for kind in ("sublevel", "superlevel"):
            for p in (1.0, 2.0):
                curve, binned_s = _bench.seconds(size_curve, X, p, kind=kind, samples=SAMPLES)
                reference, masked_s = _bench.seconds(masked_curve, X, p, kind, curve.grid)
                gap = float(np.abs(curve.values - reference).max()) / size_p(X, p)
                worst = max(worst, gap)
                rows[f"{name} {kind} p={p:g}"] = {
                    "binned_s": binned_s,
                    "masked_s": masked_s,
                    "speedup": masked_s / binned_s,
                    "rel_gap": gap,
                }

    agree = worst <= GAP_LIMIT
    report = {
        "samples": SAMPLES,
        "gap_limit": GAP_LIMIT,
        "worst_rel_gap": worst,
        "all_agree": bool(agree),
        "total": {
            "binned_s": sum(row["binned_s"] for row in rows.values()),
            "masked_s": sum(row["masked_s"] for row in rows.values()),
        },
        "curves": rows,
    }
    _bench.write_report(args.out, report)
    print(json.dumps({"worst_rel_gap": worst, **report["total"]}))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
