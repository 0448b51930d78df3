"""Print gw_bruteforce values on tiny pairs, and compare them with an earlier run.

The pairs are the ones of `fingerprint_results.random_pairs()` with at
most 9 plan cells, plus the first 40 such pairs drawn with seed 11.  For
each pair the script prints gw_bruteforce at p in {1, 2, inf} and
rtlb_max at p in {1, 2}:

    PYTHONPATH=<old checkout>/src python3 scripts/oracle_values.py > before.json
    PYTHONPATH=src python3 scripts/oracle_values.py --against before.json > BENCH_oracle.json

The earlier run may be a plain one or one made with --against, like
BENCH_oracle.json.  With --against, the output also holds, for each
order, how many values fell and how many rose against the earlier run,
with the largest relative fall and rise.  The script exits 1 when a
value rises by more than RISE_BOUND relative, or when a lower bound
exceeds its oracle (rtlb_max > 2 * gw_bruteforce + SANDWICH_TOL).
"""

import argparse
import json
import sys

import numpy as np

from fingerprint_results import random_pairs
from netgw.bounds import rtlb_max
from netgw.gw import BRUTEFORCE_CELL_LIMIT, gw_bruteforce

ORDERS = {"p1": 1.0, "p2": 2.0, "pinf": np.inf}
RISE_BOUND = 5e-4
SANDWICH_TOL = 1e-9
EXTRA_PAIRS = 40


def tiny_pairs():
    """(name, X, Y) for every pair the oracle accepts."""
    pairs = [
        (f"fp{k:02d}", X, Y)
        for k, (X, Y, _) in enumerate(random_pairs())
        if X.n * Y.n <= BRUTEFORCE_CELL_LIMIT
    ]
    extra = [
        (X, Y)
        for X, Y, _ in random_pairs(count=4 * EXTRA_PAIRS, seed=11)
        if X.n * Y.n <= BRUTEFORCE_CELL_LIMIT
    ]
    pairs += [(f"s11_{k:02d}", X, Y) for k, (X, Y) in enumerate(extra[:EXTRA_PAIRS])]
    return pairs


def oracle_values():
    values = {}
    for name, X, Y in tiny_pairs():
        row = {key: gw_bruteforce(X, Y, p).value for key, p in ORDERS.items()}
        for key in ("p1", "p2"):
            row["rtlb_max_" + key] = rtlb_max(X, Y, ORDERS[key]).rtlb_max
        values[name] = row
    return values


def relative_change(before, after):
    if before > 0.0:
        return (after - before) / before
    return np.inf if after > before else 0.0


def compare(before, after):
    """Per order: counts of falls and rises, and the largest of each."""
    summary = {}
    for key in ORDERS:
        changes = [relative_change(before[name][key], after[name][key]) for name in after]
        falls = [-c for c in changes if c < 0.0]
        rises = [c for c in changes if c > 0.0]
        summary[key] = {
            "values": len(changes),
            "fell": len(falls),
            "rose": len(rises),
            "largest_fall": max(falls, default=0.0),
            "largest_rise": max(rises, default=0.0),
        }
    return summary


def sandwich_violations(values):
    return [
        f"{name} {key}"
        for name, row in values.items()
        for key in ("p1", "p2")
        if row["rtlb_max_" + key] > 2.0 * row[key] + SANDWICH_TOL
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="JSON output of an earlier run")
    args = parser.parse_args(argv)

    values = oracle_values()
    violations = sandwich_violations(values)
    out = {"values": values, "sandwich_violations": violations}
    failed = bool(violations)
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
        # a plain run holds its values, a compared run (BENCH_oracle.json) its "after"
        before = earlier["values"] if "values" in earlier else earlier["after"]
        if sorted(before) != sorted(values):
            raise SystemExit("error: the two runs cover different pairs")
        summary = compare(before, values)
        out = {
            "rise_bound": RISE_BOUND,
            "orders": summary,
            "sandwich_violations": violations,
            "before": before,
            "after": values,
        }
        failed = failed or any(s["largest_rise"] > RISE_BOUND for s in summary.values())
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
