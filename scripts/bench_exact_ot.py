"""Time exact transport on its routes against the HiGHS LP, and check they agree.

Builds every rtlb transport (TLB cost at p = 2, "out" and "in") of two
collections:

- table1, per_class 10, seed 0 (the criterion-09 collection): shapes
  50x50, 50x100, 100x50 and 100x100;
- table3, per_class 10, seed 0, max-abs normalized as in criterion 10:
  shape 20x20.

Each transport is solved by ``netgw.ot.exact_ot`` (the assignment route on
these uniform measures) and by ``netgw.ot._transport_lp``, the HiGHS LP
that ``exact_ot`` ran for every input before the assignment route.  The
script writes per-shape and total seconds per route, the worst relative
objective gap and the worst marginal error of the returned couplings to a
JSON file, and exits 1 if any gap exceeds 1e-9 or any coupling is
infeasible.

    PYTHONPATH=src python3 scripts/bench_exact_ot.py [--out BENCH_exact_ot.json]
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from netgw.bounds import _tlb_pow_matrix
from netgw.core import MARGINAL_TOL
from netgw.generators import normalize_max_abs, sample_collection
from netgw.ot import _marginal_error, _transport_lp, exact_ot

GAP_LIMIT = 1e-9


def transports():
    table1, _, _ = sample_collection("table1", per_class=10, base_seed=0)
    table3, _, _ = sample_collection("table3", per_class=10, base_seed=0)
    table3 = [normalize_max_abs(net) for net in table3]
    for name, nets in (("table1", table1), ("table3", table3)):
        for i in range(len(nets)):
            for j in range(i + 1, len(nets)):
                for direction in ("out", "in"):
                    X, Y = nets[i], nets[j]
                    yield name, _tlb_pow_matrix(X, Y, 2.0, direction), X.measure, Y.measure


def new_row():
    return dict(transports=0, exact_ot_s=0.0, highs_s=0.0, worst_rel_gap=0.0,
                worst_marginal_error=0.0, min_plan_entry=np.inf)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_exact_ot.json")
    args = parser.parse_args(argv)

    shapes, total = {}, new_row()
    for collection, cost, mu, nu in transports():
        t0 = time.perf_counter()
        coupling, objective = exact_ot(cost, mu, nu)
        t1 = time.perf_counter()
        _, reference = _transport_lp(cost, mu, nu)
        t2 = time.perf_counter()
        gap = abs(objective - reference) / abs(reference) if reference else abs(objective)
        key = f"{collection} {cost.shape[0]}x{cost.shape[1]}"
        for row in (shapes.setdefault(key, new_row()), total):
            row["transports"] += 1
            row["exact_ot_s"] += t1 - t0
            row["highs_s"] += t2 - t1
            row["worst_rel_gap"] = max(row["worst_rel_gap"], gap)
            row["worst_marginal_error"] = max(
                row["worst_marginal_error"], _marginal_error(coupling.plan, mu, nu)
            )
            row["min_plan_entry"] = min(row["min_plan_entry"], float(coupling.plan.min()))

    total["speedup"] = total["highs_s"] / total["exact_ot_s"]
    feasible = total["worst_marginal_error"] <= MARGINAL_TOL and total["min_plan_entry"] >= 0.0
    agree = total["worst_rel_gap"] <= GAP_LIMIT
    report = {
        "per_class": 10,
        "p": 2.0,
        "gap_limit": GAP_LIMIT,
        "all_feasible": bool(feasible),
        "all_agree": bool(agree),
        "total": total,
        "shapes": dict(sorted(shapes.items())),
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(total))
    return 0 if feasible and agree else 1


if __name__ == "__main__":
    sys.exit(main())
