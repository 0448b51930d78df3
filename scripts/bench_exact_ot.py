"""Time exact transport on its routes against the full-support LP, and check they agree.

The transports are:

- every rtlb transport (TLB cost at p = 2, "out" and "in") of table1,
  per_class 10, seed 0 (the criterion-09 collection: shapes 50x50,
  50x100, 100x50, 100x100) and of table3, per_class 10, seed 0, max-abs
  normalized as in criterion 10 (20x20).  These take the assignment route;
- the rtlb transports at p in {1, 2}, both directions, of 200 pairs of
  random networks of the criterion-06/07 kind (2 to 12 nodes, weights
  uniform on [-10, 10], non-uniform measures);
- the rtlb transports, both directions, of three sphere pairs with a
  non-uniform measure: sphere_discretize(1, r) against
  sphere_discretize(2, r) at r = 400 (the spheres-large pair, 400x406),
  700 (700x703) and 1000 (1000x990);
- 200 random pairs with non-uniform measures, sides 2 to 80, costs tied
  (integers 0..3), signed (normal) or positive (uniform), each times a
  scale from 1e-6 to 1e6.

The last three groups take the column-generation LP (a side of at most 8
nodes starts on the full support).  Each transport is solved by
``netgw.ot.exact_ot`` and, as the dense reference, by
``netgw.ot._transport_lp`` with every cell in its start support (the
builder scales the cost by a power of two itself and returns the
objective and duals in the cost's units).  Per shape (per group for the
random networks and per cost kind for the random pairs) the script
writes the seconds of both, the pricing rounds and support cells of the
restricted LP, the worst relative objective gap, the worst marginal
error, and how far the dual bound sum(mu f) + sum(nu g) +
min(0, min(C - f - g)) of the LP's final duals lies above the dense
value (excess: a valid dual bound never exceeds the optimum) and below
it (shortfall: at optimal duals the bound meets the optimum, so duals
read in the wrong units fall short), each the worst over the transports
and relative to the dense value.  It also times one rtlb_max call on the
1000x990 sphere pair.  It exits 1 if a gap, a marginal error, a dual
excess or a dual shortfall is above 1e-12, or a plan entry is negative.

    PYTHONPATH=src python3 scripts/bench_exact_ot.py [--out BENCH_exact_ot.json]
"""

import json
import sys

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np
import scipy

from netgw import ot
from netgw.bounds import _tlb_pow_matrix, rtlb_max
from netgw.core import new_network
from netgw.generators import normalize_max_abs, sample_collection
from netgw.invariants import sphere_discretize

LIMIT = 1e-12
SPHERE_RESOLUTIONS = (400, 700, 1000)
RANDOM_PAIRS = 200
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


def rtlb_transports(name, X, Y, p=2.0):
    for direction in ("out", "in"):
        yield name, _tlb_pow_matrix(X, Y, p, direction), X.measure, Y.measure


def collection_transports():
    table1, _, _ = sample_collection("table1", per_class=10, base_seed=0)
    table3, _, _ = sample_collection("table3", per_class=10, base_seed=0)
    table3 = [normalize_max_abs(net) for net in table3]
    for name, nets in (("table1", table1), ("table3", table3)):
        for i in range(len(nets)):
            for j in range(i + 1, len(nets)):
                yield from rtlb_transports(name, nets[i], nets[j])


def network_transports():
    rng = np.random.default_rng(707)

    def network():
        n = int(rng.integers(2, 13))
        measure = rng.random(n) + 0.2
        return new_network(rng.uniform(-10.0, 10.0, size=(n, n)), measure / measure.sum())

    for _ in range(RANDOM_PAIRS):
        X, Y = network(), network()
        for p in (1.0, 2.0):
            yield from rtlb_transports("networks", X, Y, p)


def sphere_transports():
    for r in SPHERE_RESOLUTIONS:
        yield from rtlb_transports("sphere", sphere_discretize(1, r), sphere_discretize(2, r))


def random_transports():
    rng = np.random.default_rng(12)
    for k in range(RANDOM_PAIRS):
        m, n = rng.integers(2, 81, size=2)
        mu, nu = rng.random(m) + 0.05, rng.random(n) + 0.05
        kind = ("tied", "signed", "positive")[k % 3]
        if kind == "tied":
            cost = rng.integers(0, 4, size=(m, n)).astype(float)
        elif kind == "signed":
            cost = rng.normal(size=(m, n))
        else:
            cost = rng.random((m, n))
        yield f"random {kind}", cost * SCALES[k % len(SCALES)], mu / mu.sum(), nu / nu.sum()


def dense_lp(cost, mu, nu):
    """_transport_lp with its start support grown to every cell."""
    start = ot._START_CELLS
    ot._START_CELLS = max(cost.shape)
    try:
        return ot._transport_lp(cost, mu, nu)
    finally:
        ot._START_CELLS = start


def recorded_exact_ot(cost, mu, nu):
    """exact_ot, plus the TransportLp its LP route returned (None on the assignment route)."""
    solved = []
    builder = ot._transport_lp

    def record(*args):
        solved.append(builder(*args))
        return solved[-1]

    ot._transport_lp = record
    try:
        coupling, objective = ot.exact_ot(cost, mu, nu)
    finally:
        ot._transport_lp = builder
    return coupling, objective, (solved[0] if solved else None)


def dual_bound(cost, mu, nu, f, g):
    return float(mu @ f + nu @ g + min(0.0, float((cost - f[:, None] - g[None, :]).min())))


def new_row():
    return dict(transports=0, exact_ot_s=0.0, dense_s=0.0, lp_solves=0, max_rounds=0,
                support_cells=0, dense_cells=0, worst_rel_gap=0.0,
                worst_marginal_error=0.0, worst_dual_excess=0.0, worst_dual_shortfall=0.0,
                min_plan_entry=np.inf)


def measure(rows, key, cost, mu, nu):
    (coupling, objective, lp), exact_ot_s = _bench.seconds(recorded_exact_ot, cost, mu, nu)
    dense, dense_s = _bench.seconds(dense_lp, cost, mu, nu)
    reference = dense.objective
    floor = abs(reference) if reference else 1.0
    gap = abs(objective - reference) / floor
    plan = coupling.plan
    error = float(max(np.abs(plan.sum(1) - mu).max(), np.abs(plan.sum(0) - nu).max()))
    for row in (rows.setdefault(key, new_row()), rows["total"]):
        row["transports"] += 1
        row["exact_ot_s"] += exact_ot_s
        row["dense_s"] += dense_s
        row["worst_rel_gap"] = max(row["worst_rel_gap"], gap)
        row["worst_marginal_error"] = max(row["worst_marginal_error"], error)
        row["min_plan_entry"] = min(row["min_plan_entry"], float(coupling.plan.min()))
        if lp is not None:
            excess = (dual_bound(cost, mu, nu, lp.f, lp.g) - reference) / floor
            row["lp_solves"] += 1
            row["max_rounds"] = max(row["max_rounds"], lp.rounds)
            row["support_cells"] += lp.cells
            row["dense_cells"] += cost.size
            row["worst_dual_excess"] = max(row["worst_dual_excess"], excess)
            row["worst_dual_shortfall"] = max(row["worst_dual_shortfall"], -excess)


def main(argv=None):
    args = _bench.parser(__doc__, "BENCH_exact_ot.json").parse_args(argv)

    rows = {"total": new_row()}
    sources = (collection_transports(), network_transports(), sphere_transports(),
               random_transports())
    for source in sources:
        for name, cost, mu, nu in source:
            grouped = name.startswith(("random", "networks"))
            key = name if grouped else f"{name} {cost.shape[0]}x{cost.shape[1]}"
            measure(rows, key, cost, mu, nu)
    for row in rows.values():
        if row["dense_cells"]:
            row["support_fraction"] = row["support_cells"] / row["dense_cells"]
    total = rows.pop("total")
    total["speedup"] = total["dense_s"] / total["exact_ot_s"]

    X, Y = sphere_discretize(1, 1000), sphere_discretize(2, 1000)
    _, rtlb_max_s = _bench.seconds(rtlb_max, X, Y, 2.0)

    ok = (
        total["worst_rel_gap"] <= LIMIT
        and total["worst_marginal_error"] <= LIMIT
        and total["worst_dual_excess"] <= LIMIT
        and total["worst_dual_shortfall"] <= LIMIT
        and total["min_plan_entry"] >= 0.0
    )
    report = {
        "limit": LIMIT,
        "all_agree": bool(ok),
        "total": total,
        "rtlb_max_1000x990_s": rtlb_max_s,
        "shapes": dict(sorted(rows.items())),
    }
    _bench.write_report(args.out, report, scipy)
    print(json.dumps({**total, "rtlb_max_1000x990_s": rtlb_max_s}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
