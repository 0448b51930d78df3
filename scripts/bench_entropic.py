"""Time entropic_gw against its outer loop without the cycle check; check they agree.

``gw.entropic_gw`` stops with converged=False when its plan comes back
within plan_tol of an anchor plan (Brent's cycle check).  The reference
here is the outer loop before that check: it stops only when the plan
stops moving, when an inner solve fails, or on the budget, and it keeps
every plan it visits.  Both run at lam 100 and the default budget on
every pair of the max-abs normalized table1 draws per_class 1, seeds 0
(the table1-entropic benchmark's draw) and 2 (whose c5 pairs stall the
inner solver on many outer iterations).

Per pair, each side records its outcome (converged, cycle, budget or
inner_error), outer iterations and seconds; the change also records the
period it found and its Sinkhorn iterations (GwResult.inner_iterations),
and the reference the smallest period L >= 2 with its
last plan within plan_tol of the plan L steps back (0 if none up to 100).
The script exits 1 if a pair's converged flag differs, if a converged
pair differs in iterations, plan bytes or value, or if the plan of a run
stopped early is not the reference's plan at the same outer iteration.
The timings go to the JSON file; they do not decide the exit code.  The
whole run takes a few minutes on a 2-core machine.

    PYTHONPATH=src python3 scripts/bench_entropic.py [--out BENCH_entropic.json]
"""

import json
import sys

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np

from netgw import gw
from netgw.core import Coupling, _Dis2, distortion, product_coupling
from netgw.errors import KernelUnderflowError, MaxItersExceededError, RangeTooWideError
from netgw.generators import normalize_max_abs, sample_collection
from netgw.ot import SinkhornConfig

LAM = 100.0
SEEDS = (0, 2)
OUTER_ITERS = 200
PLAN_TOL = 1e-8
LONGEST_PERIOD = 100


def reference_entropic_gw(X, Y, config, outer_iters=OUTER_ITERS, plan_tol=PLAN_TOL):
    """Every plan the loop without the cycle check visits (plans[0] the
    product coupling), and its outcome: converged, budget or inner_error.
    Each step linearizes by the package's own gw._linearized_cost."""
    dis2 = _Dis2(X, Y)
    plans = [product_coupling(X.measure, Y.measure).plan]
    for _ in range(outer_iters):
        plan = plans[-1]
        cost = gw._linearized_cost(dis2, plan)
        try:
            new_plan = gw.sinkhorn_log(cost, config, X.measure, Y.measure).plan.plan
        except MaxItersExceededError as err:
            if err.partial.plan is None:
                return plans, "inner_error"
            new_plan = err.partial.plan.plan
        except (KernelUnderflowError, RangeTooWideError):
            return plans, "inner_error"
        plans.append(new_plan)
        if np.abs(new_plan - plan).sum() <= plan_tol:
            return plans, "converged"
    return plans, "budget"


def tail_period(plans, plan_tol=PLAN_TOL):
    """Smallest L >= 2 with the last plan within plan_tol of the one L back, or 0."""
    for lag in range(2, min(LONGEST_PERIOD, len(plans) - 1) + 1):
        if np.abs(plans[-1] - plans[-1 - lag]).sum() <= plan_tol:
            return lag
    return 0


def outcome(res):
    if res.inner_error is not None:
        return "inner_error"
    if res.converged:
        return "converged"
    return "cycle" if res.cycle else "budget"


def differing(X, Y, res, plans, ref_outcome):
    """What of the entropic_gw result res the reference run disagrees with."""
    ref_converged = ref_outcome == "converged"
    if res.converged != ref_converged:
        return ["converged"]
    out = []
    if res.iterations >= len(plans) or (
        res.coupling.plan.tobytes() != plans[res.iterations].tobytes()
    ):
        out.append("plan")
    if ref_converged:
        if res.iterations != len(plans) - 1:
            out.append("iterations")
        ref_value = 0.5 * distortion(X, Y, Coupling(plans[-1], X.measure, Y.measure), 2.0)
        if res.value != ref_value:
            out.append("value")
    return out


def pair_row(name, X, Y, config):
    (plans, ref_outcome), ref_s = _bench.seconds(reference_entropic_gw, X, Y, config)
    res, new_s = _bench.seconds(gw.entropic_gw, X, Y, config)
    return {
        "pair": name,
        "reference": {
            "outcome": ref_outcome,
            "iterations": len(plans) - 1,
            "tail_period": tail_period(plans) if ref_outcome != "converged" else 0,
            "seconds": ref_s,
        },
        "change": {
            "outcome": outcome(res),
            "iterations": res.iterations,
            "period": res.cycle,
            "inner_iterations": res.inner_iterations,
            "seconds": new_s,
        },
        "differing": differing(X, Y, res, plans, ref_outcome),
    }


def draw_rows(seed):
    nets, _, labels = sample_collection("table1", 1, seed)
    nets = [normalize_max_abs(net) for net in nets]
    config = SinkhornConfig(lam=LAM)
    for i in range(len(nets)):
        for j in range(i + 1, len(nets)):
            yield pair_row(f"{labels[i]}-{labels[j]}", nets[i], nets[j], config)


def draw_summary(seed, rows):
    return {
        "preset": "table1",
        "per_class": 1,
        "seed": seed,
        "pairs": len(rows),
        "reference_s": sum(r["reference"]["seconds"] for r in rows),
        "change_s": sum(r["change"]["seconds"] for r in rows),
        "reference_iterations": sum(r["reference"]["iterations"] for r in rows),
        "change_iterations": sum(r["change"]["iterations"] for r in rows),
        "change_inner_iterations": sum(r["change"]["inner_iterations"] for r in rows),
        "outcomes": {
            side: {o: sum(r[side]["outcome"] == o for r in rows)
                   for o in sorted({r[side]["outcome"] for r in rows})}
            for side in ("reference", "change")
        },
        "rows": rows,
    }


def failing(report):
    return [row for draw in report["draws"] for row in draw["rows"] if row["differing"]]


def main(argv=None):
    args = _bench.parser(__doc__, "BENCH_entropic.json").parse_args(argv)

    draws = []
    for seed in SEEDS:
        rows = []
        for row in draw_rows(seed):
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
        draws.append(draw_summary(seed, rows))
    report = {
        "lam": LAM,
        "outer_iters": OUTER_ITERS,
        "plan_tol": PLAN_TOL,
        "draws": draws,
    }
    bad = failing(report)
    report["agree"] = not bad
    _bench.write_report(args.out, report)
    summary = {f"seed{d['seed']}": {k: d[k] for k in ("reference_s", "change_s", "outcomes")}
               for d in draws}
    print(json.dumps({"agree": not bad, "failing": [r["pair"] for r in bad], **summary}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
