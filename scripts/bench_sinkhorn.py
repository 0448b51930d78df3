"""Time the Sinkhorn loop against its per-iteration form on entropic_gw's inner solves; check they agree.

``ot._scaling``, the loop behind ``sinkhorn`` and ``sinkhorn_log``,
runs its iterations in batches, tests for absorption and for its stop
once per batch, and finishes a solve whose error stalls with Newton
steps.  The reference here is the loop testing after every iteration,
with no Newton step, the form it had before, run by the package's own
``sinkhorn_log`` (its checks, shift and threshold) in place of
``ot._scaling``; tests/test_ot.py checks the package against the same
reference by the same rule (``verdict``).  The script records every
cost matrix that ``gw.entropic_gw`` hands to ``sinkhorn_log`` at lam 100
on every pair of the max-abs normalized table1 draws per_class 1, seeds
0 (the table1-entropic benchmark's draw) and 2 (whose c5 pairs stall
the scaling iteration), then solves each one with the reference and
with the package.

A solve agrees when it is the reference's bit for bit (every
SinkhornResult field, plan bytes included, its outcome and its error
message), or when the reference runs past ot.NEWTON_FIRST_TEST
iterations, where the package's first stall test sits, and the package
converges within the tolerance instead.  Per pair the script reports
the solves, the iterations of each side, ``GwResult.inner_iterations``,
and how many solves took Newton steps and how many steps they took; per
draw and cost shape, the solves, iterations, seconds and microseconds
per iteration of each side, and the package's batch size there.  It
exits 1 if a solve does not agree or if a pair's inner_iterations is not
the total of the package's iterations over its solves.  The timings go
to the JSON file; they do not decide the exit code.  The whole run
takes about a minute on a 2-core machine.

    PYTHONPATH=src python3 scripts/bench_sinkhorn.py [--out BENCH_sinkhorn.json]
"""

import json
import sys

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np

from netgw import gw, ot
from netgw.core import Coupling
from netgw.errors import KernelUnderflowError, MaxItersExceededError, NetgwError
from netgw.generators import normalize_max_abs, sample_collection

LAM = 100.0
SEEDS = (0, 2)


def reference_scaling(cost, cfg, mu, nu, gamma, absorb_threshold):
    """ot._scaling before its tests ran once per batch and before its
    Newton finish: every test after every iteration."""
    u = np.zeros(mu.size)
    v = np.zeros(nu.size)
    K = ot._kernel(cost, cfg.lam, u, v, gamma)
    kernel_min = float(K.min())
    kernel_max = float(K.max())
    if not (kernel_min >= ot.TINY_NORMAL and kernel_max < np.inf):
        raise KernelUnderflowError(
            "kernel entries must be finite and >= the smallest positive "
            f"normal value, entries span [{kernel_min!r}, {kernel_max!r}]"
        )
    kta = K.T @ np.ones(mu.size)
    absorptions = 0
    for it in range(1, cfg.max_iters + 1):
        b = nu / kta
        a = mu / (K @ b)
        if max(float(a.max()), float(b.max())) > absorb_threshold:
            u = u + np.log(a) / cfg.lam
            v = v + np.log(b) / cfg.lam
            K = ot._kernel(cost, cfg.lam, u, v, gamma)
            if not np.all(np.isfinite(K)):
                raise KernelUnderflowError(
                    "absorbed kernel overflowed; lower lam or raise "
                    "absorb_threshold"
                )
            K = np.maximum(K, ot.TINY_NORMAL)
            a = np.ones(mu.size)
            b = np.ones(nu.size)
            absorptions += 1
            kernel_min = min(kernel_min, float(K.min()))
            kernel_max = max(kernel_max, float(K.max()))
        kta = K.T @ a
        err = float(np.abs(b * kta - nu).max())
        if err <= cfg.tolerance or not np.isfinite(err):
            break
    plan = a[:, None] * K * b[None, :]
    usable = np.all(np.isfinite(plan)) and float(plan.sum()) > 0.0
    result = ot.SinkhornResult(
        plan=Coupling(ot._round_to_marginals(plan, mu, nu), mu, nu) if usable else None,
        iterations=it,
        marginal_error=err,
        absorptions=absorptions,
        kernel_min=kernel_min,
        kernel_max=kernel_max,
        converged=err <= cfg.tolerance,
    )
    if result.converged:
        return result
    raise MaxItersExceededError(
        f"marginal error {err!r} after {it} iterations "
        f"(tolerance {cfg.tolerance})",
        partial=result,
    )


def with_loop(solver, loop):
    """solver (ot.sinkhorn or ot.sinkhorn_log) running loop in place of
    ot._scaling: the package's checks, gamma and threshold, another loop."""
    def solve(cost, cfg, mu, nu):
        scaling, ot._scaling = ot._scaling, loop
        try:
            return solver(cost, cfg, mu, nu)
        finally:
            ot._scaling = scaling
    return solve


reference_sinkhorn_log = with_loop(ot.sinkhorn_log, reference_scaling)


def outcome(solver, cost, cfg, mu, nu):
    """(kind, result, message) of one solve: kind is 'converged',
    'stalled' (result the partial) or the error's class name."""
    try:
        return "converged", solver(cost, cfg, mu, nu), None
    except MaxItersExceededError as err:
        return "stalled", err.partial, str(err)
    except NetgwError as err:
        return type(err).__name__, None, str(err)


def fields(kind, res, message):
    """What two solves must share: the outcome, the message and every
    SinkhornResult field, floats by their bits and type, the plan by its bytes."""
    if res is None:
        return kind, message
    plan = None if res.plan is None else res.plan.plan.tobytes()
    floats = (res.marginal_error, res.kernel_min, res.kernel_max)
    return (kind, message, plan, res.iterations, res.absorptions, res.converged,
            [(type(x), np.float64(x).tobytes()) for x in floats])


def verdict(cfg, ref, new):
    """'same' when the package's solve new is the reference's ref bit for
    bit, 'newton' when ref runs past ot.NEWTON_FIRST_TEST iterations and
    new converged within cfg.tolerance instead, else None.  ref and new
    are outcome triples."""
    if fields(*ref) == fields(*new):
        return "same"
    kind, res, _ = new
    if (ref[1] is not None and ref[1].iterations > ot.NEWTON_FIRST_TEST
            and kind == "converged" and res.marginal_error <= cfg.tolerance):
        return "newton"
    return None


def newton_steps(fn, *args):
    """fn(*args) and the Newton steps ot._scaling took in it: the steps
    that returned an iterate, those of a finish later dropped included."""
    steps = 0
    step = ot._newton_step

    def counted(*step_args):
        nonlocal steps
        out = step(*step_args)
        steps += out is not None
        return out

    ot._newton_step = counted
    try:
        return fn(*args), steps
    finally:
        ot._newton_step = step


def iterations(outcome):
    return 0 if outcome[1] is None else outcome[1].iterations


def solve_row(cost, cfg, mu, nu):
    """One recorded solve by both sides: shape, iterations, Newton steps,
    seconds, verdict."""
    ref, ref_s = _bench.seconds(outcome, reference_sinkhorn_log, cost, cfg, mu, nu)
    (new, new_s), steps = newton_steps(_bench.seconds, outcome, ot.sinkhorn_log, cost, cfg, mu, nu)
    return {
        "shape": f"{cost.shape[0]}x{cost.shape[1]}",
        "reference_iterations": iterations(ref),
        "package_iterations": iterations(new),
        "newton_steps": steps,
        "reference_s": ref_s,
        "package_s": new_s,
        "verdict": verdict(cfg, ref, new),
    }


def recorded_costs(X, Y, config):
    """entropic_gw's result on (X, Y) and every cost its inner solves got."""
    costs = []
    solve = gw.sinkhorn_log

    def record(cost, cfg, mu, nu):
        costs.append(cost)
        return solve(cost, cfg, mu, nu)

    gw.sinkhorn_log = record
    try:
        res = gw.entropic_gw(X, Y, config)
    finally:
        gw.sinkhorn_log = solve
    return res, costs


def add_shapes(total, shapes):
    """Add per-shape solves, iterations and seconds into total."""
    for shape, row in shapes.items():
        into = total.setdefault(shape, dict.fromkeys(row, 0))
        for key, value in row.items():
            into[key] += value


def pair_row(name, X, Y, config):
    res, costs = recorded_costs(X, Y, config)
    solves = [solve_row(cost, config, X.measure, Y.measure) for cost in costs]
    timed = ("reference_iterations", "package_iterations", "reference_s", "package_s")
    shapes = {}
    for solve in solves:
        add_shapes(shapes, {solve["shape"]: {"solves": 1, **{k: solve[k] for k in timed}}})
    totals = {k: sum(solve[k] for solve in solves)
              for k in ("reference_iterations", "package_iterations", "newton_steps")}
    differing = [f"solve {k}" for k, solve in enumerate(solves) if solve["verdict"] is None]
    if res.inner_iterations != totals["package_iterations"]:
        differing.append("inner_iterations")
    return {
        "pair": name,
        "solves": len(solves),
        **totals,
        "newton_solves": sum(solve["newton_steps"] > 0 for solve in solves),
        "inner_iterations": res.inner_iterations,
        "shapes": shapes,
        "differing": differing,
    }


def per_iteration(shapes):
    """The per-shape totals with microseconds per iteration of each side
    and the batch size."""
    out = {}
    for shape, row in sorted(shapes.items()):
        m, n = map(int, shape.split("x"))
        out[shape] = {
            **row,
            "batch": ot._batch_size(m, n),
            **{f"{side}_us_per_iteration":
               1e6 * row[f"{side}_s"] / max(row[f"{side}_iterations"], 1)
               for side in ("reference", "package")},
        }
    return out


def draw_summary(seed, rows):
    shapes = {}
    for row in rows:
        add_shapes(shapes, row["shapes"])
    counts = ("solves", "reference_iterations", "package_iterations", "newton_solves",
              "newton_steps", "inner_iterations")
    return {
        "preset": "table1",
        "per_class": 1,
        "seed": seed,
        "pairs": len(rows),
        **{k: sum(row[k] for row in rows) for k in counts},
        "shapes": per_iteration(shapes),
        "rows": rows,
    }


def failing(report):
    return [row for draw in report["draws"] for row in draw["rows"] if row["differing"]]


def main(argv=None):
    args = _bench.parser(__doc__, "BENCH_sinkhorn.json").parse_args(argv)

    draws = []
    config = ot.SinkhornConfig(lam=LAM)
    for seed in SEEDS:
        nets, _, labels = sample_collection("table1", 1, seed)
        nets = [normalize_max_abs(net) for net in nets]
        rows = []
        for i in range(len(nets)):
            for j in range(i + 1, len(nets)):
                row = pair_row(f"{labels[i]}-{labels[j]}", nets[i], nets[j], config)
                rows.append(row)
                print(json.dumps({k: row[k] for k in (
                    "pair", "solves", "reference_iterations", "package_iterations",
                    "newton_solves", "newton_steps", "differing")}), file=sys.stderr)
        draws.append(draw_summary(seed, rows))
    report = {"lam": LAM, "batch": ot.SINKHORN_BATCH,
              "batch_cells": ot.SINKHORN_BATCH_CELLS,
              "newton_first_test": ot.NEWTON_FIRST_TEST, "draws": draws}
    bad = failing(report)
    report["agree"] = not bad
    _bench.write_report(args.out, report)
    summary = {f"seed{d['seed']}": {
        **{k: d[k] for k in ("reference_iterations", "package_iterations",
                             "newton_solves", "newton_steps")},
        **{k: {shape: round(row[k], 2) for shape, row in d["shapes"].items()}
           for k in ("reference_us_per_iteration", "package_us_per_iteration")}}
        for d in draws}
    print(json.dumps({"agree": not bad, "failing": [r["pair"] for r in bad], **summary}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
