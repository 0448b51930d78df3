"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1-rtlb --seed 1 --seconds 25 --trace 0

Run from the repository root.  The run repeats whole rounds (set-up,
CLI steps, output checks), as many as take about --seconds seconds on
a two-core machine, and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
medians over the rounds; with --trace 1 they are the per-layer ones,
from rounds run in one process with every layer wrapped in spans.
"""

import os

# One BLAS thread, set before numpy loads: two pool workers then fit the
# two cores, and reductions keep one order, so solver iteration counts
# and failure counts repeat exactly from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics, tail_percentile, tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench-runs"


def import_program():
    """Import netgw from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import netgw
    except ImportError as err:
        sys.exit(f"cannot import netgw from {ROOT / 'src'}: {err}")
    if Path(netgw.__file__).resolve().parent != (ROOT / "src" / "netgw").resolve():
        sys.exit(f"netgw imported from {netgw.__file__}, not from this checkout")


def run_cli(argv):
    """netgw.cli.main with output captured; returns (exit code, stdout)."""
    from netgw import cli

    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as err:
        rc = err.code if isinstance(err.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue()


@dataclass
class Round:
    setup_s: list = field(default_factory=list)
    step_s: dict = field(default_factory=dict)
    wall_s: float = 0.0
    outcome: object = None


def run_round(workload, seed, workdir, workers, tracer=None):
    inp, out = workdir / "in", workdir / "out"
    result = Round()
    # a traced round sets up once, so its io and generator spans are one set-up's
    reps = workload.setup_reps if tracer is None else 1
    with tracing(tracer) if tracer is not None else nullcontext():
        for _ in range(reps):
            shutil.rmtree(workdir, ignore_errors=True)
            inp.mkdir(parents=True)
            start = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                ops = workload.setup(seed, inp)
            result.setup_s.append(time.perf_counter() - start)
        results = {}
        with workload.observe() as observed:
            start = time.perf_counter()
            for step, argv in workload.steps(inp, out, workers):
                step_start = time.perf_counter()
                results[step] = run_cli(argv)
                result.step_s[step] = time.perf_counter() - step_start
            result.wall_s = time.perf_counter() - start
    result.outcome = workload.check(ops, inp, out, results, observed)
    return result


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children are the reaped pool workers
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(workload, rounds):
    pairs = workload.pairs(rounds[0].outcome.ops)
    return {
        "setup_s": (statistics.median(s for r in rounds for s in r.setup_s), "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "pairs_per_s": (statistics.median(pairs / r.step_s["compare"] for r in rounds), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


UNITS = {"_s": "s", "_ms": "ms", ".bytes": "bytes"}


def unit_of(name):
    return next((unit for end, unit in UNITS.items() if name.endswith(end)), "count")


def per_layer(workload, plain, traced):
    pooled = workload.workers > 1
    layers = [layer_metrics(tracer, pooled) for _, tracer in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    pair_ms = [1e3 * d for _, tracer in traced for d in tracer.durations("analysis.pair")]
    pct = tail_percentile(len(pair_ms))
    metrics["analysis.pair.p50_ms"] = float(np.percentile(pair_ms, 50)) if pair_ms else 0.0
    metrics["analysis.pair.tail_ms"] = float(np.percentile(pair_ms, pct)) if pair_ms else 0.0
    plain_s = statistics.median(r.wall_s for r in plain)
    traced_s = statistics.median(r.wall_s for r, _ in traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    print(f"single-process wall_s: untraced {plain_s:.4f} s, traced {traced_s:.4f} s")
    print(f"analysis.pair.tail_ms is the p{pct:g} of {len(pair_ms)} pair spans")
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    # A fixed number of rounds for a given --seconds, not a timed loop: the
    # peak memory grows with the number of rounds, and every run must
    # attempt the same operations.
    rounds = max(1, round(args.seconds / workload.round_s / (2 if args.trace else 1)))
    plain, traced = [], []
    try:
        for _ in range(rounds):
            if args.trace:
                # same single process for both, so the difference is the trace
                plain.append(run_round(workload, args.seed, workdir, 1))
                tracer = Tracer()
                traced.append((run_round(workload, args.seed, workdir, 1, tracer), tracer))
            else:
                plain.append(run_round(workload, args.seed, workdir, workload.workers))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    rounds = plain + [r for r, _ in traced]
    attempted = sum(len(r.outcome.ops) for r in rounds)
    failed = sum(len(r.outcome.failed) for r in rounds)
    correct = all(r.outcome.correct for r in rounds)
    metrics = per_layer(workload, plain, traced) if args.trace else end_to_end(workload, plain)

    print(f"workload {workload.name}, seed {args.seed}, {len(rounds)} rounds")
    print(f"operations attempted {attempted}, failed {failed}")
    reasons = {op: why for r in rounds for op, why in r.outcome.failed.items()}
    for op, reason in sorted(reasons.items()):
        print(f"  failed {' x '.join(op[1:]) or op[0]}: {reason}")
    for problem in sorted({p for r in rounds for p in r.outcome.problems}):
        print(f"  check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
