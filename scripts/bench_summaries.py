"""Check summarized sweeps against per-pair bound calls; time the pool.

Two checks of ``dissimilarity_matrix``, which wraps each network of a
sweep in a ``NetworkSummary`` and builds its invariants once:

- rflb on the table1 preset, per_class 30, seed 1 (150 networks, 11175
  pairs), against ``max(rflb(X, Y, 2, "out"), rflb(X, Y, 2, "in"))``;
- rtlb_max on table1, per_class 4, seed 1 (20 networks, 190 pairs),
  against ``rtlb_max(X, Y, 2).rtlb_max``.

The references are the public bound functions called on bare networks,
one pair at a time, which rebuild every invariant per pair.  Both
sweeps run serially and at 2 workers; the script exits 1 if any rtlb_max
entry differs from its reference in any bit, or any rflb entry by more
than 1e-12 relative: the rflb sweep is one stacked kernel call per
direction, whose merged grid is finer than a pair's, so its sums round
differently.  It then times
``netgw compare --method rtlb_max`` on the 20 networks at ``--workers 1``
and ``--workers 2``, alternating, and records every run: the rflb sweep
is one stacked call in this process at any worker count, the rtlb_max
sweep goes through the pool.  The timings go to the JSON file; they do
not decide the exit code.

    PYTHONPATH=src python3 scripts/bench_summaries.py [--out BENCH_summaries.json] [--repeats 5]
"""

import os

# one BLAS thread, set before numpy loads, so two workers fit two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from netgw import cli  # noqa: E402
from netgw.analysis import dissimilarity_matrix  # noqa: E402
from netgw.bounds import rflb, rtlb_max  # noqa: E402
from netgw.core import save_network  # noqa: E402
from netgw.generators import sample_collection  # noqa: E402

P = 2.0
CASES = {
    "rflb": (30, lambda X, Y: max(rflb(X, Y, P, "out"), rflb(X, Y, P, "in")), 1e-12),
    "rtlb_max": (4, lambda X, Y: rtlb_max(X, Y, P).rtlb_max, 0.0),
}


def check(method, per_class, reference, rel_tol):
    nets, _classes, labels = sample_collection("table1", per_class, 1)
    k = len(nets)
    t0 = time.perf_counter()
    want = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            want[i, j] = want[j, i] = reference(nets[i], nets[j])
    row = {"networks": k, "pairs": k * (k - 1) // 2, "per_pair_s": time.perf_counter() - t0}
    wrong = 0
    for workers in (1, 2):
        t0 = time.perf_counter()
        matrix, failures = dissimilarity_matrix(nets, method, P, labels, workers=workers)
        row[f"sweep_workers_{workers}_s"] = time.perf_counter() - t0
        if rel_tol == 0.0:
            differing = int(np.count_nonzero(matrix.D.view(np.int64) != want.view(np.int64)))
        else:
            differing = int(np.count_nonzero(np.abs(matrix.D - want) > rel_tol * np.abs(want)))
        row[f"workers_{workers}_failures"] = len(failures)
        row[f"workers_{workers}_differing_entries"] = differing
        wrong += len(failures) + differing
    row["matches"] = wrong == 0
    return row


def time_compare(repeats):
    """Seconds of `netgw compare --method rtlb_max` on the 20 networks, per --workers."""
    nets, _classes, labels = sample_collection("table1", CASES["rtlb_max"][0], 1)
    runs = {1: [], 2: []}
    with tempfile.TemporaryDirectory(prefix="bench-summaries-") as tmp:
        inp = Path(tmp) / "in"
        inp.mkdir()
        for net, label in zip(nets, labels):
            save_network(net, inp / f"{label}.json")
        for r in range(repeats):
            order = (1, 2) if r % 2 == 0 else (2, 1)
            for workers in order:
                argv = ["compare", str(inp), "--method", "rtlb_max", "--p", "2",
                        "--workers", str(workers), "--out", str(Path(tmp) / "out")]
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                runs[workers].append(time.perf_counter() - t0)
                if code != 0:
                    raise RuntimeError(f"compare --workers {workers} exited {code}")
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_summaries.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    rows = {method: check(method, *case) for method, case in CASES.items()}
    runs = time_compare(args.repeats)
    medians = {w: statistics.median(runs[w]) for w in runs}
    matches = all(row["matches"] for row in rows.values())
    report = {
        "all_match": matches,
        "sweeps": rows,
        "compare_rtlb_max_20": {
            "workers_1_s": runs[1],
            "workers_2_s": runs[2],
            "median_workers_1_s": medians[1],
            "median_workers_2_s": medians[2],
            "workers_2_not_slower": medians[2] <= medians[1],
        },
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"all_match": matches, **{f"median_workers_{w}_s": m
                                                     for w, m in medians.items()}}))
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main())
