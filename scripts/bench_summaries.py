"""Check the rtlb_max sweep against per-pair bound calls; time the pool.

``dissimilarity_matrix`` runs rtlb_max on each checked set, serially and
at 2 workers, against ``per_pair``: the public ``rtlb_max(X, Y, p)``
called on bare networks one pair at a time, which rebuilds every
invariant per pair and computes every bound of the family, with the
sweep's failure records (a raise, or a value that is not finite).  The
sweep instead wraps each network in a ``NetworkSummary``, sends only
the transport solves of each pair to its jobs and computes szlb and rflb
once per sweep.  The sets are table1, per_class 4, seed 1 (20 networks,
190 pairs), and 8 of those networks with one whose weights are near
1e200, so that each of its 8 pairs fails.  The script exits 1 if any
entry differs from its reference in any bit, if any failure record
differs, or if either route fails a number of pairs other than its
set's expected count (0 and 8), so a fault that fails pairs on both
routes alike still shows.  (scripts/bench_tlb.py checks the stacked
rflb sweep, on table1 per_class 30 seed 1 among others.)  It then times ``netgw compare
--method rtlb_max`` on the first set at ``--workers 1`` and ``--workers
2``, alternating, and records every run.  The timings go to the JSON
file; they do not decide the exit code.

    PYTHONPATH=src python3 scripts/bench_summaries.py [--out BENCH_summaries.json] [--repeats 5]
"""

import contextlib
import io
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np

from netgw import cli
from netgw.analysis import PairFailure, dissimilarity_matrix
from netgw.bounds import rtlb_max
from netgw.core import new_network, save_network
from netgw.errors import DomainError
from netgw.generators import sample_collection

P = 2.0
PER_CLASS = 4


def per_pair(nets, labels, p):
    """The rtlb_max matrix and failure records of order p, one public
    rtlb_max call per pair."""
    k = len(nets)
    want = np.zeros((k, k))
    failures = []
    for i in range(k):
        for j in range(i + 1, k):
            try:
                value = rtlb_max(nets[i], nets[j], p).rtlb_max
                if not math.isfinite(value):
                    raise DomainError(f"rtlb_max value is {value}, not finite")
            except Exception as err:
                value = math.nan
                error = f"{type(err).__name__}: {err}"
                failures.append(PairFailure(i, j, labels[i], labels[j], error))
            want[i, j] = want[j, i] = value
    return want, tuple(failures)


def sweep_sets():
    """(name, networks, labels, expected failures) of each checked set;
    the first is timed."""
    nets, _classes, labels = sample_collection("table1", PER_CLASS, 1)
    yield "table1", nets, labels, 0
    rng = np.random.default_rng(1)
    big = new_network(1e200 * rng.random((6, 6)), np.full(6, 1.0 / 6.0))
    yield ("table1-overflow", nets[::5] + [big] + nets[2::5],
           labels[::5] + ["big"] + labels[2::5], 8)


def check(name, nets, labels, expected_failures):
    """The sweep at 1 and 2 workers against per_pair, as one row."""
    k = len(nets)
    with np.errstate(all="ignore"):
        (want, want_failures), per_pair_s = _bench.seconds(per_pair, nets, labels, P)
    row = {"set": name, "networks": k, "pairs": k * (k - 1) // 2,
           "expected_failures": expected_failures,
           "failures": len(want_failures), "per_pair_s": per_pair_s}
    wrong = len(want_failures) != expected_failures
    for workers in (1, 2):
        with np.errstate(all="ignore"):
            (matrix, failures), sweep_s = _bench.seconds(
                dissimilarity_matrix, nets, "rtlb_max", P, labels, workers=workers)
        row[f"sweep_workers_{workers}_s"] = sweep_s
        differing = int(np.count_nonzero(matrix.D.view(np.int64) != want.view(np.int64)))
        row[f"workers_{workers}_differing_entries"] = differing
        row[f"workers_{workers}_failures"] = len(failures)
        row[f"workers_{workers}_differing_failures"] = len(set(failures) ^ set(want_failures))
        wrong += differing + (failures != want_failures)
        wrong += len(failures) != expected_failures
    row["matches"] = wrong == 0
    return row


def time_compare(nets, labels, repeats):
    """Seconds of `netgw compare --method rtlb_max` on nets, per --workers."""
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
                with contextlib.redirect_stdout(io.StringIO()):
                    code, run_s = _bench.seconds(cli.main, argv)
                runs[workers].append(run_s)
                if code != 0:
                    raise RuntimeError(f"compare --workers {workers} exited {code}")
    return runs


def main(argv=None):
    parser = _bench.parser(__doc__, "BENCH_summaries.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    sets = list(sweep_sets())
    rows = [check(*s) for s in sets]
    for row in rows:
        print(json.dumps(row), file=sys.stderr)
    runs = time_compare(*sets[0][1:3], args.repeats)
    medians = {w: statistics.median(runs[w]) for w in runs}
    matches = all(row["matches"] for row in rows)
    report = {
        "all_match": matches,
        "sweeps": {row["set"]: row for row in rows},
        "compare_rtlb_max": {
            "set": sets[0][0],
            "workers_1_s": runs[1],
            "workers_2_s": runs[2],
            "median_workers_1_s": medians[1],
            "median_workers_2_s": medians[2],
            "workers_2_not_slower": medians[2] <= medians[1],
        },
    }
    _bench.write_report(args.out, report)
    print(json.dumps({"all_match": matches, **{f"median_workers_{w}_s": m
                                                     for w, m in medians.items()}}))
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main())
