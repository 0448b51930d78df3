"""Check a summarized sweep against per-pair bound calls; time the pool.

``dissimilarity_matrix``, which wraps each network of a sweep in a
``NetworkSummary`` and builds its invariants once, runs rtlb_max on
table1, per_class 4, seed 1 (20 networks, 190 pairs), serially and at 2
workers, against ``rtlb_max(X, Y, 2).rtlb_max``: the public bound
function called on bare networks, one pair at a time, which rebuilds
every invariant per pair.  The script exits 1 if any entry differs from
its reference in any bit.  (scripts/bench_tlb.py checks the stacked rflb
sweep, on table1 per_class 30 seed 1 among others.)  It then times
``netgw compare --method rtlb_max`` on the 20 networks at ``--workers 1``
and ``--workers 2``, alternating, and records every run.  The timings go
to the JSON file; they do not decide the exit code.

    PYTHONPATH=src python3 scripts/bench_summaries.py [--out BENCH_summaries.json] [--repeats 5]
"""

import contextlib
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np

from netgw import cli
from netgw.analysis import dissimilarity_matrix
from netgw.bounds import rtlb_max
from netgw.core import save_network
from netgw.generators import sample_collection

P = 2.0
PER_CLASS = 4


def per_pair(nets):
    """The rtlb_max matrix, one public rtlb_max call per pair."""
    k = len(nets)
    want = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            want[i, j] = want[j, i] = rtlb_max(nets[i], nets[j], P).rtlb_max
    return want


def check():
    nets, _classes, labels = sample_collection("table1", PER_CLASS, 1)
    k = len(nets)
    want, per_pair_s = _bench.seconds(per_pair, nets)
    row = {"networks": k, "pairs": k * (k - 1) // 2, "per_pair_s": per_pair_s}
    wrong = 0
    for workers in (1, 2):
        (matrix, failures), sweep_s = _bench.seconds(
            dissimilarity_matrix, nets, "rtlb_max", P, labels, workers=workers)
        row[f"sweep_workers_{workers}_s"] = sweep_s
        differing = int(np.count_nonzero(matrix.D.view(np.int64) != want.view(np.int64)))
        row[f"workers_{workers}_failures"] = len(failures)
        row[f"workers_{workers}_differing_entries"] = differing
        wrong += len(failures) + differing
    row["matches"] = wrong == 0
    return row


def time_compare(repeats):
    """Seconds of `netgw compare --method rtlb_max` on the 20 networks, per --workers."""
    nets, _classes, labels = sample_collection("table1", PER_CLASS, 1)
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

    row = check()
    runs = time_compare(args.repeats)
    medians = {w: statistics.median(runs[w]) for w in runs}
    matches = row["matches"]
    report = {
        "all_match": matches,
        "sweeps": {"rtlb_max": row},
        "compare_rtlb_max_20": {
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
