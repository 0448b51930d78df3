"""Time the network JSON writer and check what stdlib json reads back.

For each network, the writer before orjson (``json.dumps`` of the
arrays' ``tolist()``) against ``core._network_json``, the one orjson call
on the frozen arrays that ``save_network`` and ``network_to_json`` share.
The networks are the 50- and 100-node table1 networks (classes c1 and c3,
per_class 1, seed 0), the 400-node circle and 406-node 2-sphere grid of
perfbench's spheres-large pair, and the 1000-node circle.

Stdlib ``json.loads`` of both texts must give the same weights and
measure in every bit (shape included) and the same labels; the script
exits 1 on any difference.  Each writer runs --repeats times,
alternating, and its best and median times go to the JSON file with the
text sizes and the peak memory tracemalloc sees during one call; they do
not decide the exit code.

    PYTHONPATH=src python3 scripts/bench_io.py [--out BENCH_io.json] [--repeats 5]
"""

import json
import statistics
import sys
import tracemalloc

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np
import orjson

from netgw import core
from netgw.generators import sample_collection
from netgw.invariants import sphere_discretize


def old_text(X):
    """The text of the writer before orjson: stdlib json of nested lists."""
    doc = {
        "labels": list(X.labels) if X.labels is not None else None,
        "weights": X.weights.tolist(),
        "measure": X.measure.tolist(),
    }
    return json.dumps(doc)


def new_text(X):
    return core._network_json(X).decode("utf-8")


def read_back(text):
    """What stdlib json reads from a network text: array shapes and bits, labels."""
    doc = json.loads(text)
    out = {"labels": doc["labels"]}
    for key in ("weights", "measure"):
        a = np.array(doc[key], dtype=np.float64)
        out[key] = (a.shape, a.tobytes())
    return out


def differing(old, new):
    """Fields that stdlib json reads differently from the two texts."""
    a, b = read_back(old), read_back(new)
    return [key for key in ("weights", "measure", "labels") if a[key] != b[key]]


def peak_mb(fn, X):
    tracemalloc.start()
    try:
        fn(X)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def io_row(name, X, repeats):
    old, new = old_text(X), new_text(X)
    times = {"old": [], "new": []}
    for _ in range(repeats):
        for kind, fn in (("old", old_text), ("new", core._network_json)):
            times[kind].append(_bench.seconds(fn, X)[1])
    row = {"network": name, "nodes": X.n, "differing": differing(old, new)}
    for kind, text, fn in (("old", old, old_text), ("new", new, core._network_json)):
        row[f"{kind}_bytes"] = len(text.encode("utf-8"))
        row[f"{kind}_best_s"] = min(times[kind])
        row[f"{kind}_median_s"] = statistics.median(times[kind])
        row[f"{kind}_peak_alloc_mb"] = peak_mb(fn, X)
    row["median_speedup"] = row["old_median_s"] / row["new_median_s"]
    return row


def networks():
    nets, _classes, labels = sample_collection("table1", 1, 0)
    for net, label in zip(nets, labels):
        if label in ("c1-00", "c3-00"):
            yield f"table1-{label}", net
    yield "sphere1-400", sphere_discretize(1, 400)
    yield "sphere2-400", sphere_discretize(2, 400)
    yield "circle-1000", sphere_discretize(1, 1000)


def failing(rows):
    return [row for row in rows if row["differing"]]


def main(argv=None):
    parser = _bench.parser(__doc__, "BENCH_io.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    rows = []
    for name, X in networks():
        rows.append(io_row(name, X, args.repeats))
        print(json.dumps(rows[-1]), file=sys.stderr)
    bad = failing(rows)
    report = {
        "repeats": args.repeats,
        "rows": rows,
        "bit_identical": not bad,
    }
    _bench.write_report(args.out, report, orjson)
    print(json.dumps({"bit_identical": not bad, "failing": [row["network"] for row in bad]}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
