"""Time the network JSON writer and reader against the routes they replaced.

The networks are the 50- and 100-node table1 networks (classes c1 and
c3, per_class 1, seed 0), the 400-node circle and 406-node 2-sphere
grid of perfbench's spheres-large pair, and the 1000-node circle.

Write side: the writer before orjson (``json.dumps`` of the arrays'
``tolist()``) against ``core._network_json``, the one orjson call on the
frozen arrays that ``save_network`` and ``network_to_json`` share.  The
old reader must read both texts to the same weights and measure in
every bit (shape included) and the same labels.

Read side: the reader before the row-wise one (stdlib ``json.loads`` of
the whole text, then numpy arrays) against ``core.network_from_json``,
on each network's file text and on the 2-sphere's document re-spelled by
stdlib json with indent=2.  Both readers must give the same weights,
measure and labels in every bit.  Each reader's peak RSS is taken in a
fresh process that reads the file once, with its growth over the RSS
just before the read, when the text is already in memory.  The peak is
the process's VmHWM from /proc/self/status (Linux only): tracemalloc
would not see orjson's buffers, and a child's ``ru_maxrss`` starts from
its parent's RSS at the fork.

The script exits 1 on any difference.  Each route runs --repeats times,
alternating with the one it replaced, and its best and median times go
to the JSON file with the text sizes and the peak memory; they do not
decide the exit code.

    PYTHONPATH=src python3 scripts/bench_io.py [--out BENCH_io.json] [--repeats 5]
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import _bench  # first: it pins BLAS to one thread before numpy loads
import numpy as np
import orjson

from netgw import core
from netgw.generators import sample_collection
from netgw.invariants import sphere_discretize

HERE = Path(__file__).resolve().parent


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


def old_read(text):
    """The reader before the row-wise one: stdlib json of the whole text,
    then numpy arrays of the weights and measure."""
    doc = json.loads(text)
    weights = np.array(doc["weights"], dtype=np.float64)
    return core.new_network(weights, np.array(doc["measure"], dtype=np.float64), doc["labels"])


READERS = {"old": old_read, "new": core.network_from_json}


def fields(X):
    """A network's array shapes and bits, and its labels."""
    return {
        "weights": (X.weights.shape, X.weights.tobytes()),
        "measure": (X.measure.shape, X.measure.tobytes()),
        "labels": X.labels,
    }


def changed(X, Y):
    """The fields in which networks X and Y differ."""
    a, b = fields(X), fields(Y)
    return [key for key in a if a[key] != b[key]]


def differing(old, new):
    """Fields that the old reader reads differently from the two texts."""
    return changed(old_read(old), old_read(new))


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


def memory_mb():
    """This process's resident memory now and at its peak (VmRSS, VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        status = dict(line.split(":", 1) for line in fh)
    return [int(status[key].split()[0]) / 2**10 for key in ("VmRSS", "VmHWM")]


def rss_mb(kind, path):
    """This process's peak RSS after one read of the file at path by reader
    `kind`, and its growth over the RSS just before the read, in MB."""
    text = core.read_text(path)
    before, _ = memory_mb()
    READERS[kind](text)
    _, peak = memory_mb()
    return {"peak_rss_mb": peak, "rss_growth_mb": peak - before}


def fresh_rss_mb(kind, path):
    """rss_mb(kind, path) in a new Python process that imports this netgw."""
    code = "import json, sys, bench_io; print(json.dumps(bench_io.rss_mb(*sys.argv[1:])))"
    src = Path(core.__file__).resolve().parents[1]
    paths = [str(HERE), str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", code, kind, str(path)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def read_row(name, text, path, repeats):
    times = {"old": [], "new": []}
    for _ in range(repeats):
        for kind, fn in READERS.items():
            times[kind].append(_bench.seconds(fn, text)[1])
    row = {
        "network": name,
        "bytes": len(text.encode("utf-8")),
        "differing": changed(old_read(text), core.network_from_json(text)),
    }
    for kind in READERS:
        row[f"{kind}_best_s"] = min(times[kind])
        row[f"{kind}_median_s"] = statistics.median(times[kind])
        for key, value in fresh_rss_mb(kind, path).items():
            row[f"{kind}_{key}"] = value
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


def texts(nets):
    """The file text of each network, then the 2-sphere's re-spelled with indent=2."""
    for name, X in nets:
        yield name, new_text(X)
        if name == "sphere2-400":
            yield f"{name}-indent2", json.dumps(json.loads(new_text(X)), indent=2)


def failing(rows):
    return [row for row in rows if row["differing"]]


def main(argv=None):
    parser = _bench.parser(__doc__, "BENCH_io.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    nets = list(networks())
    write_rows, read_rows = [], []
    for name, X in nets:
        write_rows.append(io_row(name, X, args.repeats))
        print(json.dumps(write_rows[-1]), file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts(nets):
            path = Path(tmp) / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            read_rows.append(read_row(name, text, path, args.repeats))
            print(json.dumps(read_rows[-1]), file=sys.stderr)
    bad = failing(write_rows) + failing(read_rows)
    report = {
        "repeats": args.repeats,
        "write_rows": write_rows,
        "read_rows": read_rows,
        "bit_identical": not bad,
    }
    _bench.write_report(args.out, report, orjson)
    print(json.dumps({"bit_identical": not bad, "failing": [row["network"] for row in bad]}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
