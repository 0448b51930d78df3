"""Print one sha1 per netgw result on fixed inputs, to check that a change keeps results.

Run it on two checkouts and compare the outputs byte for byte:

    PYTHONPATH=<old checkout>/src python3 scripts/fingerprint_results.py > before.json
    PYTHONPATH=src python3 scripts/fingerprint_results.py > after.json
    diff before.json after.json

The keys are sorted, one per line, so diff lists each result that moved
(or that only one run has) and exits 1 if there is any.

The results are:

- the szlb, rslb, rflb and rtlb_max matrices (p = 2) and their
  single-linkage merges on table1, per_class 2, seed 3;
- the rtlb_max matrix at p = 1 on table3 (per_class 2, seed 3), each
  network max-abs normalized;
- entropic_gw at lam 100 on three max-abs normalized table1 pairs:
  value, iterations, converged, inner stalls and plan;
- distortion and _kernels.dis_pow, the sum over pairs of support cells
  behind every order (p = 2 expands the square first), at p in
  {1, 2, 2.5, inf} on 40 random pairs with weight scales from 1e-6 to 1e6;
- gw_bruteforce at p in {1, 2, inf} on those pairs with at most 9 plan
  cells;
- the rtlb_max reports (numbers and both couplings) on the 40 pairs at
  p in {1, 2};
- sinkhorn and sinkhorn_log on 20 costs x lam in {1, 10, 100, 300}:
  iterations, absorptions, plan and kernel range, or the exception type.

A result that raises is fingerprinted by its exception type.  A sum
taken in another order moves the distortion, dis_pow and gw_bruteforce
keys by rounding alone; scripts/oracle_values.py --against compares
the gw_bruteforce values themselves.  The script only uses names that
have been stable across refactors, and exits 0.
"""

import hashlib
import json
import struct
import sys

import numpy as np

from netgw import _kernels
from netgw.analysis import dissimilarity_matrix, single_linkage
from netgw.bounds import rtlb_max
from netgw.core import Coupling, distortion, new_network, product_coupling
from netgw.generators import normalize_max_abs, sample_collection
from netgw.gw import _round_to_marginals, entropic_gw, gw_bruteforce
from netgw.ot import SinkhornConfig, sinkhorn, sinkhorn_log

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
ENTROPIC_PAIRS = ((0, 1), (2, 6), (4, 8))


def _feed(h, obj):
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(b"s%d:" % len(obj) + obj.encode())
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj, dtype=np.float64)
        h.update(b"a" + repr(a.shape).encode() + a.tobytes())
    elif isinstance(obj, Coupling):
        _feed(h, obj.plan)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        _feed(h, sorted(obj.items()))
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def sha1(obj):
    h = hashlib.sha1()
    _feed(h, obj)
    return h.hexdigest()


def guarded(fn):
    """fn's result, or the name of the exception it raised."""
    try:
        return fn()
    except Exception as err:  # the exception type is the result
        return "raised " + type(err).__name__


def random_pairs(count=40, seed=7):
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        m, n = rng.integers(1, 6, size=2)
        scale = SCALES[k % len(SCALES)]
        nets = []
        for size in (m, n):
            weights = scale * rng.normal(size=(size, size))
            if k % 4 == 0:
                weights = np.round(weights / scale) * scale  # ties
            measure = rng.random(size) + 0.1 if k % 3 else np.ones(size)
            nets.append(new_network(weights, measure / measure.sum()))
        X, Y = nets
        if k % 2:
            plan = _round_to_marginals(rng.random((m, n)), X.measure, Y.measure)
            coupling = Coupling(plan, X.measure, Y.measure)
        else:
            coupling = product_coupling(X.measure, Y.measure)
        pairs.append((X, Y, coupling))
    return pairs


def collection_results(out):
    table1, _, labels = sample_collection("table1", per_class=2, base_seed=3)
    for method in ("szlb", "rslb", "rflb", "rtlb_max"):
        matrix, failures = dissimilarity_matrix(table1, method, p=2.0, labels=labels)
        out[f"table1/{method}/matrix"] = sha1((matrix.D, len(failures)))
        out[f"table1/{method}/merges"] = sha1(single_linkage(matrix).merges)
    table3, _, labels = sample_collection("table3", per_class=2, base_seed=3)
    table3 = [normalize_max_abs(net) for net in table3]
    matrix, failures = dissimilarity_matrix(table3, "rtlb_max", p=1.0, labels=labels)
    out["table3/rtlb_max/p1/matrix"] = sha1((matrix.D, len(failures)))

    normalized = [normalize_max_abs(net) for net in table1]
    config = SinkhornConfig(lam=100.0)
    for i, j in ENTROPIC_PAIRS:
        res = guarded(lambda: entropic_gw(normalized[i], normalized[j], config))
        if not isinstance(res, str):
            res = (res.value, res.iterations, res.converged, res.inner_stalls,
                   res.inner_error, res.coupling)
        out[f"entropic_gw/{labels[i]}-{labels[j]}"] = sha1(res)


def pair_results(out):
    for k, (X, Y, coupling) in enumerate(random_pairs()):
        for p in (1.0, 2.0, 2.5, np.inf):
            out[f"pair{k:02d}/distortion/p{p}"] = sha1(
                guarded(lambda: distortion(X, Y, coupling, p))
            )
            out[f"pair{k:02d}/dis_pow/p{p}"] = sha1(
                _kernels.dis_pow(X.weights, Y.weights, coupling.plan, p)
            )
        if X.n * Y.n <= 9:
            for p in (1.0, 2.0, np.inf):
                res = guarded(lambda: gw_bruteforce(X, Y, p))
                if not isinstance(res, str):
                    res = (res.value, res.iterations, res.converged, res.coupling)
                out[f"pair{k:02d}/gw_bruteforce/p{p}"] = sha1(res)
        for p in (1.0, 2.0):
            report = guarded(lambda: rtlb_max(X, Y, p))
            if not isinstance(report, str):
                report = (report.to_dict(), report.coupling_out, report.coupling_in)
            out[f"pair{k:02d}/rtlb_max/p{p}"] = sha1(report)


def sinkhorn_results(out, count=20, seed=11):
    rng = np.random.default_rng(seed)
    for k in range(count):
        m, n = rng.integers(2, 9, size=2)
        cost = SCALES[k % len(SCALES)] * rng.random((m, n))
        if k % 4 == 3:
            cost -= cost.mean()  # signed cost
        mu = rng.random(m) + 0.1
        nu = rng.random(n) + 0.1
        mu, nu = mu / mu.sum(), nu / nu.sum()
        for lam in (1.0, 10.0, 100.0, 300.0):
            config = SinkhornConfig(lam=lam, max_iters=2000)
            for name, solver in (("sinkhorn", sinkhorn), ("sinkhorn_log", sinkhorn_log)):
                res = guarded(lambda: solver(cost, config, mu, nu))
                if not isinstance(res, str):
                    res = (res.iterations, res.absorptions, res.marginal_error,
                           res.kernel_min, res.kernel_max, res.converged, res.plan)
                out[f"cost{k:02d}/{name}/lam{lam:g}"] = sha1(res)


def main():
    out = {}
    collection_results(out)
    pair_results(out)
    sinkhorn_results(out)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
