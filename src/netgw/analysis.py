"""Pairwise dissimilarity matrices, single-linkage clustering, file io."""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bounds import (
    NetworkSummary,
    _check_chain,
    _rtlb_pair,
    _summary,
    rflb,
    rflb_matrices,
    rslb,
    rtlb_max,
    szlb,
)
from .core import MeasureNetwork, _check_order, _freeze, new_network, read_text
from .errors import DomainError, EncodeError, IoError, NonSquareError, NotConvergedError, ParseError
from .gw import entropic_gw
from .ot import SinkhornConfig

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric pairwise matrix; NaN marks a pair whose computation failed."""

    labels: tuple
    D: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.D, dtype=np.float64)
        labels = tuple(str(label) for label in self.labels)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise NonSquareError(f"matrix must be square, got shape {D.shape}")
        if len(labels) != D.shape[0]:
            raise DomainError(f"{len(labels)} labels for a {D.shape[0]}-row matrix")
        finite = np.isfinite(D)
        if np.any(D[finite] < 0.0):
            raise DomainError("dissimilarities must be >= 0")
        if np.any(np.isinf(D)):
            raise DomainError("dissimilarities must be finite or NaN")
        if np.any(finite != finite.T):
            raise DomainError("missing entries must be symmetric")
        both = finite & finite.T
        if np.any(np.abs(np.where(both, D - D.T, 0.0)) > SYMMETRY_TOL):
            raise DomainError("matrix must be symmetric within 1e-9")
        if np.any(np.diag(D) != 0.0):
            raise DomainError("diagonal must be exactly zero")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "D", _freeze(D))

    @property
    def n(self):
        return self.D.shape[0]

    @property
    def complete(self):
        return bool(np.all(np.isfinite(self.D)))


class PairFailure(NamedTuple):
    i: int
    j: int
    label_i: str
    label_j: str
    error: str


# a sweep's pair function (X, Y, p, config) -> value looks its bound up in
# this module's globals when it runs, so a wrapper set on the name sees it
def _szlb_pair(X, Y, p, config):
    return szlb(X, Y, p)


def _rslb_pair(X, Y, p, config):
    return rslb(X, Y, p)


def _rflb_pair(X, Y, p, config):
    return max(rflb(X, Y, p, "out"), rflb(X, Y, p, "in"))


def _rtlb_max_pair(X, Y, p, config):
    return rtlb_max(X, Y, p).rtlb_max


def _entropic_gw_pair(X, Y, p, config):
    # at p = 2 (dissimilarity_matrix checked it)
    res = entropic_gw(X, Y, config)
    # the value of an unconverged or aborted run is only the distortion
    # of some coupling, not an estimate of d_{N,2}; record a failure
    if res.inner_error is not None or not res.converged:
        if res.inner_error is not None:
            reason = res.inner_error
        elif res.cycle:
            reason = f"the plan cycles with period {res.cycle} (outer iteration {res.iterations})"
        else:
            reason = "the plan was still moving"
        raise NotConvergedError(
            f"entropic_gw stopped after {res.iterations} outer iterations: {reason}"
        )
    # the solver estimates d_{N,2}; the matrix convention is 2*d
    return 2.0 * res.value


def _transports(X, Y, p, config):
    # the job of each pair of an rtlb_max sweep: (rtlb 'out', rtlb 'in')
    (value_out, _), (value_in, _) = _rtlb_pair(X, Y, p)
    return value_out, value_in


_PAIR_FUNCTIONS = {"szlb": _szlb_pair, "rslb": _rslb_pair, "rflb": _rflb_pair,
                   "rtlb_max": _rtlb_max_pair, "entropic_gw": _entropic_gw_pair}
METHODS = tuple(_PAIR_FUNCTIONS)


# the sweep a pool worker serves: set once per worker by _start_worker,
# gone with the worker when the pool shuts down
_worker_sweep = None


def _start_worker(sweep, float_errors):
    # float_errors: the caller's np.geterr(), which a spawned worker
    # would not inherit
    global _worker_sweep
    _worker_sweep = sweep
    np.seterr(**float_errors)


def _pair_job(job, sweep=None):
    """(i, j, value, error) of the pair job = (i, j) of sweep.

    sweep is (items, pair function, p, config); a pool worker passes
    none and reads the sweep its initializer set.  dissimilarity_matrix
    checks that each value is finite.
    """
    i, j = job
    items, pair, p, config = _worker_sweep if sweep is None else sweep
    try:
        return i, j, pair(items[i], items[j], p, config), None
    except Exception as err:  # manifest entry, never abort the sweep
        return i, j, float("nan"), f"{type(err).__name__}: {err}"


@contextmanager
def _pair_jobs(sweep, pairs, workers):
    """The records of _pair_job over pairs, as an iterator.  With more
    than one process (at most workers, pairs or cores: a pool starts all
    at once), the pairs go to a pool when the block starts, so the block
    can work while they run."""
    procs = min(workers, len(pairs), os.cpu_count() or 1)
    if procs <= 1:
        yield (_pair_job(pair, sweep) for pair in pairs)
        return
    # the sweep reaches each worker once; the pairs go in a few chunks
    # per worker, and each worker builds the summaries it reads
    chunksize = -(-len(pairs) // (4 * procs))
    with ProcessPoolExecutor(
        max_workers=procs, initializer=_start_worker, initargs=(sweep, np.geterr())
    ) as pool:
        yield pool.map(_pair_job, pairs, chunksize=chunksize)


def _lower_bounds(items, p):
    """(rflb 'out', rflb 'in') between every pair, from the stacked calls,
    under the caller's float errors as on the pair route.  A call that
    raises leaves NaN matrices: the pair route then reports why."""
    try:
        return rflb_matrices(items, p)
    except Exception:
        nan = np.full((len(items), len(items)), np.nan)
        return nan, nan


def _rtlb_max_transports(items, p, pairs, workers):
    """(records, pairs left to the pair route) of an rtlb_max sweep's
    transport jobs, whose chains this process checks as BoundReport does
    while they run.  A job that raised keeps its record: rtlb_max raises
    the same error, before any 1D bound."""
    records, left = [], []
    with _pair_jobs((items, _transports, p, None), pairs, workers) as jobs:
        summaries = [_summary(X) for X in items]
        size = []
        for X in summaries:
            try:
                size.append(X.size(p))
            except Exception:  # NaN sends its pairs to the pair route
                size.append(math.nan)
        scale = [X.size(np.inf) for X in summaries]
        rflb_out, rflb_in = _lower_bounds(summaries, p)
        for i, j, transport, error in jobs:
            if error is not None:
                records.append((i, j, transport, error))
                continue
            # floats, as the per-pair bounds are; szlb as bounds.szlb forms it
            lower = abs(size[i] - size[j]), float(rflb_out[i, j]), float(rflb_in[i, j])
            try:
                _check_chain(*lower, *transport, max(scale[i], scale[j]))
                holds = all(map(math.isfinite, lower))
            except DomainError:
                holds = False
            if holds:
                records.append((i, j, max(transport), None))
            else:
                left.append((i, j))
    return records, left


def dissimilarity_matrix(
    networks,
    method: str,
    p: float = 2.0,
    labels=None,
    workers: int = 1,
    config: SinkhornConfig | None = None,
):
    """All-pairs comparison.  Returns (matrix, failure manifest).

    The method, the order p and workers >= 1 are checked before any pair
    runs.  A pair that raises, or whose value is not finite, becomes a
    NaN entry plus a PairFailure record, in pair order; the other pairs
    still complete.  For the bounds, each network of a sweep over more
    than two networks is wrapped once in a NetworkSummary, so its
    invariants are built once, not once per pair.  Two sweeps take a
    cheaper route first.  An rflb sweep over more than two networks
    takes its values from one stacked kernel call per direction
    (bounds.rflb_matrices), in this process.  An rtlb_max sweep's jobs
    run only the two transport solves of each pair; while they run, this
    process takes szlb from the sizes and rflb from the same stacked
    calls, then checks each pair's chain as BoundReport does.  rslb,
    which never reaches the matrix, is not computed, so no pair fails
    for it alone.  Every pair these routes give no finite value, or
    whose chain fails, then runs the method's own bound in one pass, so
    its value and record are the ones that bound gives.
    workers > 1 starts a process pool of min(workers, pairs, cpu count)
    processes per pass, and runs serially when that is 1; it sends the
    networks (or their summaries) to each worker once, when the worker
    starts, and then the pairs as (i, j) index chunks, a few per worker;
    each worker builds the invariants it needs on first use.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; available: {METHODS}")
    if not (isinstance(workers, (int, np.integer)) and workers >= 1):
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    # szlb is the one method defined at p = inf (through size_p)
    p = _check_order(p, finite=method != "szlb")
    if method == "entropic_gw" and p != 2.0:
        raise DomainError(f"entropic_gw supports p=2 only, got p={p}")
    networks = list(networks)
    if not networks:
        raise DomainError("need at least one network")
    for k, net in enumerate(networks):
        if not isinstance(net, MeasureNetwork):
            raise DomainError(f"entry {k} is not a network")
    if labels is None:
        labels = [f"n{k}" for k in range(len(networks))]
    labels = [str(label) for label in labels]
    if len(labels) != len(networks):
        raise DomainError(f"{len(labels)} labels for {len(networks)} networks")
    if method == "entropic_gw" and config is None:
        config = SinkhornConfig(lam=100.0)

    k = len(networks)
    items = networks
    if method != "entropic_gw" and k > 2:
        # a network in more than one pair is summarized once; with k = 2
        # nothing is reused, and kept quantiles would only add memory
        items = [NetworkSummary(net) for net in networks]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    upper = np.triu_indices(k, 1)
    D = np.zeros((k, k))
    records = []
    if method == "rflb" and k > 2:
        # array writes, not records: a pair gets one only on the pair route
        D[upper] = np.maximum(*_lower_bounds(items, p))[upper]
        missing = ~np.isfinite(D)
        pairs = [(i, j) for i, j in pairs if missing[i, j]]
    elif method == "rtlb_max":
        records, pairs = _rtlb_max_transports(items, p, pairs, workers)
    with _pair_jobs((items, _PAIR_FUNCTIONS[method], p, config), pairs, workers) as jobs:
        records.extend(jobs)

    failures = []
    for i, j, value, error in sorted(records, key=lambda record: record[:2]):
        value = float(value)
        if error is None and not math.isfinite(value):
            # an overflowed invariant gives inf or nan; neither is a distance
            value, error = math.nan, f"DomainError: {method} value is {value}, not finite"
        D[i, j] = value
        if error is not None:
            failures.append(PairFailure(i, j, labels[i], labels[j], error))
    D[upper[::-1]] = D[upper]
    matrix = DissimilarityMatrix(labels=tuple(labels), D=D)
    return matrix, tuple(failures)


@dataclass(frozen=True)
class Dendrogram:
    """Single-linkage merge history.

    Cluster ids: leaves are 0..k-1, the merge at step s creates id k+s.
    merges rows are (left id, right id, height, member count); heights
    never decrease.
    """

    leaf_labels: tuple
    merges: tuple

    def __post_init__(self):
        labels = tuple(str(label) for label in self.leaf_labels)
        merges = tuple(
            (int(a), int(b), float(h), int(size)) for a, b, h, size in self.merges
        )
        k = len(labels)
        if len(merges) != max(k - 1, 0):
            raise DomainError(f"{k} leaves need {k - 1} merges, got {len(merges)}")
        heights = [m[2] for m in merges]
        for prev, nxt in zip(heights, heights[1:]):
            if nxt < prev - 1e-12:
                raise DomainError("merge heights must be nondecreasing")
        object.__setattr__(self, "leaf_labels", labels)
        object.__setattr__(self, "merges", merges)

    @property
    def heights(self):
        return tuple(m[2] for m in self.merges)


def single_linkage(matrix: DissimilarityMatrix) -> Dendrogram:
    """Agglomerate by minimum inter-cluster distance.

    Row and column r of the working matrix stand for the cluster whose
    smallest leaf is r; each merge folds the higher row into the lower.
    Ties go to the pair whose smallest leaf indices are lexicographically
    first, so the merge order is deterministic.
    """
    if not matrix.complete:
        raise DomainError("matrix has missing entries; cannot cluster")
    k = matrix.n
    # only the upper triangle is read: the matrix may be 1e-9 asymmetric
    upper = np.triu_indices(k, 1)
    dist = np.full((k, k), np.inf)
    dist[upper] = dist[upper[::-1]] = matrix.D[upper]
    cluster = list(range(k))
    size = [1] * k
    merges = []
    for step in range(k - 1):
        # the first minimum in row-major order is the smallest (d, lo, hi)
        lo, hi = divmod(int(np.argmin(dist)), k)
        size[lo] += size[hi]
        merges.append((cluster[lo], cluster[hi], float(dist[lo, hi]), size[lo]))
        dist[lo] = dist[:, lo] = np.minimum(dist[lo], dist[hi])
        dist[hi] = dist[:, hi] = np.inf
        dist[lo, lo] = np.inf
        cluster[lo] = k + step
    return Dendrogram(leaf_labels=matrix.labels, merges=tuple(merges))


def _newick_label(label):
    out = []
    for ch in label:
        out.append("_" if ch in "(),:;'\" \t\n" else ch)
    return "".join(out)


def to_newick(tree: Dendrogram) -> str:
    """Serialize with branch length = parent height - child height."""
    k = len(tree.leaf_labels)
    if k == 0:
        return ";"
    height = {i: 0.0 for i in range(k)}
    text = {i: _newick_label(tree.leaf_labels[i]) for i in range(k)}
    node = None
    for s, (a, b, h, _) in enumerate(tree.merges):
        node = k + s
        la = h - height[a]
        lb = h - height[b]
        text[node] = f"({text[a]}:{_fmt(la)},{text[b]}:{_fmt(lb)})"
        height[node] = h
    root = node if node is not None else 0
    return text[root] + ";"


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_numeric_rows(lines, path, empty_ok=False):
    # empty_ok: no data rows give a 0 x 0 array instead of a ParseError
    rows = []
    data_row = 0
    for raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_row += 1
        cells = stripped.split(",")
        parsed = []
        for c, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: bad number {cell.strip()!r} at row {data_row}, "
                    f"column {c}",
                    row=data_row,
                    col=c,
                ) from None
        rows.append(parsed)
    if not rows:
        if empty_ok:
            return np.zeros((0, 0))
        raise ParseError(f"{path}: no data rows", row=1, col=1)
    width = len(rows[0])
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {r} has {len(row)} cells, expected {width}",
                row=r,
                col=len(row) + 1,
            )
    return np.array(rows, dtype=np.float64)


def ingest_matrix_csv(path) -> MeasureNetwork:
    """Read a weight matrix from CSV; the shape says where the measure is.

    n rows of width n are the weights under the uniform measure; n + 1
    rows of width n are the weights followed by one row holding the node
    measure.  Comment lines start with '#'.
    """
    lines = read_text(path).splitlines()
    values = _parse_numeric_rows(lines, path)
    rows, n = values.shape
    if rows == n + 1:
        return new_network(values[:-1], values[-1])
    if rows != n:
        raise NonSquareError(
            f"{path}: expected n rows of width n (uniform measure) or n + 1 "
            f"(last row the measure), got {rows} rows of width {n}"
        )
    return new_network(values, np.full(n, 1.0 / n))


def load_dissimilarity_csv(path) -> DissimilarityMatrix:
    """Read a matrix written by emit_outputs (labels live in a comment).

    The labels are the text after "labels:" and the one space the writer
    puts there, split on commas only, so spaces around a label survive.
    An empty labels text with no data rows is the 0 x 0 matrix.
    """
    lines = read_text(path).splitlines()
    labels = None
    for raw in lines:
        if raw.strip().startswith("#") and "labels:" in raw:
            labels = raw.split("labels:", 1)[1].removeprefix(" ").split(",")
    D = _parse_numeric_rows(lines, path, empty_ok=labels == [""])
    if D.size == 0:
        labels = []
    if D.shape[0] != D.shape[1]:
        raise NonSquareError(f"{path}: matrix must be square, got {D.shape}")
    if labels is None:
        labels = [f"n{k}" for k in range(D.shape[0])]
    if len(labels) != D.shape[0]:
        raise ParseError(
            f"{path}: {len(labels)} labels for {D.shape[0]} rows", row=1, col=1
        )
    return DissimilarityMatrix(labels=tuple(labels), D=D)


def check_matrix_labels(labels):
    """EncodeError naming the first label with a comma or a line break (where
    str.splitlines breaks): dissimilarity.csv cannot hold it on its labels line."""
    for label in labels:
        if "," in label or "".join(label.splitlines()) != label:
            raise EncodeError(f"label {label!r} holds a comma or a line break, "
                              "so it cannot label a row of dissimilarity.csv")


def emit_outputs(
    out_dir,
    matrix: DissimilarityMatrix | None = None,
    tree: Dendrogram | None = None,
    curves: dict | None = None,
    report: dict | None = None,
):
    """Write analysis products under out_dir; returns the paths written.

    Floats go out as %.17g so a read-back reproduces them bit for bit.
    """
    check_matrix_labels(matrix.labels if matrix is not None else ())
    out_dir = Path(out_dir)
    written = []

    def put(name, lines):
        target = out_dir / name
        target.write_text("\n".join(lines) + "\n")
        written.append(str(target))

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if matrix is not None:
            rows = [",".join(_fmt(v) for v in row) for row in matrix.D]
            put("dissimilarity.csv", ["# labels: " + ",".join(matrix.labels)] + rows)
        if tree is not None:
            put("dendrogram.newick", [to_newick(tree)])
            rows = [f"{a},{b},{_fmt(h)},{sz}" for a, b, h, sz in tree.merges]
            put("merges.csv", ["left,right,height,size"] + rows)
        for name, curve in (curves or {}).items():
            rows = [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(curve.grid, curve.values)]
            put(f"curve_{name}.csv", ["t,value"] + rows)
        if report is not None:
            put("report.json", [json.dumps(report, indent=2, sort_keys=True, allow_nan=False)])
    except OSError as err:
        raise IoError(f"cannot write under {out_dir}: {err}") from err
    return written
