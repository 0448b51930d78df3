import dataclasses
import importlib
import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgw import _kernels, analysis
from netgw.analysis import (
    Dendrogram,
    DissimilarityMatrix,
    dissimilarity_matrix,
    emit_outputs,
    ingest_matrix_csv,
    load_dissimilarity_csv,
    single_linkage,
    to_newick,
)
from netgw.bounds import NetworkSummary, _stacked_ecc
from netgw.core import new_network, one_point_network
from netgw.errors import (
    DomainError,
    EncodeError,
    IoError,
    MeasureNotNormalizedError,
    NonSquareError,
    ParseError,
)
from netgw.invariants import size_curve

from conftest import random_network, scaled_network

POINTS = [one_point_network(a) for a in (0.0, 1.0, 3.0)]
POINT_GAPS = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])


# ---------------------------------------------------------------------------
# matrix type


def test_matrix_validation():
    with pytest.raises(NonSquareError):
        DissimilarityMatrix(labels=("a",), D=np.zeros((1, 2)))
    with pytest.raises(DomainError):
        DissimilarityMatrix(labels=("a",), D=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        DissimilarityMatrix(labels=("a", "b"), D=[[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(DomainError):
        DissimilarityMatrix(labels=("a", "b"), D=[[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(DomainError):
        DissimilarityMatrix(labels=("a", "b"), D=[[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(DomainError):
        DissimilarityMatrix(labels=("a", "b"), D=[[0.0, np.nan], [1.0, 0.0]])
    with pytest.raises(DomainError):
        DissimilarityMatrix(labels=("a", "b"), D=[[0.1, 1.0], [1.0, 0.0]])


def test_matrix_accepts_symmetric_nan():
    D = np.array([[0.0, np.nan], [np.nan, 0.0]])
    m = DissimilarityMatrix(labels=("a", "b"), D=D)
    assert m.n == 2
    assert not m.complete


# ---------------------------------------------------------------------------
# pairwise sweep


@pytest.mark.parametrize("method", ["szlb", "rslb", "rflb", "rtlb_max", "entropic_gw"])
def test_one_point_networks_all_methods_agree(method):
    """On one-node networks every method reduces to |a - b|."""
    matrix, failures = dissimilarity_matrix(POINTS, method, p=2.0)
    assert failures == ()
    assert matrix.complete
    npt.assert_allclose(matrix.D, POINT_GAPS, atol=1e-9)
    assert matrix.labels == ("n0", "n1", "n2")


def test_methods_are_ordered_entrywise(rng):
    nets = [random_network(rng, int(n)) for n in rng.integers(2, 6, size=4)]
    sz, _ = dissimilarity_matrix(nets, "szlb", p=2.0)
    rf, _ = dissimilarity_matrix(nets, "rflb", p=2.0)
    rt, _ = dissimilarity_matrix(nets, "rtlb_max", p=2.0)
    assert np.all(sz.D <= rf.D + 1e-9)
    assert np.all(rf.D <= rt.D + 1e-9)


def test_custom_labels_and_validation(rng):
    matrix, _ = dissimilarity_matrix(POINTS, "szlb", labels=["x", "y", "z"])
    assert matrix.labels == ("x", "y", "z")
    with pytest.raises(DomainError):
        dissimilarity_matrix(POINTS, "szlb", labels=["x"])
    with pytest.raises(DomainError):
        dissimilarity_matrix([], "szlb")
    with pytest.raises(DomainError):
        dissimilarity_matrix([POINTS[0], "not a network"], "szlb")


@pytest.mark.parametrize(
    "method, p",
    [("nope", 2.0), ("entropic_gw", 1.0), ("rflb", 0.5), ("rtlb_max", math.inf)],
)
def test_sweep_arguments_checked_before_any_pair(monkeypatch, method, p):
    import netgw.analysis as analysis

    monkeypatch.setattr(analysis, "_pair_job", None)  # running a pair fails
    with pytest.raises(DomainError):
        dissimilarity_matrix(POINTS, method, p=p)


def test_szlb_sweep_accepts_infinite_order():
    matrix, failures = dissimilarity_matrix(POINTS, "szlb", p=math.inf)
    assert failures == ()
    npt.assert_array_equal(matrix.D, POINT_GAPS)


def test_partial_failure_manifest(monkeypatch):
    import netgw.analysis as analysis

    real = analysis.szlb

    def flaky(xi, xj, p):
        if xi.measure.size == 1 and xj.measure.size == 1:
            raise RuntimeError("boom")
        return real(xi, xj, p)

    monkeypatch.setattr(analysis, "szlb", flaky)
    rng = np.random.default_rng(0)
    nets = [POINTS[0], POINTS[1], random_network(rng, 3)]
    matrix, failures = dissimilarity_matrix(nets, "szlb", labels=["a", "b", "c"])
    assert len(failures) == 1
    f = failures[0]
    assert (f.i, f.j) == (0, 1)
    assert (f.label_i, f.label_j) == ("a", "b")
    assert "RuntimeError: boom" in f.error
    assert math.isnan(matrix.D[0, 1])
    assert np.isfinite(matrix.D[0, 2]) and np.isfinite(matrix.D[1, 2])


def test_entropic_inner_error_is_a_failure():
    # at the default lam=100 the kernel exponents of weights spanning
    # [0, 100] leave the double range, so the solver stops at outer
    # iteration 1; its product-coupling value is not a distance
    X = new_network([[0.0, 100.0], [50.0, 0.0]], [0.5, 0.5])
    Y = new_network([[0.0, 10.0], [80.0, 5.0]], [0.3, 0.7])
    matrix, failures = dissimilarity_matrix([X, Y], "entropic_gw", labels=["x", "y"])
    assert len(failures) == 1
    assert (failures[0].label_i, failures[0].label_j) == ("x", "y")
    assert "NotConvergedError" in failures[0].error
    assert "RangeTooWideError" in failures[0].error
    assert math.isnan(matrix.D[0, 1])


def test_entropic_nonconverged_is_a_failure(monkeypatch):
    import netgw.analysis as analysis

    real = analysis.entropic_gw

    def capped(X, Y, config):
        return dataclasses.replace(real(X, Y, config), converged=False)

    monkeypatch.setattr(analysis, "entropic_gw", capped)
    matrix, failures = dissimilarity_matrix(POINTS, "entropic_gw")
    assert len(failures) == 3
    assert all("NotConvergedError" in f.error for f in failures)
    assert all("still moving" in f.error for f in failures)
    assert not np.any(np.isfinite(matrix.D[~np.eye(3, dtype=bool)]))


def test_parallel_matches_serial():
    serial, _ = dissimilarity_matrix(POINTS, "rtlb_max", workers=1)
    parallel, _ = dissimilarity_matrix(POINTS, "rtlb_max", workers=2)
    npt.assert_array_equal(serial.D, parallel.D)
    for bad in (0, -3, 1.5):
        with pytest.raises(DomainError):
            dissimilarity_matrix(POINTS, "rtlb_max", workers=bad)


def _overflow_triple():
    # squares of weights near 1e200 overflow, so every p=2 invariant of
    # the third network is inf
    rng = np.random.default_rng(5)
    good = [random_network(rng, 3), random_network(rng, 4, uniform_measure=True)]
    return good + [new_network(1e200 * rng.random((4, 4)), np.full(4, 0.25))]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("method", ["szlb", "rslb", "rflb", "rtlb_max"])
def test_nonfinite_pair_values_are_failures(method):
    matrix, failures = dissimilarity_matrix(_overflow_triple(), method)
    assert np.isfinite(matrix.D[0, 1])
    assert [(f.i, f.j) for f in failures] == [(0, 2), (1, 2)]
    assert np.isnan(matrix.D[0, 2]) and np.isnan(matrix.D[1, 2])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_lone_nan_pair_value_is_a_failure():
    # inf - inf: both sizes overflow, and szlb is nan
    big = _overflow_triple()[2]
    other = new_network(2.0 * big.weights, big.measure)
    matrix, failures = dissimilarity_matrix([big, other], "szlb")
    assert len(failures) == 1 and "nan" in failures[0].error
    assert np.isnan(matrix.D[0, 1])


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_pair_value_is_a_failure(monkeypatch, value):
    # every bound raises on overflow first; the sweep still refuses a
    # non-finite value from any method
    monkeypatch.setattr(analysis, "_pair_value", lambda *args: value)
    matrix, failures = dissimilarity_matrix(POINTS, "szlb")
    assert len(failures) == 3
    assert all(f"szlb value is {value}, not finite" in f.error for f in failures)
    assert np.isnan(matrix.D[0, 1])


def _sweep_inputs(k):
    rng = np.random.default_rng(11)
    nets = [random_network(rng, 2 + (s % 4), low=0.0, high=0.05) for s in range(k)]
    if k >= 3:
        nets[1] = _overflow_triple()[2]  # every pair with it fails
    return nets


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("method", ["szlb", "rslb", "rflb", "rtlb_max", "entropic_gw"])
def test_pool_matches_serial_bit_for_bit(method, k):
    # k=3 sends fewer pairs than the pool's 4 chunks per worker; k=7 sends
    # 21 pairs in chunks of 3
    nets = _sweep_inputs(k)
    serial, serial_failures = dissimilarity_matrix(nets, method, workers=1)
    pooled, pooled_failures = dissimilarity_matrix(nets, method, workers=2)
    assert serial.D.tobytes() == pooled.D.tobytes()
    assert serial_failures == pooled_failures
    if k >= 3:
        assert {(0, 1), (1, 2)} <= {(f.i, f.j) for f in serial_failures}


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, runs jobs here."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        self.start = (initializer, initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize):
        assert chunksize >= 1
        initializer, initargs = self.start
        initializer(*initargs)
        return map(fn, jobs)


@pytest.mark.parametrize("cores, size", [(None, None), (1, None), (2, 2), (3, 3), (64, 6)])
def test_pool_size_is_capped_at_pairs_and_cores(monkeypatch, cores, size):
    # 4 networks give 6 pairs; a pool of 10**6 is never asked for, and a
    # cap of one runs the pairs serially, without a pool
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    rng = np.random.default_rng(19)
    nets = [random_network(rng, 3) for _ in range(4)]
    serial, _ = dissimilarity_matrix(nets, "rtlb_max", workers=1)
    capped, _ = dissimilarity_matrix(nets, "rtlb_max", workers=10**6)
    assert _SerialPool.sizes == ([] if size is None else [size])
    assert capped.D.tobytes() == serial.D.tobytes()


def _sweep_matches_per_pair(nets, p):
    """The rflb sweep matrix, checked against scripts/bench_tlb.py's
    per-pair loop; its callers take the scripts_path fixture."""
    matrix, failures = dissimilarity_matrix(nets, "rflb", p)
    assert not failures
    want = importlib.import_module("bench_tlb").per_pair_rflb(nets, p)
    for i, j in zip(*np.triu_indices(len(nets), 1)):
        assert matrix.D[i, j] == pytest.approx(want[i, j], rel=1e-12, abs=0.0)
    return matrix


def test_rflb_sweep_matches_per_pair(scripts_path):
    # the stacked sweep integrates on the grid of every network's
    # breakpoints; its terms are nonnegative, so a finer grid moves each
    # value by rounding only
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.lists(scaled_network(exponents=st.integers(-6, 12)), min_size=3, max_size=6),
        st.sampled_from([1.0, 2.0, 2.5]),
    )
    def check(nets, p):
        _sweep_matches_per_pair(nets, p)

    check()


def test_rflb_sweep_in_blocks_matches_per_pair(scripts_path):
    # 60 non-uniform networks merge about 45 times the breakpoints of the
    # widest pushforward, so the stacked call is tiled; three are
    # node-permuted copies of others, whose rflb is exactly 0
    rng = np.random.default_rng(8)
    nets = [random_network(rng, 4 + s % 5) for s in range(60)]
    for copy, source in ((5, 30), (17, 2), (39, 38)):
        perm = rng.permutation(nets[source].n)
        W = nets[source].weights[np.ix_(perm, perm)]
        nets[copy] = new_network(W, nets[source].measure[perm])
    _rows, _atoms, cumulative = _stacked_ecc([NetworkSummary(X) for X in nets], 2.0, "out")
    grid, _seg = _kernels.merged_grid(cumulative, cumulative)
    assert grid.size > _kernels.ONE_BLOCK_RATIO * 2 * cumulative.shape[1]
    for p in (1.0, 2.0):
        matrix = _sweep_matches_per_pair(nets, p)
        assert matrix.D[5, 30] == matrix.D[2, 17] == matrix.D[38, 39] == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rflb_sweep_manifest_matches_pair_route():
    # the overflowing network's pairs go to _pair_job, with rflb's errors
    nets = _sweep_inputs(7)
    matrix, failures = dissimilarity_matrix(nets, "rflb", 2.0, labels=list("abcdefg"))
    sweep = (nets, "rflb", 2.0, None)
    results = [analysis._pair_job((i, j), sweep) for i in range(7) for j in range(i + 1, 7)]
    want = tuple(
        analysis.PairFailure(i, j, "abcdefg"[i], "abcdefg"[j], error)
        for i, j, _value, error in results
        if error is not None
    )
    assert failures == want and len(failures) == 6
    for i, j, value, _error in results:
        assert matrix.D[i, j] == pytest.approx(value, rel=1e-12, nan_ok=True)


def test_rflb_sweep_sends_non_finite_entries_to_the_pair_route(scripts_path, monkeypatch):
    # an entry the stacked call cannot give is computed by rflb itself
    nets = _sweep_inputs(4)[2:] + POINTS
    stacked = analysis.rflb_matrix

    def spoiled(items, p):
        out = stacked(items, p)
        out[0, 2] = math.inf
        return out

    monkeypatch.setattr(analysis, "rflb_matrix", spoiled)
    matrix, failures = dissimilarity_matrix(nets, "rflb", 2.0)
    assert not failures
    per_pair = importlib.import_module("bench_tlb").per_pair_rflb(nets, 2.0)
    assert matrix.D[0, 2] == matrix.D[2, 0] == per_pair[0, 2]


def test_pool_worker_takes_the_callers_float_errors():
    # a spawned worker starts from numpy's defaults, not the caller's
    with np.errstate():
        analysis._start_worker(None, {"over": "ignore", "divide": "raise",
                                      "under": "ignore", "invalid": "warn"})
        assert np.geterr() == {"over": "ignore", "divide": "raise",
                               "under": "ignore", "invalid": "warn"}


@pytest.mark.parametrize(
    "method, name", [("rtlb_max", "_local_quantiles"), ("rflb", "ecc_pushforward")]
)
def test_sweep_builds_each_invariant_once_per_network(monkeypatch, method, name):
    import netgw.bounds as bounds

    calls = []
    real = getattr(bounds, name)

    def counted(X, *args):
        calls.append(X)
        return real(X, *args)

    monkeypatch.setattr(bounds, name, counted)
    rng = np.random.default_rng(13)
    for k in (2, 5):
        calls.clear()
        nets = [random_network(rng, 3 + s % 2) for s in range(k)]
        dissimilarity_matrix(nets, method, workers=1)
        assert len(calls) == 2 * k  # once per network and direction
        assert all(sum(c is net for c in calls) == 2 for net in nets)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_keeps_no_network_alive(workers):
    import gc
    import weakref

    rng = np.random.default_rng(17)
    nets = [random_network(rng, 3) for _ in range(4)]
    refs = [weakref.ref(net) for net in nets]
    matrix, _ = dissimilarity_matrix(nets, "rtlb_max", workers=workers)
    del nets
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert matrix.complete


# ---------------------------------------------------------------------------
# clustering


def _chain_matrix():
    D = np.full((4, 4), 5.0)
    np.fill_diagonal(D, 0.0)
    D[0, 1] = D[1, 0] = 1.0
    D[2, 3] = D[3, 2] = 2.0
    D[1, 2] = D[2, 1] = 3.0
    return DissimilarityMatrix(labels=("a", "b", "c", "d"), D=D)


def test_single_linkage_hand_instance():
    tree = single_linkage(_chain_matrix())
    assert tree.merges == (
        (0, 1, 1.0, 2),
        (2, 3, 2.0, 2),
        (4, 5, 3.0, 4),
    )


def test_single_linkage_tie_break_is_deterministic():
    D = np.full((3, 3), 1.0)
    np.fill_diagonal(D, 0.0)
    m = DissimilarityMatrix(labels=("a", "b", "c"), D=D)
    tree = single_linkage(m)
    assert tree.merges == ((0, 1, 1.0, 2), (3, 2, 1.0, 3))


def test_single_linkage_zero_matrix_is_flat():
    m = DissimilarityMatrix(labels=tuple("abcde"), D=np.zeros((5, 5)))
    tree = single_linkage(m)
    assert all(h == 0.0 for h in tree.heights)
    assert tree.merges[-1][3] == 5


def test_single_linkage_heights_invariant_under_relabeling(rng):
    base = rng.uniform(1.0, 9.0, size=(6, 6))
    D = np.triu(base, 1)
    D = D + D.T
    m = DissimilarityMatrix(labels=tuple("abcdef"), D=D)
    perm = np.array([3, 1, 5, 0, 2, 4])
    Dp = D[np.ix_(perm, perm)]
    mp = DissimilarityMatrix(
        labels=tuple("abcdef"[i] for i in perm), D=Dp
    )
    h1 = single_linkage(m).heights
    h2 = single_linkage(mp).heights
    npt.assert_allclose(h1, h2, atol=1e-12)


def test_single_linkage_trivial_sizes():
    one = DissimilarityMatrix(labels=("only",), D=np.zeros((1, 1)))
    assert single_linkage(one).merges == ()


def _single_linkage_oracle(D):
    """Merges by definition: clusters are leaf sets, the distance of two
    clusters is the least D[i, j] (i < j) across them, and each step
    takes the smallest (distance, min A, min B)."""
    k = D.shape[0]
    clusters = {i: {i} for i in range(k)}

    def link(a, b):
        return min(D[min(i, j), max(i, j)] for i in clusters[a] for j in clusters[b])

    merges = []
    for new in range(k, 2 * k - 1):
        pairs = [(a, b) for a in clusters for b in clusters if min(clusters[a]) < min(clusters[b])]
        a, b = min(pairs, key=lambda ab: (link(*ab), min(clusters[ab[0]]), min(clusters[ab[1]])))
        h = float(link(a, b))
        clusters[new] = clusters.pop(a) | clusters.pop(b)
        merges.append((a, b, h, len(clusters[new])))
    return tuple(merges)


@st.composite
def tied_matrices(draw):
    k = draw(st.integers(1, 12))
    cells = draw(st.lists(st.integers(0, 3), min_size=k * k, max_size=k * k))
    D = np.triu(np.reshape(cells, (k, k)).astype(np.float64), 1)
    D = D + D.T
    if draw(st.booleans()):
        # DissimilarityMatrix allows 1e-9 asymmetry; only i < j is read
        shift = draw(st.lists(st.floats(0.0, 0.9e-9), min_size=k * k, max_size=k * k))
        D = D + np.tril(np.reshape(shift, (k, k)), -1)
    return DissimilarityMatrix(labels=tuple(f"n{i}" for i in range(k)), D=D)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tied_matrices())
def test_single_linkage_property_against_oracle(m):
    assert single_linkage(m).merges == _single_linkage_oracle(m.D)


def test_single_linkage_rejects_missing_entries():
    D = np.array([[0.0, np.nan], [np.nan, 0.0]])
    m = DissimilarityMatrix(labels=("a", "b"), D=D)
    with pytest.raises(DomainError):
        single_linkage(m)


def test_dendrogram_validation():
    with pytest.raises(DomainError):
        Dendrogram(leaf_labels=("a", "b"), merges=())
    with pytest.raises(DomainError):
        Dendrogram(
            leaf_labels=("a", "b", "c"),
            merges=((0, 1, 2.0, 2), (3, 2, 1.0, 3)),  # heights decrease
        )


# ---------------------------------------------------------------------------
# newick


def test_newick_hand_instance():
    tree = single_linkage(_chain_matrix())
    assert to_newick(tree) == "((a:1,b:1):2,(c:2,d:2):1);"


def test_newick_single_leaf():
    tree = Dendrogram(leaf_labels=("solo",), merges=())
    assert to_newick(tree) == "solo;"


def test_newick_empty_tree():
    assert to_newick(Dendrogram(leaf_labels=(), merges=())) == ";"


def test_newick_sanitizes_labels():
    m = DissimilarityMatrix(
        labels=("a b", "c(d)", "e:f"), D=np.zeros((3, 3))
    )
    text = to_newick(single_linkage(m))
    assert "a_b" in text and "c_d_" in text and "e_f" in text
    # every reserved character left is structural
    assert text.count("(") == 2 and text.count(")") == 2


def test_newick_leaf_count(rng):
    k = 7
    D = rng.uniform(1.0, 5.0, size=(k, k))
    D = np.triu(D, 1)
    D = D + D.T
    m = DissimilarityMatrix(labels=tuple(f"leaf{i}" for i in range(k)), D=D)
    text = to_newick(single_linkage(m))
    assert text.count(",") == k - 1
    assert text.endswith(";")


# ---------------------------------------------------------------------------
# CSV ingestion


def test_ingest_uniform_square(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("# a comment\n0,1,2\n1,0,3\n2,3,0\n")
    X = ingest_matrix_csv(f)
    npt.assert_array_equal(
        X.weights, [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
    )
    npt.assert_allclose(X.measure, np.full(3, 1 / 3), atol=1e-15)


def test_ingest_uniform_rejects_nonsquare(tmp_path):
    f = tmp_path / "m.csv"
    # n + 1 rows of width n: the last row is read as a measure, here one
    # that sums to 12
    f.write_text("0,1,2\n1,0,3\n2,3,0\n4,4,4\n")
    with pytest.raises(MeasureNotNormalizedError):
        ingest_matrix_csv(f)
    f.write_text("0,1\n1,0\n2,3\n4,4\n")
    with pytest.raises(NonSquareError):
        ingest_matrix_csv(f)


def test_ingest_last_row_measure(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("0,2\n2,0\n0.25,0.75\n")
    X = ingest_matrix_csv(f)
    npt.assert_array_equal(X.weights, [[0.0, 2.0], [2.0, 0.0]])
    npt.assert_array_equal(X.measure, [0.25, 0.75])


def test_ingest_reports_cell_position(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("0,1\n1,oops\n")
    with pytest.raises(ParseError) as info:
        ingest_matrix_csv(f)
    assert info.value.row == 2
    assert info.value.col == 2


def test_ingest_rejects_ragged_and_empty(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1\n1\n")
    with pytest.raises(ParseError):
        ingest_matrix_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError):
        ingest_matrix_csv(empty)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(IoError):
        ingest_matrix_csv(tmp_path / "absent.csv")


# ---------------------------------------------------------------------------
# emit / load round trip


def test_matrix_roundtrip_is_bit_exact(tmp_path, rng):
    base = rng.uniform(0.1, 2.0, size=(4, 4)) * math.pi
    D = np.triu(base, 1)
    D = D + D.T
    m = DissimilarityMatrix(labels=("w", "x", "y", "z"), D=D)
    emit_outputs(tmp_path, matrix=m)
    back = load_dissimilarity_csv(tmp_path / "dissimilarity.csv")
    npt.assert_array_equal(back.D, m.D)
    assert back.labels == m.labels


def test_matrix_roundtrip_keeps_spaces_around_labels(tmp_path):
    labels = (" a", "b ", "  c  d ", "")
    m = DissimilarityMatrix(labels=labels, D=np.ones((4, 4)) - np.eye(4))
    emit_outputs(tmp_path, matrix=m)
    assert load_dissimilarity_csv(tmp_path / "dissimilarity.csv").labels == labels


@pytest.mark.parametrize("labels", [("a,b", "c"), ("a\nb", "c"), ("x", "y\r")])
def test_emit_refuses_a_label_the_matrix_cannot_read_back(tmp_path, labels):
    # a comma splits the labels line; a line break ends it, or is dropped
    # from the label when it comes last
    m = DissimilarityMatrix(labels=labels, D=np.ones((2, 2)) - np.eye(2))
    bad = next(label for label in labels if label not in ("c", "x"))
    with pytest.raises(EncodeError, match=re.escape(repr(bad))):
        emit_outputs(tmp_path / "out", matrix=m, report={})
    assert not (tmp_path / "out").exists()


def test_emit_tree_and_merges(tmp_path):
    tree = single_linkage(_chain_matrix())
    emit_outputs(tmp_path, tree=tree)
    newick = (tmp_path / "dendrogram.newick").read_text()
    assert newick == to_newick(tree) + "\n"
    merges = (tmp_path / "merges.csv").read_text().splitlines()
    assert merges[0] == "left,right,height,size"
    assert merges[1] == "0,1,1,2"
    assert len(merges) == 4


def test_emit_curves_and_report(tmp_path, rng):
    X = random_network(rng, 4)
    curve = size_curve(X, 1.0, samples=8)
    paths = emit_outputs(
        tmp_path,
        curves={"sub": curve},
        report={"ok": True, "value": 1.5},
    )
    assert str(tmp_path / "curve_sub.csv") in paths
    lines = (tmp_path / "curve_sub.csv").read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 9
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == {"ok": True, "value": 1.5}


def test_emit_refuses_unwritable_target(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file")
    with pytest.raises(IoError):
        emit_outputs(blocker / "sub", matrix=None, report={"a": 1})


def test_load_dissimilarity_default_labels(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,1\n1,0\n")
    m = load_dissimilarity_csv(f)
    assert m.labels == ("n0", "n1")


def test_load_dissimilarity_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_dissimilarity_csv(tmp_path / "absent.csv")


def test_load_dissimilarity_label_count_mismatch(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("# labels: a,b,c\n0,1\n1,0\n")
    with pytest.raises(ParseError):
        load_dissimilarity_csv(f)
