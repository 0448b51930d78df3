import importlib
import time

import numpy as np
import numpy.testing as npt
import pytest

from netgw import _kernels
from netgw.bounds import NetworkSummary, _local_quantiles, _stacked_ecc
from netgw.core import Coupling, _cumulative, distortion, new_network
from netgw.invariants import sphere_discretize

from conftest import loop_dis_pow, random_coupling, random_network


# ---------------------------------------------------------------------------
# python-loop oracles


def _plan(rng, kind):
    """(wx, wy, plan) under a dense coupling, a sparse plan or a permutation."""
    if kind == "permutation":
        X = random_network(rng, 5, uniform_measure=True)
        perm = rng.permutation(5)
        plan = np.zeros((5, 5))
        plan[perm, np.arange(5)] = 0.2
        # a permuted copy, with noise so that the sum is not 0
        wy = X.weights[np.ix_(perm, perm)] + 0.1 * rng.normal(size=(5, 5))
        return X.weights, wy, plan
    X, Y = random_network(rng, 4), random_network(rng, 5)
    plan = np.array(random_coupling(rng, X.measure, Y.measure).plan)
    if kind == "sparse":
        plan[plan < np.quantile(plan, 0.2)] = 0.0
    return X.weights, Y.weights, plan


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, np.inf])
@pytest.mark.parametrize("kind", ["dense", "sparse", "permutation"])
def test_dis_pow_against_quadruple_loops(rng, monkeypatch, kind, p):
    wx, wy, plan = _plan(rng, kind)
    assert np.all(plan > 0.0) == (kind == "dense")
    want = loop_dis_pow(wx, wy, plan, p)
    assert want > 0.0
    assert _kernels.dis_pow(wx, wy, plan, p) == pytest.approx(want, rel=1e-12, abs=0)
    # one support row per chunk
    monkeypatch.setattr(_kernels, "SUPPORT_CHUNK_CELLS", 0)
    assert _kernels.dis_pow(wx, wy, plan, p) == pytest.approx(want, rel=1e-12, abs=0)


def test_dis_pow_permuted_circle_is_zero():
    # 1000 support cells out of 10^6: the sum visits 10^6 quadruples, not 10^12
    X = sphere_discretize(1, 1000)
    perm = np.random.default_rng(5).permutation(X.n)
    Y = new_network(X.weights[np.ix_(perm, perm)], X.measure[perm])
    plan = np.zeros((X.n, X.n))
    plan[perm, np.arange(X.n)] = X.measure[perm]
    c = Coupling(plan, X.measure, Y.measure)
    start = time.perf_counter()
    values = [distortion(X, Y, c, p) for p in (1.0, 2.0, np.inf)]
    assert time.perf_counter() - start < 1.0
    assert values == [0.0, 0.0, 0.0]


def test_tlb_pow_single_pair_oracle():
    # two tiny quantile rows checked by hand: atoms {0,1} w/ masses
    # (1/2,1/2) against a point at 0 -> integral of |F^-1 - G^-1| = 1/2
    qx = np.array([[0.0, 1.0]])
    bx = _kernels.breaks(np.array([[0.5, 1.0]]))
    qy = np.array([[0.0, 0.0]])
    by = _kernels.breaks(np.array([[0.5, 1.0]]))
    for p in (1.0, 2.0, 3.0):
        out = _kernels.tlb_pow(qx, bx, qy, by, p)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_tlb_pow_numpy_identical_rows_exact_zero(rng):
    # the p=2 expansion would leave ~eps*scale noise on the diagonal;
    # the noise-floor resummation must return exact zeros there
    X = random_network(rng, 6)
    qx, bx = _local_quantiles(X, "out")
    for p in (1.0, 2.0):
        out = _kernels.tlb_pow(qx, bx, qx, bx, p)
        npt.assert_array_equal(np.diag(out), np.zeros(6))
    # against a node-permuted copy the zeros move off the diagonal, and no
    # entry comes back negative, however far the expansion cancels
    perm = rng.permutation(6)
    Y = new_network(X.weights[np.ix_(perm, perm)], X.measure[perm])
    qy, by = _local_quantiles(Y, "out")
    for p in (1.0, 2.0):
        out = _kernels.tlb_pow(qx, bx, qy, by, p)
        assert np.all(out >= 0.0)
        npt.assert_array_equal(out[perm, np.arange(6)], np.zeros(6))


@pytest.mark.parametrize("uniform", [False, True])
def test_tlb_pow_blocks_match_one_block(rng, monkeypatch, uniform):
    # blocks of 3 rows (ragged at 17 and 13), each block pair on its own
    # merged grid, against one block on the global grid
    X = random_network(rng, 17, uniform_measure=uniform)
    Y = random_network(rng, 13, uniform_measure=uniform)
    qx, bx = _local_quantiles(X, "out")
    qy, by = _local_quantiles(Y, "out")
    grid, seg = _kernels._merged(bx, by)
    ends_x, ends_y = _kernels._ends(grid, bx), _kernels._ends(grid, by)
    monkeypatch.setattr(_kernels, "ONE_BLOCK_RATIO", 0)
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", 3)
    for p in (1.0, 2.0, 2.5):
        one = (
            _kernels._expanded(qx, ends_x, qy, ends_y, grid, seg)
            if p == 2.0
            else _kernels._direct(qx, ends_x, qy, ends_y, grid, seg, p)
        )
        npt.assert_allclose(_kernels.tlb_pow(qx, bx, qy, by, p), one, rtol=1e-11, atol=0)
        npt.assert_allclose(
            _kernels.quantile_pow(qx, bx, qy, by, p),
            _kernels._direct(qx, ends_x, qy, ends_y, grid, seg, p),
            rtol=1e-11,
            atol=0,
        )


def test_tlb_pow_blocks_keep_exact_zeros(rng, monkeypatch):
    X = random_network(rng, 11)
    perm = rng.permutation(11)
    Y = new_network(X.weights[np.ix_(perm, perm)], X.measure[perm])
    qx, bx = _local_quantiles(X, "out")
    qy, by = _local_quantiles(Y, "out")
    monkeypatch.setattr(_kernels, "ONE_BLOCK_RATIO", 0)
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", 4)
    for p in (1.0, 2.0):
        out = _kernels.tlb_pow(qx, bx, qy, by, p)
        assert np.all(out >= 0.0)
        npt.assert_array_equal(out[perm, np.arange(11)], np.zeros(11))


def test_block_rule_follows_the_grid(rng, monkeypatch):
    # a generic non-uniform pair merges about m^2 + n^2 breakpoints and is
    # tiled; a uniform one merges about m + n and stays one block
    grids = []
    merged = _kernels._merged

    def counted(bx, by):
        grids.append(bx.rank.shape[0])
        return merged(bx, by)

    monkeypatch.setattr(_kernels, "_merged", counted)
    for uniform, calls in ((True, 1), (False, 1 + 5 * 5)):
        X = random_network(rng, 40, uniform_measure=uniform)
        qx, bx = _local_quantiles(X, "out")
        grids.clear()
        _kernels.tlb_pow(qx, bx, qx, bx, 2.0)
        assert len(grids) == calls


def _zero_mass_rows(rng, rows, width):
    """(atoms, cumulative) of rows on tied integer atoms, about a third of
    the masses 0: a leading zero-mass atom puts cumulative 0 in its row,
    a later one repeats a cumulative mass."""
    atoms = np.sort(rng.integers(-3, 4, size=(rows, width)).astype(float), axis=1)
    mass = rng.random((rows, width))
    mass[rng.random((rows, width)) < 0.35] = 0.0
    mass[::2, 0] = 0.0
    mass[:, -1] += 0.1
    return atoms, _cumulative(mass / mass.sum(axis=1, keepdims=True))


def _reference_instances(rng):
    """(qx, cx, qy, cy): local quantiles of a uniform pair, of a pair with
    tied weights on non-uniform measures, and zero-mass rows."""
    X = random_network(rng, 9, uniform_measure=True)
    Y = random_network(rng, 6, uniform_measure=True)
    Z = random_network(rng, 8)
    Z = new_network(np.round(Z.weights / 5.0), Z.measure)
    W = random_network(rng, 5, low=-2.0, high=2.0)
    W = new_network(np.round(W.weights), W.measure)
    for A, B in ((X, Y), (Z, W), (W, W)):
        (qa, ba), (qb, bb) = _local_quantiles(A, "out"), _local_quantiles(B, "in")
        yield qa, ba.points[ba.rank], qb, bb.points[bb.rank]
    yield (*_zero_mass_rows(rng, 7, 5), *_zero_mass_rows(rng, 4, 6))


@pytest.mark.parametrize("tiled", [False, True])
def test_kernels_match_the_sorted_grid_reference(scripts_path, rng, monkeypatch, tiled):
    # scripts/bench_tlb.py keeps the grid and run ends found by sorting
    # every cumulative mass and searching each in the grid; from Breaks
    # they are the same numbers, so both kernels keep every bit, on one
    # block and in blocks of 3 rows
    bench = importlib.import_module("bench_tlb")
    monkeypatch.setattr(_kernels, "ONE_BLOCK_RATIO", 0 if tiled else np.inf)
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", 3)
    for qx, cx, qy, cy in _reference_instances(rng):
        bx, by = _kernels.breaks(cx), _kernels.breaks(cy)
        for p in (1.0, 2.0, 2.5):
            want_tlb = np.empty((qx.shape[0], qy.shape[0]))
            want_direct = np.empty_like(want_tlb)
            step = _kernels.BLOCK_ROWS if tiled else max(qx.shape[0], qy.shape[0])
            for a in range(0, qx.shape[0], step):
                for b in range(0, qy.shape[0], step):
                    x, y = slice(a, a + step), slice(b, b + step)
                    grid, seg, ends_x, ends_y = bench.reference_grid(cx[x], cy[y])
                    args = (qx[x], ends_x, qy[y], ends_y, grid, seg)
                    want_direct[x, y] = _kernels._direct(*args, p)
                    want_tlb[x, y] = _kernels._expanded(*args) if p == 2.0 else want_direct[x, y]
            got_tlb = _kernels.tlb_pow(qx, bx, qy, by, p)
            got_direct = _kernels.quantile_pow(qx, bx, qy, by, p)
            assert got_tlb.tobytes() == want_tlb.tobytes()
            assert got_direct.tobytes() == want_direct.tobytes()
        # the grid and the run ends themselves
        grid, seg, ends_x, ends_y = bench.reference_grid(cx, cy)
        got_grid, got_seg = _kernels._merged(bx, by)
        assert got_grid.tobytes() == grid.tobytes() and got_seg.tobytes() == seg.tobytes()
        npt.assert_array_equal(_kernels._ends(grid, bx), ends_x)
        npt.assert_array_equal(_kernels._ends(grid, by), ends_y)
    # the last instance holds cumulative 0 and repeated masses
    assert np.any(cx == 0.0) and np.any(np.diff(cx, axis=1) == 0.0)


# ---------------------------------------------------------------------------
# grid chunks


def _chunk_instances(rng):
    """(qx, bx, qy, by, zeros) on non-uniform measures; zeros lists the
    (i, j) entries that must be exactly 0, or is None."""
    # weights on a few levels: tied atoms within rows, shared breakpoints
    X = random_network(rng, 9)
    X = new_network(np.round(X.weights / 5.0), X.measure)
    Y = random_network(rng, 7, low=-2.0, high=2.0)
    Y = new_network(np.round(Y.weights), Y.measure)
    perm = rng.permutation(9)
    Z = new_network(X.weights[np.ix_(perm, perm)], X.measure[perm])
    qx, bx = _local_quantiles(X, "out")
    for other, zeros in ((Y, None), (Z, (perm, np.arange(9)))):
        yield (qx, bx, *_local_quantiles(other, "out"), zeros)
    # stacked pushforwards of networks of 2 to 7 nodes: the shorter rows
    # are padded by their last atom at cumulative 1, and every row meets
    # itself on the diagonal
    summaries = [NetworkSummary(random_network(rng, 2 + s % 6)) for s in range(12)]
    _rows, atoms, cumulative = _stacked_ecc(summaries, 2.0, "out")
    b = _kernels.breaks(cumulative)
    yield atoms, b, atoms, b, (np.arange(12), np.arange(12))


def test_grid_chunks_match_one_chunk(rng, monkeypatch):
    # chunks of 3 grid points against the whole grid as one chunk, in both
    # kernels; at p = 2 the flagged resummation runs under chunks too
    for qx, bx, qy, by, zeros in _chunk_instances(rng):
        assert _kernels._merged(bx, by)[0].size > 3 * 4
        for p in (1.0, 2.0, 2.5):
            kernels = (_kernels.tlb_pow, _kernels.quantile_pow)
            one = [kernel(qx, bx, qy, by, p) for kernel in kernels]
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "GRID_CHUNK_CELLS", 0)
                patch.setattr(_kernels, "GRID_CHUNK_MIN", 3)
                chunked = [kernel(qx, bx, qy, by, p) for kernel in kernels]
            for got, want in zip(chunked, one):
                npt.assert_allclose(got, want, rtol=1e-12, atol=0)
                assert np.all(got >= 0.0)
                if zeros is not None:
                    npt.assert_array_equal(got[zeros], 0.0)


def test_quantiles_match_a_per_row_search(rng):
    # the atom of row i at each grid point g is the first whose cumulative
    # mass reaches g: a binary search of g in each row, kept here as the
    # reference for the run-length lookup on every chunk of the grid
    for qx, bx, qy, by, _zeros in _chunk_instances(rng):
        grid, _seg = _kernels._merged(bx, by)
        for q, b in ((qx, bx), (qy, by)):
            ends, c = _kernels._ends(grid, b), b.points[b.rank]
            size = grid.size
            for start, stop in ((0, size), (0, 1), (2, 7), (5, size - 1), (size - 3, size)):
                g = grid[start:stop]
                want = np.array([a[np.searchsorted(b, g, side="left")] for a, b in zip(q, c)])
                npt.assert_array_equal(_kernels._quantiles(q, ends, start, stop), want)
