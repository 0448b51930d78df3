import numpy as np
import numpy.testing as npt
import pytest

from netgw import _kernels
from netgw.bounds import _local_quantiles
from netgw.core import new_network

from conftest import random_coupling, random_network


def _instance(rng, m, n, uniform=False):
    X = random_network(rng, m, uniform_measure=uniform)
    Y = random_network(rng, n, uniform_measure=uniform)
    plan = np.array(random_coupling(rng, X.measure, Y.measure).plan)
    # zero out a few cells so the sparsity branches run
    plan[plan < np.quantile(plan, 0.2)] = 0.0
    return X, Y, plan


# ---------------------------------------------------------------------------
# python-loop oracles


def test_dis_pow_against_quadruple_loops(rng):
    X, Y, plan = _instance(rng, 3, 4)
    for p in (1.0, 2.0, 2.5):
        acc = 0.0
        for i in range(3):
            for j in range(4):
                for k in range(3):
                    for l in range(4):
                        acc += (
                            abs(X.weights[i, k] - Y.weights[j, l]) ** p
                            * plan[i, j]
                            * plan[k, l]
                        )
        got = _kernels.dis_pow(X.weights, Y.weights, plan, p)
        assert got == pytest.approx(acc, abs=1e-12)


def test_dis_sup_against_loops(rng):
    X, Y, plan = _instance(rng, 3, 3)
    best = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    if plan[i, j] > 0.0 and plan[k, l] > 0.0:
                        best = max(
                            best, abs(X.weights[i, k] - Y.weights[j, l])
                        )
    assert _kernels.dis_sup(X.weights, Y.weights, plan) == pytest.approx(
        best, abs=1e-15
    )
    assert _kernels.dis_pow(X.weights, Y.weights, plan, np.inf) == _kernels.dis_sup(
        X.weights, Y.weights, plan
    )


def test_tlb_pow_single_pair_oracle():
    # two tiny quantile rows checked by hand: atoms {0,1} w/ masses
    # (1/2,1/2) against a point at 0 -> integral of |F^-1 - G^-1| = 1/2
    qx = np.array([[0.0, 1.0]])
    cx = np.array([[0.5, 1.0]])
    qy = np.array([[0.0, 0.0]])
    cy = np.array([[0.5, 1.0]])
    for p in (1.0, 2.0, 3.0):
        out = _kernels.tlb_pow(qx, cx, qy, cy, p)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_tlb_pow_numpy_identical_rows_exact_zero(rng):
    # the p=2 expansion would leave ~eps*scale noise on the diagonal;
    # the noise-floor resummation must return exact zeros there
    X = random_network(rng, 6)
    qx, cx = _local_quantiles(X, "out")
    for p in (1.0, 2.0):
        out = _kernels.tlb_pow(qx, cx, qx, cx, p)
        npt.assert_array_equal(np.diag(out), np.zeros(6))
    # against a node-permuted copy the zeros move off the diagonal, and no
    # entry comes back negative, however far the expansion cancels
    perm = rng.permutation(6)
    Y = new_network(X.weights[np.ix_(perm, perm)], X.measure[perm])
    qy, cy = _local_quantiles(Y, "out")
    for p in (1.0, 2.0):
        out = _kernels.tlb_pow(qx, cx, qy, cy, p)
        assert np.all(out >= 0.0)
        npt.assert_array_equal(out[perm, np.arange(6)], np.zeros(6))


@pytest.mark.parametrize("uniform", [False, True])
def test_tlb_pow_blocks_match_one_block(rng, monkeypatch, uniform):
    # blocks of 3 rows (ragged at 17 and 13), each block pair on its own
    # merged grid, against one block on the global grid
    X = random_network(rng, 17, uniform_measure=uniform)
    Y = random_network(rng, 13, uniform_measure=uniform)
    qx, cx = _local_quantiles(X, "out")
    qy, cy = _local_quantiles(Y, "out")
    grid, seg = _kernels.merged_grid(cx, cy)
    monkeypatch.setattr(_kernels, "ONE_BLOCK_RATIO", 0)
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", 3)
    for p in (1.0, 2.0, 2.5):
        one = (
            _kernels._expanded(qx, cx, qy, cy, grid, seg)
            if p == 2.0
            else _kernels._direct(qx, cx, qy, cy, grid, seg, p)
        )
        npt.assert_allclose(_kernels.tlb_pow(qx, cx, qy, cy, p), one, rtol=1e-11, atol=0)
        npt.assert_allclose(
            _kernels.quantile_pow(qx, cx, qy, cy, p),
            _kernels._direct(qx, cx, qy, cy, grid, seg, p),
            rtol=1e-11,
            atol=0,
        )


def test_tlb_pow_blocks_keep_exact_zeros(rng, monkeypatch):
    X = random_network(rng, 11)
    perm = rng.permutation(11)
    Y = new_network(X.weights[np.ix_(perm, perm)], X.measure[perm])
    qx, cx = _local_quantiles(X, "out")
    qy, cy = _local_quantiles(Y, "out")
    monkeypatch.setattr(_kernels, "ONE_BLOCK_RATIO", 0)
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", 4)
    for p in (1.0, 2.0):
        out = _kernels.tlb_pow(qx, cx, qy, cy, p)
        assert np.all(out >= 0.0)
        npt.assert_array_equal(out[perm, np.arange(11)], np.zeros(11))


def test_block_rule_follows_the_grid(rng, monkeypatch):
    # a generic non-uniform pair merges about m^2 + n^2 breakpoints and is
    # tiled; a uniform one merges about m + n and stays one block
    grids = []
    merged_grid = _kernels.merged_grid

    def counted(cx, cy):
        grids.append(cx.shape[0])
        return merged_grid(cx, cy)

    monkeypatch.setattr(_kernels, "merged_grid", counted)
    for uniform, calls in ((True, 1), (False, 1 + 5 * 5)):
        X = random_network(rng, 40, uniform_measure=uniform)
        qx, cx = _local_quantiles(X, "out")
        grids.clear()
        _kernels.tlb_pow(qx, cx, qx, cx, 2.0)
        assert len(grids) == calls
