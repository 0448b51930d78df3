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
