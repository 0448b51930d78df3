"""Release gate: end-to-end checks with pinned tolerances and time caps.

Each test exercises one guaranteed behavior of the public API at desk
scale.  The conftest hook prints one PASS/FAIL line per criterion at the
end of the run.
"""

import math
import time

import numpy as np
import pytest

from netgw.analysis import dissimilarity_matrix, single_linkage
from netgw.bounds import rtlb, rtlb_max, tlb_cost
from netgw.core import distortion, one_point_network
from netgw.errors import KernelUnderflowError
from netgw.generators import normalize_max_abs, sample_collection
from netgw.gw import cosine_rule_inner, entropic_gw, gw_bruteforce
from netgw.invariants import (
    SizeCurve,
    interleaving_distance,
    local_distribution,
    size_p,
    sphere_discretize,
    sphere_subsize_closed_form,
    sub_size,
)
from netgw.ot import TINY_NORMAL, SinkhornConfig, exact_ot, sinkhorn, sinkhorn_log

from conftest import random_coupling, random_network


def test_criterion_01_one_point_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        a, b = rng.uniform(-10.0, 10.0, size=2)
        X = one_point_network(a)
        Y = one_point_network(b)
        gap = abs(a - b)
        for p in (1.0, 2.0):
            report = rtlb_max(X, Y, p)
            assert abs(report.rtlb_max - gap) <= 1e-12
            res = gw_bruteforce(X, Y, p)
            assert abs(res.value - gap / 2.0) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_weak_isomorphism_zeros(fig2_triple):
    t0 = time.perf_counter()
    X, Y, Z = fig2_triple
    pairs = ((X, Y), (X, Z), (Y, Z))
    for A, B in pairs:
        for p in (1.0, 2.0):
            report = rtlb_max(A, B, p)
            for value in (report.szlb, report.rslb, report.rflb_out,
                          report.rflb_in, report.rtlb_max):
                assert value <= 1e-9
    cfg = SinkhornConfig(lam=100.0, max_iters=3000)
    for A, B in pairs:
        res = entropic_gw(A, B, cfg, outer_iters=20, plan_tol=1e-6)
        assert res.value <= 1e-3
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_sphere_half_sizes():
    t0 = time.perf_counter()
    for n in range(1, 5):
        value = sphere_subsize_closed_form(n, 1, math.pi)
        assert abs(value - math.pi / 2.0) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_sphere_interleaving_bound():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, math.pi, 512)
    circle = SizeCurve(
        grid=grid, values=grid**2 / (2.0 * math.pi), p=1.0, kind="sublevel"
    )
    two_sphere = SizeCurve(
        grid=grid,
        values=(np.sin(grid) - grid * np.cos(grid)) / 2.0,
        p=1.0,
        kind="sublevel",
    )
    dist = interleaving_distance(circle, two_sphere, tol=1e-4)
    assert 0.17 <= dist <= 0.19
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_circle_discretization():
    t0 = time.perf_counter()
    X = sphere_discretize(1, 2000)
    for t in np.linspace(0.0, math.pi, 50):
        assert abs(sub_size(X, 1, t) - t * t / (2.0 * math.pi)) <= 5e-3
    assert abs(size_p(X, 1) - math.pi / 2.0) <= 2e-3
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_tlb_ot_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for k in range(100):
        p = 1.0 if k % 2 == 0 else 2.0
        X = random_network(rng, int(rng.integers(2, 11)))
        Y = random_network(rng, int(rng.integers(2, 11)))
        C = tlb_cost(X, Y, p, "out").C
        # dual route: solve each entry as its own transport LP
        lp = np.empty_like(C)
        for i in range(X.n):
            dx = local_distribution(X, i, "out")
            for j in range(Y.n):
                dy = local_distribution(Y, j, "out")
                cost = np.abs(dx.atoms[:, None] - dy.atoms[None, :]) ** p
                _, objective = exact_ot(cost, dx.masses, dy.masses)
                lp[i, j] = max(objective, 0.0) ** (1.0 / p)
        np.testing.assert_allclose(C, lp, rtol=0.0, atol=1e-10)
        value, _ = rtlb(X, Y, p, "out")
        _, objective = exact_ot(lp**p, X.measure, Y.measure)
        assert abs(value - max(objective, 0.0) ** (1.0 / p)) <= 1e-8
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_hierarchy_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(200):
        X = random_network(rng, int(rng.integers(2, 13)))
        Y = random_network(rng, int(rng.integers(2, 13)))
        couplings = [
            random_coupling(rng, X.measure, Y.measure) for _ in range(100)
        ]
        for p in (1.0, 2.0):
            report = rtlb_max(X, Y, p)
            assert report.szlb <= report.rflb_out + 1e-9
            assert report.rflb_out <= report.rtlb_out + 1e-9
            assert report.szlb <= report.rflb_in + 1e-9
            assert report.rflb_in <= report.rtlb_in + 1e-9
            for C in couplings:
                assert report.rtlb_max <= distortion(X, Y, C, p) + 1e-9
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_sinkhorn_stack():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    cost = rng.uniform(0.0, 5.0, size=(6, 7))
    cost[0, 0] = 0.0
    cost[-1, -1] = 5.0  # exponent range lam*cost spans [0, 1000]
    mu = np.full(6, 1.0 / 6.0)
    nu = np.full(7, 1.0 / 7.0)
    cfg = SinkhornConfig(lam=200.0, max_iters=200000)
    with pytest.raises(KernelUnderflowError):
        sinkhorn(cost, cfg, mu, nu)
    res = sinkhorn_log(cost, cfg, mu, nu)
    assert res.converged
    assert res.marginal_error <= 1e-8
    assert res.kernel_min >= TINY_NORMAL
    assert np.isfinite(res.kernel_max)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_09_sbm_clustering():
    t0 = time.perf_counter()
    nets, classes, labels = sample_collection("table1", per_class=10, base_seed=0)
    D, failures = dissimilarity_matrix(
        nets, method="rtlb_max", p=2.0, labels=labels, workers=4
    )
    assert not failures
    classes = np.asarray(classes)

    def class_mean(a, b):
        block = D.D[np.ix_(classes == a, classes == b)]
        return float(block.mean())

    n_classes = classes.max() + 1
    target = class_mean(0, 2)
    others = [
        class_mean(a, b)
        for a in range(n_classes)
        for b in range(a + 1, n_classes)
        if (a, b) != (0, 2)
    ]
    assert target < 0.5 * min(others)

    # classes 1 and 3 must join each other before either touches a third
    tree = single_linkage(D)
    n = D.n
    members = {i: {i} for i in range(n)}
    bridge_13 = bridge_other = None
    for step, (lo, hi, _h, _size) in enumerate(tree.merges):
        merged = members[lo] | members[hi]
        members[n + step] = merged
        got = {classes[i] for i in merged}
        if bridge_13 is None and {0, 2} <= got:
            bridge_13 = step
        if bridge_other is None and got & {0, 2} and got - {0, 2}:
            bridge_other = step
    assert bridge_13 is not None and bridge_other is not None
    assert bridge_13 < bridge_other
    assert time.perf_counter() - t0 < 600.0


def test_criterion_10_sliding_means():
    t0 = time.perf_counter()
    nets, classes, labels = sample_collection("table3", per_class=10, base_seed=0)
    nets = [normalize_max_abs(net) for net in nets]
    D, failures = dissimilarity_matrix(
        nets, method="rtlb_max", p=2.0, labels=labels, workers=4
    )
    assert not failures
    classes = np.asarray(classes)
    means = [
        float(D.D[np.ix_(classes == 0, classes == k)].mean())
        for k in range(1, 5)
    ]
    for earlier, later in zip(means, means[1:]):
        assert later >= earlier
    assert time.perf_counter() - t0 < 300.0


def test_criterion_11_cosine_rule_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    for _ in range(100):
        X = random_network(rng, int(rng.integers(2, 9)))
        Y = random_network(rng, int(rng.integers(2, 9)))
        C = random_coupling(rng, X.measure, Y.measure)
        inner = cosine_rule_inner(X, Y, C)
        assert abs(inner - 0.25 * distortion(X, Y, C, 2.0) ** 2) <= 1e-10
    assert time.perf_counter() - t0 < 10.0
