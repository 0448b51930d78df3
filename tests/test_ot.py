import importlib
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import OptimizeResult, linprog

from netgw import ot
from netgw.bounds import _tlb_pow_matrix
from netgw.core import DiscreteDistribution
from netgw.errors import (
    DomainError,
    InfeasibleError,
    KernelUnderflowError,
    MaxItersExceededError,
    RangeTooWideError,
)
from netgw.generators import normalize_max_abs, sample_collection
from netgw.invariants import sphere_discretize
from netgw.ot import (
    LOG_RANGE_LIMIT,
    TINY_NORMAL,
    SinkhornConfig,
    _round_to_marginals,
    _transport_lp,
    exact_ot,
    sinkhorn,
    sinkhorn_log,
    wasserstein_1d,
)

from conftest import random_coupling


def _random_dist(rng, n):
    atoms = np.unique(rng.uniform(-5.0, 5.0, n))
    masses = rng.random(atoms.size) + 0.1
    return DiscreteDistribution(atoms, masses / masses.sum())


def _random_marginals(rng, m, n):
    mu = rng.random(m) + 0.1
    nu = rng.random(n) + 0.1
    return mu / mu.sum(), nu / nu.sum()


# ---------------------------------------------------------------------------
# exact transport


def test_exact_ot_zero_cost():
    mu = np.array([0.3, 0.7])
    nu = np.array([0.5, 0.25, 0.25])
    coupling, objective = exact_ot(np.zeros((2, 3)), mu, nu)
    assert objective == 0.0
    assert coupling.shape == (2, 3)


def test_exact_ot_single_row_is_forced():
    nu = np.array([0.2, 0.3, 0.5])
    cost = np.array([[4.0, 1.0, 2.0]])
    coupling, objective = exact_ot(cost, [1.0], nu)
    npt.assert_array_equal(coupling.plan, nu[None, :])
    assert objective == pytest.approx(float(cost[0] @ nu), abs=1e-15)


def test_exact_ot_single_col_is_forced():
    mu = np.array([0.4, 0.6])
    coupling, objective = exact_ot([[2.0], [5.0]], mu, [1.0])
    npt.assert_array_equal(coupling.plan, mu[:, None])
    assert objective == pytest.approx(0.4 * 2.0 + 0.6 * 5.0, abs=1e-15)


def test_exact_ot_permutation_cost():
    coupling, objective = exact_ot(
        [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5]
    )
    assert objective == pytest.approx(0.0, abs=1e-12)
    npt.assert_allclose(coupling.plan, np.diag([0.5, 0.5]), atol=1e-12)


def test_exact_ot_2x2_against_segment_sweep():
    """2x2 plans form a segment in one parameter t = plan[0,0]; the LP
    optimum must match the better endpoint."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        cost = rng.uniform(-3.0, 3.0, size=(2, 2))
        mu, nu = _random_marginals(rng, 2, 2)
        lo = max(0.0, mu[0] + nu[0] - 1.0)
        hi = min(mu[0], nu[0])

        def objective_at(t):
            plan = np.array(
                [[t, mu[0] - t], [nu[0] - t, 1.0 - mu[0] - nu[0] + t]]
            )
            return float(np.sum(plan * cost))

        best = min(objective_at(lo), objective_at(hi))
        _, objective = exact_ot(cost, mu, nu)
        assert objective == pytest.approx(best, abs=1e-10)


def test_exact_ot_beats_random_plans():
    rng = np.random.default_rng(37)
    cost = rng.uniform(0.0, 5.0, size=(5, 7))
    mu, nu = _random_marginals(rng, 5, 7)
    _, objective = exact_ot(cost, mu, nu)
    for _ in range(100):
        plan = random_coupling(rng, mu, nu).plan
        assert objective <= float(np.sum(plan * cost)) + 1e-9


_SOLVERS = {
    "exact_ot": exact_ot,
    "sinkhorn": lambda cost, mu, nu: sinkhorn(cost, SinkhornConfig(lam=1.0), mu, nu),
    "sinkhorn_log": lambda cost, mu, nu: sinkhorn_log(cost, SinkhornConfig(lam=1.0), mu, nu),
}


def test_exact_ot_input_checks():
    # the Sinkhorn solvers share exact_ot's input checks
    for solver in _SOLVERS.values():
        with pytest.raises(InfeasibleError):
            solver(np.zeros((2, 2)), [0.5, 0.6], [0.5, 0.5])
        with pytest.raises(InfeasibleError):
            solver(np.zeros((2, 2)), [-0.5, 1.5], [0.5, 0.5])
        with pytest.raises(InfeasibleError):
            solver(np.zeros((2, 3)), [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(InfeasibleError):
            solver([[np.inf, 0.0], [0.0, 0.0]], [0.5, 0.5], [0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_non_finite_cost_is_infeasible(solver, bad):
    cost = np.array([[bad, 0.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleError):
        _SOLVERS[solver](cost, [0.5, 0.5], [0.5, 0.5])


def _lp_oracle(cost, mu, nu):
    # the full dense transport LP on the cost scaled to max |entry| 1,
    # so HiGHS's absolute tolerances mean the same at every cost scale
    m, n = cost.shape
    scale = float(np.abs(cost).max()) or 1.0
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    res = linprog(
        (cost / scale).ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([mu, nu]),
        bounds=(0.0, None),
        method="highs",
    )
    assert res.status == 0
    return res.fun * scale


def _route_cost(rng, kind, m, n):
    if kind == "tied":
        return rng.integers(0, 4, size=(m, n)).astype(float)
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "signed":
        return rng.normal(size=(m, n))
    return rng.random((m, n)) * {"tiny": 1e-6, "huge": 1e6}[kind]


def _assert_marginals(plan, mu, nu, tol):
    assert np.all(plan >= 0.0)
    npt.assert_allclose(plan.sum(axis=1), mu, rtol=0, atol=tol)
    npt.assert_allclose(plan.sum(axis=0), nu, rtol=0, atol=tol)


def _check_route(cost, mu, nu):
    coupling, objective = exact_ot(cost, mu, nu)
    plan = coupling.plan
    _assert_marginals(plan, mu, nu, 1e-12)
    floor = 1e-12 * float(np.abs(cost).max())
    assert float(np.sum(plan * cost)) == pytest.approx(objective, rel=1e-12, abs=floor)
    assert objective == pytest.approx(_lp_oracle(cost, mu, nu), rel=1e-9, abs=floor)
    return plan


@pytest.mark.parametrize("kind", ["tied", "zero", "tiny", "huge"])
@pytest.mark.parametrize(
    "shape",
    [(2, 2), (5, 5), (20, 20), (50, 100), (100, 50), (10, 20)],
    ids=lambda s: f"{s[0]}x{s[1]}",
)
def test_exact_ot_assignment_route_matches_lp(monkeypatch, shape, kind):
    """Uniform measures whose sizes divide one another never reach HiGHS;
    every plan entry is a whole number of 1/max(m, n) masses."""
    monkeypatch.setattr("netgw.ot.linprog", None)
    m, n = shape
    rng = np.random.default_rng(m * 1000 + n)
    cost = _route_cost(rng, kind, m, n)
    plan = _check_route(cost, np.full(m, 1.0 / m), np.full(n, 1.0 / n))
    cells = plan * max(m, n)
    npt.assert_allclose(cells, np.round(cells), rtol=0, atol=1e-9)


@pytest.mark.parametrize("kind", ["tied", "tiny", "huge"])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform-7x3", "weighted-5x6"])
def test_exact_ot_lp_route_matches_oracle(monkeypatch, uniform, kind):
    """Sizes that do not divide, or a non-uniform measure, stay on HiGHS."""
    monkeypatch.setattr("netgw.ot.linear_sum_assignment", None)
    rng = np.random.default_rng(43)
    if uniform:
        mu, nu = np.full(7, 1.0 / 7), np.full(3, 1.0 / 3)
    else:
        mu, nu = _random_marginals(rng, 5, 6)
    _check_route(_route_cost(rng, kind, mu.size, nu.size), mu, nu)


@pytest.mark.parametrize("kind", ["tied", "signed", "tiny", "huge"])
@pytest.mark.parametrize(
    "shape", [(30, 40), (40, 30), (7, 3), (50, 70)], ids=lambda s: f"{s[0]}x{s[1]}"
)
def test_restricted_lp_matches_full_support(scripts_path, shape, kind):
    """Non-uniform pairs, and uniform sizes that do not divide, reach the
    column-generation LP; it ends at the full-support optimum."""
    dense_lp = importlib.import_module("bench_exact_ot").dense_lp
    m, n = shape
    rng = np.random.default_rng(7 * m + n)
    if shape in ((7, 3), (50, 70)):
        mu, nu = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    else:
        mu, nu = _random_marginals(rng, m, n)
    cost = _route_cost(rng, kind, m, n)
    coupling, objective = exact_ot(cost, mu, nu)
    full = dense_lp(cost, mu, nu).objective
    assert objective == pytest.approx(full, rel=1e-12, abs=0.0)
    _assert_marginals(coupling.plan, mu, nu, 1e-12)
    floor = 1e-12 * float(np.abs(cost).max())
    assert float(np.sum(coupling.plan * cost)) == pytest.approx(objective, rel=1e-12, abs=floor)


def test_transport_lp_failure_is_infeasible(monkeypatch):
    # any HiGHS status but 0 (optimal) is reported, not read as a plan
    def failed(*args, **kwargs):
        return OptimizeResult(status=2, message="The problem is infeasible.")

    monkeypatch.setattr(ot, "linprog", failed)
    mu, nu = _random_marginals(np.random.default_rng(5), 3, 4)
    with pytest.raises(InfeasibleError, match="transport LP failed: The problem is infeasible"):
        exact_ot(np.ones((3, 4)), mu, nu)


def test_restricted_lp_prices_cells_outside_the_start_support(scripts_path):
    """Row and column offsets a_i + b_j leave the optimum unchanged but make
    rows 0..7 and columns 0..7 the cheapest cells everywhere; the unique
    optimum sits on the anti-diagonal, mostly outside the start support."""
    n = 24
    rng = np.random.default_rng(5)
    mu, _ = _random_marginals(rng, n, n)
    nu = mu[::-1].copy()
    offsets = 10.0 * np.arange(n)
    cost = offsets[:, None] + offsets[None, :] + 1.0 - np.eye(n)[::-1]
    lp = _transport_lp(cost, mu, nu)
    assert lp.rounds >= 2 and lp.cells < n * n
    full = importlib.import_module("bench_exact_ot").dense_lp(cost, mu, nu).objective
    _, objective = exact_ot(cost, mu, nu)
    assert lp.objective == pytest.approx(full, rel=1e-12)
    assert objective == pytest.approx(full, rel=1e-12)
    npt.assert_allclose(lp.coupling.plan, np.diag(mu)[:, ::-1], rtol=0, atol=1e-12)


def test_lp_route_matches_assignment_on_table1_tlb_cost():
    """At HiGHS's default feasibility tolerances (1e-7) the LP stopped
    9.4e-11 relative above the assignment optimum on this transport."""
    nets, _, _ = sample_collection("table1", per_class=2, base_seed=0)
    X, Y = nets[5], nets[7]
    cost = _tlb_pow_matrix(X, Y, 2.0, "in")
    _, assignment = exact_ot(cost, X.measure, Y.measure)
    lp = _transport_lp(cost, X.measure, Y.measure)
    assert lp.objective == pytest.approx(assignment, rel=1e-12)


def test_restricted_lp_plan_on_sphere_pair_is_a_coupling():
    """HiGHS meets the marginals only to its feasibility tolerance (1e-10);
    the rounded plan of this 700x703 pair meets them to 1e-12."""
    X, Y = sphere_discretize(1, 700), sphere_discretize(2, 700)
    assert (X.n, Y.n) == (700, 703)
    coupling, _ = exact_ot(_tlb_pow_matrix(X, Y, 2.0, "out"), X.measure, Y.measure)
    _assert_marginals(coupling.plan, X.measure, Y.measure, 1e-12)


# ---------------------------------------------------------------------------
# 1D closed form


def test_wasserstein_1d_identical_is_zero(rng):
    for _ in range(10):
        d = _random_dist(rng, 6)
        for p in (1.0, 2.0, 3.5):
            assert wasserstein_1d(d, d, p) == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_wasserstein_1d_point_masses(p):
    a = DiscreteDistribution([1.25], [1.0])
    b = DiscreteDistribution([-2.0], [1.0])
    assert wasserstein_1d(a, b, p) == pytest.approx(3.25, abs=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_wasserstein_1d_translation(p):
    a = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    b = DiscreteDistribution([0.5, 1.5], [0.5, 0.5])
    assert wasserstein_1d(a, b, p) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_wasserstein_1d_split_mass(p):
    # delta_0 to uniform{0,1}: half the mass moves distance 1
    a = DiscreteDistribution([0.0], [1.0])
    b = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    assert wasserstein_1d(a, b, p) == pytest.approx(0.5 ** (1.0 / p), abs=1e-15)


def _cdf_area_w1(a: DiscreteDistribution, b: DiscreteDistribution):
    """W_1 via the CDF-area formula: integral of |F - G| over the line."""
    locs = np.unique(np.concatenate([a.atoms, b.atoms]))
    if locs.size == 1:
        return 0.0
    cw_a = a.cumulative
    cw_b = b.cumulative
    ia = np.searchsorted(a.atoms, locs, side="right") - 1
    ib = np.searchsorted(b.atoms, locs, side="right") - 1
    fa = np.where(ia >= 0, cw_a[np.maximum(ia, 0)], 0.0)
    fb = np.where(ib >= 0, cw_b[np.maximum(ib, 0)], 0.0)
    widths = np.diff(locs)
    return float(widths @ np.abs(fa - fb)[:-1])


def test_wasserstein_1d_matches_cdf_area(rng):
    for _ in range(30):
        a = _random_dist(rng, int(rng.integers(1, 9)))
        b = _random_dist(rng, int(rng.integers(1, 9)))
        quantile = wasserstein_1d(a, b, 1.0)
        area = _cdf_area_w1(a, b)
        assert quantile == pytest.approx(area, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_wasserstein_1d_matches_exact_lp(rng, p):
    """Quantile formula vs the transport LP on |a_i - b_j|^p costs."""
    for _ in range(20):
        a = _random_dist(rng, int(rng.integers(1, 8)))
        b = _random_dist(rng, int(rng.integers(1, 8)))
        cost = np.abs(a.atoms[:, None] - b.atoms[None, :]) ** p
        _, objective = exact_ot(cost, a.masses, b.masses)
        assert wasserstein_1d(a, b, p) == pytest.approx(
            max(objective, 0.0) ** (1.0 / p), abs=1e-10
        )


def test_wasserstein_1d_rejects_bad_order():
    d = DiscreteDistribution([0.0], [1.0])
    with pytest.raises(DomainError):
        wasserstein_1d(d, d, np.inf)
    with pytest.raises(DomainError):
        wasserstein_1d(d, d, 0.5)


# ---------------------------------------------------------------------------
# kernel range


def test_sinkhorn_log_constant_cost():
    # gamma = 3.5 recentres every exponent to zero: the kernel is all ones
    mu = np.array([0.25, 0.75])
    nu = np.array([0.5, 0.25, 0.25])
    res = sinkhorn_log(np.full((2, 3), 7.0), SinkhornConfig(lam=2.5), mu, nu)
    assert res.kernel_min == res.kernel_max == 1.0
    npt.assert_allclose(res.plan.plan, np.outer(mu, nu), atol=1e-12)


def test_sinkhorn_log_wide_but_representable():
    # half-range 500 is fine even though exp(-lam*cost) itself underflows
    cost = np.array([[0.0, 2000.0], [2000.0, 0.0]])
    cfg = SinkhornConfig(lam=0.5)
    with pytest.raises(KernelUnderflowError):
        sinkhorn(cost, cfg, [0.5, 0.5], [0.5, 0.5])
    res = sinkhorn_log(cost, cfg, [0.5, 0.5], [0.5, 0.5])
    assert res.kernel_max == pytest.approx(np.exp(500.0), rel=1e-12)
    assert res.kernel_min >= TINY_NORMAL
    npt.assert_allclose(res.plan.plan, np.diag([0.5, 0.5]), atol=1e-12)


def test_sinkhorn_log_range_too_wide():
    cost = np.array([[0.0, 4000.0], [4000.0, 0.0]])
    with pytest.raises(RangeTooWideError):
        sinkhorn_log(cost, SinkhornConfig(lam=0.5), [0.5, 0.5], [0.5, 0.5])


def test_sinkhorn_log_range_limit_is_sharp():
    # just inside / just outside the representable half-range
    cfg = SinkhornConfig(lam=1.0)
    inside = np.array([[0.0, 2.0 * (LOG_RANGE_LIMIT - 1e-6)]])
    res = sinkhorn_log(inside, cfg, [1.0], [0.5, 0.5])
    assert res.kernel_min >= TINY_NORMAL
    outside = np.array([[0.0, 2.0 * (LOG_RANGE_LIMIT + 1e-6)]])
    with pytest.raises(RangeTooWideError):
        sinkhorn_log(outside, cfg, [1.0], [0.5, 0.5])


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
def test_log_initialize_rejects_bad_lam(lam):
    # the log-domain start takes lam only through SinkhornConfig, which
    # refuses it before sinkhorn_log builds a kernel
    with pytest.raises(DomainError):
        sinkhorn_log(np.zeros((2, 2)), SinkhornConfig(lam=lam), [0.5, 0.5], [0.5, 0.5])


def test_sinkhorn_config_validation():
    for bad in (
        {"lam": 0.0},
        {"lam": np.inf},
        {"lam": 1.0, "tolerance": 0.0},
        {"lam": 1.0, "tolerance": np.inf},
        {"lam": 1.0, "absorb_threshold": 1.0},
        {"lam": 1.0, "max_iters": 0},
    ):
        with pytest.raises(DomainError):
            SinkhornConfig(**bad)
    # an infinite absorb_threshold never absorbs, and stays legal
    assert SinkhornConfig(lam=1.0, absorb_threshold=np.inf).absorb_threshold == np.inf


@pytest.mark.parametrize("max_iters", [20.0, float("nan"), np.inf, "20"])
def test_sinkhorn_config_takes_an_integer_budget(max_iters):
    # a float budget once failed in the first batch's slice, and a NaN one
    # never met the budget test
    with pytest.raises(DomainError, match="max_iters must be an integer >= 1"):
        SinkhornConfig(lam=10.0, max_iters=max_iters)
    cfg = SinkhornConfig(lam=10.0, max_iters=np.int64(20))
    assert sinkhorn_log(np.zeros((2, 2)), cfg, [0.5, 0.5], [0.5, 0.5]).converged


# ---------------------------------------------------------------------------
# Sinkhorn iteration


def test_sinkhorn_zero_cost_gives_product():
    mu = np.array([0.3, 0.7])
    nu = np.array([0.2, 0.3, 0.5])
    res = sinkhorn(np.zeros((2, 3)), SinkhornConfig(lam=1.0), mu, nu)
    assert res.converged
    npt.assert_allclose(res.plan.plan, np.outer(mu, nu), atol=1e-12)


def test_sinkhorn_2x2_fixed_point():
    """Symmetric 2x2 instance has the closed-form plan a*b*K with
    plan[0,0] = 1 / (2*(1+exp(-lam)))."""
    lam = 10.0
    cfg = SinkhornConfig(lam=lam, tolerance=1e-12)
    res = sinkhorn(
        [[0.0, 1.0], [1.0, 0.0]], cfg, [0.5, 0.5], [0.5, 0.5]
    )
    plan = res.plan.plan
    expect = 1.0 / (2.0 * (1.0 + np.exp(-lam)))
    assert plan[0, 0] == pytest.approx(expect, abs=1e-9)
    assert plan[0, 0] == pytest.approx(plan[1, 1], abs=1e-12)
    assert plan[0, 1] == pytest.approx(plan[1, 0], abs=1e-12)
    assert plan[0, 0] > plan[0, 1]
    assert res.marginal_error <= 1e-12


def test_sinkhorn_underflow_raises():
    cost = np.array([[0.0, 1000.0], [1000.0, 0.0]])
    with pytest.raises(KernelUnderflowError):
        sinkhorn(cost, SinkhornConfig(lam=200.0), [0.5, 0.5], [0.5, 0.5])
    # the marginals are checked before the kernel is built
    with pytest.raises(InfeasibleError):
        sinkhorn(cost, SinkhornConfig(lam=200.0), [0.5, 0.6], [0.5, 0.5])


def test_sinkhorn_max_iters_carries_partial(rng):
    cost = rng.uniform(0.0, 1.0, size=(4, 4))
    mu, nu = _random_marginals(rng, 4, 4)
    cfg = SinkhornConfig(lam=100.0, max_iters=2, tolerance=1e-14)
    with pytest.raises(MaxItersExceededError) as info:
        sinkhorn(cost, cfg, mu, nu)
    partial = info.value.partial
    assert partial is not None
    assert not partial.converged
    assert partial.iterations == 2
    assert partial.plan is not None
    plan = partial.plan.plan
    assert np.all(plan >= 0.0)
    # the raw iterate misses the marginals; the partial plan is rounded onto them
    assert partial.marginal_error > 1e-3
    assert np.abs(plan.sum(axis=1) - mu).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - nu).max() <= 1e-12


def test_sinkhorn_log_agrees_with_plain(rng):
    for _ in range(5):
        cost = rng.uniform(0.0, 1.0, size=(4, 5))
        mu, nu = _random_marginals(rng, 4, 5)
        cfg = SinkhornConfig(lam=50.0)
        plain = sinkhorn(cost, cfg, mu, nu)
        logd = sinkhorn_log(cost, cfg, mu, nu)
        assert plain.converged and logd.converged
        npt.assert_allclose(plain.plan.plan, logd.plan.plan, atol=1e-8)


def test_sinkhorn_log_zero_cost_no_absorption():
    mu = np.array([0.25, 0.75])
    nu = np.array([0.5, 0.5])
    res = sinkhorn_log(np.zeros((2, 2)), SinkhornConfig(lam=3.0), mu, nu)
    assert res.absorptions == 0
    npt.assert_allclose(res.plan.plan, np.outer(mu, nu), atol=1e-12)


def test_sinkhorn_log_absorption_path(rng):
    """Force absorptions with a low threshold; the answer must not move."""
    cost = rng.uniform(0.0, 20.0, size=(4, 4))
    mu, nu = _random_marginals(rng, 4, 4)
    cfg = SinkhornConfig(lam=30.0)
    reference = sinkhorn(cost, cfg, mu, nu)
    forced = sinkhorn_log(
        cost, SinkhornConfig(lam=30.0, absorb_threshold=100.0), mu, nu
    )
    assert forced.absorptions >= 1
    assert forced.kernel_min >= TINY_NORMAL
    npt.assert_allclose(reference.plan.plan, forced.plan.plan, atol=1e-8)


def test_sinkhorn_marginals_within_tolerance(rng):
    # the returned plan is a coupling of (mu, nu) however loose the stop
    for tolerance in (1e-9, 1e-4):
        for _ in range(5):
            cost = rng.uniform(0.0, 3.0, size=(5, 4))
            mu, nu = _random_marginals(rng, 5, 4)
            cfg = SinkhornConfig(lam=20.0, tolerance=tolerance)
            plan = sinkhorn_log(cost, cfg, mu, nu).plan.plan
            assert np.abs(plan.sum(axis=1) - mu).max() <= 1e-9
            assert np.abs(plan.sum(axis=0) - nu).max() <= 1e-9
            assert np.all(plan >= 0.0)


def _full_check_scaling(cost, cfg, mu, nu, gamma, absorb_threshold):
    """The Sinkhorn loop that forms the plan and both of its marginals at
    every step, run in place of ot._scaling: (iterations, absorptions,
    converged, raw plan, row error, column error)."""
    K = np.exp(cfg.lam * (-cost + 2.0 * gamma))
    if not (K.min() >= TINY_NORMAL and np.all(np.isfinite(K))):
        raise KernelUnderflowError("kernel out of range")
    u = np.zeros(mu.size)
    v = np.zeros(nu.size)
    a = np.ones(mu.size)
    b = np.ones(nu.size)
    absorptions = 0
    for it in range(1, cfg.max_iters + 1):
        b = nu / (K.T @ a)
        a = mu / (K @ b)
        if max(float(a.max()), float(b.max())) > absorb_threshold:
            u = u + np.log(a) / cfg.lam
            v = v + np.log(b) / cfg.lam
            K = np.exp(cfg.lam * (-cost + u[:, None] + v[None, :] + 2.0 * gamma))
            if not np.all(np.isfinite(K)):
                raise KernelUnderflowError("absorbed kernel overflowed")
            K = np.maximum(K, TINY_NORMAL)
            a = np.ones(mu.size)
            b = np.ones(nu.size)
            absorptions += 1
        plan = a[:, None] * K * b[None, :]
        row = float(np.abs(plan.sum(axis=1) - mu).max())
        col = float(np.abs(plan.sum(axis=0) - nu).max())
        err = max(row, col)
        if err <= cfg.tolerance or not np.isfinite(err):
            break
    return it, absorptions, err <= cfg.tolerance, plan, row, col


def test_sinkhorn_column_check_matches_full_check(scripts_path):
    """Checking only the columns stops where checking rows and columns did.

    240 random costs (sizes 2-29, scales 1e-6 to 1e6, signed costs, lam
    spread around 1-300 over the scale, two absorption thresholds),
    each through sinkhorn and sinkhorn_log: same iterations, absorptions,
    converged flags, exceptions and plan bytes as the loop that forms the
    plan every step.  marginal_error is the column error of the raw
    iterate, whose rows match mu to rounding.  A solve that loop runs
    past the first stall test (ot.NEWTON_FIRST_TEST iterations) may end
    otherwise only by converging within the tolerance (Newton steps)."""
    bench = importlib.import_module("bench_sinkhorn")
    rng = np.random.default_rng(2)
    seen = Counter()
    for _ in range(240):
        m, n = rng.integers(2, 30, size=2)
        scale = 10.0 ** rng.integers(-6, 7)
        cost = scale * rng.random((m, n))
        if rng.random() < 0.3:
            cost -= cost.mean()
        mu, nu = _random_marginals(rng, m, n)
        cfg = SinkhornConfig(
            lam=float(rng.choice([1.0, 10.0, 100.0, 300.0])) / scale * 10.0 ** rng.uniform(-1, 1.5),
            max_iters=int(rng.choice([20, 300])),
            tolerance=float(rng.choice([1e-9, 1e-13])),
            absorb_threshold=float(rng.choice([1e30, 1e6])),
        )
        for solver in (sinkhorn, sinkhorn_log):
            full_check = bench.with_loop(solver, _full_check_scaling)
            with np.errstate(all="ignore"):
                kind, res, _ = bench.outcome(solver, cost, cfg, mu, nu)
                ref_kind, ref, _ = bench.outcome(full_check, cost, cfg, mu, nu)
            if ref_kind != "converged":
                assert kind == ref_kind
                seen[kind] += 1
                continue
            iterations, absorptions, converged, plan, row, col = ref
            if (res.iterations, res.converged) != (iterations, converged):
                assert iterations > ot.NEWTON_FIRST_TEST
                assert kind == "converged" and res.marginal_error <= cfg.tolerance
                seen["newton"] += 1
                continue
            assert (res.iterations, res.absorptions, res.converged) == (
                iterations, absorptions, converged)
            assert kind == ("converged" if converged else "stalled")
            if res.plan is None:
                # a diverged iterate: nothing finite to round
                assert not (np.all(np.isfinite(plan)) and plan.sum() > 0.0)
                seen["diverged"] += 1
                continue
            assert res.plan.plan.tobytes() == _round_to_marginals(plan, mu, nu).tobytes()
            assert res.marginal_error == pytest.approx(col, rel=1e-12, abs=1e-15)
            assert row < 1e-14
            seen[kind + (" absorbed" if absorptions else "")] += 1
    for kind in ("converged", "stalled", "stalled absorbed", "diverged", "newton",
                 "KernelUnderflowError", "RangeTooWideError"):
        assert seen[kind] > 0, kind


def _matches_reference(cost, cfg, mu, nu, plain=False):
    """Run sinkhorn (plain) or sinkhorn_log as it is and with the
    per-iteration loop of scripts/bench_sinkhorn.py in place of _scaling;
    assert that they agree by bench_sinkhorn.verdict (bit for bit, unless
    the reference runs past the first stall test and the package
    converges) and return the reference's (kind, result, message).  Its
    callers take the scripts_path fixture."""
    bench = importlib.import_module("bench_sinkhorn")
    solver = sinkhorn if plain else sinkhorn_log
    with np.errstate(all="ignore"):
        got = bench.outcome(solver, cost, cfg, mu, nu)
        want = bench.outcome(bench.with_loop(solver, bench.reference_scaling), cost, cfg, mu, nu)
    assert bench.verdict(cfg, want, got) is not None
    return want


def _absorbed_at(cost, cfg, mu, nu):
    """The iterations at which the reference absorbs, from its partials
    at every budget up to cfg.max_iters."""
    counts = [0]
    for k in range(1, cfg.max_iters + 1):
        short = replace(cfg, max_iters=k, tolerance=1e-300)
        _, res, _ = _matches_reference(cost, short, mu, nu)
        counts.append(res.absorptions)
    return [k for k in range(1, len(counts)) if counts[k] > counts[k - 1]]


def test_batched_checks_match_the_per_iteration_loop(scripts_path):
    """The loop that tests once per batch stops, absorbs and fails where
    the loop testing every iteration does, with the same results bit for
    bit: stops at iteration 1, mid-batch and on batch boundaries, budgets
    below and off the batch, absorptions mid-batch, two in one batch and
    one at a batch's first row, non-finite errors, the plain kernel, and
    a cost large enough for batches of one iteration."""
    batch = ot.SINKHORN_BATCH
    assert ot._batch_size(5, 6) == batch > 2
    rng = np.random.default_rng(1)
    cost = rng.random((5, 6))
    mu, nu = np.full(5, 1 / 5), np.full(6, 1 / 6)

    # the zero cost stops at iteration 1
    for plain in (False, True):
        kind, res, _ = _matches_reference(np.zeros((5, 6)), SinkhornConfig(lam=3.0), mu, nu, plain)
        assert (kind, res.iterations) == ("converged", 1)

    # a tolerance equal to the error at iteration t stops there
    for plain in (False, True):
        for t in (1, batch // 2 + 1, batch, batch + 1, 2 * batch):
            budget = SinkhornConfig(lam=20.0, max_iters=t, tolerance=1e-300)
            _, partial, _ = _matches_reference(cost, budget, mu, nu, plain)
            cfg = SinkhornConfig(lam=20.0, tolerance=partial.marginal_error)
            kind, res, _ = _matches_reference(cost, cfg, mu, nu, plain)
            assert (kind, res.iterations) == ("converged", t)

    # budgets below the batch and off its multiples
    for plain in (False, True):
        for max_iters in (1, 5, batch - 1, batch + 1, 2 * batch + 13):
            cfg = SinkhornConfig(lam=20.0, max_iters=max_iters, tolerance=1e-300)
            kind, res, message = _matches_reference(cost, cfg, mu, nu, plain)
            assert (kind, res.iterations) == ("stalled", max_iters)
            assert message.endswith(f"after {max_iters} iterations (tolerance 1e-300)")

    # absorptions: one mid-batch, two in one batch, one on a batch's last
    # row (iteration 32 with batches of 32), and one on its first row
    # followed by more; each checked at every budget up to 40 iterations
    # and run to its stop
    absorbing = {
        (50.0, 1e3): [19],
        (20.0, 5.0): [2, 9],
        (50.0, 1e4): [32],
        (100.0, 10.0): [1, 6, 11, 16, 24, 37],
    }
    for (lam, threshold), at in absorbing.items():
        cfg = SinkhornConfig(lam=lam, max_iters=40, absorb_threshold=threshold)
        assert _absorbed_at(cost, cfg, mu, nu) == at
        kind, res, _ = _matches_reference(cost, replace(cfg, max_iters=10000), mu, nu)
        assert kind == "converged" and res.absorptions >= len(at)

    # a non-finite error stops the loop: at iteration 1 on a kernel spanning
    # 1e-300 to 1e299, and mid-batch on a random signed cost
    kind, res, _ = _matches_reference(
        [[690.0, 690.0], [-690.0, -690.0]], SinkhornConfig(lam=1.0), [0.5, 0.5], [0.5, 0.5],
        plain=True)
    assert (kind, res.iterations, res.plan) == ("stalled", 1, None)
    assert not np.isfinite(res.marginal_error)
    draws = np.random.default_rng(0)
    breaks = []
    for _ in range(40):
        m, n = draws.integers(2, 8, size=2)
        signed = draws.uniform(-700.0, 700.0, (m, n))
        kind, res, _ = _matches_reference(signed, SinkhornConfig(lam=1.0),
                                          *_random_marginals(draws, m, n), plain=True)
        if kind == "stalled" and not np.isfinite(res.marginal_error):
            breaks.append(res.iterations)
    assert any(1 < it < batch for it in breaks)

    # batches of one iteration on a large cost
    big = np.random.default_rng(3).random((400, 401))
    mu_big, nu_big = _random_marginals(np.random.default_rng(4), 400, 401)
    assert ot._batch_size(400, 401) == 1
    for plain in (False, True):
        for cfg in (SinkhornConfig(lam=5.0, tolerance=1e-6),
                    SinkhornConfig(lam=50.0, max_iters=3)):
            _matches_reference(big, cfg, mu_big, nu_big, plain)
    cfg = SinkhornConfig(lam=50.0, absorb_threshold=2.0)
    kind, res, _ = _matches_reference(big, cfg, mu_big, nu_big)
    assert kind == "converged" and res.absorptions >= 1


def _stalled_table1_solves(bench):
    """The three inner solves of the table1-entropic draw (max-abs
    normalized table1, per_class 1, seed 0, lam 100) whose scaling
    iteration stalls at max_iters: (cost, mu, nu) of solve 6 of
    c1-00/c2-00 and solve 5 of c1-00/c5-00 and of c2-00/c5-00."""
    nets, _, labels = sample_collection("table1", 1, 0)
    nets = dict(zip(labels, (normalize_max_abs(net) for net in nets)))
    solves = []
    for x, y, k in (("c1-00", "c2-00", 6), ("c1-00", "c5-00", 5), ("c2-00", "c5-00", 5)):
        _, costs = bench.recorded_costs(nets[x], nets[y], SinkhornConfig(lam=100.0))
        solves.append((costs[k], nets[x].measure, nets[y].measure))
    return solves


def test_newton_finishes_the_stalled_table1_solves(scripts_path, monkeypatch):
    """Each of the three solves the scaling loop leaves at max_iters
    converges by Newton steps soon after the first stall test: its raw
    iterate has rows on mu to rounding and columns within the tolerance
    (marginal_error), and the plan lies within 1e-4 (L1) of the partial
    the reference hands back."""
    bench = importlib.import_module("bench_sinkhorn")
    cfg = SinkhornConfig(lam=100.0)
    raw = []
    monkeypatch.setattr(ot, "_round_to_marginals",
                        lambda plan, mu, nu: raw.append(plan) or _round_to_marginals(plan, mu, nu))
    for cost, mu, nu in _stalled_table1_solves(bench):
        kind, ref, _ = bench.outcome(bench.reference_sinkhorn_log, cost, cfg, mu, nu)
        assert (kind, ref.iterations) == ("stalled", cfg.max_iters)
        (kind, res, _), steps = bench.newton_steps(bench.outcome, sinkhorn_log, cost, cfg, mu, nu)
        assert kind == "converged" and res.marginal_error <= cfg.tolerance
        assert 0 < steps == res.iterations - ot.NEWTON_FIRST_TEST <= ot.NEWTON_STEPS
        plan = raw[-1]
        assert np.abs(plan.sum(axis=1) - mu).max() <= 1e-15
        assert np.abs(plan.sum(axis=0) - nu).max() == pytest.approx(res.marginal_error, abs=1e-15)
        assert np.abs(res.plan.plan - ref.plan.plan).sum() <= 1e-4


def test_failed_newton_finishes_leave_the_scaling_result(scripts_path, monkeypatch):
    """A Newton finish that fails is dropped whole: with every step
    failing, with the first step taken and the second failing, with too
    few steps allowed, and (log-domain) with the kernel absorbed after the
    first step overflowing, each solve that the stall test sends to
    Newton ends as the per-iteration loop ends it, result and message bit
    for bit (three stalled table1 solves, plain and log-domain).  A step
    whose direction has no positive slope fails."""
    bench = importlib.import_module("bench_sinkhorn")
    cfg = SinkhornConfig(lam=100.0)
    step = ot._newton_step
    kernel = ot._kernel
    calls = []
    overflowed = []

    def every_step(*args):
        calls.append(None)

    def after_the_first(*args):
        calls.append(None)
        return step(*args) if len(calls) == 1 else None

    def rescaled_first(*args):
        # the first step's iterate as (2^200 a, b / 2^200): the same plan,
        # but its scalings pass the absorption threshold
        calls.append(None)
        out = step(*args)
        if out is None or len(calls) > 1:
            return out
        a, b, kta, err = out
        return a * 2.0**200, b / 2.0**200, kta * 2.0**200, err

    def overflowing_once(*args):
        # the kernel absorbed after the first Newton step overflows
        K = kernel(*args)
        if len(calls) == 1 and not overflowed:
            overflowed.append(None)
            K[0, 0] = np.inf
        return K

    for cost, mu, nu in _stalled_table1_solves(bench):
        for solver in (sinkhorn, sinkhorn_log):
            want = bench.outcome(bench.with_loop(solver, bench.reference_scaling), cost, cfg, mu, nu)
            assert want[0] == "stalled"
            for failing in (every_step, after_the_first):
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(ot, "_newton_step", failing)
                    got = bench.outcome(solver, cost, cfg, mu, nu)
                assert calls and bench.fields(*got) == bench.fields(*want)
            with monkeypatch.context() as patch:
                patch.setattr(ot, "NEWTON_STEPS", 2)
                got, steps = bench.newton_steps(bench.outcome, solver, cost, cfg, mu, nu)
            assert steps == 2 and bench.fields(*got) == bench.fields(*want)
            if solver is sinkhorn:
                continue  # its threshold is inf: it never absorbs
            calls.clear()
            overflowed.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ot, "_newton_step", rescaled_first)
                patch.setattr(ot, "_kernel", overflowing_once)
                got = bench.outcome(solver, cost, cfg, mu, nu)
            assert overflowed and bench.fields(*got) == bench.fields(*want)

    # with no conjugate gradient iteration the direction is x = (mu - r) / r,
    # y = 0, whose slope is 0 where the rows already match mu exactly
    K, a, b = np.ones((2, 2)), np.full(2, 0.5), np.full(2, 0.5)
    mu, nu = np.full(2, 0.5), np.array([0.25, 0.75])
    with monkeypatch.context() as patch:
        patch.setattr(ot, "NEWTON_CG_ITERS", 0)
        assert ot._newton_step(K, a, b, K.T.dot(a), mu, nu) is None


def _fingerprint_cost(k):
    """Cost k of scripts/fingerprint_results.py's Sinkhorn set, with its
    measures."""
    scales = (1e-6, 1e-3, 1.0, 1e3, 1e6)
    rng = np.random.default_rng(11)
    for j in range(k + 1):
        m, n = rng.integers(2, 9, size=2)
        cost = scales[j % len(scales)] * rng.random((m, n))
        if j % 4 == 3:
            cost -= cost.mean()
        mu, nu = rng.random(m) + 0.1, rng.random(n) + 0.1
    return cost, mu / mu.sum(), nu / nu.sum()


def test_newton_finish_raises_no_float_warning():
    """At lam 300, cost 7 of the fingerprint set (a signed 6x7 cost) goes
    to Newton steps whose line search overflows expm1 on long trial
    lengths, and the plan's small entries underflow; the solve still
    converges without a floating-point warning."""
    cost, mu, nu = _fingerprint_cost(7)
    cfg = SinkhornConfig(lam=300.0, max_iters=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solver in (sinkhorn, sinkhorn_log):
            res = solver(cost, cfg, mu, nu)
            assert res.converged and res.iterations <= 2 * ot.NEWTON_FIRST_TEST + ot.NEWTON_STEPS
