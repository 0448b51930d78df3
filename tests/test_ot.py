import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import linprog

from netgw.core import DiscreteDistribution, product_coupling
from netgw.errors import (
    DomainError,
    InfeasibleError,
    KernelUnderflowError,
    MaxItersExceededError,
    RangeTooWideError,
)
from netgw.ot import (
    LOG_RANGE_LIMIT,
    TINY_NORMAL,
    KernelState,
    SinkhornConfig,
    exact_ot,
    log_initialize,
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


def test_exact_ot_input_checks():
    with pytest.raises(InfeasibleError):
        exact_ot(np.zeros((2, 2)), [0.5, 0.6], [0.5, 0.5])
    with pytest.raises(InfeasibleError):
        exact_ot(np.zeros((2, 2)), [-0.5, 1.5], [0.5, 0.5])
    with pytest.raises(InfeasibleError):
        exact_ot(np.zeros((2, 3)), [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(InfeasibleError):
        exact_ot([[np.inf, 0.0], [0.0, 0.0]], [0.5, 0.5], [0.5, 0.5])


_SOLVERS = {
    "exact_ot": exact_ot,
    "sinkhorn": lambda cost, mu, nu: sinkhorn(cost, SinkhornConfig(lam=1.0), mu, nu),
    "sinkhorn_log": lambda cost, mu, nu: sinkhorn_log(cost, SinkhornConfig(lam=1.0), mu, nu),
}


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
    return rng.random((m, n)) * {"tiny": 1e-6, "huge": 1e6}[kind]


def _check_route(cost, mu, nu):
    coupling, objective = exact_ot(cost, mu, nu)
    plan = coupling.plan
    assert np.all(plan >= 0.0)
    npt.assert_allclose(plan.sum(axis=1), mu, rtol=0, atol=1e-12)
    npt.assert_allclose(plan.sum(axis=0), nu, rtol=0, atol=1e-12)
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
# kernel initialization


def test_log_initialize_constant_cost():
    state = log_initialize(np.full((3, 3), 7.0), 2.5)
    assert state.gamma == 3.5
    npt.assert_array_equal(state.K, np.ones((3, 3)))


def test_log_initialize_wide_but_representable():
    # half-range 250 is fine even though exp(-lam*cost) itself underflows
    cost = np.array([[0.0, 1000.0], [1000.0, 0.0]])
    state = log_initialize(cost, 0.5)
    assert state.gamma == 250.0
    assert state.K.max() == pytest.approx(np.exp(250.0), rel=1e-12)
    assert state.K.min() >= TINY_NORMAL


def test_log_initialize_range_too_wide():
    cost = np.array([[0.0, 4000.0], [4000.0, 0.0]])
    with pytest.raises(RangeTooWideError):
        log_initialize(cost, 0.5)


def test_log_initialize_limit_is_sharp():
    # just inside / just outside the representable half-range
    inside = np.array([[0.0, 2.0 * (LOG_RANGE_LIMIT - 1e-6)]])
    state = log_initialize(inside, 1.0)
    assert state.K.min() >= TINY_NORMAL
    outside = np.array([[0.0, 2.0 * (LOG_RANGE_LIMIT + 1e-6)]])
    with pytest.raises(RangeTooWideError):
        log_initialize(outside, 1.0)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_log_initialize_rejects_bad_lam(lam):
    with pytest.raises(DomainError):
        log_initialize(np.zeros((2, 2)), lam)


def test_kernel_state_rejects_subnormal_entries():
    with pytest.raises(KernelUnderflowError):
        KernelState(
            K=np.array([[1.0, TINY_NORMAL / 4.0]]),
            u=np.zeros(1),
            v=np.zeros(2),
            gamma=0.0,
        )


def test_sinkhorn_config_validation():
    with pytest.raises(ValueError):
        SinkhornConfig(lam=0.0)
    with pytest.raises(ValueError):
        SinkhornConfig(lam=1.0, tolerance=0.0)
    with pytest.raises(ValueError):
        SinkhornConfig(lam=1.0, absorb_threshold=1.0)
    with pytest.raises(ValueError):
        SinkhornConfig(lam=1.0, max_iters=0)


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


def test_sinkhorn_log_accepts_prepared_state(rng):
    cost = rng.uniform(0.0, 2.0, size=(3, 3))
    mu, nu = _random_marginals(rng, 3, 3)
    cfg = SinkhornConfig(lam=10.0)
    state = log_initialize(cost, cfg.lam)
    a = sinkhorn_log(cost, cfg, mu, nu, state=state)
    b = sinkhorn_log(cost, cfg, mu, nu)
    npt.assert_array_equal(a.plan.plan, b.plan.plan)


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
