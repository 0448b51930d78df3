import importlib

import numpy as np
import numpy.testing as npt
import pytest

from netgw.bounds import rtlb_max
from netgw.core import (
    Coupling,
    diagonal_coupling,
    distortion,
    new_network,
    one_point_network,
    product_coupling,
)
from netgw import gw
from netgw.errors import (
    DomainError,
    InstanceTooLargeError,
    MarginalMismatchError,
    MaxItersExceededError,
)
from netgw.generators import normalize_max_abs, sample_collection
from netgw.gw import (
    BRUTEFORCE_CELL_LIMIT,
    cosine_rule_inner,
    entropic_gw,
    gw_bruteforce,
)
from netgw.ot import SinkhornConfig, SinkhornResult, _round_to_marginals, exact_ot

from conftest import random_coupling, random_network

CFG = SinkhornConfig(lam=50.0, max_iters=5000)


# ---------------------------------------------------------------------------
# plan rounding helpers


def test_round_to_marginals_exact(rng):
    for k in range(40):
        m, n = rng.integers(1, 7, size=2)
        mu = rng.random(m) + 0.1
        mu /= mu.sum()
        nu = rng.random(n) + 0.1
        nu /= nu.sum()
        raw = rng.random((m, n))
        if k >= 20:  # a coupling plus noise that breaks marginals and signs
            raw = random_coupling(rng, mu, nu).plan + rng.normal(scale=0.02, size=(m, n))
        plan = _round_to_marginals(raw, mu, nu)
        assert np.all(plan >= 0.0)
        assert np.abs(plan.sum(axis=1) - mu).max() <= 1e-14
        assert np.abs(plan.sum(axis=0) - nu).max() <= 1e-14


def test_round_to_marginals_fixes_zero_matrix():
    mu = np.array([0.25, 0.75])
    nu = np.array([0.5, 0.5])
    plan = _round_to_marginals(np.zeros((2, 2)), mu, nu)
    npt.assert_allclose(plan, np.outer(mu, nu), atol=1e-15)


def test_round_to_marginals_keeps_valid_plans(rng):
    mu = np.array([0.4, 0.6])
    nu = np.array([0.3, 0.7])
    plan = np.array(product_coupling(mu, nu).plan)
    npt.assert_array_equal(_round_to_marginals(plan, mu, nu), plan)
    mu = np.array([0.5, 0.5])
    nu = np.array([0.2, 0.3, 0.5])
    plan = np.array(random_coupling(rng, mu, nu).plan)
    npt.assert_allclose(_round_to_marginals(plan, mu, nu), plan, atol=1e-15)


# ---------------------------------------------------------------------------
# entropic solver


def test_entropic_gw_identical_networks(rng):
    # weights kept small so lam=50 stays inside the representable range
    X = random_network(rng, 4, low=-2.0, high=2.0, uniform_measure=True)
    res = entropic_gw(X, X, CFG, init=diagonal_coupling(X.measure))
    assert res.converged
    assert res.value <= 1e-6


def test_entropic_gw_weak_isomorphism(fig2_triple):
    X, Y, _ = fig2_triple
    cfg = SinkhornConfig(lam=100.0, max_iters=3000)
    res = entropic_gw(X, Y, cfg, outer_iters=20, plan_tol=1e-6)
    assert res.value <= 1e-3


def test_entropic_gw_one_point_pair():
    X = one_point_network(1.0)
    Y = one_point_network(5.0)
    res = entropic_gw(X, Y, CFG)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-9)  # |1-5| / 2


def test_entropic_gw_exact_final_marginals(rng):
    X = random_network(rng, 3)
    Y = random_network(rng, 5)
    res = entropic_gw(X, Y, SinkhornConfig(lam=10.0), outer_iters=30)
    plan = res.coupling.plan
    assert np.abs(plan.sum(axis=1) - X.measure).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - Y.measure).max() <= 1e-12


def test_entropic_gw_dominates_lower_bound(rng):
    for _ in range(5):
        X = random_network(rng, int(rng.integers(2, 6)))
        Y = random_network(rng, int(rng.integers(2, 6)))
        res = entropic_gw(X, Y, SinkhornConfig(lam=20.0), outer_iters=50)
        bound = rtlb_max(X, Y, 2.0).rtlb_max
        assert 2.0 * res.value + 1e-9 >= bound


def test_entropic_gw_value_is_half_distortion(rng):
    X = random_network(rng, 3)
    Y = random_network(rng, 4)
    res = entropic_gw(X, Y, SinkhornConfig(lam=15.0))
    assert res.value == pytest.approx(
        0.5 * distortion(X, Y, res.coupling, 2.0), abs=1e-12
    )


def test_entropic_gw_survives_inner_stalls(rng):
    # one inner iteration at an unreachable tolerance stalls every solve;
    # the outer loop must keep alternating on the rounded partial plans
    X = random_network(rng, 3)
    Y = random_network(rng, 3)
    cfg = SinkhornConfig(lam=5.0, max_iters=1, tolerance=1e-16)
    res = entropic_gw(X, Y, cfg, outer_iters=40, plan_tol=1e-6)
    assert res.inner_stalls >= 1
    plan = res.coupling.plan
    assert np.abs(plan.sum(axis=1) - X.measure).max() <= 1e-12


@pytest.mark.parametrize("max_iters", [3, 10000])
def test_entropic_gw_counts_inner_iterations(rng, monkeypatch, max_iters):
    # inner_iterations totals every inner solve's iterations, the stalled
    # partials included (at max_iters 3 every solve stalls)
    X = random_network(rng, 4, low=-1.0, high=1.0)
    Y = random_network(rng, 5, low=-1.0, high=1.0)
    seen = []
    solve = gw.sinkhorn_log

    def counted(*args):
        try:
            res = solve(*args)
        except MaxItersExceededError as err:
            seen.append(err.partial.iterations)
            raise
        seen.append(res.iterations)
        return res

    monkeypatch.setattr(gw, "sinkhorn_log", counted)
    res = entropic_gw(X, Y, SinkhornConfig(lam=15.0, max_iters=max_iters), outer_iters=30)
    assert len(seen) == res.iterations
    assert res.inner_iterations == sum(seen) > 0
    assert (res.inner_stalls == res.iterations) == (max_iters == 3)


def test_gw_result_defaults_inner_iterations_to_zero():
    X = one_point_network(0.0)
    res = gw.GwResult(coupling=product_coupling(X.measure, X.measure), value=0.0,
                      iterations=1, converged=True)
    assert res.inner_iterations == 0


def test_entropic_gw_reports_range_failure():
    # asymmetric weights so the linearized cost is non-constant; at lam=200
    # its exponent range blows past what the log kernel can represent
    r = np.random.default_rng(7)
    X = random_network(r, 3)
    Y = random_network(r, 4)
    res = entropic_gw(X, Y, SinkhornConfig(lam=200.0))
    assert not res.converged
    assert res.inner_error is not None
    assert "RangeTooWide" in res.inner_error


def test_entropic_gw_reports_diverged_inner_solve(monkeypatch):
    # a stalled inner solve with no plan to carry on from ends the run
    partial = SinkhornResult(plan=None, iterations=3, marginal_error=np.inf, absorptions=0,
                             kernel_min=1.0, kernel_max=1.0, converged=False)

    def diverged(*args):
        raise MaxItersExceededError("diverged", partial=partial)

    monkeypatch.setattr(gw, "sinkhorn_log", diverged)
    r = np.random.default_rng(7)
    X = random_network(r, 3)
    Y = random_network(r, 4)
    res = entropic_gw(X, Y, CFG)
    assert not res.converged
    assert res.iterations == 1
    assert res.inner_error == "inner solver diverged"
    assert res.inner_iterations == 3
    npt.assert_array_equal(res.coupling.plan, product_coupling(X.measure, Y.measure).plan)


def _replay(monkeypatch, plans):
    # the k-th inner solve returns plans[k - 1], the last one from then on
    calls = []

    def fake(cost, config, mu, nu):
        calls.append(None)
        plan = plans[min(len(calls), len(plans)) - 1]
        return SinkhornResult(plan=Coupling(plan, mu, nu), iterations=1, marginal_error=0.0,
                              absorptions=0, kernel_min=1.0, kernel_max=1.0, converged=True)

    monkeypatch.setattr(gw, "sinkhorn_log", fake)


@pytest.mark.parametrize(
    "tail, period, stop",
    [
        # anchors at outer iterations 0, 1, 3, 7, 15, 31, ...: the first
        # anchor inside the orbit with a power of two >= period catches it
        (0, 3, 6),
        (4, 3, 10),
        (0, 20, 51),
    ],
)
def test_entropic_gw_stops_on_a_periodic_orbit(monkeypatch, tail, period, stop):
    r = np.random.default_rng(9)
    X = random_network(r, 3)
    Y = random_network(r, 4)
    plans = [random_coupling(r, X.measure, Y.measure).plan for _ in range(tail + period)]
    orbit = plans[tail:]
    _replay(monkeypatch, plans + orbit * (300 // period))
    res = entropic_gw(X, Y, CFG)
    assert not res.converged
    assert res.inner_error is None
    assert (res.iterations, res.cycle) == (stop, period)
    npt.assert_array_equal(res.coupling.plan, orbit[(stop - tail - 1) % period])
    assert res.value == 0.5 * distortion(X, Y, res.coupling, 2.0)


def test_entropic_gw_fixed_point_after_moving_plans(monkeypatch):
    # three distinct plans, then one repeated: the plan stops moving at
    # outer iteration 5 whatever the anchor holds
    r = np.random.default_rng(9)
    X = random_network(r, 3)
    Y = random_network(r, 4)
    _replay(monkeypatch, [random_coupling(r, X.measure, Y.measure).plan for _ in range(4)])
    res = entropic_gw(X, Y, CFG)
    assert res.converged
    assert (res.iterations, res.cycle) == (5, 0)


def test_entropic_gw_converges_through_a_damped_oscillation(monkeypatch):
    # q_k = q + (-0.9)^k s D with D of zero marginals: the step first drops
    # to plan_tol at outer iteration 140, but at 129 the plan is already
    # within plan_tol of the anchor set at 127, at about a tenth of its step
    r = np.random.default_rng(9)
    X = random_network(r, 3, uniform_measure=True)
    Y = random_network(r, 4, uniform_measure=True)
    q = product_coupling(X.measure, Y.measure).plan
    D = np.zeros_like(q)
    D[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    s = 0.5e-8 / (4 * 0.9**139)
    plans = [q + (-0.9) ** k * s * D for k in range(1, 200)]
    steps = [np.abs(b - a).sum() for a, b in zip([q] + plans, plans)]
    assert next(k for k, step in enumerate(steps, 1) if step <= 1e-8) == 140
    assert np.abs(plans[128] - plans[126]).sum() <= 1e-8 < steps[128]
    _replay(monkeypatch, plans)
    res = entropic_gw(X, Y, CFG)
    assert res.converged
    assert (res.iterations, res.cycle) == (140, 0)
    npt.assert_array_equal(res.coupling.plan, plans[139])


def _reference_pairs():
    r = np.random.default_rng(21)
    for lam in (5.0, 20.0):
        for _ in range(6):
            X = random_network(r, int(r.integers(2, 7)), -1.0, 1.0)
            Y = random_network(r, int(r.integers(2, 7)), -1.0, 1.0)
            yield X, Y, SinkhornConfig(lam=lam)
    nets, _, labels = sample_collection("table1", per_class=1, base_seed=0)
    X, Y = (normalize_max_abs(nets[labels.index(label)]) for label in ("c2-00", "c4-00"))
    yield X, Y, SinkhornConfig(lam=100.0)  # a period-20 orbit


def test_entropic_gw_matches_the_loop_without_cycle_check(scripts_path):
    # scripts/bench_entropic.py keeps the outer loop without the cycle check
    reference_entropic_gw = importlib.import_module("bench_entropic").reference_entropic_gw
    outcomes = set()
    for X, Y, config in _reference_pairs():
        res = entropic_gw(X, Y, config)
        plans, outcome = reference_entropic_gw(X, Y, config)
        converged = outcome == "converged"
        assert res.converged == converged
        # the returned plan is the reference's plan at the same iteration
        assert res.coupling.plan.tobytes() == plans[res.iterations].tobytes()
        if converged or not res.cycle:
            assert res.iterations == len(plans) - 1
            last = Coupling(plans[-1], X.measure, Y.measure)
            assert res.value == 0.5 * distortion(X, Y, last, 2.0)
        else:
            # stopped early; the reference still fails to converge on the budget
            assert res.iterations < 200 == len(plans) - 1
            gap = np.abs(plans[res.iterations] - plans[res.iterations - res.cycle]).sum()
            assert gap <= 1e-8
        outcomes.add((res.converged, res.cycle > 0))
    # converged, cycle-stopped and budget-stopped runs all occur
    assert outcomes == {(True, False), (False, True), (False, False)}


def test_entropic_gw_init_variants(fig2_triple):
    X, Y, _ = fig2_triple
    seed = product_coupling(X.measure, Y.measure)
    res = entropic_gw(X, Y, CFG, init=seed)
    assert res.value >= 0.0
    # None is the product coupling
    assert entropic_gw(X, Y, CFG).value == res.value
    with pytest.raises(MarginalMismatchError):
        entropic_gw(X, Y, CFG, init=diagonal_coupling(X.measure))  # measures differ
    for name in ("product", "diagonal", "random"):
        with pytest.raises(DomainError):
            entropic_gw(X, Y, CFG, init=name)


def test_entropic_gw_argument_checks(fig2_triple):
    X, Y, _ = fig2_triple
    with pytest.raises(DomainError):
        entropic_gw(X, Y, CFG, outer_iters=0)
    with pytest.raises(DomainError):
        entropic_gw(X, Y, CFG, plan_tol=0.0)


# ---------------------------------------------------------------------------
# brute force


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_bruteforce_one_point_pair(p):
    res = gw_bruteforce(one_point_network(0.0), one_point_network(7.0), p)
    assert res.value == pytest.approx(3.5, abs=1e-12)
    assert res.converged


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_bruteforce_self_distance_zero(rng, p):
    X = random_network(rng, 2, uniform_measure=True)
    res = gw_bruteforce(X, X, p)
    assert res.value <= 1e-9


def test_bruteforce_weak_isomorphism(fig2_triple):
    X, Y, _ = fig2_triple
    res = gw_bruteforce(X, Y, 2.0)
    assert res.value <= 1e-8


def test_bruteforce_sandwiched_by_bounds(rng):
    for _ in range(8):
        X = random_network(rng, int(rng.integers(1, 4)))
        Y = random_network(rng, int(rng.integers(1, 4)))
        for p in (1.0, 2.0):
            res = gw_bruteforce(X, Y, p)
            bound = rtlb_max(X, Y, p).rtlb_max
            assert bound <= 2.0 * res.value + 1e-8


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_bruteforce_closes_sandwich_on_skewed_pair(p):
    # rtlb_max / 2 is d_N here, and the exact oracle must reach it
    X = new_network([[1000.0, 0.0], [1000.0, 0.0]], [0.2, 0.8])
    Y = new_network(
        [[1000.0, 0.0, 0.0], [0.0, 0.0, -1000.0], [1000.0, 0.0, 0.0]], [0.2, 0.5, 0.3]
    )
    value = gw_bruteforce(X, Y, p).value
    if np.isinf(p):
        assert value <= 500.0
    else:
        assert value <= 0.5 * rtlb_max(X, Y, p).rtlb_max * (1.0 + 1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_bruteforce_exact_on_two_by_two(rng, p):
    # the couplings of two 2-point measures form a segment, on which
    # dis_p^p is a quadratic in the top-left entry t: its minimum is at
    # an end or at the apex
    for _ in range(20):
        X = random_network(rng, 2)
        Y = random_network(rng, 2)
        mu, nu = X.measure, Y.measure
        lo, hi = max(0.0, mu[0] + nu[0] - 1.0), min(mu[0], nu[0])
        gap = np.abs(X.weights[:, None, :, None] - Y.weights[None, :, None, :]) ** p

        def dis_pow(t):
            plan = np.array([[t, mu[0] - t], [nu[0] - t, mu[1] - nu[0] + t]])
            return float(np.einsum("ijkl,ij,kl->", gap, plan, plan))

        ends = dis_pow(lo), dis_pow(0.5 * (lo + hi)), dis_pow(hi)
        curve = 2.0 * (ends[0] - 2.0 * ends[1] + ends[2])
        slope = -3.0 * ends[0] + 4.0 * ends[1] - ends[2]
        best = min(ends[0], ends[2])
        if curve > 0.0 and 0.0 < -slope / (2.0 * curve) < 1.0:
            best = min(best, dis_pow(lo - slope / (2.0 * curve) * (hi - lo)))
        value = gw_bruteforce(X, Y, p).value
        assert value == pytest.approx(0.5 * best ** (1.0 / p), rel=1e-9)


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)])
def test_bruteforce_not_above_any_coupling(shape):
    # independent of the face enumeration: no vertex (an exact_ot optimum
    # of a random cost) and no random interior plan may beat the oracle
    rng = np.random.default_rng(17)
    m, n = shape
    for _ in range(4):
        X, Y = random_network(rng, m), random_network(rng, n)
        mu, nu = X.measure, Y.measure
        plans = [exact_ot(rng.normal(size=(m, n)), mu, nu)[0] for _ in range(100)]
        plans += [random_coupling(rng, mu, nu) for _ in range(50)]
        for p in (1.0, 2.0, 2.5, np.inf):
            value = gw_bruteforce(X, Y, p).value
            lowest = min(distortion(X, Y, c, p) for c in plans)
            assert value <= 0.5 * lowest * (1.0 + 1e-12)


def test_bruteforce_not_above_entropic(rng):
    for _ in range(3):
        X = random_network(rng, 3)
        Y = random_network(rng, 3)
        exact = gw_bruteforce(X, Y, 2.0)
        local = entropic_gw(X, Y, SinkhornConfig(lam=30.0), outer_iters=80)
        assert exact.value <= local.value + 1e-6


def test_bruteforce_value_matches_coupling(rng):
    X = random_network(rng, 2)
    Y = random_network(rng, 4)
    res = gw_bruteforce(X, Y, 2.0)
    assert res.value == pytest.approx(
        0.5 * distortion(X, Y, res.coupling, 2.0), abs=1e-12
    )


def test_bruteforce_size_limit(rng):
    X = random_network(rng, 2)
    Y = random_network(rng, 5)
    assert X.n * Y.n > BRUTEFORCE_CELL_LIMIT
    with pytest.raises(InstanceTooLargeError):
        gw_bruteforce(X, Y, 2.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_bruteforce_argument_checks(rng):
    X = random_network(rng, 2)
    with pytest.raises(DomainError):
        gw_bruteforce(X, X, 0.5)
    # the squared weight gaps overflow
    X = new_network([[0.0, 1e200], [1e200, 0.0]], [0.5, 0.5])
    with pytest.raises(DomainError):
        gw_bruteforce(X, X, 2.0)


# ---------------------------------------------------------------------------
# cosine rule


def test_cosine_rule_inner_is_quarter_squared_distortion(rng):
    for _ in range(20):
        X = random_network(rng, int(rng.integers(2, 7)))
        Y = random_network(rng, int(rng.integers(2, 7)))
        c = random_coupling(rng, X.measure, Y.measure)
        inner = cosine_rule_inner(X, Y, c)
        assert inner == pytest.approx(
            0.25 * distortion(X, Y, c, 2.0) ** 2, abs=1e-10
        )


def test_cosine_rule_inner_identity_coupling(rng):
    # exactly 0, never negative: the expansion alone cancels to about
    # +-eps * scale^2 here, below 0 about a third of the time
    for scale in (1.0, 1e3, 1e6):
        for _ in range(100):
            X = random_network(rng, int(rng.integers(2, 8)))
            X = new_network(scale * X.weights, X.measure)
            assert cosine_rule_inner(X, X, diagonal_coupling(X.measure)) == 0.0
