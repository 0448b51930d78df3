import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from netgw.core import new_network, one_point_network
from netgw.errors import (
    DomainError,
    IndexOutOfRangeError,
    KindMismatchError,
    UnsupportedDimensionError,
)
from netgw.invariants import (
    EccentricityVector,
    SizeCurve,
    ecc_pushforward,
    eccentricity,
    interleaving_distance,
    local_distribution,
    size_curve,
    size_p,
    sphere_discretize,
    sphere_subsize_closed_form,
    sphere_subsize_curve,
    sphere_surface_area,
    sub_size,
    sup_size,
    weight_pushforward,
)
from netgw.ot import wasserstein_1d

from conftest import random_network


# ---------------------------------------------------------------------------
# sizes and eccentricities


def test_size_p_agrees_across_weak_isomorphism(fig2_triple):
    X, Y, Z = fig2_triple
    for p in (1.0, 2.0, np.inf):
        sx, sy, sz = size_p(X, p), size_p(Y, p), size_p(Z, p)
        assert sx == pytest.approx(sy, abs=1e-14)
        assert sx == pytest.approx(sz, abs=1e-14)
    assert size_p(X, 1.0) == pytest.approx(1.75, abs=1e-15)
    assert size_p(X, 2.0) == pytest.approx(math.sqrt(3.75), abs=1e-15)
    assert size_p(X, np.inf) == 3.0


def test_size_p_one_point():
    X = one_point_network(-4.0)
    for p in (1.0, 2.0, np.inf):
        assert size_p(X, p) == 4.0


def test_size_p_rejects_bad_order(fig2_triple):
    with pytest.raises(DomainError):
        size_p(fig2_triple[0], 0.5)


def test_eccentricity_fig2_values(fig2_triple):
    X, Y, _ = fig2_triple
    npt.assert_allclose(
        eccentricity(X, 1.0).values, [1.5, 1.5, 2.0], atol=1e-15
    )
    npt.assert_allclose(
        eccentricity(Y, 1.0).values, [1.5, 2.0, 2.0], atol=1e-15
    )


def test_eccentricity_vector_rejects_negative_values():
    with pytest.raises(DomainError):
        EccentricityVector(values=[1.0, -0.5])


def test_eccentricity_directions_differ():
    X = new_network([[0.0, 4.0], [1.0, 0.0]], [0.5, 0.5])
    npt.assert_allclose(eccentricity(X, 1.0, "out").values, [2.0, 0.5])
    npt.assert_allclose(eccentricity(X, 1.0, "in").values, [0.5, 2.0])


def test_eccentricity_sup_order():
    X = new_network([[0.0, -4.0], [1.0, 0.0]], [0.5, 0.5])
    npt.assert_allclose(eccentricity(X, np.inf, "out").values, [4.0, 1.0])


def test_eccentricity_rejects_bad_direction(fig2_triple):
    with pytest.raises(DomainError):
        eccentricity(fig2_triple[0], 1.0, "sideways")


# ---------------------------------------------------------------------------
# pushforwards


def test_local_distribution_fig2(fig2_triple):
    X, _, _ = fig2_triple
    d = local_distribution(X, 2, "out")
    npt.assert_array_equal(d.atoms, [1.0, 3.0])
    npt.assert_allclose(d.masses, [0.5, 0.5], atol=1e-15)


def test_local_distribution_direction():
    X = new_network([[0.0, 4.0], [1.0, 0.0]], [0.5, 0.5])
    out = local_distribution(X, 0, "out")
    into = local_distribution(X, 0, "in")
    npt.assert_array_equal(out.atoms, [0.0, 4.0])
    npt.assert_array_equal(into.atoms, [0.0, 1.0])


def test_local_distribution_index_check(fig2_triple):
    with pytest.raises(IndexOutOfRangeError):
        local_distribution(fig2_triple[0], 3)


def test_weight_pushforward_fig2(fig2_triple):
    X, Y, Z = fig2_triple
    d = weight_pushforward(X)
    npt.assert_array_equal(d.atoms, [1.0, 2.0, 3.0])
    npt.assert_allclose(d.masses, [0.5, 0.25, 0.25], atol=1e-15)
    for other in (Y, Z):
        assert wasserstein_1d(d, weight_pushforward(other), 1.0) == pytest.approx(
            0.0, abs=1e-15
        )


def test_ecc_pushforward_invariant_on_triple(fig2_triple):
    X, Y, Z = fig2_triple
    for p in (1.0, 2.0):
        dx = ecc_pushforward(X, p)
        for other in (Y, Z):
            d = ecc_pushforward(other, p)
            assert wasserstein_1d(dx, d, p) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sublevel / superlevel sizes


def test_sub_sup_partition_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        X = random_network(rng, int(rng.integers(2, 8)))
        t = float(rng.uniform(-9.0, 9.0))  # a.s. not an exact weight
        for p in (1.0, 2.0):
            total = sub_size(X, p, t) ** p + sup_size(X, p, t) ** p
            assert total == pytest.approx(size_p(X, p) ** p, abs=1e-12)


def test_sub_size_saturates_to_size():
    rng = np.random.default_rng(29)
    X = random_network(rng, 5)
    top = float(X.weights.max())
    bottom = float(X.weights.min())
    for p in (1.0, 2.0, 3.0):
        assert sub_size(X, p, top) == size_p(X, p)
        assert sup_size(X, p, bottom) == size_p(X, p)


def test_sub_size_monotone_in_threshold():
    rng = np.random.default_rng(41)
    X = random_network(rng, 6)
    ts = np.linspace(-11.0, 11.0, 40)
    subs = [sub_size(X, 2.0, t) for t in ts]
    sups = [sup_size(X, 2.0, t) for t in ts]
    assert np.all(np.diff(subs) >= 0.0)
    assert np.all(np.diff(sups) <= 0.0)
    assert subs[0] == 0.0 and sups[-1] == 0.0


def test_sub_size_threshold_nan_rejected_inf_saturates(fig2_triple):
    X = fig2_triple[0]
    for fn in (sub_size, sup_size):
        with pytest.raises(DomainError):
            fn(X, 1.0, math.nan)
    assert sub_size(X, 2.0, math.inf) == size_p(X, 2.0)
    assert sup_size(X, 2.0, -math.inf) == size_p(X, 2.0)


def _masked_size(X, p, mask):
    # one masked O(n^2) rescan per threshold: the route the binned pass
    # replaced, kept as the reference
    outer = np.outer(X.measure, X.measure) * mask
    return float(np.sum(np.abs(X.weights) ** p * outer)) ** (1.0 / p)


@st.composite
def _network_and_thresholds(draw):
    n = draw(st.integers(1, 6))
    # small integers give tied weights, floats give generic ones; both signed
    entry = st.one_of(
        st.integers(-3, 3).map(float), st.floats(-1.0, 1.0, allow_nan=False)
    )
    scale = 10.0 ** draw(st.integers(-6, 6))
    w = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))) * scale
    mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    X = new_network(w.reshape(n, n), mass / mass.sum())
    # thresholds at the weights themselves hit the <= and >= edges
    choices = sorted(set(X.weights.ravel().tolist())) + [-math.inf, math.inf]
    picks = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=8))
    return X, np.array(picks)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_network_and_thresholds())
def test_level_sizes_match_masked_rescan(case):
    X, thresholds = case
    grid = np.unique(thresholds[np.isfinite(thresholds)])
    for p in (1.0, 2.0, 2.5):
        tol = 1e-12 * size_p(X, p)
        for t in thresholds:
            want = _masked_size(X, p, X.weights <= t)
            assert abs(sub_size(X, p, t) - want) <= tol
            want = _masked_size(X, p, X.weights >= t)
            assert abs(sup_size(X, p, t) - want) <= tol
        if grid.size < 2:
            continue
        for kind, admits in (("sublevel", np.less_equal), ("superlevel", np.greater_equal)):
            curve = size_curve(X, p, kind=kind, grid=grid)
            want = [_masked_size(X, p, admits(X.weights, t)) for t in grid]
            npt.assert_allclose(curve.values, want, rtol=0.0, atol=tol)


def _circle_subsize(n, grid):
    # p=1 sublevel size of the n-node circle, by counting distances:
    # 2*pi*k/n occurs for 2n ordered pairs, k = 0 and k = n/2 for n
    k = np.arange(n // 2 + 1)
    dist = 2.0 * math.pi * k / n
    count = np.full(k.size, 2.0 * n)
    count[0] = n
    if n % 2 == 0:
        count[-1] = n
    # grid points never fall within 1e-9 of a distance except at 0 and the top
    inside = dist[None, :] <= grid[:, None] + 1e-9
    return (inside * (count * dist)).sum(axis=1) / (n * n)


def test_large_circle_curve_matches_exact_count():
    # one running sum over all 10^6 sorted terms drifts past 1e-12 here
    circle = sphere_discretize(1, 1000)
    order = np.random.default_rng(7).permutation(circle.n)
    X = new_network(circle.weights[np.ix_(order, order)], circle.measure[order])
    curve = size_curve(X, 1.0, samples=512)
    gap = np.abs(curve.values - _circle_subsize(1000, curve.grid)).max()
    assert gap <= 1e-12


def test_size_curve_memory_does_not_scale_with_nodes_times_grid():
    # an n x s array at n = 1000, s = 100000 would take 800 MB
    X = sphere_discretize(1, 1000)
    grid = np.linspace(0.0, math.pi, 100_000)
    tracemalloc.start()
    try:
        curve = size_curve(X, 1.0, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curve.values[-1] == size_p(X, 1.0)
    assert peak < 64e6


def test_sub_size_rejects_infinite_order(fig2_triple):
    with pytest.raises(DomainError):
        sub_size(fig2_triple[0], np.inf, 1.0)
    with pytest.raises(DomainError):
        sup_size(fig2_triple[0], np.inf, 1.0)


# ---------------------------------------------------------------------------
# spheres


def test_sphere_surface_areas():
    assert sphere_surface_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_surface_area(3) == pytest.approx(
        2.0 * math.pi**2, rel=1e-14
    )
    assert sphere_surface_area(4) == pytest.approx(
        8.0 * math.pi**2 / 3.0, rel=1e-14
    )
    assert sphere_surface_area(5) == pytest.approx(math.pi**3, rel=1e-14)
    with pytest.raises(UnsupportedDimensionError):
        sphere_surface_area(0)


def test_sphere_subsize_circle_closed_form():
    # n=1: (t^(p+1) / ((p+1) pi))^(1/p)
    assert sphere_subsize_closed_form(1, 1.0, math.pi) == pytest.approx(
        math.pi / 2.0, abs=1e-12
    )
    assert sphere_subsize_closed_form(1, 2.0, math.pi) == pytest.approx(
        math.pi / math.sqrt(3.0), abs=1e-12
    )
    t = 1.3
    assert sphere_subsize_closed_form(1, 1.0, t) == pytest.approx(
        t * t / (2.0 * math.pi), abs=1e-12
    )


def test_sphere_subsize_two_sphere_half_threshold():
    # (1/2) * integral_0^(pi/2) phi sin phi dphi = (1/2)(sin - phi cos)| = 1/2
    got = sphere_subsize_closed_form(2, 1.0, math.pi / 2.0)
    assert got == pytest.approx(0.5, abs=1e-10)


def _direct_sphere_subsize(n, p, t):
    # the defining form, (S_{n-1}/S_n * integral_0^t phi^p sin^{n-1} phi)^(1/p),
    # with the integral too; None where it leaves the normal range
    if n == 1:
        power = t ** (p + 1.0) / ((p + 1.0) * math.pi)
        integral = t ** (p + 1.0)
    else:
        integral, _ = quad(
            lambda phi: phi**p * math.sin(phi) ** (n - 1), 0.0, t,
            epsabs=0.0, epsrel=2e-14, limit=200,
        )
        power = sphere_surface_area(n - 1) / sphere_surface_area(n) * integral
    return power ** (1.0 / p) if 1e-290 < integral < 1e290 else None


def test_sphere_subsize_matches_direct_form():
    checked = 0
    for n in (1, 2, 3, 5):
        for p in (1.0, 1.5, 2.0, 2.5, 10.0, 100.0, 300.0, 600.0):
            for t in (1e-6, 1e-3, 0.3, 1.0, 2.0, 3.0, math.pi):
                try:
                    want = _direct_sphere_subsize(n, p, t)
                except OverflowError:
                    continue
                if want is None:
                    continue
                checked += 1
                assert sphere_subsize_closed_form(n, p, t) == pytest.approx(want, rel=1e-12)
    assert checked > 150


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_subsize_finite_at_large_order(n):
    # the direct form overflows from p of about 620; the size tends to t
    for p in (700.0, 1e3, 1e4):
        for t in (0.01, 1.0, math.pi):
            value = sphere_subsize_closed_form(n, p, t)
            assert math.isfinite(value)
            assert 0.95 * t < value < t ** (1.0 + 1.0 / p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_subsize_quiet_at_extreme_order(n):
    # no quadrature warning from sin(t u) near t = pi at p = 1e8, no
    # underflow of the p-th power at p = 1e300
    for p in (1e8, 1e300):
        for t in (0.01, 1.0, math.pi):
            assert sphere_subsize_closed_form(n, p, t) == pytest.approx(t, rel=1e-6)
    # at t = 1e-200, where sin(t u)^(n-1) underflows, the size is its
    # first-order form t^(1+n/p) (S_{n-1} / (S_n (p+n)))^(1/p)
    ratio = sphere_surface_area(n - 1) / sphere_surface_area(n) if n > 1 else 1.0 / math.pi
    for p in (50.0, 100.0):
        want = math.exp(math.log(1e-200) * (1.0 + n / p) + math.log(ratio / (p + n)) / p)
        assert sphere_subsize_closed_form(n, p, 1e-200) == pytest.approx(want, rel=1e-12)


def test_sphere_subsize_domain_checks():
    assert sphere_subsize_closed_form(3, 2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        sphere_subsize_closed_form(2, 1.0, 3.5)
    with pytest.raises(DomainError):
        sphere_subsize_closed_form(2, 1.0, -0.1)
    with pytest.raises(UnsupportedDimensionError):
        sphere_subsize_closed_form(0, 1.0, 1.0)


def test_sphere_discretize_circle_distances():
    X = sphere_discretize(1, 8)
    idx = np.arange(8)
    hops = np.abs(idx[:, None] - idx[None, :])
    expect = np.minimum(hops, 8 - hops) * (math.pi / 4.0)
    npt.assert_allclose(X.weights, expect, atol=1e-12)
    npt.assert_array_equal(X.measure, np.full(8, 0.125))


def test_sphere_discretize_two_sphere_sanity():
    X = sphere_discretize(2, 128)
    assert X.measure.sum() == pytest.approx(1.0, abs=1e-12)
    npt.assert_allclose(X.weights, X.weights.T, atol=0)
    assert float(np.diag(X.weights).max()) == 0.0
    assert float(X.weights.max()) <= math.pi + 1e-12
    # mean geodesic distance on S^2 is pi/2; coarse grid gets close
    assert size_p(X, 1.0) == pytest.approx(math.pi / 2.0, abs=0.05)


def test_sphere_discretize_rejects_bad_args():
    with pytest.raises(UnsupportedDimensionError):
        sphere_discretize(3, 100)
    with pytest.raises(DomainError):
        sphere_discretize(1, 7)


# ---------------------------------------------------------------------------
# size curves


def test_size_curve_matches_pointwise(fig2_triple):
    X, _, _ = fig2_triple
    curve = size_curve(X, 1.0, samples=16)
    assert curve.grid[0] == 0.0
    assert curve.t_max == 3.0
    for t, v in zip(curve.grid, curve.values):
        assert v == sub_size(X, 1.0, t)
    assert curve.values[-1] == size_p(X, 1.0)


def test_size_curve_superlevel(fig2_triple):
    X, _, _ = fig2_triple
    curve = size_curve(X, 2.0, kind="superlevel", samples=16)
    assert np.all(np.diff(curve.values) <= 1e-12)


def test_size_curve_custom_grid(fig2_triple):
    X, _, _ = fig2_triple
    curve = size_curve(X, 1.0, grid=[0.0, 1.5, 4.0])
    assert curve.values[2] == size_p(X, 1.0)


def test_size_curve_without_positive_weights_spans_unit_interval():
    X = new_network([[0.0, -1.0], [-2.0, 0.0]], [0.5, 0.5])
    curve = size_curve(X, 1.0, samples=5)
    npt.assert_array_equal(curve.grid, np.linspace(0.0, 1.0, 5))
    assert curve.values[0] == sub_size(X, 1.0, 0.0)


def test_size_curve_validation():
    with pytest.raises(KindMismatchError):
        SizeCurve(grid=[0.0, 1.0], values=[0.0, 1.0], p=1.0, kind="levels")
    with pytest.raises(DomainError):
        SizeCurve(grid=[0.0, 0.0], values=[0.0, 1.0], p=1.0, kind="sublevel")
    with pytest.raises(DomainError):
        SizeCurve(grid=[0.0, 1.0], values=[1.0, 0.0], p=1.0, kind="sublevel")
    with pytest.raises(DomainError):
        SizeCurve(grid=[0.0, 1.0], values=[0.0, 1.0], p=1.0, kind="superlevel")
    with pytest.raises(DomainError):
        SizeCurve(grid=[0.0, 1.0, 2.0], values=[0.0, 1.0], p=1.0, kind="sublevel")


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_size_curve_rejects_non_finite_grid(fig2_triple, bad):
    with pytest.raises(DomainError):
        SizeCurve(
            grid=[0.0, 1.0, bad], values=[0.0, 1.0, 1.0], p=1.0, kind="sublevel"
        )
    with pytest.raises(DomainError):
        size_curve(fig2_triple[0], 1.0, grid=[0.0, bad, 2.5])
    with pytest.raises(DomainError):
        SizeCurve(
            grid=[0.0, 1.0, 2.0], values=[0.0, 1.0, bad], p=1.0, kind="sublevel"
        )
    # the squared weights overflow, so the last sampled size is inf
    huge = new_network([[0.0, 1e200], [1e200, 0.0]], [0.5, 0.5])
    with pytest.raises(DomainError):
        size_curve(huge, 2.0, samples=8)


def test_sphere_subsize_curve_circle():
    curve = sphere_subsize_curve(1, 1.0, samples=64)
    npt.assert_allclose(
        curve.values, curve.grid**2 / (2.0 * math.pi), atol=1e-12
    )


# ---------------------------------------------------------------------------
# interleaving distance


def _line_curve(values, grid):
    return SizeCurve(
        grid=np.asarray(grid, dtype=float),
        values=np.asarray(values, dtype=float),
        p=1.0,
        kind="sublevel",
    )


def test_interleaving_identical_is_zero():
    grid = np.linspace(0.0, 2.0, 32)
    f = _line_curve(grid**2, grid)
    assert interleaving_distance(f, f) == 0.0


def test_interleaving_constant_offset():
    grid = np.linspace(0.0, 1.0, 16)
    f = _line_curve(np.zeros(16), grid)
    g = _line_curve(np.full(16, 0.3), grid)
    assert interleaving_distance(f, g, tol=1e-6) == pytest.approx(
        0.3, abs=1e-5
    )


def test_interleaving_horizontal_shift():
    # f(t) = max(t - s, 0) against g(t) = t: curves are clamped at their
    # right endpoint, so the unmatched vertical gap g(T) - f(T) = s pins
    # the distance to s rather than the unbounded-domain value s/2
    s = 0.4
    grid = np.linspace(0.0, 2.0, 401)
    f = _line_curve(np.maximum(grid - s, 0.0), grid)
    g = _line_curve(grid, grid)
    assert interleaving_distance(f, g, tol=1e-6) == pytest.approx(s, abs=1e-4)


def test_interleaving_plateau_shift():
    # once both curves saturate at the same level before T, only the
    # horizontal shift matters and the distance drops to s/2
    s = 0.4
    grid = np.linspace(0.0, 2.0, 401)
    f = _line_curve(np.minimum(np.maximum(grid - s, 0.0), 1.0), grid)
    g = _line_curve(np.minimum(grid, 1.0), grid)
    assert interleaving_distance(f, g, tol=1e-6) == pytest.approx(
        s / 2.0, abs=1e-4
    )


def test_interleaving_grows_bracket_past_the_largest_gap():
    # a drop within the monotonicity slack, steeper than any shift can
    # cover: the distance (the drop plus the offset) is about 100 times
    # the largest vertical gap (the offset), so the bracket must double
    grid = [0.0, 1.0, 1.0 + 2.0**-40]
    values = np.array([0.0, 1.0, 1.0 - 1e-10])
    f = _line_curve(values + 1e-12, grid)
    g = _line_curve(values, grid)
    assert interleaving_distance(f, g, tol=1e-15) == pytest.approx(1.01e-10, rel=1e-3)


def test_interleaving_symmetric(rng):
    grid = np.linspace(0.0, 3.0, 200)
    f = _line_curve(np.sort(rng.random(200)), grid)
    g = _line_curve(np.sort(rng.random(200)) * 2.0, grid)
    d1 = interleaving_distance(f, g, tol=1e-6)
    d2 = interleaving_distance(g, f, tol=1e-6)
    assert d1 == pytest.approx(d2, abs=1e-5)


def test_interleaving_requires_sublevel(fig2_triple):
    X, _, _ = fig2_triple
    f = size_curve(X, 1.0, samples=16)
    g = size_curve(X, 1.0, kind="superlevel", samples=16)
    with pytest.raises(KindMismatchError):
        interleaving_distance(f, g)


def test_interleaving_requires_equal_orders():
    f = sphere_subsize_curve(1, 1.0, 64)
    g = sphere_subsize_curve(1, 3.0, 64)
    with pytest.raises(KindMismatchError):
        interleaving_distance(f, g)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_interleaving_rejects_nonpositive_tolerance(tol):
    # at tol <= 0 the bisection midpoint stops moving and the loop never ends
    grid = np.linspace(0.0, 1.0, 16)
    f = _line_curve(np.zeros(16), grid)
    g = _line_curve(np.full(16, 0.3), grid)
    with pytest.raises(DomainError):
        interleaving_distance(f, g, tol=tol)


def test_interleaving_tolerance_below_float_spacing_returns():
    grid = np.linspace(0.0, 1.0, 16)
    f = _line_curve(np.zeros(16), grid)
    g = _line_curve(np.full(16, 0.3), grid)
    assert interleaving_distance(f, g, tol=1e-300) == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_curves_need_two_samples(fig2_triple, samples):
    X, _, _ = fig2_triple
    with pytest.raises(DomainError):
        size_curve(X, 1.0, samples=samples)
    with pytest.raises(DomainError):
        sphere_subsize_curve(1, 1.0, samples=samples)
