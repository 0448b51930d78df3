import functools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from netgw import bounds
from netgw.bounds import (
    BoundReport,
    NetworkSummary,
    TlbCostMatrix,
    rflb,
    rslb,
    rtlb,
    rtlb_max,
    szlb,
    tlb_cost,
)
from netgw.core import diagonal_coupling, distortion, new_network, one_point_network
from netgw.errors import DomainError
from netgw.generators import sample_collection
from netgw.gw import BRUTEFORCE_CELL_LIMIT, gw_bruteforce
from netgw.invariants import local_distribution, sphere_discretize
from netgw.ot import wasserstein_1d

from conftest import random_coupling, random_network, scaled_network


def _transposed(X):
    return new_network(X.weights.T.copy(), X.measure)


# ---------------------------------------------------------------------------
# exactness on easy instances


def test_one_point_pairs_all_bounds_tight():
    X = one_point_network(1.0)
    Y = one_point_network(4.5)
    for p in (1.0, 2.0, 3.0):
        assert szlb(X, Y, p) == pytest.approx(3.5, abs=1e-12)
        assert rflb(X, Y, p) == pytest.approx(3.5, abs=1e-12)
        assert rslb(X, Y, p) == pytest.approx(3.5, abs=1e-12)
        value, coupling = rtlb(X, Y, p)
        assert value == pytest.approx(3.5, abs=1e-9)
        npt.assert_array_equal(coupling.plan, [[1.0]])


def test_identical_networks_all_bounds_zero():
    rng = np.random.default_rng(51)
    for _ in range(5):
        X = random_network(rng, int(rng.integers(2, 7)))
        for p in (1.0, 2.0):
            report = rtlb_max(X, X, p)
            for key, value in report.to_dict().items():
                if key == "p":
                    continue
                assert value == pytest.approx(0.0, abs=1e-9), key


def test_weak_isomorphism_gives_zero_bounds(fig2_triple):
    X, Y, Z = fig2_triple
    for A, B in ((X, Y), (X, Z), (Y, Z)):
        for p in (1.0, 2.0):
            report = rtlb_max(A, B, p)
            assert report.rtlb_max <= 1e-9
            assert report.rslb <= 1e-9


# ---------------------------------------------------------------------------
# the chain


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_hierarchy_chain_random_pairs(p):
    rng = np.random.default_rng(53)
    for _ in range(25):
        X = random_network(rng, int(rng.integers(1, 9)))
        Y = random_network(rng, int(rng.integers(1, 9)))
        r = rtlb_max(X, Y, p)  # BoundReport re-validates the chain itself
        assert r.szlb <= r.rflb_out + 1e-9
        assert r.rflb_out <= r.rtlb_out + 1e-9
        assert r.szlb <= r.rflb_in + 1e-9
        assert r.rflb_in <= r.rtlb_in + 1e-9
        assert r.rtlb_max == max(r.rtlb_out, r.rtlb_in)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_bounds_below_any_distortion(p):
    rng = np.random.default_rng(59)
    for _ in range(10):
        X = random_network(rng, int(rng.integers(2, 7)))
        Y = random_network(rng, int(rng.integers(2, 7)))
        bound = rtlb_max(X, Y, p).rtlb_max
        for _ in range(10):
            c = random_coupling(rng, X.measure, Y.measure)
            assert bound <= distortion(X, Y, c, p) + 1e-9


# ---------------------------------------------------------------------------
# perturbation: X' has X's nodes and measure and weights W + E, so every
# bound B(X, X') <= 2 d_N(X, X') <= distortion(X, X', identity, p); no
# oracle is needed, at any size

BOUND_NAMES = ("szlb", "rflb_out", "rflb_in", "rslb", "rtlb_max")
PERTURBATION_EPS = (1e-9, 1e-6, 1e-3, 1e-2)
# slack relative to the identity's distortion: p = 2 keeps each expanded
# square within eps / CANCEL_TOL (2.2e-10) of itself, and resums the rest
PERTURBATION_TOL = {1.0: 1e-12, 2.0: 1e-9, 2.5: 1e-12}


def _perturbation_excess(X, eps, p, rng):
    """(dis, {bound: bound - dis}) for X against X with weights
    W + eps * max|W| * N(0, 1), dis the identity coupling's distortion."""
    W = X.weights
    Y = new_network(W + eps * np.abs(W).max() * rng.standard_normal(W.shape), X.measure)
    dis = distortion(X, Y, diagonal_coupling(X.measure), p)
    report = rtlb_max(X, Y, p)
    return dis, {name: getattr(report, name) - dis for name in BOUND_NAMES}


@functools.cache
def _worst_relative_excess(family, p):
    # each bound's largest (bound - dis) / dis over the family and PERTURBATION_EPS
    if family == "table1":
        nets = sample_collection("table1", 2, 0)[0]
    else:
        nets = [sphere_discretize(1, n) for n in (20, 60, 120)]
    rng = np.random.default_rng(0)
    worst = dict.fromkeys(BOUND_NAMES, -np.inf)
    for X in nets:
        for eps in PERTURBATION_EPS:
            dis, excess = _perturbation_excess(X, eps, p, rng)
            worst = {name: max(worst[name], excess[name] / dis) for name in BOUND_NAMES}
    return worst


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
@pytest.mark.parametrize("family", ["table1", "circles"])
def test_bounds_below_identity_distortion_on_perturbed_copies(family, p):
    """At p = 2, an absolute cancellation floor of 64 eps times the scale
    let rtlb_max rise 9e-5 above the distortion here.  The circles' rslb
    is left to test_bounds_below_identity_distortion_with_tied_weights."""
    worst = _worst_relative_excess(family, p)
    names = BOUND_NAMES if family == "table1" else tuple(n for n in BOUND_NAMES if n != "rslb")
    for name in names:
        assert worst[name] <= PERTURBATION_TOL[p], (name, worst[name])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    X=scaled_network(5),
    eps=st.sampled_from(PERTURBATION_EPS),
    p=st.sampled_from([1.0, 2.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
# one node: szlb is the distortion, which the old floor put 5.7e-10 below it
@example(X=one_point_network(1.0), eps=1e-6, p=2.0, seed=2)
def test_bounds_below_identity_distortion_on_perturbed_scaled_networks(X, eps, p, seed):
    """A bound of a network this small can equal the distortion (one node),
    so each may also be 1e-12 times the weight scale above it, for the
    rounding of sizes and eccentricities.  rslb and rtlb_max are checked
    at p = 1 only: see test_bounds_below_identity_distortion_with_tied_weights."""
    dis, excess = _perturbation_excess(X, eps, p, np.random.default_rng(seed))
    rounding = 1e-12 * np.abs(X.weights).max()
    names = BOUND_NAMES if p == 1.0 else ("szlb", "rflb_out", "rflb_in")
    for name in names:
        assert excess[name] <= PERTURBATION_TOL[p] * dis + rounding, name


@pytest.mark.xfail(strict=True, reason="1D costs of split ties sum their masses in another order")
@pytest.mark.parametrize("case", ["circle-rslb", "ties-rslb", "ties-rtlb_max"])
def test_bounds_below_identity_distortion_with_tied_weights(case):
    """Known defect: where X has tied weights, a perturbed copy splits each
    tie, and its cumulative masses reach the tie's end in another order of
    sums, a few ulps away from X's.  A 1D cost at p > 1 is then off by about
    (machine epsilon)^(1/p) times the weight scale: on the 120-node circle, rslb at
    eps = 1e-9 is 29 times the distortion at p = 2, and on a 4-node network
    under a non-uniform measure rslb and rtlb_max are 7 times it."""
    if case == "circle-rslb":
        assert _worst_relative_excess("circles", 2.0)["rslb"] <= PERTURBATION_TOL[2.0]
        return
    rng = np.random.default_rng(5)
    weights = rng.integers(-2, 3, size=(4, 4)).astype(float)
    measure = rng.random(4) + 0.1
    X = new_network(weights, measure / measure.sum())
    dis, excess = _perturbation_excess(X, 1e-9, 2.0, rng)
    assert excess[case.removeprefix("ties-")] <= PERTURBATION_TOL[2.0] * dis


def test_bounds_are_symmetric():
    rng = np.random.default_rng(61)
    X = random_network(rng, 5)
    Y = random_network(rng, 7)
    for p in (1.0, 2.0):
        assert szlb(X, Y, p) == szlb(Y, X, p)
        assert rflb(X, Y, p) == pytest.approx(rflb(Y, X, p), abs=1e-12)
        assert rslb(X, Y, p) == pytest.approx(rslb(Y, X, p), abs=1e-12)
        assert rtlb(X, Y, p)[0] == pytest.approx(rtlb(Y, X, p)[0], abs=1e-9)


def test_summaries_give_the_bare_network_values():
    """Kept invariants are the ones a bare call builds: every bound is
    bit-identical, on the first use of a summary and on later ones."""
    rng = np.random.default_rng(67)
    X, Y = random_network(rng, 5), random_network(rng, 6, uniform_measure=True)
    SX, SY = NetworkSummary(X), NetworkSummary(Y)
    for p in (1.0, 2.0, 2.0, 3.0):
        for args in ((SX, SY), (X, SY), (SX, Y)):
            assert szlb(*args, p) == szlb(X, Y, p)
            assert rslb(*args, p) == rslb(X, Y, p)
            for direction in ("out", "in"):
                assert rflb(*args, p, direction) == rflb(X, Y, p, direction)
                bare = tlb_cost(X, Y, p, direction).C
                assert tlb_cost(*args, p, direction).C.tobytes() == bare.tobytes()
            summarized, bare = rtlb_max(*args, p), rtlb_max(X, Y, p)
            assert summarized.to_dict() == bare.to_dict()
            assert summarized.coupling_in.plan.tobytes() == bare.coupling_in.plan.tobytes()
    assert SX.measure is X.measure and SY.measure is Y.measure


# ---------------------------------------------------------------------------
# TLB cost matrix


def test_tlb_cost_matches_local_1d_transport():
    """Each entry must equal W_p between the node-local distributions,
    computed here through the merged-atom route."""
    rng = np.random.default_rng(67)
    for _ in range(5):
        X = random_network(rng, int(rng.integers(2, 6)))
        Y = random_network(rng, int(rng.integers(2, 6)))
        for p in (1.0, 2.0):
            for direction in ("out", "in"):
                C = tlb_cost(X, Y, p, direction).C
                for i in range(X.n):
                    for j in range(Y.n):
                        expect = wasserstein_1d(
                            local_distribution(X, i, direction),
                            local_distribution(Y, j, direction),
                            p,
                        )
                        assert C[i, j] == pytest.approx(expect, abs=1e-10)


def test_tlb_cost_p2_matches_direct_sum_on_permuted_copy():
    """A permuted copy matches most local distributions, so the p=2
    kernel resums most rows (two rows of the copy are moved off so that
    some are not); every entry must match a direct sum of squared
    quantile gaps within 64 eps times their second moments."""
    rng = np.random.default_rng(79)
    n = 12
    eps = np.finfo(np.float64).eps
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        weights = scale * rng.integers(-2, 3, size=(n, n)).astype(float)
        measure = rng.random(n) + 0.1
        X = new_network(weights, measure / measure.sum())
        perm = rng.permutation(n)
        copy = weights[np.ix_(perm, perm)]
        copy[:2] += 0.5 * scale
        Y = new_network(copy, X.measure[perm])
        for direction in ("out", "in"):
            C = tlb_cost(X, Y, 2.0, direction).C
            for i in range(n):
                a = local_distribution(X, i, direction)
                for j in range(n):
                    b = local_distribution(Y, j, direction)
                    grid = np.unique(np.concatenate([a.cumulative, b.cumulative]))
                    grid = grid[grid > 0.0]
                    qa = a.atoms[np.searchsorted(a.cumulative, grid, side="left")]
                    qb = b.atoms[np.searchsorted(b.cumulative, grid, side="left")]
                    seg = np.diff(np.concatenate([[0.0], grid]))
                    direct = np.sum(seg * (qa - qb) ** 2)
                    moments = np.sum(seg * (qa * qa + qb * qb))
                    assert abs(C[i, j] ** 2 - direct) <= 64.0 * eps * moments
            if direction == "out":
                # out-rows 2.. of the copy are rows perm[2:] of X, relabelled:
                # the same distributions, so the same breakpoints and a zero cost
                assert np.all(C[perm[2:], np.arange(2, n)] == 0.0)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_rtlb_max_is_zero_on_permuted_copy_with_ties(scale):
    """Tied weights under a non-uniform measure: node-permuted copies have
    the same sizes, eccentricities and local and weight distributions,
    whatever node order their ties sum in, so every bound is exactly 0."""
    rng = np.random.default_rng(83)
    cases = [("ties", 12), ("ties", 21), ("gaussian", 9), ("ties", 1)]
    for kind, n in cases:
        if kind == "ties":
            weights = scale * rng.integers(-2, 3, size=(n, n)).astype(float)
        else:
            weights = scale * rng.standard_normal((n, n))
        measure = rng.random(n) + 0.1
        X = new_network(weights, measure / measure.sum())
        perm = rng.permutation(n)
        Y = new_network(weights[np.ix_(perm, perm)], X.measure[perm])
        for p in (1.0, 2.0, 3.0):
            report = rtlb_max(X, Y, p).to_dict()
            del report["p"]
            assert report == dict.fromkeys(report, 0.0), (kind, n, p)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rflb_rejects_overflowed_eccentricities():
    # squares of 1e200 overflow: the eccentricities are inf, not atoms
    X = new_network([[0.0, 1e200], [3e200, 0.0]], [0.5, 0.5])
    Y = new_network([[0.0, 1.0], [2.0, 0.0]], [0.5, 0.5])
    with pytest.raises(DomainError):
        rflb(X, Y, 2.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bound", [szlb, rslb], ids=["szlb", "rslb"])
def test_size_and_weight_bounds_reject_overflow(bound):
    # size_p overflows for szlb; the p-th powers of the weight gaps for rslb
    X = new_network([[0.0, 1e200], [3e200, 0.0]], [0.5, 0.5])
    Y = new_network([[0.0, 1.0], [2.0, 0.0]], [0.5, 0.5])
    with pytest.raises(DomainError, match="not finite"):
        bound(X, Y, 2.0)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_rtlb_p2_resums_overflowed_expansions():
    """Squared quantiles of 1e155 overflow, so the p = 2 expansion is NaN;
    such entries are resummed, as rtlb at p = 1 needs no expansion."""
    rng = np.random.default_rng(3)
    X, Y = (new_network(1e155 * (1 + 0.1 * rng.random((5, 5))), np.full(5, 0.2)) for _ in "XY")
    assert np.isfinite(rtlb(X, Y, 1.0)[0])
    value, _ = rtlb(X, Y, 2.0)
    # equal masses: entry (i, j) is the mean squared gap of the sorted rows
    gaps = np.sort(X.weights, axis=1)[:, None, :] - np.sort(Y.weights, axis=1)[None, :, :]
    cost = np.sum(0.2 * gaps**2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    assert value == pytest.approx(np.sqrt(np.sum(0.2 * cost[rows, cols])), rel=1e-12, abs=0.0)


def test_tlb_cost_in_equals_out_of_transpose():
    rng = np.random.default_rng(71)
    X = random_network(rng, 4)
    Y = random_network(rng, 6)
    for p in (1.0, 2.0):
        via_in = tlb_cost(X, Y, p, "in").C
        via_transpose = tlb_cost(_transposed(X), _transposed(Y), p, "out").C
        npt.assert_allclose(via_in, via_transpose, atol=1e-12)
        v_in, _ = rtlb(X, Y, p, "in")
        v_t, _ = rtlb(_transposed(X), _transposed(Y), p, "out")
        assert v_in == pytest.approx(v_t, abs=1e-9)


def _symmetrized(X):
    return new_network(X.weights + X.weights.T, X.measure)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(bounds, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(bounds, name, counted)
    return calls


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_rtlb_max_solves_one_direction_on_symmetric_pairs(monkeypatch, p):
    rng = np.random.default_rng(79)
    X = _symmetrized(random_network(rng, 5))
    Y = _symmetrized(random_network(rng, 7))
    value_in, plan_in = rtlb(X, Y, p, "in")
    solves = _count_calls(monkeypatch, "exact_ot")
    report = rtlb_max(X, Y, p)
    assert len(solves) == 1
    assert report.rtlb_in == value_in
    assert report.coupling_in.plan.tobytes() == plan_in.plan.tobytes()
    assert report.rtlb_max == max(rtlb(X, Y, p, "out")[0], value_in)
    # one side asymmetric: both directions are solved
    solves.clear()
    rtlb_max(random_network(rng, 5), Y, p)
    assert len(solves) == 2


def test_rtlb_coupling_has_network_marginals():
    rng = np.random.default_rng(73)
    X = random_network(rng, 4)
    Y = random_network(rng, 5)
    _, coupling = rtlb(X, Y, 2.0)
    assert coupling.shape == (4, 5)
    npt.assert_allclose(coupling.plan.sum(axis=1), X.measure, atol=1e-9)
    npt.assert_allclose(coupling.plan.sum(axis=0), Y.measure, atol=1e-9)


# ---------------------------------------------------------------------------
# validation


def test_bounds_reject_infinite_order(fig2_triple):
    X, Y, _ = fig2_triple
    assert szlb(X, Y, np.inf) == pytest.approx(0.0)  # szlb allows p = inf
    for fn in (rflb, rslb):
        with pytest.raises(DomainError):
            fn(X, Y, np.inf)
    with pytest.raises(DomainError):
        rtlb(X, Y, np.inf)
    with pytest.raises(DomainError):
        tlb_cost(X, Y, np.inf)


def test_bounds_reject_bad_direction(fig2_triple):
    X, Y, _ = fig2_triple
    with pytest.raises(DomainError):
        tlb_cost(X, Y, 2.0, "both")
    with pytest.raises(DomainError):
        rtlb(X, Y, 2.0, "both")


def test_bound_report_rejects_broken_chain():
    with pytest.raises(DomainError):
        BoundReport(
            szlb=1.0,
            rflb_out=0.5,  # below szlb: impossible
            rflb_in=1.0,
            rslb=0.0,
            rtlb_out=2.0,
            rtlb_in=2.0,
            rtlb_max=2.0,
            p=2.0,
        )
    with pytest.raises(DomainError):
        BoundReport(
            szlb=0.0,
            rflb_out=1.0,
            rflb_in=0.0,
            rslb=0.0,
            rtlb_out=0.5,  # below rflb_out: impossible
            rtlb_in=0.0,
            rtlb_max=0.5,
            p=2.0,
        )


@st.composite
def _scaled_pair(draw, max_cells=25):
    """Two networks of up to 5 nodes (and max_cells plan cells) sharing one
    weight scale from 1e-6 to 1e12, where the bounds nearly coincide."""
    exponent = st.just(draw(st.integers(-6, 12)))
    X = draw(scaled_network(5, exponent))
    Y = draw(scaled_network(min(5, max_cells // X.n), exponent))
    return X, Y


def _chain_tol(X, Y):
    return bounds.HIERARCHY_TOL * max(1.0, np.abs(X.weights).max(), np.abs(Y.weights).max())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(pair=_scaled_pair())
def test_rtlb_max_chain_holds_at_every_weight_scale(pair):
    """Rounding in the bounds grows with the weights; an absolute 1e-9 made
    rtlb_max raise on valid pairs at scales 1e8 and above."""
    X, Y = pair
    tol = _chain_tol(X, Y)
    for p in (1.0, 2.0):
        r = rtlb_max(X, Y, p)
        for direction in ("out", "in"):
            rf, rt = getattr(r, "rflb_" + direction), getattr(r, "rtlb_" + direction)
            assert r.szlb <= rf + tol and rf <= rt + tol


@settings(max_examples=100, derandomize=True, deadline=None)
@given(pair=_scaled_pair(max_cells=BRUTEFORCE_CELL_LIMIT), p=st.sampled_from([1.0, 2.0]))
def test_rtlb_max_below_twice_bruteforce(pair, p):
    X, Y = pair
    upper = gw_bruteforce(X, Y, p).value
    assert rtlb_max(X, Y, p).rtlb_max <= 2.0 * upper + _chain_tol(X, Y)


def test_tlb_cost_matrix_rejects_negative():
    with pytest.raises(DomainError):
        TlbCostMatrix(C=np.array([[-0.1]]))


def test_report_to_dict_round(fig2_triple):
    X, Y, _ = fig2_triple
    d = rtlb_max(X, Y, 2.0).to_dict()
    assert set(d) == {
        "szlb",
        "rflb_out",
        "rflb_in",
        "rslb",
        "rtlb_out",
        "rtlb_in",
        "rtlb_max",
        "p",
    }
    assert d["p"] == 2.0
