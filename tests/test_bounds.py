import numpy as np
import numpy.testing as npt
import pytest

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
from netgw.core import distortion, new_network, one_point_network
from netgw.errors import DomainError
from netgw.invariants import local_distribution
from netgw.ot import wasserstein_1d

from conftest import random_coupling, random_network


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
    assert SX.n == X.n and SY.measure is Y.measure


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


def test_tlb_cost_matrix_rejects_negative():
    with pytest.raises(DomainError):
        TlbCostMatrix(C=np.array([[-0.1]]), direction="out", p=2.0)


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
