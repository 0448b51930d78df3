import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgw import _kernels
from netgw.bounds import rflb, rslb, rtlb, rtlb_max, szlb, tlb_cost
from netgw.core import (
    Coupling,
    DiscreteDistribution,
    diagonal_coupling,
    distortion,
    dnp_to_point,
    load_network,
    network_from_json,
    network_to_json,
    new_network,
    one_point_network,
    product_coupling,
    save_network,
)
from netgw.errors import (
    DomainError,
    EncodeError,
    IoError,
    MarginalMismatchError,
    MeasureNotNormalizedError,
    NonPositiveMassError,
    NonSquareWeightsError,
    ParseError,
)
from netgw.gw import entropic_gw, gw_bruteforce
from netgw.invariants import (
    eccentricity,
    size_curve,
    size_p,
    sub_size,
    weight_pushforward,
)
from netgw.ot import SinkhornConfig, exact_ot, wasserstein_1d

from conftest import random_coupling, random_network, scaled_network


# ---------------------------------------------------------------------------
# network construction


def test_new_network_rejects_nonsquare():
    with pytest.raises(NonSquareWeightsError):
        new_network([[1.0, 2.0]], [1.0])


def test_new_network_rejects_nonfinite_weights():
    with pytest.raises(NonSquareWeightsError):
        new_network([[np.nan, 0.0], [0.0, 0.0]], [0.5, 0.5])


def test_new_network_rejects_measure_length_mismatch():
    with pytest.raises(NonSquareWeightsError):
        new_network(np.zeros((2, 2)), [1.0])
    with pytest.raises(NonSquareWeightsError, match=r"shape \(1, 2\)"):
        new_network(np.zeros((2, 2)), [[0.5, 0.5]])


def test_new_network_rejects_nonpositive_measure():
    with pytest.raises(NonPositiveMassError):
        new_network(np.zeros((2, 2)), [1.0, 0.0])
    with pytest.raises(NonPositiveMassError):
        new_network(np.zeros((2, 2)), [1.5, -0.5])


def test_measure_renormalized_within_tolerance():
    drift = 5e-10
    X = new_network(np.zeros((2, 2)), [0.5, 0.5 + drift])
    assert X.measure.sum() == 1.0


def test_measure_rejected_beyond_tolerance():
    with pytest.raises(MeasureNotNormalizedError):
        new_network(np.zeros((2, 2)), [0.5, 0.51])


def test_network_arrays_frozen():
    X = new_network([[1.0]], [1.0])
    with pytest.raises(ValueError):
        X.weights[0, 0] = 2.0
    with pytest.raises(ValueError):
        X.measure[0] = 2.0


def test_labels_coerced_and_checked():
    X = new_network(np.zeros((2, 2)), [0.5, 0.5], labels=[0, 1])
    assert X.labels == ("0", "1")
    with pytest.raises(NonSquareWeightsError):
        new_network(np.zeros((2, 2)), [0.5, 0.5], labels=["only-one"])


def test_one_point_network():
    X = one_point_network(3.5, label="pt")
    assert X.n == 1
    assert X.weights[0, 0] == 3.5
    assert X.measure[0] == 1.0
    assert X.labels == ("pt",)


# ---------------------------------------------------------------------------
# couplings


def test_product_coupling_values():
    c = product_coupling([1.0], [1 / 3, 1 / 3, 1 / 3])
    npt.assert_allclose(c.plan, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=0)
    c = product_coupling([0.25, 0.75], [1 / 3, 2 / 3])
    npt.assert_allclose(
        c.plan, [[1 / 12, 1 / 6], [1 / 4, 1 / 2]], rtol=0, atol=1e-16
    )


def test_diagonal_coupling_values():
    mu = np.array([0.2, 0.3, 0.5])
    c = diagonal_coupling(mu)
    npt.assert_array_equal(c.plan, np.diag(mu))


def test_coupling_rejects_bad_marginals():
    with pytest.raises(MarginalMismatchError):
        Coupling(
            plan=[[0.5, 0.0], [0.0, 0.5]],
            row_marginal=[0.4, 0.6],
            col_marginal=[0.5, 0.5],
        )


def test_coupling_rejects_negative_entries():
    with pytest.raises(MarginalMismatchError):
        Coupling(
            plan=[[0.6, -0.1], [0.0, 0.5]],
            row_marginal=[0.5, 0.5],
            col_marginal=[0.6, 0.4],
        )


def test_coupling_rejects_shape_mismatch():
    with pytest.raises(MarginalMismatchError):
        Coupling(
            plan=np.full((2, 2), 0.25),
            row_marginal=[0.5, 0.5],
            col_marginal=[1 / 3, 1 / 3, 1 / 3],
        )


# ---------------------------------------------------------------------------
# distortion


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_diagonal_coupling_has_zero_distortion(p):
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 8):
        X = random_network(rng, n)
        assert distortion(X, X, diagonal_coupling(X.measure), p) == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_one_point_distortion_is_weight_gap(p):
    X = one_point_network(2.0)
    Y = one_point_network(-1.5)
    c = product_coupling(X.measure, Y.measure)
    assert distortion(X, Y, c, p) == pytest.approx(3.5, abs=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_block_coupling_zero_distortion(fig2_triple, p):
    """Mapping the weight-2 block of X onto the weight-2 node of Y and
    the weight-3 node of X onto the weight-3 block preserves weights."""
    X, Y, _ = fig2_triple
    plan = np.array(
        [
            [0.25, 0.0, 0.0],
            [0.25, 0.0, 0.0],
            [0.0, 0.25, 0.25],
        ]
    )
    c = Coupling(plan=plan, row_marginal=X.measure, col_marginal=Y.measure)
    assert distortion(X, Y, c, p) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, 2.7])
def test_distortion_matches_quadruple_sum(p):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = rng.integers(2, 7, size=2)
        X = random_network(rng, int(n))
        Y = random_network(rng, int(m))
        c = random_coupling(rng, X.measure, Y.measure)
        fast = distortion(X, Y, c, p)
        slow = _kernels.dis_pow(X.weights, Y.weights, c.plan, p) ** (1.0 / p)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_distortion_four_index_loop_oracle():
    """Spell the 4-index sum out in loops for one small instance."""
    rng = np.random.default_rng(3)
    X = random_network(rng, 3)
    Y = random_network(rng, 4)
    c = random_coupling(rng, X.measure, Y.measure)
    p = 2.0
    acc = 0.0
    for i in range(3):
        for j in range(4):
            for k in range(3):
                for l in range(4):
                    acc += (
                        abs(X.weights[i, k] - Y.weights[j, l]) ** p
                        * c.plan[i, j]
                        * c.plan[k, l]
                    )
    assert distortion(X, Y, c, p) == pytest.approx(acc ** (1 / p), abs=1e-12)


def _loop_distortion(wx, wy, plan, p):
    terms = [
        (abs(wx[i, k] - wy[j, l]), plan[i, j] * plan[k, l])
        for i in range(wx.shape[0])
        for j in range(wy.shape[0])
        for k in range(wx.shape[0])
        for l in range(wy.shape[0])
    ]
    if np.isinf(p):
        return max(d for d, mass in terms if mass > 0.0)
    return sum(d**p * mass for d, mass in terms) ** (1.0 / p)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    X=scaled_network(),
    Y=scaled_network(),
    kind=st.sampled_from(["product", "interior", "vertex"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_distortion_property_against_loops(X, Y, kind, seed):
    """Every order goes through one route; the p=2 expansion cancels near
    zero, hence the absolute term scaled by the sizes."""
    rng = np.random.default_rng(seed)
    if kind == "product":
        c = product_coupling(X.measure, Y.measure)
    elif kind == "interior":
        c = random_coupling(rng, X.measure, Y.measure)
    else:
        c, _ = exact_ot(rng.random((X.n, Y.n)), X.measure, Y.measure)
    tol = 1e-7 * (size_p(X, 2.0) + size_p(Y, 2.0))
    for p in (1.0, 2.0, 2.5, np.inf):
        want = _loop_distortion(X.weights, Y.weights, c.plan, p)
        assert distortion(X, Y, c, p) == pytest.approx(want, rel=1e-9, abs=tol)


def test_distortion_sup_ignores_zero_mass_pairs():
    # node 2 of X carries an extreme weight but the plan never uses it
    # together with mass, so p=inf must not see it
    X = new_network(
        [[0.0, 0.0], [0.0, 1000.0]], [1.0 - 1e-3, 1e-3]
    )
    Y = new_network([[0.0]], [1.0])
    plan = np.array([[1.0 - 1e-3], [1e-3]])
    c = Coupling(plan=plan, row_marginal=X.measure, col_marginal=Y.measure)
    assert distortion(X, Y, c, np.inf) == 1000.0
    # now kill the mass on node 2 entirely: not representable (measure
    # must have full support), so check the kernel path via a plan with
    # a zero entry instead
    Z = new_network(np.zeros((2, 2)), [0.5, 0.5])
    plan = np.array([[0.5, 0.0], [0.0, 0.5]])
    c = Coupling(plan=plan, row_marginal=Z.measure, col_marginal=Z.measure)
    assert distortion(Z, Z, c, np.inf) == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_distortion_with_overflowing_squares_is_never_nan():
    # the squared weights overflow: the p = 2 expansion is inf - inf, and a
    # dense quadruple sum would meet inf * 0 at the zero cells of the plan
    X = new_network([[0.0, 1e200], [-1e200, 0.0]], [0.5, 0.5])
    identity = diagonal_coupling(X.measure)
    product = product_coupling(X.measure, X.measure)
    for p in (1.0, 2.0, 3.0, np.inf):
        assert distortion(X, X, identity, p) == 0.0
        value = distortion(X, X, product, p)
        assert not math.isnan(value)
        assert math.isinf(value) == (p in (2.0, 3.0))


def test_distortion_rejects_p_below_one(fig2_triple):
    X, Y, _ = fig2_triple
    c = product_coupling(X.measure, Y.measure)
    with pytest.raises(ValueError):
        distortion(X, Y, c, 0.5)


_OX = new_network([[0.0, 1.0], [2.0, 0.5]], [0.4, 0.6])
_OY = new_network([[1.0, 3.0], [0.0, 2.0]], [0.5, 0.5])
_OPI = product_coupling(_OX.measure, _OY.measure)
# every public function that takes an order: (call at order p, finite only)
ORDER_CALLS = {
    "distortion": (lambda p: distortion(_OX, _OY, _OPI, p), False),
    "dnp_to_point": (lambda p: dnp_to_point(_OX, 1.0, p), False),
    "size_p": (lambda p: size_p(_OX, p), False),
    "eccentricity": (lambda p: eccentricity(_OX, p), False),
    "sub_size": (lambda p: sub_size(_OX, p, 1.0), True),
    "size_curve": (lambda p: size_curve(_OX, p, samples=4), True),
    "szlb": (lambda p: szlb(_OX, _OY, p), False),
    "rflb": (lambda p: rflb(_OX, _OY, p), True),
    "rslb": (lambda p: rslb(_OX, _OY, p), True),
    "tlb_cost": (lambda p: tlb_cost(_OX, _OY, p), True),
    "rtlb": (lambda p: rtlb(_OX, _OY, p), True),
    "rtlb_max": (lambda p: rtlb_max(_OX, _OY, p), True),
    "wasserstein_1d": (
        lambda p: wasserstein_1d(weight_pushforward(_OX), weight_pushforward(_OY), p),
        True,
    ),
    "gw_bruteforce": (lambda p: gw_bruteforce(_OX, _OY, p), False),
}
BAD_ORDER_CASES = [
    (name, p) for name in ORDER_CALLS for p in (0.5, 0.0, -1.0, math.nan)
] + [(name, math.inf) for name, (_, finite) in ORDER_CALLS.items() if finite]


@pytest.mark.parametrize("name, p", BAD_ORDER_CASES)
def test_every_order_argument_is_checked(name, p):
    call, _ = ORDER_CALLS[name]
    with pytest.raises(DomainError):
        call(p)


@pytest.mark.parametrize(
    "name", [name for name, (_, finite) in ORDER_CALLS.items() if not finite]
)
def test_infinite_order_accepted_where_defined(name):
    call, _ = ORDER_CALLS[name]
    call(math.inf)


def test_distortion_rejects_foreign_coupling(fig2_triple):
    X, Y, Z = fig2_triple
    c = product_coupling(X.measure, Y.measure)
    with pytest.raises(MarginalMismatchError):
        distortion(X, Z, c, 2.0)


@pytest.mark.parametrize("wrong_side", ["row", "col"])
def test_coupling_of_other_measures_is_rejected(wrong_side):
    # a valid coupling of the right shape whose marginals are not the
    # networks' measures: it couples two other measure spaces
    rng = np.random.default_rng(17)
    X = random_network(rng, 3)
    Y = random_network(rng, 4)
    mu = np.full(3, 1.0 / 3.0) if wrong_side == "row" else X.measure
    nu = np.full(4, 0.25) if wrong_side == "col" else Y.measure
    c = product_coupling(mu, nu)
    with pytest.raises(MarginalMismatchError):
        distortion(X, Y, c, 2.0)
    with pytest.raises(MarginalMismatchError):
        entropic_gw(X, Y, SinkhornConfig(lam=10.0), init=c)


# ---------------------------------------------------------------------------
# distance to a one-node network


def test_dnp_to_point_one_point():
    X = one_point_network(4.0)
    for p in (1.0, 2.0, np.inf):
        assert dnp_to_point(X, 1.0, p) == pytest.approx(1.5, abs=1e-15)


def test_dnp_to_point_constant_network():
    X = new_network(np.full((3, 3), 2.5), [0.2, 0.5, 0.3])
    for p in (1.0, 3.0, np.inf):
        assert dnp_to_point(X, -0.5, p) == pytest.approx(1.5, abs=1e-15)


def test_dnp_to_point_direct_sum(fig2_triple):
    X, _, _ = fig2_triple
    acc = sum(
        abs(X.weights[i, k]) * X.measure[i] * X.measure[k]
        for i in range(3)
        for k in range(3)
    )
    got = dnp_to_point(X, 0.0, 1.0)
    assert got == pytest.approx(0.5 * acc, abs=1e-15)
    assert got == pytest.approx(0.875, abs=1e-15)


def test_dnp_to_point_sup(fig2_triple):
    X, _, _ = fig2_triple
    assert dnp_to_point(X, 0.0, np.inf) == 1.5  # max weight 3, halved


def test_dnp_matches_distortion_route():
    """d to N_1(a) via the unique coupling equals the closed form."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = random_network(rng, int(rng.integers(1, 6)))
        a = float(rng.uniform(-5, 5))
        Y = one_point_network(a)
        c = product_coupling(X.measure, Y.measure)
        for p in (1.0, 2.0, np.inf):
            assert dnp_to_point(X, a, p) == pytest.approx(
                0.5 * distortion(X, Y, c, p), abs=1e-12
            )


# ---------------------------------------------------------------------------
# discrete distributions


def test_from_points_merges_duplicates():
    d = DiscreteDistribution.from_points([2.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    npt.assert_array_equal(d.atoms, [1.0, 2.0])
    npt.assert_array_equal(d.masses, [0.5, 0.5])
    # the tied masses at 1.0 sum to different doubles in different orders;
    # every input order must still give the same distribution, bit for bit
    locations = np.array([1.0, 1.0, 1.0, 3.0, 1.0, 3.0])
    masses = np.array([0.1, 0.2, 0.3, 0.15, 0.05, 0.2])
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    first = DiscreteDistribution.from_points(locations, masses)
    rng = np.random.default_rng(7)
    for _ in range(20):
        perm = rng.permutation(locations.size)
        d = DiscreteDistribution.from_points(locations[perm], masses[perm])
        for name in ("atoms", "masses", "cumulative"):
            assert getattr(d, name).tobytes() == getattr(first, name).tobytes()
    with pytest.raises(ValueError):
        first.cumulative[0] = 0.5


@pytest.mark.parametrize(
    "atoms, masses",
    [([0.0, np.nan], [0.5, 0.5]), ([0.0, 1.0], [np.nan, np.nan]),
     ([0.0, np.inf], [0.5, 0.5]), ([-np.inf, 0.0], [0.5, 0.5])],
)
def test_distribution_rejects_nonfinite(atoms, masses):
    with pytest.raises(DomainError):
        DiscreteDistribution(atoms, masses)
    with pytest.raises(DomainError):
        DiscreteDistribution.from_points(atoms, masses)


def test_distribution_rejects_length_mismatch():
    with pytest.raises(ParseError):
        DiscreteDistribution([1.0, 2.0], [1.0])


def test_distribution_rejects_unsorted_atoms():
    with pytest.raises(ParseError):
        DiscreteDistribution([2.0, 1.0], [0.5, 0.5])
    with pytest.raises(ParseError):
        DiscreteDistribution([1.0, 1.0], [0.5, 0.5])


def test_distribution_rejects_bad_masses():
    with pytest.raises(NonPositiveMassError):
        DiscreteDistribution([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(MeasureNotNormalizedError):
        DiscreteDistribution([1.0, 2.0], [0.5, 0.6])


def test_cumulative_ends_at_exactly_one():
    # ten masses of 0.1 accumulate rounding error; the CDF still has to
    # end at 1.0 exactly
    d = DiscreteDistribution.from_points(np.arange(10.0), np.full(10, 0.1))
    cw = d.cumulative
    assert cw[-1] == 1.0
    assert np.all(np.diff(cw) >= 0.0)
    assert np.all((cw >= 0.0) & (cw <= 1.0))


# ---------------------------------------------------------------------------
# JSON round-trip


def test_network_json_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    X = random_network(rng, 5)
    weights = X.weights * np.logspace(-12, 12, 5)[:, None]
    # subnormals, the smallest normal, +-max, exponent and decimal spellings
    weights[1] = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308]
    weights[2, :4] = [1e16, 1e-5, 0.1, -0.0]
    weights[0, 0] = -0.0
    X = new_network(weights, X.measure, labels=["café", 'a"b\\c', "\n", "", "e"])
    path = tmp_path / "net.json"
    save_network(X, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    # the spelling any JSON reader sees; stdlib json is what perfbench reads with
    doc = json.loads(text)
    assert np.array(doc["weights"]).tobytes() == X.weights.tobytes()
    assert np.array(doc["measure"]).tobytes() == X.measure.tobytes()
    assert tuple(doc["labels"]) == X.labels
    Y = load_network(path)
    assert X.weights.tobytes() == Y.weights.tobytes()
    assert X.measure.tobytes() == Y.measure.tobytes()
    assert X.labels == Y.labels
    assert network_to_json(X) == text[:-1]


def test_unencodable_label_is_a_package_error(tmp_path):
    # stdlib json reads an escaped lone surrogate; UTF-8 cannot write it
    X = network_from_json('{"weights": [[0]], "labels": ["\\ud800"]}')
    assert X.labels == ("\ud800",)
    with pytest.raises(EncodeError, match=r"label '\\ud800'"):
        network_to_json(X)
    path = tmp_path / "net.json"
    with pytest.raises(EncodeError, match=r"label '\\ud800'"):
        save_network(X, path)
    assert not path.exists()


def test_save_network_to_unwritable_path(tmp_path):
    with pytest.raises(IoError):
        save_network(one_point_network(1.0), tmp_path / "missing" / "net.json")


def test_network_json_defaults_to_uniform_measure():
    X = network_from_json('{"weights": [[1.0, 2.0], [3.0, 4.0]]}')
    npt.assert_array_equal(X.measure, [0.5, 0.5])
    assert X.labels is None


def test_network_json_errors():
    with pytest.raises(ParseError):
        network_from_json("not json {")
    with pytest.raises(ParseError):
        network_from_json('["weights"]')
    with pytest.raises(ParseError):
        network_from_json('{"measure": [1.0]}')
    with pytest.raises(ParseError):
        network_from_json('{"weights": [[0, "x"], [1, 0]]}')
    with pytest.raises(ParseError):
        network_from_json('{"weights": [[0, 1], [1]]}')
    with pytest.raises(ParseError):
        network_from_json('{"weights": [[0, 1], [1, 0]], "measure": [0.5, [0.5]]}')
    for text in (
        '{"weights": []}',
        '{"weights": [[]]}',
        '{"weights": 5}',
        '{"weights": [[1]], "labels": 7}',
        '{"weights": [[1]], "labels": "a"}',
        '{"weights": [[1]], "measure": 5}',
        '{"weights": [[0, 1], [1, 0]], "measure": [[0.5, 0.5]]}',
    ):
        with pytest.raises(ParseError):
            network_from_json(text)


def test_network_to_json_is_loadable(fig2_triple):
    X, _, _ = fig2_triple
    Y = network_from_json(network_to_json(X))
    npt.assert_array_equal(X.weights, Y.weights)
    npt.assert_array_equal(X.measure, Y.measure)
