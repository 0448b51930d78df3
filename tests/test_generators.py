import numpy as np
import numpy.testing as npt
import pytest

from netgw.errors import (
    DomainError,
    EmptyBlockError,
    NonSquareError,
    UnknownPresetError,
    ZeroNetworkError,
)
from netgw.generators import (
    SbmSpec,
    cycle_network,
    experiment_preset,
    normalize_max_abs,
    sample_collection,
    sbm_sample,
)


def _two_block_spec(v=10.0, variance=5.0, sizes=(3, 2)):
    return SbmSpec(
        means=np.array([[0.0, v], [v, 0.0]]),
        variances=np.full((2, 2), variance),
        block_sizes=sizes,
        name="demo",
    )


# ---------------------------------------------------------------------------
# block model


def test_spec_validation():
    with pytest.raises(NonSquareError):
        SbmSpec(means=np.zeros((2, 3)), variances=np.zeros((2, 3)), block_sizes=(1, 1))
    with pytest.raises(NonSquareError):
        SbmSpec(means=np.zeros((2, 2)), variances=np.zeros((3, 3)), block_sizes=(1, 1))
    with pytest.raises(NonSquareError):
        SbmSpec(means=np.zeros((2, 2)), variances=np.zeros((2, 2)), block_sizes=(1, 1, 1))
    with pytest.raises(EmptyBlockError):
        SbmSpec(means=np.zeros((2, 2)), variances=np.zeros((2, 2)), block_sizes=(2, 0))
    for sizes in [(1.5, 1), ("x", 1), 3, [[1, 1]], (np.nan, 1)]:
        with pytest.raises(DomainError):
            SbmSpec(means=np.zeros((2, 2)), variances=np.zeros((2, 2)), block_sizes=sizes)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            SbmSpec(means=np.full((2, 2), bad), variances=np.zeros((2, 2)), block_sizes=(1, 1))
    with pytest.raises(ValueError):
        SbmSpec(
            means=np.zeros((2, 2)),
            variances=np.full((2, 2), -1.0),
            block_sizes=(1, 1),
        )


def test_spec_node_count():
    assert _two_block_spec(sizes=(3, 2)).n_nodes == 5


def test_zero_variance_draws_exact_means():
    spec = _two_block_spec(v=7.0, variance=0.0, sizes=(2, 3))
    X = sbm_sample(spec, seed=1)
    expect = np.zeros((5, 5))
    expect[:2, 2:] = 7.0
    expect[2:, :2] = 7.0
    npt.assert_array_equal(X.weights, expect)
    npt.assert_array_equal(X.measure, np.full(5, 0.2))


def test_sample_statistics_match_spec():
    # one big block, fixed seed: mean and variance of the draws should
    # sit near the spec values
    spec = SbmSpec(
        means=np.array([[3.0]]),
        variances=np.array([[4.0]]),
        block_sizes=(60,),
    )
    X = sbm_sample(spec, seed=7)
    flat = X.weights.ravel()
    assert abs(flat.mean() - 3.0) < 0.05
    assert abs(flat.var() - 4.0) < 0.2


def test_sampling_is_seed_deterministic():
    spec = _two_block_spec()
    a = sbm_sample(spec, seed=42)
    b = sbm_sample(spec, seed=42)
    c = sbm_sample(spec, seed=43)
    npt.assert_array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


# ---------------------------------------------------------------------------
# cycles


def test_cycle_network_values():
    X = cycle_network([0.0, 1.0, 2.0])
    expect = np.array(
        [[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]]
    )
    npt.assert_array_equal(X.weights, expect)
    npt.assert_array_equal(X.measure, np.full(3, 1 / 3))


def test_cycle_network_is_weight_preserved_under_rotation():
    X = cycle_network([0.0, 3.0, 1.0, 4.0])
    rolled = np.roll(np.roll(X.weights, 1, axis=0), 1, axis=1)
    npt.assert_array_equal(X.weights, rolled)


def test_cycle_network_validation():
    with pytest.raises(ValueError):
        cycle_network([])
    with pytest.raises(ValueError):
        cycle_network([[0.0, 1.0]])
    with pytest.raises(ValueError):
        cycle_network([0.0, np.inf])


# ---------------------------------------------------------------------------
# presets


def test_preset_table1_shapes():
    specs = experiment_preset("table1")
    assert [s.name for s in specs] == ["c1", "c2", "c3", "c4", "c5"]
    assert [s.n_nodes for s in specs] == [50, 50, 100, 50, 50]
    # c1 and c2 differ only in mean step
    npt.assert_array_equal(specs[1].means, 2.0 * specs[0].means)
    # c3 is c1 with doubled blocks
    npt.assert_array_equal(specs[2].means, specs[0].means)
    assert specs[2].block_sizes == (20,) * 5
    # c5 is the centered variant: same gaps, shifted range
    assert specs[4].means.min() == -100.0
    assert specs[4].means.max() == 100.0
    for s in specs:
        npt.assert_array_equal(s.variances, np.full(s.means.shape, 5.0))


def test_preset_table1_cycle_structure():
    means = experiment_preset("table1")[0].means
    for i in range(5):
        for j in range(5):
            assert means[i, j] == 25.0 * ((j - i) % 5)


def test_preset_table3_cross_weights():
    specs = experiment_preset("table3")
    assert len(specs) == 5
    for k, spec in enumerate(specs):
        npt.assert_array_equal(
            spec.means, [[0.0, 5.0 * k], [5.0 * k, 0.0]]
        )
        assert spec.block_sizes == (10, 10)


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        experiment_preset("table9")


# ---------------------------------------------------------------------------
# collections


def test_sample_collection_labels_and_classes():
    nets, classes, labels = sample_collection("table3", per_class=2, base_seed=3)
    assert len(nets) == 10
    assert classes == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert labels[:4] == ["c1-00", "c1-01", "c2-00", "c2-01"]
    assert all(net.n == 20 for net in nets)


def test_sample_collection_seeds_are_decorrelated():
    nets, _, _ = sample_collection("table3", per_class=2, base_seed=0)
    again, _, _ = sample_collection("table3", per_class=2, base_seed=0)
    other, _, _ = sample_collection("table3", per_class=2, base_seed=1)
    npt.assert_array_equal(nets[0].weights, again[0].weights)
    assert not np.array_equal(nets[0].weights, nets[1].weights)
    assert not np.array_equal(nets[0].weights, other[0].weights)


def test_sample_collection_accepts_spec_list():
    nets, classes, labels = sample_collection([_two_block_spec()], per_class=3)
    assert len(nets) == 3
    assert classes == [0, 0, 0]
    assert labels == ["demo-00", "demo-01", "demo-02"]


def test_sample_collection_rejects_bad_count():
    # a float or a string count is a DomainError, as a bad seed is
    for per_class in (0, 2.5, "3"):
        with pytest.raises(DomainError):
            sample_collection("table3", per_class=per_class)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_sample_collection_rejects_bad_seed(seed):
    with pytest.raises(DomainError):
        sample_collection("table3", per_class=1, base_seed=seed)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_max_abs():
    X = cycle_network([0.0, -8.0, 4.0])
    Y = normalize_max_abs(X)
    assert float(np.abs(Y.weights).max()) == 1.0
    npt.assert_array_equal(Y.weights, X.weights / 8.0)
    npt.assert_array_equal(Y.measure, X.measure)


def test_normalize_rejects_zero_network():
    X = cycle_network([0.0, 0.0])
    with pytest.raises(ZeroNetworkError):
        normalize_max_abs(X)
