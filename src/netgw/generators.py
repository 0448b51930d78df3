"""Synthetic network generators: Gaussian block models and cycles."""

from dataclasses import dataclass

import numpy as np

from .core import MeasureNetwork, new_network
from .errors import (
    DomainError,
    EmptyBlockError,
    NonSquareError,
    UnknownPresetError,
    ZeroNetworkError,
)


def _float_array(values, name):
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise DomainError(f"{name} must be numeric: {err}") from None


def _int_array(values, name):
    values = _float_array(values, name)
    whole = np.isfinite(values) & (values == np.trunc(values))
    if values.ndim != 1 or not np.all(whole):
        raise DomainError(f"{name} must be a list of integers, got {values.tolist()!r}")
    return values.astype(np.int64)


@dataclass(frozen=True)
class SbmSpec:
    """Block model: entry (i, j) ~ Normal(means[b(i), b(j)], variances[b(i), b(j)]).

    variances are variances, not standard deviations.  scale zero draws
    collapse to the exact means.
    """

    means: np.ndarray
    variances: np.ndarray
    block_sizes: tuple
    name: str = ""

    def __post_init__(self):
        means = _float_array(self.means, "means")
        variances = _float_array(self.variances, "variances")
        if means.ndim != 2 or means.shape[0] != means.shape[1]:
            raise NonSquareError(f"means must be square, got shape {means.shape}")
        if variances.shape != means.shape:
            raise NonSquareError(
                f"variances shape {variances.shape} != means shape {means.shape}"
            )
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(variances)):
            raise DomainError("means and variances must be finite")
        if np.any(variances < 0.0):
            raise DomainError("variances must be >= 0")
        sizes = tuple(int(s) for s in _int_array(self.block_sizes, "block_sizes"))
        if len(sizes) != means.shape[0]:
            raise NonSquareError(
                f"{len(sizes)} block sizes for {means.shape[0]} blocks"
            )
        if any(s <= 0 for s in sizes):
            raise EmptyBlockError(f"every block needs at least one node, got {sizes}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def n_nodes(self):
        return sum(self.block_sizes)


def sbm_sample(spec: SbmSpec, seed=None) -> MeasureNetwork:
    """One draw from the block model, uniform node measure."""
    rng = np.random.default_rng(seed)
    reps = np.asarray(spec.block_sizes)
    mean = np.repeat(np.repeat(spec.means, reps, axis=0), reps, axis=1)
    std = np.sqrt(np.repeat(np.repeat(spec.variances, reps, axis=0), reps, axis=1))
    weights = rng.normal(mean, std)
    n = spec.n_nodes
    return new_network(weights, np.full(n, 1.0 / n))


def cycle_network(values) -> MeasureNetwork:
    """Circulant network: weight (i, j) = values[(j - i) mod N]."""
    values = _float_array(values, "cycle values")
    if values.ndim != 1 or values.size == 0:
        raise DomainError("values must be a nonempty 1D sequence")
    if not np.all(np.isfinite(values)):
        raise DomainError("values must be finite")
    n = values.size
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return new_network(values[idx], np.full(n, 1.0 / n))


def _five_block_spec(step, block_size, variance, name):
    k = 5
    means = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            means[i, j] = step * ((j - i) % k)
    return SbmSpec(
        means=means,
        variances=np.full((k, k), variance),
        block_sizes=(block_size,) * k,
        name=name,
    )


def _preset_table1():
    # five classes separated by mean step, block size, node count or sign
    specs = [
        _five_block_spec(25.0, 10, 5.0, "c1"),
        _five_block_spec(50.0, 10, 5.0, "c2"),
        _five_block_spec(25.0, 20, 5.0, "c3"),
        SbmSpec(
            means=np.array([[0.0, 100.0], [100.0, 0.0]]),
            variances=np.full((2, 2), 5.0),
            block_sizes=(25, 25),
            name="c4",
        ),
        SbmSpec(
            means=np.array(
                [
                    [(((j - i) % 5) - 2) * 50.0 for j in range(5)]
                    for i in range(5)
                ]
            ),
            variances=np.full((5, 5), 5.0),
            block_sizes=(10,) * 5,
            name="c5",
        ),
    ]
    return specs


def _preset_table3():
    # two-block cycles that differ only in the cross weight
    specs = []
    for k, v in enumerate((0.0, 5.0, 10.0, 15.0, 20.0)):
        specs.append(
            SbmSpec(
                means=np.array([[0.0, v], [v, 0.0]]),
                variances=np.full((2, 2), 5.0),
                block_sizes=(10, 10),
                name=f"c{k + 1}",
            )
        )
    return specs


_PRESETS = {"table1": _preset_table1, "table3": _preset_table3}


def experiment_preset(name: str):
    """Named collections of block-model specs used by the experiments."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return builder()


def sample_collection(specs, per_class: int, base_seed: int = 0):
    """Draw per_class networks from each spec with decorrelated seeds.

    Returns (networks, class indices, labels); labels look like 'c1-03'.
    """
    if isinstance(specs, str):
        specs = experiment_preset(specs)
    if not (isinstance(per_class, (int, np.integer)) and per_class >= 1):
        raise DomainError(f"per_class must be an integer >= 1, got {per_class!r}")
    if not (isinstance(base_seed, (int, np.integer)) and base_seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {base_seed!r}")
    networks, classes, labels = [], [], []
    for ci, spec in enumerate(specs):
        for k in range(per_class):
            seed = np.random.SeedSequence(base_seed, spawn_key=(ci, k))
            networks.append(sbm_sample(spec, seed))
            classes.append(ci)
            name = spec.name or f"c{ci + 1}"
            labels.append(f"{name}-{k:02d}")
    return networks, classes, labels


def normalize_max_abs(X: MeasureNetwork) -> MeasureNetwork:
    """Divide weights by max |weight|; zero networks have no scale."""
    peak = float(np.max(np.abs(X.weights)))
    if peak == 0.0:
        raise ZeroNetworkError("all weights are zero; nothing to normalize")
    return new_network(X.weights / peak, X.measure, labels=X.labels)
