"""Quantitative invariants of measure networks.

Everything here is stable under weak isomorphism: sizes, eccentricity
vectors and their pushforwards, sublevel/superlevel size functions, the
sphere closed forms, and the interleaving distance between size curves.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import (
    DiscreteDistribution,
    MeasureNetwork,
    _check_order,
    _freeze,
    new_network,
)
from .errors import (
    DomainError,
    IndexOutOfRangeError,
    KindMismatchError,
    UnsupportedDimensionError,
)


def _check_direction(direction):
    if direction not in ("out", "in"):
        raise DomainError(f"direction must be 'out' or 'in', got {direction!r}")
    return direction


def _row_pow_sums(w, measure, p):
    # sorted sums of |w_ik|^p mu_k: bit for bit the same on a permuted copy
    return np.sort(np.abs(w) ** p * measure, axis=1).sum(axis=1)


def size_p(X: MeasureNetwork, p) -> float:
    """L^p norm of the weight matrix under measure (x) measure."""
    p = _check_order(p)
    if np.isinf(p):
        return float(np.abs(X.weights).max())
    rows = X.measure * _row_pow_sums(X.weights, X.measure, p)
    return float(np.sort(rows).sum()) ** (1.0 / p)


@dataclass(frozen=True)
class EccentricityVector:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _freeze(np.asarray(self.values, dtype=np.float64))
        )
        if np.any(self.values < 0.0):
            raise DomainError("eccentricities are norms and must be >= 0")


def eccentricity(X: MeasureNetwork, p, direction="out") -> EccentricityVector:
    """Per-node L^p norm of outgoing rows (or incoming columns)."""
    p = _check_order(p)
    _check_direction(direction)
    w = X.weights if direction == "out" else X.weights.T
    if np.isinf(p):
        values = np.abs(w).max(axis=1)
    else:
        values = _row_pow_sums(w, X.measure, p) ** (1.0 / p)
    return EccentricityVector(values=values)


def local_distribution(X: MeasureNetwork, i, direction="out") -> DiscreteDistribution:
    """Distribution of weights out of (or into) node i, under the measure."""
    _check_direction(direction)
    i = int(i)
    if not (0 <= i < X.n):
        raise IndexOutOfRangeError(f"node {i} outside 0..{X.n - 1}")
    row = X.weights[i] if direction == "out" else X.weights[:, i]
    return DiscreteDistribution.from_points(row, X.measure)


def ecc_pushforward(X: MeasureNetwork, p, direction="out") -> DiscreteDistribution:
    """Pushforward of the measure under the eccentricity function."""
    ecc = eccentricity(X, p, direction)
    return DiscreteDistribution.from_points(ecc.values, X.measure)


def weight_pushforward(X: MeasureNetwork) -> DiscreteDistribution:
    """Pushforward of measure (x) measure under the weight function."""
    outer = np.outer(X.measure, X.measure)
    return DiscreteDistribution.from_points(
        X.weights.ravel(), outer.ravel()
    )


def _level_sizes(X: MeasureNetwork, p, thresholds, kind):
    """Sublevel (or superlevel: -w against -t) sizes at every threshold.

    Each term |w|^p mu_i mu_k joins the bin of the first sorted threshold
    that admits it.  The bins are summed per block of rows, then pairwise
    across blocks, and their running sum is the p-th power of each size.
    """
    p = _check_order(p, finite=True)
    t = np.asarray(thresholds, dtype=np.float64)
    if np.any(np.isnan(t)):
        raise DomainError("threshold t must not be NaN")
    w, t = (X.weights, t) if kind == "sublevel" else (-X.weights, -t)
    order = np.argsort(t)
    ts = t[order]
    parts = []
    for start in range(0, X.n, 64):
        rows = slice(start, start + 64)  # a block of rows shares one set of bins
        terms = np.abs(w[rows]) ** p * np.outer(X.measure[rows], X.measure)
        bins = np.searchsorted(ts, w[rows]).ravel()
        parts.append(np.bincount(bins, terms.ravel(), t.size + 1)[:-1])
    while len(parts) > 1:
        parts = [sum(parts[i:i + 2]) for i in range(0, len(parts), 2)]
    sizes = np.empty_like(t)
    sizes[order] = np.cumsum(parts[0]) ** (1.0 / p)
    full = t >= w.max()  # admits every weight: size_p itself, bit for bit
    if np.any(full):
        sizes[full] = size_p(X, p)
    return sizes


def sub_size(X: MeasureNetwork, p, t) -> float:
    """L^p mass of weights <= t (non-strict), finite p; size_curve's pass at one t."""
    return float(_level_sizes(X, p, [t], "sublevel")[0])


def sup_size(X: MeasureNetwork, p, t) -> float:
    """L^p mass of weights >= t (non-strict), finite p; size_curve's pass at one t."""
    return float(_level_sizes(X, p, [t], "superlevel")[0])


# ---------------------------------------------------------------------------
# spheres

def sphere_surface_area(n) -> float:
    """Surface area S_n of the unit n-sphere.

    S_1 = 2*pi, S_2 = 4*pi, then S_n = 2*pi*S_{n-2}/(n-1).
    """
    n = int(n)
    if n < 1:
        raise UnsupportedDimensionError(f"sphere dimension must be >= 1, got {n}")
    if n == 1:
        return 2.0 * math.pi
    if n == 2:
        return 4.0 * math.pi
    return 2.0 * math.pi * sphere_surface_area(n - 2) / (n - 1)


def sphere_subsize_closed_form(n, p, t) -> float:
    """Sublevel size of the geodesic n-sphere at threshold t.

    The p-th power is (S_{n-1}/S_n) * integral_0^t phi^p sin^{n-1}(phi)
    dphi; for n = 1 that is t^(p+1) / ((p+1) pi), taken in logs.  For
    n >= 2, phi = t u gives t^(p+n) * integral_0^1 u^p (sin(t u)/t)^{n-1}
    du, and t^(p+n) leaves the root as t^((p+n)/p), so no power of t can
    overflow or underflow.  The integral is split at u = 1/2: on [0, 1/2] as it
    stands, and on [1/2, 1] with v = u^(p+1), which turns u^p du into
    dv / (p+1) and spreads the mass that u^p packs against u = 1 at
    large p.  Both integrands are smooth and at most 1, and each part
    goes to adaptive quadrature at relative error 1e-12.  The 1/p root
    is taken in logs, so the p-th power may lie below the smallest
    double.  The result agrees with the direct form to 1e-13 relative
    wherever that form is a normal number, and stays finite and near t
    at every finite order (within rounding of t from about p = 1e18).
    """
    n = int(n)
    if n < 1:
        raise UnsupportedDimensionError(f"sphere dimension must be >= 1, got {n}")
    p = _check_order(p, finite=True)
    t = float(t)
    if not (0.0 <= t <= math.pi + 1e-12):
        raise DomainError(f"threshold t must lie in [0, pi], got {t}")
    t = min(t, math.pi)
    if t == 0.0:
        return 0.0
    if n == 1:
        return math.exp(math.log(t) * (1.0 + 1.0 / p) - (math.log1p(p) + math.log(math.pi)) / p)
    ratio = sphere_surface_area(n - 1) / sphere_surface_area(n)
    low, _ = quad(
        lambda u: u**p * (math.sin(t * u) / t) ** (n - 1),
        0.0, 0.5, epsabs=0.0, epsrel=1e-12, limit=200,
    )
    # t u = t v^(1/(p+1)) = t - s with s = t (1 - v^(1/(p+1))) from
    # expm1, and sin(t - s) is expanded: near t = pi, sin(t u) is small and
    # a rounded argument t u would carry an absolute error of one ulp of pi
    sin_t, cos_t = math.sin(t), math.cos(t)

    def upper(v):
        s = -t * math.expm1(math.log(v) / (p + 1.0))
        return ((sin_t * math.cos(s) - cos_t * math.sin(s)) / t) ** (n - 1)

    high, _ = quad(upper, 0.5 ** (p + 1.0), 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    # the integrands carry sin(t u) / t, which stays near u at small t, so
    # the p-th power is t^(p+n) ratio (low + high / (p+1)): in logs
    log_power = math.log(ratio) - math.log1p(p) + math.log(low * (p + 1.0) + high)
    return math.exp(math.log(t) * (1.0 + n / p) + log_power / p)


def sphere_discretize(n, resolution) -> MeasureNetwork:
    """Geodesic distance network on a grid over the 1- or 2-sphere."""
    n = int(n)
    resolution = int(resolution)
    if n not in (1, 2):
        raise UnsupportedDimensionError(
            f"only spheres of dimension 1 and 2 are discretized, got {n}"
        )
    if resolution < 8:
        raise DomainError(f"resolution must be >= 8, got {resolution}")
    if n == 1:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        gap = np.abs(theta[:, None] - theta[None, :])
        w = np.minimum(gap, 2.0 * math.pi - gap)
        np.fill_diagonal(w, 0.0)
        measure = np.full(resolution, 1.0 / resolution)
        return new_network(w, measure)
    n_lat = max(2, int(round(math.sqrt(resolution / 2.0))))
    n_lon = max(4, int(round(resolution / n_lat)))
    band = math.pi / n_lat
    phi = (np.arange(n_lat) + 0.5) * band
    band_area = np.cos(phi - band / 2.0) - np.cos(phi + band / 2.0)
    theta = 2.0 * math.pi * np.arange(n_lon) / n_lon
    phi_g = np.repeat(phi, n_lon)
    theta_g = np.tile(theta, n_lat)
    masses = np.repeat(band_area / n_lon, n_lon)
    masses = masses / masses.sum()
    cosang = np.cos(phi_g)[:, None] * np.cos(phi_g)[None, :] + np.sin(phi_g)[
        :, None
    ] * np.sin(phi_g)[None, :] * np.cos(theta_g[:, None] - theta_g[None, :])
    w = np.arccos(np.clip(cosang, -1.0, 1.0))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return new_network(w, masses)


# ---------------------------------------------------------------------------
# size curves and interleaving

@dataclass(frozen=True)
class SizeCurve:
    """Sampled sublevel (or superlevel) size function on a threshold grid."""

    grid: np.ndarray
    values: np.ndarray
    p: float
    kind: str

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if self.kind not in ("sublevel", "superlevel"):
            raise KindMismatchError(f"unknown curve kind {self.kind!r}")
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise DomainError("grid and values must be equal-length, size >= 2")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise DomainError("size curve grid points and values must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise DomainError("grid must be strictly increasing")
        steps = np.diff(values)
        slack = 1e-9 * max(1.0, float(np.abs(values).max()))
        if self.kind == "sublevel" and np.any(steps < -slack):
            raise DomainError("sublevel curve must be nondecreasing")
        if self.kind == "superlevel" and np.any(steps > slack):
            raise DomainError("superlevel curve must be nonincreasing")
        object.__setattr__(self, "grid", _freeze(grid))
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "p", float(self.p))

    @property
    def t_max(self):
        return float(self.grid[-1])


def _check_samples(samples):
    samples = int(samples)
    if samples < 2:
        raise DomainError(f"a size curve needs at least 2 samples, got {samples}")
    return samples


def size_curve(X: MeasureNetwork, p, kind="sublevel", grid=None, samples=512) -> SizeCurve:
    """sub_size (or sup_size) on a threshold grid, in one binned O(n^2) pass.

    Default grid: ``samples`` uniform points on [0, max weight].
    """
    if grid is None:
        top = float(X.weights.max())
        if top <= 0.0:
            top = 1.0
        grid = np.linspace(0.0, top, _check_samples(samples))
    values = _level_sizes(X, p, grid, kind)
    return SizeCurve(grid=grid, values=values, p=p, kind=kind)


def sphere_subsize_curve(n, p, samples=512) -> SizeCurve:
    """Closed-form sublevel size curve of the n-sphere on [0, pi]."""
    grid = np.linspace(0.0, math.pi, _check_samples(samples))
    values = np.array([sphere_subsize_closed_form(n, p, t) for t in grid])
    return SizeCurve(grid=grid, values=values, p=float(p), kind="sublevel")


def _shifted_gap(f: SizeCurve, g: SizeCurve, eps):
    # max over t of f(t) - (g(min(t+eps, T_g)) + eps); <= 0 means f <= g^eps
    t_eval = np.unique(
        np.concatenate([f.grid, g.grid - eps, [0.0], [f.t_max]])
    )
    t_eval = t_eval[(t_eval >= 0.0) & (t_eval <= f.t_max)]
    f_vals = np.interp(t_eval, f.grid, f.values)
    g_vals = np.interp(t_eval + eps, g.grid, g.values)
    return float((f_vals - g_vals - eps).max())


def interleaving_distance(f: SizeCurve, g: SizeCurve, tol=1e-4) -> float:
    """Smallest eps with f <= g^eps and g <= f^eps, by bisection.

    h^eps(t) = h(min(t + eps, T_max)) + eps; between grid samples the
    curves are linearly interpolated, so feasibility is checked on the
    union of the two (shifted) breakpoint grids.
    """
    if f.kind != "sublevel" or g.kind != "sublevel":
        raise KindMismatchError(
            "interleaving distance is defined for sublevel curves"
        )
    if f.p != g.p:
        raise KindMismatchError(f"curves of orders {f.p} and {g.p} do not compare")
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be > 0, got {tol}")

    def feasible(eps):
        return _shifted_gap(f, g, eps) <= 0.0 and _shifted_gap(g, f, eps) <= 0.0

    if feasible(0.0):
        return 0.0
    grid = np.unique(np.concatenate([f.grid, g.grid]))
    gap = np.abs(
        np.interp(grid, f.grid, f.values) - np.interp(grid, g.grid, g.values)
    ).max()
    hi = float(max(gap, tol))
    while not feasible(hi):
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles, closer than tol can ask
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
