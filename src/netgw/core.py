"""Measure networks, couplings and the p-distortion functional.

A measure network is a finite node set with an arbitrary real weight
matrix (directed, signed, not necessarily metric) and a fully supported
probability measure on the nodes.  Couplings are joint distributions
with prescribed marginals; the p-distortion of a coupling measures how
far it is from being a weight-preserving map.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    DomainError,
    IoError,
    MarginalMismatchError,
    MeasureNotNormalizedError,
    NonPositiveMassError,
    NonSquareWeightsError,
    ParseError,
)

MEASURE_SUM_TOL = 1e-12
MEASURE_RENORM_TOL = 1e-9
MARGINAL_TOL = 1e-9


def _check_order(p, finite=False):
    """p as a float; DomainError unless p >= 1 (and finite if asked)."""
    p = float(p)
    if not (p >= 1.0) or (finite and np.isinf(p)):
        finite_and = "finite and " if finite else ""
        raise DomainError(f"order p must be {finite_and}>= 1, got {p}")
    return p


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _cumulative(masses):
    """Running sums along the last axis, clipped to [0, 1], last entry exactly 1."""
    cum = np.clip(np.cumsum(masses, axis=-1), 0.0, 1.0)
    cum[..., -1] = 1.0
    return cum


@dataclass(frozen=True)
class MeasureNetwork:
    """Weight matrix, node measure and optional node labels.

    Invariants (enforced at construction): weights square with finite
    entries; measure strictly positive summing to 1 within 1e-12.
    Arrays are frozen so instances are safe to share across workers.
    """

    weights: np.ndarray
    measure: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.measure, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise NonSquareWeightsError(
                f"weights must be square, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise NonSquareWeightsError("weights contain non-finite entries")
        if m.ndim != 1 or m.size != w.shape[0]:
            raise NonSquareWeightsError(
                f"measure length {m.size} does not match {w.shape[0]} nodes"
            )
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise NonPositiveMassError(
                "measure entries must be strictly positive (full support)"
            )
        total = m.sum()
        if abs(total - 1.0) > MEASURE_RENORM_TOL:
            raise MeasureNotNormalizedError(
                f"measure sums to {total!r}, beyond renormalization tolerance"
            )
        if abs(total - 1.0) > MEASURE_SUM_TOL:
            m = m / total
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != w.shape[0]:
                raise NonSquareWeightsError(
                    f"{len(labels)} labels for {w.shape[0]} nodes"
                )
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "measure", _freeze(m))

    @property
    def n(self):
        return self.weights.shape[0]


def new_network(weights, measure, labels=None) -> MeasureNetwork:
    """Validate and build a MeasureNetwork.

    The measure is renormalized when |sum - 1| <= 1e-9 and rejected
    beyond that.
    """
    return MeasureNetwork(weights, measure, labels)


def one_point_network(a, label=None) -> MeasureNetwork:
    """The one-node network with self-weight a."""
    labels = (label,) if label is not None else None
    return MeasureNetwork([[float(a)]], [1.0], labels)


@dataclass(frozen=True)
class Coupling:
    """Transport plan with its prescribed marginals.

    Row sums must match row_marginal and column sums col_marginal
    within 1e-9; entries nonnegative.
    """

    plan: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        plan = np.asarray(self.plan, dtype=np.float64)
        mu = np.asarray(self.row_marginal, dtype=np.float64)
        nu = np.asarray(self.col_marginal, dtype=np.float64)
        if plan.ndim != 2 or plan.shape != (mu.size, nu.size):
            raise MarginalMismatchError(
                f"plan shape {plan.shape} does not match marginals "
                f"({mu.size}, {nu.size})"
            )
        if np.any(plan < 0.0) or not np.all(np.isfinite(plan)):
            raise MarginalMismatchError("plan entries must be finite and >= 0")
        row_err = np.abs(plan.sum(axis=1) - mu).max()
        col_err = np.abs(plan.sum(axis=0) - nu).max()
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise MarginalMismatchError(
                f"marginal errors ({row_err:.3e}, {col_err:.3e}) "
                f"exceed {MARGINAL_TOL}"
            )
        object.__setattr__(self, "plan", _freeze(plan))
        object.__setattr__(self, "row_marginal", _freeze(mu))
        object.__setattr__(self, "col_marginal", _freeze(nu))

    @property
    def shape(self):
        return self.plan.shape


def product_coupling(mu, nu) -> Coupling:
    """The independent coupling mu (x) nu (always feasible)."""
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    return Coupling(np.outer(mu, nu), mu, nu)


def diagonal_coupling(mu) -> Coupling:
    """diag(mu), the identity coupling of a measure with itself."""
    mu = np.asarray(mu, dtype=np.float64)
    return Coupling(np.diag(mu), mu, mu)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability distribution on the real line with finitely many atoms.

    Atoms are finite, sorted ascending with exact duplicates merged;
    masses are finite, positive and sum to 1 within 1e-9.  cumulative,
    stored, is the running mass (last entry exactly 1).
    """

    atoms: np.ndarray
    masses: np.ndarray
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64)
        masses = np.asarray(self.masses, dtype=np.float64)
        if atoms.ndim != 1 or atoms.shape != masses.shape or atoms.size == 0:
            raise ParseError("atoms and masses must be equal-length nonempty")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(masses))):
            raise DomainError("atoms and masses must be finite")
        if np.any(np.diff(atoms) <= 0.0):
            raise ParseError("atoms must be strictly increasing (merged)")
        if np.any(masses <= 0.0):
            raise NonPositiveMassError("atom masses must be positive")
        if abs(masses.sum() - 1.0) > 1e-9:
            raise MeasureNotNormalizedError(
                f"atom masses sum to {masses.sum()!r}"
            )
        object.__setattr__(self, "atoms", _freeze(atoms))
        object.__setattr__(self, "masses", _freeze(masses))
        object.__setattr__(self, "cumulative", _freeze(_cumulative(masses)))

    @classmethod
    def from_points(cls, locations, masses):
        """Build from unsorted locations, summing the masses of each
        location in (location, mass) order, whatever the input order."""
        locations = np.asarray(locations, dtype=np.float64).ravel()
        masses = np.asarray(masses, dtype=np.float64).ravel()
        order = np.lexsort((masses, locations))
        locations, masses = locations[order], masses[order]
        first = np.ones(locations.size, dtype=bool)  # first point of its location
        first[1:] = locations[1:] != locations[:-1]
        return cls(locations[first], np.add.reduceat(masses, np.flatnonzero(first)))


def _check_marginals(X: MeasureNetwork, Y: MeasureNetwork, mu: Coupling):
    if mu.shape != (X.n, Y.n):
        raise MarginalMismatchError(
            f"coupling shape {mu.shape} does not match networks "
            f"({X.n}, {Y.n})"
        )
    if (
        np.abs(mu.row_marginal - X.measure).max() > MARGINAL_TOL
        or np.abs(mu.col_marginal - Y.measure).max() > MARGINAL_TOL
    ):
        raise MarginalMismatchError(
            "coupling marginals do not match the network measures"
        )


def distortion(X: MeasureNetwork, Y: MeasureNetwork, mu: Coupling, p) -> float:
    """p-distortion of a coupling.

    For finite p this is the L^p norm of omega_X(i,k) - omega_Y(j,l)
    under the product of the plan with itself; for p = inf it is the
    max over quadruples carrying positive plan mass.
    """
    _check_marginals(X, Y, mu)
    p = _check_order(p)
    wx, wy, plan = X.weights, Y.weights, mu.plan
    if p == 2.0:
        # expansion |a-b|^2 = a^2 + b^2 - 2ab under plan (x) plan
        sx = float(X.measure @ (wx * wx) @ X.measure)
        sy = float(Y.measure @ (wy * wy) @ Y.measure)
        cross = float(np.sum((wx @ plan @ wy.T) * plan))
        val = sx + sy - 2.0 * cross
        # the expansion cancels catastrophically near zero; below its own
        # noise floor, resum as nonnegative quadruple terms (exact at 0)
        if val <= 64.0 * np.finfo(np.float64).eps * (sx + sy):
            val = float(_kernels.dis_pow(wx, wy, plan, 2.0))
        return float(np.sqrt(max(val, 0.0)))
    val = float(_kernels.dis_pow(wx, wy, plan, p))
    # dis_pow is already the sup at p = inf, where x ** (1/p) would be 1
    return val if np.isinf(p) else val ** (1.0 / p)


def dnp_to_point(X: MeasureNetwork, a, p) -> float:
    """Exact GW-type distance from X to the one-node network at a."""
    a = float(a)
    p = _check_order(p)
    diff = np.abs(X.weights - a)
    if np.isinf(p):
        return 0.5 * float(diff.max())
    outer = np.outer(X.measure, X.measure)
    return 0.5 * float(np.sum(diff**p * outer)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# network JSON format: {"labels": [...], "weights": [[...]], "measure": [...]}

def network_to_json(X: MeasureNetwork) -> str:
    doc = {
        "labels": list(X.labels) if X.labels is not None else None,
        "weights": X.weights.tolist(),
        "measure": X.measure.tolist(),
    }
    return json.dumps(doc)


def network_from_json(text: str) -> MeasureNetwork:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "weights" not in doc:
        raise ParseError("network JSON must be an object with 'weights'")
    try:
        weights = np.array(doc["weights"], dtype=np.float64)
        measure = doc.get("measure")
        if measure is not None:
            measure = np.array(measure, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"weights and measure must be numeric arrays: {exc}") from exc
    if weights.ndim != 2 or weights.size == 0:
        raise ParseError(f"weights must be a non-empty 2-D array, got shape {weights.shape}")
    if not isinstance(doc.get("labels"), (list, type(None))):
        raise ParseError("labels must be a list or null")
    if measure is None:
        n = len(weights)
        measure = [1.0 / n] * n
    return new_network(weights, measure, doc.get("labels"))


def save_network(X: MeasureNetwork, path):
    try:
        with open(path, "w") as fh:
            fh.write(network_to_json(X))
            fh.write("\n")
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def read_text(path) -> str:
    """The UTF-8 text of a file: IoError when it cannot be read,
    ParseError when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}") from err


def load_network(path) -> MeasureNetwork:
    return network_from_json(read_text(path))
