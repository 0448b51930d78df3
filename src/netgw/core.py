"""Measure networks, couplings and the p-distortion functional.

A measure network is a finite node set with an arbitrary real weight
matrix (directed, signed, not necessarily metric) and a fully supported
probability measure on the nodes.  Couplings are joint distributions
with prescribed marginals; the p-distortion of a coupling measures how
far it is from being a weight-preserving map.
"""

import json
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from . import _kernels
from .errors import (
    DomainError,
    EncodeError,
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
                f"measure of shape {m.shape} does not match {w.shape[0]} nodes"
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


class _Dis2:
    """dis_2(P)^2 = mu.ex + nu.ey - 2 <cross(P), P> for couplings P of X and Y,
    with ex = (wx^2) mu, ey = (wy^2) nu and cross(P) = wx P wy^T; summed over
    (k, l) against P, (wx[i,k] - wy[j,l])^2 is ex[i] + ey[j] - 2 cross(P)[i,j].
    """

    def __init__(self, X: MeasureNetwork, Y: MeasureNetwork):
        self.wx, self.wy = X.weights, Y.weights
        sq_x, sq_y = self.wx**2, self.wy**2
        self.ex, self.ey = sq_x @ X.measure, sq_y @ Y.measure
        # mu.ex + nu.ey, summed as (mu wx^2) mu to keep distortion's values bit for bit
        self.scale = float(X.measure @ sq_x @ X.measure) + float(Y.measure @ sq_y @ Y.measure)

    def cross(self, plan):
        return self.wx @ plan @ self.wy.T

    def squared(self, plan) -> float:
        val = self.scale - 2.0 * float(np.sum(self.cross(plan) * plan))
        # the expansion cancels near 0, and is inf or nan once the squared weights
        # overflow; resum those over the support: terms >= 0 (exact at 0), no inf * 0
        if not val > 64.0 * np.finfo(np.float64).eps * self.scale:
            val = float(_kernels.dis_pow(self.wx, self.wy, plan, 2.0))
        return val


def distortion(X: MeasureNetwork, Y: MeasureNetwork, mu: Coupling, p) -> float:
    """p-distortion of a coupling.

    For finite p this is the L^p norm of omega_X(i,k) - omega_Y(j,l)
    under the product of the plan with itself; for p = inf it is the
    max over quadruples carrying positive plan mass.  Both are summed over
    the plan's support by _kernels.dis_pow, but p = 2 expands the square
    (_Dis2) and resums only where that is non-finite or near 0.
    """
    _check_marginals(X, Y, mu)
    p = _check_order(p)
    if p == 2.0:
        return float(np.sqrt(_Dis2(X, Y).squared(mu.plan)))
    val = float(_kernels.dis_pow(X.weights, Y.weights, mu.plan, p))
    # dis_pow is already the sup at p = inf, where x ** (1/p) would be 1
    return val if np.isinf(p) else val ** (1.0 / p)


def dnp_to_point(X: MeasureNetwork, a, p) -> float:
    """Exact GW-type distance from X to the one-node network at a: half the
    distortion of the one coupling, the product, summed over its support."""
    p = _check_order(p)
    val = _kernels.dis_pow(X.weights, np.array([[float(a)]]), X.measure[:, None], p)
    return 0.5 * (val if np.isinf(p) else val ** (1.0 / p))


# ---------------------------------------------------------------------------
# network JSON format: {"labels": [...], "weights": [[...]], "measure": [...]}

def _network_json(X: MeasureNetwork) -> bytes:
    """The network's one-line JSON document as UTF-8 bytes.

    orjson writes the frozen arrays without a list copy, each float in
    its shortest text that reads back to the same bits.
    """
    doc = {"labels": X.labels, "weights": X.weights, "measure": X.measure}
    try:
        return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY)
    except orjson.JSONEncodeError as err:
        # the arrays are finite contiguous float64, so only a label that
        # UTF-8 cannot encode (a lone surrogate) fails here
        for label in X.labels or ():
            if label != label.encode("utf-8", "replace").decode("utf-8"):
                raise EncodeError(f"label {label!r} cannot be written as UTF-8") from err
        raise


def network_to_json(X: MeasureNetwork) -> str:
    return _network_json(X).decode("utf-8")


_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")  # the whitespace JSON allows between tokens


def _skip(text, i):
    return _SPACE.match(text, i).end()


def _past(text, i, char):
    """The index past `char` at text[i] and the whitespace after it."""
    if text[i:i + 1] != char:
        raise ParseError(f"invalid JSON: expecting {char!r} at char {i}")
    return _skip(text, i + 1)


def _weight_rows(text, i):
    """The weights array whose JSON text starts at text[i], and the index past it.

    A row of numbers holds no ']', so each row's text runs from its '['
    to the next ']' and is one orjson call, made a float64 row at once:
    the n² Python floats of the whole matrix never exist together.
    orjson rejects NaN, Infinity and literals that overflow a double.
    """
    rows = []
    if text[i:i + 1] != "[":
        raise ParseError("weights must be a non-empty 2-D array of numbers")
    i = _skip(text, i + 1)
    while True:
        if text[i:i + 1] != "[":
            raise ParseError("weights must be a non-empty 2-D array of numbers")
        end = text.find("]", i) + 1
        if not end:
            raise ParseError(f"weights row {len(rows)} has no closing ']'")
        try:
            rows.append(np.array(orjson.loads(text[i:end]), dtype=np.float64))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"weights row {len(rows)} is not an array of numbers: {exc}") from exc
        i = _skip(text, end)
        if text[i:i + 1] != ",":
            break
        i = _skip(text, i + 1)
    try:
        weights = np.stack(rows)
    except ValueError as exc:
        raise ParseError(f"weights rows differ in length: {exc}") from exc
    return weights, _past(text, i, "]")


def _network_fields(text):
    """The members of a network document's top-level object, the last of
    each key; the weights as a float64 array, the rest as stdlib json
    decodes them."""
    if text.startswith("\ufeff"):
        raise ParseError("network JSON starts with a byte order mark")
    i = _skip(text, 0)
    if text[i:i + 1] != "{":
        raise ParseError("network JSON must be an object with 'weights'")
    i = _skip(text, i + 1)
    doc = {}
    more = text[i:i + 1] != "}"
    try:
        while more:
            if text[i:i + 1] != '"':
                raise ParseError(f"invalid JSON: expecting a property name at char {i}")
            key, i = json.decoder.scanstring(text, i + 1)
            i = _past(text, _skip(text, i), ":")
            if key == "weights":
                doc[key], i = _weight_rows(text, i)
            else:
                doc[key], i = _DECODER.raw_decode(text, i)
            i = _skip(text, i)
            more = text[i:i + 1] == ","
            if more:
                i = _skip(text, i + 1)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if _past(text, i, "}") != len(text):
        raise ParseError("invalid JSON: extra data after the network object")
    return doc


def network_from_json(text: str) -> MeasureNetwork:
    """The network in a JSON document {"weights": [[...]], "measure": [...],
    "labels": [...]}; measure and labels are optional.

    The weights are parsed one row at a time (see _weight_rows), so the
    reader never holds a Python list of all n² entries.  Any malformed
    document raises ParseError.
    """
    doc = _network_fields(text)
    if "weights" not in doc:
        raise ParseError("network JSON must be an object with 'weights'")
    weights = doc["weights"]
    if weights.size == 0:
        raise ParseError(f"weights must be a non-empty 2-D array, got shape {weights.shape}")
    measure = doc.get("measure")
    if measure is not None:
        try:
            measure = np.array(measure, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"measure must be a numeric array: {exc}") from exc
        if measure.ndim != 1:
            raise ParseError(f"measure must be a 1-D array, got shape {measure.shape}")
    if not isinstance(doc.get("labels"), (list, type(None))):
        raise ParseError("labels must be a list or null")
    if measure is None:
        n = len(weights)
        measure = [1.0 / n] * n
    return new_network(weights, measure, doc.get("labels"))


def save_network(X: MeasureNetwork, path):
    data = _network_json(X)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
            fh.write(b"\n")
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
