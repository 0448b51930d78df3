"""Lower bounds for the network GW distance (times two).

The chain, cheapest to sharpest: szlb (size difference) <= rflb
(eccentricity pushforwards) <= rtlb (OT over a matrix of 1D transport
costs between local weight distributions).  rslb (weight pushforwards)
is a separate member of the family.  All bound 2*d_{N,p} from below.
Each bound takes networks or NetworkSummary objects, which keep the
per-network invariants a sweep would otherwise rebuild for every pair.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Coupling, MeasureNetwork, _check_order, _cumulative, _freeze
from .errors import DomainError
from .invariants import _check_direction, ecc_pushforward, size_p, weight_pushforward
from .ot import exact_ot, wasserstein_1d

HIERARCHY_TOL = 1e-9


@dataclass(frozen=True)
class TlbCostMatrix:
    """Matrix of 1D W_p distances between local weight distributions."""

    C: np.ndarray
    direction: str
    p: float

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.float64)
        if np.any(C < 0.0) or not np.all(np.isfinite(C)):
            raise DomainError("cost entries must be finite and >= 0")
        object.__setattr__(self, "C", _freeze(C))


@dataclass(frozen=True)
class BoundReport:
    """All seven lower-bound numbers for one pair of networks."""

    szlb: float
    rflb_out: float
    rflb_in: float
    rslb: float
    rtlb_out: float
    rtlb_in: float
    rtlb_max: float
    p: float
    coupling_out: Coupling | None = None
    coupling_in: Coupling | None = None

    def __post_init__(self):
        chain = (
            (self.szlb, self.rflb_out, "szlb <= rflb_out"),
            (self.rflb_out, self.rtlb_out, "rflb_out <= rtlb_out"),
            (self.szlb, self.rflb_in, "szlb <= rflb_in"),
            (self.rflb_in, self.rtlb_in, "rflb_in <= rtlb_in"),
        )
        for lo, hi, label in chain:
            if lo > hi + HIERARCHY_TOL:
                raise DomainError(
                    f"hierarchy violated: {label} failed ({lo!r} > {hi!r})"
                )

    def to_dict(self):
        return {
            "szlb": self.szlb,
            "rflb_out": self.rflb_out,
            "rflb_in": self.rflb_in,
            "rslb": self.rslb,
            "rtlb_out": self.rtlb_out,
            "rtlb_in": self.rtlb_in,
            "rtlb_max": self.rtlb_max,
            "p": self.p,
        }


class NetworkSummary:
    """One network and the invariants the bounds read from it.

    Each invariant (size_p, the eccentricity and weight pushforwards,
    the local quantiles) is built on first use and kept, keyed by its
    order and direction.  A sweep wraps each network once, so k networks
    cost k builds of an invariant, not one per pair.  The bound
    functions take a network or a summary; a bare network gets a fresh
    summary that lives for one call.  Kept quantiles take 16 n^2 bytes
    per direction, on top of the network's 8 n^2.
    """

    __slots__ = ("network", "_built")

    def __init__(self, network: MeasureNetwork):
        self.network = network
        self._built = {}

    @property
    def n(self):
        return self.network.n

    @property
    def measure(self):
        return self.network.measure

    def _get(self, key, build, *args):
        # build is looked up by its module-global name at each call site,
        # so a wrapper set on that name sees every real build
        if key not in self._built:
            self._built[key] = build(self.network, *args)
        return self._built[key]

    def size(self, p):
        return self._get(("size", p), size_p, p)

    def ecc(self, p, direction):
        return self._get(("ecc", p, direction), ecc_pushforward, p, direction)

    def weight_dist(self):
        return self._get(("weights",), weight_pushforward)

    def quantiles(self, direction):
        return self._get(("quantiles", direction), _local_quantiles, direction)


NetworkLike = MeasureNetwork | NetworkSummary


def _summary(X: NetworkLike) -> NetworkSummary:
    return X if isinstance(X, NetworkSummary) else NetworkSummary(X)


def _finite(value, name):
    # an overflowed invariant gives inf or nan, neither of which is a bound
    if not np.isfinite(value):
        raise DomainError(f"{name} is {value}, not finite")
    return value


def szlb(X: NetworkLike, Y: NetworkLike, p) -> float:
    """|size_p(X) - size_p(Y)|; the cheapest bound, any order.

    Raises DomainError when a size overflows."""
    return _finite(abs(_summary(X).size(p) - _summary(Y).size(p)), "szlb")


def rflb(X: NetworkLike, Y: NetworkLike, p, direction="out") -> float:
    """W_p between the two eccentricity pushforwards."""
    p = _check_order(p, finite=True)
    X, Y = _summary(X), _summary(Y)
    return wasserstein_1d(X.ecc(p, direction), Y.ecc(p, direction), p)


def rslb(X: NetworkLike, Y: NetworkLike, p) -> float:
    """W_p between the two weight pushforwards.

    Raises DomainError when the p-th powers of the weights overflow."""
    p = _check_order(p, finite=True)
    value = wasserstein_1d(_summary(X).weight_dist(), _summary(Y).weight_dist(), p)
    return _finite(value, "rslb")


def _local_quantiles(X: MeasureNetwork, direction):
    # per-node atoms sorted by (weight, measure), so tied atoms add their
    # masses in one order whatever their nodes (from_points' order)
    w = X.weights if direction == "out" else X.weights.T
    order = np.lexsort((np.broadcast_to(X.measure, w.shape), w), axis=1)
    atoms = np.take_along_axis(w, order, axis=1)
    return np.ascontiguousarray(atoms), _cumulative(X.measure[order])


def _tlb_pow_matrix(X, Y, p, direction):
    _check_direction(direction)
    qx, cx = _summary(X).quantiles(direction)
    qy, cy = _summary(Y).quantiles(direction)
    return np.maximum(_kernels.tlb_pow(qx, cx, qy, cy, p), 0.0)


def tlb_cost(X: NetworkLike, Y: NetworkLike, p, direction="out") -> TlbCostMatrix:
    """Entry (i, j) is W_p(local distribution of i, local distribution of j).

    All m*n entries come from the closed-form merged-quantile sweep.  In
    rtlb, exact_ot follows: an assignment on uniform measures, about as
    costly as the sweep; otherwise the column-generation HiGHS LP, which
    on the sphere pairs also costs less than the sweep.
    """
    p = _check_order(p, finite=True)
    pow_matrix = _tlb_pow_matrix(X, Y, p, direction)
    return TlbCostMatrix(C=pow_matrix ** (1.0 / p), direction=direction, p=p)


def rtlb(X: NetworkLike, Y: NetworkLike, p, direction="out"):
    """Minimize the L^p(coupling) norm of the TLB cost matrix.

    Returns (value, optimal coupling).  exact_ot (an assignment, or the
    column-generation HiGHS LP, both exact) minimizes the p-th power (a
    monotone transform), then the root is taken.
    """
    p = _check_order(p, finite=True)
    # a bare network's quantiles are freed here, before the solve
    pow_matrix = _tlb_pow_matrix(X, Y, p, direction)
    coupling, objective = exact_ot(pow_matrix, X.measure, Y.measure)
    return max(objective, 0.0) ** (1.0 / p), coupling


def rtlb_max(X: NetworkLike, Y: NetworkLike, p) -> BoundReport:
    """Compute the full bound family; rtlb_max = max(rtlb_out, rtlb_in)."""
    p = _check_order(p, finite=True)
    value_out, plan_out = rtlb(X, Y, p, "out")
    value_in, plan_in = rtlb(X, Y, p, "in")
    return BoundReport(
        szlb=szlb(X, Y, p),
        rflb_out=rflb(X, Y, p, "out"),
        rflb_in=rflb(X, Y, p, "in"),
        rslb=rslb(X, Y, p),
        rtlb_out=value_out,
        rtlb_in=value_in,
        rtlb_max=max(value_out, value_in),
        p=p,
        coupling_out=plan_out,
        coupling_in=plan_in,
    )
