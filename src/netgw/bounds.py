"""Lower bounds for the network GW distance (times two).

The chain, cheapest to sharpest: szlb (size difference) <= rflb
(eccentricity pushforwards) <= rtlb (OT over a matrix of 1D transport
costs between local weight distributions).  rslb (weight pushforwards)
is a separate member of the family.  All bound 2*d_{N,p} from below.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Coupling, MeasureNetwork, _freeze
from .errors import DomainError
from .invariants import _check_direction, ecc_pushforward, size_p, weight_pushforward
from .ot import exact_ot, wasserstein_1d

HIERARCHY_TOL = 1e-9


def _finite_order(p):
    p = float(p)
    if not (p >= 1.0) or np.isinf(p):
        raise DomainError(f"bounds require finite order p >= 1, got {p}")
    return p


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


def szlb(X: MeasureNetwork, Y: MeasureNetwork, p) -> float:
    """|size_p(X) - size_p(Y)|; the cheapest bound, any order."""
    return abs(size_p(X, p) - size_p(Y, p))


def rflb(X: MeasureNetwork, Y: MeasureNetwork, p, direction="out") -> float:
    """W_p between the two eccentricity pushforwards."""
    p = _finite_order(p)
    return wasserstein_1d(
        ecc_pushforward(X, p, direction), ecc_pushforward(Y, p, direction), p
    )


def rslb(X: MeasureNetwork, Y: MeasureNetwork, p) -> float:
    """W_p between the two weight pushforwards."""
    p = _finite_order(p)
    return wasserstein_1d(weight_pushforward(X), weight_pushforward(Y), p)


def _local_quantiles(X: MeasureNetwork, direction):
    # per-node sorted weight atoms and cumulative masses, last forced to 1
    w = X.weights if direction == "out" else X.weights.T
    order = np.argsort(w, axis=1, kind="stable")
    atoms = np.take_along_axis(w, order, axis=1)
    cum = np.clip(np.cumsum(X.measure[order], axis=1), 0.0, 1.0)
    cum[:, -1] = 1.0
    return np.ascontiguousarray(atoms), np.ascontiguousarray(cum)


def _tlb_pow_matrix(X, Y, p, direction):
    _check_direction(direction)
    qx, cx = _local_quantiles(X, direction)
    qy, cy = _local_quantiles(Y, direction)
    return np.maximum(_kernels.tlb_pow(qx, cx, qy, cy, p), 0.0)


def tlb_cost(X: MeasureNetwork, Y: MeasureNetwork, p, direction="out") -> TlbCostMatrix:
    """Entry (i, j) is W_p(local distribution of i, local distribution of j).

    All m*n entries come from the closed-form merged-quantile sweep.
    In rtlb this sweep is cheap next to the transport LP (exact_ot)
    that follows it, which takes most of each pair's time.
    """
    p = _finite_order(p)
    pow_matrix = _tlb_pow_matrix(X, Y, p, direction)
    return TlbCostMatrix(C=pow_matrix ** (1.0 / p), direction=direction, p=p)


def rtlb(X: MeasureNetwork, Y: MeasureNetwork, p, direction="out"):
    """Minimize the L^p(coupling) norm of the TLB cost matrix.

    Returns (value, optimal coupling).  The LP minimizes the p-th power
    (a monotone transform), then the root is taken.
    """
    p = _finite_order(p)
    pow_matrix = _tlb_pow_matrix(X, Y, p, direction)
    coupling, objective = exact_ot(pow_matrix, X.measure, Y.measure)
    return max(objective, 0.0) ** (1.0 / p), coupling


def rtlb_max(X: MeasureNetwork, Y: MeasureNetwork, p, keep_couplings=True) -> BoundReport:
    """Compute the full bound family; rtlb_max = max(rtlb_out, rtlb_in)."""
    p = _finite_order(p)
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
        coupling_out=plan_out if keep_couplings else None,
        coupling_in=plan_in if keep_couplings else None,
    )
