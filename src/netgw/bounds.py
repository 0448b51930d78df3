"""Lower bounds for the network GW distance (times two).

The chain, cheapest to sharpest: szlb (size difference) <= rflb
(eccentricity pushforwards) <= rtlb (OT over a matrix of 1D transport
costs between local weight distributions).  rslb (weight pushforwards)
is a separate member of the family.  All bound 2*d_{N,p} from below.
Each bound takes networks or NetworkSummary objects, which keep the
per-network invariants a sweep would otherwise rebuild for every pair.
"""

from dataclasses import InitVar, dataclass

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

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.float64)
        if np.any(C < 0.0) or not np.all(np.isfinite(C)):
            raise DomainError("cost entries must be finite and >= 0")
        object.__setattr__(self, "C", _freeze(C))


def _check_chain(szlb, rflb_out, rflb_in, rtlb_out, rtlb_in, weight_scale):
    """Raise DomainError unless szlb <= rflb <= rtlb in each direction, to
    HIERARCHY_TOL times max(1, weight_scale)."""
    chain = (
        (szlb, rflb_out, "szlb <= rflb_out"),
        (rflb_out, rtlb_out, "rflb_out <= rtlb_out"),
        (szlb, rflb_in, "szlb <= rflb_in"),
        (rflb_in, rtlb_in, "rflb_in <= rtlb_in"),
    )
    for lo, hi, label in chain:
        if lo > hi + HIERARCHY_TOL * max(1.0, weight_scale):
            raise DomainError(f"hierarchy violated: {label} failed ({lo!r} > {hi!r})")


@dataclass(frozen=True)
class BoundReport:
    """All seven lower-bound numbers for one pair of networks.

    Checks the chain with _check_chain; rtlb_max sets _weight_scale to the
    largest max|w|."""

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
    _weight_scale: InitVar[float] = 1.0

    def __post_init__(self, _weight_scale):
        _check_chain(
            self.szlb, self.rflb_out, self.rflb_in, self.rtlb_out, self.rtlb_in, _weight_scale
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
    the local quantiles, whether the weights are symmetric) is built on
    first use and kept, keyed by its order and direction.  A sweep wraps
    each network once, so k networks cost k builds of an invariant, not
    one per pair.  The bound functions take a network or a summary; a
    bare network gets a fresh summary that lives for one call.  Kept
    quantiles take 16 n^2 bytes per direction (the atoms and the ranks
    of their cumulative masses), plus 8 bytes per distinct cumulative
    mass (n on a uniform measure, up to n^2), on top of the network's
    8 n^2.
    """

    __slots__ = ("network", "_built")

    def __init__(self, network: MeasureNetwork):
        self.network = network
        self._built = {}

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

    @property
    def symmetric(self):
        return self._get(("symmetric",), _symmetric)


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


def _stacked_ecc(summaries, p, direction):
    # each pushforward as one (atoms, cumulative) row, padded to the
    # widest by repeating its last atom at cumulative 1; a network whose
    # pushforward raises gets no row
    dists = {}
    for k, summary in enumerate(summaries):
        try:
            dists[k] = summary.ecc(p, direction)
        except Exception:  # the pair route reports it, pair by pair
            continue
    width = max((d.atoms.size for d in dists.values()), default=1)
    atoms = np.zeros((len(dists), width))
    cumulative = np.ones((len(dists), width))
    for row, d in enumerate(dists.values()):
        atoms[row, : d.atoms.size] = d.atoms
        atoms[row, d.atoms.size :] = d.atoms[-1]
        cumulative[row, : d.atoms.size] = d.cumulative
    return list(dists), atoms, cumulative


def rflb_matrices(networks, p):
    """(rflb 'out', rflb 'in') between every pair of networks, as matrices.

    One quantile_pow call per direction integrates all pairs at once,
    over every network's eccentricity pushforward, stacked; the kernel's
    block rule tiles the merged grid.  Each entry is the direct sum of
    nonnegative terms on a finer grid than rflb's, so it agrees with
    rflb(X, Y, p, direction) to rounding (their max at most 7.5e-16
    relative on 150 table1 networks at p = 1, 2 and 3).  Rows and
    columns of a network whose pushforward raises are NaN, and an entry
    whose sum overflows is inf; dissimilarity_matrix takes those pairs
    from the per-pair route, with its error.
    """
    p = _check_order(p, finite=True)
    summaries = [_summary(X) for X in networks]
    k = len(summaries)
    parts = []
    for direction in ("out", "in"):
        rows, atoms, cumulative = _stacked_ecc(summaries, p, direction)
        part = np.full((k, k), np.nan)
        if rows:
            b = _kernels.breaks(cumulative)
            part[np.ix_(rows, rows)] = _kernels.quantile_pow(atoms, b, atoms, b, p) ** (1.0 / p)
        parts.append(part)
    return tuple(parts)


def rslb(X: NetworkLike, Y: NetworkLike, p) -> float:
    """W_p between the two weight pushforwards.

    Raises DomainError when the p-th powers of the weights overflow."""
    p = _check_order(p, finite=True)
    value = wasserstein_1d(_summary(X).weight_dist(), _summary(Y).weight_dist(), p)
    return _finite(value, "rslb")


def _symmetric(X: MeasureNetwork):
    return np.array_equal(X.weights, X.weights.T)


def _local_quantiles(X: MeasureNetwork, direction):
    # per-node atoms sorted by (weight, measure), so tied atoms add their
    # masses in one order whatever their nodes (from_points' order), and
    # the Breaks of their cumulative masses
    w = X.weights if direction == "out" else X.weights.T
    order = np.lexsort((np.broadcast_to(X.measure, w.shape), w), axis=1)
    atoms = np.take_along_axis(w, order, axis=1)
    return np.ascontiguousarray(atoms), _kernels.breaks(_cumulative(X.measure[order]))


def _tlb_pow_matrix(X, Y, p, direction):
    _check_direction(direction)
    qx, bx = _summary(X).quantiles(direction)
    qy, by = _summary(Y).quantiles(direction)
    return _kernels.tlb_pow(qx, bx, qy, by, p)


def tlb_cost(X: NetworkLike, Y: NetworkLike, p, direction="out") -> TlbCostMatrix:
    """Entry (i, j) is W_p(local distribution of i, local distribution of j).

    All m*n entries come from _kernels.tlb_pow, a merged-quantile sweep
    of about rows_x * rows_y * G work for G breakpoints.  G stays near
    the node counts on uniform measures and on the sphere grids, and the
    matrix is one block on the global grid: one direction of the 400x406
    sphere pair takes 0.064 s at p = 2 and 1.74 s at p = 1, and of the
    1000x990 pair 0.78 s and 44.7 s (BENCH_tlb.json).  On generic
    non-uniform measures G reaches m^2 + n^2 (313,321 on a random 400x393
    pair), and the block rule tiles the matrix into blocks of 8 rows, each
    on its own grid of about 8 * (m + n) breakpoints.  One direction of
    that 400x393 pair takes 1.87 s at p = 2 and 2.89 s at p = 1, and of a
    random 1000x993 pair 32.4 s and 58.7 s, where one grid takes 0.55 s
    and 4.1 s for 8 rows of the 400x393 pair alone (2-core machine;
    scripts/bench_tlb.py, BENCH_tlb.json).
    """
    p = _check_order(p, finite=True)
    pow_matrix = _tlb_pow_matrix(X, Y, p, direction)
    return TlbCostMatrix(C=pow_matrix ** (1.0 / p))


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


def _rtlb_pair(X: NetworkLike, Y: NetworkLike, p):
    """(rtlb(X, Y, p, 'out'), rtlb(X, Y, p, 'in')).

    With both weight matrices symmetric, 'in' is 'out', solved once."""
    out = rtlb(X, Y, p, "out")
    if _summary(X).symmetric and _summary(Y).symmetric:
        return out, out
    return out, rtlb(X, Y, p, "in")


def rtlb_max(X: NetworkLike, Y: NetworkLike, p) -> BoundReport:
    """Compute the full bound family; rtlb_max = max(rtlb_out, rtlb_in)."""
    p = _check_order(p, finite=True)
    (value_out, plan_out), (value_in, plan_in) = _rtlb_pair(X, Y, p)
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
        _weight_scale=max(_summary(X).size(np.inf), _summary(Y).size(np.inf)),
    )
