"""Optimal transport solvers.

Three layers: exact transport for arbitrary discrete costs (assignment
for uniform measures, else a column-generation HiGHS LP), closed form 1D
transport, and entropic Sinkhorn iteration (one log-stabilized loop; the
plain form is that loop with absorption off).  The 1D layer is the
one-row case of the TLB kernel's merged-quantile integral
(_kernels.quantile_pow).
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from . import _kernels
from .core import Coupling, DiscreteDistribution, _check_order
from .errors import (
    DomainError,
    InfeasibleError,
    KernelUnderflowError,
    MaxItersExceededError,
    RangeTooWideError,
)

TINY_NORMAL = float(np.finfo(np.float64).tiny)
# largest x with exp(-x) still a normal double; the binding constraint for
# keeping every kernel entry representable after symmetric centering
LOG_RANGE_LIMIT = -float(np.log(TINY_NORMAL))


# ---------------------------------------------------------------------------
# exact transport

def _prob_vector(v, name):
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size == 0 or np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise InfeasibleError(f"{name} must be a nonnegative finite vector")
    if abs(v.sum() - 1.0) > 1e-9:
        raise InfeasibleError(f"{name} must sum to 1, got {v.sum()!r}")
    return v


def _finite_cost(cost):
    cost = np.asarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise InfeasibleError("cost must be finite")
    return cost


def exact_ot(cost, mu, nu):
    """Minimize <cost, plan> over couplings of (mu, nu).

    Returns (Coupling, objective), exact on two routes: an assignment
    (some permutation is optimal) when mu and nu are uniform and one size
    divides the other, otherwise the column-generation HiGHS LP
    (_transport_lp) on the cost scaled by a power of two near 1.
    """
    cost = _finite_cost(cost)
    mu = _prob_vector(mu, "mu")
    nu = _prob_vector(nu, "nu")
    m, n = cost.shape
    if mu.size != m or nu.size != n:
        raise InfeasibleError(
            f"cost shape {cost.shape} does not match marginals "
            f"({mu.size}, {nu.size})"
        )
    small, large = sorted(cost.shape)
    if small > 1 and large % small == 0 and np.ptp(mu) == np.ptp(nu) == 0:
        # tile to L x L, L = large; each assigned cell carries mass 1/L
        tiled = np.repeat(np.repeat(cost, large // m, axis=0), large // n, axis=1)
        rows, cols = linear_sum_assignment(tiled)
        plan = np.zeros((m, n))
        np.add.at(plan, (rows // (large // m), cols // (large // n)), 1.0 / large)
        return Coupling(plan, mu, nu), float(tiled[rows, cols].sum() / large)
    # HiGHS's tolerances are absolute: solve at a power-of-two scale near 1
    _, exponent = np.frexp(np.abs(cost).max())
    lp = _transport_lp(np.ldexp(cost, -exponent), mu, nu)
    return lp.coupling, float(np.ldexp(lp.objective, exponent))


# start support per row and per column; also how many cells a row may gain
# in one pricing round
_START_CELLS = 8
# a cell outside the support enters when its reduced cost is below -_PRICE_TOL
_PRICE_TOL = 1e-12
# HiGHS's tightest feasibility tolerances; at its defaults (1e-7) the LP
# stopped up to 2e-9 relative above the optimum on table1 TLB costs
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class TransportLp(NamedTuple):
    """A _transport_lp solution: the plan, its value and the LP's duals.

    f and g are the row and column potentials of the last restricted LP
    (g[-1] = 0, its constraint being the dropped one); rounds counts the
    restricted solves and cells the final support size.
    """

    coupling: Coupling
    objective: float
    f: np.ndarray
    g: np.ndarray
    rounds: int
    cells: int


def _staircase(mu, nu):
    """North-west-corner path: m + n - 1 cells from (0, 0) to (m-1, n-1).

    A step moves down when the row's cumulative mass ends first, else
    right, so the path carries the north-west-corner plan of (mu, nu)
    and keeps any restricted LP that contains it feasible."""
    ends = np.concatenate([np.cumsum(mu)[:-1], np.cumsum(nu)[:-1]])
    down = (np.arange(ends.size) < mu.size - 1)[np.argsort(ends, kind="stable")]
    return np.concatenate([[0], np.cumsum(down)]), np.concatenate([[0], np.cumsum(~down)])


def _cheapest(values, k):
    """Boolean mask of the k smallest entries of each row of values."""
    if k >= values.shape[1]:
        return np.ones(values.shape, dtype=bool)
    mask = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(mask, np.argpartition(values, k - 1, axis=1)[:, :k], True, axis=1)
    return mask


def _transport_lp(cost, mu, nu):
    """Exact transport on checked inputs by column generation (Schmitzer 2016).

    HiGHS solves the transport LP restricted to a support: the
    _START_CELLS cheapest cells of every row and every column plus the
    north-west-corner path (_staircase), which keeps the restricted LP
    feasible; one redundant column constraint is dropped.  Its duals f, g
    price every cell, and each row gains its most negative reduced costs
    C - f - g outside the support, up to _START_CELLS of them.  The loop
    stops when no outside cell is below -_PRICE_TOL, so the restricted
    optimum is the full one; each round adds a cell, and the full support
    is the dense LP, so it always ends.  A side of at most _START_CELLS
    nodes starts on the full support.  HiGHS runs at its tightest
    feasibility tolerances (_HIGHS_TOLERANCES) and meets the marginals
    only to those, so the plan is rounded onto (mu, nu) with
    _round_to_marginals; the objective is the LP's.
    """
    m, n = cost.shape
    if m == 1:
        plan = nu[None, :].copy()
        return TransportLp(Coupling(plan, mu, nu), float(cost[0] @ nu),
                           np.zeros(1), cost[0].copy(), 0, n)
    if n == 1:
        plan = mu[:, None].copy()
        return TransportLp(Coupling(plan, mu, nu), float(cost[:, 0] @ mu),
                           cost[:, 0].copy(), np.zeros(1), 0, m)
    support = _cheapest(cost, _START_CELLS) | _cheapest(cost.T, _START_CELLS).T
    support[_staircase(mu, nu)] = True
    b_eq = np.concatenate([mu, nu[: n - 1]])
    rounds = 0
    while True:
        rows, cols = np.nonzero(support)
        cells = np.arange(rows.size)
        kept = cols < n - 1
        a_eq = coo_matrix(
            (np.ones(rows.size + kept.sum()),
             (np.concatenate([rows, m + cols[kept]]), np.concatenate([cells, cells[kept]]))),
            shape=(m + n - 1, rows.size),
        )
        res = linprog(cost[rows, cols], A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None),
                      method="highs", options=_HIGHS_TOLERANCES)
        rounds += 1
        if res.status != 0:
            raise InfeasibleError(f"transport LP failed: {res.message}")
        f = res.eqlin.marginals[:m]
        g = np.append(res.eqlin.marginals[m:], 0.0)
        reduced = cost - f[:, None] - g[None, :]
        reduced[support] = 0.0
        short = reduced < -_PRICE_TOL
        if not short.any():
            break
        support |= short & _cheapest(reduced, _START_CELLS)
    plan = np.zeros((m, n))
    plan[rows, cols] = res.x
    plan = _round_to_marginals(plan, mu, nu)
    return TransportLp(Coupling(plan, mu, nu), float(res.fun), f, g, rounds, rows.size)


# ---------------------------------------------------------------------------
# 1D closed forms

def wasserstein_1d(a: DiscreteDistribution, b: DiscreteDistribution, p):
    """W_p between two real distributions via merged quantile breakpoints.

    Evaluates (integral over t in (0,1] of |F^-1(t) - G^-1(t)|^p dt)^(1/p)
    with the right-continuous generalized inverse
    F^-1(t) = inf{u : F(u) >= t}, as the one-row case of
    _kernels.quantile_pow.
    """
    p = _check_order(p, finite=True)
    qa, ca = a.atoms[None, :], a.cumulative[None, :]
    qb, cb = b.atoms[None, :], b.cumulative[None, :]
    grid, seg = _kernels.merged_grid(ca, cb)
    return float(_kernels.quantile_pow(qa, ca, qb, cb, grid, seg, p)[0, 0]) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Sinkhorn stack

@dataclass(frozen=True)
class SinkhornConfig:
    """Regularization and stopping parameters for the Sinkhorn solvers."""

    lam: float
    max_iters: int = 10000
    tolerance: float = 1e-9
    absorb_threshold: float = 1e30

    def __post_init__(self):
        if not (self.lam > 0.0):
            raise DomainError("lam must be > 0")
        if not (self.tolerance > 0.0):
            raise DomainError("tolerance must be > 0")
        if not (self.absorb_threshold > 1.0):
            raise DomainError("absorb_threshold must be > 1")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")


@dataclass(frozen=True)
class KernelState:
    """Stabilized kernel with absorbed log-domain potentials.

    K holds exp(lam * (-cost + u_i + v_j + 2*gamma)); a global exponent
    translation by 2*gamma does not change the Sinkhorn fixed point, it
    only recenters the representable range.
    """

    K: np.ndarray
    u: np.ndarray
    v: np.ndarray
    gamma: float

    def __post_init__(self):
        kmin = float(self.K.min())
        if not (kmin >= TINY_NORMAL) or not np.all(np.isfinite(self.K)):
            raise KernelUnderflowError(
                "kernel entries must be finite and >= the smallest "
                f"positive normal value, min entry {kmin!r}"
            )


@dataclass(frozen=True)
class SinkhornResult:
    """Plan plus solver diagnostics.

    plan is the last iterate rounded onto (mu, nu) by _round_to_marginals;
    marginal_error is the error of the iterate before that rounding.
    """

    plan: Coupling
    iterations: int
    marginal_error: float
    absorptions: int
    kernel_min: float
    kernel_max: float
    converged: bool


def log_initialize(cost, lam) -> KernelState:
    """Initial kernel with exponents recentered about zero.

    Raises RangeTooWide when lam*(max-min)/2 exceeds the largest
    exponent for which every entry stays a normal double; no
    translation can help then.
    """
    cost = _finite_cost(cost)
    lam = float(lam)
    if not lam > 0.0:
        raise DomainError("lam must be > 0")
    alpha = float(cost.min())
    beta = float(cost.max())
    # exponents lam*(-cost + 2*gamma) then lie in +-lam*(beta-alpha)/2
    gamma = (alpha + beta) / 4.0
    half_range = lam * (beta - alpha) / 2.0
    if half_range > LOG_RANGE_LIMIT:
        raise RangeTooWideError(
            f"exponent half-range {half_range:.3g} exceeds "
            f"{LOG_RANGE_LIMIT:.6g}; no translation keeps the kernel "
            "representable"
        )
    K = np.exp(lam * (-cost + 2.0 * gamma))
    return KernelState(
        K=K,
        u=np.zeros(cost.shape[0]),
        v=np.zeros(cost.shape[1]),
        gamma=gamma,
    )


def _marginal_error(plan, mu, nu):
    row = float(np.abs(plan.sum(axis=1) - mu).max())
    col = float(np.abs(plan.sum(axis=0) - nu).max())
    return max(row, col)


def _round_to_marginals(plan, mu, nu):
    """Round a plan onto the couplings of (mu, nu) (Altschuler, Weed &
    Rigollet 2017): clip negative entries, shrink overfull rows, then
    overfull columns, and add a rank-one correction with the leftover
    mass.  Row and column sums land on mu and nu up to floating-point
    rounding (tested to 1e-14); a nonnegative input moves by at most
    2 * (L1 row error + L1 column error) in L1."""
    plan = np.maximum(plan, 0.0)
    rows = plan.sum(axis=1)
    plan = plan * np.minimum(mu / np.where(rows > 0.0, rows, 1.0), 1.0)[:, None]
    cols = plan.sum(axis=0)
    plan = plan * np.minimum(nu / np.where(cols > 0.0, cols, 1.0), 1.0)[None, :]
    er = np.maximum(mu - plan.sum(axis=1), 0.0)
    ec = np.maximum(nu - plan.sum(axis=0), 0.0)
    total = er.sum()
    if total > 0.0:
        plan = plan + np.outer(er, ec) / total
    return plan


def sinkhorn(cost, cfg: SinkhornConfig, mu, nu) -> SinkhornResult:
    """Plain Sinkhorn iteration on K = exp(-lam * cost).

    Raises KernelUnderflow when any kernel entry falls below the
    smallest positive normal double at initialization; use
    sinkhorn_log for such instances.  Runs the sinkhorn_log loop from
    that kernel with absorption switched off.
    """
    cost = _finite_cost(cost)
    with np.errstate(over="ignore", under="ignore"):
        K = np.exp(-cfg.lam * cost)
    state = KernelState(K=K, u=np.zeros(K.shape[0]), v=np.zeros(K.shape[1]), gamma=0.0)
    return sinkhorn_log(
        cost, replace(cfg, absorb_threshold=np.inf), mu, nu, state=state
    )


def sinkhorn_log(cost, cfg: SinkhornConfig, mu, nu, state=None) -> SinkhornResult:
    """Sinkhorn with log-domain absorption of the scaling vectors.

    When max(a, b) exceeds cfg.absorb_threshold the scalings are folded
    into the potentials (u += log(a)/lam) and the kernel is rebuilt as
    exp(lam * (-cost + u_i + v_j + 2*gamma)).  The kernel starts from
    ``state`` (default: log_initialize(cost, cfg.lam)).  The plan
    returned, or carried by MaxItersExceeded, is the last iterate rounded
    onto (mu, nu); see SinkhornResult.
    """
    cost = _finite_cost(cost)
    mu = _prob_vector(mu, "mu")
    nu = _prob_vector(nu, "nu")
    if state is None:
        state = log_initialize(cost, cfg.lam)
    K = state.K
    u = state.u.copy()
    v = state.v.copy()
    gamma = state.gamma
    kernel_min = float(K.min())
    kernel_max = float(K.max())
    a = np.ones(mu.size)
    b = np.ones(nu.size)
    absorptions = 0
    for it in range(1, cfg.max_iters + 1):
        b = nu / (K.T @ a)
        a = mu / (K @ b)
        if max(float(a.max()), float(b.max())) > cfg.absorb_threshold:
            u = u + np.log(a) / cfg.lam
            v = v + np.log(b) / cfg.lam
            with np.errstate(over="ignore", under="ignore"):
                K = np.exp(
                    cfg.lam * (-cost + u[:, None] + v[None, :] + 2.0 * gamma)
                )
            if not np.all(np.isfinite(K)):
                raise KernelUnderflowError(
                    "absorbed kernel overflowed; lower lam or raise "
                    "absorb_threshold"
                )
            # keep the kernel strictly positive (the convergence theorem
            # needs K > 0); the clamp moves the fixed point by less than
            # tiny * threshold^2, far below any usable tolerance
            K = np.maximum(K, TINY_NORMAL)
            a = np.ones(mu.size)
            b = np.ones(nu.size)
            absorptions += 1
            kernel_min = min(kernel_min, float(K.min()))
            kernel_max = max(kernel_max, float(K.max()))
        plan = a[:, None] * K * b[None, :]
        err = _marginal_error(plan, mu, nu)
        if err <= cfg.tolerance or not np.isfinite(err):
            break
    # a non-finite or all-zero iterate has nothing to round
    usable = np.all(np.isfinite(plan)) and float(plan.sum()) > 0.0
    result = SinkhornResult(
        plan=Coupling(_round_to_marginals(plan, mu, nu), mu, nu) if usable else None,
        iterations=it,
        marginal_error=err,
        absorptions=absorptions,
        kernel_min=kernel_min,
        kernel_max=kernel_max,
        converged=err <= cfg.tolerance,
    )
    if result.converged:
        return result
    raise MaxItersExceededError(
        f"marginal error {err!r} after {it} iterations "
        f"(tolerance {cfg.tolerance})",
        partial=result,
    )
