"""Optimal transport solvers.

Three layers: an exact LP solver for arbitrary discrete costs, closed
form 1D transport via merged quantile breakpoints, and entropically
regularized Sinkhorn iteration (one log-stabilized loop; the plain form
is that loop with absorption off).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, vstack

from .core import Coupling, DiscreteDistribution, MARGINAL_TOL
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


def exact_ot(cost, mu, nu):
    """Minimize <cost, plan> over couplings of (mu, nu).

    Returns (Coupling, objective).  The LP is solved exactly (HiGHS
    dual simplex); one redundant marginal constraint is dropped.
    """
    cost = np.asarray(cost, dtype=np.float64)
    mu = _prob_vector(mu, "mu")
    nu = _prob_vector(nu, "nu")
    m, n = cost.shape
    if mu.size != m or nu.size != n:
        raise InfeasibleError(
            f"cost shape {cost.shape} does not match marginals "
            f"({mu.size}, {nu.size})"
        )
    if not np.all(np.isfinite(cost)):
        raise InfeasibleError("cost must be finite")
    if m == 1:
        plan = nu[None, :].copy()
        return Coupling(plan, mu, nu), float(cost[0] @ nu)
    if n == 1:
        plan = mu[:, None].copy()
        return Coupling(plan, mu, nu), float(cost[:, 0] @ mu)
    row_con = coo_matrix(
        (np.ones(m * n), (np.repeat(np.arange(m), n), np.arange(m * n))),
        shape=(m, m * n),
    )
    col_idx = np.arange(m * n).reshape(m, n)[:, : n - 1].ravel()
    col_con = coo_matrix(
        (np.ones(m * (n - 1)), (np.tile(np.arange(n - 1), m), col_idx)),
        shape=(n - 1, m * n),
    )
    a_eq = vstack([row_con.tocsr(), col_con.tocsr()])
    b_eq = np.concatenate([mu, nu[: n - 1]])
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise InfeasibleError(f"transport LP failed: {res.message}")
    plan = np.maximum(res.x.reshape(m, n), 0.0)
    return Coupling(plan, mu, nu), float(res.fun)


# ---------------------------------------------------------------------------
# 1D closed forms

def wasserstein_1d(a: DiscreteDistribution, b: DiscreteDistribution, p):
    """W_p between two real distributions via merged quantile breakpoints.

    Evaluates (integral over t in (0,1] of |F^-1(t) - G^-1(t)|^p dt)^(1/p)
    with the right-continuous generalized inverse
    F^-1(t) = inf{u : F(u) >= t}.
    """
    p = float(p)
    if not (p >= 1.0) or np.isinf(p):
        raise DomainError(f"order p must be finite and >= 1, got {p}")
    cw_a = a.cumulative
    cw_b = b.cumulative
    grid = np.unique(np.concatenate([cw_a, cw_b]))
    grid = grid[grid > 0.0]
    qa = a.atoms[np.searchsorted(cw_a, grid, side="left")]
    qb = b.atoms[np.searchsorted(cw_b, grid, side="left")]
    seg = np.diff(np.concatenate([[0.0], grid]))
    diff = np.abs(qa - qb)
    if p == 1.0:
        return float(seg @ diff)
    if p == 2.0:
        return float(np.sqrt(seg @ (diff * diff)))
    return float(seg @ diff**p) ** (1.0 / p)


def wasserstein_1d_p1(a: DiscreteDistribution, b: DiscreteDistribution):
    """W_1 via the CDF-area formula: integral of |F - G| over the line."""
    locs = np.unique(np.concatenate([a.atoms, b.atoms]))
    if locs.size == 1:
        return 0.0
    cw_a = a.cumulative
    cw_b = b.cumulative
    ia = np.searchsorted(a.atoms, locs, side="right") - 1
    ib = np.searchsorted(b.atoms, locs, side="right") - 1
    fa = np.where(ia >= 0, cw_a[np.maximum(ia, 0)], 0.0)
    fb = np.where(ib >= 0, cw_b[np.maximum(ib, 0)], 0.0)
    widths = np.diff(locs)
    return float(widths @ np.abs(fa - fb)[:-1])


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
    """Converged plan plus solver diagnostics."""

    plan: Coupling
    iterations: int
    marginal_error: float
    absorptions: int
    kernel_min: float
    kernel_max: float
    converged: bool

    @property
    def coupling(self):
        return self.plan


def decide_param(alpha, beta) -> float:
    """Exponent translation gamma = (alpha+beta)/4.

    Centers the kernel exponents lam*(-M + 2*gamma) symmetrically in
    [-lam*(beta-alpha)/2, +lam*(beta-alpha)/2].
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha > beta:
        raise ValueError("alpha must be <= beta")
    return (alpha + beta) / 4.0


def log_initialize(cost, lam) -> KernelState:
    """Initial kernel with exponents recentered about zero.

    Raises RangeTooWide when lam*(max-min)/2 exceeds the largest
    exponent for which every entry stays a normal double; no
    translation can help then.
    """
    cost = np.asarray(cost, dtype=np.float64)
    lam = float(lam)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost must be finite")
    if lam <= 0.0:
        raise ValueError("lam must be > 0")
    alpha = float(cost.min())
    beta = float(cost.max())
    gamma = decide_param(alpha, beta)
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


def _result_coupling(plan, mu, nu, err):
    if err <= MARGINAL_TOL:
        return Coupling(plan, mu, nu)
    return Coupling(plan, plan.sum(axis=1), plan.sum(axis=0))


def _partial_coupling(plan):
    # best-effort coupling for the last iterate; None when degenerate
    if not np.all(np.isfinite(plan)) or float(plan.sum()) <= 0.0:
        return None
    clipped = np.maximum(plan, 0.0)
    return Coupling(clipped, clipped.sum(axis=1), clipped.sum(axis=0))


def sinkhorn(cost, cfg: SinkhornConfig, mu, nu) -> SinkhornResult:
    """Plain Sinkhorn iteration on K = exp(-lam * cost).

    Raises KernelUnderflow when any kernel entry falls below the
    smallest positive normal double at initialization; use
    sinkhorn_log for such instances.  Runs the sinkhorn_log loop from
    that kernel with absorption switched off.
    """
    cost = np.asarray(cost, dtype=np.float64)
    mu = _prob_vector(mu, "mu")
    nu = _prob_vector(nu, "nu")
    with np.errstate(over="ignore", under="ignore"):
        K = np.exp(-cfg.lam * cost)
    state = KernelState(K=K, u=np.zeros(mu.size), v=np.zeros(nu.size), gamma=0.0)
    return sinkhorn_log(
        cost, replace(cfg, absorb_threshold=np.inf), mu, nu, state=state
    )


def sinkhorn_log(cost, cfg: SinkhornConfig, mu, nu, state=None) -> SinkhornResult:
    """Sinkhorn with log-domain absorption of the scaling vectors.

    When max(a, b) exceeds cfg.absorb_threshold the scalings are folded
    into the potentials (u += log(a)/lam) and the kernel is rebuilt as
    exp(lam * (-cost + u_i + v_j + 2*gamma)).  The kernel starts from
    ``state`` (default: log_initialize(cost, cfg.lam)).
    """
    cost = np.asarray(cost, dtype=np.float64)
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
    err = np.inf
    plan = a[:, None] * K * b[None, :]
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
        if err <= cfg.tolerance:
            return SinkhornResult(
                plan=_result_coupling(plan, mu, nu, err),
                iterations=it,
                marginal_error=err,
                absorptions=absorptions,
                kernel_min=kernel_min,
                kernel_max=kernel_max,
                converged=True,
            )
        if not np.isfinite(err):
            break
    partial = SinkhornResult(
        plan=_partial_coupling(plan),
        iterations=it,
        marginal_error=err,
        absorptions=absorptions,
        kernel_min=kernel_min,
        kernel_max=kernel_max,
        converged=False,
    )
    raise MaxItersExceededError(
        f"marginal error {err!r} after {it} iterations "
        f"(tolerance {cfg.tolerance})",
        partial=partial,
    )
