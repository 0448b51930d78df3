"""Optimal transport solvers.

Three layers: exact transport for arbitrary discrete costs (assignment
for uniform measures, else a column-generation HiGHS LP), closed form 1D
transport, and entropic Sinkhorn iteration (one log-stabilized loop; the
plain form is that loop with absorption off).  The 1D layer is the
one-row case of the TLB kernel's merged-quantile integral
(_kernels.quantile_pow).
"""

from dataclasses import dataclass
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


def _checked(cost, mu, nu):
    """cost, mu and nu as float arrays, checked in that order: a finite
    cost, two probability vectors, and sizes that match the cost's shape;
    InfeasibleError otherwise."""
    cost = np.asarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise InfeasibleError("cost must be finite")
    mu = _prob_vector(mu, "mu")
    nu = _prob_vector(nu, "nu")
    if cost.shape != (mu.size, nu.size):
        raise InfeasibleError(
            f"cost shape {cost.shape} does not match marginals "
            f"({mu.size}, {nu.size})"
        )
    return cost, mu, nu


def exact_ot(cost, mu, nu):
    """Minimize <cost, plan> over couplings of (mu, nu).

    Returns (Coupling, objective), exact on three routes: the forced plan
    of one row or column, an assignment (some permutation is optimal) when
    mu and nu are uniform and one size divides the other, otherwise the
    column-generation HiGHS LP (_transport_lp; objective in cost units).
    """
    cost, mu, nu = _checked(cost, mu, nu)
    m, n = cost.shape
    # one row or column: the plan is forced (the LP's plan can be an ulp off)
    if m == 1:
        return Coupling(nu[None, :].copy(), mu, nu), float(cost[0] @ nu)
    if n == 1:
        return Coupling(mu[:, None].copy(), mu, nu), float(cost[:, 0] @ mu)
    small, large = sorted(cost.shape)
    if large % small == 0 and np.ptp(mu) == np.ptp(nu) == 0:
        # tile to L x L, L = large; each assigned cell carries mass 1/L
        tiled = np.repeat(np.repeat(cost, large // m, axis=0), large // n, axis=1)
        rows, cols = linear_sum_assignment(tiled)
        plan = np.zeros((m, n))
        np.add.at(plan, (rows // (large // m), cols // (large // n)), 1.0 / large)
        return Coupling(plan, mu, nu), float(tiled[rows, cols].sum() / large)
    lp = _transport_lp(cost, mu, nu)
    return lp.coupling, lp.objective


# start support per row and per column; also how many cells a row may gain
# in one pricing round
_START_CELLS = 8
# a cell outside the support enters when its scaled reduced cost is below -_PRICE_TOL
_PRICE_TOL = 1e-12
# HiGHS's tightest feasibility tolerances; at its defaults (1e-7) the LP
# stopped up to 2e-9 relative above the optimum on table1 TLB costs
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class TransportLp(NamedTuple):
    """A _transport_lp solution: the plan, its value and the LP's duals.

    objective and the row and column potentials f, g of the last
    restricted LP are in the caller's cost units (g[-1] = 0, its
    constraint being the dropped one); rounds counts the restricted
    solves and cells the final support size.
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

    HiGHS's tolerances are absolute, so it sees C scaled exactly by the
    power of two that puts max|C| in [0.5, 1); objective, f and g come
    back in C's units.  HiGHS solves the LP restricted to a support: the
    _START_CELLS cheapest cells of every row and every column plus the
    north-west-corner path (_staircase), which keeps the restricted LP
    feasible; one redundant column constraint is dropped.  Its duals f, g
    price every cell, and each row gains its most negative reduced costs
    C - f - g outside the support, up to _START_CELLS of them.  The loop
    stops when no outside cell is below -_PRICE_TOL (scaled), so the
    restricted optimum is the full one; each round adds a cell, and the
    full support is the dense LP, so it always ends.  Both sides have two
    nodes or more (exact_ot decides a one-row or one-column cost); a side
    of at most _START_CELLS nodes starts on the full support.  HiGHS runs
    at its tightest feasibility tolerances (_HIGHS_TOLERANCES) and meets
    the marginals only to those, so the plan is rounded onto (mu, nu) with
    _round_to_marginals; the objective is the LP's.
    """
    m, n = cost.shape
    _, exponent = np.frexp(np.abs(cost).max())
    cost = np.ldexp(cost, -exponent)
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
    return TransportLp(Coupling(plan, mu, nu), float(np.ldexp(res.fun, exponent)),
                       np.ldexp(f, exponent), np.ldexp(g, exponent), rounds, rows.size)


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
    qa, ba = a.atoms[None, :], _kernels.breaks(a.cumulative[None, :])
    qb, bb = b.atoms[None, :], _kernels.breaks(b.cumulative[None, :])
    return float(_kernels.quantile_pow(qa, ba, qb, bb, p)[0, 0]) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Sinkhorn stack

# iterations between two checks of the Sinkhorn loop, and the cost cells
# (m * n) over which the batch shrinks toward one iteration (_batch_size).
# One BLAS thread, 2-core x86-64: an iteration took 11-17 us checked every
# time on 50x50 to 100x100 costs, 4-12 us in batches of 32 and 6-14 us in
# batches of 8; on 283x283 to 566x566 costs batches gained nothing beyond
# the noise (72-375 us an iteration), so the batch is 32 up to 1e4 cells,
# 8 at 200x200 and 1 from 566x566 on, where a solve wastes nothing past
# its stop
SINKHORN_BATCH = 32
SINKHORN_BATCH_CELLS = 3.2e5

# _scaling's Newton finish.  Its stall tests sit at NEWTON_FIRST_TEST * 2^k
# iterations and fire when the column error fell by less than
# NEWTON_STALL_RATIO since half that iteration; an error falling as
# 1 / iterations halves there.  On the inner solves of max-abs normalized
# table1 (per_class 1, seed 0, lam 100) they fire on the three solves that
# stall at 10,000 iterations and on one that converged at 5,567, and on
# none of the other 263.  A finish may take NEWTON_STEPS steps (those four
# took 4-10, random costs with lam * range up to 700 up to 18); a step's
# conjugate gradients stop at relative residual NEWTON_CG_TOL or after
# NEWTON_CG_ITERS iterations (6-56 on the table1 draws of seeds 0 and 2),
# and its Armijo backtracking (constant NEWTON_ARMIJO) halves the length
# at most NEWTON_HALVINGS times
NEWTON_FIRST_TEST = 128
NEWTON_STALL_RATIO = 4.0
NEWTON_STEPS = 30
NEWTON_CG_ITERS = 200
NEWTON_CG_TOL = 1e-8
NEWTON_ARMIJO = 1e-4
NEWTON_HALVINGS = 30


@dataclass(frozen=True)
class SinkhornConfig:
    """Regularization and stopping parameters for the Sinkhorn solvers."""

    lam: float
    max_iters: int = 10000
    tolerance: float = 1e-9
    absorb_threshold: float = 1e30

    def __post_init__(self):
        if not (0.0 < self.lam < np.inf):
            raise DomainError(f"lam must be finite and > 0, got {self.lam}")
        if not (0.0 < self.tolerance < np.inf):
            raise DomainError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if not (self.absorb_threshold > 1.0):
            raise DomainError("absorb_threshold must be > 1")
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise DomainError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class SinkhornResult:
    """Plan plus solver diagnostics.

    plan is the last iterate rounded onto (mu, nu) by _round_to_marginals;
    marginal_error is the column error max|b * (K^T a) - nu| of the iterate
    before that rounding, whose rows match mu to rounding after the
    a-update.  iterations counts scaling iterations and the Newton steps
    of a solve that _scaling finishes by them, one each, so
    SinkhornConfig.max_iters bounds both together.
    """

    plan: Coupling
    iterations: int
    marginal_error: float
    absorptions: int
    kernel_min: float
    kernel_max: float
    converged: bool


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

    Checks cost, mu and nu (see _checked), then the kernel: it raises
    KernelUnderflow when an entry is infinite or below the smallest
    positive normal double; use sinkhorn_log for such instances.  Runs
    the sinkhorn_log loop, Newton finish included, at gamma = 0 with
    absorption switched off.
    """
    cost, mu, nu = _checked(cost, mu, nu)
    return _scaling(cost, cfg, mu, nu, 0.0, np.inf)


def sinkhorn_log(cost, cfg: SinkhornConfig, mu, nu) -> SinkhornResult:
    """Sinkhorn with log-domain absorption of the scaling vectors.

    The kernel is exp(lam * (-cost + u_i + v_j + 2*gamma)) with the
    potentials u, v starting at zero.  gamma = (min + max) / 4 of the
    cost is a global shift that leaves the fixed point unchanged and
    centres the starting exponents in +-lam*(max - min)/2.  Checks cost,
    mu and nu (see _checked), then raises RangeTooWide when that
    half-range exceeds LOG_RANGE_LIMIT, where no shift keeps every entry
    a normal double.  When max(a, b) exceeds cfg.absorb_threshold the
    scalings are folded into the potentials (u += log(a)/lam) and the
    kernel is rebuilt.  The plan returned, or carried by MaxItersExceeded,
    is the last iterate rounded onto (mu, nu); see SinkhornResult.  The
    loop tests for absorption and for its stop once per batch of
    iterations; every iterate up to the first one that absorbs or stops is
    computed as by a loop testing every iteration, so results are the
    same bit for bit.  A solve whose column error stalls (tested from
    iteration NEWTON_FIRST_TEST on) is finished by Newton steps on the
    potentials; it then converges within the tolerance, and otherwise
    ends bit for bit as the scaling loop alone ends it (see _scaling).
    """
    cost, mu, nu = _checked(cost, mu, nu)
    alpha, beta = float(cost.min()), float(cost.max())
    half_range = cfg.lam * (beta - alpha) / 2.0
    if half_range > LOG_RANGE_LIMIT:
        raise RangeTooWideError(
            f"exponent half-range {half_range:.3g} exceeds "
            f"{LOG_RANGE_LIMIT:.6g}; no translation keeps the kernel "
            "representable"
        )
    return _scaling(cost, cfg, mu, nu, (alpha + beta) / 4.0, cfg.absorb_threshold)


def _kernel(cost, lam, u, v, gamma):
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(lam * (-cost + u[:, None] + v[None, :] + 2.0 * gamma))


def _batch_size(m, n):
    """Iterations _scaling runs between two checks on an m x n cost."""
    return max(1, min(SINKHORN_BATCH, int(SINKHORN_BATCH_CELLS // (m * n))))


def _newton_step(K, a, b, kta, mu, nu):
    """One Newton step on the dual of the entropic problem, then one row
    update: (a, b, K^T a, column error) of the new iterate, or None when
    the step fails.

    The plan is P = diag(a) K diag(b); the step moves the log-scalings
    by (x, y), P_ij -> P_ij exp(x_i + y_j), to solve
    [diag(r) P; P^T diag(c)] (x, y) = (mu - r, nu - c), r and c the row
    and column sums of P.  With x eliminated, y solves the Schur
    complement diag(c) - P^T diag(1/r) P, whose kernel is the constant
    vector, so y[-1] = 0 and the other n - 1 entries come from
    preconditioned conjugate gradients (Jacobi preconditioner; two
    products with P per iteration; no dense solve).  Armijo backtracking
    on the dual objective <x, mu> + <y, nu> - sum(P exp(x + y)), whose
    change is formed from expm1 terms so that it keeps its digits near
    the optimum, picks the length t.  The step keeps b exp(t y) and then
    updates the rows, a = mu / (K b) as in the loop, which maximizes the
    objective over x and so gains at least what t x would.  The step
    fails, and leaves the caller's arrays as they were, when a row sum or
    a preconditioner entry is not positive and finite, the conjugate
    gradients break down, no length passes the Armijo test, or the new
    iterate's error is not finite.  Its floating-point warnings are
    silenced: a plan whose entries underflow is a case for these checks.
    """
    n = b.size
    with np.errstate(all="ignore"):
        P = K * a[:, None]
        P *= b
        r = P.sum(axis=1)
        c = b * kta
        diag = c - (1.0 / r).dot(P * P)
        if not (np.all(r > 0.0) and np.all(diag[:-1] > 0.0) and np.all(np.isfinite(diag))):
            return None
        er, ec = mu - r, nu - c

        def schur(z):
            full = np.append(z, 0.0)
            return (c * full - P.T.dot(P.dot(full) / r))[:-1]

        rhs = (ec - P.T.dot(er / r))[:-1]
        precond = 1.0 / diag[:-1]
        z = np.zeros(n - 1)
        res = rhs
        s = precond * res
        d = s
        rs = res.dot(s)
        stop = (NEWTON_CG_TOL * np.linalg.norm(rhs)) ** 2
        for _ in range(NEWTON_CG_ITERS):
            sd = schur(d)
            curvature = d.dot(sd)
            if not (curvature > 0.0 and np.isfinite(curvature)):
                return None
            step = rs / curvature
            z = z + step * d
            res = res - step * sd
            if res.dot(res) <= stop:
                break
            s = precond * res
            rs, rs_old = res.dot(s), rs
            d = s + (rs / rs_old) * d
        y = np.append(z, 0.0)
        x = (er - P.dot(y)) / r
        slope = er.dot(x) + ec.dot(y)
        if not (slope > 0.0 and np.isfinite(slope)):
            return None
        t = 1.0
        for _ in range(NEWTON_HALVINGS):
            ex, ey = np.expm1(t * x), np.expm1(t * y)
            gain = t * (mu.dot(x) + nu.dot(y)) - r.dot(ex) - c.dot(ey) - ex.dot(P.dot(ey))
            if gain >= NEWTON_ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return None
        b = b * (ey + 1.0)
        a = mu / K.dot(b)
        kta = K.T.dot(a)
        err = float(np.abs(b * kta - nu).max())
    if not np.isfinite(err):
        return None
    return a, b, kta, err


def _absorbed(cost, lam, gamma, nu, u, v, a, b):
    """The same iterate with a, b folded into the potentials: (u, v, K,
    a, b, K^T a, column error), K rebuilt and a, b back at ones; or None
    when K overflows.  Its rows match mu, its columns decide the stop."""
    u = u + np.log(a) / lam
    v = v + np.log(b) / lam
    K = _kernel(cost, lam, u, v, gamma)
    if not np.all(np.isfinite(K)):
        return None
    # keep the kernel strictly positive (the convergence theorem needs
    # K > 0); the clamp moves the fixed point by less than
    # tiny * threshold^2, far below any usable tolerance
    K = np.maximum(K, TINY_NORMAL)
    a, b = np.ones(a.size), np.ones(b.size)
    kta = K.T.dot(a)
    return u, v, K, a, b, kta, float(np.abs(b * kta - nu).max())


def _newton_finish(cost, cfg, mu, nu, gamma, absorb_threshold, state, budget):
    """Newton steps from state = (u, v, K, a, b, K^T a) until the column
    error is within the tolerance: the steps taken, (u, v, K, a, b) then,
    the error, and the (min, max) of each kernel absorbed on the way; or
    None when a step fails, an absorbed kernel overflows or budget steps
    do not get there.  Each step is followed by the loop's absorption
    test, and an absorption by _absorbed, as in the loop."""
    u, v, K, a, b, kta = state
    kernels = []
    for steps in range(1, budget + 1):
        step = _newton_step(K, a, b, kta, mu, nu)
        if step is None:
            return None
        a, b, kta, err = step
        if max(float(a.max()), float(b.max())) > absorb_threshold:
            absorbed = _absorbed(cost, cfg.lam, gamma, nu, u, v, a, b)
            if absorbed is None:
                return None
            u, v, K, a, b, kta, err = absorbed
            kernels.append((float(K.min()), float(K.max())))
        if err <= cfg.tolerance:
            return steps, (u, v, K, a, b), err, kernels
    return None


def _scaling(cost, cfg, mu, nu, gamma, absorb_threshold):
    """The Sinkhorn loop on checked inputs.  Its kernel starts from zero
    potentials, where it must be finite with every entry a normal double
    (else KernelUnderflow), and is rebuilt at every absorption.

    One iteration is b = nu / (K^T a), a = mu / (K b).  Then, when
    max(a, b) exceeds absorb_threshold, the scalings are folded into the
    potentials and a, b restart at ones on the rebuilt kernel.  The loop
    stops when the column error max|b * (K^T a) - nu| is within the
    tolerance or not finite; K^T a is also the next b-update's divisor.

    The iterations run in batches of _batch_size(m, n), each writing its
    a, b and K^T a into one row of preallocated buffers, and the
    absorption and stop tests run once per batch on every row.  Up to the
    first row that absorbs or stops, each row is the iterate a loop
    testing after every iteration computes, from the same inputs by the
    same operations, so the plans, iteration counts, errors and messages
    are the same bit for bit; the loop resumes from that row, and the
    rows after it are dropped.  The batch shrinks with m * n, down to one
    iteration on large costs, so a solve there computes nothing past its
    stop.

    A solve whose error stalls is finished by Newton steps.  At
    iterations NEWTON_FIRST_TEST, 2 * NEWTON_FIRST_TEST, 4 *
    NEWTON_FIRST_TEST and so on (batches end there) the loop compares
    the column error with the one at half that iteration; when it has
    fallen by less than NEWTON_STALL_RATIO, the scaling iteration is
    converging sublinearly or slowly, and _newton_finish takes Newton
    steps, each counted as one iteration and followed by the same
    absorption test, until the error is within the tolerance.  A finish
    that fails (a step fails, a kernel overflows, or NEWTON_STEPS steps,
    or the steps left in the budget, do not reach the tolerance) is
    dropped whole: the loop goes on from the state it had, its steps are
    not counted, and no other finish is tried in that solve.  So a solve
    ends either converged within the tolerance by Newton steps or exactly
    as the scaling loop alone ends it, bit for bit; one that stops by
    iteration NEWTON_FIRST_TEST never takes a step, and a solve does at
    most NEWTON_STEPS uncounted steps on top of its iterations.
    """
    m, n = mu.size, nu.size
    lam, tolerance = cfg.lam, cfg.tolerance
    u = np.zeros(m)
    v = np.zeros(n)
    K = _kernel(cost, lam, u, v, gamma)
    # the (min, max) of every kernel the solve builds, this one first
    kernels = [(float(K.min()), float(K.max()))]
    low, high = kernels[0]
    if not (low >= TINY_NORMAL and high < np.inf):
        raise KernelUnderflowError(
            "kernel entries must be finite and >= the smallest positive "
            f"normal value, entries span [{low!r}, {high!r}]"
        )
    KT = K.T
    batch = _batch_size(m, n)
    A, B, KTA = np.empty((batch, m)), np.empty((batch, n)), np.empty((batch + 1, n))
    kb = np.empty(m)
    # row r of each buffer holds iteration r of the batch; it reads
    # K^T a from KTA[r] and writes its own to KTA[r + 1]
    rows = list(zip(A, B, KTA[:-1], KTA[1:]))
    KT.dot(np.ones(m), out=KTA[0])
    it = 0
    # the next stall test, the error at the last one, and whether a
    # Newton finish may still be tried
    test, tested_err, newton = NEWTON_FIRST_TEST // 2, None, True
    while True:
        k = min(batch, cfg.max_iters - it, test - it)
        for a, b, kta, kta_next in rows[:k]:
            np.divide(nu, kta, out=b)
            K.dot(b, out=kb)
            np.divide(mu, kb, out=a)
            KT.dot(a, out=kta_next)
        # Python's max(a_max, b_max) keeps a_max unless b_max is larger,
        # NaN included
        a_max, b_max = A[:k].max(axis=1), B[:k].max(axis=1)
        absorbs = np.where(b_max > a_max, b_max, a_max) > absorb_threshold
        errs = np.abs(B[:k] * KTA[1:k + 1] - nu).max(axis=1)
        stops = (errs <= tolerance) | ~np.isfinite(errs)
        events = np.flatnonzero(absorbs | stops)
        r = int(events[0]) if events.size else k - 1
        it += r + 1
        a, b, err = A[r], B[r], float(errs[r])
        if events.size and absorbs[r]:
            absorbed = _absorbed(cost, lam, gamma, nu, u, v, a, b)
            if absorbed is None:
                raise KernelUnderflowError(
                    "absorbed kernel overflowed; lower lam or raise "
                    "absorb_threshold"
                )
            u, v, K, a, b, KTA[0], err = absorbed
            KT = K.T
            kernels.append((float(K.min()), float(K.max())))
            if err <= tolerance or not np.isfinite(err):
                break
        elif events.size:
            break
        else:
            KTA[0] = KTA[k]
        if it == cfg.max_iters:
            break
        if it == test:
            stalled = tested_err is not None and err * NEWTON_STALL_RATIO > tested_err
            test, tested_err = 2 * test, err
            if stalled and newton:
                newton = False
                finish = _newton_finish(cost, cfg, mu, nu, gamma, absorb_threshold,
                                        (u, v, K, a, b, KTA[0]),
                                        min(NEWTON_STEPS, cfg.max_iters - it))
                if finish is not None:
                    steps, (u, v, K, a, b), err, spans = finish
                    it += steps
                    kernels += spans
                    break
    plan = a[:, None] * K * b[None, :]
    # a non-finite or all-zero iterate has nothing to round
    usable = np.all(np.isfinite(plan)) and float(plan.sum()) > 0.0
    result = SinkhornResult(
        plan=Coupling(_round_to_marginals(plan, mu, nu), mu, nu) if usable else None,
        iterations=it,
        marginal_error=err,
        absorptions=len(kernels) - 1,
        kernel_min=min(low for low, _ in kernels),
        kernel_max=max(high for _, high in kernels),
        converged=err <= cfg.tolerance,
    )
    if result.converged:
        return result
    raise MaxItersExceededError(
        f"marginal error {err!r} after {it} iterations "
        f"(tolerance {cfg.tolerance})",
        partial=result,
    )
