"""Network GW distance: entropic solver, exact tiny-instance oracle, cosine rule."""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    Coupling,
    MeasureNetwork,
    _check_marginals,
    _check_order,
    _Dis2,
    distortion,
    product_coupling,
)
from .errors import (
    DomainError,
    InstanceTooLargeError,
    KernelUnderflowError,
    MaxItersExceededError,
    RangeTooWideError,
)
# _round_to_marginals is not called here, but perfbench's gw.round span patches
# netgw.gw._round_to_marginals
from .ot import SinkhornConfig, _round_to_marginals, sinkhorn_log  # noqa: F401

BRUTEFORCE_CELL_LIMIT = 9

# entropic_gw's cycle check also asks that the gap to the anchor be this far
# below the step just taken.  The orbits of normalized table1 at lam 100 come
# back within 5e-15 to 2e-9 against steps near 0.6.  A plan oscillating onto
# a fixed point, q_k = q + (-r)^k D, keeps gap / step >= (1 - r) / r at every
# lag, so it could pass only if its step shrank by less than a millionth per
# iteration.
CYCLE_GAP_RATIO = 1e-6


@dataclass(frozen=True)
class GwResult:
    """Outcome of an entropic GW run.

    value is dis_2(final plan) / 2, an upper-bound estimate of d_{N,2};
    converged=False means the outer loop hit its budget, found the plan
    in a periodic orbit, or the inner solver gave up, and the plan is the
    last usable iterate.  cycle is the orbit's period when the cycle
    check stopped the run, and 0 otherwise.  inner_stalls counts inner
    solves that ran out of iterations and were continued from their
    partial plan: solves whose error stalled and whose Newton finish
    failed too (see ot._scaling), or that ran out of budget while the
    error still fell; inner_iterations totals the Sinkhorn iterations
    (Newton steps included) of every inner solve, stalled ones included.
    """

    coupling: Coupling
    value: float
    iterations: int
    converged: bool
    inner_error: str | None = None
    inner_stalls: int = 0
    cycle: int = 0
    inner_iterations: int = 0


def _linearized_cost(dis2, plan):
    # M(i,j) = sum_{k,l} (wx[i,k] - wy[j,l])^2 plan[k,l], expanded by _Dis2
    return dis2.ex[:, None] + dis2.ey[None, :] - 2.0 * dis2.cross(plan)


def entropic_gw(
    X: MeasureNetwork,
    Y: MeasureNetwork,
    config: SinkhornConfig,
    outer_iters: int = 200,
    plan_tol: float = 1e-8,
    init: Coupling | None = None,
) -> GwResult:
    """Alternate linearization and entropic OT until the plan stops moving.

    Order p=2 only: the linearized cost splits into two matmuls there.
    The first linearization is at init, a Coupling of the two measures
    (diagonal_coupling(X.measure) starts from the identity), or at the
    product coupling when init is None.  Inner solves run in the
    log-stabilized regime.

    The run converges when a new plan is within plan_tol (L1) of the one
    before.  Failing that, it stops with converged=False when the new
    plan is within plan_tol of an anchor plan, and that gap is at most
    CYCLE_GAP_RATIO times the step just taken: Brent's cycle check, which
    moves the anchor to the current plan whenever the lag since the last
    move reaches a power of two, so an orbit of period L entered at outer
    iteration t is caught before iteration 2 * max(t + 1, L) + L.  cycle
    then holds the lag L.
    The check only reads the iterates.  A plan that approaches a fixed
    point geometrically, oscillating or not, is taken for an orbit only if
    its step shrinks by less than CYCLE_GAP_RATIO per outer iteration;
    short of that, such a run converges at the same iteration with the
    same plan as without the check.  A blown-up inner solve does not
    raise; the result just reports converged=False.
    A run stopped by the cycle check, the budget or the inner solver
    reports value = dis_2 / 2 of its last plan, an upper bound on
    d_{N,2} but not an estimate of it.
    """
    if outer_iters < 1:
        raise DomainError(f"outer_iters must be >= 1, got {outer_iters}")
    if not (plan_tol > 0.0):
        raise DomainError(f"plan_tol must be > 0, got {plan_tol}")
    if init is None:
        init = product_coupling(X.measure, Y.measure)
    elif not isinstance(init, Coupling):
        raise DomainError(f"init must be a Coupling or None, got {init!r}")
    _check_marginals(X, Y, init)
    dis2 = _Dis2(X, Y)
    plan = init.plan

    converged = False
    inner_error = None
    inner_stalls = 0
    inner_iterations = 0
    iterations = 0
    cycle = 0
    anchor, lag, power = plan, 0, 1
    for iterations in range(1, outer_iters + 1):
        cost = _linearized_cost(dis2, plan)
        try:
            inner = sinkhorn_log(cost, config, X.measure, Y.measure)
            inner_iterations += inner.iterations
            new_plan = inner.plan.plan
        except MaxItersExceededError as err:
            # a stalled inner solve still carries a usable plan, already
            # rounded onto the marginals; keep alternating from it
            inner_iterations += err.partial.iterations
            if err.partial.plan is None:
                inner_error = "inner solver diverged"
                break
            new_plan = err.partial.plan.plan
            inner_stalls += 1
        except (KernelUnderflowError, RangeTooWideError) as err:
            inner_error = f"{type(err).__name__}: {err}"
            break
        delta = np.abs(new_plan - plan).sum()
        plan = new_plan
        if delta <= plan_tol:
            converged = True
            break
        lag += 1
        gap = np.abs(plan - anchor).sum()
        if gap <= plan_tol and gap <= CYCLE_GAP_RATIO * delta:
            cycle = lag
            break
        if lag == power:
            anchor, lag, power = plan, 0, 2 * power

    coupling = Coupling(plan=plan, row_marginal=X.measure, col_marginal=Y.measure)
    value = 0.5 * distortion(X, Y, coupling, 2.0)
    return GwResult(
        coupling=coupling,
        value=value,
        iterations=iterations,
        converged=converged,
        inner_error=inner_error,
        inner_stalls=inner_stalls,
        cycle=cycle,
        inner_iterations=inner_iterations,
    )


def gw_bruteforce(X: MeasureNetwork, Y: MeasureNetwork, p) -> GwResult:
    """d_{N,p} of a tiny pair (m*n <= BRUTEFORCE_CELL_LIMIT), exactly.

    For finite p, dis_p^p(P) = vec(P)^T G vec(P) with G[(i,j),(k,l)] =
    |wx[i,k] - wy[j,l]|^p.  A minimizer lies in the relative interior of a
    face of the coupling polytope (the plans supported on some cell set S),
    so it is a stationary point of the form on that face's affine hull.
    Each S covering every row and column gives one candidate, the
    least-squares stationary point, kept if nonnegative to 1e-12 (then
    clipped).  Where the form is singular on a face, that point has the
    minimum's value or the minimum also lies on a lower face.  The sup-distortion
    only grows with the support, so p = inf tries the vertices only.  One row or
    column forces the product plan.  iterations counts the candidates kept.
    Raises DomainError when the form overflows.
    """
    p = _check_order(p)
    m, n = X.n, Y.n
    if m * n > BRUTEFORCE_CELL_LIMIT:
        raise InstanceTooLargeError(
            f"brute force handles at most {BRUTEFORCE_CELL_LIMIT} plan cells, "
            f"got {m}x{n}"
        )
    wx, wy = X.weights, Y.weights
    mu, nu = X.measure, Y.measure
    gap = np.abs(wx[:, None, :, None] - wy[None, :, None, :]).reshape(m * n, m * n)
    form = gap**p if np.isfinite(p) else gap
    if not np.all(np.isfinite(form)):
        raise DomainError(f"the distortion form at p={p} overflows")
    # stationarity needs the symmetric part: G is not symmetric for directed weights
    form = form + form.T

    if m == 1 or n == 1:
        candidates = [np.outer(mu, nu)]
    else:
        # marginal equations: row i sums the cells (i, *), row m + j the cells (*, j)
        margins = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
        target = np.concatenate([mu, nu])
        candidates = []
        for support in itertools.product((False, True), repeat=m * n):
            on = np.flatnonzero(support)
            a = margins[:, on]
            if not a.any(axis=1).all():
                continue
            u, sv, vt = np.linalg.svd(a)
            rank = np.count_nonzero(sv > 1e-9)
            pinv = vt[:rank].T @ (u[:, :rank].T / sv[:rank, None])
            x = pinv @ target
            if np.linalg.norm(a @ x - target) > 1e-12:
                continue
            null = vt[rank:].T
            if null.shape[1]:
                if not np.isfinite(p):
                    continue
                h = form[np.ix_(on, on)]
                z, *_ = np.linalg.lstsq(null.T @ h @ null, -(null.T @ h @ x), rcond=None)
                x = x + null @ z
            # refine once: a plan a few ulps short of the marginals scores below d_N
            x -= pinv @ (a @ x - target)
            if x.min() < -1e-12:
                continue
            plan = np.zeros(m * n)
            plan[on] = np.maximum(x, 0.0)
            candidates.append(plan.reshape(m, n))

    scores = [float(_kernels.dis_pow(wx, wy, c, p)) for c in candidates]
    best = int(np.argmin(scores))
    coupling = Coupling(plan=candidates[best], row_marginal=mu, col_marginal=nu)
    dis = scores[best] ** (1.0 / p) if np.isfinite(p) else scores[best]
    return GwResult(
        coupling=coupling, value=0.5 * dis, iterations=len(candidates), converged=True
    )


def cosine_rule_inner(X: MeasureNetwork, Y: MeasureNetwork, coupling: Coupling) -> float:
    """dis_2(P)^2 / 4, that is s^2 + t^2 - <wx P wy^T, P> / 2 with s, t the
    half 2-sizes: a squared chord length between unit-size representatives,
    never negative, and 0 at a weight-preserving coupling."""
    _check_marginals(X, Y, coupling)
    return _Dis2(X, Y).squared(coupling.plan) / 4.0
