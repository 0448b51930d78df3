"""Network GW distance: entropic solver, tiny near-exhaustive search, cosine rule."""

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import _kernels
from .core import (
    Coupling,
    MeasureNetwork,
    _check_marginals,
    _check_order,
    diagonal_coupling,
    distortion,
    product_coupling,
)
from .errors import (
    DomainError,
    InstanceTooLargeError,
    KernelUnderflowError,
    MarginalMismatchError,
    MaxItersExceededError,
    RangeTooWideError,
)
from .invariants import eccentricity, size_p
from .ot import SinkhornConfig, _round_to_marginals, _transport_lp, sinkhorn_log

BRUTEFORCE_CELL_LIMIT = 9
BRUTEFORCE_GRID = 8


@dataclass(frozen=True)
class GwResult:
    """Outcome of an entropic GW run.

    value is dis_2(final plan) / 2, an upper-bound estimate of d_{N,2};
    converged=False means the outer loop hit its budget or the inner
    solver gave up, and the plan is the last usable iterate.
    inner_stalls counts inner solves that ran out of iterations and
    were continued from their partial plan.
    """

    coupling: Coupling
    value: float
    iterations: int
    converged: bool
    inner_error: str | None = None
    inner_stalls: int = 0


def _linearized_cost(wx, wy, ex, ey, plan):
    # M(i,j) = sum_{k,l} (wx[i,k] - wy[j,l])^2 plan[k,l], expanded so the
    # cross term is two matmuls; ex/ey are the plan-independent squares
    return ex[:, None] + ey[None, :] - 2.0 * (wx @ plan @ wy.T)


def _initial_plan(X, Y, init):
    if isinstance(init, Coupling):
        _check_marginals(X, Y, init)
        return np.array(init.plan)
    if init == "product":
        return np.array(product_coupling(X.measure, Y.measure).plan)
    if init == "diagonal":
        if X.n != Y.n or not np.allclose(X.measure, Y.measure, atol=1e-12):
            raise MarginalMismatchError(
                "diagonal init needs equal sizes and matching measures"
            )
        return np.array(diagonal_coupling(X.measure).plan)
    raise DomainError(f"init must be 'product', 'diagonal' or a Coupling, got {init!r}")


def entropic_gw(
    X: MeasureNetwork,
    Y: MeasureNetwork,
    config: SinkhornConfig,
    outer_iters: int = 200,
    plan_tol: float = 1e-8,
    init="product",
) -> GwResult:
    """Alternate linearization and entropic OT until the plan stops moving.

    Order p=2 only: the linearized cost splits into two matmuls there.
    Inner solves run in the log-stabilized regime.  A blown-up inner
    solve does not raise; the result just reports converged=False.
    """
    if outer_iters < 1:
        raise DomainError(f"outer_iters must be >= 1, got {outer_iters}")
    if not (plan_tol > 0.0):
        raise DomainError(f"plan_tol must be > 0, got {plan_tol}")
    wx, wy = X.weights, Y.weights
    ex = (wx**2) @ X.measure
    ey = (wy**2) @ Y.measure
    plan = _initial_plan(X, Y, init)

    converged = False
    inner_error = None
    inner_stalls = 0
    iterations = 0
    for iterations in range(1, outer_iters + 1):
        cost = _linearized_cost(wx, wy, ex, ey, plan)
        try:
            new_plan = sinkhorn_log(cost, config, X.measure, Y.measure).plan.plan
        except MaxItersExceededError as err:
            # a stalled inner solve still carries a usable plan, already
            # rounded onto the marginals; keep alternating from it
            if err.partial is None or err.partial.plan is None:
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

    coupling = Coupling(plan=plan, row_marginal=X.measure, col_marginal=Y.measure)
    value = 0.5 * distortion(X, Y, coupling, 2.0)
    return GwResult(
        coupling=coupling,
        value=value,
        iterations=iterations,
        converged=converged,
        inner_error=inner_error,
        inner_stalls=inner_stalls,
    )


def _rounded_margin(measure, grid_k):
    # integer margin with the same total, biggest fractional parts win
    raw = measure * grid_k
    floor = np.floor(raw).astype(np.int64)
    # the floors never sum above grid_k: the measure sums to 1 within 1e-12
    deficit = grid_k - int(floor.sum())
    for idx in np.argsort(raw - floor)[::-1][:deficit]:
        floor[idx] += 1
    return floor


def _tables(row_sums, col_sums):
    # all nonneg integer matrices with the given margins, depth-first
    m, n = len(row_sums), len(col_sums)
    table = np.zeros((m, n), dtype=np.int64)
    remaining = np.array(col_sums, dtype=np.int64)

    def compositions(total, caps):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in compositions(total - first, caps[1:]):
                yield (first,) + rest

    def rec(i):
        if i == m:
            yield table.copy()
            return
        for row in compositions(int(row_sums[i]), tuple(int(c) for c in remaining)):
            table[i] = row
            remaining[:] -= row
            yield from rec(i + 1)
            remaining[:] += row

    yield from rec(0)


def gw_bruteforce(X: MeasureNetwork, Y: MeasureNetwork, p) -> GwResult:
    """Near-exhaustive search over the coupling polytope for tiny inputs.

    Rounds every integer contingency table at resolution 1/BRUTEFORCE_GRID
    onto (mu, nu), adds a few structured seeds, and polishes the best with
    SLSQP (finite p), rounding again.  The value is the distortion of a
    coupling: an upper bound on d_{N,p}, not exact, that can sit above it
    when no table lies near an optimal coupling.
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

    candidates = [np.outer(mu, nu)]
    if m == n and np.allclose(mu, nu, atol=1e-12):
        candidates.append(np.diag(mu))
    # seeds: HiGHS optima of two surrogate costs, rounded onto (mu, nu); at
    # most 9 cells, so _transport_lp solves on the full support (exact_ot's
    # assignment route breaks ties differently)
    for direction in ("out", "in"):
        ecc_x = eccentricity(X, p if np.isfinite(p) else 2.0, direction).values
        ecc_y = eccentricity(Y, p if np.isfinite(p) else 2.0, direction).values
        seed = _transport_lp(np.abs(ecc_x[:, None] - ecc_y[None, :]), mu, nu).coupling
        candidates.append(np.array(seed.plan))

    row_sums = _rounded_margin(mu, BRUTEFORCE_GRID)
    col_sums = _rounded_margin(nu, BRUTEFORCE_GRID)
    for table in _tables(row_sums, col_sums):
        candidates.append(_round_to_marginals(table / BRUTEFORCE_GRID, mu, nu))

    scored = sorted(
        ((float(_kernels.dis_pow(wx, wy, c, p)), i) for i, c in enumerate(candidates)),
        key=lambda t: t[0],
    )

    best_pow, best_idx = scored[0]
    best_plan = candidates[best_idx]
    if np.isfinite(p):
        constraints = [
            {"type": "eq", "fun": lambda v: v.reshape(m, n).sum(axis=1) - mu},
            # the last column sum follows from the others, and SLSQP
            # stalls at its start point under a redundant equality
            {"type": "eq", "fun": lambda v: v.reshape(m, n)[:, :-1].sum(axis=0) - nu[:-1]},
        ]
        bounds = [(0.0, 1.0)] * (m * n)
        for _, idx in scored[:10]:
            res = optimize.minimize(
                lambda v: _kernels.dis_pow(wx, wy, np.ascontiguousarray(v.reshape(m, n)), p),
                candidates[idx].ravel(),
                method="SLSQP",
                bounds=bounds,
                constraints=constraints,
                options={"maxiter": 200, "ftol": 1e-14},
            )
            if not res.success:
                continue
            polished = _round_to_marginals(res.x.reshape(m, n), mu, nu)
            value = float(_kernels.dis_pow(wx, wy, polished, p))
            if value < best_pow:
                best_pow, best_plan = value, polished

    coupling = Coupling(plan=best_plan, row_marginal=mu, col_marginal=nu)
    dis = best_pow ** (1.0 / p) if np.isfinite(p) else best_pow
    return GwResult(
        coupling=coupling, value=0.5 * dis, iterations=len(candidates), converged=True
    )


def cosine_rule_inner(X: MeasureNetwork, Y: MeasureNetwork, coupling: Coupling) -> float:
    """s^2 + t^2 - <wx P wy^T, P> / 2 with s, t the half 2-sizes.

    Equals dis_2(P)^2 / 4, so it plays the role of a squared chord
    length between unit-size representatives.
    """
    _check_marginals(X, Y, coupling)
    s = 0.5 * size_p(X, 2.0)
    t = 0.5 * size_p(Y, 2.0)
    plan = np.asarray(coupling.plan)
    cross = float(np.sum((X.weights @ plan @ Y.weights.T) * plan))
    return s * s + t * t - 0.5 * cross
