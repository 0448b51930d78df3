import itertools
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from netgw.core import Coupling, new_network
from netgw.ot import _round_to_marginals

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_criterion_(\d+)_(\w+)", report.nodeid)
    if not m:
        return
    num, name = int(m.group(1)), m.group(2)
    if report.when == "call" and report.passed:
        _ACCEPTANCE[num] = ("PASS", name)
    elif report.failed:
        _ACCEPTANCE[num] = ("FAIL", name)
    elif report.skipped:
        _ACCEPTANCE[num] = ("SKIP", name)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        status, name = _ACCEPTANCE[num]
        terminalreporter.write_line(f"ACCEPTANCE {num:02d} {status} {name}")


def random_network(rng, n, low=-10.0, high=10.0, uniform_measure=False):
    w = rng.uniform(low, high, size=(n, n))
    if uniform_measure:
        m = np.full(n, 1.0 / n)
    else:
        m = rng.random(n) + 0.2
        m = m / m.sum()
    return new_network(w, m)


def random_coupling(rng, mu, nu):
    """Random interior-ish point of the transport polytope with exact
    marginals: rough IPF, then shrink-and-correct onto (mu, nu)."""
    raw = rng.random((mu.size, nu.size)) + 0.05
    for _ in range(60):
        raw *= (mu / raw.sum(axis=1))[:, None]
        raw *= (nu / raw.sum(axis=0))[None, :]
    plan = _round_to_marginals(raw, mu, nu)
    return Coupling(plan=plan, row_marginal=mu, col_marginal=nu)


def loop_dis_pow(wx, wy, plan, p):
    """The quadruple loop over (i, j, k, l): the sum of |wx[i,k] - wy[j,l]|^p
    plan[i,j] plan[k,l], or at p = inf the max gap over positive masses."""
    m, n = plan.shape
    acc = 0.0
    for i, j, k, l in itertools.product(range(m), range(n), range(m), range(n)):
        gap = abs(wx[i, k] - wy[j, l])
        if np.isinf(p):
            if plan[i, j] > 0.0 and plan[k, l] > 0.0:
                acc = max(acc, gap)
        else:
            acc += gap**p * plan[i, j] * plan[k, l]
    return acc


@st.composite
def scaled_network(draw, max_nodes=4, exponents=st.integers(-6, 6)):
    """A network of 1..max_nodes nodes with weights times 10^k, k drawn
    from exponents, under a (generally) non-uniform measure."""
    n = draw(st.integers(1, max_nodes))
    # small integers give tied weights, floats give generic ones; both signed
    entry = st.one_of(
        st.integers(-3, 3).map(float), st.floats(-1.0, 1.0, allow_nan=False)
    )
    scale = 10.0 ** draw(exponents)
    w = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))) * scale
    mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return new_network(w.reshape(n, n), mass / mass.sum())


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts_path(monkeypatch):
    """scripts/ on sys.path; the BLAS thread variables that scripts/_bench.py
    sets on import stay out of the suite's environment.

    Each reference route that a bench script times against the package
    (the per-iteration Sinkhorn loop, the full-support LP, the masked size
    rescan, the per-pair rflb loop, the entropic outer loop) lives once, in
    that script; tests import it inside a test that takes this fixture,
    never at module level.  References that only tests use live here."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    with mock.patch.dict(os.environ):
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fig2_triple():
    """The weakly isomorphic 3/3/4-node triple used across the suite."""
    X = new_network(
        [[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 3.0]], [0.25, 0.25, 0.5]
    )
    Y = new_network(
        [[2.0, 1.0, 1.0], [1.0, 3.0, 3.0], [1.0, 3.0, 3.0]], [0.5, 0.25, 0.25]
    )
    Z = new_network(
        [
            [2.0, 2.0, 1.0, 1.0],
            [2.0, 2.0, 1.0, 1.0],
            [1.0, 1.0, 3.0, 3.0],
            [1.0, 1.0, 3.0, 3.0],
        ],
        [0.25, 0.25, 0.25, 0.25],
    )
    return X, Y, Z
