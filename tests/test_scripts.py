"""The scripts under scripts/ import, the gates of bench_exact_ot,
bench_tlb and bench_io hold on tiny inputs, and the two result gates run
end to end."""

import importlib
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from netgw.core import new_network

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(scripts_path, name):
    # bench_summaries and bench_tlb set BLAS thread variables on import
    with mock.patch.dict(os.environ):
        module = importlib.import_module(name)
    assert callable(module.main)


def test_bench_exact_ot_gate_on_small_costs(scripts_path):
    """One assignment-route transport and one non-uniform LP transport at
    three scales; the scaled ones catch duals read in the wrong units."""
    bench = importlib.import_module("bench_exact_ot")
    rng = np.random.default_rng(3)
    rows = {"total": bench.new_row()}
    bench.measure(rows, "uniform", rng.random((4, 8)), np.full(4, 0.25), np.full(8, 0.125))
    mu, nu = rng.random(10) + 0.1, rng.random(12) + 0.1
    cost = rng.normal(size=(10, 12))
    for scale in (1e-6, 1.0, 1e6):
        bench.measure(rows, "lp", cost * scale, mu / mu.sum(), nu / nu.sum())
    total = rows["total"]
    assert total["transports"] == 4 and total["lp_solves"] == 3
    assert total["worst_rel_gap"] <= 1e-12
    assert total["worst_marginal_error"] <= 1e-12
    assert total["worst_dual_excess"] <= 1e-12
    assert total["worst_dual_shortfall"] <= 1e-12


def test_fingerprint_results_runs(scripts_path, capsys):
    fingerprint = importlib.import_module("fingerprint_results")
    assert fingerprint.main() == 0
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out, dict) and out


def test_oracle_values_has_no_sandwich_violation(scripts_path, capsys):
    # main returns 1 when a lower bound exceeds twice the brute-force value
    oracle = importlib.import_module("oracle_values")
    assert oracle.main([]) == 0
    fresh = json.loads(capsys.readouterr().out)
    assert fresh["sandwich_violations"] == []
    # and no oracle value may rise against the committed run
    committed = json.loads((SCRIPTS.parent / "BENCH_oracle.json").read_text())["after"]
    for summary in oracle.compare(committed, fresh["values"]).values():
        assert summary["largest_rise"] <= oracle.RISE_BOUND


def test_bench_tlb_gate_on_small_inputs(scripts_path):
    """The kernel check on a one-block and a tiled pair, the sweep check on
    a few networks, and the gate catching a moved entry."""
    bench = importlib.import_module("bench_tlb")
    rng = np.random.default_rng(4)
    uniform = [new_network(rng.random((n, n)), np.full(n, 1.0 / n)) for n in (6, 9)]
    tiled = [bench.random_network(rng, n) for n in (40, 37)]
    kernel = [
        bench.kernel_summary("uniform", 2.0, [tuple(uniform)]),
        bench.kernel_summary("tiled", 1.0, [tuple(tiled)], sample=range(0, 40, 7)),
        bench.kernel_summary("tiled", 2.0, [tuple(tiled)]),
    ]
    assert [row["one_block_pairs"] for row in kernel] == [1, 0, 0]
    sweep = [bench.sweep_row("random", [bench.random_network(rng, 5) for _ in range(6)], 2.5)]
    report = {"kernel": kernel, "sweep": sweep}
    assert bench.failing(report) == []
    assert all(row["worst_rel_gap"] <= bench.KERNEL_TOL for row in kernel)
    # the gate: a gap above tolerance, or an entry that should be exactly 0
    assert bench.relative_gap([0.0, 1.0 + 1e-15], [0.0, 1.0]) < 1e-14
    assert bench.relative_gap([1e-300], [0.0]) == np.inf
    sweep[0]["worst_rel_gap"] = 2 * bench.SWEEP_TOL
    assert bench.failing(report) == sweep


def test_bench_io_gate_on_small_networks(scripts_path):
    """Both writers read back to the same bits on a non-uniform and a
    labelled network; the gate catches a float written short."""
    bench = importlib.import_module("bench_io")
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 3)) * [[1e-300], [1.0], [1e300]]
    w[0, 0] = -0.0
    mu = rng.random(3) + 0.1
    plain = new_network(w, mu / mu.sum())
    labelled = new_network(rng.random((3, 3)), np.full(3, 1 / 3), ["café", 'a"b\\c', "\n"])
    rows = [bench.io_row("plain", plain, 1), bench.io_row("labelled", labelled, 1)]
    assert bench.failing(rows) == []
    old = bench.old_text(plain)
    new = bench.new_text(plain)
    # drop the last digit of the first mass; lose the sign of -0.0
    comma = new.index(",", new.index('"measure":['))
    assert bench.differing(old, new[: comma - 1] + new[comma:]) == ["measure"]
    assert bench.differing(old, new.replace('[[-0.0,', '[[0.0,')) == ["weights"]
    text = bench.new_text(labelled)
    assert bench.differing(text, text.replace("caf", "cafe")) == ["labels"]
    rows[0]["differing"] = ["weights"]
    assert bench.failing(rows) == rows[:1]
