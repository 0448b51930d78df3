"""The scripts under scripts/ import, bench_exact_ot's gate holds on tiny
inputs, and the two result gates run end to end."""

import importlib
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(scripts_path, name):
    # bench_summaries sets BLAS thread variables on import
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
