"""The scripts under scripts/ import, the bench scripts load their
harness before numpy, no test module imports a script at import time,
the gates of the bench scripts hold on tiny inputs, and the two result
gates run end to end."""

import ast
import dataclasses
import importlib
import json
import os
import sys

import numpy as np
import pytest

from netgw.core import new_network
from netgw.ot import SinkhornConfig

from conftest import SCRIPTS


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("[!_]*.py")))
def test_script_imports(scripts_path, name):
    module = importlib.import_module(name)
    assert callable(module.main)


def test_bench_scripts_pin_blas_before_numpy(scripts_path, monkeypatch):
    """_bench is each bench script's first import outside the standard
    library, so numpy loads after it, and it sets the BLAS thread variables."""
    for path in SCRIPTS.glob("bench_*.py"):
        roots = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                roots += [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots.append(node.module.split(".")[0])
        outside = [root for root in roots if root not in sys.stdlib_module_names]
        assert outside[0] == "_bench" and "numpy" in outside, path.name
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.setenv(var, "4")
    importlib.reload(importlib.import_module("_bench"))
    assert [os.environ[var] for var in blas] == ["1", "1", "1"]


def _import_time_nodes(node):
    """The nodes under node outside function definitions and lambdas: what
    runs when its module is imported, decorators aside."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_tests_import_scripts_only_through_the_fixture():
    """_bench sets the BLAS thread variables when imported; a test module
    importing a script at module level would pass them to every process
    the suite starts.  Scripts are reached inside tests that take
    scripts_path, which restores the environment."""
    scripts = {path.stem for path in SCRIPTS.glob("*.py")}
    found = []
    for path in sorted((SCRIPTS.parent / "tests").glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("import_module"):
                names = [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if str(name).split(".")[0] in scripts]
    assert found == []


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


def test_bench_summaries_gate_on_small_sweep(scripts_path, tmp_path, monkeypatch):
    """The rtlb_max sweep matches per-pair rtlb_max calls on a small set and
    on one holding an overflowing network; a flipped bit, a dropped failure
    record, or pairs that fail on both routes alike make the script exit 1."""
    import netgw.bounds as bounds

    bench = importlib.import_module("bench_summaries")
    rng = np.random.default_rng(7)
    nets = [new_network(rng.uniform(-1, 1, (n, n)), np.full(n, 1 / n)) for n in (3, 4, 5, 3, 6)]
    big = new_network(1e200 * rng.random((3, 3)), np.full(3, 1 / 3))
    sets = [("small", nets[:4], list("abcd"), 0),
            ("overflow", nets[:2] + [big] + nets[2:], list("abxcde"), 5)]
    monkeypatch.setattr(bench, "sweep_sets", lambda: iter(sets))
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--repeats", "1"]
    assert bench.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["sweeps"]["overflow"]["failures"] == 5 and report["all_match"]
    sweep = bench.dissimilarity_matrix
    rtlb = bounds.rtlb

    def failing(X, Y, p, direction="out"):
        # fails the pairs of the one 6-node network, which only the
        # overflow set holds, on both routes
        if 6 in (bounds._summary(X).network.n, bounds._summary(Y).network.n):
            raise ValueError("planted")
        return rtlb(X, Y, p, direction)

    with monkeypatch.context() as m:
        m.setattr(bounds, "rtlb", failing)
        assert bench.main(argv) == 1
        report = json.loads(out.read_text())
        assert report["sweeps"]["overflow"]["failures"] == 9 and not report["all_match"]

    def flipped(*args, **kwargs):
        matrix, failures = sweep(*args, **kwargs)
        D = matrix.D.copy()
        D[0, 1] = np.nextafter(D[0, 1], np.inf)
        return dataclasses.replace(matrix, D=D), failures

    def dropped(*args, **kwargs):
        matrix, failures = sweep(*args, **kwargs)
        return matrix, failures[1:]

    for planted in (flipped, dropped):
        monkeypatch.setattr(bench, "dissimilarity_matrix", planted)
        assert bench.main(argv) == 1
        assert not json.loads(out.read_text())["all_match"]


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


def test_bench_io_read_gate_on_small_networks(scripts_path, tmp_path):
    """Both readers give the same bits on a labelled network, written and
    re-spelled with indent=2, and each read's memory comes from a fresh
    process; the gate catches a changed weight."""
    bench = importlib.import_module("bench_io")
    rng = np.random.default_rng(6)
    X = new_network(rng.normal(size=(3, 3)) * 1e-300, np.full(3, 1 / 3), ["]", "[[", 'a"b'])
    for name, text in bench.texts([("plain", X), ("sphere2-400", X)]):
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        row = bench.read_row(name, text, path, 1)
        assert row["differing"] == []
        assert row["new_peak_rss_mb"] > 0.0 and row["old_peak_rss_mb"] > 0.0
    assert row["network"] == "sphere2-400-indent2" and "\n  " in text
    first = text.index('"weights"')
    planted = text[:first] + text[first:].replace("e-30", "e-20", 1)
    assert bench.changed(bench.old_read(text), X) == []
    assert bench.changed(bench.core.network_from_json(planted), X) == ["weights"]


def test_bench_entropic_gate_on_small_pairs(scripts_path):
    """A converged, a cycle-stopped and a budget-stopped pair agree with the
    reference loop; the gate catches a planted flag, value or plan change."""
    bench = importlib.import_module("bench_entropic")
    rng = np.random.default_rng(21)
    config = SinkhornConfig(lam=20.0)
    runs = {}
    for _ in range(16):
        X, Y = (new_network(rng.uniform(-1, 1, (n, n)), np.full(n, 1 / n))
                for n in rng.integers(2, 7, size=2))
        row = bench.pair_row("pair", X, Y, config)
        assert row["differing"] == []
        runs.setdefault(row["change"]["outcome"], (X, Y))
    assert set(runs) == {"converged", "cycle", "budget"}
    assert bench.failing({"draws": [{"rows": [row]}]}) == []

    X, Y = runs["converged"]
    res = bench.gw.entropic_gw(X, Y, config)
    plans, outcome = bench.reference_entropic_gw(X, Y, config)
    assert bench.differing(X, Y, res, plans, outcome) == []
    assert bench.differing(X, Y, dataclasses.replace(res, converged=False), plans,
                           outcome) == ["converged"]
    assert bench.differing(X, Y, dataclasses.replace(res, value=np.nextafter(res.value, 1)),
                           plans, outcome) == ["value"]
    X, Y = runs["cycle"]
    res = bench.gw.entropic_gw(X, Y, config)
    plans, outcome = bench.reference_entropic_gw(X, Y, config)
    assert outcome == "budget" and bench.tail_period(plans) == res.cycle
    assert bench.differing(X, Y, res, plans, outcome) == []
    shifted = dataclasses.replace(res, iterations=res.iterations - 1)
    assert bench.differing(X, Y, shifted, plans, outcome) == ["plan"]
    row["differing"] = ["plan"]
    assert bench.failing({"draws": [{"rows": [row]}]}) == [row]


def test_bench_entropic_reference_linearizes_by_the_package(scripts_path, monkeypatch):
    """The reference's step cost is gw._linearized_cost: made zero, every
    step returns the product coupling it started from."""
    bench = importlib.import_module("bench_entropic")
    monkeypatch.setattr(bench.gw, "_linearized_cost",
                        lambda dis2, plan: np.zeros((dis2.ex.size, dis2.ey.size)))
    rng = np.random.default_rng(21)
    X, Y = (new_network(rng.uniform(-1, 1, (n, n)), np.full(n, 1 / n)) for n in (4, 6))
    plans, outcome = bench.reference_entropic_gw(X, Y, SinkhornConfig(lam=20.0))
    assert outcome == "converged" and len(plans) - 1 == 1


def test_bench_sinkhorn_gate_on_small_pairs(scripts_path, monkeypatch):
    """Every inner solve of a few small pairs agrees with the per-iteration
    loop bit for bit and the pairs' inner_iterations add up; the gate
    catches a planted change in a solve and in the count, and lets a
    solve differ only where its reference runs past the first stall test
    and the package converges within the tolerance instead."""
    bench = importlib.import_module("bench_sinkhorn")
    rng = np.random.default_rng(21)
    config = SinkhornConfig(lam=20.0)
    pairs = [tuple(new_network(rng.uniform(-1, 1, (n, n)), np.full(n, 1 / n))
                   for n in rng.integers(2, 7, size=2)) for _ in range(4)]
    rows = [bench.pair_row("pair", X, Y, config) for X, Y in pairs]
    draw = bench.draw_summary(0, rows)
    assert bench.failing({"draws": [draw]}) == []
    assert draw["package_iterations"] == draw["inner_iterations"] > draw["solves"] > 0
    assert draw["reference_iterations"] == draw["package_iterations"]
    assert sum(row["solves"] for row in draw["shapes"].values()) == draw["solves"]

    # a plan one ulp off, or one more iteration, is a difference
    X, Y = pairs[0]
    cost = rng.random((X.n, Y.n))
    ref = bench.outcome(bench.reference_sinkhorn_log, cost, config, X.measure, Y.measure)
    assert bench.fields(*ref) == bench.fields(
        *bench.outcome(bench.ot.sinkhorn_log, cost, config, X.measure, Y.measure))
    kind, res, message = ref
    plan = res.plan.plan.copy()
    plan[0, 0] = np.nextafter(plan[0, 0], 1.0)
    nudged = dataclasses.replace(res, plan=dataclasses.replace(res.plan, plan=plan))
    assert bench.fields(kind, nudged, message) != bench.fields(*ref)
    longer = dataclasses.replace(res, iterations=res.iterations + 1)
    assert bench.fields(kind, longer, message) != bench.fields(*ref)
    assert bench.verdict(config, ref, ref) == "same"
    assert bench.verdict(config, ref, (kind, longer, message)) is None

    # past the first stall test only a solve converged within the tolerance
    # may differ
    first = bench.ot.NEWTON_FIRST_TEST
    assert kind == "converged" and res.marginal_error <= config.tolerance
    for ran, want in ((first + 1, "newton"), (first, None)):
        stalled = ("stalled", dataclasses.replace(res, iterations=ran, converged=False), "m")
        assert bench.verdict(config, stalled, ref) == want
    stalled = ("stalled", dataclasses.replace(res, iterations=first + 1, converged=False), "m")
    loose = dataclasses.replace(res, marginal_error=2 * config.tolerance)
    assert bench.verdict(config, stalled, (kind, loose, message)) is None
    assert bench.verdict(config, stalled, ("stalled", loose, message)) is None

    solve, run = bench.ot.sinkhorn_log, bench.gw.entropic_gw
    with monkeypatch.context() as patch:
        patch.setattr(bench.ot, "sinkhorn_log", lambda *args: dataclasses.replace(
            solve(*args), iterations=solve(*args).iterations + 1))
        assert bench.pair_row("pair", X, Y, config)["differing"][0] == "solve 0"
    with monkeypatch.context() as patch:
        patch.setattr(bench.gw, "entropic_gw", lambda *args: dataclasses.replace(
            run(*args), inner_iterations=0))
        row = bench.pair_row("pair", X, Y, config)
        assert row["differing"] == ["inner_iterations"]
        assert bench.failing({"draws": [bench.draw_summary(0, [row])]}) == [row]
