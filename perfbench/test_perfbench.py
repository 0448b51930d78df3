"""Tests of the benchmark itself: its references, checks and failure count.

    python3 -m pytest perfbench

Each check must pass on the program's own output and fail once that
output is perturbed; the failure count must read every failure source.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from netgw import analysis, bounds, core, invariants  # noqa: E402
from netgw.generators import sample_collection  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def uniform_net(rng, n):
    return core.new_network(rng.normal(size=(n, n)) * 10.0, np.full(n, 1.0 / n))


def weighted_net(rng, n):
    mu = rng.random(n) + 0.2
    return core.new_network(rng.normal(size=(n, n)), mu / mu.sum())


def test_rtlb_reference_matches_program_and_catches_perturbation(rng):
    for m, n in ((6, 6), (4, 6)):
        X, Y = uniform_net(rng, m), uniform_net(rng, n)
        got = {"p": bounds.rtlb_max(X, Y, 2.0).rtlb_max}
        want = {"p": checks.rtlb_uniform(X.weights, Y.weights)}
        assert checks.check_pair_values("rtlb_max", got, want) == []
        assert checks.check_pair_values("rtlb_max", {"p": got["p"] * (1 + 1e-7)}, want)


def test_rflb_reference_matches_program_and_catches_perturbation(rng):
    X, Y = weighted_net(rng, 7), weighted_net(rng, 5)
    program = max(bounds.rflb(X, Y, 2.0, "out"), bounds.rflb(X, Y, 2.0, "in"))
    want = {"p": checks.rflb(X.weights, X.measure, Y.weights, Y.measure, 2.0)}
    assert checks.check_pair_values("rflb", {"p": program}, want) == []
    assert checks.check_pair_values("rflb", {"p": program + 1e-6}, want)


def test_szlb_reference_matches_program(rng):
    X, Y = weighted_net(rng, 6), weighted_net(rng, 4)
    ours = checks.szlb(X.weights, X.measure, Y.weights, Y.measure, 2.0)
    assert checks.relative_gap(bounds.szlb(X, Y, 2.0), ours) <= 1e-12


def test_mst_check_on_single_linkage(rng):
    nets = [uniform_net(rng, 5) for _ in range(8)]
    matrix, failures = analysis.dissimilarity_matrix(nets, "rflb")
    assert not failures
    heights = np.array(analysis.single_linkage(matrix).heights)
    assert checks.check_mst(np.array(matrix.D), heights) == []
    heights[3] *= 1.0 + 1e-12
    assert checks.check_mst(np.array(matrix.D), heights)
    assert checks.check_mst(np.array(matrix.D), heights[:-1])


def test_class_structure_check():
    # two tight groups {0,1} (class 0) and {2,3} (class 2), one loose class 1
    classes = [0, 0, 2, 2, 1, 1]
    D = np.full((6, 6), 10.0)
    D[np.ix_([0, 1, 2, 3], [0, 1, 2, 3])] = 1.0
    D[4, 5] = D[5, 4] = 3.0
    np.fill_diagonal(D, 0.0)
    labels = [f"n{i}" for i in range(6)]
    tree = analysis.single_linkage(analysis.DissimilarityMatrix(labels, D))
    merges = [(a, b) for a, b, _, _ in tree.merges]
    assert checks.check_class_structure(D, classes, merges) == []
    far = D.copy()
    far[np.ix_([0, 1], [2, 3])] = far[np.ix_([2, 3], [0, 1])] = 12.0
    tree = analysis.single_linkage(analysis.DissimilarityMatrix(labels, far))
    merges = [(a, b) for a, b, _, _ in tree.merges]
    assert len(checks.check_class_structure(far, classes, merges)) == 2


def test_circle_curve_check():
    circle = invariants.sphere_discretize(1, 40)
    curve = invariants.size_curve(circle, 1.0, samples=64)
    values = np.array(curve.values)
    assert checks.check_circle_curve(40, np.array(curve.grid), values) == []
    values[10] += 1e-10
    assert checks.check_circle_curve(40, np.array(curve.grid), values)


def test_sphere_bound_check():
    grid = np.linspace(0.0, math.pi, 512)
    f = invariants.sphere_subsize_curve(1, 1.0, 512)
    g = invariants.sphere_subsize_curve(2, 1.0, 512)
    value = invariants.interleaving_distance(f, g, tol=1e-4)
    assert checks.check_sphere_bound(value, grid) == []
    assert checks.check_sphere_bound(0.0, grid)
    assert checks.check_sphere_bound(1.0, grid)


def test_coupling_and_distortion_references(rng):
    X, Y = weighted_net(rng, 6), weighted_net(rng, 9)
    plan = checks.monotone_coupling(rng.random(6), X.measure, rng.random(9), Y.measure)
    coupling = core.Coupling(plan, X.measure, Y.measure)
    program = core.distortion(X, Y, coupling, 2.0)
    ours = checks.distortion2(X.weights, X.measure, Y.weights, Y.measure, plan)
    assert checks.relative_gap(ours, program) <= 1e-9


def test_hierarchy_check_catches_inversion():
    assert checks.check_upper_bounds("a <= b", {"p": 1.0}, {"p": 1.0}) == []
    assert checks.check_upper_bounds("a <= b", {"p": 1.0 + 1e-6}, {"p": 1.0})


def test_outcome_counts_every_failure_source_once():
    ops = [("pair", "a", "b"), ("pair", "a", "c"), ("pair", "b", "c"), ("curve", "x")]
    outcome = workloads.Outcome(ops)
    outcome.reported(ops[0], "manifest")
    outcome.reported(ops[0], "converged=False")
    outcome.reported(ops[1], "inner_error")
    outcome.checked(ops[1], ["value off"])  # already reported: still correct
    assert outcome.correct and len(outcome.failed) == 2
    outcome.checked(ops[2], ["value off"])
    assert not outcome.correct and len(outcome.failed) == 3
    outcome.step_failed("invariant", 2, [ops[3]])
    assert len(outcome.failed) == 4 and len(outcome.problems) == 2


def _write_entropic_outputs(out, labels, D, manifest):
    out.mkdir()
    rows = ["# labels: " + ",".join(labels)] + [",".join(repr(float(v)) for v in row) for row in D]
    (out / "dissimilarity.csv").write_text("\n".join(rows) + "\n")
    failures = [{"pair": [labels[i], labels[j]], "error": "boom"} for i, j in manifest]
    (out / "report.json").write_text(json.dumps({"failures": failures}))


def test_entropic_check_reads_each_failure_source(tmp_path):
    wl = workloads.Table1Entropic()
    inp = tmp_path / "in"
    ops = wl.setup(0, inp)
    labels = sorted(p.stem for p in inp.glob("*.json"))
    nets = {label: checks.read_network(inp / f"{label}.json") for label in labels}
    k = len(labels)
    D = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            rtlb = checks.rtlb_uniform(nets[labels[i]][0], nets[labels[j]][0])
            D[i, j] = D[j, i] = 0.5 * rtlb if (i, j) == (0, 1) else 2.0 * rtlb + 1.0
    _write_entropic_outputs(tmp_path / "out", labels, D, manifest=[(0, 2)])
    key = workloads.fingerprint

    def flags(i, j, converged, error):
        return {(key(nets[labels[i]][0]), key(nets[labels[j]][0])): (converged, error)}

    observed = {}
    for i in range(k):
        for j in range(i + 1, k):
            observed.update(flags(i, j, True, None))
    observed.update(flags(0, 3, False, None))
    observed.update(flags(1, 2, True, "RangeTooWideError: too wide"))
    outcome = wl.check(ops, inp, tmp_path / "out", {"compare": (0, "")}, observed)
    # (0,1) below rtlb, (0,2) manifest, (0,3) not converged, (1,2) inner error
    assert sorted(outcome.failed) == sorted(
        [("pair", labels[0], labels[1]), ("pair", labels[0], labels[2]),
         ("pair", labels[0], labels[3]), ("pair", labels[1], labels[2])]
    )
    assert outcome.problems and all(labels[0] in p and labels[1] in p for p in outcome.problems)


def test_tracer_self_time_and_restore():
    import netgw.bounds

    original = netgw.bounds.wasserstein_1d
    tracer = tracing.Tracer()
    with tracing.tracing(tracer):
        assert netgw.bounds.wasserstein_1d is not original
        X, Y = sample_collection("table3", 1, 0)[0][:2]
        analysis.dissimilarity_matrix([X, Y], "rflb")
    assert netgw.bounds.wasserstein_1d is original
    own = tracer.self_times()
    pair = tracer.durations("analysis.pair")
    assert len(pair) == 1 and tracer.calls("ot.wasserstein_1d") == 2
    assert tracer.calls("invariants.pushforward") == 4
    layers = ("analysis.pair", "bounds.1d", "ot.wasserstein_1d", "invariants.pushforward")
    total = sum(own[name] for name in layers)
    assert total == pytest.approx(pair[0], rel=1e-9)
    metrics = tracing.layer_metrics(tracer, pooled=False)
    assert metrics["analysis.pool.jobs"] == 0 and metrics["ot.exact_ot.calls"] == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(10) == 50.0
    assert tracing.tail_percentile(40) == 75.0
    assert tracing.tail_percentile(190) == 90.0
    assert tracing.tail_percentile(11175) == 99.9


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_entropic_round_prints_the_declared_metrics(capsys, trace, kind):
    argv = ["--workload", "table1-entropic", "--seed", "3", "--seconds", "0"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # every round: 10 pairs, the 4 with c4 fail (converged=False)
    assert result["failed"] * 10 == result["attempted"] * 4
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
