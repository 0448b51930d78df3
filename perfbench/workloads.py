"""The benchmark's workloads: inputs, CLI steps and output checks.

A workload draws its networks from the seed and writes them as the
files the CLI reads (set-up), runs its CLI steps on them (the timed
wall), then checks every output with checks.py.  Operations are the
pairs of the compare step, plus the invariant steps of spheres-large.
"""

import hashlib
import json
from contextlib import contextmanager, nullcontext

import numpy as np

import checks
from tracing import patched

import netgw
from netgw import cli, core, generators, gw, invariants
from netgw.ot import SinkhornConfig


class Outcome:
    """Operations attempted in one round, the ones that failed, and why.

    An operation fails when the program reports it (the failure
    manifest, or the solver's own convergence flags) or when it fails a
    check.  A check failure on an operation the program did not report
    makes the round incorrect, as does any check on the round as a whole.
    """

    def __init__(self, ops):
        self.ops = list(ops)
        self.failed = {}
        self.problems = []

    def reported(self, op, reason):
        self.failed.setdefault(op, reason)

    def checked(self, op, problems):
        for text in problems:
            if op not in self.failed:
                self.problems.append(text)
            self.failed.setdefault(op, text)

    def step_failed(self, step, rc, ops):
        self.problems.append(f"{step} exited with {rc}")
        for op in ops:
            self.failed.setdefault(op, f"{step} exited with {rc}")

    @property
    def correct(self):
        return not self.problems


def pair_ops(labels):
    return [("pair", a, b) for k, a in enumerate(labels) for b in labels[k + 1 :]]


def read_report_failures(outcome, out):
    report = json.loads((out / "report.json").read_text())
    for failure in report["failures"]:
        outcome.reported(("pair", *failure["pair"]), failure["error"])


def matrix_by_pair(out):
    labels, D = checks.read_matrix(out / "dissimilarity.csv")
    values = {
        ("pair", a, b): D[i, j]
        for i, a in enumerate(labels)
        for j, b in enumerate(labels)
        if i < j
    }
    return labels, D, values


def fingerprint(weights):
    return hashlib.sha1(np.ascontiguousarray(weights, dtype=np.float64).tobytes()).hexdigest()


def sample_every(ops, count):
    """A fixed, evenly spread sample of about `count` operations."""
    return ops[:: max(1, len(ops) // count)]


class Workload:
    name = ""
    workers = 1
    setup_reps = 1
    round_s = 10.0  # nominal length of one round, turns --seconds into rounds

    def setup(self, seed, inp):
        """Write the input files under inp; returns the operations."""
        raise NotImplementedError

    def steps(self, inp, out, workers):
        """(step name, CLI argv) in run order; 'compare' is timed for pairs_per_s."""
        raise NotImplementedError

    def check(self, ops, inp, out, results, observed):
        raise NotImplementedError

    def observe(self):
        """Context that records solver results the CLI does not report."""
        return nullcontext()

    @staticmethod
    def pairs(ops):
        return sum(1 for op in ops if op[0] == "pair")


def _step_errors(outcome, results, ops_by_step):
    for step, (rc, _text) in results.items():
        if rc not in (0, 1):
            outcome.step_failed(step, rc, ops_by_step.get(step, ()))
    return outcome.correct


class Table1Workload(Workload):
    """table1 networks through compare and cluster."""

    method = ""
    per_class = 1
    sample = 0

    def setup(self, seed, inp):
        rc = cli.main(
            ["generate", "--preset", "table1", "--per-class", str(self.per_class),
             "--seed", str(seed), "--out", str(inp)]
        )
        if rc != 0:
            raise RuntimeError(f"generate exited with {rc}")
        return pair_ops(sorted(p.stem for p in inp.glob("*.json")))

    def steps(self, inp, out, workers):
        return [
            ("compare", ["compare", str(inp), "--method", self.method, "--p", "2",
                         "--workers", str(workers), "--out", str(out)]),
            ("cluster", ["cluster", str(out / "dissimilarity.csv"), "--out", str(out)]),
        ]

    def check(self, ops, inp, out, results, observed):
        outcome = Outcome(ops)
        if not _step_errors(outcome, results, {"compare": ops}):
            return outcome
        read_report_failures(outcome, out)
        labels, D, values = matrix_by_pair(out)
        for op in sample_every(ops, self.sample):
            wx, mx = checks.read_network(inp / f"{op[1]}.json")
            wy, my = checks.read_network(inp / f"{op[2]}.json")
            want = {op: self.reference(wx, mx, wy, my)}
            outcome.checked(op, checks.check_pair_values(self.method, values, want))
        outcome.problems += self.check_matrix(labels, D, out)
        return outcome


class Table1Rtlb(Table1Workload):
    name = "table1-rtlb"
    method = "rtlb_max"
    per_class = 4
    workers = 2
    setup_reps = 5
    round_s = 8.5
    sample = 20

    def reference(self, wx, mx, wy, my):
        return checks.rtlb_uniform(wx, wy)

    def check_matrix(self, labels, D, out):
        classes = [int(label.split("-")[0][1:]) - 1 for label in labels]
        merges = checks.read_merges(out / "merges.csv")
        return checks.check_class_structure(D, classes, merges)


class Table1RflbMany(Table1Workload):
    """150 networks, 11175 rflb pairs of about 0.4 ms each, in one process.

    With --workers 2 the pool ships two pickled networks per pair and
    the compare step takes twice as long as in one process, by an amount
    that follows the host's CPU steal (8-12 s against 4.7-5.8 s), too
    unsteady to bound; pool dispatch is measured on table1-rtlb instead.
    """

    name = "table1-rflb-many"
    method = "rflb"
    per_class = 30
    workers = 1
    setup_reps = 2
    round_s = 8.0
    sample = 100

    def reference(self, wx, mx, wy, my):
        return checks.rflb(wx, mx, wy, my, 2.0)

    def check_matrix(self, labels, D, out):
        return checks.check_mst(D, checks.read_merge_heights(out / "merges.csv"))


class Table1Entropic(Workload):
    """One normalized table1 network per class, entropic GW on all pairs.

    The draw is fixed (seed 0) whatever --seed says: the solver's
    convergence depends on the draw (some draws stall for a minute per
    pair), and the c4 pairs of this draw fail on every run, so only a
    fixed draw gives the same failed share on every run.
    """

    name = "table1-entropic"
    workers = 1
    setup_reps = 5
    round_s = 3.5
    draw_seed = 0
    lam = 100.0

    def setup(self, seed, inp):
        inp.mkdir(parents=True, exist_ok=True)
        nets, _classes, labels = generators.sample_collection("table1", 1, self.draw_seed)
        for net, label in zip(nets, labels):
            core.save_network(generators.normalize_max_abs(net), inp / f"{label}.json")
        return pair_ops(labels)

    def steps(self, inp, out, workers):
        return [
            ("compare", ["compare", str(inp), "--method", "entropic_gw", "--lam", str(self.lam),
                         "--p", "2", "--workers", str(workers), "--out", str(out)]),
        ]

    @contextmanager
    def observe(self):
        # dissimilarity_matrix keeps only the value; the converged flag
        # and inner error are read from the solver's own result here
        flags = {}

        def factory(solve):
            def observed(X, Y, *args, **kwargs):
                res = solve(X, Y, *args, **kwargs)
                key = fingerprint(X.weights), fingerprint(Y.weights)
                flags[key] = (res.converged, res.inner_error)
                return res

            return observed

        with patched([("netgw.analysis", "entropic_gw", factory)]):
            yield flags

    def check(self, ops, inp, out, results, observed):
        outcome = Outcome(ops)
        if not _step_errors(outcome, results, {"compare": ops}):
            return outcome
        read_report_failures(outcome, out)
        _labels, _D, values = matrix_by_pair(out)
        for op in ops:
            wx, mx = checks.read_network(inp / f"{op[1]}.json")
            wy, my = checks.read_network(inp / f"{op[2]}.json")
            key = fingerprint(wx), fingerprint(wy)
            if key not in observed and op not in outcome.failed:
                # the solver was not reached through the observed name
                X, Y = netgw.new_network(wx, mx), netgw.new_network(wy, my)
                res = gw.entropic_gw(X, Y, SinkhornConfig(lam=self.lam))
                observed[key] = (res.converged, res.inner_error)
            converged, inner_error = observed.get(key, (True, None))
            if inner_error is not None:
                outcome.reported(op, f"inner_error: {inner_error}")
            elif not converged:
                outcome.reported(op, "converged=False")
            if np.isfinite(values[op]):
                lower = {op: checks.rtlb_uniform(wx, wy)}
                problems = checks.check_upper_bounds("rtlb_max <= 2*entropic", lower, values)
                outcome.checked(op, problems)
        return outcome


class SpheresLarge(Workload):
    """Discretized spheres: one large rtlb pair, a size curve, sphere-bound.

    The pair is the 400-node circle against the 406-node 2-sphere grid,
    whose measure is not uniform.  The seed permutes the nodes of the
    1000-node circle: its size curve is unchanged by relabelling, so the
    outputs and the work are the same for every seed.  The pair is not
    permuted, because the LP's time depends on the node order.
    """

    name = "spheres-large"
    workers = 2
    setup_reps = 1
    round_s = 11.0
    pair_resolution = 400
    circle_nodes = 1000
    grid = 512

    def setup(self, seed, inp):
        (inp / "pair").mkdir(parents=True, exist_ok=True)
        for dim in (1, 2):
            net = invariants.sphere_discretize(dim, self.pair_resolution)
            core.save_network(net, inp / "pair" / f"s{dim}.json")
        circle = invariants.sphere_discretize(1, self.circle_nodes)
        order = np.random.default_rng(seed).permutation(circle.n)
        circle = netgw.new_network(circle.weights[np.ix_(order, order)], circle.measure[order])
        core.save_network(circle, inp / "circle.json")
        return [("pair", "s1", "s2"), ("curve", "circle"), ("sphere-bound",)]

    def steps(self, inp, out, workers):
        return [
            ("compare", ["compare", str(inp / "pair"), "--method", "rtlb_max", "--p", "2",
                         "--workers", str(workers), "--out", str(out)]),
            ("invariant", ["invariant", str(inp / "circle.json"), "--kind", "subsize",
                           "--grid", str(self.grid), "--out", str(out)]),
            ("sphere-bound", ["sphere-bound", "--n1", "1", "--n2", "2", "--grid", str(self.grid)]),
        ]

    def check(self, ops, inp, out, results, observed):
        outcome = Outcome(ops)
        pair, curve, bound = ops
        by_step = {"compare": [pair], "invariant": [curve], "sphere-bound": [bound]}
        if not _step_errors(outcome, results, by_step):
            return outcome
        read_report_failures(outcome, out)
        _labels, _D, values = matrix_by_pair(out)
        wx, mx = checks.read_network(inp / "pair" / "s1.json")
        wy, my = checks.read_network(inp / "pair" / "s2.json")
        plan = checks.monotone_coupling(checks.eccentricities(wx, mx, 2.0)[0], mx,
                                        checks.eccentricities(wy, my, 2.0)[0], my)
        chain = [
            ("szlb", checks.szlb(wx, mx, wy, my, 2.0)),
            ("rflb", checks.rflb(wx, mx, wy, my, 2.0)),
            ("rtlb_max", values[pair]),
            ("dis2(monotone coupling)", checks.distortion2(wx, mx, wy, my, plan)),
        ]
        for (low_name, low), (high_name, high) in zip(chain, chain[1:]):
            outcome.checked(pair, checks.check_upper_bounds(f"{low_name} <= {high_name}",
                                                            {pair: low}, {pair: high}))
        t, curve_values = checks.read_curve(out / "curve_circle_sublevel.csv")
        outcome.checked(curve, checks.check_circle_curve(self.circle_nodes, t, curve_values))
        value = float(results["sphere-bound"][1].split()[-1])
        grid = np.linspace(0.0, np.pi, self.grid)
        outcome.checked(bound, checks.check_sphere_bound(value, grid))
        return outcome


WORKLOADS = {w.name: w for w in (Table1Rtlb(), Table1Entropic(), Table1RflbMany(), SpheresLarge())}
