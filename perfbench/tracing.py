"""Span recording around netgw's layers, from outside the package.

Each layer function is replaced, at the module attribute its caller
looks up, by a wrapper that records a span (name, start, end, parent)
and, for some layers, a count taken from the arguments or the result.
Spans stay in memory until the round ends.  A span's self time is its
duration minus the time its child spans cover.
"""

import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

import numpy as np


@contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block.

    replacements: iterable of (module name, attribute, factory); the
    factory receives the current attribute and returns its replacement.
    """
    saved = []
    try:
        for module_name, attr, factory in replacements:
            module = import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self.jobs = []
        self._stack = []

    def wrap(self, name, fn, on_exit=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
                if on_exit is not None:
                    on_exit(self, args, result, error)

        return traced

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)


# ---------------------------------------------------------------------------
# counts recorded at layer boundaries

def _exact_ot(tracer, args, result, error):
    rows, cols = np.shape(args[0])
    tracer.counts["ot.exact_ot.vars"] += rows * cols


def _tlb_pow(tracer, args, result, error):
    m, n = np.shape(args[0])[0], np.shape(args[2])[0]
    tracer.counts["kernels.tlb_pow.steps"] += m * n * (m + n)


def _sinkhorn(tracer, args, result, error):
    outcome = result if error is None else getattr(error, "partial", None)
    if error is not None and outcome is not None:
        tracer.counts["ot.sinkhorn.stalls"] += 1
    if outcome is not None:
        tracer.counts["ot.sinkhorn.iterations"] += outcome.iterations
        tracer.counts["ot.sinkhorn.absorptions"] += outcome.absorptions


def _entropic(tracer, args, result, error):
    if result is not None:
        tracer.counts["gw.outer_iterations"] += result.iterations
        failed = not result.converged or result.inner_error is not None
        tracer.counts["gw.nonconverged"] += failed


def _pair_job(tracer, args, result, error):
    tracer.jobs.append(args[0])


def _written(tracer, args, result, error):
    paths = result if isinstance(result, list) else [args[1]]
    if error is None:
        tracer.counts["io.write.bytes"] += sum(os.path.getsize(p) for p in paths)


def _read(tracer, args, result, error):
    if error is None:
        tracer.counts["io.read.bytes"] += os.path.getsize(args[0])


# layer name -> [(module, attribute its caller looks up)], count hook
LAYERS = {
    "ot.exact_ot": ([("netgw.bounds", "exact_ot")], _exact_ot),
    "kernels.tlb_pow": ([("netgw._kernels", "tlb_pow")], _tlb_pow),
    "bounds.quantiles": ([("netgw.bounds", "_local_quantiles")], None),
    "bounds.1d": (
        [(m, f) for m in ("netgw.analysis", "netgw.bounds") for f in ("szlb", "rflb", "rslb")],
        None,
    ),
    "invariants.pushforward": (
        [("netgw.bounds", "ecc_pushforward"), ("netgw.bounds", "weight_pushforward")],
        None,
    ),
    "ot.wasserstein_1d": ([("netgw.bounds", "wasserstein_1d")], None),
    "ot.sinkhorn": ([("netgw.gw", "sinkhorn_log")], _sinkhorn),
    "gw.entropic": ([("netgw.analysis", "entropic_gw")], _entropic),
    "gw.linearize": ([("netgw.gw", "_linearized_cost")], None),
    "gw.round": ([("netgw.gw", "_round_to_marginals")], None),
    "gw.distortion": ([("netgw.gw", "distortion")], None),
    "analysis.pair": ([("netgw.analysis", "_pair_job")], _pair_job),
    "analysis.linkage": ([("netgw.cli", "single_linkage")], None),
    "io.write": (
        [
            ("netgw.cli", "save_network"),
            ("netgw.core", "save_network"),
            ("netgw.cli", "emit_outputs"),
        ],
        _written,
    ),
    "io.read": ([("netgw.cli", "load_network"), ("netgw.cli", "load_dissimilarity_csv")], _read),
    "generators": (
        [
            ("netgw.cli", "sample_collection"),
            ("netgw.generators", "sample_collection"),
            ("netgw.generators", "normalize_max_abs"),
            ("netgw.invariants", "sphere_discretize"),
        ],
        None,
    ),
    "invariants.size_curve": ([("netgw.cli", "size_curve")], None),
    "invariants.sub_size": ([("netgw.invariants", "sub_size")], None),
    "invariants.interleaving": ([("netgw.cli", "interleaving_distance")], None),
}


@contextmanager
def tracing(tracer):
    """Wrap every layer in LAYERS while the block runs."""

    def factory(name, hook):
        return lambda fn: tracer.wrap(name, fn, hook)

    with patched(
        (module, attr, factory(name, hook))
        for name, (sites, hook) in LAYERS.items()
        for module, attr in sites
    ):
        yield tracer


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def layer_metrics(tracer, pooled):
    """Per-layer metrics of one traced round.

    pooled: whether the untraced run sends these pairs to a process
    pool; the pool metrics then count the jobs and their pickled bytes,
    which is what the pool would have to ship.
    """
    own = tracer.self_times()
    counts = tracer.counts
    jobs = tracer.jobs if pooled and len(tracer.jobs) > 1 else []
    return {
        "ot.exact_ot.calls": tracer.calls("ot.exact_ot"),
        "ot.exact_ot.self_s": own["ot.exact_ot"],
        "ot.exact_ot.vars": counts["ot.exact_ot.vars"],
        "kernels.tlb_pow.self_s": own["kernels.tlb_pow"],
        "kernels.tlb_pow.steps": counts["kernels.tlb_pow.steps"],
        "bounds.quantiles.calls": tracer.calls("bounds.quantiles"),
        "bounds.quantiles.self_s": own["bounds.quantiles"],
        "bounds.1d.self_s": own["bounds.1d"],
        "invariants.pushforward.calls": tracer.calls("invariants.pushforward"),
        "ot.wasserstein_1d.self_s": own["ot.wasserstein_1d"],
        "ot.sinkhorn.calls": tracer.calls("ot.sinkhorn"),
        "ot.sinkhorn.self_s": own["ot.sinkhorn"],
        "ot.sinkhorn.iterations": counts["ot.sinkhorn.iterations"],
        "ot.sinkhorn.stalls": counts["ot.sinkhorn.stalls"],
        "ot.sinkhorn.absorptions": counts["ot.sinkhorn.absorptions"],
        "gw.outer_iterations": counts["gw.outer_iterations"],
        "gw.nonconverged": counts["gw.nonconverged"],
        "gw.linearize.self_s": own["gw.linearize"],
        "gw.round.self_s": own["gw.round"],
        "gw.distortion.self_s": own["gw.distortion"],
        "analysis.pool.jobs": len(jobs),
        "analysis.pool.bytes": sum(len(pickle.dumps(job)) for job in jobs),
        "analysis.linkage.self_s": own["analysis.linkage"],
        "io.write.self_s": own["io.write"],
        "io.write.bytes": counts["io.write.bytes"],
        "io.read.self_s": own["io.read"],
        "io.read.bytes": counts["io.read.bytes"],
        "generators.self_s": own["generators"],
        # the rescans run inside sub_size, so the curve layer's time includes them
        "invariants.size_curve.self_s": own["invariants.size_curve"] + own["invariants.sub_size"],
        "invariants.sub_size.calls": tracer.calls("invariants.sub_size"),
        "invariants.interleaving.self_s": own["invariants.interleaving"],
    }
