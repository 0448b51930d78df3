"""What every scripts/bench_*.py shares: one BLAS thread, the machine
record, the report writer and the per-call timer.

Import it before numpy.  It sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS to 1 while numpy is not yet loaded, so that BLAS
reads them: the timings then hold no thread start-up (the first p = 2
products of a process took 10 times longer) and two pool workers fit
two cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402


def parser(doc, out):
    """An argument parser described by the script's docstring, with --out."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--out", default=out)
    return p


def seconds(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the seconds it took."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def machine(*modules):
    """The machine a report was measured on, with the versions of numpy and `modules`."""
    return {
        "cpus": os.cpu_count(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        **{module.__name__: module.__version__ for module in (np, *modules)},
    }


def write_report(path, report, *modules):
    """Write report, with its machine record, to path as indented JSON."""
    with open(path, "w") as fh:
        json.dump({**report, "machine": machine(*modules)}, fh, indent=2)
        fh.write("\n")
