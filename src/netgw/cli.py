"""Command line front end.

Exit codes: 0 success, 1 partial failure (some pairs failed but the
run produced output), 2 bad input or arguments.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    METHODS,
    _fmt,
    check_matrix_labels,
    dissimilarity_matrix,
    emit_outputs,
    ingest_matrix_csv,
    load_dissimilarity_csv,
    single_linkage,
)
from .core import load_network, read_text, save_network
from .errors import IoError, NetgwError
from .generators import SbmSpec, cycle_network, sample_collection
from .invariants import (
    eccentricity,
    interleaving_distance,
    size_curve,
    size_p,
    sphere_subsize_curve,
    weight_pushforward,
)
from .ot import SinkhornConfig

MAX_CLI_NODES = 1000


def _load_any(path):
    path = Path(path)
    if path.suffix.lower() == ".json":
        net = load_network(path)
    else:
        net = ingest_matrix_csv(path)
    if net.n > MAX_CLI_NODES:
        raise NetgwError(
            f"{path}: {net.n} nodes exceeds the CLI limit of {MAX_CLI_NODES}; "
            "subsample the network or use the library API"
        )
    return net


def _load_sbm_specs(path):
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as err:
        raise NetgwError(f"{path}: invalid JSON: {err}") from err
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise NetgwError(f"{path}: expected a spec object or a list of spec objects")
    specs = []
    for k, entry in enumerate(raw):
        try:
            specs.append(
                SbmSpec(
                    means=entry["means"],
                    variances=entry["variances"],
                    block_sizes=entry["block_sizes"],
                    name=str(entry.get("name", f"c{k + 1}")),
                )
            )
        except KeyError as err:
            raise NetgwError(f"{path}: spec {k} missing field {err}") from err
    return specs


def _make_dir(path):
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise IoError(f"cannot create directory {path}: {err}") from err


def _emit(out, file=None, **products):
    for path in emit_outputs(out, **products):
        print(f"wrote {path}", file=file)


def cmd_generate(args):
    out = Path(args.out)
    if args.cycle is not None:
        net = cycle_network([v for v in args.cycle.split(",") if v.strip()])
        target = out / "cycle.json" if out.suffix == "" else out
        _make_dir(target.parent)
        save_network(net, target)
        print(f"wrote {target} ({net.n} nodes)")
        return 0
    specs = args.preset if args.preset else _load_sbm_specs(args.spec)
    networks, classes, labels = sample_collection(specs, args.per_class, args.seed)
    _make_dir(out)
    # the manifest goes first, so a failed write leaves no network files
    manifest = ["label,class,file"] + [
        f"{label},{ci},{label}.json" for ci, label in zip(classes, labels)
    ]
    try:
        (out / "manifest.csv").write_text("\n".join(manifest) + "\n")
    except OSError as err:
        raise IoError(f"cannot write {out / 'manifest.csv'}: {err}") from err
    for net, label in zip(networks, labels):
        save_network(net, out / f"{label}.json")
    source = args.preset if args.preset else args.spec
    print(f"wrote {len(networks)} networks from {source!r} to {out}")
    return 0


def _gather_inputs(paths):
    if len(paths) == 1 and Path(paths[0]).is_dir():
        root = Path(paths[0])
        found = sorted(root.glob("*.json")) + sorted(root.glob("*.csv"))
        found = [p for p in found if p.name != "manifest.csv"]
        if not found:
            raise NetgwError(f"no .json or .csv networks in {root}")
        return found
    return [Path(p) for p in paths]


def cmd_compare(args):
    files = _gather_inputs(args.inputs)
    labels = [p.stem for p in files]
    check_matrix_labels(labels)
    stems = {}
    for path in files:
        other = stems.setdefault(path.stem, path)
        if other.resolve() != path.resolve():
            raise NetgwError(f"{other} and {path} share the stem {path.stem!r}, "
                             "which labels their rows; rename one")
    networks = [_load_any(p) for p in files]
    config = SinkhornConfig(lam=args.lam) if args.method == "entropic_gw" else None
    matrix, failures = dissimilarity_matrix(
        networks,
        args.method,
        p=args.p,
        labels=labels,
        workers=args.workers,
        config=config,
    )
    report = {
        "method": args.method,
        "p": args.p,
        "n_networks": len(networks),
        "n_pairs": len(networks) * (len(networks) - 1) // 2,
        "failures": [
            {"i": f.i, "j": f.j, "pair": [f.label_i, f.label_j], "error": f.error}
            for f in failures
        ],
    }
    _emit(args.out, matrix=matrix, report=report)
    if failures:
        print(
            f"{len(failures)} of {report['n_pairs']} pairs failed; "
            "see report.json",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_cluster(args):
    matrix = load_dissimilarity_csv(args.matrix)
    _emit(args.out, tree=single_linkage(matrix))
    return 0


def cmd_invariant(args):
    net = _load_any(args.network)
    stem = Path(args.network).stem
    if args.kind == "size":
        print(_fmt(size_p(net, args.p)))
        return 0
    if args.kind in ("ecc", "ecc-out", "ecc-in"):
        direction = "in" if args.kind == "ecc-in" else "out"
        values = eccentricity(net, args.p, direction).values
        print(",".join(_fmt(v) for v in values))
        return 0
    if args.kind == "weight-dist":
        dist = weight_pushforward(net)
        print("atom,mass")
        for a, m in zip(dist.atoms, dist.masses):
            print(f"{_fmt(a)},{_fmt(m)}")
        return 0
    kind = "sublevel" if args.kind == "subsize" else "superlevel"
    curve = size_curve(net, args.p, kind=kind, samples=args.grid)
    if args.out:
        _emit(args.out, curves={f"{stem}_{kind}": curve})
    else:
        print("t,value")
        for t, v in zip(curve.grid, curve.values):
            print(f"{_fmt(t)},{_fmt(v)}")
    return 0


def cmd_sphere_bound(args):
    f = sphere_subsize_curve(args.n1, args.p, args.grid)
    g = sphere_subsize_curve(args.n2, args.p, args.grid)
    value = interleaving_distance(f, g, tol=args.tol)
    print(_fmt(value))
    if args.out:
        curves = {f"sphere{args.n1}_p{args.p:g}": f, f"sphere{args.n2}_p{args.p:g}": g}
        _emit(args.out, file=sys.stderr, curves=curves)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netgw",
        description="distances, bounds and invariants for weighted networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample synthetic networks")
    source = g.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=("table1", "table3"))
    source.add_argument("--spec", help="JSON file with block-model spec(s)")
    source.add_argument("--cycle", help="comma separated cycle weights")
    g.add_argument("--per-class", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("compare", help="pairwise dissimilarity matrix")
    c.add_argument("inputs", nargs="+", help="network files or one directory")
    c.add_argument("--method", choices=METHODS, default="rtlb_max")
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--lam", type=float, default=100.0, help="entropic regularizer")
    c.add_argument("--workers", type=int, default=1, help="pool size, capped at pairs and cores")
    c.add_argument("--out", default="netgw-out")
    c.set_defaults(func=cmd_compare)

    k = sub.add_parser("cluster", help="single linkage over a matrix CSV")
    k.add_argument("matrix")
    k.add_argument("--out", default="netgw-out")
    k.set_defaults(func=cmd_cluster)

    i = sub.add_parser("invariant", help="sizes, eccentricities, size curves")
    i.add_argument("network")
    i.add_argument(
        "--kind",
        choices=(
            "size",
            "ecc",
            "ecc-out",
            "ecc-in",
            "weight-dist",
            "subsize",
            "supsize",
        ),
        default="size",
    )
    i.add_argument("--p", type=float, default=1.0)
    i.add_argument("--grid", type=int, default=512, help="curve sample count")
    i.add_argument("--out", default=None)
    i.set_defaults(func=cmd_invariant)

    s = sub.add_parser("sphere-bound", help="lower bound between spheres")
    s.add_argument("--n1", type=int, required=True)
    s.add_argument("--n2", type=int, required=True)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--grid", type=int, default=512, help="curve sample count")
    s.add_argument("--tol", type=float, default=1e-4)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sphere_bound)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a non-finite result already ends as an error line or a failure
    # record; numpy's floating-point warnings on the way would only come
    # first on stderr
    with np.errstate(all="ignore"):
        try:
            return args.func(args)
        except NetgwError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
