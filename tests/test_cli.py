import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from netgw.analysis import load_dissimilarity_csv
from netgw.cli import main
from netgw.core import load_network, new_network, one_point_network, save_network
from netgw.generators import normalize_max_abs, sample_collection


@pytest.fixture
def point_dir(tmp_path):
    d = tmp_path / "nets"
    d.mkdir()
    for name, a in (("p0", 0.0), ("p1", 1.0), ("p3", 3.0)):
        save_network(one_point_network(a), d / f"{name}.json")
    return d


@pytest.fixture
def fig2_file(tmp_path, fig2_triple):
    path = tmp_path / "fig2x.json"
    save_network(fig2_triple[0], path)
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_cycle(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--cycle", "0,1,2", "--out", str(out)]) == 0
    net = load_network(out / "cycle.json")
    npt.assert_array_equal(
        net.weights, [[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]]
    )
    assert "cycle.json" in capsys.readouterr().out


def test_generate_preset_writes_manifest(tmp_path):
    out = tmp_path / "gen"
    code = main(
        ["generate", "--preset", "table3", "--per-class", "1", "--out", str(out)]
    )
    assert code == 0
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "label,class,file"
    assert manifest[1] == "c1-00,0,c1-00.json"
    assert len(manifest) == 6
    net = load_network(out / "c5-00.json")
    assert net.n == 20


def test_generate_from_spec_file(tmp_path):
    spec = {
        "means": [[0.0, 2.0], [2.0, 0.0]],
        "variances": [[0.0, 0.0], [0.0, 0.0]],
        "block_sizes": [1, 2],
        "name": "toy",
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "gen"
    code = main(
        ["generate", "--spec", str(spec_file), "--per-class", "2", "--out", str(out)]
    )
    assert code == 0
    net = load_network(out / "toy-00.json")
    assert net.n == 3
    expect = np.zeros((3, 3))
    expect[0, 1:] = 2.0
    expect[1:, 0] = 2.0
    npt.assert_array_equal(net.weights, expect)  # zero variance: exact means


def test_generate_requires_one_source(tmp_path, capsys):
    out = str(tmp_path / "gen")
    with pytest.raises(SystemExit) as info:
        main(["generate", "--out", out])
    assert info.value.code == 2
    assert "one of the arguments --preset --spec --cycle" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["generate", "--preset", "table1", "--cycle", "1,2", "--out", out])
    assert info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_generate_rejects_bad_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"means": [[0.0]]}')
    assert main(["generate", "--spec", str(bad), "--out", str(tmp_path / "g")]) == 2
    assert "missing field" in capsys.readouterr().err
    bad.write_text("{not json")
    assert main(["generate", "--spec", str(bad), "--out", str(tmp_path / "g")]) == 2


# ---------------------------------------------------------------------------
# compare


def test_compare_directory(point_dir, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", str(point_dir), "--method", "szlb", "--out", str(out)])
    assert code == 0
    matrix = load_dissimilarity_csv(out / "dissimilarity.csv")
    assert matrix.labels == ("p0", "p1", "p3")
    npt.assert_allclose(
        matrix.D, [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]], atol=1e-12
    )
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "szlb"
    assert report["n_pairs"] == 3
    assert report["failures"] == []


def test_compare_report_is_strict_json_at_infinite_order(point_dir, tmp_path):
    # JSON (RFC 8259) has no Infinity: the report names the order "inf"
    out = tmp_path / "cmp"
    code = main(["compare", str(point_dir), "--method", "szlb", "--p", "inf", "--out", str(out)])
    assert code == 0

    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["p"] == "inf"


def test_compare_explicit_files(point_dir, tmp_path):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            str(point_dir / "p0.json"),
            str(point_dir / "p3.json"),
            "--method",
            "rtlb_max",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    matrix = load_dissimilarity_csv(out / "dissimilarity.csv")
    assert matrix.D[0, 1] == pytest.approx(3.0, abs=1e-9)


def test_compare_entropic_uses_lam(point_dir, tmp_path):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            str(point_dir),
            "--method",
            "entropic_gw",
            "--lam",
            "50.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    matrix = load_dissimilarity_csv(out / "dissimilarity.csv")
    npt.assert_allclose(matrix.D[0, 1], 1.0, atol=1e-6)


def test_compare_entropic_range_failure_exits_one(tmp_path, capsys):
    # the kernel range at the default lam cannot hold these weights; the
    # pair must reach the manifest, not the matrix
    d = tmp_path / "nets"
    d.mkdir()
    save_network(new_network([[0.0, 100.0], [50.0, 0.0]], [0.5, 0.5]), d / "x.json")
    save_network(new_network([[0.0, 10.0], [80.0, 5.0]], [0.3, 0.7]), d / "y.json")
    out = tmp_path / "cmp"
    code = main(["compare", str(d), "--method", "entropic_gw", "--out", str(out)])
    assert code == 1
    assert "1 of 1 pairs failed" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["failures"][0]["pair"] == ["x", "y"]
    assert "RangeTooWideError" in report["failures"][0]["error"]
    assert not load_dissimilarity_csv(out / "dissimilarity.csv").complete


def test_compare_entropic_names_the_orbit(tmp_path, capsys):
    # normalized table1 c2 against c4 at the default lam: the plan enters
    # an orbit of period 20, caught at outer iteration 51
    nets, _, labels = sample_collection("table1", per_class=1, base_seed=0)
    d = tmp_path / "nets"
    d.mkdir()
    for net, label in zip(nets, labels):
        if label in ("c2-00", "c4-00"):
            save_network(normalize_max_abs(net), d / f"{label}.json")
    out = tmp_path / "cmp"
    assert main(["compare", str(d), "--method", "entropic_gw", "--out", str(out)]) == 1
    assert "1 of 1 pairs failed" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["failures"][0]["error"] == (
        "NotConvergedError: entropic_gw stopped after 51 outer iterations: "
        "the plan cycles with period 20 (outer iteration 51)"
    )


def test_compare_nonfinite_pairs_exit_one(tmp_path, capsys):
    # size_2 and the eccentricities of "big" overflow to inf: its two
    # pairs fail, the third stays
    d = tmp_path / "nets"
    d.mkdir()
    save_network(new_network([[0.0, 1.0], [2.0, 0.0]], [0.5, 0.5]), d / "a.json")
    save_network(new_network([[0.0, 3.0], [1.0, 1.0]], [0.3, 0.7]), d / "b.json")
    save_network(new_network([[0.0, 1e200], [3e200, 0.0]], [0.5, 0.5]), d / "big.json")
    for method in ("szlb", "rflb"):
        out = tmp_path / method
        code = main(["compare", str(d), "--method", method, "--out", str(out)])
        assert code == 1
        assert "2 of 3 pairs failed" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert [f["pair"] for f in report["failures"]] == [["a", "big"], ["b", "big"]]
        D = load_dissimilarity_csv(out / "dissimilarity.csv").D
        assert np.isfinite(D[0, 1]) and np.isnan(D[0, 2]) and np.isnan(D[1, 2])


def _netgw(cwd, *argv):
    # a separate interpreter, so its stderr is what a shell shows: inside
    # pytest, warnings would be caught before they reach stderr
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "netgw.cli", *argv], cwd=cwd, env=env).returncode


def _overflowing_inputs(tmp_path):
    # |w|^2 of "huge" overflows: in its sizes, eccentricities and curves
    (tmp_path / "huge.json").write_text('{"weights": [[0, 1e200], [1e200, 0]]}')
    (tmp_path / "a.json").write_text('{"weights": [[0, 1], [2, 0]]}')
    (tmp_path / "b.json").write_text('{"weights": [[0, 3], [1, 1]], "measure": [0.3, 0.7]}')


def test_invariant_overflow_prints_one_error_line(tmp_path, capfd):
    _overflowing_inputs(tmp_path)
    assert _netgw(tmp_path, "invariant", "huge.json", "--kind", "subsize", "--p", "2") == 2
    err = capfd.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_compare_overflow_prints_no_warning(tmp_path, capfd, workers):
    # rflb computes the pushforwards in this process; szlb's pairs run in
    # the workers at --workers 2
    _overflowing_inputs(tmp_path)
    for method in ("rflb", "szlb"):
        argv = ["compare", "a.json", "b.json", "huge.json", "--method", method, "--p", "2",
                "--workers", workers, "--out", method]
        assert _netgw(tmp_path, *argv) == 1
        assert capfd.readouterr().err == "2 of 3 pairs failed; see report.json\n"


def test_compare_rejects_oversized_network(tmp_path, capsys):
    n = 1001
    doc = {"weights": [[0.0] * n] * n}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    code = main(["compare", str(big), str(big), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "1001 nodes" in err and "subsample" in err


def test_compare_rejects_bad_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    code = main(["compare", str(bad), str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("stem", ["a,b", "a\nb", "a\rb", "a\u2028b", "a\n"])
def test_compare_rejects_a_stem_the_matrix_cannot_label(point_dir, tmp_path, capsys, stem):
    save_network(one_point_network(2.0), point_dir / f"{stem}.json")
    out = tmp_path / "cmp"
    assert main(["compare", str(point_dir), "--method", "szlb", "--out", str(out)]) == 2
    assert repr(stem) in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_two_files_with_one_stem(point_dir, tmp_path, capsys):
    # p0.json and p0.csv would both label their rows "p0"
    (point_dir / "p0.csv").write_text("0\n")
    out = tmp_path / "cmp"
    assert main(["compare", str(point_dir), "--method", "szlb", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(point_dir / "p0.json") in err and str(point_dir / "p0.csv") in err
    assert not out.exists()


def test_compare_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["compare", str(empty), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "missing.json", "other.json"],
        ["compare", "bad.json", "ok.json"],
        ["compare", "ok.json", "ok.json", "--method", "entropic_gw", "--lam", "-1"],
        ["generate", "--preset", "table1", "--per-class", "0"],
        ["compare", "ok.json", "ok.json", "--method", "entropic_gw", "--p", "1"],
        ["compare", "ok.json", "ok.json", "--p", "0.5"],
        ["generate", "--cycle", "1,x"],
        ["generate", "--spec", "text-means.json"],
        ["generate", "--spec", "number.json"],
        ["generate", "--spec", "text-sizes.json"],
        ["generate", "--spec", "scalar-sizes.json"],
        ["generate", "--preset", "table3", "--per-class", "1", "--out", "taken"],
        ["sphere-bound", "--n1", "1", "--n2", "2", "--grid", "16", "--tol", "0"],
        ["sphere-bound", "--n1", "1", "--n2", "2", "--grid", "16", "--tol", "-1"],
        ["sphere-bound", "--n1", "1", "--n2", "2", "--grid", "16", "--tol", "inf"],
        ["sphere-bound", "--n1", "1", "--n2", "2", "--grid", "-1"],
        ["invariant", "ok.json", "--kind", "subsize", "--grid", "-3"],
        ["generate", "--preset", "table1", "--per-class", "1", "--seed", "-1"],
        ["generate", "--preset", "table3", "--per-class", "1", "--out", "manifest-dir"],
        ["generate", "--spec", "missing-spec.json"],
        ["compare", "ok.json", "ok.json", "--workers", "0"],
        ["compare", "ok.json", "ok.json", "--workers", "-3"],
        ["compare", "empty-weights.json", "ok.json"],
        ["compare", "scalar-weights.json", "ok.json"],
        ["compare", "scalar-labels.json", "ok.json"],
        ["compare", "latin1.json", "ok.json"],
        ["cluster", "latin1.csv"],
        ["invariant", "latin1.csv", "--kind", "size"],
        ["generate", "--spec", "latin1.json"],
        ["invariant", "huge.json", "--kind", "subsize", "--p", "2"],
    ],
    ids=[
        "missing-file",
        "non-numeric-weights",
        "negative-lam",
        "zero-per-class",
        "entropic-p1",
        "order-below-one",
        "non-numeric-cycle",
        "non-numeric-spec-means",
        "spec-not-an-object",
        "non-numeric-block-sizes",
        "scalar-block-sizes",
        "out-is-a-file",
        "zero-tol",
        "negative-tol",
        "infinite-tol",
        "sphere-grid-below-two",
        "curve-grid-below-two",
        "negative-seed",
        "manifest-is-a-directory",
        "missing-spec",
        "zero-workers",
        "negative-workers",
        "empty-weights",
        "scalar-weights",
        "scalar-labels",
        "non-utf8-network",
        "non-utf8-dissimilarity",
        "non-utf8-matrix",
        "non-utf8-spec",
        "non-finite-size-curve",
    ],
)
def test_bad_input_exits_two(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "bad.json").write_text('{"weights": [[0, "x"], [1, 0]]}')
    (tmp_path / "ok.json").write_text('{"weights": [[0, 1], [1, 0]]}')
    (tmp_path / "text-means.json").write_text(
        '{"means": [["x"]], "variances": [[0]], "block_sizes": [1]}'
    )
    (tmp_path / "number.json").write_text("3")
    spec = '{"means": [[0, 1], [1, 0]], "variances": [[0, 0], [0, 0]], "block_sizes": %s}'
    (tmp_path / "text-sizes.json").write_text(spec % '["x", 2]')
    (tmp_path / "scalar-sizes.json").write_text(spec % "3")
    (tmp_path / "taken").write_text("")
    (tmp_path / "empty-weights.json").write_text('{"weights": []}')
    (tmp_path / "scalar-weights.json").write_text('{"weights": 5}')
    (tmp_path / "scalar-labels.json").write_text('{"weights": [[1]], "labels": 7}')
    (tmp_path / "huge.json").write_text('{"weights": [[0, 1e200], [1e200, 0]]}')
    latin1 = '{"labels": ["\u00e9"], "weights": [[0]]}'.encode("latin-1")
    (tmp_path / "latin1.json").write_bytes(latin1)
    (tmp_path / "latin1.csv").write_bytes("# labels: \u00e9\n0\n".encode("latin-1"))
    (tmp_path / "manifest-dir" / "manifest.csv").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    if "--out" not in argv:
        argv = argv + ["--out", "o"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert not (tmp_path / "o" / "report.json").exists()
    assert not list((tmp_path / "manifest-dir").glob("*.json"))


def test_compare_reads_csv_with_measure_row(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("0,2\n2,0\n0.5,0.5\n")
    g = tmp_path / "net2.csv"
    g.write_text("0,4\n4,0\n0.5,0.5\n")
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            str(f),
            str(g),
            "--method",
            "szlb",
            "--p",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    matrix = load_dissimilarity_csv(out / "dissimilarity.csv")
    assert matrix.D[0, 1] == pytest.approx(1.0, abs=1e-12)  # 1-sizes 1 vs 2


# ---------------------------------------------------------------------------
# cluster


def test_cluster_pipeline(point_dir, tmp_path):
    cmp_out = tmp_path / "cmp"
    assert main(["compare", str(point_dir), "--out", str(cmp_out)]) == 0
    cl_out = tmp_path / "cl"
    code = main(
        ["cluster", str(cmp_out / "dissimilarity.csv"), "--out", str(cl_out)]
    )
    assert code == 0
    newick = (cl_out / "dendrogram.newick").read_text().strip()
    assert newick.endswith(";")
    assert "p0" in newick and "p3" in newick
    merges = (cl_out / "merges.csv").read_text().splitlines()
    assert merges[0] == "left,right,height,size"
    assert len(merges) == 3  # two merges for three leaves


def test_cluster_keeps_spaces_around_stems(tmp_path):
    # a stem's leading or trailing space survives the CSV between the two
    # steps; the Newick writer then spells each space as an underscore
    nets = tmp_path / "nets"
    nets.mkdir()
    for name, a in ((" p0", 0.0), ("p1 ", 1.0)):
        save_network(one_point_network(a), nets / f"{name}.json")
    cmp_out, cl_out = tmp_path / "cmp", tmp_path / "cl"
    assert main(["compare", str(nets), "--method", "szlb", "--out", str(cmp_out)]) == 0
    assert load_dissimilarity_csv(cmp_out / "dissimilarity.csv").labels == (" p0", "p1 ")
    assert main(["cluster", str(cmp_out / "dissimilarity.csv"), "--out", str(cl_out)]) == 0
    assert (cl_out / "dendrogram.newick").read_text() == "(_p0:1,p1_:1);\n"


def test_cluster_rejects_bad_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,0\n0,0\n")  # not square
    assert main(["cluster", str(bad), "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# invariant


def test_invariant_size(fig2_file, capsys):
    assert main(["invariant", str(fig2_file), "--kind", "size", "--p", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.75"


def test_invariant_eccentricity(fig2_file, capsys):
    assert main(["invariant", str(fig2_file), "--kind", "ecc", "--p", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.5,1.5,2"


def test_invariant_weight_dist(fig2_file, capsys):
    assert main(["invariant", str(fig2_file), "--kind", "weight-dist"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "atom,mass"
    assert lines[1] == "1,0.5"
    assert len(lines) == 4


def test_invariant_curve_to_stdout(fig2_file, capsys):
    code = main(
        ["invariant", str(fig2_file), "--kind", "subsize", "--grid", "8"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 9


def test_invariant_curve_to_file(fig2_file, tmp_path):
    out = tmp_path / "inv"
    code = main(
        [
            "invariant",
            str(fig2_file),
            "--kind",
            "supsize",
            "--grid",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    curve = (out / "curve_fig2x_superlevel.csv").read_text().splitlines()
    assert curve[0] == "t,value"
    assert len(curve) == 9


# ---------------------------------------------------------------------------
# sphere-bound


def test_sphere_bound_identical_dimensions(capsys):
    code = main(["sphere-bound", "--n1", "1", "--n2", "1", "--grid", "64"])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_sphere_bound_circle_vs_sphere(tmp_path, capsys):
    out = tmp_path / "sph"
    code = main(
        [
            "sphere-bound",
            "--n1",
            "1",
            "--n2",
            "2",
            "--grid",
            "128",
            "--tol",
            "1e-3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    value = float(capsys.readouterr().out.strip().splitlines()[0])
    assert 0.1 < value < 0.3
    assert (out / "curve_sphere1_p1.csv").exists()
    assert (out / "curve_sphere2_p1.csv").exists()


def test_sphere_bound_at_large_order(capsys):
    # t^(p+1) overflows from p of about 620; the sizes, near t, do not
    values = []
    for p in ("600", "1000"):
        assert main(["sphere-bound", "--n1", "1", "--n2", "2", "--p", p, "--grid", "64"]) == 0
        values.append(float(capsys.readouterr().out.strip()))
    assert 0.0 < values[1] < values[0] < 0.03


@pytest.mark.parametrize("n1, n2, p", [("1", "2", "1e8"), ("2", "3", "1e300")])
def test_sphere_bound_at_extreme_order_is_quiet(tmp_path, capfd, n1, n2, p):
    # at p = 1e8 sin(t u) cancels near t = pi; at p = 1e300 the size's
    # p-th power underflows.  At 1e300 each size rounds to t itself, so
    # the two curves coincide and the printed bound is 0.
    assert _netgw(tmp_path, "sphere-bound", "--n1", n1, "--n2", n2, "--p", p) == 0
    captured = capfd.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    value = float(lines[0])
    assert 0.0 < value < 1e-4 if p == "1e8" else value == 0.0
