import csv
import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import margin_auditor
from margin_auditor.cli import main
from cli_fixture import (TRAIN_GOLDEN_RUNS, build_fixture, build_idx_fixture,
                         build_train_fixture, sha256_lines, write_train_config)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

# manifests that are not JSON or do not describe a network
MALFORMED_MANIFESTS = {
    "top-level-list": "[]",
    "layer-without-weight": '{"layers": [{"reference": "zero"}]}',
    "string-layer": '{"layers": ["fixture_w0.mat"]}',
    "string-nonlinearity": '{"layers": [{"weight": "fixture_w0.mat", "nonlinearity": "relu"}]}',
    "numeric-reference": '{"layers": [{"weight": "fixture_w0.mat", "reference": 3}]}',
    "numeric-groups": '{"layers": [{"weight": "fixture_w0.mat", '
                      '"nonlinearity": {"kind": "maxpool", "groups": 5}}]}',
    "string-group-index": '{"layers": [{"weight": "fixture_w0.mat", '
                          '"nonlinearity": {"kind": "maxpool", "groups": [["a"]]}}]}',
    "fractional-group-index": '{"layers": [{"weight": "fixture_w0.mat", '
                              '"nonlinearity": {"kind": "maxpool", "groups": [[0.7], [1]]}}]}',
    "boolean-group-index": '{"layers": [{"weight": "fixture_w0.mat", '
                           '"nonlinearity": {"kind": "maxpool", "groups": [[0], [1, true]]}}]}',
    "non-square-identity-reference": '{"layers": [{"weight": "fixture_w0.mat", '
                                     '"reference": "identity"}]}',
    "truncated-json": '{"layers": [',
}


# one identity layer (weight, reference) on 3 two-class rows (X, y), each
# giving one value beyond float64 and the message that names it
BEYOND_FLOAT64 = {
    # a subnormal normalizer R_A ||X|| / n: raw / normalizer overflows
    "normalized-margin": (np.diag([1.0, 1e-308]), np.diag([1.0, 0.0]),
                          [[1.0, 0.0], [0.5, 0.0], [1.0, 0.0]], [1, 2, 1], "a normalized margin"),
    # finite outputs near +-1e308 whose correct - max overflows
    "raw-margin": (np.array([[1e298], [-1e298]]), np.array([[1e298], [-1e298]]) * (1 - 2.0**-40),
                   [[1e10], [1e10], [0.5]], [1, 2, 2], "a raw margin"),
    # W = 1e308 I against M = -0.9 W: W - M = 1.9e308 I
    "deviation": (1e308 * np.eye(2), -0.9e308 * np.eye(2),
                  [[1e-300, 0.0], [0.0, 1e-300], [1e-300, 1e-300]], [1, 2, 1], "a deviation W - M"),
}


def unwritable_out(tmp_path, case):
    """An ``--out`` that cannot be written, and the path the error must name."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    if case == "out-is-a-file":
        return str(blocker), str(blocker)
    if case == "out-under-a-file":
        return str(blocker / "sub"), str(blocker / "sub")
    out = tmp_path / "out"
    (out / "margins.csv").mkdir(parents=True)  # case "output-is-a-directory"
    return str(out), str(out / "margins.csv")


UNWRITABLE_OUTS = ["out-is-a-file", "out-under-a-file", "output-is-a-directory"]


def assert_one_line_error(capsys, error, path):
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == error
    assert path in diagnostic["message"]


def run_on(tmp_path, command, net, ds, *flags):
    """``command``'s exit code on ``net`` and ``ds`` saved under ``tmp_path``, and its --out."""
    from margin_auditor import save_dataset, save_manifest

    manifest = save_manifest(net, str(tmp_path / "net"))
    feats, labels = str(tmp_path / "x.mat"), str(tmp_path / "y.lbl")
    save_dataset(ds, feats, labels)
    out = tmp_path / "out"
    argv = [command, manifest, "--features", feats, "--labels", labels, "--out", str(out)]
    return main(argv + list(flags)), out


def golden_bytes(*parts):
    with open(os.path.join(GOLDEN_DIR, *parts), "rb") as f:
        return f.read()


@pytest.fixture
def fixture_paths(tmp_path):
    return build_fixture(str(tmp_path))


class TestAnalyze:
    def test_golden_byte_identical(self, tmp_path, fixture_paths):
        manifest, feats, labels = fixture_paths
        out = str(tmp_path / "out")
        rc = main(["analyze", manifest, "--features", feats, "--labels", labels,
                   "--out", out, "--delta", "0.05"])
        assert rc == 0
        assert Path(out, "bound-report.json").read_bytes() == golden_bytes("bound-report.json")
        assert Path(out, "margins.csv").read_bytes() == golden_bytes("margins.csv")

    def test_outputs_parse_with_own_readers(self, tmp_path, fixture_paths):
        manifest, feats, labels = fixture_paths
        out = str(tmp_path / "out")
        assert main(["analyze", manifest, "--features", feats, "--labels", labels,
                     "--out", out]) == 0
        report = json.loads(Path(out, "bound-report.json").read_text())
        assert report["bound_total"] == pytest.approx(
            report["ramp_risk"] + report["term_const"]
            + report["term_complexity"] + report["term_confidence"]
        )
        rows = list(csv.DictReader(Path(out, "margins.csv").read_text().splitlines()))
        assert len(rows) == report["n"]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "no.json"), "--features", "x", "--labels", "y"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no.json" in err
        assert json.loads(err)["error"] == "InputOutputError"

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS) + ["manifest-is-directory",
                                                                    "idx-inspect-directory"])
    def test_malformed_or_unreadable_input_exit_2(self, tmp_path, fixture_paths, capsys, case):
        manifest, feats, labels = fixture_paths
        error, bad = "InputOutputError", str(tmp_path) + os.sep  # the file the error names
        if case in MALFORMED_MANIFESTS:
            error, bad = "ParseError", os.path.join(os.path.dirname(manifest), "bad.json")
            with open(bad, "w", encoding="utf-8") as f:
                f.write(MALFORMED_MANIFESTS[case])
        argv = ["analyze", bad, "--features", feats, "--labels", labels,
                "--out", str(tmp_path / "out")]
        if case == "idx-inspect-directory":
            argv = ["idx-inspect", bad]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        diagnostic = json.loads(err)
        assert diagnostic["error"] == error
        assert bad in diagnostic["message"]

    def test_empty_idx_images_exit_2(self, tmp_path, fixture_paths, capsys):
        manifest = fixture_paths[0]
        images, labels = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
        with open(images, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 0, 2, 2))
        with open(labels, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 0))
        assert main(["margins", manifest, "--features", images, "--labels", labels,
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys, "ParseError", images)

    @pytest.mark.parametrize("labels_of_rows, k", [((1, 7), 3), ((1, 2), 0)],
                             ids=["label-beyond-k", "no-classes"])
    def test_invalid_lbl1_contents_exit_2(self, tmp_path, fixture_paths, capsys,
                                          labels_of_rows, k):
        manifest, feats, _ = fixture_paths
        labels = str(tmp_path / "bad.lbl")
        with open(labels, "wb") as f:  # the fixture's 40 rows, labelled 1, 7, 1, 7, ...
            f.write(b"LBL1" + struct.pack("<42I", 40, k, *labels_of_rows * 20))
        assert main(["analyze", manifest, "--features", feats, "--labels", labels,
                     "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys, "ParseError", f"{labels}: invalid LBL1 contents")
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_features_pipe_is_refused_before_it_is_opened(self, tmp_path, fixture_paths):
        # the features file is opened once to sniff its magic and again to
        # load it, so a pipe would block; nothing writes to this one
        import subprocess

        manifest, _, labels = fixture_paths
        fifo = str(tmp_path / "features")
        os.mkfifo(fifo)
        proc = subprocess.run(
            [sys.executable, "-m", "margin_auditor.cli", "analyze", manifest, "--features", fifo,
             "--labels", labels, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        diagnostic = json.loads(proc.stderr)
        assert diagnostic["error"] == "InputOutputError"
        assert fifo in diagnostic["message"]

    @pytest.mark.parametrize("command", ["analyze", "margins"])
    @pytest.mark.parametrize("case", UNWRITABLE_OUTS)
    def test_unwritable_out_exit_2(self, tmp_path, fixture_paths, capsys, command, case):
        manifest, feats, labels = fixture_paths
        out, bad = unwritable_out(tmp_path, case)
        assert main([command, manifest, "--features", feats, "--labels", labels,
                     "--out", out]) == 2
        assert_one_line_error(capsys, "InputOutputError", bad)

    def test_bad_delta_exit_3(self, fixture_paths):
        manifest, feats, labels = fixture_paths
        rc = main(["analyze", manifest, "--features", feats, "--labels", labels,
                   "--delta", "1.5"])
        assert rc == 3

    def test_lapack_failure_exit_4(self, fixture_paths, monkeypatch, capsys):
        def fail(g):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        manifest, feats, labels = fixture_paths
        rc = main(["analyze", manifest, "--features", feats, "--labels", labels])
        assert rc == 4
        assert json.loads(capsys.readouterr().err)["error"] == "NumericDegeneracyError"

    @pytest.mark.parametrize("command", ["analyze", "margins"])
    def test_value_beyond_float64_exit_4_and_no_output(self, tmp_path, capsys, command):
        from margin_auditor import (Dataset, Identity, Layer, Network, Relu, save_dataset,
                                    save_manifest)

        # R_A of a 16-8-3 net with entries near 1e154 is beyond float64
        r = np.random.default_rng(22)
        net = Network(layers=(
            Layer(weight=1e154 * r.standard_normal((8, 16)), nonlinearity=Relu()),
            Layer(weight=1e154 * r.standard_normal((3, 8)), nonlinearity=Identity()),
        ))
        ds = Dataset(X=1e-300 * r.standard_normal((20, 16)), y=np.arange(20) % 3 + 1, k=3)
        manifest = save_manifest(net, str(tmp_path / "net"))
        feats, labels = str(tmp_path / "x.mat"), str(tmp_path / "y.lbl")
        save_dataset(ds, feats, labels)
        out = tmp_path / "out"
        assert main([command, manifest, "--features", feats, "--labels", labels,
                     "--out", str(out)]) == 4
        assert_one_line_error(capsys, "NumericDegeneracyError", "float64")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "margins"])
    @pytest.mark.parametrize("case", sorted(BEYOND_FLOAT64))
    def test_margin_or_deviation_beyond_float64_exit_4_and_no_output(self, tmp_path, capsys,
                                                                      case, command):
        from margin_auditor import Dataset, Identity, Layer, Network

        weight, reference, x, y, what = BEYOND_FLOAT64[case]
        net = Network(layers=(Layer(weight, Identity(), reference),))
        rc, out = run_on(tmp_path, command, net, Dataset(X=np.array(x), y=np.array(y), k=2))
        assert rc == 4
        assert_one_line_error(capsys, "NumericDegeneracyError", f"{what} exceeds the float64 range")
        assert not out.exists()

    def test_kde_grid_beyond_float64_exit_4_and_no_output(self, tmp_path, capsys):
        from margin_auditor import Dataset, Identity, Layer, Network

        # the normalized margins, 6.7e307 and -3.3e307, lie in float64, but the
        # KDE grid around them, 6 bandwidths wider on each side, does not
        net = Network(layers=(Layer(np.diag([1.0, 3e-308]), Identity(), np.diag([1.0, 0.0])),))
        ds = Dataset(X=np.array([[1.0, 0.0], [0.5, 0.0], [1.0, 0.0]]), y=np.array([1, 2, 1]), k=2)
        rc, out = run_on(tmp_path, "margins", net, ds)
        assert rc == 4
        assert_one_line_error(capsys, "NumericDegeneracyError", "the KDE grid width exceeds")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "margins"])
    def test_zero_spectral_complexity_exit_4_and_no_output(self, tmp_path, capsys, command):
        from margin_auditor import (Dataset, Identity, Layer, Network, Relu, save_dataset,
                                    save_manifest)

        # every s_i of this 6-8-5-3 net is near 1e-137, so their product
        # underflows to R_A = 0 while each layer's norms stay positive
        r = np.random.default_rng(23)
        net = Network(layers=tuple(
            Layer(weight=1e-137 * r.standard_normal(shape), nonlinearity=nl)
            for shape, nl in (((8, 6), Relu()), ((5, 8), Relu()), ((3, 5), Identity()))
        ))
        ds = Dataset(X=r.standard_normal((20, 6)), y=np.arange(20) % 3 + 1, k=3)
        manifest = save_manifest(net, str(tmp_path / "net"))
        feats, labels = str(tmp_path / "x.mat"), str(tmp_path / "y.lbl")
        save_dataset(ds, feats, labels)
        out = tmp_path / "out"
        assert main([command, manifest, "--features", feats, "--labels", labels,
                     "--out", str(out)]) == 4
        assert_one_line_error(capsys, "NumericDegeneracyError", "spectral complexity is 0")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "margins"])
    def test_overflowed_forward_pass_exit_4(self, tmp_path, capsys, command):
        from margin_auditor import Dataset, Identity, Layer, Network, save_dataset, save_manifest

        # R_A stays finite, but the outputs on the data overflow
        r = np.random.default_rng(0)
        w = 1e300 * r.standard_normal((3, 4))
        net = Network(layers=(Layer(weight=w, nonlinearity=Identity(), reference=w * (1 - 1e-6)),))
        ds = Dataset(X=1e10 * r.standard_normal((20, 4)), y=np.arange(20) % 3 + 1, k=3)
        manifest = save_manifest(net, str(tmp_path / "net"))
        feats, labels = str(tmp_path / "x.mat"), str(tmp_path / "y.lbl")
        save_dataset(ds, feats, labels)
        out = tmp_path / "out"
        assert main([command, manifest, "--features", feats, "--labels", labels,
                     "--out", str(out)]) == 4
        assert_one_line_error(capsys, "NumericDegeneracyError", "network outputs")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "margins"])
    def test_histogram_beyond_float64_exit_4_and_no_inf_csv(self, tmp_path, capsys, command):
        from margin_auditor import (Dataset, Identity, Layer, Network, Relu, save_dataset,
                                    save_manifest)

        # tiny weights far from huge references: the normalized margins are
        # finite, but np.histogram's density overflows on them
        r = np.random.default_rng(0)
        w1, m1 = 1e-154 * r.standard_normal((3, 4)), 1e153 * r.standard_normal((3, 4))
        w2, m2 = 1e-154 * r.standard_normal((2, 3)), 1e153 * r.standard_normal((2, 3))
        net = Network(layers=(Layer(w1, Relu(), m1), Layer(w2, Identity(), m2)))
        ds = Dataset(X=r.standard_normal((10, 4)), y=r.integers(1, 3, 10), k=2)
        manifest = save_manifest(net, str(tmp_path / "net"))
        feats, labels = str(tmp_path / "x.mat"), str(tmp_path / "y.lbl")
        save_dataset(ds, feats, labels)
        out = tmp_path / "out"
        assert main([command, manifest, "--features", feats, "--labels", labels,
                     "--out", str(out)]) == 4
        assert_one_line_error(capsys, "NumericDegeneracyError", "")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "margins"])
    def test_ratio_sum_beyond_float64_exit_4_and_no_output(self, tmp_path, capsys, command):
        from margin_auditor import Dataset, Identity, Layer, Network, Relu

        # W_i = 1e-300 N(0,1) against M_i = 3e7 N(0,1): the norm product underflows
        # and sum (b_i/s_i)^(2/3) passes 3.2e205, whose float ** 1.5 overflows
        r = np.random.default_rng(0)
        net = Network(layers=tuple(
            Layer(1e-300 * r.standard_normal((3, 3)), Relu() if i < 7 else Identity(),
                  3e7 * r.standard_normal((3, 3)))
            for i in range(8)
        ))
        ds = Dataset(X=r.standard_normal((10, 3)), y=np.arange(10) % 3 + 1, k=3)
        rc, out = run_on(tmp_path, command, net, ds)
        assert rc == 4
        assert_one_line_error(capsys, "NumericDegeneracyError", "spectral complexity is nan")
        assert not out.exists()

    def test_pac_bayes_comparator_near_float64_limit_exit_0(self, tmp_path):
        from margin_auditor import Dataset, Identity, Layer, Network

        # ||W - M||_F and s near 1e160 square beyond float64, but their ratio does not
        r = np.random.default_rng(0)
        net = Network(layers=(Layer(1e160 * r.standard_normal((3, 4)), Identity()),))
        ds = Dataset(X=r.standard_normal((10, 4)), y=np.arange(10) % 3 + 1, k=3)
        rc, out = run_on(tmp_path, "analyze", net, ds)
        assert rc == 0
        report = json.loads((out / "bound-report.json").read_text())
        assert report["R_A"] <= report["R_PB"] < math.inf

    def test_accepts_idx_input(self, tmp_path, fixture_paths):
        manifest, _, _ = fixture_paths
        # 16-feature IDX images do not chain into the 4-input fixture net
        images, labels = build_idx_fixture(str(tmp_path))
        rc = main(["analyze", manifest, "--features", images, "--labels", labels])
        assert rc == 3  # dimension error, proving the IDX pair parsed


class TestMargins:
    def test_golden_byte_identical(self, tmp_path, fixture_paths):
        manifest, feats, labels = fixture_paths
        out = tmp_path / "m"
        assert main(["margins", manifest, "--features", feats, "--labels", labels,
                     "--out", str(out)]) == 0
        for name in ("histogram.csv", "kde.csv", "margin-summary.json", "margins.csv"):
            assert (out / name).read_bytes() == golden_bytes("margins", name), name

    def test_writes_all_artifacts(self, tmp_path, fixture_paths):
        manifest, feats, labels = fixture_paths
        out = str(tmp_path / "m")
        rc = main(["margins", manifest, "--features", feats, "--labels", labels,
                   "--out", out, "--bins", "6"])
        assert rc == 0
        names = sorted(os.listdir(out))
        assert names == ["histogram.csv", "kde.csv", "margin-summary.json", "margins.csv"]
        hist = list(csv.DictReader(Path(out, "histogram.csv").read_text().splitlines()))
        assert len(hist) == 6
        kde = list(csv.DictReader(Path(out, "kde.csv").read_text().splitlines()))
        assert len(kde) == 256

    def test_near_tied_margins_write_one_bin(self, tmp_path):
        from margin_auditor import Dataset, Identity, Layer, Network

        # normalized margins one ulp apart: too narrow a range for 30 bins
        net = Network(layers=(Layer(np.eye(2), Identity(), np.eye(2) / 2),))
        ds = Dataset(X=np.array([[1.0, 0.0], [1.0 + 2.0**-52, 0.0]]), y=np.array([1, 1]), k=2)
        rc, out = run_on(tmp_path, "margins", net, ds)
        assert rc == 0
        hist = list(csv.DictReader((out / "histogram.csv").read_text().splitlines()))
        assert [float(row["density"]) for row in hist] == [1.0]

    @pytest.mark.parametrize("flags", [["--gamma", "0"], ["--gamma", "-0.5"],
                                       ["--delta", "1.5"], ["--delta", "0"], ["--gamma", "inf"]])
    def test_bad_gamma_or_delta_exit_3(self, tmp_path, fixture_paths, capsys, flags):
        manifest, feats, labels = fixture_paths
        out = tmp_path / "out"
        for command in ("analyze", "margins"):
            rc = main([command, manifest, "--features", feats, "--labels", labels,
                       "--out", str(out)] + flags)
            assert rc == 3, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert json.loads(err)["error"] == "ParameterError"
            assert not out.exists()

    def test_single_example_exit_3(self, tmp_path, fixture_paths, capsys):
        from margin_auditor import Dataset, load_dataset, save_dataset

        manifest, feats, labels = fixture_paths
        ds = load_dataset(feats, labels)
        one_x, one_y = str(tmp_path / "one_x.mat"), str(tmp_path / "one_y.lbl")
        save_dataset(Dataset(X=ds.X[:1], y=ds.y[:1], k=ds.k), one_x, one_y)
        rc = main(["margins", manifest, "--features", one_x, "--labels", one_y])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ParameterError"

    def test_one_forward_and_no_bound(self, tmp_path, fixture_paths, monkeypatch):
        from margin_auditor import complexity
        from margin_auditor.network import Network

        rows = []
        chain = Network._chain

        def counted(net, z, images=None):
            rows.append(len(z))
            return chain(net, z, images)

        def no_bound(*args, **kwargs):
            raise AssertionError("the margins command evaluated a bound")

        monkeypatch.setattr(Network, "_chain", counted)
        monkeypatch.setattr(complexity, "generalization_bound_fixed", no_bound)
        monkeypatch.setattr(complexity, "_uniform_bound", no_bound)
        manifest, feats, labels = fixture_paths
        assert main(["margins", manifest, "--features", feats, "--labels", labels,
                     "--out", str(tmp_path / "m")]) == 0
        assert sum(rows) == 40  # cli_fixture: 40 examples, each forwarded once


def test_non_finite_value_is_rendered_before_the_file_opens(tmp_path):
    from margin_auditor.serialize import write_json_17g

    path = tmp_path / "report.json"
    with pytest.raises(margin_auditor.NumericDegeneracyError):
        write_json_17g(str(path), {"R_A": 1.0, "bound_total": math.inf})
    assert not path.exists()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_csv_column_is_rejected_before_the_file_opens(tmp_path, bad):
    from margin_auditor.serialize import write_csv_17g

    path = tmp_path / "values.csv"
    with pytest.raises(margin_auditor.NumericDegeneracyError, match="non-finite"):
        write_csv_17g(str(path), ("index", "value"), np.arange(3), np.array([0.5, bad, 1.0]))
    assert not path.exists()
    write_csv_17g(str(path), ("index", "value"), np.arange(2), np.array([0.5, 1.0]))
    assert path.read_text() == "index,value\n0,0.5\n1,1\n"


def test_unserializable_value_is_a_type_error():
    from margin_auditor.serialize import dumps_17g

    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps_17g({"a": object()})


def test_empty_containers_and_none_serialize_inline():
    from margin_auditor.serialize import dumps_17g

    assert dumps_17g({}) == "{}\n"
    assert dumps_17g([]) == "[]\n"
    assert dumps_17g({"a": None, "b": [], "c": {}}) == '{\n  "a": null,\n  "b": [],\n  "c": {}\n}\n'


class TestReportConsistency:
    def test_report_matches_public_wrappers_bitwise(self, fixture_paths):
        from margin_auditor import (
            analyze_network,
            generalization_bound_uniform,
            load_dataset,
            load_manifest,
            ramp_risk_empirical,
        )

        manifest, feats, labels = fixture_paths
        net, ds = load_manifest(manifest), load_dataset(feats, labels)
        for gamma in (None, 0.3):
            report, md = analyze_network(net, ds, gamma=gamma, delta=0.05)
            assert report.gamma == md.gamma_used
            assert report.ramp_risk == ramp_risk_empirical(net, ds, report.gamma)
            assert report.uniform_bound_total == generalization_bound_uniform(
                net, ds, report.gamma, 0.05
            )


class TestTrainCommand:
    def _write_inputs(self, tmp_path):
        from margin_auditor import save_dataset, synth_blobs

        tr = synth_blobs(60, 4, 2, separation=4.0, seed=3)
        te = synth_blobs(30, 4, 2, separation=4.0, seed=4)
        paths = {}
        for name, ds in (("train", tr), ("test", te)):
            x = str(tmp_path / f"{name}_x.mat")
            y = str(tmp_path / f"{name}_y.lbl")
            save_dataset(ds, x, y)
            paths[name] = (x, y)
        cfg = {"layer_widths": [4, 8, 2], "epochs": 3, "batch_size": 10, "seed": 1}
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        return cfg_path, paths

    def _run(self, cfg_path, paths, out):
        return main(["train", cfg_path,
                     "--train-features", paths["train"][0], "--train-labels", paths["train"][1],
                     "--test-features", paths["test"][0], "--test-labels", paths["test"][1],
                     "--out", out])

    def test_writes_snapshots(self, tmp_path):
        cfg_path, paths = self._write_inputs(tmp_path)
        out = str(tmp_path / "run")
        assert self._run(cfg_path, paths, out) == 0
        files = sorted(os.listdir(out))
        assert [f for f in files if f.endswith(".json")] == [
            "epoch_000.json", "epoch_001.json", "epoch_002.json"
        ]
        assert "epoch_002_margins.csv" in files
        snap = json.loads(Path(out, "epoch_000.json").read_text())
        assert 0.0 <= snap["train_error"] <= 1.0
        assert "normalized_mean" in snap["margin_summary"]
        # _write_inputs: 60 training examples, batch_size 10
        assert snap["steps"] == math.ceil(60 / 10)
        assert math.isfinite(snap["mean_loss"]) and snap["mean_loss"] > 0.0

    def test_final_manifest_reproduces_last_snapshot(self, tmp_path):
        # analyze on net/final.json and the training files gives the last
        # epoch's R_A, gamma and margins bit for bit
        cfg_path, paths = self._write_inputs(tmp_path)
        run, out = tmp_path / "run", tmp_path / "analyze"
        assert self._run(cfg_path, paths, str(run)) == 0
        assert main(["analyze", str(run / "net" / "final.json"), "--features", paths["train"][0],
                     "--labels", paths["train"][1], "--out", str(out)]) == 0
        snap = json.loads((run / "epoch_002.json").read_text())
        report = json.loads((out / "bound-report.json").read_text())
        assert report["R_A"] == snap["R_A"]
        assert report["gamma"] == snap["margin_summary"]["gamma_used"]
        assert (out / "margins.csv").read_bytes() == (run / "epoch_002_margins.csv").read_bytes()

    def test_golden_byte_identical(self, tmp_path):
        flags = build_train_fixture(str(tmp_path))
        got = []
        for run in sorted(TRAIN_GOLDEN_RUNS):
            cfg = str(tmp_path / f"{run}.json")
            write_train_config(cfg, run)
            out = str(tmp_path / "runs" / run)
            assert main(["train", cfg, *flags, "--out", out]) == 0
            got += sha256_lines(out, run)
        assert got == golden_bytes("train", "SHA256SUMS").decode("utf-8").splitlines(True)

    def test_rerun_bitwise_identical(self, tmp_path):
        cfg_path, paths = self._write_inputs(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert self._run(cfg_path, paths, out1) == 0
        assert self._run(cfg_path, paths, out2) == 0
        files1 = sorted(os.listdir(out1))
        assert files1 == sorted(os.listdir(out2))
        for name in files1:
            p1, p2 = os.path.join(out1, name), os.path.join(out2, name)
            if os.path.isdir(p1):
                for sub in sorted(os.listdir(p1)):
                    assert Path(p1, sub).read_bytes() == Path(p2, sub).read_bytes()
            else:
                assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_single_example_exit_3(self, tmp_path, capsys, monkeypatch):
        from margin_auditor import Dataset, load_dataset, save_dataset, training

        def fail(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "_sgd_block", fail)
        cfg_path, paths = self._write_inputs(tmp_path)
        ds = load_dataset(*paths["train"])
        one = Dataset(X=ds.X[:1], y=ds.y[:1], k=ds.k)
        paths["train"] = (str(tmp_path / "one_x.mat"), str(tmp_path / "one_y.lbl"))
        save_dataset(one, *paths["train"])
        assert self._run(cfg_path, paths, str(tmp_path / "run")) == 3
        assert_one_line_error(capsys, "ParameterError", "training set rows must be at least 2")

    @pytest.mark.parametrize("config, rc, error", [
        ('{"layer_widths": [4, 8, 2], "epochs": 1.5, "batch_size": 10, "seed": 1}',
         3, "ParameterError"),
        ('[[4, 8, 2], 1, 10, 1]', 2, "ParseError"),
    ], ids=["fractional-epochs", "list-config"])
    def test_bad_config_exit_code(self, tmp_path, capsys, config, rc, error):
        _, paths = self._write_inputs(tmp_path)
        cfg_path = tmp_path / "bad-cfg.json"
        cfg_path.write_text(config)
        assert self._run(str(cfg_path), paths, str(tmp_path / "run")) == rc
        assert_one_line_error(capsys, error, "epochs" if rc == 3 else str(cfg_path))
        assert not (tmp_path / "run").exists()

    def test_decay_zero_exit_3_before_reading_data(self, tmp_path, capsys, monkeypatch):
        # lr 0.25 and l2 2.0 give the decay 1 - 2*lr*l2 = 0, which the config refuses
        from margin_auditor import cli

        def fail(*args, **kwargs):
            raise AssertionError("data was read")

        monkeypatch.setattr(cli, "_load_any_dataset", fail)
        _, paths = self._write_inputs(tmp_path)
        cfg_path = tmp_path / "decay-0.json"
        cfg_path.write_text('{"layer_widths": [4, 8, 2], "epochs": 1, "batch_size": 10, '
                            '"seed": 1, "learning_rate": 0.25, "l2_coefficient": 2.0}')
        assert self._run(str(cfg_path), paths, str(tmp_path / "run")) == 3
        assert_one_line_error(capsys, "ParameterError", "l2 decay")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case", UNWRITABLE_OUTS[:2])
    def test_unwritable_out_exit_2_before_training(self, tmp_path, capsys, monkeypatch, case):
        from margin_auditor import training

        def fail(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "epochs", fail)
        cfg_path, paths = self._write_inputs(tmp_path)
        out, bad = unwritable_out(tmp_path, case)
        assert self._run(cfg_path, paths, out) == 2
        assert_one_line_error(capsys, "InputOutputError", bad)

    def test_divergence_exit_5(self, tmp_path):
        from margin_auditor import save_dataset, synth_blobs

        tr = synth_blobs(60, 4, 2, separation=1.0, seed=3)
        te = synth_blobs(30, 4, 2, separation=1.0, seed=4)
        paths = {}
        for name, ds in (("train", tr), ("test", te)):
            x = str(tmp_path / f"{name}_x.mat")
            y = str(tmp_path / f"{name}_y.lbl")
            save_dataset(ds, x, y)
            paths[name] = (x, y)
        cfg = {"layer_widths": [4, 8, 2], "epochs": 2, "batch_size": 10, "seed": 1,
               "learning_rate": 1e6}
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        assert self._run(cfg_path, paths, str(tmp_path / "run")) == 5


class TestDemos:
    @pytest.mark.parametrize("name, argv", [
        ("coverdemo", ["coverdemo"]),
        ("coverdemo-q3-s2-eps0.3", ["coverdemo", "--q", "3", "--s", "2", "--eps", "0.3"]),
        ("maurey", ["maurey"]),
        ("lowerbound-trials200", ["lowerbound", "--trials", "200"]),
    ])
    def test_golden_stdout(self, capsys, name, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == golden_bytes("demos", name + ".json")

    @pytest.mark.parametrize("flags", [["--a", "3,x"], ["--a", ""], ["--trials", "1"]])
    def test_lowerbound_bad_input_exit_3(self, capsys, flags):
        assert main(["lowerbound"] + flags) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "ParameterError"

    @pytest.mark.parametrize("command", ["maurey", "coverdemo", "lowerbound"])
    def test_negative_seed_exit_3(self, capsys, command):
        assert main([command, "--seed", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": "ParameterError",
                                            "message": "seed must be at least 0, got -1"}

    @pytest.mark.parametrize("command, flag, value", [
        ("coverdemo", "n", -1), ("coverdemo", "d", -1), ("coverdemo", "m", -2),
        ("maurey", "atoms", -1), ("maurey", "dim", -3), ("coverdemo", "n", 0),
    ])
    def test_size_below_1_exit_3(self, capsys, command, flag, value):
        assert main([command, f"--{flag}", str(value)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": "ParameterError",
                                            "message": f"{flag} must be at least 1, got {value}"}

    def test_coverdemo_satisfied(self, capsys):
        assert main(["coverdemo", "--seed", "7"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["satisfied"] is True
        assert record["error"] <= record["eps"]

    def test_coverdemo_tiny_eps_grows_k(self, capsys):
        assert main(["coverdemo", "--seed", "7", "--eps", "1.0"]) == 0
        k1 = json.loads(capsys.readouterr().out)["k"]
        assert main(["coverdemo", "--seed", "7", "--eps", "0.05"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["k"] > k1
        assert rec["satisfied"] is True

    def test_maurey_satisfied(self, capsys):
        assert main(["maurey", "--seed", "3"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["error_sq"] <= rec["guarantee"]
        assert sum(rec["counts"]) == rec["k"]

    def test_lowerbound_record(self, capsys):
        assert main(["lowerbound", "--a", "3,4", "--layers", "4"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["a_norm"] == 5.0
        assert rec["product_spectral_norms"] == pytest.approx(10.0, rel=1e-9)
        assert rec["max_pointwise_error"] <= 1e-12
        assert rec["rademacher_estimate"] >= rec["khintchine_floor"] * 0.5
        assert rec["satisfied"] is True


def child_env(**extra):
    """Environment in which a child interpreter imports this same package and,
    as pytest's own filter does, turns a RuntimeWarning into an error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(margin_auditor.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error::RuntimeWarning", **extra)


class TestProcessInterface:
    def test_thread_cap_env_and_module_entry(self, tmp_path):
        import subprocess
        import sys

        env = child_env(MARGIN_AUDITOR_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "margin_auditor.cli", "maurey", "--seed", "5"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["satisfied"] is True

    def test_exit_code_surfaces_to_process(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "margin_auditor.cli", "idx-inspect",
             str(tmp_path / "missing.idx")],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 2
        assert "missing.idx" in proc.stderr


    @pytest.mark.parametrize("command", ["analyze", "margins"])
    def test_every_layer_at_its_reference_one_stderr_line(self, tmp_path, command):
        import subprocess
        import sys

        from margin_auditor import (Dataset, Identity, Layer, Network, Relu, save_dataset,
                                    save_manifest)

        # a 3-4-2 net whose references equal its weights: R_A = 0, and the
        # JSON diagnostic must be the only stderr line (no RuntimeWarning)
        r = np.random.default_rng(24)
        w0, w1 = r.standard_normal((4, 3)), r.standard_normal((2, 4))
        net = Network(layers=(Layer(weight=w0, nonlinearity=Relu(), reference=w0),
                              Layer(weight=w1, nonlinearity=Identity(), reference=w1)))
        ds = Dataset(X=r.standard_normal((10, 3)), y=np.arange(10) % 2 + 1, k=2)
        manifest = save_manifest(net, str(tmp_path / "net"))
        feats, labels = str(tmp_path / "x.mat"), str(tmp_path / "y.lbl")
        save_dataset(ds, feats, labels)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "margin_auditor.cli", command, manifest, "--features", feats,
             "--labels", labels, "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 4
        assert proc.stderr.count("\n") == 1
        diagnostic = json.loads(proc.stderr)
        assert diagnostic["error"] == "NumericDegeneracyError"
        assert "spectral complexity is 0" in diagnostic["message"]
        assert not out.exists()


class TestIdxInspect:
    def test_header(self, tmp_path, capsys):
        images, labels = build_idx_fixture(str(tmp_path))
        assert main(["idx-inspect", images]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info == {"kind": "images", "count": 30, "rows": 4, "cols": 4,
                        "payload_bytes": 480}
        assert main(["idx-inspect", labels]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "labels"

    def test_bad_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x01\x02\x03\x04" + b"\x00" * 8)
        assert main(["idx-inspect", str(bad)]) == 2

    def test_missing_exit_2(self, tmp_path):
        assert main(["idx-inspect", str(tmp_path / "none.idx")]) == 2
