import csv
import json
import math
import os
import sys

import numpy as np
import pytest

import margin_auditor
from margin_auditor.cli import main
from cli_fixture import build_fixture, build_idx_fixture

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


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
        got = open(os.path.join(out, "bound-report.json"), "rb").read()
        want = open(os.path.join(GOLDEN_DIR, "bound-report.json"), "rb").read()
        assert got == want
        got_csv = open(os.path.join(out, "margins.csv"), "rb").read()
        want_csv = open(os.path.join(GOLDEN_DIR, "margins.csv"), "rb").read()
        assert got_csv == want_csv

    def test_outputs_parse_with_own_readers(self, tmp_path, fixture_paths):
        manifest, feats, labels = fixture_paths
        out = str(tmp_path / "out")
        assert main(["analyze", manifest, "--features", feats, "--labels", labels,
                     "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "bound-report.json")).read())
        assert report["bound_total"] == pytest.approx(
            report["ramp_risk"] + report["term_const"]
            + report["term_complexity"] + report["term_confidence"]
        )
        rows = list(csv.DictReader(open(os.path.join(out, "margins.csv"))))
        assert len(rows) == report["n"]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "no.json"), "--features", "x", "--labels", "y"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no.json" in err
        assert json.loads(err)["error"] == "InputOutputError"

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

    def test_accepts_idx_input(self, tmp_path, fixture_paths):
        manifest, _, _ = fixture_paths
        # 16-feature IDX images do not chain into the 4-input fixture net
        images, labels = build_idx_fixture(str(tmp_path))
        rc = main(["analyze", manifest, "--features", images, "--labels", labels])
        assert rc == 3  # dimension error, proving the IDX pair parsed


class TestMargins:
    def test_writes_all_artifacts(self, tmp_path, fixture_paths):
        manifest, feats, labels = fixture_paths
        out = str(tmp_path / "m")
        rc = main(["margins", manifest, "--features", feats, "--labels", labels,
                   "--out", out, "--bins", "6"])
        assert rc == 0
        names = sorted(os.listdir(out))
        assert names == ["histogram.csv", "kde.csv", "margin-summary.json", "margins.csv"]
        hist = list(csv.DictReader(open(os.path.join(out, "histogram.csv"))))
        assert len(hist) == 6
        kde = list(csv.DictReader(open(os.path.join(out, "kde.csv"))))
        assert len(kde) == 256


    @pytest.mark.parametrize("flags", [["--gamma", "0"], ["--gamma", "-0.5"],
                                       ["--delta", "1.5"], ["--delta", "0"]])
    def test_bad_gamma_or_delta_exit_3(self, fixture_paths, capsys, flags):
        manifest, feats, labels = fixture_paths
        rc = main(["margins", manifest, "--features", feats, "--labels", labels] + flags)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ParameterError"

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

        forwards = []
        forward_images = Network.forward_images

        def counted(net, x):
            forwards.append(len(x))
            return forward_images(net, x)

        def no_bound(*args, **kwargs):
            raise AssertionError("the margins command evaluated a bound")

        monkeypatch.setattr(Network, "forward_images", counted)
        monkeypatch.setattr(complexity, "generalization_bound_fixed", no_bound)
        monkeypatch.setattr(complexity, "_uniform_bound", no_bound)
        manifest, feats, labels = fixture_paths
        assert main(["margins", manifest, "--features", feats, "--labels", labels,
                     "--out", str(tmp_path / "m")]) == 0
        assert forwards == [40]  # cli_fixture: 40 examples


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
        snap = json.loads(open(os.path.join(out, "epoch_000.json")).read())
        assert 0.0 <= snap["train_error"] <= 1.0
        assert "normalized_mean" in snap["margin_summary"]
        # _write_inputs: 60 training examples, batch_size 10
        assert snap["steps"] == math.ceil(60 / 10)
        assert math.isfinite(snap["mean_loss"]) and snap["mean_loss"] > 0.0

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
                    assert open(os.path.join(p1, sub), "rb").read() == \
                        open(os.path.join(p2, sub), "rb").read()
            else:
                assert open(p1, "rb").read() == open(p2, "rb").read()

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
    """Environment in which a child interpreter imports this same package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(margin_auditor.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


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
