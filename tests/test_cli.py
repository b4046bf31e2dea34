import csv
import json
from pathlib import Path

import numpy as np
import pytest

from isokal import cli, estimator
from isokal.harness import read_observations_csv
from isokal.model import load_model, observed_evolution


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestSimulate:
    def test_row_count(self, tmp_path, example2_config):
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "obs.csv"
        code = run_cli("simulate", "--config", cfg, "--x0", "0.83053274,0.35472554",
                       "--steps", "3", "--seed", "7", "--out", out, "--quiet")
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "y_0"]
        assert len(rows) == 4

    def test_missing_x0_exits_1_with_usage(self, tmp_path, example2_config, capsys):
        cfg = write_config(tmp_path, example2_config)
        code = run_cli("simulate", "--config", cfg, "--steps", "3",
                       "--out", tmp_path / "x.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--x0" in err

    def test_noiseless_matches_model(self, tmp_path, example2_config):
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "obs.csv"
        assert run_cli("simulate", "--config", cfg, "--x0", "1.0,2.0", "--steps", "4",
                       "--out", out, "--noiseless", "--quiet") == 0
        obs = read_observations_csv(out)
        model = load_model(json.loads(Path(cfg).read_text()))
        for k in range(4):
            np.testing.assert_array_equal(obs[k], observed_evolution(model, k) @ [1.0, 2.0])

    def test_config_error_exits_1(self, tmp_path, example2_config, capsys):
        example2_config["m"] = 3
        example2_config["observation"]["H"] = [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        cfg = write_config(tmp_path, example2_config)
        code = run_cli("simulate", "--config", cfg, "--x0", "1,2", "--steps", "2",
                       "--out", tmp_path / "x.csv")
        assert code == 1
        assert "m" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, path", [
        ("dynamics", {"kind": "lti", "A": [[[1.0, -0.5], [-0.5, 1.0]]] * 2}, "dynamics.A"),
        ("noise", {"kind": "per_step", "R_seq": [[1e-6]]}, "noise.R_seq"),
    ])
    def test_kind_and_rank_mismatch_exits_1(self, tmp_path, example2_config, capsys,
                                            section, value, path):
        example2_config[section] = value
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "obs.csv"
        code = run_cli("simulate", "--config", cfg, "--x0", "1,2", "--steps", "2", "--out", out)
        assert code == 1
        assert f"error: {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_x0_exits_1(self, tmp_path, example2_config, capsys):
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "obs.csv"
        code = run_cli("simulate", "--config", cfg, "--x0=nan,1", "--steps", "2", "--out", out)
        assert code == 1
        assert "--x0: entries must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_dynamics_exit_1(self, tmp_path, example2_config, capsys):
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "obs.csv"
        code = run_cli("simulate", "--config", cfg, "--x0", "0.83053274,0.35472554",
                       "--steps", "3000", "--out", out)
        assert code == 1
        assert "step 1753 is not finite: the dynamics overflowed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        code = run_cli("simulate", "--config", tmp_path / "nope.json", "--x0", "1,2",
                       "--steps", "2", "--out", tmp_path / "x.csv")
        assert code == 2

    def test_unwritable_output_exits_2(self, tmp_path, example2_config):
        cfg = write_config(tmp_path, example2_config)
        code = run_cli("simulate", "--config", cfg, "--x0", "1,2", "--steps", "2",
                       "--out", tmp_path / "no" / "such" / "dir" / "x.csv")
        assert code == 2

    def test_manifest_written(self, tmp_path, example2_config):
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "obs.csv"
        run_cli("simulate", "--config", cfg, "--x0", "1,2", "--steps", "2",
                "--out", out, "--quiet")
        manifest = json.loads((tmp_path / "obs.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 0
        assert manifest["version"]


class TestEstimate:
    def _simulate(self, tmp_path, cfg, steps=6, seed=3):
        out = tmp_path / "obs.csv"
        assert run_cli("simulate", "--config", cfg, "--x0", "0.83053274,0.35472554",
                       "--steps", steps, "--seed", seed, "--out", out, "--quiet") == 0
        return out

    def test_empty_observations_single_row(self, tmp_path, example2_config):
        cfg = write_config(tmp_path, example2_config)
        obs = tmp_path / "obs.csv"
        obs.write_text("k,y_0\n")
        out = tmp_path / "est.csv"
        assert run_cli("estimate", "--config", cfg, "--obs", obs, "--x0-guess", "0.5,0.5",
                       "--p0", "0.01", "--out", out, "--quiet") == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["xhat_0"]) == 0.5

    def test_pipeline_reduces_error(self, tmp_path, example1_config):
        cfg = write_config(tmp_path, example1_config)
        obs = tmp_path / "obs.csv"
        assert run_cli("simulate", "--config", cfg, "--x0", "0.2,0.4,0.5,0.3",
                       "--steps", 20, "--seed", 42, "--out", obs, "--quiet") == 0
        out = tmp_path / "est.csv"
        assert run_cli("estimate", "--config", cfg, "--obs", obs,
                       "--x0-guess", "0.376,0.502,0.421,0.366", "--p0", "0.01",
                       "--out", out, "--truth", "0.2,0.4,0.5,0.3", "--quiet") == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        assert float(rows[-1]["err_norm"]) < float(rows[0]["err_norm"])

    def test_batch_check_agrees(self, tmp_path, example2_config, capsys):
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg)
        out = tmp_path / "est.csv"
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--x0-guess", "1,0",
                       "--p0", "0.01", "--out", out, "--batch-check")
        assert code == 0
        printed = capsys.readouterr().out
        assert "batch-check max deviation" in printed
        dev = float(printed.rsplit(":", 1)[1])
        assert dev <= 1e-8

    def test_batch_check_failure_exits_3(self, tmp_path, example2_config, monkeypatch):
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg)
        monkeypatch.setattr(estimator, "wls_prefixes",
                            lambda model, xh, p0, o: [np.array([100.0, 100.0])] * (len(o) + 1))
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--x0-guess", "1,0",
                       "--p0", "0.01", "--out", tmp_path / "est.csv",
                       "--batch-check", "--quiet")
        assert code == 3

    def test_batch_check_exhausted_precision_exits_1(self, tmp_path, example2_config, capsys):
        # example2's normal matrix passes cond 1/eps at prefix 48; the
        # estimates are written first, then the check names the prefix
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg, steps=60)
        out = tmp_path / "est.csv"
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", out, "--batch-check", "--quiet")
        assert code == 1
        assert out.exists()
        err = capsys.readouterr().err
        assert err.startswith("isokal estimate: error: normal matrix is not positive definite "
                              "at prefix 48: its condition number is past 1/eps")

    def test_joseph_disagreement_exits_1(self, tmp_path, example2_config, capsys, scaled_gain):
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg)
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", tmp_path / "est.csv", "--quiet")
        assert code == 1
        assert "Joseph and short-form" in capsys.readouterr().err

    def test_non_finite_observations_exit_1(self, tmp_path, example2_config, capsys):
        cfg = write_config(tmp_path, example2_config)
        obs = tmp_path / "obs.csv"
        obs.write_text("k,y_0\n0,0.5\n1,nan\n")
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", tmp_path / "est.csv", "--quiet")
        assert code == 1
        assert "observations must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--x0-guess", "--truth"])
    def test_non_finite_vector_flag_exits_1(self, tmp_path, example2_config, capsys, flag):
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg)
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", tmp_path / "est.csv", f"{flag}=inf,0", "--quiet")
        assert code == 1
        assert f"{flag}: entries must be finite" in capsys.readouterr().err

    def test_default_guess_is_zero(self, tmp_path, example2_config):
        cfg = write_config(tmp_path, example2_config)
        obs = tmp_path / "obs.csv"
        obs.write_text("k,y_0\n")
        out = tmp_path / "est.csv"
        assert run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "1",
                       "--out", out, "--quiet") == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        assert float(row["xhat_0"]) == 0.0 and float(row["xhat_1"]) == 0.0

    def test_p0_matrix_file(self, tmp_path, example2_config):
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg, steps=3)
        p0file = tmp_path / "p0.json"
        p0file.write_text("[[0.02, 0.0], [0.0, 0.005]]")
        out = tmp_path / "est.csv"
        assert run_cli("estimate", "--config", cfg, "--obs", obs, "--x0-guess", "1,0",
                       "--p0", p0file, "--out", out, "--quiet") == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["trace_P"]) == pytest.approx(0.025)


class TestAnalyze:
    def test_example2_report(self, tmp_path, example2_config):
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "5", "--k-max", "20",
                       "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Observable" and doc["L"] == 2
        assert doc["classification"] == "LyapunovStableOnly"
        assert doc["growth_class"] == "BoundedLimit"
        assert doc["growth_limit"] == doc["lambda_min_trace"][-1]
        assert doc["eigs_abs"] == pytest.approx([1.5, 0.5])
        assert len(doc["lambda_min_trace"]) == 20
        assert doc["lyapunov_monotone"] is True

    def test_example1_report(self, tmp_path, example1_config):
        cfg = write_config(tmp_path, example1_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "4", "--k-max", "40",
                       "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["classification"] == "UniformlyAsymptoticallyStable"
        assert doc["growth_class"] == "Unbounded"
        assert doc["beta_fit"] > 0
        assert doc["beta"] > 0

    @pytest.mark.parametrize("rho_tol", [1e-12, 1e-9, 1e-6])
    def test_lti_model_is_certified_once(self, tmp_path, example1_config, monkeypatch,
                                         rho_tol):
        # lambda_min_asymptotics and analyze_stability reuse the command's
        # report at its tolerance (no first-window scan: no accumulation of
        # d = 4 terms); the report equals the one assembled from separately
        # certified pieces
        from isokal import observability, stability

        calls, prefixes = [], []
        real = observability.check_observability
        real_prefixes = observability.information_prefixes

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def counted_prefixes(model, count, *args, **kwargs):
            prefixes.append(count)
            return real_prefixes(model, count, *args, **kwargs)

        monkeypatch.setattr(observability, "check_observability", counted)
        monkeypatch.setattr(cli, "check_observability", counted)
        monkeypatch.setattr(observability, "information_prefixes", counted_prefixes)
        cfg = write_config(tmp_path, example1_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "6", "--k-max", "30",
                       f"--rho-tol={rho_tol}", "--out", out, "--quiet") == 0
        assert len(calls) == 1
        # the certificate's own accumulation, then the growth trace
        assert prefixes == [6, 30]
        monkeypatch.undo()

        model = load_model(example1_config)
        report = real(model, L_max=6, rho_tol=rho_tol)
        expected = report.to_json_dict()
        growth = observability.lambda_min_asymptotics(model, K=30)
        expected.update(growth_class=growth.growth_class, growth_limit=growth.limit,
                        beta_fit=growth.beta,
                        lambda_min_trace=[float(v) for v in growth.lambda_min_trace])
        expected.update(stability.analyze_stability(model, P0=1.0, k_max=30).to_json_dict())
        assert json.loads(out.read_text()) == expected

    def test_classification_certifies_at_the_report_tolerance(self, tmp_path, example2_config):
        # lambda_min(O(2,0)) is about 1.2e-10: observable at --rho-tol 1e-12,
        # not at the default 1e-9; the classification follows the verdict
        example2_config["noise"]["sigma2"] = 1e9
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "5", "--k-max", "20",
                       "--rho-tol", "1e-12", "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Observable" and doc["L"] == 2
        assert 1e-12 <= doc["lambda_min_trace"][1] < 1e-9
        assert doc["growth_class"] == "BoundedLimit"
        assert doc["classification"] == "LyapunovStableOnly"

    def test_gramian_overflow_exits_1(self, tmp_path, example2_config, capsys):
        # example2's |eig(A)| = 1.5 and sigma2 = 1e-6 take O(k,0) past
        # float64 from step 859 on: an error naming the step, no report
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "1800", "--k-max", "1000",
                       "--out", out) == 1
        assert "not finite at step 859" in capsys.readouterr().err
        assert not out.exists()

    def test_unobservable_is_a_verdict_not_an_error(self, tmp_path, example2_config):
        example2_config["observation"]["H"] = [[1.0, 0.0]]
        example2_config["dynamics"]["A"] = [[1.0, 0.0], [0.0, 1.0]]
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "6", "--k-max", "10",
                       "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "NotObservableUpTo"
        assert doc["classification"] is None
        assert doc["growth_class"] is doc["growth_limit"] is doc["beta_fit"] is None


    @pytest.mark.parametrize("rho_tol", ["nan", "inf", "-1", "0"])
    def test_bad_rho_tol_exits_1(self, tmp_path, example2_config, capsys, rho_tol):
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        code = run_cli("analyze", "--config", cfg, "--horizon", "5", "--k-max", "20",
                       f"--rho-tol={rho_tol}", "--out", out)
        assert code == 1
        assert "rho_tol must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()


class TestReproduce:
    def test_example1_outputs(self, tmp_path):
        outdir = tmp_path / "rep"
        assert run_cli("reproduce", "example1", "--trials", "25", "--seed", "9",
                       "--outdir", outdir, "--quiet") == 0
        with open(outdir / "mse.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        trace = np.array([float(r["mean_trace_P"]) for r in rows])
        assert np.all(np.diff(trace) < 0.0)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "reproduce"
        assert len(manifest["outputs"]) == 4

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for outdir in (a, b):
            assert run_cli("reproduce", "example2", "--trials", "15", "--seed", "33",
                           "--outdir", outdir, "--quiet") == 0
        for name in ("snapshots.csv", "estimates.csv", "mse.csv", "p_eigs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sigma_is_variance_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("reproduce", "example2", "--trials", "5", "--seed", "1",
                "--outdir", a, "--quiet")
        run_cli("reproduce", "example2", "--trials", "5", "--seed", "1",
                "--outdir", b, "--sigma-is-variance", "--quiet")
        assert (a / "mse.csv").read_bytes() != (b / "mse.csv").read_bytes()
