import copy
import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isokal import cli, estimator
from isokal.harness import read_observations_csv
from isokal.model import load_model, observed_evolution


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def ltv_record_config(d=4, T=40):
    """Seeded config of the ltv_record workload's shape: d = 4, m = 1, per-step A, H and R.

    A_k = U_k D_k U_{k-1}^T with random orthogonal frames U_k and a
    near-identity diagonal D_k, and H_k = c_k^T U_k^T with c_k cycling
    through a perturbed standard basis, so every window of d steps observes
    the state.
    """
    rng = np.random.default_rng(8080)
    frames = [np.eye(d)] + [np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(T - 1)]
    a_seq = [(frames[k] * np.exp(rng.uniform(-0.01, 0.01, d))) @ frames[k - 1].T
             for k in range(1, T)]
    h_seq = [(np.eye(d)[[k % d]] + 0.1 * rng.standard_normal((1, d))) @ frames[k].T
             for k in range(T)]
    r_seq = 1e-2 * (1.0 + rng.uniform(0.0, 1.0, (T, 1, 1)))
    return {"d": d, "m": 1,
            "dynamics": {"kind": "ltv", "A_seq": np.array(a_seq).tolist()},
            "observation": {"kind": "ltv", "H_seq": np.array(h_seq).tolist()},
            "noise": {"kind": "per_step", "R_seq": r_seq.tolist()}}


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

    @pytest.mark.parametrize("kind", [["lti"], {"lti": 1}, 1], ids=["list", "object", "number"])
    def test_kind_that_is_not_a_string_exits_1(self, tmp_path, example2_config, capsys, kind):
        example2_config["dynamics"]["kind"] = kind
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "obs.csv"
        code = run_cli("simulate", "--config", cfg, "--x0", "1,2", "--steps", "2", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == ("isokal simulate: error: dynamics.kind: must be "
                                           f"'lti' or 'ltv', got {kind!r}\n")
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


class TestReadJson:
    """The CLI's one JSON reader: orjson, strict RFC 8259 JSON only."""

    def write_text(self, tmp_path, example2_config, token):
        # example2's config with A[0][0] spelled as the literal ``token``
        example2_config["dynamics"]["A"][0][0] = "TOKEN"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(example2_config).replace('"TOKEN"', token))
        return path

    def simulate_error(self, tmp_path, path, capsys):
        """The one stderr line of a ``simulate`` on the config at ``path`` that exits 1."""
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--config", path, "--x0", "1,2", "--steps", "2",
                       "--out", out) == 1
        assert not out.exists()
        return capsys.readouterr().err

    def test_ordinary_config_takes_one_orjson_decode(self, tmp_path, example2_config,
                                                     monkeypatch):
        path = write_config(tmp_path, example2_config)
        monkeypatch.setattr(cli, "json", None)
        assert cli._read_json(path, path) == example2_config

    def test_numbers_decode_bitwise_as_json_loads(self, tmp_path):
        text = ("[5e-324, 1e-320, -0.0, 1.7976931348623157e308, 0.1, 18446744073709551615, "
                "-98765432109876543210, 123456789012345678901234567890, 1" + "0" * 300 + "]")
        path = tmp_path / "numbers.json"
        path.write_text(text)
        got = np.asarray(cli._read_json(path, "numbers"), dtype=float)
        assert got.tobytes() == np.asarray(json.loads(text), dtype=float).tobytes()

    def test_wide_integer_scalar_is_not_a_dimension(self, tmp_path, example2_config, capsys):
        # orjson reads an integer past 64 bits as the nearest float
        example2_config["d"] = 10 ** 20
        path = write_config(tmp_path, example2_config)
        assert cli._read_json(path, path)["d"] == 1e20
        assert self.simulate_error(tmp_path, path, capsys) == (
            "isokal simulate: error: d: must be a positive integer, got 1e+20\n")

    @pytest.mark.parametrize("token, message", [
        ("NaN", "unexpected character: line 1 column 53 (char 52)"),
        ("Infinity", "unexpected character: line 1 column 53 (char 52)"),
        ("-Infinity", "no digit after minus sign: line 1 column 53 (char 52)"),
        ("1e999", "number is infinity when parsed as double: line 1 column 53 (char 52)"),
    ], ids=["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_tokens_are_invalid_json(self, tmp_path, example2_config, capsys,
                                                token, message):
        path = self.write_text(tmp_path, example2_config, token)
        assert self.simulate_error(tmp_path, path, capsys) == (
            f"isokal simulate: error: {path}: invalid JSON: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ('{"d": 2,}', "unexpected end of data: line 1 column 10 (char 9)"),
        ('{\r\n"d": 2\r\n"m": 1}', "unexpected character: line 3 column 1 (char 11)"),
        ("[1] x", "unexpected content after document: line 1 column 5 (char 4)"),
    ], ids=["trailing_comma", "crlf", "extra_data"])
    def test_malformed_json_keeps_the_json_message(self, tmp_path, capsys, text, message):
        # the decoder's message, with its line and column
        path = tmp_path / "config.json"
        path.write_bytes(text.encode())
        assert self.simulate_error(tmp_path, path, capsys) == (
            f"isokal simulate: error: {path}: invalid JSON: {message}\n")

    def test_invalid_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"d": "\xff"}')
        assert self.simulate_error(tmp_path, path, capsys).startswith(
            f"isokal simulate: error: {path}: invalid JSON: str is not valid UTF-8: ")

    def test_integer_past_float64_exits_1(self, tmp_path, example2_config, capsys):
        path = self.write_text(tmp_path, example2_config, "1" + "0" * 400)
        assert self.simulate_error(tmp_path, path, capsys) == (
            f"isokal simulate: error: {path}: invalid JSON: number is infinity when parsed "
            "as double: line 1 column 53 (char 52)\n")

    def test_deep_document_with_nan_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100000 + "NaN" + "]" * 100000)
        assert self.simulate_error(tmp_path, path, capsys) == (
            f"isokal simulate: error: {path}: invalid JSON: unexpected character: "
            "line 1 column 100001 (char 100000)\n")


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

    @pytest.mark.parametrize("text, message", [
        ("k,y_0,y_1\n0,1.0\n1,2.0\n", "line 2: 2 fields, the header has 3"),
        ("k,y_0,y_1\n0,1.0,2.0,3.0\n1,4.0,5.0,6.0\n", "line 2: 4 fields, the header has 3"),
        ("k,y_0,y_1\n0,1.0,2.0\n\n2,a,3.0\n",
         "line 4: could not convert string to float: 'a'"),
    ], ids=["short_rows", "long_rows", "not_a_number"])
    def test_bad_observation_rows_exit_1(self, tmp_path, example1_config, capsys,
                                         text, message):
        cfg = write_config(tmp_path, example1_config)
        obs = tmp_path / "obs.csv"
        obs.write_text(text)
        out = tmp_path / "est.csv"
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", out, "--quiet")
        assert code == 1
        assert capsys.readouterr().err == f"isokal estimate: error: {obs}, {message}\n"
        assert not out.exists()

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
        # 20 steps of example2 are past the information form's condition
        # bound (6 are not), so the pass is the Joseph recursion
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg, steps=20)
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", tmp_path / "est.csv", "--quiet")
        assert code == 1
        assert "Joseph and short-form" in capsys.readouterr().err

    @pytest.mark.parametrize("case, form", [("ltv", "information"), ("example2", "joseph")])
    def test_manifest_names_the_schedule_form(self, tmp_path, example2_config, case, form):
        # an ltv_record-shaped record is well conditioned; example2 over 40
        # steps is not (|eig A| = 1.5 with sigma2 = 1e-6)
        doc, x0 = (ltv_record_config(), "1,-1,0.5,2") if case == "ltv" else \
            (example2_config, "0.83053274,0.35472554")
        cfg = write_config(tmp_path, doc)
        obs, out = tmp_path / "obs.csv", tmp_path / "est.csv"
        assert run_cli("simulate", "--config", cfg, "--x0", x0, "--steps", 40, "--seed", 3,
                       "--out", obs, "--quiet") == 0
        assert run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", out, "--quiet") == 0
        manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
        schedule = estimator.gain_schedule(load_model(doc), 0.01, 40)
        assert manifest["schedule_form"] == schedule.form == form
        assert manifest["schedule_cond_bound"] == schedule.cond_bound
        admitted = len(x0.split(",")) * np.finfo(float).eps * schedule.cond_bound \
            <= estimator.JOSEPH_TOL
        assert admitted == (form == "information")

    def test_information_residual_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # covariances that are not the inverses of their information
        # matrices fail the information form's check, naming the step
        real = estimator._spd_inverses
        monkeypatch.setattr(estimator, "_spd_inverses", lambda info: real(info) * (1.0 + 1e-6))
        cfg = write_config(tmp_path, ltv_record_config())
        obs, out = tmp_path / "obs.csv", tmp_path / "est.csv"
        assert run_cli("simulate", "--config", cfg, "--x0", "1,-1,0.5,2", "--steps", 40,
                       "--out", obs, "--quiet") == 0
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", out, "--quiet")
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("isokal estimate: error: information-form covariance P_1 is "
                                 "not the inverse of P0^-1 + O(1,0): ||P_k N_k - I||_F = ")

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

    @pytest.mark.parametrize("truth", ["0.5", "0.5,0.1"])
    def test_truth_of_wrong_length_exits_1(self, tmp_path, example1_config, capsys, truth):
        cfg = write_config(tmp_path, example1_config)
        obs = tmp_path / "obs.csv"
        obs.write_text("k,y_0,y_1\n0,0.2,0.5\n1,0.3,0.7\n")
        est = tmp_path / "est.csv"
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", est, f"--truth={truth}", "--quiet")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        n = len(truth.split(","))
        assert err == [f"isokal estimate: error: --truth has length {n}, "
                       f"model state dimension is 4"]
        assert not est.exists()

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

    @pytest.mark.parametrize("text, message", [
        ("[[0.02, 0.0] [0.0, 0.005]]", "invalid JSON: unexpected character: "
                                        "line 1 column 14 (char 13)"),
        ('[["a", 0.0], [0.0, 0.005]]', "not a numeric array: could not convert "
                                        "string to float: 'a'"),
    ], ids=["malformed", "non_numeric"])
    def test_p0_file_errors_name_the_flag(self, tmp_path, example2_config, capsys,
                                          text, message):
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg, steps=3)
        p0file = tmp_path / "p0.json"
        p0file.write_text(text)
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", p0file,
                       "--out", tmp_path / "est.csv", "--quiet")
        assert code == 1
        assert capsys.readouterr().err == f"isokal estimate: error: --p0 {p0file}: {message}\n"


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

        calls, terms = [], []
        real = observability.check_observability
        real_accumulate = observability._accumulate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def counted_accumulate(*args, **kwargs):
            for acc in real_accumulate(*args, **kwargs):
                terms.append(acc.terms)
                yield acc

        monkeypatch.setattr(observability, "check_observability", counted)
        monkeypatch.setattr(cli, "check_observability", counted)
        monkeypatch.setattr(observability, "_accumulate", counted_accumulate)
        cfg = write_config(tmp_path, example1_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "6", "--k-max", "30",
                       f"--rho-tol={rho_tol}", "--out", out, "--quiet") == 0
        assert len(calls) == 1
        # the certificate's 6 information terms, then the growth trace
        # continues from its accumulator: 30 terms added in all, not 36
        assert terms == list(range(1, 31))
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

    def test_unresolved_growth_trace_exits_1(self, tmp_path, example1_config, capsys):
        # example1's lambda_min(O(k,0)) is not resolved in float64 before
        # k = 60: an error naming k, no fit, no warning and no report
        cfg = write_config(tmp_path, example1_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "4", "--k-max", "60",
                       "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("isokal analyze: error: lambda_min(O(k,0))")
        assert "is not positive" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("k_max, points", [(2, 1), (3, 2), (4, 2)])
    def test_short_growth_tail_exits_1(self, tmp_path, example1_config, capsys, k_max,
                                       points):
        # --k-max 2..4 leaves example1's growth fit under 3 points: an error,
        # no RankWarning (filterwarnings = error would raise it) and no report
        cfg = write_config(tmp_path, example1_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "4", "--k-max", k_max,
                       "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("isokal analyze: error: the tail half")
        assert f"k = 1..{k_max}, holds {points} point(s)" in err[0]
        assert not out.exists()

    def test_shortest_fitted_tail(self, tmp_path, example1_config):
        # --k-max 5: a 3-point growth tail and a 3-point norm tail, both fitted
        cfg = write_config(tmp_path, example1_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "4", "--k-max", "5",
                       "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["beta_fit"] > 0 and doc["beta"] > 0 and doc["alpha"] > 0

    def test_nan_is_never_written(self, tmp_path, example2_config, capsys, monkeypatch):
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        real = cli.check_observability

        def nan_rho(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, rho=float("nan"))

        monkeypatch.setattr(cli, "check_observability", nan_rho)
        assert run_cli("analyze", "--config", cfg, "--horizon", "5", "--k-max", "20",
                       "--out", out) == 1
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not out.exists()

    def test_gramian_overflow_exits_1(self, tmp_path, example2_config, capsys):
        # example2's |eig(A)| = 1.5 and sigma2 = 1e-6 take O(k,0) past
        # float64 from step 859 on: an error naming the step, no report
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "1800", "--k-max", "1000",
                       "--out", out) == 1
        assert "not finite at step 859" in capsys.readouterr().err
        assert not out.exists()

    def test_window_longer_than_d_certifies(self, tmp_path, example2_config):
        # at --rho-tol 2e5 the first certifying window is L = 3 > d = 2; the
        # report's verdict carries the classification and the growth class
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "5", "--k-max", "20",
                       "--rho-tol", "2e5", "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Observable" and doc["L"] == 3
        assert doc["classification"] == "LyapunovStableOnly"
        assert doc["growth_class"] == "BoundedLimit"

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


class TestFlagErrors:
    """A rejected flag value exits 1 with one error line that names the flag."""

    # (argv after the config, output the command would write, expected message)
    CASES = {
        "simulate_x0": (["simulate", "--x0", "0.5", "--steps", "3", "--out", "obs.csv"],
                        "obs.csv", "--x0 has length 1, model state dimension is 2"),
        "simulate_steps": (["simulate", "--x0", "0.5,0.5", "--steps", "0", "--out", "obs.csv"],
                           "obs.csv", "--steps: must be >= 1, got 0"),
        "estimate_x0_guess": (["estimate", "--obs", "in.csv", "--p0", "0.01",
                               "--x0-guess", "0.5", "--out", "est.csv"],
                              "est.csv", "--x0-guess has length 1, model state dimension is 2"),
        "analyze_k_max": (["analyze", "--horizon", "5", "--k-max", "1", "--out", "report.json"],
                          "report.json", "--k-max: must be >= 2, got 1"),
        "analyze_horizon": (["analyze", "--horizon", "0", "--k-max", "20",
                             "--out", "report.json"],
                            "report.json", "--horizon: must be >= 1, got 0"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_error_names_the_flag(self, tmp_path, example2_config, capsys, case):
        argv, output, message = self.CASES[case]
        cfg = write_config(tmp_path, example2_config)
        (tmp_path / "in.csv").write_text("k,y_0\n0,0.5\n")
        before = sorted(tmp_path.iterdir())
        argv = [tmp_path / a if a in ("in.csv", output) else a for a in argv]
        assert run_cli(argv[0], "--config", cfg, *argv[1:]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"isokal {argv[0]}: error: {message}"]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv", [
        ["estimate", "--obs", "in.csv", "--p0", "0.01", "--out", "est.csv"],
        ["analyze", "--horizon", "5", "--k-max", "20", "--out", "report.json"],
    ], ids=["estimate", "analyze"])
    def test_seed_is_not_an_option(self, tmp_path, example2_config, capsys, argv):
        # only simulate and reproduce draw random numbers
        cfg = write_config(tmp_path, example2_config)
        (tmp_path / "in.csv").write_text("k,y_0\n0,0.5\n")
        before = sorted(tmp_path.iterdir())
        argv = [tmp_path / a if a.endswith((".csv", ".json")) else a for a in argv]
        assert run_cli(argv[0], "--config", cfg, *argv[1:], "--seed", "1") == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "isokal: error: unrecognized arguments: --seed 1"
        assert len(err) == 2 and err[0].startswith("usage: ")
        assert sorted(tmp_path.iterdir()) == before

    def test_trials_names_the_flag(self, tmp_path, capsys):
        outdir = tmp_path / "rep"
        assert run_cli("reproduce", "example2", "--trials", "0", "--outdir", outdir) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["isokal reproduce: error: --trials: must be >= 1, got 0"]
        assert not outdir.exists()

    def test_time_varying_analyze_takes_any_k_max(self, tmp_path, example2_config):
        # --k-max is read only by the LTI growth and stability traces
        a = example2_config["dynamics"].pop("A")
        example2_config["dynamics"] = {"kind": "ltv", "A_seq": [a] * 6}
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "3", "--k-max", "1",
                       "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "Observable" and doc["growth_class"] is None


@st.composite
def broken_configs(draw, doc):
    """``doc`` (example2's config) as JSON bytes, with one drawn mutation."""
    doc = copy.deepcopy(doc)
    how = draw(st.sampled_from(["kind", "entry", "dimension", "truncate"]))
    if how == "kind":
        section = draw(st.sampled_from(["dynamics", "observation", "noise"]))
        doc[section]["kind"] = draw(st.one_of(
            st.lists(st.sampled_from(["lti", "ltv", "per_step"]), max_size=2),
            st.dictionaries(st.sampled_from(["lti", "kind"]), st.integers(), max_size=2),
            st.integers(-2, 2), st.floats(-10.0, 10.0), st.text(max_size=6)))
    elif how == "entry":
        section, key = draw(st.sampled_from([("dynamics", "A"), ("observation", "H")]))
        matrix = doc[section][key]
        row = draw(st.integers(0, len(matrix) - 1))
        matrix[row][draw(st.integers(0, len(matrix[row]) - 1))] = "SPOT"
    elif how == "dimension":
        key = draw(st.sampled_from(["d", "m"]))
        value = draw(st.one_of(st.none(), st.integers(-2, 4), st.floats(-4.0, 4.0),
                               st.text(max_size=3), st.booleans()))
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    text = json.dumps(doc).replace('"SPOT"', draw(st.sampled_from(
        ["NaN", "1e999", '"a"', "[1.0, 2.0]"])))
    if how == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text.encode()


class TestConfigContract:
    """Any config exits analyze with 0, or with 1, one error line and no report."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_broken_config_exits_0_or_1_with_one_line(self, example2_config, capsys, data):
        text = data.draw(broken_configs(example2_config))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
            cfg.write_bytes(text)
            capsys.readouterr()
            code = run_cli("analyze", "--config", cfg, "--horizon", "2", "--k-max", "10",
                           "--out", out, "--quiet")
            err = capsys.readouterr().err
            assert code in (0, 1)
            if code == 1:
                assert err.startswith("isokal analyze: error: ") and err.count("\n") == 1
                assert err.endswith("\n") and not out.exists()
            else:
                assert err == "" and out.exists()
