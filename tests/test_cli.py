import copy
import csv
import dataclasses
import gc
import json
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import isokal
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


class TestLoadConfig:
    """cli._load_config decodes and validates with cyclic GC paused, then restores it."""

    @pytest.fixture()
    def gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("case", ["valid", "invalid_json", "invalid_config"])
    def test_gc_state_is_left_as_found(self, tmp_path, example2_config, monkeypatch, gc_state,
                                       enabled, case):
        if case == "invalid_config":
            example2_config["d"] = 0
        path = write_config(tmp_path, example2_config)
        if case == "invalid_json":
            Path(path).write_text("{")
        seen = []
        real = cli.load_model
        monkeypatch.setattr(cli, "load_model", lambda doc: seen.append(gc.isenabled()) or
                            real(doc))
        (gc.enable if enabled else gc.disable)()
        if case == "valid":
            assert cli._load_config(path).d == 2
        else:
            with pytest.raises(cli.ConfigError):
                cli._load_config(path)
        assert gc.isenabled() is enabled
        # paused while the document is read into a model
        assert seen == ([] if case == "invalid_json" else [False])


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
        monkeypatch.setattr(estimator, "_root_information", lambda model, xh, p0, o, h: [
            (np.array([100.0, 100.0]), np.eye(2))] * (len(o) + 1))
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--x0-guess", "1,0",
                       "--p0", "0.01", "--out", tmp_path / "est.csv",
                       "--batch-check", "--quiet")
        assert code == 3

    FAILURE = re.compile(r"batch-check failed: deviation (\S+) > 1\.0e-06 at prefix (\d+), "
                         r"where cond_2\(S_(\d+)\) = (\S+)\n")

    @staticmethod
    def normal_matrix(config, p0, k):
        """P0^-1 + O(k,0) of an LTI config with isotropic noise, by matrix powers."""
        a, h = np.array(config["dynamics"]["A"]), np.array(config["observation"]["H"])
        observers = [h @ np.linalg.matrix_power(a, j) for j in range(k)]
        gram = sum((o.T @ o for o in observers), np.zeros_like(a))
        return np.eye(len(a)) / p0 + gram / config["noise"]["sigma2"]

    def test_batch_check_passes_on_example1_at_its_horizon(
            self, tmp_path, example1_config, capsys, oracle):
        # the paper's example1 at its 40-step horizon: cond_2(P0^-1 + O(40,0))
        # is about 1.6e15, so normal equations would miss by 3.7e-3, while the
        # square-root information prefixes stay within 1e-8 of the exact
        # estimates and the filter within 1e-8 of them
        cfg = write_config(tmp_path, example1_config)
        obs = tmp_path / "obs.csv"
        guess = "0.376,0.502,0.421,0.366"
        assert run_cli("simulate", "--config", cfg, "--x0", "0.2,0.4,0.5,0.3", "--steps", 40,
                       "--seed", 3, "--out", obs, "--quiet") == 0
        assert run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--x0-guess", guess, "--out", tmp_path / "est.csv",
                       "--batch-check") == 0
        printed = capsys.readouterr().out
        assert float(printed.rsplit(":", 1)[1]) <= 1e-8
        model, y = load_model(example1_config), read_observations_csv(obs)
        x_hat0 = np.array([float(v) for v in guess.split(",")])
        exact = oracle(model, 0.01 * np.eye(4), x_hat0, y, dps=120)[1]
        prefixes = np.array(list(estimator.wls_prefixes(model, x_hat0, 0.01, y)))
        gap = np.linalg.norm(prefixes - exact, axis=1) / (1.0 + np.linalg.norm(exact, axis=1))
        assert gap.max() <= 1e-8

    def test_batch_check_fault_at_a_well_conditioned_prefix(
            self, tmp_path, example2_config, monkeypatch, capsys):
        # a deviation injected at prefix 7 of example2, whose normal matrix is
        # well conditioned: the line names that prefix and cond_2(S_7), the
        # square root of the normal matrix's condition number
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg, steps=12)
        real = estimator._root_information
        monkeypatch.setattr(estimator, "_root_information", lambda *args: [
            (xb + 1e-3 * (k == 7), s.copy()) for k, (xb, s) in enumerate(real(*args))])
        assert run_cli("estimate", "--config", cfg, "--obs", obs, "--x0-guess", "1,0",
                       "--p0", "0.01", "--out", tmp_path / "est.csv", "--batch-check",
                       "--quiet") == 3
        match = self.FAILURE.fullmatch(capsys.readouterr().err)
        assert match and (match[2], match[3]) == ("7", "7")
        expected = np.sqrt(np.linalg.cond(self.normal_matrix(example2_config, 0.01, 7)))
        assert expected < 1e3
        assert float(match[4]) == pytest.approx(expected, rel=1e-3)

    def test_batch_check_catches_the_filter_past_its_precision(self, tmp_path, example2_config,
                                                               capsys, oracle):
        # example2 over 80 steps: the filter itself drifts about 6e-4 from the
        # exact estimates (ROADMAP item 2), so the check fails, naming the
        # prefix and cond_2(S_k); the estimates are written first
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg, steps=80)
        guess = "0.99065169,0.19889222"
        # the premise, asserted first: the filter, not the check, is off the
        # exact estimates, so a filter that holds them fails here
        model, y = load_model(example2_config), read_observations_csv(obs)
        x_hat0 = np.array([float(v) for v in guess.split(",")])
        exact = oracle(model, 0.01 * np.eye(2), x_hat0, y)[1]
        x_hat = np.array([s.x_hat for s in estimator.run(model, x_hat0, 0.01, y)])
        drift = np.linalg.norm(x_hat - exact, axis=1) / (1.0 + np.linalg.norm(exact, axis=1))
        assert drift.max() > 1e-6
        out = tmp_path / "est.csv"
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--x0-guess", guess, "--out", out, "--batch-check", "--quiet")
        assert code == 3
        assert out.exists()
        match = self.FAILURE.fullmatch(capsys.readouterr().err)
        assert match and match[2] == match[3]
        assert float(match[1]) > 1e-6
        assert int(match[2]) > 60 and drift[int(match[2])] > 1e-6
        assert float(match[4]) > 1e7

    def test_p0_whose_inverse_overflows_exits_1(self, tmp_path, example2_config, capsys):
        # P0 = 1e-310 I is positive definite, but 1 / 1e-310 is past float64:
        # the estimates are written, then the check names P0, with no warning
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg)
        out = tmp_path / "est.csv"
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "1e-310",
                       "--out", out, "--batch-check", "--quiet")
        assert code == 1
        assert out.exists()
        assert capsys.readouterr().err == ("isokal estimate: error: the inverse of P0 is not "
                                           "finite: it overflowed float64\n")

    def test_joseph_disagreement_exits_1(self, tmp_path, example2_config, capsys, scaled_gain):
        # 20 steps of example2 are past the information form's condition
        # bound (6 are not), so the pass is the Joseph recursion
        cfg = write_config(tmp_path, example2_config)
        obs = self._simulate(tmp_path, cfg, steps=20)
        code = run_cli("estimate", "--config", cfg, "--obs", obs, "--p0", "0.01",
                       "--out", tmp_path / "est.csv", "--quiet")
        assert code == 1
        self.assert_joseph_disagreement(capsys.readouterr().err, step=0)

    @pytest.mark.parametrize("command, p0", [("estimate", "1e12"), ("estimate", "1e300"),
                                             ("analyze", "1e12")])
    def test_huge_prior_names_the_disagreeing_step(self, tmp_path, example2_config, capsys,
                                                   command, p0):
        # example2 from P0 = p I with p far past 1 / sigma2: the two forms
        # of the update of y(1) part by far more than the bound
        cfg = write_config(tmp_path, example2_config)
        args = (["--obs", self._simulate(tmp_path, cfg, steps=5)] if command == "estimate"
                else ["--horizon", "4", "--k-max", "20"])
        code = run_cli(command, "--config", cfg, *args, "--p0", p0,
                       "--out", tmp_path / "out", "--quiet")
        assert code == 1
        self.assert_joseph_disagreement(capsys.readouterr().err, step=1, command=command)

    @staticmethod
    def assert_joseph_disagreement(err, step, command="estimate"):
        """One error line naming the step, the spectral gap and its bound, gap > bound."""
        pattern = (rf"^isokal {command}: error: Joseph and short-form covariance updates "
                   rf"disagree at step {step}: \|\|P_J - P_S\|\|_2 = (\S+) > (\S+)\n$")
        match = re.match(pattern, err)
        assert match, err
        gap, bound = (float(v) for v in match.groups())
        assert gap > bound >= estimator.JOSEPH_TOL

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
        # matrices fail the information form's check, naming the step; only
        # the batched inverse of the N_k stack is perturbed, not the one of
        # the prior's Cholesky factor that forms N_0 = P0^-1
        cfg = write_config(tmp_path, ltv_record_config())
        obs, out = tmp_path / "obs.csv", tmp_path / "est.csv"
        assert run_cli("simulate", "--config", cfg, "--x0", "1,-1,0.5,2", "--steps", 40,
                       "--out", obs, "--quiet") == 0
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: real(a) * (1.0 + 1e-6) if a.ndim == 3 else real(a))
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

    def test_wide_report_matches_the_full_spectra(self, tmp_path, monkeypatch):
        # d = 64, m = 8: one bisection per Gramian and per covariance, against
        # the same command with every extreme eigenvalue read off numpy's
        # full spectrum.  alpha and beta are not compared: a flat tail's fit
        # amplifies the rounding of the norms about 1e7-fold.
        from isokal import observability, stability
        from test_stability import rotation_model

        model = rotation_model(64, 8, 1)
        cfg = write_config(tmp_path, {
            "d": 64, "m": 8, "dynamics": {"kind": "lti", "A": model.A_at(1).tolist()},
            "observation": {"kind": "lti", "H": model.H_at(0).tolist()},
            "noise": {"kind": "isotropic", "sigma2": 1e-2}})
        argv = ["analyze", "--config", cfg, "--horizon", "64", "--k-max", "100", "--quiet"]
        assert run_cli(*argv, "--out", tmp_path / "wide.json") == 0
        spectra = []

        def full(stack, largest=False):
            spectra.append(np.linalg.eigvalsh(stack))
            return spectra[-1][..., -1 if largest else 0]

        monkeypatch.setattr(observability, "extreme_eigenvalues", full)
        monkeypatch.setattr(stability, "extreme_eigenvalues", full)
        assert run_cli(*argv, "--out", tmp_path / "full.json") == 0
        monkeypatch.undo()
        wide, ref = (json.loads((tmp_path / f"{name}.json").read_text())
                     for name in ("wide", "full"))
        assert [w.shape[1:] for w in spectra] == [(64,), (64,), (64,)]
        for key in ("verdict", "L", "classification", "growth_class"):
            assert wide[key] == ref[key]
        assert (ref["verdict"], ref["classification"], ref["growth_class"]) == (
            "Observable", "LyapunovStableOnly", "BoundedLimit")
        # the certificate's 64 Gramians, the growth trace's 36, the 101
        # covariances.  Both routes are backward stable, so by Weyl's theorem
        # each lambda_min is within a few d eps lambda_max of the exact one:
        # the traces agree to 1e-12 relative, or to 8 d eps lambda_max where
        # lambda_min is that close to it (k = L here reads 2.5e-11 relative).
        gram_max = np.concatenate([spectra[0][:, -1], spectra[1][:, -1]])
        weyl = 8 * 64 * np.finfo(float).eps * gram_max
        lam_min, ref_min = np.array(wide["lambda_min_trace"]), np.array(ref["lambda_min_trace"])
        assert np.all(np.abs(lam_min - ref_min) <= np.maximum(1e-12 * ref_min, weyl))
        assert abs(wide["rho"] - ref["rho"]) <= max(1e-12 * ref["rho"], weyl[ref["L"] - 1])
        np.testing.assert_allclose(wide["p_norm_trace"], ref["p_norm_trace"], rtol=1e-12,
                                   atol=0)
        assert wide["growth_limit"] == wide["lambda_min_trace"][-1]

    @pytest.mark.parametrize("rho_tol", [1e-12, 1e-9, 1e-6])
    def test_lti_model_is_certified_once(self, tmp_path, example1_config, monkeypatch,
                                         rho_tol):
        # lambda_min_asymptotics and analyze_stability reuse the command's
        # report at its tolerance (no first-window scan: no stack of d = 4
        # Gramians); the report equals the one assembled from separately
        # certified pieces
        from isokal import observability, stability

        calls, walks, stacks = [], [], []
        real = observability.check_observability
        real_anchored, real_lambda_min = observability._anchored, observability._lambda_min

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def anchored(model, count, start=0, after=None):
            walks.append((count, start, after is not None))
            return real_anchored(model, count, start, after)

        monkeypatch.setattr(observability, "check_observability", counted)
        monkeypatch.setattr(cli, "check_observability", counted)
        monkeypatch.setattr(observability, "_anchored", anchored)
        monkeypatch.setattr(observability, "_lambda_min",
                            lambda g: stacks.append(len(g)) or real_lambda_min(g))
        cfg = write_config(tmp_path, example1_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "6", "--k-max", "30",
                       f"--rho-tol={rho_tol}", "--out", out, "--quiet") == 0
        assert len(calls) == 1
        # the certificate's stack of 6 Gramians, then the growth trace's 24
        # past it, carried on from the certificate's last Gramian and
        # observer; each Gramian is built and decomposed once
        assert (walks, stacks) == ([(6, 0, False), (24, 6, True)], [6, 24])
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
        # float64 from step 860 on: an error naming the step, no report
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "1800", "--k-max", "1000",
                       "--out", out) == 1
        assert "not finite at step 860" in capsys.readouterr().err
        assert not out.exists()

    def test_p0_whose_inverse_overflows_exits_1(self, tmp_path, example2_config, capsys):
        # the Lyapunov trace reads P0^-1, which is past float64 for
        # P0 = 1e-310 I: an error naming P0, not a report of a P_k = P0
        # that is not monotone
        cfg = write_config(tmp_path, example2_config)
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--config", cfg, "--horizon", "10", "--k-max", "40",
                       "--p0", "1e-310", "--out", out) == 1
        assert capsys.readouterr().err == ("isokal analyze: error: the inverse of P0 is not "
                                           "finite: it overflowed float64\n")
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


#: Runs CLI commands in a fresh interpreter and prints, after each, its exit
#: code, whether scipy.linalg is loaded and whether ``_linalg.lapack`` is
#: bound; then the same after one example2 gain schedule.
IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    import isokal.cli
    from isokal import _linalg, estimator, harness

    def loaded():
        return ["scipy.linalg" in sys.modules, "lapack" in vars(_linalg)]

    steps = [["import", 0, *loaded()]]
    for argv in json.loads(sys.argv[1]):
        code = isokal.cli.main(argv)
        steps.append([argv[0], code, *loaded()])
    schedule = estimator.gain_schedule(harness.example_system("example2")[0], 1e-2, 40)
    steps.append([schedule.form, 0, *loaded()])
    print(json.dumps(steps))
""")


class TestImportBoundary:
    """No path imports the scipy.linalg package; the LAPACK kernels load its extension alone."""

    def test_no_session_imports_the_scipy_linalg_package(self, tmp_path, example2_config):
        lti, ltv = (write_config(tmp_path, doc, name) for doc, name in
                    ((example2_config, "lti.json"), (ltv_record_config(), "ltv.json")))
        lti_obs, ltv_obs, lti_est, ltv_est, report = (
            str(tmp_path / name) for name in
            ("lti.csv", "ltv.csv", "lti_est.csv", "ltv_est.csv", "r.json"))
        commands = [
            ["simulate", "--config", lti, "--x0", "0.8,0.4", "--steps", "40", "--out", lti_obs],
            ["simulate", "--config", ltv, "--x0", "1,-1,0.5,2", "--steps", "40",
             "--out", ltv_obs],
            ["estimate", "--config", ltv, "--obs", ltv_obs, "--p0", "0.01", "--out", ltv_est],
            ["analyze", "--config", ltv, "--horizon", "8", "--k-max", "10", "--out", report],
            ["estimate", "--config", lti, "--obs", lti_obs, "--p0", "0.01", "--out", lti_est,
             "--batch-check"],
            ["analyze", "--config", lti, "--horizon", "2", "--k-max", "10", "--out", report],
        ]
        src = str(Path(isokal.__file__).resolve().parent.parent)
        env = {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "PATH": ""}
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                               json.dumps([[*argv, "--quiet"] for argv in commands])],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout)
        assert [name for name, *_ in steps] == \
            ["import", "simulate", "simulate", "estimate", "analyze", "estimate", "analyze",
             "joseph"]
        assert [code for _, code, *_ in steps] == [0] * 8
        assert [json.loads(Path(f"{est}.manifest.json").read_text())["schedule_form"]
                for est in (ltv_est, lti_est)] == ["information", "joseph"]
        assert [package for _, _, package, _ in steps] == [False] * 8
        # the LTI estimate's Joseph pass and batch check load the LAPACK extension
        assert [bound for *_, bound in steps] == [False] * 5 + [True] * 3
