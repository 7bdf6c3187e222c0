"""Command line: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from isosoliton import cli
from isosoliton.cli import EXIT_NUMERIC, EXIT_OK, EXIT_UNLISTED, EXIT_USAGE, main


def run_cli(args, tmp_path, capsys):
    code = main(args + ["--out", str(tmp_path)])
    out = capsys.readouterr().out
    return code, out


class TestTrace:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        code, out = run_cli(
            ["trace", "--k", "1", "--n", "2", "--m", "1",
             "--seed-r", "0.0", "--seed-psi", "0.0"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "trace.json").exists()
        assert not (tmp_path / "psi.svg").exists()
        assert "BlowUp" in out

    def test_svg_figures(self, tmp_path, capsys):
        code, _ = run_cli(
            ["trace", "--k", "1", "--n", "2", "--m", "1",
             "--seed-r", "0.0", "--seed-psi", "0.0", "--svg"],
            tmp_path, capsys)
        assert code == EXIT_OK
        for name in ("psi.svg", "vprime.svg", "v.svg"):
            text = (tmp_path / name).read_text()
            assert text.startswith("<svg")
            assert "k=1 n=2" in text       # params as a text element
            assert "type " in text         # shape label as a text element
            assert "http" not in text.replace("http://www.w3.org/2000/svg", "")

    def test_endpoint_seeding(self, tmp_path, capsys):
        code, out = run_cli(
            ["trace", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
             "--endpoint", "-1"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "RegularEndpoint" in out
        data = json.loads((tmp_path / "trace.json").read_text())
        assert data["events"]["left"]["kind"] == "RegularEndpoint"

    def test_json_only_format(self, tmp_path, capsys):
        code, _ = run_cli(
            ["trace", "--k", "1", "--n", "2", "--seed-r", "0.1",
             "--seed-psi", "0.2", "--formats", "json"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert not (tmp_path / "trace.csv").exists()
        assert (tmp_path / "trace.json").exists()


class TestUsageErrors:
    def test_missing_dimension(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["trace", "--k", "1", "--m", "1", "--seed-r", "0", "--seed-psi", "0"])
        assert e.value.code == EXIT_USAGE

    def test_multiplicity_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["trace", "--k", "2", "--n", "3", "--m", "1", "--m1", "1",
                  "--m2", "1", "--seed-r", "0", "--seed-psi", "0"])
        assert e.value.code == EXIT_USAGE

    def test_seed_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["trace", "--k", "1", "--n", "2", "--seed-r", "0",
                  "--seed-psi", "0", "--endpoint", "-1"])
        assert e.value.code == EXIT_USAGE

    def test_bad_format(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["trace", "--k", "1", "--n", "2", "--seed-r", "0",
                  "--seed-psi", "0", "--formats", "xml"])
        assert e.value.code == EXIT_USAGE

    def test_invalid_multiplicity_combination(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["trace", "--k", "2", "--n", "3", "--m1", "2", "--m2", "1",
                  "--seed-r", "0", "--seed-psi", "0"])
        assert e.value.code == EXIT_USAGE

    @pytest.mark.parametrize("flags", [
        ["--endpoint", "-1", "--epsilon", "0.01"],   # endpoint offset above 1e-4
        ["--seed-r", "0", "--seed-psi", "0", "--epsilon", "-1"],
    ])
    def test_bad_epsilon(self, tmp_path, flags):
        with pytest.raises(SystemExit) as e:
            main(["trace", "--k", "1", "--n", "2", "--out", str(tmp_path)] + flags)
        assert e.value.code == EXIT_USAGE


class TestClassify:
    def test_type_line_and_report(self, tmp_path, capsys):
        code, out = run_cli(
            ["classify", "--k", "1", "--n", "2", "--seed-r", "0.0",
             "--seed-psi", "0.0"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "I''" in out
        rep = json.loads((tmp_path / "classify.json").read_text())
        assert rep["type"]["v"] == "I"
        assert "domain" in rep


class TestSweep:
    def test_histogram_table(self, tmp_path, capsys):
        code, out = run_cli(
            ["sweep", "--k", "1", "--n", "2", "--grid", "3x3",
             "--with-endpoints"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "type    count" in out
        assert "unlisted: 0" in out
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["n_seeds"] == 11
        assert sum(data["histogram"].values()) == 11

    def test_strict_flag_passes_clean_grid(self, tmp_path, capsys):
        code, _ = run_cli(
            ["sweep", "--k", "1", "--n", "2", "--grid", "2x2", "--strict"],
            tmp_path, capsys)
        assert code == EXIT_OK

    def test_grid_flag_validation(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--k", "1", "--n", "2", "--grid", "9"])
        assert e.value.code == EXIT_USAGE

    def test_endpoint_epsilon_validation(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--k", "1", "--n", "2", "--grid", "2x2", "--with-endpoints",
                  "--epsilon", "0.01", "--out", str(tmp_path)])
        assert e.value.code == EXIT_USAGE

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_must_be_positive(self, tmp_path, workers):
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--k", "1", "--n", "2", "--grid", "2x2",
                  "--workers", workers, "--out", str(tmp_path)])
        assert e.value.code == EXIT_USAGE

    def test_workers_clamped_to_cpu_count(self, tmp_path, capsys, monkeypatch):
        # the sweep is replaced by a serial one that records the requested
        # worker count, so no process is started
        seen = []
        real_sweep = cli.sweep

        def serial_sweep(p, seeds, cfg, tol, workers):
            seen.append(workers)
            return real_sweep(p, seeds, cfg=cfg, tol=tol, workers=1)

        monkeypatch.setattr(cli, "sweep", serial_sweep)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        code, _ = run_cli(["sweep", "--k", "1", "--n", "2", "--grid", "1x1",
                           "--workers", "64"], tmp_path, capsys)
        assert code == EXIT_OK
        assert seen == [3]


class TestVerify:
    def test_grim_reaper(self, tmp_path, capsys):
        code, out = run_cli(
            ["verify", "--check", "grim-reaper", "--points", "200"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "PASS" in out
        rep = json.loads((tmp_path / "verify.json").read_text())
        assert rep["pass"] is True
        assert rep["max_abs_deviation"] < 1e-6

    def test_identities(self, tmp_path, capsys):
        code, out = run_cli(
            ["verify", "--check", "identities", "--family", "k2",
             "--n", "4", "--l", "2", "--points", "100"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "PASS" in out

    def test_endpoint_law_needs_params(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--check", "endpoint-law"])
        assert e.value.code == EXIT_USAGE

    def test_endpoint_law(self, tmp_path, capsys):
        code, out = run_cli(
            ["verify", "--check", "endpoint-law", "--k", "1", "--n", "2"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "PASS" in out


class TestDomain:
    def test_type_vii_interval(self, tmp_path, capsys):
        code, out = run_cli(
            ["domain", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
             "--type", "VII"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "theta in [0," in out
        rep = json.loads((tmp_path / "domain.json").read_text())
        assert rep["type"] == "VII"
        assert rep["description"]["theta_lo"] == 0.0
        assert rep["description"]["closed_lo"] is True
        assert rep["description"]["closed_hi"] is False

    def test_type_mismatch_is_numeric_failure(self, tmp_path, capsys):
        code, out = run_cli(
            ["domain", "--k", "1", "--n", "2", "--seed-r", "0.0",
             "--seed-psi", "0.0", "--type", "VII"],
            tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert "error" in out

    def test_interior_type_needs_seed(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["domain", "--k", "1", "--n", "2", "--type", "II"])
        assert e.value.code == EXIT_USAGE


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        """Identical flags must give identical bytes, subprocess to subprocess."""
        cmd = [sys.executable, "-m", "isosoliton.cli", "trace",
               "--k", "1", "--n", "2", "--seed-r", "0.3", "--seed-psi", "1.5",
               "--svg"]
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            r = subprocess.run(cmd + ["--out", str(d)], capture_output=True)
            assert r.returncode == 0, r.stderr.decode()
        for name in ("trace.csv", "trace.json", "psi.svg", "vprime.svg", "v.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        box = tmp_path / "boxed"
        box.mkdir()
        monkeypatch.setenv("ISOSOLITON_OUT", str(box))
        code = main(["classify", "--k", "1", "--n", "2",
                     "--seed-r", "0.1", "--seed-psi", "0.2"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert (box / "classify.json").exists()
