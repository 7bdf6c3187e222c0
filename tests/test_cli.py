"""Command line: artifacts, determinism, exit codes."""

import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isosoliton import _svg, classifier, cli
from isosoliton.cli import EXIT_NUMERIC, EXIT_OK, EXIT_UNLISTED, EXIT_USAGE, main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SRC = ROOT / "src"


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

    def test_largest_ymax_draws(self, tmp_path, capsys):
        """The span 2*ymax is still finite here, so the ticks can be placed."""
        code, _ = run_cli(TRACE_ARGV + ["--svg", "--ymax", "8.9e307"], tmp_path, capsys)
        assert code == EXIT_OK
        assert (tmp_path / "psi.svg").read_text().startswith("<svg")

    def test_path_lifts_pen_after_dropped_samples_and_at_breaks(self):
        x = np.arange(7.0)
        y = np.array([0.0, 1.0, np.nan, 3.0, 4.0, 50.0, 6.0])
        breaks = np.array([False, False, False, False, True, False, False])
        d = _svg._path(x, y, 10.0, lambda v: v, lambda v: v, breaks)
        assert d == "M0.00 0.00L1.00 1.00M3.00 3.00M4.00 4.00M6.00 6.00"

    def test_one_sample_trace_draws(self, tmp_path, capsys):
        """A huge seed collapses the first step, so the trace is one sample
        wide; its figures get a fixed range around it."""
        code, _ = run_cli(["trace", "--k", "1", "--n", "2", "--seed-r", "0",
                           "--seed-psi", "1e100", "--svg"], tmp_path, capsys)
        assert code == EXIT_OK
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 2
        for name in ("psi.svg", "vprime.svg", "v.svg"):
            assert (tmp_path / name).read_text().startswith("<svg")

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


PARAMS_FLAGS = {"--k", "--n", "--m", "--m1", "--m2"}
SEED_FLAGS = {"--seed-r", "--seed-psi", "--endpoint"}
CFG_FLAGS = {"--tol", "--blowup-threshold", "--max-steps", "--epsilon"}
SAMPLE_FLAGS = {"--points", "--rng-seed"}


# The flags each command's --help lists besides --help: those it reads.
HELP_FLAGS = {
    "trace": PARAMS_FLAGS | SEED_FLAGS | CFG_FLAGS
    | {"--out", "--formats", "--svg", "--overlays", "--ymax"},
    "classify": PARAMS_FLAGS | SEED_FLAGS | CFG_FLAGS | {"--out", "--crossing-tol"},
    "sweep": PARAMS_FLAGS | CFG_FLAGS | {"--out", "--grid", "--r-range", "--psi-range",
                                         "--with-endpoints", "--workers", "--strict",
                                         "--crossing-tol"},
    "domain": PARAMS_FLAGS | SEED_FLAGS | CFG_FLAGS | {"--out", "--type", "--crossing-tol"},
    "verify": set(),
    "verify grim-reaper": SAMPLE_FLAGS | {"--out"},
    "verify identities": SAMPLE_FLAGS | {"--out", "--family", "--n", "--l"},
    "verify ode-residual": SAMPLE_FLAGS | PARAMS_FLAGS | {"--out"},
    "verify endpoint-law": PARAMS_FLAGS | {"--out"},
}


@pytest.mark.parametrize("command", HELP_FLAGS)
def test_help_lists_the_flags_the_command_reads(capsys, command):
    with pytest.raises(SystemExit) as e:
        main([*command.split(), "--help"])
    assert e.value.code == EXIT_OK
    listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert listed == HELP_FLAGS[command] | {"--help"}


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

    def test_workers_clamped_to_cpu_count(self, tmp_path, capsys, monkeypatch, fake_pool):
        """The CLI hands --workers to the sweep, which clamps it to the
        usable CPUs."""
        monkeypatch.setattr(classifier.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        code, _ = run_cli(["sweep", "--k", "1", "--n", "2", "--grid", "5x5",
                           "--workers", "64"], tmp_path, capsys)
        assert code == EXIT_OK
        assert fake_pool.sizes == [3]


class TestVerify:
    def test_grim_reaper(self, tmp_path, capsys):
        code, out = run_cli(
            ["verify", "grim-reaper", "--points", "200"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "PASS" in out
        rep = json.loads((tmp_path / "verify.json").read_text())
        assert rep["pass"] is True
        assert rep["max_abs_deviation"] < 1e-6

    def test_identities(self, tmp_path, capsys):
        code, out = run_cli(
            ["verify", "identities", "--family", "k2",
             "--n", "4", "--l", "2", "--points", "100"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "PASS" in out

    def test_endpoint_law_needs_params(self, tmp_path, capsys):
        """So does ode-residual; the usage error comes before any output."""
        out = tmp_path / "out"
        for check in ("endpoint-law", "ode-residual"):
            with pytest.raises(SystemExit) as e:
                main(["verify", check, "--out", str(out)])
            assert e.value.code == EXIT_USAGE
            assert "the following arguments are required: --k, --n" in capsys.readouterr().err
            assert not out.exists()

    def test_endpoint_law(self, tmp_path, capsys):
        code, out = run_cli(
            ["verify", "endpoint-law", "--k", "1", "--n", "2"],
            tmp_path, capsys)
        assert code == EXIT_OK
        assert "PASS" in out

    @pytest.mark.parametrize("argv, unread", [
        (["grim-reaper", "--points", "10", "--k", "7", "--n", "99", "--m1", "3"],
         "--k, --n, --m1"),
        (["grim-reaper", "--family", "k1"], "--family"),
        (["identities", "--points", "10", "--k", "2", "--family", "k1", "--n", "3"], "--k"),
        (["identities", "--m", "1"], "--m"),
        (["ode-residual", "--k", "1", "--n", "2", "--l", "2"], "--l"),
        (["endpoint-law", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
          "--points", "5", "--family", "k2", "--l", "9"], "--points, --family, --l"),
        (["endpoint-law", "--k", "1", "--n", "2", "--rng-seed", "0"], "--rng-seed"),
    ])
    def test_flag_the_check_does_not_read(self, tmp_path, capsys, argv, unread):
        """Each check's subcommand declares the flags it reads; another one
        is a usage error, even at its default value, before any output."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as e:
            main(["verify", *argv, "--out", str(out)])
        assert e.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unrecognized arguments:" in err
        assert [word for word in err.split() if word.startswith("--")] == unread.split(", ")
        assert not out.exists()


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
        payload = json.loads(out)
        assert payload["command"] == "domain"
        assert payload["error"].startswith("ValueError: seed produced type I")

    def test_interior_type_needs_seed(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["domain", "--k", "1", "--n", "2", "--type", "II"])
        assert e.value.code == EXIT_USAGE


TRACE_ARGV = ["trace", "--k", "1", "--n", "2", "--seed-r", "0", "--seed-psi", "0"]
SWEEP_ARGV = ["sweep", "--k", "1", "--n", "2", "--grid", "2x2"]


class TestFailurePaths:
    @pytest.mark.parametrize("argv", [
        TRACE_ARGV + ["--svg", "--ymax", "-1"],
        TRACE_ARGV + ["--svg", "--ymax", "0"],
        TRACE_ARGV + ["--svg", "--ymax", "nan"],
        TRACE_ARGV + ["--svg", "--ymax", "inf"],
        TRACE_ARGV + ["--svg", "--overlays", "eta,bogus"],
        TRACE_ARGV + ["--tol", "nan"],
        SWEEP_ARGV + ["--psi-range=-inf,inf"],
        SWEEP_ARGV + ["--psi-range=-1e308,1e308"],
        SWEEP_ARGV + ["--r-range=nan,0.5"],
        ["verify", "identities", "--points", "0"],
        ["verify", "ode-residual", "--k", "1", "--n", "2", "--points", "0"],
        ["verify", "grim-reaper", "--points", "0"],
        ["verify", "grim-reaper", "--points", "-1"],
        ["verify", "identities", "--family", "k2", "--n", "3", "--l", "9"],
        ["verify", "identities", "--family", "k2", "--n", "3"],
        ["classify"] + TRACE_ARGV[1:] + ["--crossing-tol", "nan"],
        ["classify"] + TRACE_ARGV[1:] + ["--crossing-tol", "-1"],
        ["domain"] + TRACE_ARGV[1:] + ["--crossing-tol", "nan"],
        ["domain"] + TRACE_ARGV[1:] + ["--crossing-tol", "-1"],
        SWEEP_ARGV + ["--crossing-tol", "nan"],
        SWEEP_ARGV + ["--crossing-tol", "-1"],
        TRACE_ARGV + ["--tol", "inf"],
        TRACE_ARGV + ["--blowup-threshold", "inf"],
        ["verify", "grim-reaper", "--rng-seed", "-1"],
        TRACE_ARGV + ["--svg", "--ymax", "9e307"],
        ["verify", "endpoint-law", "--k", "2", "--m1", "1", "--m2", "1"],
        ["verify", "ode-residual", "--n", "2"],
    ])
    def test_bad_flag_is_usage_error_and_writes_nothing(self, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as e:
            main(argv + ["--out", str(out)])
        assert e.value.code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_out_not_a_directory_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                via_env, below):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = str(blocker / below) if below else str(blocker)
        if via_env:
            monkeypatch.setenv("ISOSOLITON_OUT", out)
            argv = TRACE_ARGV
        else:
            argv = TRACE_ARGV + ["--out", out]
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and repr(out) in errors[0]
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("exc", [ZeroDivisionError, FloatingPointError, OverflowError,
                                     RuntimeError, ValueError])
    def test_numeric_failure_payload(self, tmp_path, capsys, monkeypatch, exc):
        def fail(*args):
            raise exc("boom")

        monkeypatch.setattr(cli, "maximal_trace", fail)
        code, out = run_cli(TRACE_ARGV, tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert json.loads(out) == {"error": f"{exc.__name__}: boom", "command": "trace"}

    def test_figure_failure_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """Every artifact is rendered before any is written: a failing
        figure leaves neither trace.csv nor trace.json behind."""
        def fail(*args):
            raise ArithmeticError("no figure")

        monkeypatch.setattr(_svg, "trace_figures", fail)
        out = tmp_path / "out"
        code, stdout = run_cli(TRACE_ARGV + ["--formats", "csv,json,svg"], out, capsys)
        assert code == EXIT_NUMERIC
        assert json.loads(stdout) == {"error": "ArithmeticError: no figure", "command": "trace"}
        assert not out.exists()

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def fail(*args):
            raise TypeError("boom")

        monkeypatch.setattr(cli, "maximal_trace", fail)
        with pytest.raises(TypeError):
            main(TRACE_ARGV + ["--out", str(tmp_path)])


class TestReentrantMain:
    def test_runs_after_a_usage_error_match_a_first_run(self, tmp_path, capsys):
        """The parser is built once; a parse, or a usage error after one,
        must leave nothing behind for the next call."""
        runs = [TRACE_ARGV + ["--svg"], ["classify", *TRACE_ARGV[1:]]]
        first, again = tmp_path / "first", tmp_path / "again"
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(first / str(i))]) == EXIT_OK
        assert main(runs[0] + ["--out", str(again / "0")]) == EXIT_OK
        with pytest.raises(SystemExit) as e:
            main(["classify", *TRACE_ARGV[1:], "--tol", "nan", "--crossing-tol", "0.5",
                  "--out", str(tmp_path / "bad")])
        assert e.value.code == EXIT_USAGE
        assert main(runs[1] + ["--out", str(again / "1")]) == EXIT_OK
        capsys.readouterr()
        assert cli._parser() is cli._parser()
        for i in range(len(runs)):
            want = {f.name: f.read_bytes() for f in (first / str(i)).iterdir()}
            got = {f.name: f.read_bytes() for f in (again / str(i)).iterdir()}
            assert got == want
        assert not (tmp_path / "bad").exists()


K1_SEED0 = ["--k", "1", "--n", "2", "--seed-r", "0.0", "--seed-psi", "0.0"]

# The argv tails of demos/figure_gallery.py, read from the demo itself.
GALLERY_RUNS = runpy.run_path(str(DEMOS / "figure_gallery.py"), run_name="gallery")["RUNS"]

# sha256 of the five trace artifacts, recorded with CPython 3.11 and numpy 2.4
# on x86-64 Linux before the figures were drawn from arrays (trace.json again
# when its "cfg" block went from six keys to five).  The k=1 n=2 seed (0, 0)
# run straddles R, so its guide curves break at the pole; the two runs after
# the gallery's draw them with a fixed range and each overlay alone.
GALLERY_DIGESTS = {
    "k1_type_I": {
        "trace.csv": "51ba4d26f264879d04dbb72491c380555dcf14babdd092f242ca40e201c778df",
        "trace.json": "719b3e3d9fbdabe048b25b63fd4c0106cf552c9e7a0c01af91de7302c480a972",
        "psi.svg": "e366e6f060906d70858fd92701df2bc655fd11a0c407f4310e8f84f785a07757",
        "vprime.svg": "efc81acd6a3b7a75e80c1dd7b75dd1387b912a07a3580d6653d0b6bc82d45df7",
        "v.svg": "961cf9e68e5fe50ebec5227202551ee54d9bc0fbd9a1c922f6c874ecdb0d61b7",
    },
    "k1_type_II": {
        "trace.csv": "4c67f829b560fd1eeaecc9be58a6074afdb4f6e542f3b870528e748056754bd6",
        "trace.json": "9cd3a364df82c3c013f7e43bb362cf87a899f85c911672cb11198b0bdddb8ec9",
        "psi.svg": "c37acb34c5e57f8ab6d6bc108dbcc7b5c875eb1a2e9d3c18ed0f9625871e880a",
        "vprime.svg": "6a0b99ab0a7fa0d458051afce052ab3f04ffcd0ba2ad4b46f890ec7065cbf119",
        "v.svg": "a84d95d0916afb4fa0b8c2167887e1b05c89cb9c16d2249f1e79a53189b5fd23",
    },
    "k1_type_VI": {
        "trace.csv": "5a0e999d8dfd308a607b812c748791b548d795b0051776ba53246e7e29220291",
        "trace.json": "36ef03e18587f5104c669d27ca705da24c36cce5cc49347f4c53b050536ce1ff",
        "psi.svg": "0084ba82d8ff6ae2e831aeb1da26fb7d2f6e329bb7e2bdd6015f84773ad325e2",
        "vprime.svg": "eadfc012aef9097efd489f2edbd20926362389d3d535ec614c7c5b12c17c2f7d",
        "v.svg": "fb3321a94a933902be80a32ed754a7b0469aea77a1641bd6d6cd01b521948996",
    },
    "k2_type_IV": {
        "trace.csv": "4a2688293ead686b3e5253f7236c2a96d01c5d1e0cd5518abdc7d382574665d3",
        "trace.json": "f7233f290cf2d17ff525cb89937b7e067e16d16a9de739b5f06114e25bd2be7d",
        "psi.svg": "b7582c197165c9047b46f27252ebf0f352afc0c61620beea698a246002f66ad6",
        "vprime.svg": "1d871164e6eea6ae6fd3d2d5d82439e9aac05bb370401eaa815f38b69fcc1b80",
        "v.svg": "58c7b3dc3c7eeac2f26963ef3a2df0acd7c4ad60566de95ae4c56e1ae828b54e",
    },
    "k2_type_VII": {
        "trace.csv": "eb239f685764ca31218a6d1f9f53262c0351e42f65fce168c12a40a05186da0b",
        "trace.json": "eec81ae69cc845acd23ab01f22b9f409b1455065a770dbae1db8e99eed630922",
        "psi.svg": "187a35b097fe1483149883f350acc9d1c674c52a4f85cfc105d2dcd38bf34b17",
        "vprime.svg": "f0f9357dfb61e3e08c9449698e7a1637d95e3360670e68bbb6909524b79bc5aa",
        "v.svg": "ec9144c8e85e3ade1e4c65c3fec215ba2c3c1c02e1d3fcef6526dee2a27fc75f",
    },
}

GOLDEN_ARTIFACTS = [(tail, GALLERY_DIGESTS[name]) for name, tail in GALLERY_RUNS] + [
    (K1_SEED0 + ["--ymax", "3", "--overlays", "eta"], {
        "trace.csv": "51ba4d26f264879d04dbb72491c380555dcf14babdd092f242ca40e201c778df",
        "trace.json": "719b3e3d9fbdabe048b25b63fd4c0106cf552c9e7a0c01af91de7302c480a972",
        "psi.svg": "38714e31513dbd0199e15fcb923a3d90160fb03ccc34e72fad4fce5111e074cd",
        "vprime.svg": "179f3ed97b54a6a1080ed1719e241730bfc97706c9ea9b4f871941f1f6bec032",
        "v.svg": "4e463428112d6004d0a7c5e96d386319dcc23eb3013511125eba91a3a00e1da3",
    }),
    (K1_SEED0 + ["--overlays", "zeta,R-line"], {
        "trace.csv": "51ba4d26f264879d04dbb72491c380555dcf14babdd092f242ca40e201c778df",
        "trace.json": "719b3e3d9fbdabe048b25b63fd4c0106cf552c9e7a0c01af91de7302c480a972",
        "psi.svg": "bf7e2acb1d33a4d7562d5bd17862be5765451088cd17681c7476b3abce3d0472",
        "vprime.svg": "efc81acd6a3b7a75e80c1dd7b75dd1387b912a07a3580d6653d0b6bc82d45df7",
        "v.svg": "961cf9e68e5fe50ebec5227202551ee54d9bc0fbd9a1c922f6c874ecdb0d61b7",
    }),
    # Recorded before each figure path was formatted in one template: an
    # endpoint seed, a pole at r = 0.99999993, and a ymax whose cap
    # 10*ymax is inf, so that only the pole breaks lift the guide pens.
    (["--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--endpoint", "-1"], {
        "trace.csv": "d1c264a955c5cddca48554cf417ae254c493c884fbd737696933ece23bfca955",
        "trace.json": "42a0d69a67c1ec096ac1d6d4234c2a3a1c213ffcd9d354dbeb89346936c92fe5",
        "psi.svg": "7d89a2a9005c2f6ca659d0bdf5e388946151302a832af3baf28a78c7b3530355",
        "vprime.svg": "d10e71ed6983bd7f9929809d5061231e87dfd2012600b596f58f1fdb5767dfa9",
        "v.svg": "cde52a315cd4ded6ff3708e526f36e3126c3d60e8b2a4cf39cf78540b36e2f3f",
    }),
    (["--k", "2", "--n", "3", "--m", "1",
      "--seed-r", "-0.5966564091734834", "--seed-psi", "-1.7876768807877506"], {
        "trace.csv": "fed1df8db28821077a7dca85a1f0eb4e0fee068dd642551c68f3cf945f071e8b",
        "trace.json": "58f7a63814a59a2580b6f96d3c5b3b950549c66c8dcc06539b553245ce52c850",
        "psi.svg": "d75966c277344be3d0418d38226826d2be2b76dbd50c53eef3d115a36e31c288",
        "vprime.svg": "ffa14e1e6e93bfe020f1e68ec2473aa45bc6eaa6278414491bbbc408f140f84a",
        "v.svg": "58195d65e0870540c7caad3b9832ed98df6695b3d27cb193719199c053785a5b",
    }),
    (K1_SEED0 + ["--ymax", "8.9e307"], {
        "trace.csv": "51ba4d26f264879d04dbb72491c380555dcf14babdd092f242ca40e201c778df",
        "trace.json": "719b3e3d9fbdabe048b25b63fd4c0106cf552c9e7a0c01af91de7302c480a972",
        "psi.svg": "615bae4ceb6047f8e015811a93a7c460e013dd8354dd24dc17dd5dac2cd4275b",
        "vprime.svg": "a70d6d2de67396d5bc44d3b545a35e06488d08f10b8d6464e8aa2d476ee16c0b",
        "v.svg": "961cf9e68e5fe50ebec5227202551ee54d9bc0fbd9a1c922f6c874ecdb0d61b7",
    }),
]


# sha256 of sweep.json, recorded with CPython 3.11.7 and numpy 2.4.6 on
# x86-64 Linux while sweeps still integrated seed by seed: the 443-seed k=2
# grid now runs as one lockstep block in process, and the k=1 grid as one
# lockstep block per worker (or one in process on a single CPU).
SWEEP_DIGESTS = [
    (["--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--with-endpoints"],
     "c82faddf2bc9ca40e06b42c1b72e9cadbff3c29987abda0e4f59ed1ac11cef3d"),
    (["--k", "1", "--n", "2", "--with-endpoints", "--workers", "2"],
     "5b887d3622e0956b33f1e1806a556a79636e97f4c7c3f6b475d8ea9f96816c21"),
]


# sha256 of the classify, domain and verify reports, recorded with CPython
# 3.11.7 and numpy 2.4.6 on x86-64 Linux before the domain statement and the
# verify dispatch were each written as one rule.  Between them the domain
# runs cover every k = 2 case: an interior type, VI and VII, with and
# without n = 3.
REPORT_DIGESTS = [
    (["classify", "--k", "1", "--n", "2", "--seed-r", "-0.63", "--seed-psi", "0.5"],
     "1e3180e747ee402c8b2b637b8fd7daeb324f9186d216469453528b29069f330e"),
    (["classify", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--endpoint", "-1"],
     "15689edd0cd25f5197a19339fcfb8e415139f1c4d8f08079169776c664077127"),
    (["classify", "--k", "3", "--n", "4", "--m", "1", "--seed-r", "0.2", "--seed-psi", "0.5"],
     "ea659e8a55e0c6d9e39ac2e4f7641220369e2b1dee25f75c9f3ae58a6622cf7a"),
    (["domain", "--k", "1", "--n", "2", "--type", "VI"],
     "99c860fbcf0489a495779df7d6e8bdb526a79beb27be884fd421ccd6ca243728"),
    (["domain", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--type", "VII"],
     "5a847df339a9a151179c34b8e86eb01b01ab4a968d03d03b2c3f3780ec78503c"),
    (["domain", "--k", "2", "--n", "4", "--m1", "2", "--m2", "1", "--type", "VI"],
     "081053cd8d3070e4f8ff49e0d7ee419586e8e49757f72540cd3e313a44eae298"),
    (["domain", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
      "--seed-r", "-0.5", "--seed-psi", "0.3"],
     "96ab854709a61d7ca910c45c883813a8f928fb1200375a0c0bd566073bc194ea"),
    (["domain", "--k", "3", "--n", "4", "--m", "1", "--type", "VII"],
     "1ba192a201277e4e56ed3015c5e8196ca9dfd707a3b4d81cd0d6f164555f7c96"),
    (["verify", "grim-reaper", "--points", "200"],
     "2e9ee93dad063875634169440ceffa6fe816c202e36b84212315ed67aacdea23"),
    (["verify", "identities", "--family", "k2", "--n", "3", "--l", "2",
      "--points", "200"],
     "835ffc587d58dc28ad20e7320e239ac9eeda28a327753ec6c71111c5cdce8b66"),
    (["verify", "ode-residual", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
      "--points", "200"],
     "9b5d88a91864d1e0c090aefbd4ed500be2629a14cabebdd5232b426ad4bda150"),
    (["verify", "endpoint-law", "--k", "1", "--n", "2"],
     "fba49c541b3bdedfc30f540129e45819be876c67dfc58d4df13a2774eef154a6"),
]


class TestDeterminism:
    @pytest.mark.parametrize("argv, digest", SWEEP_DIGESTS)
    def test_sweep_json_matches_recorded_digest(self, tmp_path, capsys, argv, digest):
        code, _ = run_cli(["sweep", *argv], tmp_path, capsys)
        assert code == EXIT_OK
        assert hashlib.sha256((tmp_path / "sweep.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", REPORT_DIGESTS)
    def test_report_matches_recorded_digest(self, tmp_path, capsys, argv, digest):
        code, _ = run_cli(argv, tmp_path, capsys)
        assert code == EXIT_OK
        report = tmp_path / f"{argv[0]}.json"
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    def test_byte_identical_artifacts(self, tmp_path):
        """Identical flags must give identical bytes, subprocess to subprocess."""
        cmd = [sys.executable, "-m", "isosoliton.cli", "trace",
               "--k", "1", "--n", "2", "--seed-r", "0.3", "--seed-psi", "1.5",
               "--svg"]
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            r = subprocess.run(cmd + ["--out", str(d)], capture_output=True,
                               env={**os.environ, "PYTHONPATH": str(SRC)})
            assert r.returncode == 0, r.stderr.decode()
        for name in ("trace.csv", "trace.json", "psi.svg", "vprime.svg", "v.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_every_gallery_run_has_digests(self):
        assert [name for name, _ in GALLERY_RUNS] == list(GALLERY_DIGESTS)

    @pytest.mark.parametrize("tail, digests", GOLDEN_ARTIFACTS)
    def test_artifacts_match_recorded_digests(self, tmp_path, capsys, tail, digests):
        code, _ = run_cli(["trace", *tail, "--svg"], tmp_path, capsys)
        assert code == EXIT_OK
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in digests}
        assert got == digests

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        box = tmp_path / "boxed"
        box.mkdir()
        monkeypatch.setenv("ISOSOLITON_OUT", str(box))
        code = main(["classify", "--k", "1", "--n", "2",
                     "--seed-r", "0.1", "--seed-psi", "0.2"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert (box / "classify.json").exists()
