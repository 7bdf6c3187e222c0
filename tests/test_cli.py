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

    @pytest.mark.parametrize("argv, usage", [
        (["trace", "--k", "1", "--n", "2", "--seed-r", "0", "--seed-psi", "0", "--tol", "nan"],
         "isosoliton trace"),
        (["trace", "--k", "1", "--seed-r", "0", "--seed-psi", "0"], "isosoliton trace"),
        (["sweep", "--k", "1", "--n", "2", "--r-range=-1,0.5"], "isosoliton sweep"),
        (["verify", "identities", "--family", "k2", "--n", "3"], "isosoliton verify identities"),
    ])
    def test_error_prints_the_command_usage(self, tmp_path, capsys, argv, usage):
        """A value a library type or a command rejects prints the usage line
        of the command, as a value argparse rejects does."""
        with pytest.raises(SystemExit) as e:
            main(argv + ["--out", str(tmp_path / "out")])
        assert e.value.code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage: {usage} [-h]")


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
# when its "cfg" block went from six keys to five), and all again when the walk
# began to carry u = 1/psi^2 from |psi| > 4 under its own error norm, and when
# the blow-up tail became r as a function of s = 1/psi.  The k=1 n=2 seed (0, 0)
# run straddles R, so its guide curves break at the pole; the two runs after
# the gallery's draw them with a fixed range and each overlay alone.
GALLERY_DIGESTS = {
    "k1_type_I": {
        "trace.csv": "7e2018178191fa3b2acff660e35ceb63ebd51b88ea30187b0884e0246dfb82cb",
        "trace.json": "4b3c57084635e45ce20edc5c4f229cb1fe8f88be0ad093fc911ed78832c48ce1",
        "psi.svg": "7c06084fb1d65c600327d9de5f08409158aa74dc17dcf60dfcc6ef1fb15e0c53",
        "vprime.svg": "3f2512ff9d754e5e99e20b27b8bc4f1391632adb9a5f8e48e7526b7bc09b009b",
        "v.svg": "faeb21b5a00f6ac02c685dd9bc38d1ec5ac7c79f027975e522f4ea1252678db5",
    },
    "k1_type_II": {
        "trace.csv": "3e3a7e53a50ed654c6ba4e81df32637af8f52904011f9acbb8d589319db10bd3",
        "trace.json": "2106e962ef50728478ef6b5737ea5375e5bef7c96ba62e7d43dd2245bfe7a8bc",
        "psi.svg": "94eeebd73b819cf03c1b9d6aeb85c59d5594e004001bfddb035298e6b6a7d41c",
        "vprime.svg": "15871dfab45f739cae6b988ad090429b9574ff263947624056954e0033389c3b",
        "v.svg": "678afbe77e0d95e541aaad219c366160651d0ab72ba8744746e8b05bbe2ea261",
    },
    "k1_type_VI": {
        "trace.csv": "c9475417a30bb9939af3da3b85543fcad379d415f9234a321ffa7caff229f49d",
        "trace.json": "21deb0766e7b35cc6074d8d4862a51abdf3e4285a8424f77ca7051114b6052ec",
        "psi.svg": "2c685859a45a97d46365a407274d45d921bf1975057e764c1d99ab99cda3209b",
        "vprime.svg": "4ff791a0a50c4e3c92cbf2e0f1060f609b1dd3f2b693090821bb22dd6a05b52a",
        "v.svg": "32959da712cf4f237de1239c7051275a949c206f70618de8b51dd6a03d565070",
    },
    "k2_type_IV": {
        "trace.csv": "321764ecb5576621fbd2844a710c71efeb90fe2bff22fa2a603c3393e9c74168",
        "trace.json": "a4d989593320b02df2c4d5f75e7acb2e3243522f1f281d5a3fceb0668a5aaee6",
        "psi.svg": "d99d58370d85bdbb01894cc9c96a8c3fb966bdecee9f5a2ba796a071c8917261",
        "vprime.svg": "68a084f4c191536cd08d31e3364df77cad4a3cf4c0ca60aa70199ff5b672c20c",
        "v.svg": "8fa2457a29d7fa56964aec9359cc7c7f57675f5b344d069668305e3a5e9cb7f8",
    },
    "k2_type_VII": {
        "trace.csv": "3655a8f4b5d30b9dc0201fad1460cfc201dc0ebed2a2af17cea938545f4f24f4",
        "trace.json": "2b6ef930fae26cba3cd528d367b9fcd935efc2c18969b5c20ce3e374b758b397",
        "psi.svg": "8a31c9e77f7357f5f1f8ee70226f40687df1c3151df17db22701d7b25da2f94f",
        "vprime.svg": "0226c73c3148f97db41fd7bff1e9daa46b2159530385abb7dcdd1b508650b753",
        "v.svg": "f16ac052734fc991e1877dbb04f1eeafd61a8935d9cbdf99101e062f237466f4",
    },
}

GOLDEN_ARTIFACTS = [(tail, GALLERY_DIGESTS[name]) for name, tail in GALLERY_RUNS] + [
    (K1_SEED0 + ["--ymax", "3", "--overlays", "eta"], {
        "trace.csv": "7e2018178191fa3b2acff660e35ceb63ebd51b88ea30187b0884e0246dfb82cb",
        "trace.json": "4b3c57084635e45ce20edc5c4f229cb1fe8f88be0ad093fc911ed78832c48ce1",
        "psi.svg": "d3513b12636ad9c5926f53d5dbed1d67f309658052ae0c6d74045727818cfa1d",
        "vprime.svg": "d51019ebce7f715ec33d740907ef62c33daf34f04fd1a33898ecac7604f5942a",
        "v.svg": "c14ae60ce0a34b1921dc2290c2c45b97d23141f783abdc365274ffd13804cb5f",
    }),
    (K1_SEED0 + ["--overlays", "zeta,R-line"], {
        "trace.csv": "7e2018178191fa3b2acff660e35ceb63ebd51b88ea30187b0884e0246dfb82cb",
        "trace.json": "4b3c57084635e45ce20edc5c4f229cb1fe8f88be0ad093fc911ed78832c48ce1",
        "psi.svg": "1f28c057e7ecba5223112ace864d466f5dfd62f608e761f9b6fbe904e278483b",
        "vprime.svg": "3f2512ff9d754e5e99e20b27b8bc4f1391632adb9a5f8e48e7526b7bc09b009b",
        "v.svg": "faeb21b5a00f6ac02c685dd9bc38d1ec5ac7c79f027975e522f4ea1252678db5",
    }),
    # Recorded before each figure path was formatted in one template (and
    # again with the u norm and with the s tail): an endpoint seed, a pole at
    # r = 0.99999993, and a ymax whose cap 10*ymax is inf, so that only the
    # pole breaks lift the guide pens.
    (["--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--endpoint", "-1"], {
        "trace.csv": "e4d0a1faedebb183e66b6412bc903d66801ff4f7f14f84898b17597d0cd428ca",
        "trace.json": "c9a93b4b70bc1441628357a9906be10163f31d91611bdfd830e59da619338b98",
        "psi.svg": "3280e85fe9d66cc13c3ca04591c0c4b8165db0e343fe45aadaadbded6a23ef87",
        "vprime.svg": "b27329a9fac864a21c5f962faa2c3747811a23f4e58b87f555dae75f04f954a4",
        "v.svg": "a35cf763278af1ab05893e152d352b32f290d3ee94d542795fd71fd3beb89d64",
    }),
    (["--k", "2", "--n", "3", "--m", "1",
      "--seed-r", "-0.5966564091734834", "--seed-psi", "-1.7876768807877506"], {
        "trace.csv": "133fc884f5688172e29581198670581bd6a223ce4baa025ceaef6fe01a4a9a25",
        "trace.json": "3129ecff3ffc4e5c6398e274454167fc7ca68b4a093fe7ddca398a5d7dabc8f8",
        "psi.svg": "88940ccb3842e9da5841ebabb3f7be48d6991fd9feb136c115800d0211e914f9",
        "vprime.svg": "e48237834947b748bae0d23929e36c78a4286a55f6ab8c5907b423e40b5c2b01",
        "v.svg": "a96a8cb9736eef2bcc8c1b8d91216984b9269b84f99ee5055590724baf5c9b47",
    }),
    (K1_SEED0 + ["--ymax", "8.9e307"], {
        "trace.csv": "7e2018178191fa3b2acff660e35ceb63ebd51b88ea30187b0884e0246dfb82cb",
        "trace.json": "4b3c57084635e45ce20edc5c4f229cb1fe8f88be0ad093fc911ed78832c48ce1",
        "psi.svg": "e2eefd7d72c74926f81bc938390d1f06f780d1677c14374f646a278b327525ae",
        "vprime.svg": "6fe1de58cf6810eace23a6a198f2b38438a39a526d34754305feb233f074afc1",
        "v.svg": "faeb21b5a00f6ac02c685dd9bc38d1ec5ac7c79f027975e522f4ea1252678db5",
    }),
]


# sha256 of sweep.json, recorded with CPython 3.11.7 and numpy 2.4.6 on
# x86-64 Linux while sweeps still integrated seed by seed (and again when the
# walk began to carry u from |psi| > 4 under its own norm, and when zero
# crossings were polished on the integration step): the 443-seed k=2
# grid now runs as one lockstep block in process, and the k=1 grid as one
# lockstep block per worker (or one in process on a single CPU).
SWEEP_DIGESTS = [
    (["--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--with-endpoints"],
     "d7b1d2bc36420ca145c056b7f9d807301161aa61876efeb00b5176296ba7cad9"),
    (["--k", "1", "--n", "2", "--with-endpoints", "--workers", "2"],
     "0c7f495e841e499ac4691c265efc9c19ca67009b9ca8e8fb643f93254e1f888c"),
]


# sha256 of the classify, domain and verify reports, recorded with CPython
# 3.11.7 and numpy 2.4.6 on x86-64 Linux before the domain statement and the
# verify dispatch were each written as one rule; the reports that hold a pole
# location again when the walk began to carry u from |psi| > 4 under its own
# norm, and when the blow-up tail became r as a function of s = 1/psi.
# Between them the domain
# runs cover every k = 2 case: an interior type, VI and VII, with and
# without n = 3.
REPORT_DIGESTS = [
    (["classify", "--k", "1", "--n", "2", "--seed-r", "-0.63", "--seed-psi", "0.5"],
     "5ee9f8aa4fadcef685d93cc91943f625e6fdd3edd221c2061f1256b7fdc97b94"),
    (["classify", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--endpoint", "-1"],
     "94510bad150bdb4b4d408b682bf40b104eb1538b362fe9ede074148fc1e6bcc9"),
    (["classify", "--k", "3", "--n", "4", "--m", "1", "--seed-r", "0.2", "--seed-psi", "0.5"],
     "d9108cdc7e70d6a131b1a86614c082555d40de1524e9095d9000c4cf7e3c7ee5"),
    (["domain", "--k", "1", "--n", "2", "--type", "VI"],
     "99c860fbcf0489a495779df7d6e8bdb526a79beb27be884fd421ccd6ca243728"),
    (["domain", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--type", "VII"],
     "41b4ff513bb3c485d62d9cfbe650a78e6f1bfcd74f0dc01703f05bc4cd4e4289"),
    (["domain", "--k", "2", "--n", "4", "--m1", "2", "--m2", "1", "--type", "VI"],
     "57909c55035ab46eb8856acb3976a15a150b2b9b9620d91cf0d11fe8a07b426c"),
    (["domain", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
      "--seed-r", "-0.5", "--seed-psi", "0.3"],
     "d7aa86d1378111d1faaa8950c54a9e68f76884e79b69e368cad0243bf036d40e"),
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
