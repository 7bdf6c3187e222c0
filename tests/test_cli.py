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
# began to carry u = 1/psi^2 from |psi| > 4 under its own error norm.  The
# k=1 n=2 seed (0, 0)
# run straddles R, so its guide curves break at the pole; the two runs after
# the gallery's draw them with a fixed range and each overlay alone.
GALLERY_DIGESTS = {
    "k1_type_I": {
        "trace.csv": "32b6907af9cbfbb34aeb3a3ed91caddf61a53ff31b70abb32bb2482951e96509",
        "trace.json": "32848dfb9efbae9cff6b17c00d310e63faaeb1eb339f6ff9014589abe9c94170",
        "psi.svg": "c55a86036da4e60ec28c0a7cff5d89630905c0c0c83047d2fb6f771b1988ca6b",
        "vprime.svg": "b9cd78ed3cbcf5414dbcb44c4a787ce6f3cfc8a90291e635937a07d0593e8d38",
        "v.svg": "6d8e399a671dfbd11b4a8cf0d319e19b26beacc3c73659643a9196ef7cea6f43",
    },
    "k1_type_II": {
        "trace.csv": "4c9d91d832c00ff7ab291befbe1d275830e7933b4c078987dd686e828b2b2601",
        "trace.json": "481d5bde86623893e239471002abb90c90c2232a393ea03a69d9d92d1536033f",
        "psi.svg": "97c9058ea60aa0a49218afe098914f6b3ddcf7fb1a7e2a17fe71bedc63b1a10f",
        "vprime.svg": "6bc42db823f72dac0d8feb7bea703427352fe3eddfa7382b6356a3d4df35f99c",
        "v.svg": "418d053883c5a02976594f22d952fb625d7bdd6cfd52a3c368bb9363214fd12c",
    },
    "k1_type_VI": {
        "trace.csv": "9b92424c691207f9616fd95e5ade972dd45b176b8af92e78d7d56acac3b07be5",
        "trace.json": "3503fe0f8135b809e347bacc59b7a351f2836f76581e7935964fa8e2277b28f0",
        "psi.svg": "2b494448a622223d0a1d28f1eae2f5343bbf5e1ab5354103dc701c24323f7d44",
        "vprime.svg": "442e86f5740598e9ccd80b541f8a0ffec6553da7e037fea6b39705c6db4394f4",
        "v.svg": "66a8d4689a36596240bea9f8eafe1f9478520cba2ac569449d424cdc1c925efa",
    },
    "k2_type_IV": {
        "trace.csv": "0bab59703cc850e774f634695c704be5fec86e851ae450a87b6c9419dcc34d5c",
        "trace.json": "7bfbd792d5b781e08bd7dd47796885fc3036a7d3f0ae0fe9643bdc4a4232c2bd",
        "psi.svg": "73628989a152f3e852eeb46565d0aea8dc31b8f9ddff95a0e0e36f8b48566886",
        "vprime.svg": "153874b7137feffb32a7009f903b20734ec6e36fcbab85c1e32b20d0830bfd53",
        "v.svg": "fe78886962981261589be17f4f65bcc42123188a34216c65af55077a3c53828d",
    },
    "k2_type_VII": {
        "trace.csv": "035a91558cbba4b31e138ac50c3d05205875b2695f3efc3a9e0d63b5f8d1488d",
        "trace.json": "dbd7ce3ab7ac7f8c4f2f3f99cc712e3d78f17211ad12bb26a5da030be4013a16",
        "psi.svg": "cce55509c2b78ae1703744073ca48c632e071439d9cd496fa89de193b6a3a950",
        "vprime.svg": "49f576c9e3cba469f0ad3fd761bc08e3ebce96e2fec50ddbeba7dfe20abb8066",
        "v.svg": "aee66c91df8b530725b2332aa2817afc86a541b38986f7d16420158504066f37",
    },
}

GOLDEN_ARTIFACTS = [(tail, GALLERY_DIGESTS[name]) for name, tail in GALLERY_RUNS] + [
    (K1_SEED0 + ["--ymax", "3", "--overlays", "eta"], {
        "trace.csv": "32b6907af9cbfbb34aeb3a3ed91caddf61a53ff31b70abb32bb2482951e96509",
        "trace.json": "32848dfb9efbae9cff6b17c00d310e63faaeb1eb339f6ff9014589abe9c94170",
        "psi.svg": "51f57c952df7ae5b840d8fa8c62a1903c70470e329207805d1dd3e20c4bfa8ef",
        "vprime.svg": "b000c4945b077d30c852ac9aa591f6f042b1421b623b69e88c65ed372acd39fe",
        "v.svg": "209cc2d065c017611e5a5508205d4f902355585bdc8bccdbc05f564f2b7b0d6f",
    }),
    (K1_SEED0 + ["--overlays", "zeta,R-line"], {
        "trace.csv": "32b6907af9cbfbb34aeb3a3ed91caddf61a53ff31b70abb32bb2482951e96509",
        "trace.json": "32848dfb9efbae9cff6b17c00d310e63faaeb1eb339f6ff9014589abe9c94170",
        "psi.svg": "3b5479de66588cdaddb00ab74c79fc3877d0671c998f7b6956941d7b0bd3209b",
        "vprime.svg": "b9cd78ed3cbcf5414dbcb44c4a787ce6f3cfc8a90291e635937a07d0593e8d38",
        "v.svg": "6d8e399a671dfbd11b4a8cf0d319e19b26beacc3c73659643a9196ef7cea6f43",
    }),
    # Recorded before each figure path was formatted in one template (and
    # again with the u norm): an endpoint seed, a pole at r = 0.99999993, and
    # a ymax whose cap
    # 10*ymax is inf, so that only the pole breaks lift the guide pens.
    (["--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--endpoint", "-1"], {
        "trace.csv": "1bb7fee33e3fc352144239e41a7253dbf8635177c6c61400ded323ef204b0257",
        "trace.json": "d099247c0c120f81678ab895ba7e53564057327af0ea575290b5c839669db8b6",
        "psi.svg": "125fd648a3e02ad1eb30afeda534bfd7d1a85afc3dae665ed76a36db392c7928",
        "vprime.svg": "bd00e5fcc7465e32eb2721ed27a8d943decd9f6067c4307df99370a5ab30ac70",
        "v.svg": "8dc11fa63cae2bd394ba216dd1674f06a1ddc719c29293c416176c691571b4d5",
    }),
    (["--k", "2", "--n", "3", "--m", "1",
      "--seed-r", "-0.5966564091734834", "--seed-psi", "-1.7876768807877506"], {
        "trace.csv": "2ac0a5cfba898162deeac1efac530ba1aaa88816374a36a78bf39d24d8ebb3a8",
        "trace.json": "1547b35771b964db8ffec7a05f73c0a8090f2af47c0974d22f545c27e8d5a463",
        "psi.svg": "86f2556047b68ed02ff52492d8aaa363c78ab3c0005c435f5c21b7170000961a",
        "vprime.svg": "914d9d0138bbc160f98634e4ea05701f11c115181a016e2c8481a5451db3c856",
        "v.svg": "bb77e8b353beacbf8efca1350bca467af7a26f069d21213c10fcd680afb75a14",
    }),
    (K1_SEED0 + ["--ymax", "8.9e307"], {
        "trace.csv": "32b6907af9cbfbb34aeb3a3ed91caddf61a53ff31b70abb32bb2482951e96509",
        "trace.json": "32848dfb9efbae9cff6b17c00d310e63faaeb1eb339f6ff9014589abe9c94170",
        "psi.svg": "236f6866bf52bdd53ac6a949d44811b23e7f57033a15ca6ed0cf36299e166ac3",
        "vprime.svg": "b60651095e1f42b02ce4ddc40aceb7fae2f52df49453f4863d873752d444d667",
        "v.svg": "6d8e399a671dfbd11b4a8cf0d319e19b26beacc3c73659643a9196ef7cea6f43",
    }),
]


# sha256 of sweep.json, recorded with CPython 3.11.7 and numpy 2.4.6 on
# x86-64 Linux while sweeps still integrated seed by seed (and again when the
# walk began to carry u from |psi| > 4 under its own norm): the 443-seed k=2
# grid now runs as one lockstep block in process, and the k=1 grid as one
# lockstep block per worker (or one in process on a single CPU).
SWEEP_DIGESTS = [
    (["--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--with-endpoints"],
     "d0b1ec14a64127042345ac5208c6209f69e9e19067563d6c37e043e53066d012"),
    (["--k", "1", "--n", "2", "--with-endpoints", "--workers", "2"],
     "bb013caca6a027c32f798cfc6ca3b32484fcf76e27d99776f3c3d73c47bed3e7"),
]


# sha256 of the classify, domain and verify reports, recorded with CPython
# 3.11.7 and numpy 2.4.6 on x86-64 Linux before the domain statement and the
# verify dispatch were each written as one rule; the reports that hold a pole
# location again when the walk began to carry u from |psi| > 4 under its own
# norm.  Between them the domain
# runs cover every k = 2 case: an interior type, VI and VII, with and
# without n = 3.
REPORT_DIGESTS = [
    (["classify", "--k", "1", "--n", "2", "--seed-r", "-0.63", "--seed-psi", "0.5"],
     "7c56895e42f7555d63926fd022925bb2c4db32bb3e7f1718b15318c516f54ea1"),
    (["classify", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--endpoint", "-1"],
     "f22fa311801904bd364c256cd8baaea1f9b5436d52dc57501bbb21ff6d0907fd"),
    (["classify", "--k", "3", "--n", "4", "--m", "1", "--seed-r", "0.2", "--seed-psi", "0.5"],
     "95fc2a584eaaccae3697811738b916725ae2a81ef2774b9fda7cc584d966fc0d"),
    (["domain", "--k", "1", "--n", "2", "--type", "VI"],
     "99c860fbcf0489a495779df7d6e8bdb526a79beb27be884fd421ccd6ca243728"),
    (["domain", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1", "--type", "VII"],
     "232dc9944f68d62065acf632e7cb36a75bcf3afa2cb19b25aa189cb171bc3745"),
    (["domain", "--k", "2", "--n", "4", "--m1", "2", "--m2", "1", "--type", "VI"],
     "27e6aaee319b7bb59e2d6d351dd164d8cd2a6ef7babef0888a89c85dd5718add"),
    (["domain", "--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
      "--seed-r", "-0.5", "--seed-psi", "0.3"],
     "b094d5ac92ae6361fdcc0332c6dc134a944791eec5f77cd2f6ee8f981af2441a"),
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
