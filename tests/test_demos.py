"""Smoke tests of the demo scripts that write no files."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_sphere_graph_check_demo(capsys):
    """The demo builds GraphSamples by hand, so it breaks with the callable
    contract; its printed residuals must stay within criterion 8's gates."""
    runpy.run_path(str(DEMOS / "sphere_graph_check.py"), run_name="__main__")
    out = capsys.readouterr().out
    devs = [float(m) for m in re.findall(r"max \|residual - 1\| = (\S+)", out)]
    assert len(devs) == 2, out
    flat, curved = devs
    assert flat < 1e-6
    assert curved < 1e-3


def test_phase_portrait_tour_demo(capsys):
    """The tour asserts each representative's type itself; the sweep over
    its grid must classify every seed."""
    runpy.run_path(str(DEMOS / "phase_portrait_tour.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "guide curve eta at r=0.5: -1.732051" in out
    assert len(re.findall(r"-> slope-eq type", out)) == 7
    assert "unlisted: 0, failed: 0" in out


def test_bounds_walkthrough_demo(capsys):
    """Each printed comparison must come out on the side its bound promises."""
    runpy.run_path(str(DEMOS / "bounds_walkthrough.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert float(re.search(r"slack\s+(\S+)", out).group(1)) >= 0.0
    assert float(re.search(r"psi - 1/sqrt\(h1\) >= (\S+)", out).group(1)) >= 0.0
    cap = float(re.search(r"arctan\(psi\) < (\S+)", out).group(1))
    assert float(re.search(r"measured arctan\(psi\(R\)\) = (\S+),", out).group(1)) < cap
    left = re.search(r"gives r >= (\S+)", out).group(1)
    assert re.search(r"reflected rightward bound: (\S+)", out).group(1) == left
    errors = [float(e) for e in re.findall(r"error (\S+)", out)]
    assert len(errors) == 2 and max(errors) < 1e-6
