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
