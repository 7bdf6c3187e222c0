"""Artifact formatters against per-number oracles.

``trace_to_csv`` and ``_svg._path`` fill one format template per artifact.
The oracles below are the per-row and per-sample loops they replaced; the
files must match them byte for byte on any input, special values included.
"""

import io
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from isosoliton import _svg
from isosoliton import PhasePoint, make_params, maximal_trace, trace_to_csv


def csv_oracle(trace, stream) -> None:
    stream.write("r,psi,vprime,v\n")
    for i in range(len(trace.r)):
        stream.write(
            f"{trace.r[i]:.17g},{trace.psi[i]:.17g},"
            f"{trace.vprime[i]:.17g},{trace.v[i]:.17g}\n"
        )


def path_oracle(x, y, cap, xmap, ymap, breaks=None) -> str:
    keep = np.isfinite(x) & np.isfinite(y) & (np.abs(y) <= cap)
    pen_up = np.ones_like(keep)
    pen_up[1:] = ~keep[:-1]
    if breaks is not None:
        pen_up |= breaks
    cmds = np.where(pen_up[keep], "M", "L").tolist()
    xs = xmap(x[keep]).tolist()
    ys = ymap(y[keep]).tolist()
    return "".join(f"{c}{u:.2f} {v:.2f}" for c, u, v in zip(cmds, xs, ys))


SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.005, -0.005,
           0.015, 1e-7, 123456789.125]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


def columns(draw, count):
    n = draw(st.integers(0, 40))
    return [draw(arrays(np.float64, n, elements=values)) for _ in range(count)]


@st.composite
def tables(draw):
    return columns(draw, 4)


@settings(max_examples=100, deadline=None)
@given(tables())
@example([np.empty(0)] * 4)
@example([np.array([np.nan, -0.0]), np.array([np.inf, 5e-324]),
          np.array([-np.inf, 1e308]), np.array([-1e308, 0.1])])
def test_csv_matches_per_row_oracle(cols):
    trace = SimpleNamespace(r=cols[0], psi=cols[1], vprime=cols[2], v=cols[3])
    want, got = io.StringIO(), io.StringIO()
    csv_oracle(trace, want)
    trace_to_csv(trace, got)
    assert got.getvalue() == want.getvalue()


# maps that stay finite on every finite double, so no overflow warning fires
MAPS = [lambda v: v, lambda v: 0.5 * v + 3.0, lambda v: 40.0 - 0.25 * v]


@st.composite
def paths(draw):
    x, y = columns(draw, 2)
    breaks = draw(st.none() | arrays(np.bool_, len(x)))
    cap = draw(st.sampled_from([np.inf, 1e308, 10.0, 1.0, 0.0]))
    xmap, ymap = draw(st.sampled_from(MAPS)), draw(st.sampled_from(MAPS))
    return x, y, cap, xmap, ymap, breaks


X3 = np.array([0.0, 1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(paths())
# every sample dropped, by non-finite values and by the cap, and no samples
@example((X3, np.array([np.nan, np.inf, 50.0]), 10.0, MAPS[0], MAPS[0], None))
@example((X3, np.array([-np.inf, 11.0, -12.0]), 10.0, MAPS[1], MAPS[2],
          np.array([True, False, True])))
@example((np.empty(0), np.empty(0), 10.0, MAPS[0], MAPS[0], np.empty(0, dtype=bool)))
def test_path_matches_per_sample_oracle(args):
    assert _svg._path(*args) == path_oracle(*args)


def test_csv_of_a_trace_round_trips_bit_for_bit():
    trace = maximal_trace(make_params(1, 2, 1, 1), PhasePoint(0.3, 1.5))
    stream = io.StringIO()
    trace_to_csv(trace, stream)
    table = np.loadtxt(io.StringIO(stream.getvalue()), delimiter=",", skiprows=1, ndmin=2)
    assert table.shape == (len(trace.r), 4)
    for col, name in enumerate(("r", "psi", "vprime", "v")):
        want = getattr(trace, name)
        assert np.array_equal(table[:, col].view(np.int64), want.view(np.int64)), name
