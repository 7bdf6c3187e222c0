"""Emit the standard figure set for a handful of representative runs.

Drives the command-line surface rather than the library so the output is
exactly what a shell user gets: trace.csv, trace.json, and the three SVG
panels (slope, derivative, profile) per run, byte-stable across reruns.
Figures land in demos/out/<name>/.
"""

import pathlib

from isosoliton.cli import main

HERE = pathlib.Path(__file__).parent
OUT = HERE / "out"

RUNS = [
    # name, argv tail
    ("k1_type_I", ["--k", "1", "--n", "2", "--seed-r", "0.0", "--seed-psi", "0.0"]),
    ("k1_type_II", ["--k", "1", "--n", "2", "--seed-r", "-0.63", "--seed-psi", "0.5"]),
    ("k1_type_VI", ["--k", "1", "--n", "2", "--endpoint", "-1"]),
    ("k2_type_IV", ["--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
                    "--seed-r", "-0.5", "--seed-psi", "3.0"]),
    ("k2_type_VII", ["--k", "2", "--n", "3", "--m1", "1", "--m2", "1",
                     "--endpoint", "1"]),
]

if __name__ == "__main__":
    for name, tail in RUNS:
        out = OUT / name
        out.mkdir(parents=True, exist_ok=True)
        print(f"--- {name} ---")
        code = main(["trace", *tail, "--svg", "--out", str(out)])
        assert code == 0, f"trace failed for {name}"

    print()
    print(f"wrote {sum(1 for _ in OUT.rglob('*.svg'))} SVG panels under {OUT}")
