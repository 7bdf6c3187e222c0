"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

EXACT = ("integrator.steps", "integrator.tail_frac", "integrator.reject_frac",
         "integrator.collapse_frac", "verify.u_evals")


def _traced_counters(wl, ops, tmp):
    tally = workloads.Tally()
    with run.WarningCounter() as counter:
        tracer, traced, _ = run.traced_pass(wl, ops, tally, counter, tmp)
    assert tally.failed == 0 and tally.wrong == 0, tally.notes
    m = workloads.layer_metrics(tracer, wl, sum(t1 - t0 for t0, t1, *_ in traced))
    return {name: m[name] for name in EXACT}


@pytest.mark.parametrize("name", ["sweep_k2n3", "verify_sphere"])
def test_counters_repeat_exactly(name, tmp_path):
    wl = workloads.make(name, 7, str(tmp_path), 1)
    ops = wl.ops()[:1]
    first = _traced_counters(wl, ops, str(tmp_path))
    second = _traced_counters(wl, ops, str(tmp_path))
    assert first == second
    assert first["integrator.steps"] > 0
    assert (first["verify.u_evals"] > 0) == (name == "verify_sphere")


def test_self_time_subtracts_union_of_overlapping_children():
    s = [["a", 0.0, 10.0, -1, 0, 1, None],
         ["b", 1.0, 4.0, 0, 0, 2, None],
         ["c", 3.0, 6.0, 0, 0, 3, None],
         ["d", 8.0, 12.0, 0, 0, 2, None]]
    assert spans.self_times(s) == pytest.approx([10.0 - 5.0 - 2.0, 3.0, 3.0, 4.0])


def test_event_problem_applies_tolerance_and_blowup_bound():
    ref = {"kind": "BlowUpPlus", "location": 0.5, "bound": 0.5000005}
    assert workloads.event_problem(ref, "BlowUpPlus", 0.5 + 5e-7, 1) is None
    assert "kind" in workloads.event_problem(ref, "BlowUpMinus", 0.5, 1)
    assert "location" in workloads.event_problem(ref, "BlowUpPlus", 0.5 + 2e-6, 1)
    tight = dict(ref, bound=0.499)
    assert "blowup_bound" in workloads.event_problem(tight, "BlowUpPlus", 0.5, 1)
    assert workloads.event_problem(tight, "BlowUpPlus", 0.5, -1) is None


def test_sweep_check_flags_a_changed_reference(tmp_path):
    wl = workloads.make("sweep_k2n3", 3, str(tmp_path), 1)
    op = wl.ops()[0]
    result = op.call()
    assert op.check(result).wrong == 0
    i = wl.slices[0][0]
    wl.ref = copy.deepcopy(wl.ref)
    wl.ref["entries"][i]["right"]["location"] += 1e-5
    assert op.check(result).wrong == 1


def test_sweep_check_flags_missing_and_misplaced_entries(tmp_path):
    wl = workloads.make("sweep_k2n3", 3, str(tmp_path), 1)
    op = wl.ops()[0]
    result = op.call()
    n = len(result.entries)
    assert op.check(dataclasses.replace(result, entries=result.entries[:-1])).wrong == n
    assert op.check(dataclasses.replace(result, entries=())).wrong == n
    swapped = (result.entries[1], result.entries[0]) + result.entries[2:]
    assert op.check(dataclasses.replace(result, entries=swapped)).wrong == 2


def test_sweep_histogram_is_checked_at_the_end_of_every_pass(tmp_path):
    wl = workloads.make("sweep_k2n3", 3, str(tmp_path), 1)
    wl.slices = [wl.slices[0]]  # one slice is the whole pass
    op = wl.ops()[0]
    result = op.call()
    wl.ref = copy.deepcopy(wl.ref)
    wl.ref["histogram"] = dict(result.histogram)
    assert [op.check(result).wrong for _ in range(2)] == [0, 0]
    wl.ref["histogram"]["I"] = wl.ref["histogram"].get("I", 0) + 1
    for _ in range(2):
        t = op.check(result)
        assert t.wrong == 1 and "histogram" in t.notes[-1]


def test_trace_cli_draws_one_endpoint_call_in_ten(tmp_path):
    wl = workloads.make("trace_cli", 5, str(tmp_path), 1)
    assert len(wl.calls) >= 100
    endpoint = sum("--endpoint" in c["argv"] for c in wl.calls)
    assert endpoint * 10 == len(wl.calls)
    again = workloads.make("trace_cli", 5, str(tmp_path), 1)
    assert [c["argv"] for c in again.calls] == [c["argv"] for c in wl.calls]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    with open(tmp_path / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    done = subprocess.run(command + ["--workload", "sweep_k2n3", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_declared_metrics_are_the_reported_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
