"""The benchmark's workloads: inputs from the workload seed, timed calls into
isosoliton's public API, and checks of every result against the reference
recorded in ``reference/``.

Each workload is a list of operations.  An operation is one closed-loop call
(one caller, the next call starts when the previous returns); its ``check``
turns the result into a Tally of attempted, failed and wrong units, where a
unit is a seed for sweeps, a command for trace_cli and a family pipeline for
verify_sphere.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from isosoliton import _svg, classifier, cli, integrator, verify
from isosoliton.catalog import params_from_dict
from isosoliton.phase import PhasePoint

from spans import self_times

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

LOC_TOL = 1e-6        # event and crossing locations against the reference
BOUND_SLACK = 1e-6    # criterion 4: how far a blow-up may pass blowup_bound
RESIDUAL_TOL = 1e-3   # criterion 8: max |graph operator - 1| on the sphere

# verify_sphere pipeline, as acceptance criterion 8 runs it
VERIFY_CFG = integrator.IntegratorConfig(tol=1e-12, max_step=2e-3)
VERIFY_EPSILON = 1e-6
VERIFY_BAND_LO = -0.95
VERIFY_BAND_MARGIN = 0.1
VERIFY_POINTS = 1000

TRACE_FORMATS = ["--formats", "csv,json,svg"]
ARTIFACTS = ("trace.csv", "trace.json", "psi.svg", "vprime.svg", "v.svg")
TYPE_LABEL = re.compile(r">type ([^<]+)</text>")


def load_reference(name: str) -> dict:
    with open(os.path.join(REF_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes.extend(other.notes[: max(0, 10 - len(self.notes))])


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], Tally]
    seeds: int


def event_problem(ref: dict, kind: str, location: float, side: int) -> str | None:
    """Why an event disagrees with its reference, or None."""
    if kind != ref["kind"]:
        return f"kind {kind} != {ref['kind']}"
    if abs(location - ref["location"]) > LOC_TOL:
        return f"location {location!r} != {ref['location']!r}"
    bound = ref.get("bound")
    if bound is not None and kind.startswith("BlowUp"):
        excess = (location - bound) if side == 1 else (bound - location)
        if excess > BOUND_SLACK:
            return f"location {location!r} passes blowup_bound {bound!r}"
    return None


class Workload:
    workers = 1

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.tracer = None  # set for the traced pass

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def layer_extras(self) -> dict:
        """Per-layer numbers the workload measures itself rather than by span."""
        return {}


class Sweep(Workload):
    """``classifier.sweep`` over the reference grid in a seeded order, one
    call per slice; the slices of one pass cover the grid once."""

    def __init__(self, seed: int, tmp: str, ref_file: str, workers: int, slices: int):
        super().__init__(seed, tmp)
        self.workers = workers
        self.ref = load_reference(ref_file)
        self.p = params_from_dict(self.ref["params"])
        self.seeds = [PhasePoint(r, psi) for r, psi in self.ref["seeds"]]
        order = list(range(len(self.seeds)))
        random.Random(seed).shuffle(order)
        self.slices = [order[k::slices] for k in range(slices)]
        self.hist: dict[str, int] = {}
        self.pass_failed = False

    def ops(self) -> list[Op]:
        def op(k: int) -> Op:
            seeds = [self.seeds[i] for i in self.slices[k]]

            def call():
                return classifier.sweep(self.p, seeds, workers=self.workers)

            return Op(call, lambda res: self.check(k, res), len(seeds))

        return [op(k) for k in range(len(self.slices))]

    def check(self, k: int, res) -> Tally:
        idx = self.slices[k]
        t = Tally(attempted=len(idx))
        if k == 0:
            self.hist = {}
            self.pass_failed = False
        if len(res.entries) != len(idx):
            # results that cannot be matched to the seeds sent are all wrong
            t.wrong = len(idx)
            t.notes.append(f"slice {k}: {len(res.entries)} entries for {len(idx)} seeds")
        else:
            for entry, i in zip(res.entries, idx):
                t.add(self.check_entry(entry, i))
        for v_type, n in res.histogram.items():
            self.hist[v_type] = self.hist.get(v_type, 0) + n
        self.pass_failed |= t.failed > 0
        # the last slice completes a pass; a pass with failed seeds is
        # already counted failed, and its histogram is short by them
        if k == len(self.slices) - 1 and not self.pass_failed \
                and self.hist != self.ref["histogram"]:
            t.wrong = max(t.wrong, 1)
            t.notes.append(f"histogram {self.hist} != {self.ref['histogram']}")
        return t

    def check_entry(self, entry, i: int) -> Tally:
        ref = self.ref["entries"][i]
        if entry.seed != self.seeds[i]:
            return Tally(wrong=1, notes=[f"seed {i}: entry for {entry.seed}, not {self.seeds[i]}"])
        if entry.error is not None:
            return Tally(failed=1, notes=[f"seed {i}: {entry.error}"])
        shape = entry.shape
        ev = shape.evidence
        problem = None
        if shape.v_type != ref["v_type"]:
            problem = f"type {shape.v_type} != {ref['v_type']}"
        problem = problem \
            or event_problem(ref["left"], ev.left_event.kind, ev.left_event.location, -1) \
            or event_problem(ref["right"], ev.right_event.kind, ev.right_event.location, 1)
        if problem:
            return Tally(wrong=1, notes=[f"seed {i}: {problem}"])
        return Tally()

    def warm_up(self) -> None:
        classifier.classify(integrator.maximal_trace(self.p, self.seeds[self.slices[0][0]]))


class TraceCli(Workload):
    """In-process ``isosoliton trace`` writing CSV, JSON and SVG."""

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        # the whole recorded pool in a seeded order: a seeded subset would
        # move the latency quantiles with the mix of catalog sets
        self.calls = load_reference("trace_cli.json")["calls"]
        random.Random(seed).shuffle(self.calls)
        self.out = os.path.join(tmp, "trace")
        os.makedirs(self.out, exist_ok=True)
        self.artifacts = 0
        self.identical = 0

    def _run(self, spec: dict):
        argv = spec["argv"] + TRACE_FORMATS + ["--out", self.out]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def ops(self) -> list[Op]:
        return [Op(lambda s=spec: self._run(s), lambda rc, s=spec: self.check(s, rc), 1)
                for spec in self.calls]

    def check(self, spec: dict, rc) -> Tally:
        t = Tally(attempted=1)
        try:
            t.add(self._check_artifacts(spec, rc))
        finally:
            shutil.rmtree(self.out)
            os.makedirs(self.out)
        return t

    def _check_artifacts(self, spec: dict, rc) -> Tally:
        t = Tally()
        label = " ".join(spec["argv"])
        if rc != 0:
            return Tally(failed=1, notes=[f"{label}: exit {rc}"])
        blobs = {}
        for name in ARTIFACTS:
            with open(os.path.join(self.out, name), "rb") as fh:
                blobs[name] = fh.read()
        for name, blob in blobs.items():
            self.artifacts += 1
            self.identical += hashlib.sha256(blob).hexdigest() == spec["sha256"][name]
        env = json.loads(blobs["trace.json"])
        left, right = env["events"]["left"], env["events"]["right"]
        if integrator.BUDGET_EXHAUSTED in (left["kind"], right["kind"]):
            return Tally(failed=1, notes=[f"{label}: budget exhausted"])
        problem = event_problem(spec["left"], left["kind"], left["location"], -1) \
            or event_problem(spec["right"], right["kind"], right["location"], 1)
        crossings = [(c["kind"], c["r"]) for c in env["crossings"]]
        if not problem and (
                [k for k, _ in crossings] != [k for k, _ in spec["crossings"]]
                or any(abs(a - b) > LOC_TOL
                       for (_, a), (_, b) in zip(crossings, spec["crossings"]))):
            problem = f"crossings {crossings} != {spec['crossings']}"
        labels = TYPE_LABEL.findall(blobs["v.svg"].decode("utf-8"))
        if not problem and labels != [spec["v_type"]]:
            problem = f"type label {labels} != {spec['v_type']}"
        if problem:
            t.wrong = 1
            t.notes.append(f"{label}: {problem}")
        return t

    def warm_up(self) -> None:
        self.check(self.calls[0], self._run(self.calls[0]))
        self.artifacts = self.identical = 0

    def layer_extras(self) -> dict:
        return {"cli.identical_frac": self.identical / self.artifacts if self.artifacts else 0.0}


class _CountingU:
    """The graph callable handed to GraphSample, counting its evaluations."""

    def __init__(self, u):
        self.u = u
        self.n = 0

    def __call__(self, x):
        self.n += 1
        return self.u(x)


class VerifySphere(Workload):
    """Criterion-8 pipeline: endpoint-seeded trace, lift to a graph on the
    sphere, PDE residual by finite differences at band points."""

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        self.families = []
        for fam in load_reference("verify_sphere.json")["families"]:
            p = params_from_dict(fam["params"])
            iso = verify.IsoparametricFn(fam["iso"]["kind"], fam["iso"]["n"], fam["iso"]["l"])
            self.families.append((p, iso, fam))

    def _pipeline(self, p, iso, n_points: int):
        seed = integrator.endpoint_seed(p, -1, VERIFY_EPSILON)
        trace = integrator.maximal_trace(p, seed, VERIFY_CFG)
        u = verify.graph_from_trace(p, trace, iso)
        hi = trace.right_event.location - VERIFY_BAND_MARGIN
        pts = verify.sphere_points_in_band(iso, VERIFY_BAND_LO, hi, n_points, seed=self.seed)
        if self.tracer is not None:
            u = _CountingU(u)
        rep = verify.soliton_residual(verify.GraphSample(verify.AMBIENT_SPHERE, pts, u))
        if self.tracer is not None:
            self.tracer.count("verify.u_evals", u.n)
        return trace, rep

    def ops(self) -> list[Op]:
        def call():
            return [self._pipeline(p, iso, VERIFY_POINTS) for p, iso, _ in self.families]

        return [Op(call, self.check, len(self.families))]

    def check(self, results) -> Tally:
        t = Tally(attempted=len(self.families))
        for (_, iso, fam), (trace, rep) in zip(self.families, results):
            if integrator.BUDGET_EXHAUSTED in (trace.left_event.kind, trace.right_event.kind):
                t.failed += 1
                t.notes.append(f"{iso.kind} n={iso.n}: budget exhausted")
                continue
            problem = event_problem(fam["left"], trace.left_event.kind,
                                    trace.left_event.location, -1) \
                or event_problem(fam["right"], trace.right_event.kind,
                                 trace.right_event.location, 1)
            dev = rep.max_deviation_from(1.0)
            if not problem and not dev < RESIDUAL_TOL:
                problem = f"residual deviation {dev:.3e} >= {RESIDUAL_TOL}"
            if problem:
                t.wrong += 1
                t.notes.append(f"{iso.kind} n={iso.n}: {problem}")
        return t

    def warm_up(self) -> None:
        for p, iso, _ in self.families:
            self._pipeline(p, iso, 8)


def make(name: str, seed: int, tmp: str, nproc: int) -> Workload:
    # 443 seeds in 32 serial slices of 13-14 (about 0.4 s each); the pooled
    # sweep is one call over all 443, so a pass starts one pool, as a grid
    # sweep does.
    if name == "sweep_k2n3":
        return Sweep(seed, tmp, "sweep_k2n3.json", workers=1, slices=32)
    if name == "sweep_k1n2_w2":
        return Sweep(seed, tmp, "sweep_k1n2.json", workers=min(2, nproc), slices=2)
    if name == "trace_cli":
        return TraceCli(seed, tmp)
    if name == "verify_sphere":
        return VerifySphere(seed, tmp)
    raise ValueError(f"unknown workload {name!r}")


TAIL_PSI = 100.0  # |psi| above which an accepted step counts as blow-up tail


def half_trace_counters(half, blowup_threshold: float) -> dict:
    """Exact step counters of one ``integrate_from`` run, from its HalfTrace."""
    accepted = half.stats.accepted
    rejected = half.stats.rejected
    blowup = half.event.kind.startswith("BlowUp")
    return {
        "attempted": accepted + rejected,
        "rejected": rejected,
        "tail": int((abs(half.psi[1:]) > TAIL_PSI).sum()),
        "blowup": blowup,
        "threshold": blowup and abs(float(half.psi[-1])) >= blowup_threshold,
    }


def instrument(tracer) -> None:
    """Wrap each module's public functions that the workloads reach."""
    threshold = integrator.IntegratorConfig().blowup_threshold
    tracer.instrument(integrator, "integrate_from",
                      lambda half: half_trace_counters(half, threshold))
    tracer.instrument(integrator, "maximal_trace", lambda tr: {"samples": len(tr.r)})
    tracer.instrument(integrator, "trace_to_csv")
    tracer.instrument(integrator, "trace_to_json")
    tracer.instrument(classifier, "classify")
    tracer.instrument(classifier, "sweep")
    tracer.instrument(_svg, "trace_figures")
    tracer.instrument(cli, "main")
    tracer.instrument(verify, "graph_from_trace")
    tracer.instrument(verify, "sphere_points_in_band")
    tracer.instrument(verify, "soliton_residual")


LAYER_UNITS = {
    "integrator.integrate_s": "s",
    "integrator.steps": "count",
    "integrator.us_per_step": "us",
    "integrator.steps_per_seed_p50": "count",
    "integrator.steps_per_seed_max": "count",
    "integrator.tail_frac": "fraction",
    "integrator.reject_frac": "fraction",
    "integrator.collapse_frac": "fraction",
    "integrator.assemble_s": "s",
    "integrator.samples_per_trace_p50": "count",
    "integrator.serialize_s": "s",
    "classifier.classify_s": "s",
    "classifier.pool_efficiency": "fraction",
    "svg.render_s": "s",
    "cli.overhead_s": "s",
    "cli.identical_frac": "fraction",
    "verify.residual_s": "s",
    "verify.graph_s": "s",
    "verify.sample_s": "s",
    "verify.u_evals": "count",
    "verify.us_per_u_eval": "us",
    "integrator.self_s": "s",
    "classifier.self_s": "s",
    "svg.self_s": "s",
    "cli.self_s": "s",
    "verify.self_s": "s",
    "tracing.cover_frac": "fraction",
    "tracing.overhead_s": "s",
    "tracing.overhead_frac": "fraction",
    "runtime_warnings": "count",
}
LAYERS = {"integrator": "integrator", "classifier": "classifier", "_svg": "svg",
          "cli": "cli", "verify": "verify"}


def layer_metrics(tracer, wl: Workload, traced_wall: float) -> dict:
    """Per-layer numbers derived from the spans of one traced pass.

    Spans the workload does not reach read 0, and so do ratios over them.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(*names):
        return sum(dur(i) for n in names for i in by_name.get(n, ()))

    def self_total(*names):
        return sum(selfs[i] for n in names for i in by_name.get(n, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    halves = [spans[i] for i in by_name.get("integrator.integrate_from", ())]
    steps = sum(h[6]["attempted"] for h in halves)
    blowups = [h[6] for h in halves if h[6]["blowup"]]
    per_trace: dict[int, int] = {}
    for h in halves:
        per_trace[h[3]] = per_trace.get(h[3], 0) + h[6]["attempted"]
    traces = [spans[i][6]["samples"] for i in by_name.get("integrator.maximal_trace", ())]

    sweeps = by_name.get("classifier.sweep", ())
    seed_work = sum(dur(i) for i, s in enumerate(spans)
                    if s[3] in sweeps and s[0] in ("integrator.maximal_trace", "classifier.classify"))
    integrate_s = total("integrator.integrate_from")
    residual_s = total("verify.soliton_residual")
    u_evals = tracer.counters.get("verify.u_evals", 0)

    m = {
        "integrator.integrate_s": integrate_s,
        "integrator.steps": steps,
        "integrator.us_per_step": 1e6 * ratio(integrate_s, steps),
        "integrator.steps_per_seed_p50": float(np.median(list(per_trace.values()))) if per_trace else 0.0,
        "integrator.steps_per_seed_max": max(per_trace.values(), default=0),
        "integrator.tail_frac": ratio(sum(h[6]["tail"] for h in halves), steps),
        "integrator.reject_frac": ratio(sum(h[6]["rejected"] for h in halves), steps),
        "integrator.collapse_frac": ratio(sum(not b["threshold"] for b in blowups), len(blowups)),
        "integrator.assemble_s": self_total("integrator.maximal_trace"),
        "integrator.samples_per_trace_p50": float(np.median(traces)) if traces else 0.0,
        "integrator.serialize_s": total("integrator.trace_to_csv", "integrator.trace_to_json"),
        "classifier.classify_s": total("classifier.classify"),
        "classifier.pool_efficiency": ratio(seed_work, wl.workers * total("classifier.sweep")),
        "svg.render_s": total("_svg.trace_figures"),
        "cli.overhead_s": self_total("cli.main"),
        "cli.identical_frac": 0.0,
        "verify.residual_s": residual_s,
        "verify.graph_s": total("verify.graph_from_trace"),
        "verify.sample_s": total("verify.sphere_points_in_band"),
        "verify.u_evals": u_evals,
        "verify.us_per_u_eval": 1e6 * ratio(residual_s, u_evals),
    }
    layer_self = {name: 0.0 for name in LAYERS.values()}
    for s, own in zip(spans, selfs):
        layer_self[LAYERS[s[0].split(".", 1)[0]]] += own
    for name, value in layer_self.items():
        m[f"{name}.self_s"] = value
    m["tracing.cover_frac"] = ratio(sum(layer_self.values()), wl.workers * traced_wall)
    return m
