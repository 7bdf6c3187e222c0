"""Benchmark of isosoliton's public API, checked against a recorded reference.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_k2n3 --seed 1 --seconds 20 --trace 0

Workloads: sweep_k2n3, sweep_k1n2_w2, trace_cli, verify_sphere (see
perfbench/README.md).  With ``--trace 0`` it repeats whole passes of the
workload's calls for about ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it runs one pass with spans around every
instrumented public function, each call next to an untraced twin, and
reports the per-layer metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give the
same numbers by name with their units, the environment, and the first
mismatches if any.  Results and spans are also written under
``.perfbench_out/``.
"""

import os

# Pin library thread pools before numpy loads: on a small machine a
# two-worker sweep must not contend with BLAS or OpenMP threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

from calibration import Calibrator  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep_k2n3", "sweep_k1n2_w2", "trace_cli", "verify_sphere")
SETUP_PROBES = 4  # extra set-ups in fresh interpreters, for a median of five
WINDOW_S = 0.5  # calibration window around calls shorter than this
POOL_GAP_S = 0.5  # ticks-only spell before and after each pooled call

E2E_UNITS = {"seeds_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import isosoliton from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "isosoliton", "__init__.py")):
        sys.exit(f"perfbench: no isosoliton sources under {SRC}")
    sys.path.insert(0, SRC)
    import isosoliton
    if os.path.dirname(os.path.dirname(os.path.abspath(isosoliton.__file__))) != SRC:
        sys.exit(f"perfbench: imported isosoliton from {isosoliton.__file__}, not {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_up(args, tmp):
    """Import, input generation and warm-up.

    Returns the workload, its ops and the set-up's CPU seconds, raw and
    calibrated (see ``calibrated``: set-up runs in this process alone).
    """
    with Calibrator() as cal:
        t0, c0 = time.perf_counter(), time.process_time()
        import_program()
        import workloads
        wl = workloads.make(args.workload, args.seed, tmp, nproc())
        ops = wl.ops()
        wl.warm_up()
        t1, c1 = time.perf_counter(), time.process_time()
    seconds = cal.net(t0, t1, c1 - c0)
    return wl, ops, (seconds, seconds * cal.factor(t0, t1))


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of the same workload in a fresh interpreter, raw and
    calibrated."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["setup_scaled_s"]


class WarningCounter:
    """Counts RuntimeWarnings raised while ``active``, without failing."""

    def __init__(self):
        self.n = 0
        self.active = False

    def __enter__(self):
        self._cm = warnings.catch_warnings()
        self._cm.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def show(message, category, *rest, **kw):
            if self.active and issubclass(category, RuntimeWarning):
                self.n += 1
            else:
                shown(message, category, *rest, **kw)

        warnings.showwarning = show
        return self

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


def stolen_s() -> float:
    """Seconds the hypervisor has stolen from the CPUs this process may run
    on, from the kernel's counters; 0 where there are none."""
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            rows = [line.split() for line in fh if line.startswith("cpu")]
    except OSError:
        return 0.0
    ticks = sum(int(row[8]) for row in rows if row[0] in cpus and len(row) > 8)
    return ticks / os.sysconf("SC_CLK_TCK")


def run_op(op, tally, counter) -> tuple[float, float, float, float]:
    """Run one call and fold its checked outcome into ``tally``.  Returns
    the call's start and end, the CPU seconds this process spent in it and
    the seconds stolen from its CPUs meanwhile."""
    from workloads import Tally

    counter.active = True
    s0, t0, c0 = stolen_s(), time.perf_counter(), time.process_time()
    try:
        result = op.call()
    except Exception as exc:  # a failed call is a measured outcome
        t1, c1, s1 = time.perf_counter(), time.process_time(), stolen_s()
        counter.active = False
        traceback.print_exc(file=sys.stderr)
        tally.add(Tally(attempted=op.seeds, failed=op.seeds, notes=[f"call raised {exc!r}"]))
        return t0, t1, c1 - c0, s1 - s0
    t1, c1, s1 = time.perf_counter(), time.process_time(), stolen_s()
    counter.active = False
    try:
        tally.add(op.check(result))
    except Exception as exc:  # an unreadable result counts as wrong
        traceback.print_exc(file=sys.stderr)
        tally.add(Tally(attempted=op.seeds, wrong=op.seeds, notes=[f"check raised {exc!r}"]))
    return t0, t1, c1 - c0, s1 - s0


def timed_loop(ops, seconds, tally, counter, pooled):
    """Closed loop over whole passes of ``ops`` for about ``seconds``.

    A pass runs every op once, so each op weighs the same in the quantiles;
    one more pass starts only if a mean pass so far would end less than half
    a pass after the window.  A ``pooled`` call runs between two spells of
    POOL_GAP_S in which only the calibration ticks run.  Returns the calls'
    run_op windows, the seeds served and the calibrator.
    """
    windows, seeds = [], 0
    with Calibrator() as cal:
        start = time.perf_counter()
        passes = 0
        while True:
            for op in ops:
                if pooled:
                    cal.spin(POOL_GAP_S)
                windows.append(run_op(op, tally, counter))
                seeds += op.seeds
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / passes > seconds:
                break
        if pooled:
            cal.spin(POOL_GAP_S)
    return windows, seeds, cal


def pool_tick_ratios(cal, windows, raw, scaled) -> list:
    """Each pooled call's tick time over that of the ticks in the
    POOL_GAP_S spells of ticks alone just before and after it."""
    ratios = []
    for (t0, t1, *_), r, s in zip(windows, raw, scaled):
        around = 0.5 * (cal.factor(t0 - POOL_GAP_S, t0) + cal.factor(t1, t1 + POOL_GAP_S))
        ratios.append(around * r / s)
    return ratios


def calibrated(cal, windows, workers) -> tuple[list, list]:
    """Each call's seconds net of the ticks, raw and scaled by the ticks
    within WINDOW_S / 2 of its middle, or inside it when it is longer.

    On a virtual machine the hypervisor steals the CPUs in bursts that
    doubled single calls, and the ticks, too short to be hit often, do not
    see them.  So a call that runs in this process alone is timed by its
    CPU seconds, and a pooled call, which waits for its ``workers``, by its
    wall time less the stolen seconds per worker.
    """
    raw, scaled = [], []
    for t0, t1, cpu, stolen in windows:
        mid = 0.5 * (t0 + t1)
        raw.append(cal.net(t0, t1, cpu if workers == 1 else t1 - t0 - stolen / workers))
        scaled.append(raw[-1] * cal.factor(min(t0, mid - 0.5 * WINDOW_S),
                                           max(t1, mid + 0.5 * WINDOW_S)))
    return raw, scaled


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, for pooled runs, workers x the largest
    waited-for child (read before any set-up probe runs)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * kids) / 1024.0


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(), "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(args, wl, ops, setup0, tally, counter, samples) -> dict:
    pooled = wl.workers > 1
    windows, seeds, cal = timed_loop(ops, args.seconds, tally, counter, pooled)
    durations, scaled = calibrated(cal, windows, wl.workers)
    ratios = pool_tick_ratios(cal, windows, durations, scaled) if pooled else []
    rss = peak_rss_mb(wl.workers)
    setups = [setup0] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    samples.update(wall_s=[t1 - t0 for t0, t1, *_ in windows],
                   stolen_s=[stolen for *_, stolen in windows],
                   durations_s=durations, scaled_s=scaled, setups_s=setups, seeds=seeds,
                   calibration_ticks=len(cal), calibration_p50_s=cal.median_tick(),
                   pool_tick_ratios=ratios)
    print(f"samples calls={len(durations)} seeds={seeds} setups={len(setups)} "
          f"calibration_ticks={len(cal)} calibration_p50_s={cal.median_tick():.6g} "
          f"stolen_s={sum(stolen for *_, stolen in windows):.4g}"
          + (f" pool_tick_ratio_p50={statistics.median(ratios):.4g}" if ratios else ""))
    print(f"raw seeds_per_s={seeds / sum(durations):.6g} "
          f"latency_p50_ms={1e3 * statistics.median(durations):.6g} "
          f"latency_p90_ms={1e3 * quantile(durations, 90):.6g} "
          f"setup_s={statistics.median(raw for raw, _ in setups):.6g}")
    return {
        "seeds_per_s": seeds / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_p90_ms": 1e3 * quantile(scaled, 90),
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": rss,
    }


def traced_pass(wl, ops, tally, counter, tmp, plain_ops=(), clock=time.perf_counter):
    """Run each op once with spans recorded, timed by ``clock``.

    Each op of ``plain_ops`` (the same calls on a second instance of the
    workload, which keeps its own pass state) runs untraced next to its
    traced twin, first for even ops and second for odd ones, so that both
    calls of a pair see about the same host speed.  Returns the tracer and
    the run_op windows of the traced and of the untraced calls.
    """
    import spans
    import workloads

    tracer = spans.Tracer(tmp, clock)
    traced, untraced = [], []
    for i, (op, plain) in enumerate(itertools.zip_longest(ops, plain_ops)):
        if plain is not None and i % 2 == 0:
            untraced.append(run_op(plain, tally, counter))
        workloads.instrument(tracer)
        wl.tracer = tracer
        tracer.op = i
        try:
            traced.append(run_op(op, tally, counter))
            tracer.merge_workers()
        finally:
            tracer.uninstrument()
            wl.tracer = None
        if plain is not None and i % 2 == 1:
            untraced.append(run_op(plain, tally, counter))
    return tracer, traced, untraced


def measure_traced(args, wl, ops, tally, counter, tmp) -> dict:
    """Per-layer metrics, and tracing overhead as the calibrated traced
    minus untraced time of the same calls, run in pairs."""
    import workloads

    plain_ops = workloads.make(args.workload, args.seed, tmp, nproc()).ops()
    with Calibrator() as cal:
        tracer, traced, untraced = traced_pass(wl, ops, tally, counter, tmp, plain_ops,
                                               cal.net_clock)
    traced_raw, traced_scaled = calibrated(cal, traced, wl.workers)
    untraced_raw, untraced_scaled = calibrated(cal, untraced, wl.workers)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(f"samples calls={len(traced) + len(untraced)} spans={len(tracer.spans)} "
          f"untraced_s={sum(untraced_raw):.4f} traced_s={sum(traced_raw):.4f} "
          f"untraced_scaled_s={sum(untraced_scaled):.4f} traced_scaled_s={sum(traced_scaled):.4f}")
    metrics = workloads.layer_metrics(tracer, wl, sum(cal.net(t0, t1) for t0, t1, *_ in traced))
    metrics.update(wl.layer_extras())
    overhead = sum(traced_scaled) - sum(untraced_scaled)
    metrics["tracing.overhead_s"] = overhead
    metrics["tracing.overhead_frac"] = overhead / sum(untraced_scaled)
    metrics["runtime_warnings"] = counter.n
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        wl, ops, setup0 = set_up(args, tmp)
        if args.setup_only:
            print(json.dumps({"setup_s": setup0[0], "setup_scaled_s": setup0[1]}))
            return 0
        from workloads import Tally

        env = environment(args)
        print("env " + json.dumps(env, sort_keys=True))
        tally = Tally()
        samples: dict = {}
        with WarningCounter() as counter:
            if args.trace:
                metrics = measure_traced(args, wl, ops, tally, counter, tmp)
            else:
                metrics = measure(args, wl, ops, setup0, tally, counter, samples)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    from workloads import LAYER_UNITS

    units = LAYER_UNITS if args.trace else E2E_UNITS
    for note in tally.notes:
        print(f"mismatch {note}")
    print(f"metric failed_frac {tally.failed / tally.attempted:.6g} fraction")
    print(f"metric wrong_frac {tally.wrong / tally.attempted:.6g} fraction")
    if not args.trace:
        print(f"metric runtime_warnings {counter.n} count")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": tally.wrong == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "wrong": tally.wrong, "notes": tally.notes, **result,
                   "samples": samples}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
