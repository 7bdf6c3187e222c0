"""In-memory span recording around calls into isosoliton's public functions.

A span is [name, start, end, parent, op, pid, attrs]: ``parent`` is the index
of the enclosing span or -1, ``op`` the benchmark operation the call served,
``attrs`` exact counters read from the call's result.  Spans stay in memory
and are written out once, at exit.

Instrumentation replaces a function on every isosoliton module that holds it
(``from .integrator import maximal_trace`` binds the same object in
``classifier`` and ``cli``), so calls made inside the package are seen too.
Pool workers forked during a traced sweep inherit the wrappers; each worker
keeps its own spans and writes them to ``out_dir`` when it exits, and the
parent merges them under the span that was open when the worker was forked.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from multiprocessing import util as mp_util


class Tracer:
    def __init__(self, out_dir: str, clock=time.perf_counter):
        self.out_dir = out_dir
        self.clock = clock
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._root_parent = -1
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _in_own_process(self) -> None:
        if os.getpid() == self._pid:
            return
        # First traced call in a forked worker: drop the parent's spans and
        # remember which parent span this worker runs under.
        self._root_parent = self._stack[-1] if self._stack else -1
        self.spans = []
        self.counters = {}
        self._stack = []
        self._pid = os.getpid()
        mp_util.Finalize(None, self._dump_worker, exitpriority=10)

    def call(self, name, fn, args, kwargs, counters=None):
        self._in_own_process()
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = [name, start, end, parent, self.op, self._pid, None]
        if counters is not None:
            self.spans[idx][6] = counters(result)
        return result

    def count(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    # -- instrumentation ---------------------------------------------------

    def instrument(self, module, attr: str, counters=None) -> None:
        """Wrap ``module.attr`` wherever an isosoliton module holds it."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, counters)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("isosoliton") \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))

    def uninstrument(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- worker hand-off ---------------------------------------------------

    def _dump_worker(self) -> None:
        path = os.path.join(self.out_dir, f"worker-{self._pid}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"root_parent": self._root_parent,
                                 "counters": self.counters}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def merge_workers(self) -> None:
        """Adopt the spans that exited workers wrote, then delete the files."""
        for fname in sorted(os.listdir(self.out_dir)):
            if not (fname.startswith("worker-") and fname.endswith(".jsonl")):
                continue
            path = os.path.join(self.out_dir, fname)
            with open(path, encoding="utf-8") as fh:
                head = json.loads(fh.readline())
                local = [json.loads(line) for line in fh]
            os.remove(path)
            offset = len(self.spans)
            for s in local:
                s[3] = head["root_parent"] if s[3] == -1 else s[3] + offset
                self.spans.append(s)
            for k, v in head["counters"].items():
                self.count(k, v)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, pid, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": None if parent == -1 else parent,
                    "op": op, "pid": pid, "attrs": attrs,
                }) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span may overlap (pool workers run in parallel), so the
    covered part is the measure of the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent != -1:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (end - start) - covered))
    return out
