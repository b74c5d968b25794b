"""Per-layer tracing from outside the program.

The benchmark wraps each layer's public functions at run time — the
program itself is not edited.  Two kinds of wrapper:

* **spans** around per-cell calls (``run_artefacts``, ``run_one``,
  ``materialized_trace`` …): each closed span records its id, its
  parent span's id, the process id, start and end;
* **aggregates** around per-instruction calls (``feed``,
  ``observe_timing``, cache accesses, the trace iterator …): only a
  call count and busy time are kept, since a span per instruction would
  cost more than the work it measures.

Both kinds share one stack of open frames, so every frame knows how much
of its interval its callees covered.  A layer's *self* time is the time
its frames were open minus the time covered by frames of callees
(whatever their layer) — the time the layer itself was busy.  The
wrappers' cost outside the intervals they record is measured once
(:meth:`Tracer.calibrate`) and charged to no layer: without that, a
layer that makes many traced calls (``feed`` calling the caches) would
be billed for their wrappers.

Fork children inherit the installed wrappers and the open-frame stack
(so their spans point at the parent's ``run_artefacts`` span), and write
what they record to ``<dir>/<pid>.json``; :func:`merge` folds those
files into the parent's report and subtracts child-process spans from
their parent's self time.  ``time.perf_counter`` reads
``CLOCK_MONOTONIC`` on Linux, which is one clock for every process.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

clock = time.perf_counter


class Tracer:
    """Counters, self times and spans of one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.time_s: Dict[str, float] = {}   # inclusive time per counter
        self.spans: List[dict] = []
        self._stack: List[float] = []        # callee time of each open frame
        self._span_ids: List[str] = []       # ids of the open spans
        self._serial = 0
        self._restore: List[tuple] = []
        self._outer = 0.0   # wrapper cost per call outside what it records

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop what was recorded; the open frames stay (fork children)."""
        self.calls.clear()
        self.self_s.clear()
        self.time_s.clear()
        self.spans.clear()

    def count(self, counter: str) -> None:
        self.calls[counter] = self.calls.get(counter, 0) + 1

    def _close(self, layer: str, counter: str, start: float) -> float:
        elapsed = clock() - start
        covered = self._stack.pop()
        self.calls[counter] = self.calls.get(counter, 0) + 1
        self.time_s[counter] = self.time_s.get(counter, 0.0) + elapsed
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - covered
        if self._stack:
            self._stack[-1] += elapsed + self._outer
        return covered

    def calibrate(self, calls: int = 50_000) -> None:
        """Measure what an aggregate wrapper costs its caller beyond the
        interval it records (best of three rounds).

        That cost is then left out of the caller's self time.  The part
        inside the recorded interval (a few hundred nanoseconds) stays in
        the callee's: subtracting an estimate of it drove the self time
        of the cheapest calls below zero.
        """
        def noop():
            return None

        wrapped = self.aggregate("calibrate", "calibrate", noop)
        outer = []
        for _ in range(3):
            start = clock()
            for _ in range(calls):
                pass
            loop = (clock() - start) / calls
            self._stack.append(0.0)
            start = clock()
            for _ in range(calls):
                wrapped()
            total = (clock() - start) / calls - loop
            outer.append(total - self._stack.pop() / calls)
        self._outer = max(0.0, min(outer))
        for table in (self.calls, self.self_s, self.time_s):
            table.pop("calibrate", None)

    def aggregate(self, layer: str, counter: str, fn: Callable) -> Callable:
        """Wrap a per-instruction call: count and busy time only."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, counter, start)
        return wrapper

    def aggregate_async(self, layer: str, counter: str,
                        fn: Callable) -> Callable:
        """:meth:`aggregate` for a coroutine function.

        The frame stays open across the awaits, so this is only exact
        for a coroutine that does not yield to the loop — which holds
        for the serve backend at its default zero service delay.
        """
        stack = self._stack

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(layer, counter, start)
        return wrapper

    def span(self, layer: str, counter: str, fn: Callable) -> Callable:
        """Wrap a per-cell call: a span with a parent id, plus a count."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._serial += 1
            span_id = f"{os.getpid()}.{self._serial}"
            parent = self._span_ids[-1] if self._span_ids else None
            self._span_ids.append(span_id)
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                covered = self._close(layer, counter, start)
                self._span_ids.pop()
                self.spans.append({
                    "id": span_id, "parent": parent, "name": counter,
                    "layer": layer, "pid": os.getpid(), "start": start,
                    "end": clock(), "covered": covered})
        return wrapper

    def iterator(self, layer: str, counters: Tuple[str, str],
                 fn: Callable) -> Callable:
        """Wrap a generator function: ``counters`` is ``(runs, items)`` —
        one count per call, and each ``next`` timed as an aggregate."""
        runs, items = counters
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(runs)
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    start = clock()
                    stack.append(0.0)
                    try:
                        value = next(inner)
                    except BaseException as exc:
                        stack.pop()
                        if isinstance(exc, StopIteration):
                            return
                        raise
                    self._close(layer, items, start)
                    yield value
            return timed()
        return wrapper

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` by ``wrapper`` until :meth:`uninstall`."""
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, kind: str, layer: str, counter: str, owner,
             attr: str) -> None:
        """Patch ``owner.attr`` with a wrapper of ``kind``."""
        original = owner.__dict__[attr]
        method = getattr(self, kind)
        if isinstance(original, classmethod):
            self.patch(owner, attr,
                       classmethod(method(layer, counter, original.__func__)))
        else:
            self.patch(owner, attr, method(layer, counter, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "time_s": dict(self.time_s), "spans": list(self.spans)}

    def dump(self, directory: os.PathLike) -> None:
        """Write this process's records to ``<directory>/<pid>.json``."""
        path = Path(directory) / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)


def merge(parent: dict, directory: os.PathLike) -> dict:
    """Fold the child-process dumps in ``directory`` into ``parent``.

    Counts and times add up.  A span whose child spans ran in another
    process did not see them close, so their durations are subtracted
    from its layer's self time here.
    """
    out = {"calls": dict(parent["calls"]), "self_s": dict(parent["self_s"]),
           "time_s": dict(parent["time_s"]), "spans": list(parent["spans"])}
    for path in sorted(Path(directory).glob("*.json")):
        child = json.loads(path.read_text(encoding="utf-8"))
        for key in ("calls", "self_s", "time_s"):
            for name, value in child[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["spans"].extend(child["spans"])
    by_id = {span["id"]: span for span in out["spans"]}
    for span in out["spans"]:
        parent_span = by_id.get(span["parent"])
        if parent_span is not None and parent_span["pid"] != span["pid"]:
            elapsed = span["end"] - span["start"]
            layer = parent_span["layer"]
            out["self_s"][layer] = out["self_s"].get(layer, 0.0) - elapsed
    return out
