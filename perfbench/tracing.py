"""Layer spans recorded from outside the program.

The traced run replaces public entry points of ``repro.trace``,
``repro.core``, ``repro.store``, ``repro.serve`` and ``repro.stream``
with wrappers that record one span per call: name, start, end, the
enclosing span and optional counts.  Nothing under ``src/`` changes.

Spans stay in memory and are written as JSON when the process ends:
at ``atexit`` for the process that installed the wrappers, and through
a ``multiprocessing`` finalizer for forked pool workers (the serve
daemon's process pool), which leave through ``os._exit``.

All timestamps come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux), so spans from the benchmark, the daemon and its pool worker can
be cut to the same timed window.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: A count hook ``(before, after)``: ``before(args)`` runs ahead of the
#: call (or is ``None``); ``after(args, result, before)`` returns the
#: span's counts.
Hook = Tuple[Optional[Callable], Callable]


def _store_stats(args):
    return args[0].stats.as_dict()


def _store_counts(args, result, before) -> Dict[str, float]:
    after = args[0].stats.as_dict()
    return {
        key: after[key] - before[key]
        for key in ("hits", "misses", "bytes_read", "bytes_written")
        if after[key] != before[key]
    }


def _packed_counts(args, result, before) -> Dict[str, float]:
    return {
        "conflict_sets": result.total_conflict_sets,
        "packed_conflict_sets": result.total_conflict_sets,
        "packed_rows": result.n_rows,
    }


def _mrct_counts(args, result, before) -> Dict[str, float]:
    return {"conflict_sets": result.total_conflict_sets}


def _auto_counts(args, result, before) -> Dict[str, float]:
    return {f"auto_{result}": 1}


def _append_counts(args, result, before) -> Dict[str, float]:
    return {"refs": result}


#: ``(module, attribute, span name, count hook)`` for module functions.
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("repro.trace.io", "read_trace", "trace.read", None),
    ("repro.trace.stats", "compute_statistics", "trace.statistics", None),
    ("repro.trace.strip", "strip_trace", "prelude.strip", None),
    ("repro.trace.strip", "strip_trace_numpy", "prelude.strip", None),
    ("repro.trace.strip", "strip_trace_auto", "prelude.strip", None),
    ("repro.core.zerosets", "build_zero_one_sets", "prelude.zerosets", None),
    ("repro.core.zerosets", "build_zero_one_sets_numpy", "prelude.zerosets", None),
    ("repro.core.prelude_fast", "build_packed_mrct", "prelude.packed_mrct", (None, _packed_counts)),
    ("repro.core.mrct", "build_mrct", "prelude.mrct", (None, _mrct_counts)),
    ("repro.core.prelude_fast", "build_mrct_fast", "prelude.mrct", (None, _mrct_counts)),
    ("repro.core.prelude_fast", "build_mrct_fenwick", "prelude.mrct", (None, _mrct_counts)),
    ("repro.core.prelude_fast", "build_mrct_auto", "prelude.mrct", (None, _mrct_counts)),
    ("repro.core.engines", "choose_auto", "engines.choose_auto", (None, _auto_counts)),
    ("repro.core.postlude", "compute_level_histograms", "postlude.serial", None),
    ("repro.core.vectorized", "compute_level_histograms_packed", "postlude.vectorized", None),
    ("repro.core.vectorized", "compute_level_histograms_vectorized", "postlude.vectorized", None),
    ("repro.core.postlude", "optimal_pairs", "postlude.optimal_pairs", None),
    ("repro.core.request", "explore_request", "request.explore", None),
    ("repro.serve.protocol", "request_to_wire", "serve.client_encode", None),
    ("repro.serve.protocol", "request_key", "serve.key", None),
    ("repro.serve.protocol", "request_from_wire", "serve.decode", None),
    ("repro.serve.protocol", "response_to_wire", "serve.encode", None),
)

#: ``(module, class, method, span name, count hook)`` for methods.
METHODS: Tuple[Tuple[str, str, str, str, Optional[Hook]], ...] = (
    ("repro.store.fs", "ArtifactStore", "get", "store.get", (_store_stats, _store_counts)),
    ("repro.store.fs", "ArtifactStore", "put", "store.put", (_store_stats, _store_counts)),
    ("repro.store.fs", "ArtifactStore", "prune", "store.prune", None),
    ("repro.serve.client", "ServeClient", "explore_wire", "serve.roundtrip", None),
    ("repro.serve.pool", "WorkerPool", "run", "serve.execute", None),
    ("repro.stream", "TraceSession", "append", "stream.append", (None, _append_counts)),
    ("repro.stream", "TraceSession", "explore_many", "stream.explore", None),
    ("repro.stream", "TraceSession", "checkpoint", "stream.checkpoint", None),
)

#: Modules imported before patching, so every ``from X import f``
#: binding of a wrapped function already exists and gets rebound.
PRELOAD = (
    "repro.core.explorer",
    "repro.core.engines",
    "repro.core.request",
    "repro.core.vectorized",
    "repro.core.prelude_fast",
    "repro.serve.pool",
    "repro.serve.server",
    "repro.serve.client",
    "repro.stream",
    "repro.cli",
)


class Tracer:
    """In-memory span recorder for one process (and its forked workers).

    A span is ``[name, start, end, parent, counts]``; ``parent`` indexes
    the same process's span list (``-1`` for a root span).
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _own_process(self) -> None:
        """Start a fresh span list in a forked child, dumped at its exit."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self._stack = []
            multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        """A traced stand-in for ``fn`` recording one span per call."""
        before_fn, count_fn = hook or (None, None)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                self._own_process()
                parent = self._stack[-1] if self._stack else -1
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append([name, start, time.perf_counter(), parent, None])

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._own_process()
            before = before_fn(args) if before_fn else None
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count_fn is not None:
                span[4] = count_fn(args, result, before)
            return result

        return traced

    def dump(self) -> None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def install(out_dir: str) -> Tracer:
    """Wrap every entry point in :data:`FUNCTIONS`/:data:`METHODS`.

    Rebinds each wrapped function wherever a loaded ``repro`` module
    holds it under any name, so ``from X import f`` call sites record
    spans too.  Calls that look the function up on its module at call
    time (lazy imports) pick up the wrapper directly.  The spans are
    written to ``out_dir`` when this process exits.
    """
    tracer = Tracer(out_dir)
    for name in PRELOAD:
        importlib.import_module(name)
    for module_name, attr, span, hook in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        traced = tracer.wrap(original, span, hook)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
    for module_name, cls_name, attr, span, hook in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], span, hook))
    atexit.register(tracer.dump)
    return tracer


def load_spans(out_dir: str) -> List[List[list]]:
    """Every process's span list found in ``out_dir``."""
    lists = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                lists.append(json.load(fh)["spans"])
    return lists


def summarize(
    span_lists: Iterable[List[list]], window: Tuple[float, float]
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Busy time, self time and counts per span name inside ``window``.

    Busy time sums the spans of a name that have no ancestor of the same
    name (nested calls of one layer count once).  Self time is a span's
    duration minus the durations of its direct children.  Counts are
    taken from the same outermost spans.
    """
    lo, hi = window
    busy: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, span_counts) in enumerate(spans):
            if start < lo or end > hi:
                continue
            self_time[name] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                continue
            busy[name] += end - start
            for key, value in (span_counts or {}).items():
                counts[key] += value
    return dict(busy), dict(self_time), dict(counts)
