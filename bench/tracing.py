"""Spans around the library's public functions, recorded from outside ``src/``.

Each wrap point replaces a function at the module attribute its caller looks
it up through (``tangledpath.sweeps.event_flag_matrix`` is the name
``run_sweep``'s trials call), so a span's parent is the span that really
caused it.  Spans opened on a worker thread with nothing open on that thread
take the caller thread's outermost open span as parent: the benchmark is a
closed loop with one caller, so that span is the job that started the worker.

Spans stay in memory as (id, name, start, end, parent, thread) tuples plus
the words of random output a span produced, and are written out once, at exit.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _diameter_label(g, *args, **kwargs) -> str:
    return f"graph.diameter_n{g.n}"


# (module, attribute, span name or a function of the call's arguments,
#  random words produced by the call or None, tracemalloc peak wanted)
WRAP_POINTS = (
    ("tangledpath.sweeps", "run_sweep", "sweeps.run_sweep", None, False),
    ("tangledpath.mallows", "uniform_matrix", "rng.uniform_matrix",
     lambda seeds, ncols: len(seeds) * ncols, False),
    ("tangledpath.rng", "stream_u64", "rng.stream_u64",
     lambda seed, start, count: count, False),
    ("tangledpath.sweeps", "sample_trace_matrix", "mallows.sample_trace_matrix", None, False),
    ("tangledpath.mallows", "sample_trace", "mallows.sample_trace", None, False),
    ("tangledpath.mallows", "mallows_process", "mallows.process", None, False),
    ("tangledpath.sweeps", "mallows_process", "mallows.process", None, False),
    ("tangledpath.sweeps", "event_flag_matrix", "events.event_flag_matrix", None, True),
    ("tangledpath.events", "event_flag_matrix", "events.event_flag_matrix", None, True),
    ("tangledpath.events", "cut_vertices_from_trace", "events.cut_vertices_from_trace", None, False),
    ("tangledpath.graph", "build_tangled", "graph.build_tangled", None, False),
    ("tangledpath.sweeps", "build_tangled", "graph.build_tangled", None, False),
    ("tangledpath.graph", "articulation_points", "graph.articulation_points", None, False),
    ("tangledpath.sweeps", "diameter", _diameter_label, None, True),
    ("tangledpath.widths", "treewidth_exact", "widths.treewidth_exact", None, False),
    ("tangledpath.widths", "cutwidth_exact", "widths.cutwidth_exact", None, False),
    ("tangledpath.widths", "vertex_iso", "widths.vertex_iso", None, False),
    ("tangledpath.widths", "edge_iso", "widths.edge_iso", None, False),
)

SPAN_NAMES = (
    "sweeps.run_sweep",
    "rng.uniform_matrix",
    "rng.stream_u64",
    "mallows.sample_trace_matrix",
    "mallows.sample_trace",
    "mallows.process",
    "events.event_flag_matrix",
    "events.cut_vertices_from_trace",
    "graph.build_tangled",
    "graph.articulation_points",
    "graph.diameter_n200",
    "graph.diameter_n2000",
    "widths.treewidth_exact",
    "widths.cutwidth_exact",
    "widths.vertex_iso",
    "widths.edge_iso",
)

# metric -> (span, "total" or "self"); seconds per traced job
TIME_METRICS = {
    "sweeps.driver_self_s": ("sweeps.run_sweep", "self"),
    "rng.uniform_matrix_s": ("rng.uniform_matrix", "total"),
    "rng.stream_u64_s": ("rng.stream_u64", "total"),
    "mallows.sample_trace_matrix_self_s": ("mallows.sample_trace_matrix", "self"),
    "mallows.sample_trace_s": ("mallows.sample_trace", "total"),
    "mallows.process_s": ("mallows.process", "total"),
    "events.event_flag_matrix_s": ("events.event_flag_matrix", "total"),
    "events.cut_vertices_from_trace_s": ("events.cut_vertices_from_trace", "total"),
    "graph.build_tangled_s": ("graph.build_tangled", "total"),
    "graph.articulation_points_s": ("graph.articulation_points", "total"),
    "graph.diameter_n200_s": ("graph.diameter_n200", "total"),
    "graph.diameter_n2000_s": ("graph.diameter_n2000", "total"),
    "widths.treewidth_exact_s": ("widths.treewidth_exact", "total"),
    "widths.cutwidth_exact_s": ("widths.cutwidth_exact", "total"),
    "widths.vertex_iso_s": ("widths.vertex_iso", "total"),
    "widths.edge_iso_s": ("widths.edge_iso", "total"),
}

# metric -> span; largest tracemalloc peak of one call, in MB
PEAK_METRICS = {
    "events.event_flag_matrix_peak_mb": "events.event_flag_matrix",
    "graph.diameter_n200_peak_mb": "graph.diameter_n200",
    "graph.diameter_n2000_peak_mb": "graph.diameter_n2000",
}

RNG_SPANS = ("rng.uniform_matrix", "rng.stream_u64")


class Tracer:
    """Records spans while ``recording``; records per-call memory peaks while
    ``measuring_memory`` (tracemalloc must then be running)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.peaks: dict[str, int] = defaultdict(int)
        self.recording = True
        self.measuring_memory = False
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, words, peak):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if tracer.measuring_memory:
                if not peak:
                    return fn(*args, **kwargs)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    grown = tracemalloc.get_traced_memory()[1] - base
                    tracer.peaks[label] = max(tracer.peaks[label], grown)
            if not tracer.recording:
                return fn(*args, **kwargs)
            work = words(*args, **kwargs) if words else 0
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            with tracer._lock:
                sid = next(tracer._ids)
            is_root = not stack and threading.current_thread() is tracer._main
            if is_root:
                tracer._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append(
                    (sid, label, start, end, parent, threading.get_ident(), work)
                )

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every point for the duration; a missing name is an error."""
        saved = []
        try:
            for module_name, attr, name, words, peak in WRAP_POINTS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise AttributeError(
                        f"wrap point {module_name}.{attr} is gone; "
                        "update bench/tracing.py and the metrics it feeds"
                    )
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, words, peak))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def paused(self):
        """Record no spans for the duration."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def calls(self) -> Counter:
        return Counter(s[1] for s in self.spans)

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, normalised per traced job; uncalled spans give 0."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        covered = _child_cover(self.spans)
        words = 0
        for sid, name, start, end, _, _, work in self.spans:
            total[name] += end - start
            self_time[name] += end - start - covered.get(sid, 0.0)
            words += work
        metrics: dict[str, tuple[float, str]] = {}
        for metric, (span, kind) in TIME_METRICS.items():
            metrics[metric] = ((self_time if kind == "self" else total)[span] / jobs, "s/job")
        calls = self.calls()
        for span in SPAN_NAMES:
            metrics[f"{span}.calls"] = (calls[span] / jobs, "1/job")
        rng_time = sum(total[s] for s in RNG_SPANS)
        metrics["rng.words_per_s"] = (words / rng_time if rng_time else 0.0, "1/s")
        for metric, span in PEAK_METRICS.items():
            metrics[metric] = (self.peaks.get(span, 0) / 2**20, "MB")
        return metrics

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["fields"] = ["id", "name", "start", "end", "parent", "thread", "words"]
        payload["spans"] = sorted(self.spans)
        path.write_text(json.dumps(payload) + "\n")


def _child_cover(spans) -> dict[int, float]:
    """Per span id, how much of its interval its children's union covers."""
    bounds = {s[0]: (s[2], s[3]) for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None and parent in bounds:
            children[parent].append((start, end))
    cover = {}
    for parent, intervals in children.items():
        lo, hi = bounds[parent]
        length, cur_start, cur_end = 0.0, None, None
        for start, end in sorted(intervals):
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    length += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            length += cur_end - cur_start
        cover[parent] = length
    return cover
