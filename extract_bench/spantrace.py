"""Spans around the package's layer functions, and the per-layer numbers.

The traced run wraps each layer's functions, in the benchmark process and,
through a Ray worker set-up hook, in every worker process.  A span is
``(pid, id, parent, name, start, end, doc_id, count)`` with
``time.perf_counter`` clocks (CLOCK_MONOTONIC, shared by all processes).
Spans stay in memory; a worker writes its spans out when the outermost
traced call on its stack returns; the benchmark process keeps its own.

The Readability phases come from the package's ``Extractor.timings`` sink,
which gives each phase's total duration per document but not its start.
Their spans carry those exact durations laid out in phase order: the
top-level phases end where ``readability.parse`` ends, the ``grab.*``
phases start where ``grab`` starts.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter as _now

TRACE_DIR_ENV = "EXTRACT_BENCH_TRACE_DIR"

# Extractor.timings label → span name, in the order the phases run
PHASES = (
    ("readerable", "readability.readerable"),
    ("preprocess", "readability.preprocess"),
    ("metadata", "readability.metadata"),
    ("grab", "readability.grab"),
    ("postprocess", "readability.postprocess"),
    ("serialize", "readability.serialize"),
)
GRAB_PHASES = (
    ("grab.prepareNodes", "readability.grab.prepare_nodes"),
    ("grab.scoreElements", "readability.grab.score_elements"),
    ("grab.topCandidate", "readability.grab.top_candidate"),
    ("grab.prepArticle", "readability.grab.prep_article"),
)
# spans that are the tracer's own work, not a layer's
OWN_SPANS = frozenset({"trace.count_elements"})


class Recorder:
    def __init__(self, out_path: str | None = None) -> None:
        self.pid = os.getpid()
        self.out_path = out_path
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, start, end, doc_id=None, count=0) -> None:
        stack = self._stack()
        stack.pop()
        self.spans.append((self.pid, sid, parent, name, start, end, doc_id, count))
        if not stack and self.out_path:
            with open(self.out_path, "ab") as f:
                marshal.dump(self.spans, f)
            self.spans.clear()

    def add(self, parent: int, name: str, start: float, end: float) -> int:
        sid = next(self._ids)
        self.spans.append((self.pid, sid, parent, name, start, end, None, 0))
        return sid

    def call(self, name, fn, args, kwargs, doc_id=None):
        sid, parent = self.open()
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid, parent, name, start, _now(), doc_id)


class Patches:
    """Module attributes replaced by traced wrappers, restorable."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        rec = self.rec

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return rec.call(name, fn, args, kwargs)

        self.set(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _traced_parse(rec: Recorder, parse):
    """``dom.parse`` span, counting the parsed document's elements."""

    @functools.wraps(parse)
    def traced(*args, **kwargs):
        sid, parent = rec.open()
        start = _now()
        doc = None
        try:
            doc = parse(*args, **kwargs)
            return doc
        finally:
            end = _now()
            count = 0
            if doc is not None:
                count = sum(1 for _ in doc.iter_elements())
                rec.add(parent, "trace.count_elements", end, _now())
            rec.close(sid, parent, "dom.parse", start, end, count=count)

    return traced


def _traced_extractor(rec: Recorder, base):
    class TracedExtractor(base):
        """``readability.parse`` span with the timings sink's phases."""

        def parse(self, html, url="about:blank", serializer=None):
            self.timings = {}
            sid, parent = rec.open()
            start = _now()
            try:
                return super().parse(html, url, serializer)
            finally:
                end = _now()
                t = self.timings
                cursor = end - sum(t.get(label, 0.0) for label, _ in PHASES)
                for label, name in PHASES:
                    if label in t:
                        phase = rec.add(sid, name, cursor, cursor + t[label])
                        if label == "grab":
                            sub = cursor
                            for glabel, gname in GRAB_PHASES:
                                if glabel in t:
                                    rec.add(phase, gname, sub, sub + t[glabel])
                                    sub += t[glabel]
                        cursor += t[label]
                rec.close(sid, parent, "readability.parse", start, end,
                          count=self.candidates_scored)

    return TracedExtractor


def wrap_local(rec: Recorder) -> Patches:
    """Layers called in the benchmark process: page synthesis at set-up and
    lineage commits."""
    from swift_readability_ray.pipelines import training_data as TD
    from swift_readability_ray.state import lineage

    p = Patches(rec)
    p.wrap(TD, "synthesize_page", "training_data.synthesize_page")
    p.wrap(lineage.LineageLog, "record", "lineage.record")
    return p


@contextmanager
def locally_traced(rec: Recorder):
    patches = wrap_local(rec)
    try:
        yield
    finally:
        patches.restore()


def wrap_worker(rec: Recorder) -> Patches:
    """Worker-side layers: the extraction UDFs and everything they call."""
    from swift_readability_ray.pipelines import training_data as TD
    from swift_readability_ray.readability import core
    from swift_readability_ray.stages import extract as X

    p = Patches(rec)
    p.wrap(TD, "_to_span_docs", "training_data.to_span_docs")
    p.wrap(TD, "synthesize_page", "training_data.synthesize_page")
    p.wrap(X, "extract_spans_batch", "extract.extract_spans_batch")
    p.wrap(X, "spans_to_html", "spans.spans_to_html")
    p.wrap(X, "emit_spans", "spans.emit_spans")
    p.wrap(X, "rows_to_table", "extract.rows_to_table")
    p.set(core, "parse", _traced_parse(rec, core.parse))
    p.set(X, "Extractor", _traced_extractor(rec, X.Extractor))

    extract_one = X.ReadabilityExtractor.extract_one

    @functools.wraps(extract_one)
    def traced_extract_one(self, doc_id, spans):
        return rec.call("extract.row", extract_one, (self, doc_id, spans), {}, doc_id)

    p.set(X.ReadabilityExtractor, "extract_one", traced_extract_one)
    return p


def install() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    out = os.path.join(os.environ[TRACE_DIR_ENV], f"spans-{os.getpid()}.bin")
    wrap_worker(Recorder(out))


def worker_runtime_env(trace_dir: str, root: str) -> dict:
    return {
        "worker_process_setup_hook": "extract_bench.spantrace.install",
        "env_vars": {TRACE_DIR_ENV: trace_dir, "PYTHONPATH": root},
    }


def load_worker_spans(trace_dir: str) -> list[tuple]:
    spans: list[tuple] = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), "rb") as f:
            while True:
                try:
                    spans.extend(marshal.load(f))
                except EOFError:
                    break
    return spans


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, and Σ count.  Self
    time is the duration minus the part of it that child spans cover."""
    children: dict[tuple, list] = defaultdict(list)
    for pid, _sid, parent, _n, start, end, _d, _c in spans:
        children[(pid, parent)].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "count": 0}
    )
    for pid, sid, _p, name, start, end, _d, count in spans:
        inside = [
            (max(s, start), min(e, end)) for s, e in children.get((pid, sid), ())
            if e > start and s < end
        ]
        t = out[name]
        t["calls"] += 1
        t["incl_s"] += end - start
        t["self_s"] += (end - start) - _union(inside)
        t["count"] += count
    return dict(out)
