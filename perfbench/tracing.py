"""Spans around the calls into each ctcseg layer, recorded from outside src/.

install() wraps the public functions on the posteriors-in, segments-out
path by patching the attributes their callers look up: every reference
to a wrapped function in a loaded ctcseg module, and the methods on
their classes. Spans are kept in memory (name, start, end, parent) and
written out once at the end. Nothing under src/ is edited. A target that
a later version of the program no longer has is skipped, and a counter
whose hook no longer fits the call is lost; both are recorded in the
trace, so their metrics can be reported as unmeasured rather than zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter as clock
from time import thread_time

import numpy as np

# Span name -> the per-layer self-time metric it feeds.
SPANS = {
    "io.rows": "io.rows.self_ms",
    "io.to_stream": "io.to_stream.self_ms",
    "core.validate": "core.validate.self_ms",
    "greedy.decode": "greedy.decode.self_ms",
    "greedy.label": "greedy.label.self_ms",
    "segmenter.offline": "segmenter.offline.self_ms",
    "segmenter.filter": "segmenter.filter.self_ms",
    "segmenter.step": "segmenter.step.self_ms",
    "io.write_segments": "io.write_segments.self_ms",
    "cli.main": "cli.main.self_ms",
    "evaluate": "evaluate.self_ms",
}


class Tracer:
    """In-memory span recorder for one thread, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.skipped: set[str] = set()  # spans whose target was not found
        self.lost: set[str] = set()  # spans whose counter hook failed

    def begin(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(clock())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = clock()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n

    def arrays(self) -> dict:
        return {"names": list(self.names), "name_id": np.array(self.name_id, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64),
                "counters": dict(self.counters),
                "skipped": sorted(self.skipped), "lost": sorted(self.lost)}

    def dump(self, path: str) -> None:
        a = self.arrays()
        extra = {k: a[k] for k in ("counters", "skipped", "lost")}
        np.savez(path, names=np.array(a["names"]), name_id=a["name_id"], start=a["start"],
                 end=a["end"], parent=a["parent"], extra=np.array(json.dumps(extra)))


def load(path: str) -> dict:
    with np.load(path) as z:
        return {"names": [str(n) for n in z["names"]], "name_id": z["name_id"],
                "start": z["start"], "end": z["end"], "parent": z["parent"],
                **json.loads(str(z["extra"]))}


def self_times(trace: dict) -> dict[str, float]:
    """Total self time in seconds per span name.

    A span's self time is its duration minus the part of it that its
    direct children cover. Spans come from one thread, so children of
    one span are sequential and never overlap one another.
    """
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    own = end - start
    child = parent >= 0
    p = parent[child]
    covered = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    np.subtract.at(own, p, np.clip(covered, 0.0, None))
    totals = np.bincount(trace["name_id"], weights=own, minlength=len(trace["names"]))
    return dict(zip(trace["names"], totals.tolist()))


def root_seconds(trace: dict) -> float:
    """Duration of the outermost spans: the traced operation as a whole."""
    roots = trace["parent"] < 0
    return float((trace["end"][roots] - trace["start"][roots]).sum())


# --- wrappers -------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(sid)
        if after is not None:
            try:
                after(tracer, args, result)
            except (AttributeError, IndexError, TypeError):
                tracer.lost.add(name)  # a changed signature loses the counter, not the call
        return result
    return wrapper


def _wrap_rows(tracer: Tracer, name: str, fn, after=None):
    """Time each next() of the row generator; the time between yields is the caller's.

    The thread's CPU time is counted too: a row read from a pipe may
    wait for the producer, and that wait is wall time but not CPU time.
    """
    @functools.wraps(fn)
    def rows(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                sid = tracer.begin(name)
                cpu = thread_time()
                try:
                    row = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.count("io.rows.busy_s", thread_time() - cpu)
                    tracer.finish(sid)
                tracer.count("io.rows.count")
                try:
                    tracer.count("io.bytes_read", row.nbytes)
                except AttributeError:
                    tracer.lost.add(name)
                yield row
        finally:
            gen.close()
    return rows


class _CountingSink:
    def __init__(self, sink, tracer: Tracer):
        self._sink = sink
        self._tracer = tracer

    def write(self, text: str):
        self._tracer.count("io.output_bytes", len(text.encode()))
        return self._sink.write(text)


def _wrap_write_segments(tracer: Tracer, name: str, fn, after=None):
    inner = _wrap(tracer, name, fn)

    @functools.wraps(fn)
    def write_segments(segments, fmt, sink):
        if hasattr(sink, "write"):
            sink = _CountingSink(sink, tracer)
        return inner(segments, fmt, sink)
    return write_segments


def _after_decode(tracer, args, labels):
    tracer.count("greedy.steps", labels.num_steps)
    tracer.count("greedy.nonblank", int((labels.labels != labels.blank_id).sum()))


def _after_label(tracer, args, result):
    tracer.count("greedy.label.calls")


def _after_offline(tracer, args, segments):
    tracer.count("segmenter.raw_segments", len(segments))


def _after_filter(tracer, args, kept):
    tracer.count("segmenter.filter_in", len(args[0]))
    tracer.count("segmenter.kept", len(kept))


def _after_step(tracer, args, events):
    tracer.count("segmenter.step.calls")
    tracer.count("segmenter.events", len(events))


def _after_finish(tracer, args, events):
    tracer.count("segmenter.events", len(events))


def _after_evaluate(tracer, args, report):
    tracer.count("evaluate.pairs_hxr", len(args[0]) * len(args[1].speech_regions))


# (module, attribute path, span name, counter hook or None)
TARGETS = [
    ("ctcseg.cli", "main", "cli.main", None),
    ("ctcseg", "PosteriorReader.rows", "io.rows", None),
    ("ctcseg", "PosteriorReader.to_stream", "io.to_stream", None),
    ("ctcseg", "PosteriorStream.__post_init__", "core.validate", None),
    ("ctcseg", "greedy_decode", "greedy.decode", _after_decode),
    ("ctcseg", "greedy_label", "greedy.label", _after_label),
    ("ctcseg", "segment_offline", "segmenter.offline", _after_offline),
    ("ctcseg", "filter_short_segments", "segmenter.filter", _after_filter),
    ("ctcseg", "OnlineSegmenter.step", "segmenter.step", _after_step),
    ("ctcseg", "OnlineSegmenter.finish", "segmenter.step", _after_finish),
    ("ctcseg", "write_segments", "io.write_segments", None),
    ("ctcseg", "evaluate", "evaluate", _after_evaluate),
]
_WRAPPERS = {"io.rows": _wrap_rows, "io.write_segments": _wrap_write_segments}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every target; returns what uninstall() needs to restore."""
    patched = []
    for module, path, span, after in TARGETS:
        try:
            owner = importlib.import_module(module)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.skipped.add(span)
            continue
        wrapper = _WRAPPERS.get(span, _wrap)(tracer, span, original, after)
        if owners:  # a method: patch it on its class
            patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "ctcseg":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, name, original))
                    setattr(mod, name, wrapper)
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
