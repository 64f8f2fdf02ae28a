"""Span tracing from outside the program, and its summary into self times.

The benchmark's traced run installs a :class:`Tracer` before the program
starts: it replaces public callables at the names their callers look up
(``repro.core.checker.query_and_learn``, ``QueryEngine.evaluate_spaces``,
each adapter's ``execute_cube``, ...) with wrappers that record spans.
Nothing under ``src/`` knows about it.

A span is ``(name, id, parent, trace, start, end)``. Spans nest per thread;
the first span of a thread's stack opens a new trace, so every span of
one document shares a trace id. Spans are kept in memory and appended to
``trace-<pid>.jsonl`` whenever a document-level span closes, so the spans
of forked workers (which never run ``atexit``) survive. :func:`summarize`
turns the files back into per-name self times: a span's duration minus
the part of its interval that its children cover (children may overlap,
for example spans of two worker processes under one parent).

Targets that no longer exist are reported as ``absent`` with the reason,
so a change that renames or deletes a layer still runs the benchmark.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

#: Span names that close one document's work; the tracer flushes after
#: each, so spans reach disk even from processes that exit abruptly.
DOCUMENT_SPANS = frozenset({"harness.case", "core.check", "service.exec"})


@dataclass(frozen=True)
class Target:
    """One wrap point: ``attribute`` of ``module`` (``Class.method`` form
    for methods), recorded under ``name``.

    ``kind`` is ``"span"`` (timed) or ``"count"`` (call count only: cheap
    enough for functions called hundreds of thousands of times).
    ``hits`` also counts calls and non-``None`` results (cache lookups).
    ``span_per`` names an attribute of ``self`` whose value is appended to
    the span name (``db.cube_exec.<adapter name>``).
    """

    name: str
    module: str
    attribute: str
    kind: str = "span"
    span_per: str | None = None
    hits: bool = False


class Tracer:
    """Records spans, counts and marks; flushes them per document."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.absent: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: list[list] = []
        self._counts: Counter = Counter()
        self._marks: list[list] = []
        os.register_at_fork(after_in_child=self._forget_parent_buffers)
        atexit.register(self.flush)

    def _forget_parent_buffers(self) -> None:
        # A forked worker inherits the parent's unflushed buffers; the
        # parent flushes those itself. Open spans on the inherited stack
        # stay, so worker spans keep their cross-process parent.
        self._lock = threading.Lock()
        self._spans = []
        self._counts = Counter()
        self._marks = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function, args, kwargs):
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = f"{os.getpid()}.{next(self._ids)}"
        trace = parent[1] if parent is not None else span_id
        stack.append((span_id, trace))
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record = [
                name, span_id, parent[0] if parent else None, trace,
                start, end, os.getpid(),
            ]
            with self._lock:
                self._spans.append(record)
            if name in DOCUMENT_SPANS:
                self.flush()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def mark(self, kind: str, key: str) -> None:
        """A timestamped event (queue submit, lease, ack of one group)."""
        with self._lock:
            self._marks.append([kind, key, time.perf_counter()])

    def flush(self) -> None:
        with self._lock:
            if not (self._spans or self._counts or self._marks):
                return
            record = {
                "spans": self._spans,
                "counts": dict(self._counts),
                "marks": self._marks,
                "absent": self.absent,
            }
            self._spans, self._counts, self._marks = [], Counter(), []
            path = os.path.join(self.out_dir, f"trace-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")

    # -- installation --------------------------------------------------

    def install(self, targets, hooks=None) -> None:
        """Wrap every target that resolves; record the rest as absent.

        ``hooks`` maps a target name to ``hook(tracer, args, result)``,
        called after the wrapped call returns (used to read counters off
        results, such as a report's engine-stats delta).
        """
        hooks = hooks or {}
        for target in targets:
            try:
                owner, attribute, raw = _resolve(target)
            except (ImportError, AttributeError) as error:
                self.absent[target.name] = (
                    f"{target.module}.{target.attribute} not found: {error}"
                )
                continue
            function = getattr(raw, "__func__", raw)
            if getattr(function, "_perfbench_wrapped", False):
                continue  # an inherited method another target wrapped
            wrapped = self._wrap(target, raw, hooks.get(target.name))
            setattr(owner, attribute, wrapped)

    def _wrap(self, target: Target, raw, hook):
        rewrap = None
        function = raw
        if isinstance(raw, (staticmethod, classmethod)):
            rewrap, function = type(raw), raw.__func__
        tracer = self
        name, kind, span_per = target.name, target.kind, target.span_per
        hits = target.hits

        if kind == "count":

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                # Unlocked increment: a lost update under thread
                # contention costs one count, a lock per call costs more.
                tracer._counts[name] += 1
                return function(*args, **kwargs)

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                span = name
                if span_per is not None and args:
                    span = f"{name}.{getattr(args[0], span_per, 'unknown')}"
                result = tracer.call(span, function, args, kwargs)
                if hits:
                    tracer.count(name + ".calls")
                    if result is not None:
                        tracer.count(name + ".hits")
                if hook is not None:
                    hook(tracer, args, result)
                return result

        wrapper._perfbench_wrapped = True
        return rewrap(wrapper) if rewrap is not None else wrapper


def _resolve(target: Target):
    """``(owner, attribute, raw value)`` for a target, or raise."""
    owner = importlib.import_module(target.module)
    *path, attribute = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # The raw class attribute (keeps staticmethod/classmethod intact);
        # inherited methods resolve to the class that defines them.
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return klass, attribute, vars(klass)[attribute]
        raise AttributeError(f"{owner.__name__} has no {attribute!r}")
    return owner, attribute, getattr(owner, attribute)


# -- summary --------------------------------------------------------------


@dataclass
class Summary:
    """Per-name totals over every span, count and mark of a traced run."""

    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, float]
    marks: list[list]
    absent: dict[str, str]
    #: ``name -> pid -> summed duration`` (worker busy time).
    by_pid: dict[str, dict[int, float]]
    #: Self time per name of spans nested in a document span (the
    #: verification window, as opposed to set-up).
    in_documents_s: dict[str, float]


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span id: duration minus the union of its children's
    intervals clipped to the span (overlapping children counted once)."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, _, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for _, span_id, _, _, start, end, *_ in spans:
        covered = _union_length(children.get(span_id, ()), start, end)
        result[span_id] = (end - start) - covered
    return result


def _union_length(intervals, low: float, high: float) -> float:
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def load(out_dir: str) -> Summary:
    """Read every ``trace-*.jsonl`` under ``out_dir`` into a summary."""
    spans: list[list] = []
    counts: Counter = Counter()
    marks: list[list] = []
    absent: dict[str, str] = {}
    for entry in sorted(os.listdir(out_dir)):
        if not (entry.startswith("trace-") and entry.endswith(".jsonl")):
            continue
        with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                spans.extend(record["spans"])
                counts.update(record["counts"])
                marks.extend(record["marks"])
                absent.update(record["absent"])
    return summarize(spans, counts, marks, absent)


def summarize(spans, counts=None, marks=None, absent=None) -> Summary:
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_pid: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    in_documents: dict[str, float] = defaultdict(float)
    inside = _inside_documents(spans)
    for name, span_id, _, _, start, end, pid in spans:
        self_s[name] += own[span_id]
        total_s[name] += end - start
        calls[name] += 1
        by_pid[name][pid] += end - start
        if inside[span_id]:
            in_documents[name] += own[span_id]
    return Summary(
        dict(self_s), dict(total_s), dict(calls), dict(counts or {}),
        list(marks or []), dict(absent or {}),
        {name: dict(pids) for name, pids in by_pid.items()},
        dict(in_documents),
    )


def _inside_documents(spans) -> dict[str, bool]:
    """Whether each span has a :data:`DOCUMENT_SPANS` ancestor."""
    parent_of = {span[1]: span[2] for span in spans}
    document = {span[1] for span in spans if span[0] in DOCUMENT_SPANS}
    inside: dict[str, bool] = {}
    for span_id in parent_of:
        chain = []
        current = parent_of[span_id]
        answer = False
        while current is not None:
            if current in inside:
                answer = inside[current] or current in document
                break
            if current in document:
                answer = True
                break
            chain.append(current)
            current = parent_of.get(current)
        for link in chain:
            inside[link] = answer
        inside[span_id] = answer
    return inside
